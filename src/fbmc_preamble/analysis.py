"""Preamble PAPR measurement, Monte Carlo CCDF estimation, and the
analytic Rician/Marcum-Q exceedance model.

The observation window spans [(n+2)T/2, (n+6)T/2): two symbol intervals
centered on the preamble pulse peak at t = (n+4)T/2.  At a fixed t the
signal magnitude is Rician: a deterministic preamble envelope nu(t) plus
circular Gaussian data interference with per-component variance sigma^2(t).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special as _sp

from .prototype import PrototypeFilter
from .waveform import (FbmcGrid, FrameConfig, SampledSignal, add_weighted, carrier_phase,
                       check_trials, checked_preamble, reaching_data_slots, slot_data,
                       slot_signal, slot_sums, synthesize)
from .workers import POOL, cpu_count


class AnalysisError(ValueError):
    """Invalid analysis parameters."""


def average_power(subcarriers: int) -> float:
    """Long-run mean power 2M/T of the data payload (T = 1)."""
    if subcarriers < 1:
        raise AnalysisError("need at least one subcarrier")
    return 2.0 * subcarriers


@dataclass(frozen=True)
class AnalysisWindow:
    preamble_slot: int
    start_index: int       # first sample inside the window
    length: int            # 2T worth of samples

    @classmethod
    def for_signal(cls, signal: SampledSignal, preamble_slot: int) -> "AnalysisWindow":
        spt = signal.samples_per_symbol
        t_start = (preamble_slot + 2) / 2.0
        start = round((t_start - signal.t0) * spt)
        win = cls(preamble_slot=preamble_slot, start_index=start, length=2 * spt)
        if start < 0 or start + win.length > len(signal.samples):
            raise AnalysisError("analysis window exceeds the sampled signal")
        return win


def papr(signal: SampledSignal, window: AnalysisWindow, p_avg: float) -> float:
    """Peak instantaneous-to-average power over the window, in dB."""
    if not (math.isfinite(p_avg) and p_avg > 0):
        raise AnalysisError(f"average power must be finite and > 0, not {p_avg!r}")
    if window.start_index < 0 or window.start_index + window.length > len(signal.samples):
        raise AnalysisError("analysis window exceeds the sampled signal")
    seg = signal.samples[window.start_index: window.start_index + window.length]
    return 10.0 * math.log10(float(np.max(np.abs(seg) ** 2)) / p_avg)


# ---------------------------------------------------------------------------
# Rician point model

def nu_of_t(preamble: np.ndarray, filt: PrototypeFilter, preamble_slot: int, t) -> np.ndarray:
    """Preamble-only envelope |g(t - nT/2)| |sum_m c_m j^m e^{j2pi m t}|.

    Independent of the guard count by construction.  The pulse enters in
    magnitude because nu is the mean length of the Rician phasor.
    """
    t = np.atleast_1d(np.asarray(t, dtype=float))
    coeffs = np.asarray(preamble, dtype=complex)[None, :]
    out = np.abs(slot_signal(coeffs, [preamble_slot], t, filt))
    return out if out.shape != (1,) else float(out[0])


def sigma2_of_t(guards: int, filt: PrototypeFilter, subcarriers: int,
                preamble_slot: int, t) -> np.ndarray:
    """Per-component variance (M/2) sum_{data slots} g^2(t - n'T/2) of the
    data interference; guard and preamble slots contribute nothing."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    acc = np.zeros_like(t)
    for slot in reaching_data_slots(preamble_slot, guards, filt.overlap, t):
        acc += filt(t - slot / 2.0) ** 2
    out = 0.5 * subcarriers * acc
    return out if out.shape != (1,) else float(out[0])


@dataclass(frozen=True)
class RicianPointModel:
    t: float
    nu: float
    sigma: float
    p_avg: float

    def __post_init__(self):
        if self.nu < 0 or self.sigma < 0 or self.p_avg <= 0:
            raise AnalysisError("nu, sigma must be >= 0 and p_avg > 0")

    @classmethod
    def at_time(cls, preamble: np.ndarray, filt: PrototypeFilter, cfg: FrameConfig,
                t: float) -> "RicianPointModel":
        return cls(
            t=t,
            nu=float(nu_of_t(preamble, filt, cfg.preamble_slot, t)),
            sigma=math.sqrt(float(sigma2_of_t(cfg.guards, filt, cfg.subcarriers,
                                              cfg.preamble_slot, t))),
            p_avg=average_power(cfg.subcarriers),
        )


# ---------------------------------------------------------------------------
# Special functions

def marcum_q1(a: float, b: float) -> float:
    """First-order Marcum Q-function, Q1(a, b) = 1 - F(b^2) for the
    noncentral chi-square F with 2 degrees of freedom and noncentrality a^2.

    The absolute error is at most 1e-10 against scipy.stats.ncx2.sf
    (checked on scipy 1.17.1, a and b up to about 1e7); relative precision
    is not kept for Q1 below about 1e-12, which can come out as 0.  Raises
    FloatingPointError where scipy's chndtr gives no finite F.
    """
    if not (np.isfinite(a) and np.isfinite(b)) or a < 0 or b < 0:
        raise AnalysisError("arguments must be finite and >= 0")
    cdf = float(_sp.chndtr(b * b, 2, a * a))
    if not math.isfinite(cdf):
        raise FloatingPointError(f"chndtr({b * b!r}, 2, {a * a!r}) = {cdf}")
    return 1.0 - cdf


def iapr_exceedance(alpha: float, model: RicianPointModel) -> float:
    """Pr{|s(t)|^2 / P_avg >= alpha} at the model's time instant."""
    if alpha < 0:
        raise AnalysisError("threshold must be >= 0")
    if alpha == 0.0:
        return 1.0
    if model.sigma == 0.0:
        return 1.0 if model.nu**2 >= alpha * model.p_avg else 0.0
    return marcum_q1(model.nu / model.sigma,
                     math.sqrt(alpha * model.p_avg) / model.sigma)


# ---------------------------------------------------------------------------
# Monte Carlo engine

def default_thresholds() -> np.ndarray:
    return np.round(np.arange(0.0, 9.0 + 1e-9, 0.05), 6)


_Z95 = 1.959963984540054       # standard normal quantile at 0.975


def wilson_interval(hits, trials):
    """Wilson score 95% interval (low, high) of a probability estimated as
    hits / trials; `hits` may be an array.  Unlike the normal
    approximation it stays informative at zero hits, where its upper end
    is about 3.84 / trials.  Raises AnalysisError unless trials >= 1 and
    every hit count lies in [0, trials]."""
    hits = np.asarray(hits, dtype=float)
    if not trials >= 1:
        raise AnalysisError(f"need at least one trial, not {trials!r}")
    if not np.all((hits >= 0) & (hits <= trials)):
        raise AnalysisError(f"hits must lie in [0, {trials}]")
    z2 = _Z95 * _Z95
    centre = (hits + z2 / 2.0) / (trials + z2)
    half = _Z95 / (trials + z2) * np.sqrt(hits * (trials - hits) / trials + z2 / 4.0)
    return (np.where(hits == 0, 0.0, centre - half),
            np.where(hits == trials, 1.0, centre + half))


@dataclass(frozen=True)
class CcdfResult:
    """Monte Carlo CCDF: exceed_count[i] of the trials had PAPR above
    thresholds_db[i]."""
    thresholds_db: np.ndarray = field(compare=False)
    exceed_count: np.ndarray = field(compare=False)
    trials: int
    max_papr_db: float = float("-inf")
    config: dict = field(default_factory=dict, compare=False)

    @property
    def exceed_prob(self) -> np.ndarray:
        return self.exceed_count / self.trials

    @property
    def wilson95(self) -> tuple[np.ndarray, np.ndarray]:
        """Wilson score 95% interval of each exceedance probability."""
        return wilson_interval(self.exceed_count, self.trials)

    def write_csv(self, path) -> None:
        low, high = self.wilson95
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["threshold_db", "exceed_prob", "exceed_count", "wilson95_low",
                        "wilson95_high"])
            for thr, p, count, lo, hi in zip(self.thresholds_db, self.exceed_prob,
                                             self.exceed_count, low, high):
                w.writerow([f"{thr:.4f}", f"{p:.10g}", int(count), f"{lo:.10g}", f"{hi:.10g}"])

    def to_json(self) -> str:
        low, high = self.wilson95
        return json.dumps({
            "thresholds_db": [round(float(v), 6) for v in self.thresholds_db],
            "exceed_prob": list(map(float, self.exceed_prob)),
            "exceed_count": list(map(int, self.exceed_count)),
            "wilson95_low": list(map(float, low)),
            "wilson95_high": list(map(float, high)),
            "trials": self.trials,
            "max_papr_db": self.max_papr_db,
            "config": self.config,
        }, indent=2)


class _WindowSampler:
    """Evaluates s(t) over the analysis window for many trials at once.

    Only the slots whose filter support reaches the window are synthesized;
    all other symbols contribute exactly zero there, so the result matches
    full-frame synthesis sample for sample.  The window is two symbol
    intervals long and each slot's subcarrier sum, referenced to the window
    start, is T-periodic, so one IFFT of spt points serves both halves.
    """

    def __init__(self, preamble: np.ndarray, filt: PrototypeFilter, cfg: FrameConfig):
        preamble = checked_preamble(preamble, cfg.subcarriers)
        self.cfg = cfg
        spt = cfg.samples_per_symbol
        self.spt = spt
        filt = filt.resample(spt)
        n = cfg.preamble_slot
        m = cfg.subcarriers
        t_win = (n + 2) / 2.0 + np.arange(2 * spt) / spt
        self.data_slots = reaching_data_slots(n, cfg.guards, filt.overlap, t_win)
        self.pairs = filt.pairs

        def term(s):
            """Slot s's coefficient phase, referenced to the window start, and
            its first sample counted from the window start."""
            return carrier_phase(m, s, n + 2), (s - n - 2) * spt // 2

        self._terms = [term(s) for s in self.data_slots]
        phase, offset = term(n)
        coeff = np.zeros((1, spt), dtype=complex)
        coeff[0, :m] = preamble * phase
        self.preamble_window = np.zeros((1, 2, spt), dtype=complex)
        add_weighted(self.preamble_window, slot_sums(coeff, coeff), self.pairs, offset)

    def window(self, data: np.ndarray) -> np.ndarray:
        """Window samples, shape (count, 2 * spt), for the real data
        (len(data_slots), count, M) of the data slots that reach it."""
        data = np.asarray(data)
        m = self.cfg.subcarriers
        if data.ndim != 3 or data.shape[0] != len(self.data_slots) or data.shape[2] != m:
            raise AnalysisError(f"data of shape {data.shape} is not "
                                f"({len(self.data_slots)}, count, {m})")
        count = data.shape[1]
        out = np.tile(self.preamble_window, (count, 1, 1))
        coeff = np.zeros((count, self.spt), dtype=complex)
        base = np.empty_like(coeff)
        for (phase, offset), a in zip(self._terms, data):
            np.multiply(a, phase, out=coeff[:, :m])
            add_weighted(out, slot_sums(coeff, base), self.pairs, offset)
        return out.reshape(count, 2 * self.spt)

    def sample_trials(self, first_trial: int, count: int) -> np.ndarray:
        """Window samples, shape (count, 2 * spt), of trials
        [first_trial, first_trial + count)."""
        trials = np.arange(first_trial, first_trial + count)
        return self.window(slot_data(self.cfg, trials, self.data_slots[:, None]))


DEFAULT_CHUNK = 16
# Trials per shard at most: bounds a shard's reply (512 KB) and the memory
# of a long call, which then runs in rounds of one shard per process.
MAX_SHARD_TRIALS = 1 << 16


def engine_processes(trials: int, chunk: int = DEFAULT_CHUNK) -> int:
    """Processes an engine call over `trials` trials runs on: one per CPU
    this process may use, at most one per chunk."""
    return max(1, min(cpu_count(), -(-trials // chunk)))


def _papr_db(sampler: _WindowSampler, first_trial: int, trials: int, chunk: int) -> np.ndarray:
    """Per-trial window PAPR in dB of trials [first_trial, first_trial + trials)."""
    p_avg = average_power(sampler.cfg.subcarriers)
    out = np.empty(trials)
    for lo in range(0, trials, chunk):
        win = sampler.sample_trials(first_trial + lo, min(chunk, trials - lo))
        out[lo: lo + chunk] = 10.0 * np.log10(np.max(np.abs(win) ** 2, axis=1) / p_avg)
    return out


def _papr_db_shards(preamble: np.ndarray, filt: PrototypeFilter, cfg: FrameConfig,
                    trials: int, chunk: int, first_trial: int = 0):
    """Per-trial window PAPR in dB, one array per shard of whole chunks.

    The range is cut into one shard per engine process, which run at the
    same time: this process computes the first and the engine's workers the
    others.  Every trial's data is keyed on (seed, trial, slot), so the
    values do not depend on the number of processes.  All input is checked
    here, before any worker is fed.
    """
    if chunk < 1:
        raise AnalysisError("chunk must be >= 1")
    if trials < 0:
        raise AnalysisError("trials must be >= 0")
    sampler = _WindowSampler(preamble, filt, cfg)
    stop = first_trial + trials
    check_trials(first_trial, stop)
    if trials < 1:
        return
    chunks = -(-trials // chunk)
    processes = engine_processes(trials, chunk)
    span = chunk * min(-(-chunks // processes), max(1, MAX_SHARD_TRIALS // chunk))
    starts = range(first_trial, stop, span)
    for k in range(0, len(starts), processes):
        yield from POOL.run(_papr_db, [(sampler, s, min(span, stop - s), chunk)
                                       for s in starts[k: k + processes]])


def monte_carlo_ccdf(preamble: np.ndarray, filt: PrototypeFilter, cfg: FrameConfig,
                     trials: int, thresholds_db: np.ndarray | None = None,
                     chunk: int = DEFAULT_CHUNK) -> CcdfResult:
    """Estimate Pr{PAPR > X} over random data realizations.

    Deterministic given cfg.rng_seed: trial i draws its data from
    counter-based streams keyed on (seed, i, slot).
    """
    if trials < 1:
        raise AnalysisError("need at least one trial")
    if thresholds_db is None:
        thresholds_db = default_thresholds()
    thresholds_db = np.asarray(thresholds_db, dtype=float)
    exceed = np.zeros(len(thresholds_db), dtype=np.int64)
    max_db = float("-inf")
    for peak_db in _papr_db_shards(preamble, filt, cfg, trials, chunk):
        exceed += len(peak_db) - np.searchsorted(np.sort(peak_db), thresholds_db, side="right")
        max_db = max(max_db, float(np.max(peak_db)))
    return CcdfResult(
        thresholds_db=thresholds_db,
        exceed_count=exceed,
        trials=trials,
        max_papr_db=max_db,
        config=cfg.to_json_dict(),
    )


def papr_samples(preamble: np.ndarray, filt: PrototypeFilter, cfg: FrameConfig,
                 trials: int, chunk: int = DEFAULT_CHUNK, first_trial: int = 0) -> np.ndarray:
    """Per-trial preamble PAPR values in dB (same trials as monte_carlo_ccdf).

    Trial i of the returned array is keyed on the absolute index
    first_trial + i, so disjoint calls tile one reproducible stream.
    """
    shards = list(_papr_db_shards(preamble, filt, cfg, trials, chunk, first_trial))
    return np.concatenate(shards) if shards else np.empty(0)


def signal_at_times(preamble: np.ndarray, filt: PrototypeFilter, cfg: FrameConfig,
                    t: np.ndarray, trials: int) -> np.ndarray:
    """Exact s(t) at probe times for each trial, shape (trials, len(t)):
    every data slot whose support reaches a probe time contributes.

    Used to validate the pointwise Rician model against simulation.
    """
    if trials < 0:
        raise AnalysisError("trials must be >= 0")
    t = np.asarray(t, dtype=float)
    filt = filt.resample(cfg.samples_per_symbol)
    n = cfg.preamble_slot
    preamble = np.asarray(preamble, dtype=complex)[None, :]
    out = np.tile(slot_signal(preamble, [n], t, filt), (trials, 1))
    slots = reaching_data_slots(n, cfg.guards, filt.overlap, t)
    for lo in range(0, trials, DEFAULT_CHUNK):
        rows = np.arange(lo, min(lo + DEFAULT_CHUNK, trials))
        out[rows] += slot_signal(slot_data(cfg, rows[:, None], slots), slots, t, filt)
    return out


def empirical_mean_power(subcarriers: int, n_symbols: int = 256, oversample: int = 4,
                         seed: int = 0) -> float:
    """Time-averaged |s(t)|^2 of an all-data frame, for checking 2M/T."""
    from .prototype import phydyas_taps

    cfg = FrameConfig(subcarriers=subcarriers, guards=0, data_span=max(12, n_symbols // 2),
                      oversample=oversample, rng_seed=seed)
    filt = phydyas_taps(4, cfg.samples_per_symbol)
    symbols = slot_data(cfg, 0, cfg.first_slot + np.arange(cfg.total_slots)).T.astype(complex)
    grid = FbmcGrid(symbols=symbols, first_slot=cfg.first_slot)
    sig = synthesize(grid, filt, cfg)
    spt = cfg.samples_per_symbol
    # Exclude one filter length at each edge so the average sees a fully
    # loaded signal.
    guard = filt.overlap * spt
    seg = sig.samples[guard: len(sig.samples) - guard]
    return float(np.mean(np.abs(seg) ** 2))
