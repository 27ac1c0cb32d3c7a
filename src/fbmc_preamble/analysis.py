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
from .waveform import (FbmcGrid, FrameConfig, SampledSignal, add_slot_sums,
                       carrier_phase, checked_preamble, reaching_data_slots, slot_data,
                       slot_signal, synthesize)


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

def _chi2_cdf(x: float, noncentrality: float) -> float:
    """CDF of the noncentral chi-square with 2 degrees of freedom; raises
    FloatingPointError where scipy's chndtr gives no finite value."""
    p = float(_sp.chndtr(x, 2, noncentrality))
    if not math.isfinite(p):
        raise FloatingPointError(f"chndtr({x!r}, 2, {noncentrality!r}) = {p}")
    return p


def marcum_q1(a: float, b: float) -> float:
    """First-order Marcum Q-function, Q1(a, b) = 1 - F(b^2) for the
    noncentral chi-square F with 2 degrees of freedom and noncentrality a^2.

    The absolute error is at most 1e-10 against scipy.stats.ncx2.sf
    (checked on scipy 1.17.1, a and b up to about 1e7); relative precision
    is not kept for Q1 below about 1e-12, which can come out as 0.
    """
    if not (np.isfinite(a) and np.isfinite(b)) or a < 0 or b < 0:
        raise AnalysisError("arguments must be finite and >= 0")
    return 1.0 - _chi2_cdf(b * b, a * a)


def rician_pdf(x: float, nu: float, sigma: float) -> float:
    """Density of the magnitude |s(t)|; reduces to Rayleigh at nu = 0."""
    if sigma <= 0:
        raise AnalysisError("sigma must be > 0")
    if x < 0:
        return 0.0
    s2 = sigma * sigma
    # I_0 grows like e^{x nu / s2}; use the scaled form to avoid overflow:
    # (x/s2) e^{-(x^2+nu^2)/2s2} I_0(x nu / s2) = (x/s2) e^{-(x-nu)^2/2s2} I0e.
    scaled = float(_sp.ive(0, x * nu / s2))
    return x / s2 * math.exp(-((x - nu) ** 2) / (2.0 * s2)) * scaled


def rician_cdf(x: float, nu: float, sigma: float) -> float:
    if sigma <= 0:
        raise AnalysisError("sigma must be > 0")
    if x <= 0:
        return 0.0
    return _chi2_cdf((x / sigma) ** 2, (nu / sigma) ** 2)


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


@dataclass(frozen=True)
class CcdfResult:
    thresholds_db: np.ndarray = field(compare=False)
    exceed_prob: np.ndarray = field(compare=False)
    trials: int = 0
    max_papr_db: float = float("-inf")
    config: dict = field(default_factory=dict, compare=False)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["threshold_db", "exceed_prob"])
            for thr, p in zip(self.thresholds_db, self.exceed_prob):
                w.writerow([f"{thr:.4f}", f"{p:.10g}"])

    def to_json(self) -> str:
        return json.dumps({
            "thresholds_db": [round(float(v), 6) for v in self.thresholds_db],
            "exceed_prob": list(map(float, self.exceed_prob)),
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

        def term(s):
            """Slot s's coefficient phase, referenced to the window start, and g."""
            return carrier_phase(m, s, n + 2), filt(t_win - s / 2.0).reshape(2, spt)

        self._terms = [term(s) for s in self.data_slots]
        phase, g = term(n)
        coeff = np.zeros((1, spt), dtype=complex)
        coeff[0, :m] = preamble * phase
        self.preamble_window = np.zeros((1, 2, spt), dtype=complex)
        add_slot_sums(self.preamble_window, coeff, g, np.empty_like(coeff))

    def sample_trials(self, first_trial: int, count: int) -> np.ndarray:
        """Window samples, shape (count, 2 * spt)."""
        m = self.cfg.subcarriers
        trials = np.arange(first_trial, first_trial + count)
        data = slot_data(self.cfg, trials, self.data_slots[:, None])
        out = np.tile(self.preamble_window, (count, 1, 1))
        coeff = np.zeros((count, self.spt), dtype=complex)
        base = np.empty_like(coeff)
        for (phase, g), a in zip(self._terms, data):
            np.multiply(a, phase, out=coeff[:, :m])
            add_slot_sums(out, coeff, g, base)
        return out.reshape(count, 2 * self.spt)


DEFAULT_CHUNK = 16


def _papr_db_chunks(preamble: np.ndarray, filt: PrototypeFilter, cfg: FrameConfig,
                    trials: int, chunk: int, first_trial: int = 0):
    """Per-trial window PAPR in dB, one array per chunk of trials."""
    if chunk < 1:
        raise AnalysisError("chunk must be >= 1")
    sampler = _WindowSampler(preamble, filt, cfg)
    p_avg = average_power(cfg.subcarriers)
    stop = first_trial + trials
    for start in range(first_trial, stop, chunk):
        win = sampler.sample_trials(start, min(chunk, stop - start))
        yield 10.0 * np.log10(np.max(np.abs(win) ** 2, axis=1) / p_avg)


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
    for peak_db in _papr_db_chunks(preamble, filt, cfg, trials, chunk):
        exceed += np.sum(peak_db[:, None] > thresholds_db[None, :], axis=0)
        max_db = max(max_db, float(np.max(peak_db)))
    return CcdfResult(
        thresholds_db=thresholds_db,
        exceed_prob=exceed / trials,
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
    chunks = list(_papr_db_chunks(preamble, filt, cfg, trials, chunk, first_trial))
    return np.concatenate(chunks) if chunks else np.empty(0)


def signal_at_times(preamble: np.ndarray, filt: PrototypeFilter, cfg: FrameConfig,
                    t: np.ndarray, trials: int) -> np.ndarray:
    """Exact s(t) at probe times for each trial, shape (trials, len(t)):
    every data slot whose support reaches a probe time contributes.

    Used to validate the pointwise Rician model against simulation.
    """
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
    grid = FbmcGrid(symbols=symbols, first_slot=cfg.first_slot,
                    preamble_slot=cfg.preamble_slot)
    sig = synthesize(grid, filt, cfg)
    spt = cfg.samples_per_symbol
    # Exclude one filter length at each edge so the average sees a fully
    # loaded signal.
    guard = filt.overlap * spt
    seg = sig.samples[guard: len(sig.samples) - guard]
    return float(np.mean(np.abs(seg) ** 2))
