"""Preamble PAPR measurement, Monte Carlo CCDF estimation, and the
analytic Rician/Marcum-Q exceedance model.

The window [(n+K-2)T/2, (n+K+2)T/2), K the filter's overlap, spans two symbol
intervals centered on the preamble pulse peak at t = (n+K)T/2.  At a fixed t the
signal magnitude is Rician: a deterministic preamble envelope nu(t) plus
circular Gaussian data interference with per-component variance sigma^2(t).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .prototype import PrototypeFilter
from .waveform import (SLOT_BITS, FrameConfig, SampledSignal, add_weighted, carrier_phase,
                       check_rate, check_trials, checked_preamble, reaching_data_slots,
                       slot_data, slot_signal, slot_sums, slot_term, synthesize)
from .workers import POOL, cpu_count


class AnalysisError(ValueError):
    """Invalid analysis parameters."""


def average_power(subcarriers: int) -> float:
    """Long-run mean power 2M/T of the data payload (T = 1)."""
    if subcarriers < 1:
        raise AnalysisError("need at least one subcarrier")
    return 2.0 * subcarriers


def window_start_slot(preamble_slot: int, overlap: int) -> int:
    """The slot n + K - 2 at whose start the analysis window begins."""
    return preamble_slot + overlap - 2


@dataclass(frozen=True)
class AnalysisWindow:
    start_index: int       # first sample inside the window
    length: int            # 2T worth of samples

    @classmethod
    def for_signal(cls, signal: SampledSignal, preamble_slot: int) -> "AnalysisWindow":
        spt = signal.samples_per_symbol
        start = round((window_start_slot(preamble_slot, signal.overlap) / 2 - signal.t0) * spt)
        win = cls(start_index=start, length=2 * spt)
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

_REAL = (float, int, np.floating, np.integer)      # bool is an int, and is refused


def _real(what: str, value, high: float = math.inf) -> float:
    """value as a float, if it is a real number (not a bool, a string or an
    array) that is finite, >= 0 and < high; raises AnalysisError otherwise.
    The input check of the Rician model's scalars."""
    if type(value) is float and 0.0 <= value < high:    # most values: no more to check
        return value
    if not isinstance(value, _REAL) or isinstance(value, bool):
        raise AnalysisError(f"{what} must be a real number, not {value!r}")
    value = float(value)
    if not 0.0 <= value < high:      # NaN and inf fail too
        within = ">= 0" if high == math.inf else f"in [0, {high:g})"
        raise AnalysisError(f"{what} must be finite and {within}")
    return value


_TIME_END = float(1 << (SLOT_BITS - 1))


def _model_time(t) -> float:
    """t as a float, if it is a real number in [0, 2^15): the times whose
    half-slot index floor(2t) is a valid slot_data key, where t - s/2 still
    resolves a half slot.  Raises AnalysisError otherwise.  The one check of
    a time of nu_of_t, sigma2_of_t and signal_at_times."""
    return _real("t", t, _TIME_END)


def _trial_count(trials, low: int) -> int:
    """trials as an int, if it is an integer (not a bool) >= low; raises
    AnalysisError otherwise."""
    if isinstance(trials, bool) or not isinstance(trials, (int, np.integer)) or trials < low:
        raise AnalysisError(f"trials must be an integer >= {low}, not {trials!r}")
    return int(trials)


def _data_slots_at(filt: PrototypeFilter, cfg: FrameConfig, t: float) -> list[tuple[int, float]]:
    """(s, g(t - s/2)) of the data slots s whose support holds the checked
    time t, in slot order; raises AnalysisError if one of them is before
    slot 0 (a t below about the filter's overlap).  The slot check of
    sigma2_of_t and signal_at_times."""
    near = reaching_data_slots(cfg.preamble_slot, cfg.guards, filt, t)
    if near and near[0][0] < 0:
        raise AnalysisError(f"t = {t!r} is reached by data slot {near[0][0]}, and data slots "
                            f"start at 0")
    return near


def nu_of_t(preamble: np.ndarray, filt: PrototypeFilter, cfg: FrameConfig, t) -> float:
    """Preamble-only envelope |g(t - nT/2)| |sum_m c_m j^m e^{j2pi m t}| at
    one time t, a real number.

    Independent of the guard count by construction.  The pulse enters in
    magnitude because nu is the mean length of the Rician phasor.  Raises
    AnalysisError for a t that is not a real number in [0, 2^15) and for a
    preamble that is not one entry per subcarrier, and FrameError for a
    filter not sampled at the frame's rate.
    """
    t = _model_time(t)
    check_rate(filt, cfg)
    if np.shape(preamble) != (cfg.subcarriers,):
        raise AnalysisError(f"preamble of shape {np.shape(preamble)} is not "
                            f"({cfg.subcarriers},)")
    return float(np.abs(slot_term(preamble, cfg.preamble_slot, t, filt)))


def sigma2_of_t(filt: PrototypeFilter, cfg: FrameConfig, t) -> float:
    """Per-component variance (M/2) sum_{data slots} g^2(t - n'T/2) of the
    data interference at one time t, a real number, summed in Python floats
    in slot order; guard and preamble slots contribute nothing.  Raises
    AnalysisError for a t that is not a real number in [0, 2^15) and for
    one that a data slot before slot 0 reaches, and FrameError for a filter
    not sampled at the frame's rate."""
    t = _model_time(t)
    check_rate(filt, cfg)
    acc = 0.0
    for _, g in _data_slots_at(filt, cfg, t):
        acc += g * g
    return acc * (0.5 * cfg.subcarriers)


@dataclass(frozen=True)
class RicianPointModel:
    t: float
    nu: float
    sigma: float
    p_avg: float

    def __post_init__(self):
        _model_time(self.t)
        _real("nu", self.nu)
        _real("sigma", self.sigma)
        if _real("p_avg", self.p_avg) == 0.0:
            raise AnalysisError("p_avg must be > 0")

    @classmethod
    def at_time(cls, preamble: np.ndarray, filt: PrototypeFilter, cfg: FrameConfig,
                t: float) -> "RicianPointModel":
        """The model at one time t, with the input checks of nu_of_t and
        sigma2_of_t.  The preamble's energy is not checked here: that sum
        would cost a large share of a point."""
        nu = nu_of_t(preamble, filt, cfg, t)        # checks t before float(t) reads it
        sigma = math.sqrt(sigma2_of_t(filt, cfg, t))
        return cls(float(t), nu, sigma, average_power(cfg.subcarriers))


# ---------------------------------------------------------------------------
# Special functions

def _chndtr(x: float, df: float, nc: float) -> float:
    """scipy's scalar Cython chndtr, imported on the first call, which then
    rebinds this name to it: importing scipy.special takes about 0.25 s and
    25 MB, which only the Rician model needs."""
    global _chndtr
    from scipy.special.cython_special import chndtr as _chndtr
    return _chndtr(x, df, nc)


def marcum_q1(a: float, b: float) -> float:
    """First-order Marcum Q-function, Q1(a, b) = 1 - F(b^2) for the
    noncentral chi-square F with 2 degrees of freedom and noncentrality a^2.

    The absolute error is at most 1e-10 against scipy.stats.ncx2.sf
    (checked on scipy 1.17.1, a and b up to about 1e7); relative precision
    is not kept for Q1 below about 1e-12, which can come out as 0.  Raises
    FloatingPointError where scipy's chndtr gives no finite F, and
    AnalysisError unless a and b are real numbers, finite and >= 0.
    """
    a, b = _real("a", a), _real("b", b)
    # The scalar Cython chndtr runs the ufunc scipy.special.chndtr's C
    # routine without its dispatch; the name is looked up at each call, so
    # after the first it reaches the Cython function directly.
    cdf = _chndtr(b * b, 2.0, a * a)
    if not math.isfinite(cdf):
        raise FloatingPointError(f"chndtr({b * b!r}, 2, {a * a!r}) = {cdf}")
    return 1.0 - cdf


def iapr_exceedance(alpha: float, model: RicianPointModel) -> float:
    """Pr{|s(t)|^2 / P_avg >= alpha} at the model's time instant; raises
    AnalysisError unless alpha is a real number, finite and >= 0."""
    alpha = _real("threshold", alpha)
    if alpha == 0.0:
        return 1.0
    sigma = model.sigma
    if sigma == 0.0:
        # As `model` compares |s|^2 / P_avg >= alpha: in the units of alpha,
        # since nu^2 >= alpha P_avg can differ by a rounding, and with nu * nu,
        # numpy's square, since Python's nu**2 (pow) can differ from it.
        return 1.0 if model.nu * model.nu / model.p_avg >= alpha else 0.0
    return marcum_q1(model.nu / sigma, math.sqrt(alpha * model.p_avg) / sigma)


# ---------------------------------------------------------------------------
# Monte Carlo engine

# The CCDF's thresholds: 0 to 9 dB in steps of 0.05 dB.
THRESHOLDS_DB = np.round(np.arange(0.0, 9.0 + 1e-9, 0.05), 6)
THRESHOLDS_DB.flags.writeable = False


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
    thresholds_db[i], which reads THRESHOLDS_DB."""
    exceed_count: np.ndarray = field(compare=False)
    trials: int
    max_papr_db: float = float("-inf")
    config: dict = field(default_factory=dict, compare=False)

    thresholds_db = property(lambda self: THRESHOLDS_DB)

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
    """Evaluates s(t) over the analysis window for chunks of at most `rows`
    trials at once.

    Only the slots whose filter support reaches the window are synthesized;
    all other symbols contribute exactly zero there, so the result matches
    full-frame synthesis sample for sample.  The window is two symbol
    intervals long and each slot's subcarrier sum, referenced to the window
    start, is T-periodic, so one IFFT of spt points serves both halves.

    An engine shard builds one, and all its chunks write into its arrays (a
    ragged last chunk into the first rows), so that the hot loop allocates
    no array the size of a chunk.
    """

    def __init__(self, preamble: np.ndarray, filt: PrototypeFilter, cfg: FrameConfig,
                 rows: int):
        preamble = checked_preamble(preamble, cfg.subcarriers)
        self.cfg = cfg
        self.spt = spt = cfg.samples_per_symbol
        check_rate(filt, cfg)
        n, m = cfg.preamble_slot, cfg.subcarriers
        start = window_start_slot(n, filt.overlap)
        # Slot s's support [s/2, s/2 + K) meets the window for |s - n| <= K + 1.
        slots = np.arange(n - filt.overlap - 1, n + filt.overlap + 2)
        self.data_slots = slots[np.abs(slots - n) > cfg.guards]
        self.pairs = filt.pairs
        self.rows = rows

        def term(s):
            """Slot s's coefficient phase, referenced to the window start, and
            its first sample counted from the window start."""
            return carrier_phase(m, s, start), (s - start) * spt // 2

        self._terms = [term(s) for s in self.data_slots]
        # The preamble's window, from one-row temporaries, before the chunk arrays.
        phase, offset = term(n)
        coeff = np.zeros((1, spt), dtype=complex)
        coeff[0, :m] = preamble * phase
        self.preamble_window = np.zeros((1, 2, spt), dtype=complex)
        add_weighted(self.preamble_window, slot_sums(coeff, np.empty_like(coeff)), self.pairs,
                     offset, np.empty((1, 2, 2 * spt)))
        # slot_data's output, flat, so that a ragged chunk's is a contiguous prefix.
        self._data = np.empty(len(self.data_slots) * rows * m)
        self.out = np.empty((rows, 2, spt), dtype=complex)     # the window
        # Phased coefficients; the zero padding past M is never written.
        self.coeff = np.zeros((rows, spt), dtype=complex)
        # A slot's IFFT, and |w| once every slot is added.
        self.base = np.empty((rows, spt), dtype=complex)
        self.product = np.empty((rows, 2, 2 * spt))             # add_weighted's products
        self.peak = np.empty(rows)

    def window(self, data: np.ndarray) -> np.ndarray:
        """Window samples, shape (count, 2 * spt), for the real data
        (len(data_slots), count, M) of the data slots that reach it, with
        count <= rows, written to the sampler's window array and returned
        as a view of it."""
        data = np.asarray(data)
        m = self.cfg.subcarriers
        if (data.ndim != 3 or data.shape[0] != len(self.data_slots) or data.shape[2] != m
                or data.shape[1] > self.rows):
            raise AnalysisError(f"data of shape {data.shape} is not "
                                f"({len(self.data_slots)}, count <= {self.rows}, {m})")
        count = data.shape[1]
        out, coeff, base, product = (self.out[:count], self.coeff[:count], self.base[:count],
                                     self.product[:count])
        out[...] = self.preamble_window
        for (phase, offset), a in zip(self._terms, data):
            np.multiply(a, phase, out=coeff[:, :m])
            add_weighted(out, slot_sums(coeff, base), self.pairs, offset, product)
        return out.reshape(count, 2 * self.spt)

    def sample_trials(self, first_trial: int, count: int) -> np.ndarray:
        """Window samples, shape (count, 2 * spt), of trials
        [first_trial, first_trial + count), written as window() writes them;
        raises AnalysisError unless 0 <= count <= rows."""
        if not 0 <= count <= self.rows:
            raise AnalysisError(f"count {count!r} is not in [0, {self.rows}]")
        trials = np.arange(first_trial, first_trial + count)
        slots, m = len(self.data_slots), self.cfg.subcarriers
        data = self._data[:slots * count * m].reshape(slots, count, m)
        return self.window(slot_data(self.cfg, trials, self.data_slots[:, None], out=data))


# Trials per sampler call.  _papr_db_shards reads it at call time and hands
# it to every shard, so a worker uses the caller's value.
DEFAULT_CHUNK = 16
# Trials per shard at most: bounds a shard's reply (512 KB) and the memory
# of a long call, which then runs in rounds of one shard per process.
MAX_SHARD_TRIALS = 1 << 16


def engine_processes(trials: int) -> int:
    """Processes an engine call over `trials` trials runs on: one per CPU
    this process may use, at most one per chunk."""
    return max(1, min(cpu_count(), -(-trials // DEFAULT_CHUNK)))


def _papr_db(preamble: np.ndarray, filt: PrototypeFilter, cfg: FrameConfig,
             first_trial: int, trials: int, chunk: int) -> np.ndarray:
    """Per-trial window PAPR in dB of trials [first_trial, first_trial + trials),
    from one sampler built here, in the process that runs the shard."""
    p_avg = average_power(cfg.subcarriers)
    sampler = _WindowSampler(preamble, filt, cfg, min(chunk, trials))
    out = np.empty(trials)
    for lo in range(0, trials, chunk):
        count = min(chunk, trials - lo)
        win = sampler.sample_trials(first_trial + lo, count)
        peak = sampler.peak[:count]
        np.max(np.abs(win, out=sampler.base[:count].view(float)), axis=1, out=peak)
        # max |w| squared is max |w|^2 bit for bit: rounding x * x is
        # monotone for x >= 0.
        np.multiply(peak, peak, out=peak)
        np.divide(peak, p_avg, out=peak)
        np.multiply(10.0, np.log10(peak, out=peak), out=out[lo: lo + count])
    return out


def _papr_db_shards(preamble: np.ndarray, filt: PrototypeFilter, cfg: FrameConfig,
                    trials: int, first_trial: int = 0):
    """Per-trial window PAPR in dB, one array per shard of whole chunks.

    The range is cut into one shard per engine process, which run at the
    same time: this process computes the first and the engine's workers the
    others.  Every trial's data is keyed on (seed, trial, slot), so the
    values do not depend on the number of processes.  All input is checked
    here, before any worker is fed.
    """
    trials = _trial_count(trials, 0)
    preamble = checked_preamble(preamble, cfg.subcarriers)
    check_rate(filt, cfg)
    stop = first_trial + trials
    check_trials(first_trial, stop)
    if trials < 1:
        return
    chunk = DEFAULT_CHUNK
    chunks = -(-trials // chunk)
    processes = engine_processes(trials)
    span = chunk * min(-(-chunks // processes), max(1, MAX_SHARD_TRIALS // chunk))
    starts = range(first_trial, stop, span)
    for k in range(0, len(starts), processes):
        yield from POOL.run(_papr_db, [(preamble, filt, cfg, s, min(span, stop - s), chunk)
                                       for s in starts[k: k + processes]])


def monte_carlo_ccdf(preamble: np.ndarray, filt: PrototypeFilter, cfg: FrameConfig,
                     trials: int, progress=None) -> CcdfResult:
    """Estimate Pr{PAPR > X} over random data realizations, X in THRESHOLDS_DB.

    Deterministic given cfg.rng_seed: trial i draws its data from
    counter-based streams keyed on (seed, i, slot).  `progress`, if given,
    is called in this process after each shard as
    progress(trials_done, exceed_count, max_papr_db), with the running
    counts (an array that later shards update in place).
    """
    trials = _trial_count(trials, 1)
    exceed = np.zeros(len(THRESHOLDS_DB), dtype=np.int64)
    max_db = float("-inf")
    done = 0
    for peak_db in _papr_db_shards(preamble, filt, cfg, trials):
        exceed += len(peak_db) - np.searchsorted(np.sort(peak_db), THRESHOLDS_DB, side="right")
        max_db = max(max_db, float(np.max(peak_db)))
        done += len(peak_db)
        if progress is not None:
            progress(done, exceed, max_db)
    return CcdfResult(
        exceed_count=exceed,
        trials=trials,
        max_papr_db=max_db,
        config=cfg.to_json_dict(),
    )


def papr_samples(preamble: np.ndarray, filt: PrototypeFilter, cfg: FrameConfig,
                 trials: int, first_trial: int = 0) -> np.ndarray:
    """Per-trial preamble PAPR values in dB (same trials as monte_carlo_ccdf).

    Trial i of the returned array is keyed on the absolute index
    first_trial + i, so disjoint calls tile one reproducible stream.
    """
    shards = list(_papr_db_shards(preamble, filt, cfg, trials, first_trial))
    return np.concatenate(shards) if shards else np.empty(0)


def signal_at_times(preamble: np.ndarray, filt: PrototypeFilter, cfg: FrameConfig,
                    t: np.ndarray, trials: int) -> np.ndarray:
    """Exact s(t) at probe times for each trial, shape (trials, len(t)):
    every data slot whose support reaches a probe time contributes.

    Used to validate the pointwise Rician model against simulation.  Raises
    AnalysisError for a trial count that is not an integer >= 0, for a t
    of more than one dimension, for a time that is not a real number in
    [0, 2^15) and for one that a data slot before slot 0 reaches (a t
    below about the filter's overlap), and FrameError for a preamble that
    build_frame refuses or a filter not sampled at the frame's rate.
    """
    trials = _trial_count(trials, 0)
    preamble = checked_preamble(preamble, cfg.subcarriers)
    t = np.atleast_1d(t)
    if t.ndim > 1:
        raise AnalysisError(f"t must be a number or a 1-D array, not of shape {t.shape}")
    times = [_model_time(x) for x in t.tolist()]
    t = np.array(times, dtype=float)
    check_rate(filt, cfg)
    slots = np.array(sorted({s for x in times for s, _ in _data_slots_at(filt, cfg, x)}),
                     dtype=int)
    # The evaluation nu_of_t makes, so that |share| is nu bit for bit.
    out = np.empty((trials, len(t)), dtype=complex)
    out[:] = [slot_term(preamble, cfg.preamble_slot, x, filt) for x in times]
    for lo in range(0, trials, DEFAULT_CHUNK):
        rows = np.arange(lo, min(lo + DEFAULT_CHUNK, trials))
        out[rows] += slot_signal(slot_data(cfg, rows[:, None], slots), slots, t, filt)
    return out


def empirical_mean_power(subcarriers: int, n_symbols: int = 256, seed: int = 0) -> float:
    """Time-averaged |s(t)|^2 of an all-data frame at oversample 4, for
    checking 2M/T."""
    from .prototype import phydyas_taps

    cfg = FrameConfig(subcarriers=subcarriers, guards=0, data_span=max(12, n_symbols // 2),
                      rng_seed=seed)
    filt = phydyas_taps(4, cfg.samples_per_symbol)
    symbols = slot_data(cfg, 0, cfg.first_slot + np.arange(cfg.total_slots)).T.astype(complex)
    sig = synthesize(symbols, filt, cfg)
    spt = cfg.samples_per_symbol
    # Exclude one filter length at each edge so the average sees a fully
    # loaded signal.
    guard = filt.overlap * spt
    seg = sig.samples[guard: len(sig.samples) - guard]
    return float(np.mean(np.abs(seg) ** 2))
