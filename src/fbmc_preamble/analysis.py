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

from .checks import check_integer, check_real
from .prototype import PrototypeFilter, make_filter
from .waveform import (DATA_SPAN, SLOT_BITS, FrameConfig, FrameError, SampledSignal,
                       add_weighted, carrier_phase, check_rate, check_trials, checked_preamble,
                       slot_data, slot_sums, slot_term, synthesize, tap_pairs)
from .workers import POOL, cpu_count


class AnalysisError(ValueError):
    """Invalid analysis parameters."""


def average_power(subcarriers: int) -> float:
    """Long-run mean power 2M/T of the data payload (T = 1)."""
    return 2.0 * check_integer("subcarriers", subcarriers, AnalysisError, 1)


def window_start_slot(preamble_slot: int, overlap: int) -> int:
    """The slot n + K - 2 at whose start the analysis window begins."""
    return preamble_slot + overlap - 2


@dataclass(frozen=True)
class AnalysisWindow:
    start_index: int       # first sample inside the window
    length: int            # 2T worth of samples

    def __post_init__(self):
        for name, low in (("start_index", 0), ("length", 1)):
            object.__setattr__(self, name,
                               check_integer(name, getattr(self, name), AnalysisError, low))

    @classmethod
    def for_signal(cls, signal: SampledSignal, preamble_slot: int) -> "AnalysisWindow":
        """The window of the preamble at slot preamble_slot, an integer >= 0,
        on the signal's grid; raises AnalysisError for another slot and for
        a window the signal does not hold."""
        preamble_slot = check_integer("preamble_slot", preamble_slot, AnalysisError, 0)
        spt = signal.samples_per_symbol
        start = round((window_start_slot(preamble_slot, signal.overlap) / 2 - signal.t0) * spt)
        if start < 0 or start + 2 * spt > len(signal.samples):
            raise AnalysisError("analysis window exceeds the sampled signal")
        return cls(start_index=start, length=2 * spt)


def papr(signal: SampledSignal, window: AnalysisWindow, p_avg: float) -> float:
    """Peak instantaneous-to-average power over the window, in dB."""
    if (p_avg := check_real("average power", p_avg, AnalysisError)) == 0.0:
        raise AnalysisError("average power must be > 0")
    if window.start_index + window.length > len(signal.samples):
        raise AnalysisError("analysis window exceeds the sampled signal")
    seg = signal.samples[window.start_index: window.start_index + window.length]
    return 10.0 * math.log10(float(np.max(np.abs(seg) ** 2)) / p_avg)


# ---------------------------------------------------------------------------
# Rician point model

_TIME_END = float(1 << (SLOT_BITS - 1))


def _model_time(t) -> float:
    """t as a float, if it is a real number in [0, 2^15): the times whose
    half-slot index floor(2t) is a valid slot_data key, where t - s/2 still
    resolves a half slot.  Raises AnalysisError otherwise.  The one check of
    a time of nu_of_t, sigma2_of_t and signal_at_times."""
    return check_real("t", t, AnalysisError, _TIME_END)


def _data_slots_at(filt: PrototypeFilter, cfg: FrameConfig, t: float) -> list[tuple[int, float]]:
    """(s, g(t - s/2)) of the data slots s (|s - n| > G) whose support
    [s/2, s/2 + K) holds the checked time t, in slot order, each tested in
    the filter's own argument t - s/2; raises AnalysisError if one is before
    slot 0 (a t below about K).  The one slot scan at float times, of
    sigma2_of_t and signal_at_times."""
    overlap, preamble_slot, guards = filt.overlap, cfg.preamble_slot, cfg.guards
    near = [(s, filt(x)) for s in range(math.floor(2.0 * (t - overlap)), math.floor(2.0 * t) + 1)
            if abs(s - preamble_slot) > guards and 0.0 <= (x := t - s / 2.0) < overlap]
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
        check_real("nu", self.nu, AnalysisError)
        check_real("sigma", self.sigma, AnalysisError)
        if check_real("p_avg", self.p_avg, AnalysisError) == 0.0:
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
    a, b = check_real("a", a, AnalysisError), check_real("b", b, AnalysisError)
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
    alpha = check_real("threshold", alpha, AnalysisError)
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
    trials = check_integer("trials", trials, AnalysisError, 1)
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
    thresholds_db[i], which reads THRESHOLDS_DB.  Raises AnalysisError
    unless trials is an integer >= 1 and exceed_count a 1-D integer array,
    one count in [0, trials] per threshold."""
    exceed_count: np.ndarray = field(compare=False)
    trials: int
    max_papr_db: float = float("-inf")
    config: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        trials = check_integer("trials", self.trials, AnalysisError, 1)
        object.__setattr__(self, "trials", trials)
        count = np.asarray(self.exceed_count)
        if count.dtype.kind not in "iu" or count.shape != THRESHOLDS_DB.shape:
            raise AnalysisError(f"exceed_count of dtype {count.dtype} and shape {count.shape} "
                                f"is not an integer array of shape {THRESHOLDS_DB.shape}")
        if not (count.min() >= 0 and count.max() <= trials):
            raise AnalysisError(f"exceed_count must lie in [0, {trials}]")
        object.__setattr__(self, "exceed_count", count)

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


def _window_term(cfg: FrameConfig, overlap: int, slot) -> tuple[np.ndarray, int]:
    """Slot's coefficient phase, referenced to the start of the analysis
    window of a filter of this overlap, and its first sample counted from
    the window start."""
    start = window_start_slot(cfg.preamble_slot, overlap)
    return (carrier_phase(cfg.subcarriers, slot, start),
            (slot - start) * cfg.samples_per_symbol // 2)


def _preamble_window(preambles: np.ndarray, cfg: FrameConfig, overlap: int,
                     pairs: np.ndarray) -> np.ndarray:
    """The share (count, 2, spt) of the analysis window of each checked
    preamble of a stack (count, M), with no data: one IFFT call for the
    stack and one add_weighted, so a row's bits do not depend on the
    others.  pairs is tap_pairs(taps)."""
    count, spt = len(preambles), cfg.samples_per_symbol
    phase, offset = _window_term(cfg, overlap, cfg.preamble_slot)
    coeff = np.zeros((count, spt), dtype=complex)
    np.multiply(preambles, phase, out=coeff[:, :cfg.subcarriers])
    window = np.zeros((count, 2, spt), dtype=complex)
    add_weighted(window, slot_sums(coeff, np.empty_like(coeff)), pairs, offset,
                 np.empty((count, 2, 2 * spt)))
    return window


def _peak_db(window: np.ndarray, p_avg: float, magnitude: np.ndarray, peak: np.ndarray,
             out: np.ndarray) -> np.ndarray:
    """10 log10(max |w|^2 / p_avg) of each row of window (count, 2 spt),
    written to and returned in out (count,), which may be peak itself;
    magnitude, a float array of window's shape, takes |w| and peak
    (count,) the peaks."""
    np.max(np.abs(window, out=magnitude), axis=1, out=peak)
    # max |w| squared is max |w|^2 bit for bit: rounding x * x is
    # monotone for x >= 0.
    np.multiply(peak, peak, out=peak)
    np.divide(peak, p_avg, out=peak)
    return np.multiply(10.0, np.log10(peak, out=peak), out=out)


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
        # Slot s's support [s/2, s/2 + K) meets the window for |s - n| <= K + 1.
        slots = np.arange(n - filt.overlap - 1, n + filt.overlap + 2)
        self.data_slots = slots[np.abs(slots - n) > cfg.guards]
        self.pairs = tap_pairs(filt.taps)
        self.rows = rows
        self._terms = [_window_term(cfg, filt.overlap, s) for s in self.data_slots]
        # From one-row temporaries, before the chunk arrays.
        self.preamble_window = _preamble_window(preamble[None], cfg, filt.overlap, self.pairs)
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
        _peak_db(win, p_avg, sampler.base[:count].view(float), sampler.peak[:count],
                 out[lo: lo + count])
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
    trials = check_integer("trials", trials, AnalysisError, 0)
    first_trial = check_integer("first_trial", first_trial, FrameError, 0)
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
    trials = check_integer("trials", trials, AnalysisError, 1)
    if progress is not None and not callable(progress):
        raise AnalysisError(f"progress must be None or callable, not {progress!r}")
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


def sigma0_papr_db(preambles: np.ndarray, filt: PrototypeFilter, cfg: FrameConfig) -> np.ndarray:
    """The sigma = 0 window PAPR in dB of each preamble of a stack (count, M):
    the peak of its own share of the analysis window, with no data.

    Row i equals papr_samples(preambles[i], filt, cfg, 1)[0] bit for bit
    wherever no data slot reaches the window (G >= K + 1), from one IFFT
    call for the whole stack and no engine process.  Raises AnalysisError
    for an input that is not 2-D, and FrameError for a row that
    build_frame refuses or a filter not sampled at the frame's rate.
    """
    preambles = np.asarray(preambles, dtype=complex)
    m = cfg.subcarriers
    if preambles.ndim != 2:
        raise AnalysisError(f"preambles of shape {preambles.shape} are not (count, {m})")
    if preambles.shape[1] != m:
        raise FrameError(f"preamble length {preambles.shape[1]} != {m} subcarriers")
    for row in preambles:
        checked_preamble(row, m)
    check_rate(filt, cfg)
    window = _preamble_window(preambles, cfg, filt.overlap, tap_pairs(filt.taps))
    window = window.reshape(len(preambles), 2 * cfg.samples_per_symbol)
    out = np.empty(len(window))
    return _peak_db(window, average_power(m), np.empty(window.shape), out, out)


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
    trials = check_integer("trials", trials, AnalysisError, 0)
    preamble = checked_preamble(preamble, cfg.subcarriers)
    t = np.atleast_1d(t)
    if t.ndim > 1:
        raise AnalysisError(f"t must be a number or a 1-D array, not of shape {t.shape}")
    times = [_model_time(x) for x in t.tolist()]
    t = np.array(times, dtype=float)
    check_rate(filt, cfg)
    near = [dict(_data_slots_at(filt, cfg, x)) for x in times]
    slots = np.array(sorted(set().union(*near)), dtype=int)
    # g(t - s/2) of every slot at every time, from the scan; 0.0, the
    # filter's value there, where the slot's support does not hold the time.
    pulses = np.array([[g.get(s, 0.0) for g in near] for s in slots.tolist()])
    carriers = np.exp(2j * np.pi * np.outer(np.arange(cfg.subcarriers), t))
    # The evaluation nu_of_t makes, so that |share| is nu bit for bit.
    out = np.empty((trials, len(t)), dtype=complex)
    out[:] = [slot_term(preamble, cfg.preamble_slot, x, filt) for x in times]
    for lo in range(0, trials, DEFAULT_CHUNK):
        rows = np.arange(lo, min(lo + DEFAULT_CHUNK, trials))
        data = slot_data(cfg, rows[:, None], slots)
        # In slot order, as the order of the sums fixes the bits.
        share = 0
        for i, s in enumerate(slots):
            phased = data[:, i] * carrier_phase(cfg.subcarriers, s)
            share = share + (phased @ carriers) * pulses[i]
        out[rows] += share
    return out


def empirical_mean_power(subcarriers: int, n_symbols: int = 256, seed: int = 0) -> float:
    """Time-averaged |s(t)|^2 of an all-data frame at oversample 4, for
    checking 2M/T."""
    n_symbols = check_integer("n_symbols", n_symbols, AnalysisError, 1)
    cfg = FrameConfig(subcarriers=subcarriers, guards=0, rng_seed=seed)
    filt = make_filter("phydyas4", cfg.samples_per_symbol)
    # All data, over more slots than the frame's for a long n_symbols:
    # synthesize takes the grid's width from the symbols.
    n_slots = 2 * max(DATA_SPAN, n_symbols // 2) + 1
    symbols = slot_data(cfg, 0, cfg.first_slot + np.arange(n_slots)).T.astype(complex)
    sig = synthesize(symbols, filt, cfg)
    spt = cfg.samples_per_symbol
    # Exclude one filter length at each edge so the average sees a fully
    # loaded signal.
    guard = filt.overlap * spt
    seg = sig.samples[guard: len(sig.samples) - guard]
    return float(np.mean(np.abs(seg) ** 2))
