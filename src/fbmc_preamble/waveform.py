"""FBMC/OQAM frame assembly and baseband synthesis.

A frame is a grid of real half-symbols a_{m,n'} (subcarrier m, half-symbol
slot n') holding one preamble column flanked by zero guards and random
binary data.  The transmitted signal is

    s(t) = sum_{m,n'} a_{m,n'} j^{m+n'} exp(j 2 pi m t / T) g(t - n' T / 2)

sampled on a uniform grid with oversample * M points per symbol interval
(T = 1 in normalized units).  Every evaluator of s(t) in the package builds
on the signal core below; analysis.signal_at_times holds the dense sum of
many slots at many float times.
"""

from __future__ import annotations

import functools
from dataclasses import asdict, dataclass, field

import numpy as np

from .checks import check_integer
from .prototype import PrototypeFilter

_J = np.array([1.0 + 0j, 1j, -1.0 + 0j, -1j])
# Data half-symbols on each side beyond the guards: enough to cover the
# longest filter support (K = 4 symbols) around the preamble.
DATA_SPAN = 12


class FrameError(ValueError):
    """Invalid frame configuration or contents."""


@dataclass(frozen=True)
class FrameConfig:
    subcarriers: int              # M
    guards: int                   # G zero half-symbols on each side
    preamble_slot: int | None = None   # defaults to an even slot index
    oversample: int = 4           # samples per T = oversample * M
    rng_seed: int = 0

    def __post_init__(self):
        for name, low in (("subcarriers", 2), ("guards", 0), ("preamble_slot", None),
                          ("oversample", 2), ("rng_seed", None)):
            value = getattr(self, name)
            if value is not None or name != "preamble_slot":
                object.__setattr__(self, name, check_integer(name, value, FrameError, low))
        if self.samples_per_symbol % 2:
            raise FrameError("oversample * subcarriers must be even: slots start every "
                             "half symbol, on the sample grid")
        if not 0 <= self.rng_seed < 1 << 64:
            raise FrameError(f"rng_seed {self.rng_seed} outside [0, 2^64)")
        if self.preamble_slot is None:
            n = self.guards + DATA_SPAN
            object.__setattr__(self, "preamble_slot", n + (n % 2))
        if self.preamble_slot < self.guards + DATA_SPAN:
            raise FrameError("preamble slot leaves no room for the left half-frame")

    @property
    def samples_per_symbol(self) -> int:
        return self.oversample * self.subcarriers

    @property
    def first_slot(self) -> int:
        return self.preamble_slot - self.guards - DATA_SPAN

    @property
    def total_slots(self) -> int:
        return 2 * (self.guards + DATA_SPAN) + 1

    def data_slots(self) -> list[int]:
        slots = range(self.first_slot, self.first_slot + self.total_slots)
        return [s for s in slots if abs(s - self.preamble_slot) > self.guards]

    def to_json_dict(self) -> dict:
        return asdict(self)


TRIAL_BITS = 48
SLOT_BITS = 16
# The data stream slot_data draws, named in run manifests.  A change to the
# generator, the key or the bit mapping must change this name.
RNG_SCHEME = ("slot-data-v1: Philox4x64-10, key (trial << 16 | slot, rng_seed), counter 0; "
              "top bit of each little-endian uint32 word, 1 -> +1, 0 -> -1")


def _key_field(name: str, value, bits: int) -> np.ndarray:
    arr = np.asarray(value)
    if arr.dtype.kind not in "iu" or (arr.size and not (arr.min() >= 0
                                                        and arr.max() < 1 << bits)):
        raise FrameError(f"{name} must be an integer in [0, 2^{bits})")
    return arr.astype(np.uint64)


def check_trials(first_trial, stop) -> None:
    """Raise FrameError unless every trial in [first_trial, stop) is a
    valid slot_data key."""
    if stop > first_trial:
        _key_field("trial", np.array([first_trial, stop - 1]), TRIAL_BITS)


def slot_data(cfg: FrameConfig, trial, slot, out: np.ndarray | None = None) -> np.ndarray:
    """Deterministic +-1 data for (trial, slot) cells.

    Each cell owns a counter-based Philox4x64-10 stream keyed on
    (seed, trial << 16 | slot), so trials and slots can be generated in any
    order or in parallel with identical results.  Its M values are the top
    bits of the stream's little-endian uint32 words, 1 -> +1 and 0 -> -1.

    `trial` and `slot` are integers or integer arrays that broadcast
    together; the result has their broadcast shape plus a last axis of M,
    so two scalars give shape (M,).  It is written to out, a writeable
    C-contiguous float64 array of that shape, if one is given.
    """
    keys = (_key_field("trial", trial, TRIAL_BITS) << SLOT_BITS) | _key_field("slot", slot,
                                                                              SLOT_BITS)
    m = cfg.subcarriers
    if out is None:
        out = np.empty(keys.shape + (m,))
    elif (out.shape != keys.shape + (m,) or out.dtype != np.float64
          or not out.flags.c_contiguous or not out.flags.writeable):
        raise FrameError(f"out must be a writeable C-contiguous float64 array of shape "
                         f"{keys.shape + (m,)}")
    if not keys.size:
        # No cell, as where no data slot reaches a sigma = 0 window: no generator.
        return out
    words = (m + 1) // 2
    # One generator, re-keyed per cell: building a Philox per cell costs
    # several times the draw itself.
    bitgen = np.random.Philox(key=0)
    state = bitgen.state
    key = state["state"]["key"]
    key[1] = int(cfg.rng_seed)
    raw = np.empty((keys.size, words), dtype=np.uint64)
    for i, k in enumerate(keys.ravel().tolist()):
        key[0] = k
        bitgen.state = state
        raw[i] = bitgen.random_raw(words)
    rows = out.reshape(-1, m)
    np.right_shift(raw.astype("<u8", copy=False).view("<u4")[:, :m], 31, out=rows)
    rows *= 2.0
    rows -= 1.0
    return out


def checked_preamble(preamble: np.ndarray, subcarriers: int) -> np.ndarray:
    """The preamble as a complex array, if it has one entry per subcarrier
    and energy M; raises FrameError otherwise."""
    preamble = np.asarray(preamble, dtype=complex)
    if preamble.shape != (subcarriers,):
        raise FrameError(f"preamble length {preamble.size} != {subcarriers} subcarriers")
    energy = float(np.sum(np.abs(preamble) ** 2))
    if not abs(energy - subcarriers) <= 1e-9 * subcarriers:     # NaN fails too
        raise FrameError(f"preamble energy {energy:g} != {subcarriers}")
    return preamble


def build_frame(cfg: FrameConfig, preamble: np.ndarray, trial: int = 0) -> np.ndarray:
    """Symbols (M, total_slots) of slots cfg.first_slot onwards: the preamble
    at cfg.preamble_slot, zero guards, and seeded +-1 data elsewhere.  They
    are the transposed view of a slot-major (total_slots, M) array.
    Complex preambles are accepted only as a baseline affordance (IAM-C);
    OQAM symbols proper are real."""
    preamble = checked_preamble(preamble, cfg.subcarriers)
    # Slot-major, one contiguous row per slot, so that each slot's fill and
    # synthesize's reads of a column are contiguous.
    grid = np.zeros((cfg.total_slots, cfg.subcarriers), dtype=complex)
    grid[cfg.preamble_slot - cfg.first_slot] = preamble
    slots = np.array(cfg.data_slots())
    grid[slots - cfg.first_slot] = slot_data(cfg, trial, slots)
    return grid.T


def check_rate(filt: PrototypeFilter, cfg: FrameConfig) -> None:
    """Raise FrameError unless the filter is sampled at the frame's rate."""
    if filt.samples_per_symbol != cfg.samples_per_symbol:
        raise FrameError(f"filter sampled at {filt.samples_per_symbol} samples per symbol, "
                         f"the frame at {cfg.samples_per_symbol}")


@dataclass(frozen=True)
class SampledSignal:
    samples: np.ndarray = field(compare=False)
    samples_per_symbol: int
    t0: float
    overlap: int                  # K of the filter that shaped the samples

    @property
    def times(self) -> np.ndarray:
        return self.t0 + np.arange(len(self.samples)) / self.samples_per_symbol


# ---------------------------------------------------------------------------
# Signal core

@functools.lru_cache(maxsize=16)
def _phase_table(subcarriers: int) -> np.ndarray:
    """j^{m+slot} (-1)^{m start} for slot % 4 and start % 2, shape (4, 2, M),
    read-only: the phase repeats with period 4 in the slot and 2 in the
    start."""
    m = np.arange(subcarriers)
    r, q = np.arange(4)[:, None, None], np.arange(2)[:, None]
    table = _J[(m + r + 2 * m * q) % 4]
    table.flags.writeable = False
    return table


def carrier_phase(subcarriers: int, slot, start=0) -> np.ndarray:
    """Phase j^{m+slot} e^{j2pi m t0} of a slot's coefficients when their
    subcarrier sum is referenced to the half-integer time t0 = start/2,
    where e^{j2pi m t0} = (-1)^{m start}.

    slot and start are integers or integer arrays that broadcast together;
    the result, read-only, has their broadcast shape plus a last axis of M.
    """
    phase = _phase_table(subcarriers)[slot % 4, start % 2]
    phase.flags.writeable = False
    return phase


def slot_sums(coeff: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Each row's subcarrier sum on one T-periodic symbol, written to and
    returned in out.

    coeff (count, spt) holds phased coefficients zero-padded to spt, so the
    unscaled IFFT (norm="forward") of a row is its sum at the spt samples
    of a symbol interval.  out may be coeff itself.
    """
    return np.fft.ifft(coeff, axis=1, norm="forward", out=out)


def tap_pairs(taps: np.ndarray) -> np.ndarray:
    """The taps with each one repeated for the (re, im) pair of a complex
    sample, as add_weighted takes them: np.repeat(taps, 2) bit for bit, from
    two strided column copies, which cost a third of the repeat."""
    pairs = np.empty((len(taps), 2))
    pairs[:, 0] = taps
    pairs[:, 1] = taps
    return pairs.ravel()


def _add_product(out: np.ndarray, s: np.ndarray, g: np.ndarray, product: np.ndarray) -> None:
    """out += s * g, with the product first in product, a float array of
    out's shape.  s is copied there and multiplied by g in place: the same
    operands in the same order as s * g, so the same bits, at less than half
    the cost of a multiply into another buffer."""
    np.copyto(product, s)
    np.multiply(product, g, out=product)
    np.add(out, product, out=out)


def add_weighted(out: np.ndarray, sums: np.ndarray, pairs: np.ndarray, offset: int,
                 product: np.ndarray) -> None:
    """out (count, P, spt) += g[k - offset] * sums (count, spt) at each sample
    k of out's P symbol intervals, with each row's sum repeated over them and
    the taps g zero outside their K intervals.

    pairs is tap_pairs(taps), each tap repeated for the (re, im) pair of a
    complex sample.  offset, any integer, is the slot's
    first sample counted from out's first sample; out is left as it is
    outside [offset, offset + K * spt).  product, a float array of shape
    (count, P, 2 * spt) like out's float view, takes the products before
    they are added, in the places of their samples; what it held is
    overwritten.
    """
    spt = out.shape[2]
    lo = max(offset, 0)
    hi = min(offset + len(pairs) // 2, out.shape[1] * spt)
    if lo >= hi:
        return
    (p0, r0), (p1, r1) = divmod(lo, spt), divmod(hi, spt)
    # Real g times the complex sum, (re, im) pair by pair: the products that
    # (g + 0j) * sum gives, without the cast and the complex multiply.
    sums_f = sums.view(float)
    out_f = out.view(float)
    w = pairs[2 * (lo - offset): 2 * (hi - offset)]
    # The support spans at least one interval, so a partial first and a
    # partial last interval are never the same one.
    if r0:
        head = 2 * (spt - r0)
        _add_product(out_f[:, p0, 2 * r0:], sums_f[:, 2 * r0:], w[:head],
                     product[:, p0, 2 * r0:])
        w = w[head:]
        p0 += 1
    if r1:
        tail = len(w) - 2 * r1
        _add_product(out_f[:, p1, :2 * r1], sums_f[:, :2 * r1], w[tail:],
                     product[:, p1, :2 * r1])
        w = w[:tail]
    _add_product(out_f[:, p0:p1], sums_f[:, None], w.reshape(p1 - p0, 2 * spt),
                 product[:, p0:p1])


def slot_term(coeffs: np.ndarray, slot: int, t: float, filt: PrototypeFilter) -> complex:
    """sum_m (a_m j^{m+slot}) e^{j2pi m t} g(t - slot/2), one slot's term at
    one float time t, for the coefficients a (M,).

    Carriers are computed only where a is nonzero, into a zero column; the
    product stays full length, since a shorter one sums in another order.
    So the result equals the dense sum up to the sign of an exact zero, and
    with all coefficients zero a non-finite t gives 0, not NaN: callers
    must refuse it.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    m_count = len(coeffs)
    used = coeffs.astype(bool).nonzero()[0]         # coeffs != 0, in one cast
    carriers = np.zeros((m_count, 1), dtype=complex)
    carriers.ravel()[used] = np.exp(2j * np.pi * (used * t))     # the ravel is a view
    phased = coeffs * carrier_phase(m_count, slot)
    # The scalar product gives the bits of the (1,) array's, at less cost.
    return (phased @ carriers)[0] * filt(t - slot / 2.0)


def synthesize(symbols: np.ndarray, filt: PrototypeFilter, cfg: FrameConfig) -> SampledSignal:
    """Accumulate every symbol's filtered subcarrier sum on the sample grid.

    symbols (M, columns), an array-like of bool, integer, float or complex
    values, holds slots cfg.first_slot onwards, as build_frame returns them;
    FrameError refuses another dtype or shape.  One IFFT transforms every
    nonzero column; their weighted sums are then added in column order.
    """
    spt = cfg.samples_per_symbol
    check_rate(filt, cfg)
    symbols = np.asarray(symbols)
    if symbols.dtype.kind not in "biufc":
        raise FrameError(f"symbols of dtype {symbols.dtype} are not bool, integer, float "
                         "or complex")
    if symbols.ndim != 2 or len(symbols) != cfg.subcarriers or not symbols.shape[1]:
        raise FrameError(f"symbols of shape {symbols.shape} are not "
                         f"({cfg.subcarriers}, columns >= 1)")
    m_count, n_cols = symbols.shape
    cols = np.flatnonzero(np.any(symbols, axis=0))
    slots = cfg.first_slot + cols
    coeff = np.zeros((len(cols), spt), dtype=complex)
    # Referenced to the slot's own start, its sum lines up with its taps.
    np.multiply(symbols[:, cols].T, carrier_phase(m_count, slots, slots),
                out=coeff[:, :m_count])
    sums = slot_sums(coeff, coeff)
    k_len = filt.overlap * spt
    out = np.zeros((n_cols - 1) * spt // 2 + k_len, dtype=complex)
    # Column col's whole support lies in out, from float col * spt (twice its
    # first sample), so its add is add_weighted's body alone on that (K, 2 spt)
    # float view: the same products, added in the same order.
    out_f, sums_f = out.view(float), sums.view(float)
    w = tap_pairs(filt.taps).reshape(filt.overlap, 2 * spt)
    product = np.empty_like(w)
    for i, col in enumerate(cols.tolist()):
        at = col * spt
        _add_product(out_f[at: at + 2 * k_len].reshape(w.shape), sums_f[i], w, product)
    return SampledSignal(samples=out, samples_per_symbol=spt, t0=cfg.first_slot / 2.0,
                         overlap=filt.overlap)


def transmultiplexer_response(filt: PrototypeFilter, m: int, n: int, p: int, q: int) -> complex:
    """Inner product of the synthesis pulses (m, n) and (p, q), each
    j^{m+n} e^{j2pi m k/L} taps[k - nL/2] at the samples k of the filter's
    grid, summed over both slots' span and divided by L.  Real parts vanish
    except on the diagonal (real-field orthogonality).  Raises FrameError
    for an index that is not an integer and for an odd L, at which a slot
    would not start on a sample."""
    m, n, p, q = (check_integer(name, i, FrameError) for name, i in zip("mnpq", (m, n, p, q)))
    L = filt.samples_per_symbol
    if L % 2:
        raise FrameError(f"the filter's {L} samples per symbol must be even: slots start "
                         "every half symbol, on the sample grid")
    if abs(n - q) >= 2 * filt.overlap:
        return 0.0 + 0.0j
    start = min(n, q) * L // 2
    k = start + np.arange(max(n, q) * L // 2 + filt.overlap * L - start)

    def pulse(m, n):
        g = np.zeros(len(k))
        first = n * L // 2 - start
        g[first: first + len(filt.taps)] = filt.taps
        return _J[(m + n) % 4] * np.exp(2j * np.pi * (m * (k / L))) * g

    return complex(np.sum(pulse(m, n) * np.conj(pulse(p, q))) / L)
