"""FBMC/OQAM frame assembly and baseband synthesis.

A frame is a grid of real half-symbols a_{m,n'} (subcarrier m, half-symbol
slot n') holding one preamble column flanked by zero guards and random
binary data.  The transmitted signal is

    s(t) = sum_{m,n'} a_{m,n'} j^{m+n'} exp(j 2 pi m t / T) g(t - n' T / 2)

sampled on a uniform grid with oversample * M points per symbol interval
(T = 1 in normalized units).  Every evaluator of s(t) in the package is a
thin caller of the signal core below.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from .prototype import PrototypeFilter

_J = np.array([1.0 + 0j, 1j, -1.0 + 0j, -1j])


class FrameError(ValueError):
    """Invalid frame configuration or contents."""


@dataclass(frozen=True)
class FrameConfig:
    subcarriers: int              # M
    guards: int                   # G zero half-symbols on each side
    preamble_slot: int | None = None   # defaults to an even slot index
    data_span: int = 12           # data half-symbols per side beyond guards
    oversample: int = 4           # samples per T = oversample * M
    rng_seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None and f.name == "preamble_slot":
                continue
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise FrameError(f"{f.name} must be an integer, not {value!r}")
        if self.subcarriers < 2:
            raise FrameError("need at least 2 subcarriers")
        if self.guards < 0:
            raise FrameError("guard count must be >= 0")
        if self.data_span < 12:
            raise FrameError("data span must cover the filter support (>= 12)")
        if self.oversample < 2:
            raise FrameError("oversample must be >= 2")
        if self.samples_per_symbol % 2:
            raise FrameError("oversample * subcarriers must be even: slots start every "
                             "half symbol, on the sample grid")
        if not 0 <= self.rng_seed < 1 << 64:
            raise FrameError(f"rng_seed {self.rng_seed} outside [0, 2^64)")
        if self.preamble_slot is None:
            n = self.guards + self.data_span
            object.__setattr__(self, "preamble_slot", n + (n % 2))
        if self.preamble_slot < self.guards + self.data_span:
            raise FrameError("preamble slot leaves no room for the left half-frame")

    @property
    def samples_per_symbol(self) -> int:
        return self.oversample * self.subcarriers

    @property
    def first_slot(self) -> int:
        return self.preamble_slot - self.guards - self.data_span

    @property
    def total_slots(self) -> int:
        return 2 * (self.guards + self.data_span) + 1

    def data_slots(self) -> list[int]:
        slots = range(self.first_slot, self.first_slot + self.total_slots)
        return [s for s in slots if abs(s - self.preamble_slot) > self.guards]

    def to_json_dict(self) -> dict:
        return {"subcarriers": self.subcarriers, "guards": self.guards,
                "preamble_slot": self.preamble_slot, "data_span": self.data_span,
                "oversample": self.oversample, "rng_seed": self.rng_seed}


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


def slot_data(cfg: FrameConfig, trial, slot) -> np.ndarray:
    """Deterministic +-1 data for (trial, slot) cells.

    Each cell owns a counter-based Philox4x64-10 stream keyed on
    (seed, trial << 16 | slot), so trials and slots can be generated in any
    order or in parallel with identical results.  Its M values are the top
    bits of the stream's little-endian uint32 words, 1 -> +1 and 0 -> -1.

    `trial` and `slot` are integers or integer arrays that broadcast
    together; the result has their broadcast shape plus a last axis of M,
    so two scalars give shape (M,).
    """
    keys = (_key_field("trial", trial, TRIAL_BITS) << SLOT_BITS) | _key_field("slot", slot,
                                                                              SLOT_BITS)
    m = cfg.subcarriers
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
    bits = raw.astype("<u8", copy=False).view("<u4")[:, :m] >> 31
    return (bits * 2.0 - 1.0).reshape(keys.shape + (m,))


@dataclass(frozen=True)
class FbmcGrid:
    symbols: np.ndarray = field(compare=False)   # (M, total_slots)
    first_slot: int = 0


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


def build_frame(cfg: FrameConfig, preamble: np.ndarray, trial: int = 0) -> FbmcGrid:
    """Grid with the preamble at cfg.preamble_slot, zero guards, and seeded
    +-1 data elsewhere.  Complex preambles are accepted only as a baseline
    affordance (IAM-C); OQAM symbols proper are real."""
    preamble = checked_preamble(preamble, cfg.subcarriers)
    symbols = np.zeros((cfg.subcarriers, cfg.total_slots), dtype=complex)
    symbols[:, cfg.preamble_slot - cfg.first_slot] = preamble
    slots = np.array(cfg.data_slots())
    symbols[:, slots - cfg.first_slot] = slot_data(cfg, trial, slots).T
    return FbmcGrid(symbols=symbols, first_slot=cfg.first_slot)


@dataclass(frozen=True)
class SampledSignal:
    samples: np.ndarray = field(compare=False)
    samples_per_symbol: int = 0
    t0: float = 0.0

    @property
    def times(self) -> np.ndarray:
        return self.t0 + np.arange(len(self.samples)) / self.samples_per_symbol


# ---------------------------------------------------------------------------
# Signal core

def reaching_data_slots(preamble_slot: int, guards: int, overlap: float, t) -> np.ndarray:
    """Data slots, those more than `guards` slots from the preamble, whose
    filter support [s/2, s/2 + overlap) holds at least one of the times t."""
    t = np.asarray(t, dtype=float).ravel()
    if not t.size:
        return np.empty(0, dtype=int)
    slots = np.arange(int(np.floor(2.0 * (t.min() - overlap))),
                      int(np.floor(2.0 * t.max())) + 1)
    # The filter's own argument, so that both agree at the support edges.
    lag = t - slots[:, None] / 2.0
    reach = np.any((lag >= 0.0) & (lag < overlap), axis=1)
    return slots[reach & (np.abs(slots - preamble_slot) > guards)]


def carrier_phase(subcarriers: int, slot, start=0) -> np.ndarray:
    """Phase j^{m+slot} e^{j2pi m t0} of a slot's coefficients when their
    subcarrier sum is referenced to the half-integer time t0 = start/2,
    where e^{j2pi m t0} = (-1)^{m start}.  slot and start may be integer
    arrays, such as columns (n, 1), that broadcast with the M subcarriers."""
    m = np.arange(subcarriers)
    return _J[(m + slot + 2 * m * start) % 4]


def slot_sums(coeff: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Each row's subcarrier sum on one T-periodic symbol, written to and
    returned in out.

    coeff (count, spt) holds phased coefficients zero-padded to spt, so the
    IFFT times spt of a row is its sum at the spt samples of a symbol
    interval.  out may be coeff itself.
    """
    spt = coeff.shape[1]
    # The IFFT's 1/spt scaling and the product by spt are both exact for a
    # power-of-two spt, so the unscaled transform gives the same bits.
    exact = spt & (spt - 1) == 0
    np.fft.ifft(coeff, axis=1, norm="forward" if exact else "backward", out=out)
    if not exact:
        out *= spt
    return out


def add_weighted(out: np.ndarray, sums: np.ndarray, pairs: np.ndarray, offset: int) -> None:
    """out (count, P, spt) += g[k - offset] * sums (count, spt) at each sample
    k of out's P symbol intervals, with each row's sum repeated over them and
    the taps g zero outside their K intervals.

    pairs is g with each tap repeated for the (re, im) pair of a complex
    sample (PrototypeFilter.pairs).  offset, any integer, is the slot's
    first sample counted from out's first sample; out is left as it is
    outside [offset, offset + K * spt).
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
        out_f[:, p0, 2 * r0:] += sums_f[:, 2 * r0:] * w[:head]
        w = w[head:]
        p0 += 1
    if r1:
        tail = len(w) - 2 * r1
        out_f[:, p1, :2 * r1] += sums_f[:, :2 * r1] * w[tail:]
        w = w[:tail]
    out_f[:, p0:p1] += sums_f[:, None] * w.reshape(p1 - p0, 2 * spt)


def slot_signal(coeffs: np.ndarray, slots, t: np.ndarray,
                filt: PrototypeFilter) -> np.ndarray:
    """sum_s (a_s j^{m+s}) e^{j2pi m t} g(t - s/2) at arbitrary times t.

    coeffs (..., len(slots), M) holds each slot's coefficients a_s; the
    result has shape (..., len(t)).
    """
    coeffs = np.asarray(coeffs)
    m_count = coeffs.shape[-1]
    carriers = np.exp(2j * np.pi * np.outer(np.arange(m_count), t))
    out = 0
    for i, s in enumerate(slots):
        phased = coeffs[..., i, :] * carrier_phase(m_count, s)
        out = out + (phased @ carriers) * filt(t - s / 2.0)
    return out


def synthesize(grid: FbmcGrid, filt: PrototypeFilter, cfg: FrameConfig) -> SampledSignal:
    """Accumulate every symbol's filtered subcarrier sum on the sample grid.

    One IFFT transforms every nonzero column; their weighted sums are then
    added in column order.
    """
    spt = cfg.samples_per_symbol
    filt = filt.resample(spt)
    if filt.samples_per_symbol != spt:
        raise FrameError("filter sample rate does not match oversample * M")
    if grid.symbols.ndim != 2 or len(grid.symbols) != cfg.subcarriers:
        raise FrameError(f"grid of shape {grid.symbols.shape} is not "
                         f"({cfg.subcarriers}, columns)")
    m_count, n_cols = grid.symbols.shape
    cols = np.flatnonzero(np.any(grid.symbols, axis=0))
    slots = (grid.first_slot + cols)[:, None]
    coeff = np.zeros((len(cols), spt), dtype=complex)
    # Referenced to the slot's own start, its sum lines up with its taps.
    np.multiply(grid.symbols[:, cols].T, carrier_phase(m_count, slots, slots),
                out=coeff[:, :m_count])
    sums = slot_sums(coeff, coeff)
    k_len = filt.overlap * spt
    out = np.zeros((n_cols - 1) * spt // 2 + k_len, dtype=complex)
    for i, col in enumerate(cols.tolist()):
        offset = col * spt // 2
        window = out[offset: offset + k_len].reshape(1, filt.overlap, spt)
        add_weighted(window, sums[i:i + 1], filt.pairs, 0)
    return SampledSignal(samples=out, samples_per_symbol=spt, t0=grid.first_slot / 2.0)


def transmultiplexer_response(filt: PrototypeFilter, m: int, n: int, p: int, q: int) -> complex:
    """Inner product of the synthesis pulses (m, n) and (p, q), evaluated by
    a Riemann sum on the filter's own sample grid.  Real parts vanish except
    on the diagonal (real-field orthogonality)."""
    if abs(n - q) >= 2 * filt.overlap:
        return 0.0 + 0.0j
    L = filt.samples_per_symbol
    start = min(n, q) * L // 2
    t = (start + np.arange(max(n, q) * L // 2 + filt.overlap * L - start)) / L
    unit = np.eye(max(m, p) + 1)
    u, v = (slot_signal(unit[[k]], [s], t, filt) for k, s in ((m, n), (p, q)))
    return complex(np.sum(u * np.conj(v)) / L)
