"""Array-time forms of the signal core's lookups, the tests' reference.

The package looks the filter up, and finds the data slots that reach a
time, at one float time; the window sampler and transmultiplexer_response
work on the sample grid instead.  The forms here take an array of times at
once, with numpy's rounding and comparisons, and the oracles evaluate s(t)
through them: the package's one-time forms and its integer geometry must
give their bits.
"""

import numpy as np

from fbmc_preamble.analysis import DEFAULT_CHUNK
from fbmc_preamble.waveform import carrier_phase, slot_data


def filter_lookup(filt, t) -> np.ndarray:
    """Nearest-sample lookup of g(t) at an array of times; zero outside
    [0, K).  np.round, like Python's round, rounds ties to even."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    inside = (t >= 0.0) & (t < filt.overlap)
    idx = np.round(t[inside] * filt.samples_per_symbol).astype(np.int64)
    out[inside] = filt.taps[np.minimum(idx, len(filt.taps) - 1)]
    return out


def reaching_slots(preamble_slot, guards, overlap, t) -> np.ndarray:
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


def slot_pulses(slots, t, filt) -> np.ndarray:
    """g(t - s/2) of every slot s at every time t, in one filter lookup;
    shape (len(slots),) + shape of t."""
    half = np.divide(slots, 2.0)
    return filter_lookup(filt, t - half.reshape(half.shape + (1,) * np.ndim(t)))


def slot_signal(coeffs, slots, t, filt) -> np.ndarray:
    """sum_s (a_s j^{m+s}) e^{j2pi m t} g(t - s/2) at an array of times, for
    coeffs (..., len(slots), M), the slots added in order: signal_at_times'
    data sum, its pulses from one lookup of the (slots x times) grid."""
    coeffs = np.asarray(coeffs)
    m_count = coeffs.shape[-1]
    used = np.flatnonzero(coeffs.reshape(-1, m_count).any(axis=0))
    carriers = np.exp(2j * np.pi * np.outer(used, t))
    if used.size < m_count:
        full = np.zeros((m_count, carriers.shape[1]), dtype=complex)
        full[used] = carriers
        carriers = full
    pulses = slot_pulses(slots, t, filt)
    out = 0
    for i, s in enumerate(slots):
        phased = coeffs[..., i, :] * carrier_phase(m_count, s)
        out = out + (phased @ carriers) * pulses[i]
    return out


def signal_at_times(preamble, filt, cfg, t, trials) -> np.ndarray:
    """analysis.signal_at_times of a finite 1-D float t: the preamble's share
    one time at a time, as nu_of_t evaluates it, plus the data of the slots
    that reach any of the times, in chunks of DEFAULT_CHUNK trials."""
    n = cfg.preamble_slot
    out = np.empty((trials, len(t)), dtype=complex)
    out[:] = [slot_signal(preamble[None, :], [n], np.array([x]), filt)[0] for x in t.tolist()]
    slots = reaching_slots(n, cfg.guards, filt.overlap, t)
    for lo in range(0, trials, DEFAULT_CHUNK):
        rows = np.arange(lo, min(lo + DEFAULT_CHUNK, trials))
        out[rows] += slot_signal(slot_data(cfg, rows[:, None], slots), slots, t, filt)
    return out


def transmultiplexer_response(filt, m, n, p, q) -> complex:
    """Inner product of the synthesis pulses (m, n) and (p, q) by a Riemann
    sum at the filter's sample times, each pulse evaluated by slot_signal;
    m and p >= 0."""
    if abs(n - q) >= 2 * filt.overlap:
        return 0.0 + 0.0j
    L = filt.samples_per_symbol
    start = min(n, q) * L // 2
    t = (start + np.arange(max(n, q) * L // 2 + filt.overlap * L - start)) / L
    unit = np.eye(max(m, p) + 1)
    u, v = (slot_signal(unit[[k]], [s], t, filt) for k, s in ((m, n), (p, q)))
    return complex(np.sum(u * np.conj(v)) / L)
