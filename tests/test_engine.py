"""The Monte Carlo engine's data stream and its boundary checks.

The golden values were produced by the original per-cell engine.  A faster
engine must reproduce them exactly: the same data bits for every (seed,
trial, slot) cell and the same PAPR floats to the last bit, whatever the
chunk size and whatever the number of processes the trials are sharded
across.  Keys outside their ranges and preambles that build_frame would
refuse are refused here too, before any worker process is fed.
"""

import os
import pickle
import select
import signal
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fbmc_preamble import analysis
from fbmc_preamble.analysis import (AnalysisError, AnalysisWindow, _papr_db, _WindowSampler,
                                    average_power, engine_processes, monte_carlo_ccdf, papr,
                                    papr_samples, sigma0_papr_db)
from fbmc_preamble.prototype import make_filter, phydyas_taps
from fbmc_preamble.sequences import golay_seed, sparse_golay_preamble
from fbmc_preamble.waveform import (FrameConfig, FrameError, add_weighted, build_frame,
                                    carrier_phase, slot_data, synthesize)
from fbmc_preamble.workers import POOL, cpu_count
from lookup_reference import filter_lookup, reaching_slots

# (subcarriers, rng_seed, trial, slot, data bits with 1 for +1)
GOLDEN_CELLS = [
    (64, 0, 0, 0, "0010000111101101100011101110010110000100001010010110110100110010"),
    (64, 0, 3, 7, "1000001101101000100000000011100110101001111110000000000001001110"),
    (64, 2**63 + 5, 12, 0,
     "1100010010110100010000001010000001110001001101111001010110110101"),
    (64, 2**64 - 1, 2**48 - 1, 65535,
     "0001110110001011100000001101001101110000110001001011001001001101"),
    (64, 123456789, 1000, 40,
     "0110101011101110001010101001001000101110111101011001111010011000"),
    (13, 7, 5, 65535, "1010110000010"),
    (2, 1, 0, 1, "00"),
]

# papr_samples of sparse_golay_preamble(512, 32), trials 0..7, rng_seed 0,
# oversample 4: the six paper configs.
GOLDEN_PAPR_DB = {
    ("phydyas4", 1): [9.50724173153896, 7.237110567957782, 7.380653744103778,
                      8.198361749574529, 6.048991945066069, 7.462566167366834,
                      6.628653087683583, 7.3879158832520435],
    ("phydyas4", 2): [1.6275755287412386, 1.6462405769216741, 1.6307540815117119,
                      1.6066297317216296, 1.6283621714450536, 1.6937458019063565,
                      1.617960410984654, 1.7059815145488035],
    ("phydyas4", 3): [1.6349117589478395, 1.6349113999130436, 1.6349116392695233,
                      1.6349110408782754, 1.6349121179825166, 1.6349115195913235,
                      1.6349122376607264, 1.6349125966954525],
    ("hermite", 1): [10.269453435532334, 7.448123794753735, 7.525940097525776,
                     8.480134140874732, 6.7615477567507565, 7.727538159606028,
                     6.588591461680019, 8.369336808375934],
    ("hermite", 2): [2.660474399437538, 2.665610607505901, 2.6724207256123527,
                     2.6695735910319778, 2.6609786187701943, 2.6656356255878415,
                     2.667304196504954, 2.6815413910302803],
    ("hermite", 3): [2.672977060568999, 2.6729520234561086, 2.672968714608106,
                     2.6729269864715173, 2.6730020971045447, 2.6729603692245547,
                     2.67301044253621, 2.6730354793123157],
}


def test_golden_slot_data_bits():
    for m, seed, trial, slot, bits in GOLDEN_CELLS:
        cfg = FrameConfig(subcarriers=m, guards=1, rng_seed=seed)
        a = slot_data(cfg, trial, slot)
        assert a.shape == (m,)
        assert "".join("1" if v > 0 else "0" for v in a) == bits, (m, seed, trial, slot)


def test_golden_papr_samples():
    preamble = sparse_golay_preamble(512, 32)
    for (name, guards), expected in GOLDEN_PAPR_DB.items():
        cfg = FrameConfig(subcarriers=512, guards=guards, oversample=4, rng_seed=0)
        filt = make_filter(name, cfg.samples_per_symbol)
        got = papr_samples(preamble, filt, cfg, 8)
        assert [float(v) for v in got] == expected, (name, guards)


@settings(max_examples=15, deadline=None)
@given(m=st.sampled_from([8, 12, 16, 32]), guards=st.integers(0, 3),
       name=st.sampled_from(["phydyas3", "phydyas4", "hermite"]),
       oversample=st.integers(2, 4), seed=st.integers(0, 2**64 - 1),
       first_trial=st.integers(0, 2**48 - 40))
def test_chunk_size_does_not_change_papr_samples(m, guards, name, oversample, seed,
                                                 first_trial):
    cfg = FrameConfig(subcarriers=m, guards=guards, oversample=oversample, rng_seed=seed)
    filt = make_filter(name, cfg.samples_per_symbol)
    preamble = golay_seed(m) if m & (m - 1) == 0 else np.ones(m)
    runs = []
    for chunk in (1, 7, 16, 256):
        with mock.patch.object(analysis, "DEFAULT_CHUNK", chunk):
            runs.append(papr_samples(preamble, filt, cfg, 30, first_trial=first_trial))
    for other in runs[1:]:
        assert np.array_equal(runs[0], other)


@settings(max_examples=30, deadline=None)
@given(m=st.integers(2, 40), seed=st.integers(0, 2**64 - 1),
       trials=st.lists(st.integers(0, 2**48 - 1), min_size=1, max_size=6),
       slot=st.integers(0, 2**16 - 1))
def test_batched_slot_data_rows_equal_scalar_calls(m, seed, trials, slot):
    cfg = FrameConfig(subcarriers=m, guards=1, rng_seed=seed)
    batch = slot_data(cfg, np.array(trials), slot)
    assert batch.shape == (len(trials), m)
    for row, trial in zip(batch, trials):
        assert np.array_equal(row, slot_data(cfg, trial, slot))
    slots = slot_data(cfg, trials[0], np.array([slot, 0]))
    assert np.array_equal(slots[0], batch[0])
    assert np.array_equal(slots[1], slot_data(cfg, trials[0], 0))


def full_window_oracle(preamble, filt, cfg, data):
    """The window as the engine summed it before weights were cut to their
    support: the preamble's window tiled per trial, then for each reaching
    data slot in order a complex out += g * sum over the whole window, with
    g cast to complex.  The window starts at slot n + K - 2, so that it is
    centred on the preamble pulse's peak (n + K)/2.  The weights and the
    slots are the array-time reference's, at the window's sample times."""
    spt = cfg.samples_per_symbol
    n, m = cfg.preamble_slot, cfg.subcarriers
    start = n + filt.overlap - 2
    t_win = start / 2.0 + np.arange(2 * spt) / spt

    def slot_sum(coeff, s):
        base = np.fft.ifft(coeff, axis=1, norm="forward")
        return filter_lookup(filt, t_win - s / 2.0).reshape(2, spt) * base[:, None, :]

    coeff = np.zeros((1, spt), dtype=complex)
    coeff[0, :m] = preamble * carrier_phase(m, n, start)
    out = np.tile(slot_sum(coeff, n), (data.shape[1], 1, 1))
    coeff = np.zeros((data.shape[1], spt), dtype=complex)
    for s, a in zip(reaching_slots(n, cfg.guards, filt.overlap, t_win), data):
        coeff[:, :m] = a * carrier_phase(m, s, start)
        out += slot_sum(coeff, s)
    return out.reshape(data.shape[1], 2 * spt)


@pytest.mark.parametrize("name", ["phydyas3", "phydyas4", "hermite"])
def test_sampler_slots_are_the_closed_form(name):
    # The slots s with G < |s - n| <= K + 1, those whose support
    # [s/2, s/2 + K) meets the window [(n+K-2)/2, (n+K+2)/2), are the slots
    # the array-time reference finds at the window's 2 spt sample times.
    for m in (2, 3, 64, 96, 512):
        for oversample in (2, 3, 4, 8):
            spt = m * oversample
            if spt % 2:
                continue
            filt = make_filter(name, spt)
            k = filt.overlap
            for guards in range(8):
                # The default preamble slot, which is even, and an odd one.
                for pre in (None, 2 * guards + 25):
                    cfg = FrameConfig(subcarriers=m, guards=guards, oversample=oversample,
                                      preamble_slot=pre)
                    n = cfg.preamble_slot
                    start = n + k - 2
                    t_win = start / 2.0 + np.arange(2 * spt) / spt
                    got = _WindowSampler(unit_preamble(m, 0), filt, cfg, 1).data_slots
                    closed = [s for s in range(n - k - 1, n + k + 2) if abs(s - n) > guards]
                    assert got.tolist() == closed
                    assert np.array_equal(got, reaching_slots(n, guards, k, t_win))
                    assert (got.size == 0) == (guards >= k + 1)


def same_bits(a, b):
    """Equal bit for bit once -0 is folded into +0: a weight of zero adds
    a signed zero, and the sign of a zero sample changes no power."""
    return (a + 0.0).tobytes() == (b + 0.0).tobytes()


@settings(max_examples=60, deadline=None)
@given(spt=st.integers(1, 24), overlap=st.integers(1, 4), intervals=st.integers(1, 4),
       count=st.integers(1, 3), data=st.data(), seed=st.integers(0, 2**32))
def test_add_weighted_equals_tiled_oracle(spt, overlap, intervals, count, data, seed):
    # Any integer offset, not only the multiples of spt / 2 that slots start at.
    offset = data.draw(st.integers(-(overlap + 1) * spt, (intervals + 1) * spt))
    rng = np.random.default_rng(seed)
    taps = rng.standard_normal(overlap * spt)
    sums = rng.standard_normal((count, spt)) + 1j * rng.standard_normal((count, spt))
    shape = (count, intervals, spt)
    before = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    out = before.copy()
    # Stale products must not reach out.
    product = np.full((count, intervals, 2 * spt), np.nan)
    add_weighted(out, sums, np.repeat(taps, 2), offset, product)
    # g on out's samples, zero where the slot's taps do not reach.
    k = np.arange(intervals * spt) - offset
    inside = (k >= 0) & (k < len(taps))
    g = np.zeros(intervals * spt)
    g[inside] = taps[k[inside]]
    expected = before + sums[:, None, :] * g.reshape(intervals, spt)
    assert same_bits(out, expected)
    flat = out.reshape(count, -1)
    assert flat[:, ~inside].tobytes() == before.reshape(count, -1)[:, ~inside].tobytes()


def unit_preamble(m, seed):
    """A preamble of M unit-modulus entries: energy M for any M."""
    return np.exp(2j * np.pi * np.random.default_rng(seed).random(m))


class TestWindow:
    """The sampler's window against the full-window complex sum it replaced,
    and against full-frame synthesis."""

    @settings(max_examples=25, deadline=None)
    @given(m=st.sampled_from([7, 8, 12, 13, 16, 24, 33]), oversample=st.integers(2, 6),
           name=st.sampled_from(["phydyas3", "phydyas4", "hermite"]),
           guards=st.integers(0, 4), chunk=st.integers(1, 16), seed=st.integers(0, 2**32),
           first_trial=st.integers(0, 2**48 - 64))
    @example(m=16, oversample=4, name="phydyas3", guards=2, chunk=5, seed=3, first_trial=0)
    def test_equals_full_window_oracle_bit_for_bit(self, m, oversample, name, guards, chunk,
                                                   seed, first_trial):
        # Odd M with an even oversample, and oversample 3, 5 or 6, give spt
        # such as 26, 42 or 60 that are not powers of two.
        assume(m * oversample % 2 == 0)
        cfg = FrameConfig(subcarriers=m, guards=guards, oversample=oversample, rng_seed=seed)
        filt = make_filter(name, cfg.samples_per_symbol)
        preamble = unit_preamble(m, seed)
        sampler = _WindowSampler(preamble, filt, cfg, chunk)
        trials = np.arange(first_trial, first_trial + chunk)
        data = slot_data(cfg, trials, sampler.data_slots[:, None])
        oracle = full_window_oracle(preamble, filt, cfg, data)
        assert same_bits(sampler.sample_trials(first_trial, chunk), oracle)
        assert same_bits(sampler.window(data), oracle)
        real = np.random.default_rng(seed).standard_normal(data.shape)
        assert same_bits(sampler.window(real),
                         full_window_oracle(preamble, filt, cfg, real))

    @settings(max_examples=20, deadline=None)
    @given(m=st.sampled_from([8, 12, 13, 16, 32]), oversample=st.integers(2, 5),
           name=st.sampled_from(["phydyas3", "phydyas4", "hermite"]),
           guards=st.integers(0, 4), seed=st.integers(0, 2**32))
    @example(m=16, oversample=4, name="phydyas3", guards=2, seed=3)
    def test_real_data_equals_full_frame_synthesis(self, m, oversample, name, guards, seed):
        assume(m * oversample % 2 == 0)
        cfg = FrameConfig(subcarriers=m, guards=guards, oversample=oversample, rng_seed=seed)
        filt = make_filter(name, cfg.samples_per_symbol)
        preamble = unit_preamble(m, seed)
        sampler = _WindowSampler(preamble, filt, cfg, 1)
        # Any real data, not only +-1, in the slots that reach the window;
        # the other data slots keep build_frame's data.
        data = np.random.default_rng(seed).standard_normal((len(sampler.data_slots), 1, m))
        symbols = build_frame(cfg, preamble, trial=0)
        symbols[:, sampler.data_slots - cfg.first_slot] = data[:, 0, :].T
        sig = synthesize(symbols, filt, cfg)
        p_avg = average_power(m)
        win = sampler.window(data)[0]
        fast = 10.0 * np.log10(np.max(np.abs(win) ** 2) / p_avg)
        full = papr(sig, AnalysisWindow.for_signal(sig, cfg.preamble_slot), p_avg)
        assert abs(fast - full) <= 1e-9

    @settings(max_examples=25, deadline=None)
    @given(m=st.sampled_from([7, 8, 12, 13, 16, 24, 33, 96]), oversample=st.integers(2, 6),
           name=st.sampled_from(["phydyas3", "phydyas4", "hermite"]),
           guards=st.integers(0, 3), seed=st.integers(0, 2**32))
    @example(m=24, oversample=3, name="phydyas4", guards=1, seed=0)
    def test_unscaled_ifft_is_within_tolerance_of_the_scaled_one(self, m, oversample, name,
                                                                 guards, seed):
        # slot_sums takes the unscaled IFFT on every grid.  The scaled IFFT
        # times spt, kept here as the reference, is the same bits on a
        # power-of-two spt and differs by rounding on other grids.
        assume(m * oversample % 2 == 0)
        spt = m * oversample

        def scaled_slot_sums(coeff, out):
            np.fft.ifft(coeff, axis=1, out=out)
            out *= spt
            return out

        cfg = FrameConfig(subcarriers=m, guards=guards, oversample=oversample, rng_seed=seed)
        filt = make_filter(name, spt)
        preamble = unit_preamble(m, seed)
        got = _papr_db(preamble, filt, cfg, 0, 64, 16)
        win = _WindowSampler(preamble, filt, cfg, 16).sample_trials(0, 16)
        with mock.patch.object(analysis, "slot_sums", scaled_slot_sums):
            want = _papr_db(preamble, filt, cfg, 0, 64, 16)
            ref = _WindowSampler(preamble, filt, cfg, 16).sample_trials(0, 16)
        if spt & (spt - 1) == 0:
            assert got.tobytes() == want.tobytes()
            assert same_bits(win, ref)
        assert np.max(np.abs(got - want)) <= 1e-12
        peak = np.max(np.abs(ref), axis=1, keepdims=True)
        assert np.all(np.abs(win - ref) <= 1e-15 * peak)

    # (8, 5, 16) is data for more trials than the sampler's 4 rows: it used
    # to end in a numpy ValueError from a shape mismatch.
    @pytest.mark.parametrize("shape", [(8, 16), (7, 2, 16), (8, 2, 15), (8, 2, 16, 1),
                                       (8, 5, 16)])
    def test_rejects_data_of_the_wrong_shape(self, shape):
        sampler = _WindowSampler(SMALL_PREAMBLE, SMALL_FILT, SMALL_CFG, 4)
        assert len(sampler.data_slots) == 8
        with pytest.raises(AnalysisError, match="shape"):
            sampler.window(np.ones(shape))

    @pytest.mark.parametrize("count", [5, -1])
    def test_sample_trials_refuses_a_count_outside_its_rows(self, count):
        # 5 trials of a 4-row sampler used to end in a numpy ValueError from
        # a reshape.
        sampler = _WindowSampler(SMALL_PREAMBLE, SMALL_FILT, SMALL_CFG, 4)
        with pytest.raises(AnalysisError, match=r"count .* is not in \[0, 4\]"):
            sampler.sample_trials(0, count)
        assert sampler.sample_trials(0, 4).shape == (4, 2 * SMALL_CFG.samples_per_symbol)


class TestWindowCentre:
    """The window is centred on the preamble pulse for every overlap K."""

    @pytest.mark.parametrize("name", ["phydyas3", "phydyas4", "hermite"])
    def test_preamble_envelope_peaks_at_the_centre_sample(self, name):
        cfg = FrameConfig(subcarriers=512, guards=3, oversample=4)
        filt = make_filter(name, cfg.samples_per_symbol)
        envelope = np.abs(_WindowSampler(sparse_golay_preamble(512, 32), filt,
                                         cfg, 1).preamble_window.ravel())
        assert len(envelope) == 4096
        assert np.argmax(envelope) == 2048

    @pytest.mark.parametrize("name, overlap", [("phydyas3", 3), ("phydyas4", 4),
                                               ("hermite", 4)])
    def test_data_leaves_the_window_from_k_plus_one_guards(self, name, overlap):
        # compare's guard count of 6 leaves every filter with no data in the
        # window, the sigma = 0 regime.
        reaching = []
        for guards in range(7):
            cfg = FrameConfig(subcarriers=16, guards=guards, oversample=2)
            filt = make_filter(name, cfg.samples_per_symbol)
            assert filt.overlap == overlap
            reaching.append(len(_WindowSampler(SMALL_PREAMBLE, filt, cfg, 1).data_slots))
        assert [g for g in range(7) if reaching[g] == 0] == list(range(overlap + 1, 7))


class TestWorkspace:
    """Each shard works in the arrays of its one sampler: its chunks
    allocate no array the size of a chunk."""

    @pytest.mark.parametrize("guards", [1, 2, 3])
    def test_further_chunks_allocate_no_chunk_sized_array(self, guards):
        cfg = FrameConfig(subcarriers=512, guards=guards, oversample=4)
        spt, chunk = cfg.samples_per_symbol, 16
        calls, base = [], []

        def reset_after_first_chunk(*args, **kwargs):
            # Each chunk starts with one slot_data call.
            calls.append(None)
            if len(calls) == 2:
                tracemalloc.reset_peak()
                base.append(tracemalloc.get_traced_memory()[0])
            return slot_data(*args, **kwargs)

        tracemalloc.start()
        try:
            with mock.patch.object(analysis, "slot_data", reset_after_first_chunk):
                _papr_db(sparse_golay_preamble(512, 32), phydyas_taps(4, spt), cfg, 0,
                         5 * chunk, chunk)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(calls) == 5
        assert peak - base[0] < chunk * 2 * spt * 8

    def test_ragged_chunk_leaves_no_stale_samples(self):
        sampler = _WindowSampler(SMALL_PREAMBLE, SMALL_FILT, SMALL_CFG, 4)
        sampler.sample_trials(100, 4)
        # A result is a view of its sampler's arrays, so the reference has its own.
        reference = _WindowSampler(SMALL_PREAMBLE, SMALL_FILT, SMALL_CFG, 3)
        assert same_bits(sampler.sample_trials(7, 3), reference.sample_trials(7, 3))


class TestKeyRanges:
    """Out-of-range keys are refused instead of aliasing other cells."""

    @pytest.mark.parametrize("trial, slot", [(2**48 + 3, 7), (-1, 7), (3, 2**16 + 7),
                                             (3, -1), (np.array([0, 2**48]), 7)])
    def test_rejects_trial_and_slot(self, trial, slot):
        with pytest.raises(FrameError):
            slot_data(FrameConfig(subcarriers=8, guards=1), trial, slot)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_rejects_seed(self, seed):
        with pytest.raises(FrameError):
            slot_data(FrameConfig(subcarriers=8, guards=1, rng_seed=seed), 0, 0)

    def test_engine_rejects_trial_range_past_the_key(self):
        # A first trial of True returned trial 1's PAPR.
        cfg = FrameConfig(subcarriers=16, guards=1, oversample=2)
        filt = phydyas_taps(4, cfg.samples_per_symbol)
        for first_trial in (2**48 - 1, -1, True, 1.5, np.float64(2.0), "3"):
            with pytest.raises(FrameError):
                papr_samples(golay_seed(16), filt, cfg, 2, first_trial=first_trial)


class TestPreambleCheck:
    """The engine applies build_frame's preamble check."""

    def setup_method(self):
        self.cfg = FrameConfig(subcarriers=64, guards=2, oversample=4)
        self.filt = phydyas_taps(4, self.cfg.samples_per_symbol)

    @pytest.mark.parametrize("preamble", [np.sqrt(2.0) * golay_seed(64), golay_seed(32),
                                          np.zeros(64), np.full(64, np.nan)])
    def test_rejects_bad_preamble(self, preamble):
        with pytest.raises(FrameError):
            papr_samples(preamble, self.filt, self.cfg, 1)
        with pytest.raises(FrameError):
            monte_carlo_ccdf(preamble, self.filt, self.cfg, 1)


# The sigma = 0 regime at M = 64: no data slot reaches the window at G = 6.
SIGMA0_CFG = FrameConfig(subcarriers=64, guards=6, oversample=4)
SIGMA0_STACK = np.array([golay_seed(64), unit_preamble(64, 1)])


class TestSigma0:
    """sigma0_papr_db scores a stack of preambles by the peak of their own
    share of the window: the engine's float wherever no data reaches it."""

    @settings(max_examples=25, deadline=None)
    @given(m=st.sampled_from([7, 8, 12, 13, 16, 24, 33, 64]), oversample=st.integers(2, 6),
           name=st.sampled_from(["phydyas3", "phydyas4", "hermite"]),
           extra_guards=st.integers(0, 2), count=st.integers(1, 4), seed=st.integers(0, 2**32))
    @example(m=64, oversample=4, name="phydyas3", extra_guards=0, count=3, seed=0)
    def test_rows_equal_one_engine_trial(self, m, oversample, name, extra_guards, count, seed):
        assume(m * oversample % 2 == 0)
        spt = m * oversample
        filt = make_filter(name, spt)
        # From G = K + 1 no data slot reaches the window.
        cfg = FrameConfig(subcarriers=m, guards=filt.overlap + 1 + extra_guards,
                          oversample=oversample, rng_seed=seed)
        preambles = [unit_preamble(m, seed + i) for i in range(count)]
        expected = [papr_samples(p, filt, cfg, trials=1)[0] for p in preambles]
        assert sigma0_papr_db(preambles, filt, cfg).tolist() == expected

    @pytest.mark.parametrize("name, value", [("phydyas4", 1.6349118786259993),
                                             ("hermite", 2.672985405756094)])
    def test_paper_preamble_is_pinned(self, name, value):
        # The floats test_sigma0_papr_is_pinned pins for the engine.
        cfg = FrameConfig(subcarriers=512, guards=6, oversample=4, rng_seed=3)
        got = sigma0_papr_db(sparse_golay_preamble(512, 32)[None],
                             make_filter(name, cfg.samples_per_symbol), cfg)
        assert got.tolist() == [value]

    def test_a_row_reads_the_same_in_any_batch(self):
        cfg = FrameConfig(subcarriers=512, guards=6, oversample=4)
        filt = make_filter("phydyas4", cfg.samples_per_symbol)
        stack = np.array([sparse_golay_preamble(512, 32)]
                         + [unit_preamble(512, seed) for seed in range(31)])
        alone = [sigma0_papr_db(row[None], filt, cfg)[0] for row in stack]
        assert sigma0_papr_db(stack[:3], filt, cfg).tolist() == alone[:3]
        assert sigma0_papr_db(stack, filt, cfg).tolist() == alone

    @pytest.mark.parametrize("preambles", [golay_seed(16)[None], np.sqrt(2.0) * SIGMA0_STACK,
                                           np.vstack([SIGMA0_STACK, np.zeros((1, 64))]),
                                           np.full((1, 64), np.nan)])
    def test_refuses_a_row_that_build_frame_refuses(self, preambles):
        with pytest.raises(FrameError, match="preamble"):
            sigma0_papr_db(preambles, phydyas_taps(4, 256), SIGMA0_CFG)

    def test_refuses_a_filter_at_another_rate(self):
        with pytest.raises(FrameError, match="samples per symbol"):
            sigma0_papr_db(SIGMA0_STACK, phydyas_taps(4, 128), SIGMA0_CFG)

    @pytest.mark.parametrize("preambles", [golay_seed(64), SIGMA0_STACK[None], np.array(1.0)])
    def test_refuses_an_input_that_is_not_2d(self, preambles):
        with pytest.raises(AnalysisError, match="not \\(count, 64\\)"):
            sigma0_papr_db(preambles, phydyas_taps(4, 256), SIGMA0_CFG)

    def test_an_empty_stack_gives_an_empty_array(self):
        got = sigma0_papr_db(np.empty((0, 64)), phydyas_taps(4, 256), SIGMA0_CFG)
        assert got.shape == (0,)


# A small configuration: sharding tests need many calls, not big ones.
SMALL_CFG = FrameConfig(subcarriers=16, guards=1, oversample=2, rng_seed=2**63 + 9)
SMALL_FILT = phydyas_taps(4, SMALL_CFG.samples_per_symbol)
SMALL_PREAMBLE = golay_seed(16)
needs_two_cpus = pytest.mark.skipif(cpu_count() < 2, reason="sharding needs two CPUs")


@contextmanager
def deadline(seconds: int):
    """Raise TimeoutError in the test if the block has not ended in time."""
    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")
    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def small_papr(trials, chunk=4, first_trial=0):
    with mock.patch.object(analysis, "DEFAULT_CHUNK", chunk):
        return papr_samples(SMALL_PREAMBLE, SMALL_FILT, SMALL_CFG, trials,
                            first_trial=first_trial)


class TestSharding:
    """Trial ranges of two or more chunks run in worker processes; the
    output is the single-process output bit for bit."""

    @settings(max_examples=20, deadline=None)
    @given(trials=st.integers(1, 60), chunk=st.integers(1, 16),
           first_trial=st.integers(0, 2**48 - 61), shard_cap=st.sampled_from([4, 1 << 16]))
    def test_range_equals_single_chunk_calls(self, trials, chunk, first_trial, shard_cap):
        # shard_cap 4 cuts the range into many rounds of small shards.
        def single_chunk_calls(first):
            return np.concatenate([small_papr(min(chunk, trials - lo), chunk, first + lo)
                                   for lo in range(0, trials, chunk)])

        from_zero = single_chunk_calls(0)
        # Sample values among the thresholds: a tie does not exceed.
        thresholds = np.concatenate([np.linspace(-3.0, 9.0, 25), from_zero[:3]])
        with mock.patch.object(analysis, "MAX_SHARD_TRIALS", shard_cap), \
                mock.patch.object(analysis, "DEFAULT_CHUNK", chunk), \
                mock.patch.object(analysis, "THRESHOLDS_DB", thresholds):
            whole = papr_samples(SMALL_PREAMBLE, SMALL_FILT, SMALL_CFG, trials,
                                 first_trial=first_trial)
            res = monte_carlo_ccdf(SMALL_PREAMBLE, SMALL_FILT, SMALL_CFG, trials)
        assert np.array_equal(whole, single_chunk_calls(first_trial))
        assert res.exceed_count.tolist() == np.sum(from_zero[:, None] > thresholds,
                                                   axis=0).tolist()
        assert res.max_papr_db == float(np.max(from_zero))

    @needs_two_cpus
    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
    def test_one_cpu_child_gives_the_same_bits(self):
        code = (
            "import os\n"
            "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "from fbmc_preamble.analysis import engine_processes, papr_samples\n"
            "from fbmc_preamble.prototype import make_filter\n"
            "from fbmc_preamble.sequences import sparse_golay_preamble\n"
            "from fbmc_preamble.waveform import FrameConfig\n"
            "cfg = FrameConfig(subcarriers=64, guards=2, oversample=4, rng_seed=5)\n"
            "filt = make_filter('hermite', cfg.samples_per_symbol)\n"
            "v = papr_samples(sparse_golay_preamble(64, 16), filt, cfg, 200, first_trial=3)\n"
            "print(engine_processes(200), v.tobytes().hex())\n")
        src = os.path.dirname(os.path.dirname(analysis.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=120, check=True).stdout.split()
        cfg = FrameConfig(subcarriers=64, guards=2, oversample=4, rng_seed=5)
        filt = make_filter("hermite", cfg.samples_per_symbol)
        here = papr_samples(sparse_golay_preamble(64, 16), filt, cfg, 200, first_trial=3)
        assert out[0] == "1" and engine_processes(200) >= 2
        assert out[1] == here.tobytes().hex()

    @needs_two_cpus
    def test_worker_shard_past_the_key_range_is_refused_in_the_parent(self):
        # The first shard, [2^48 - 40, 2^48 - 8), is valid; a worker's is not.
        with deadline(60):
            with pytest.raises(FrameError) as info:
                small_papr(64, chunk=16, first_trial=2**48 - 40)
            assert not any("workers.py" in str(entry.path) for entry in info.traceback)
            # The next call still works; its worker computes the last 32 trials.
            values = small_papr(64, chunk=16, first_trial=2**48 - 64)
        assert np.array_equal(values[48:], small_papr(16, chunk=16, first_trial=2**48 - 16))

    @pytest.mark.parametrize("progress", [1, "print", [print]])
    def test_progress_that_is_not_callable_is_refused_before_the_pool(self, progress):
        # 1 ran the first shard and then ended in a bare TypeError.
        with mock.patch.object(analysis.POOL, "run", side_effect=AssertionError), \
                pytest.raises(AnalysisError, match="progress must be None or callable"):
            monte_carlo_ccdf(SMALL_PREAMBLE, SMALL_FILT, SMALL_CFG, 64, progress=progress)

    @pytest.mark.parametrize("bad", ["preamble energy", "filter rate"])
    def test_inputs_are_refused_before_the_pool(self, bad):
        # A shard builds its sampler from the inputs it is sent, so the
        # caller checks them before any shard runs.
        preamble, filt = SMALL_PREAMBLE, SMALL_FILT
        if bad == "preamble energy":
            preamble, match = 2.0 * SMALL_PREAMBLE, "preamble energy 64 != 16"
        else:
            filt, match = phydyas_taps(4, 16), "filter sampled at 16 samples per symbol"
        with mock.patch.object(analysis.POOL, "run", side_effect=AssertionError), \
                pytest.raises(FrameError, match=match):
            papr_samples(preamble, filt, SMALL_CFG, 64)

    def test_worker_exception_is_raised_with_its_type(self):
        small = (SMALL_PREAMBLE, SMALL_FILT, SMALL_CFG)
        with deadline(60):
            with pytest.raises(FrameError, match="trial must be an integer"):
                POOL.run(_papr_db, [(*small, 0, 8, 4), (*small, 2**48 - 4, 8, 4)])
            a, b = POOL.run(_papr_db, [(*small, 0, 8, 4), (*small, 8, 8, 4)])
        assert np.array_equal(np.concatenate([a, b]), small_papr(16))

    def test_dead_worker_raises_and_is_replaced(self):
        small = (SMALL_PREAMBLE, SMALL_FILT, SMALL_CFG)
        calls = [(*small, 0, 8, 4), (*small, 8, 8, 4)]
        with deadline(60):
            expected = POOL.run(_papr_db, calls)
            proc = POOL._workers[0]
            proc.kill()
            proc.wait()
            with pytest.raises(ChildProcessError, match="engine worker"):
                POOL.run(_papr_db, calls)
            again = POOL.run(_papr_db, calls)
        assert POOL._workers[0].pid != proc.pid
        assert all(np.array_equal(x, y) for x, y in zip(expected, again))

    @needs_two_cpus
    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_starts_workers_of_its_own(self):
        # The parent's workers answer the parent: a child that wrote to them
        # would mix its calls up with the parent's.
        expected = small_papr(64, first_trial=1000)
        parent_workers = {proc.pid for proc in POOL._workers}
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:
            try:
                signal.alarm(60)
                os.close(read_end)
                values = small_papr(64, first_trial=1000)
                with os.fdopen(write_end, "wb") as out:
                    pickle.dump((values, [proc.pid for proc in POOL._workers]), out)
            finally:
                os._exit(0)
        os.close(write_end)
        with deadline(60):
            with os.fdopen(read_end, "rb") as child_out:
                values, child_workers = pickle.load(child_out)
            os.waitpid(pid, 0)
        assert parent_workers and child_workers
        assert not parent_workers & set(child_workers)
        assert np.array_equal(values, expected)

    def test_threads_share_the_workers_without_mixing_calls(self):
        # More threads than CPUs, each sharding its own ranges at once.
        firsts = [1000 * k for k in range(12)]
        expected = {f: small_papr(40, first_trial=f) for f in firsts}
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        # Patched once for all threads: a patch per thread could restore
        # another thread's value on exit.
        try:
            with ThreadPoolExecutor(max_workers=4) as pool, \
                    mock.patch.object(analysis, "DEFAULT_CHUNK", 4):
                futures = {f: pool.submit(papr_samples, SMALL_PREAMBLE, SMALL_FILT,
                                          SMALL_CFG, 40, f) for f in firsts}
                got = {f: fut.result(timeout=60) for f, fut in futures.items()}
        finally:
            sys.setswitchinterval(interval)
        assert all(np.array_equal(got[f], expected[f]) for f in firsts)

    @needs_two_cpus
    def test_pipe_opened_before_the_workers_reads_eof(self):
        # A reader of a pipe the caller opened must see EOF once the caller
        # closes its end: no worker may hold a copy of that end.
        POOL.close()
        read_end, write_end = os.pipe()
        os.set_inheritable(write_end, True)
        try:
            small_papr(64)
            assert POOL._workers
            os.close(write_end)
            readable, _, _ = select.select([read_end], [], [], 30)
            assert readable and os.read(read_end, 1) == b""
        finally:
            os.close(read_end)
