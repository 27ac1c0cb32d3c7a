import dataclasses
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fbmc_preamble.analysis import papr_samples
from fbmc_preamble.prototype import hermite_taps, make_filter, phydyas_taps
from fbmc_preamble.sequences import golay_seed, sparse_golay_preamble
from fbmc_preamble.waveform import (FrameConfig, FrameError, build_frame, carrier_phase,
                                    checked_preamble, slot_data, synthesize, tap_pairs,
                                    transmultiplexer_response)
from lookup_reference import transmultiplexer_response as reference_response


def small_cfg(**kw) -> FrameConfig:
    kw.setdefault("subcarriers", 16)
    kw.setdefault("guards", 3)
    kw.setdefault("oversample", 4)
    kw.setdefault("rng_seed", 42)
    return FrameConfig(**kw)


class TestFrameConfig:
    def test_layout_counts(self):
        cfg = small_cfg(guards=3)
        assert cfg.total_slots == 31
        assert len(cfg.data_slots()) == 24
        n = cfg.preamble_slot
        assert cfg.data_slots() == [*range(n - 15, n - 3), *range(n + 4, n + 16)]
        cfg = small_cfg(guards=0)
        n = cfg.preamble_slot
        assert cfg.data_slots() == [*range(n - 12, n), *range(n + 1, n + 13)]

    def test_preamble_slot_defaults_even(self):
        assert small_cfg(guards=3).preamble_slot % 2 == 0
        assert small_cfg(guards=2).preamble_slot % 2 == 0

    def test_validation(self):
        with pytest.raises(FrameError):
            small_cfg(guards=-1)
        with pytest.raises(FrameError):
            small_cfg(oversample=1)
        # Slot 13 is one short of the guards and the data span to its left.
        with pytest.raises(FrameError, match="no room"):
            FrameConfig(subcarriers=16, guards=2, preamble_slot=13)

    def test_rejects_odd_samples_per_symbol(self):
        # Slots start every half symbol, which an odd spt puts between samples.
        with pytest.raises(FrameError, match="even"):
            small_cfg(subcarriers=13, oversample=3)
        assert small_cfg(subcarriers=13, oversample=2).samples_per_symbol == 26

    @pytest.mark.parametrize("name, value", [("subcarriers", 16.0), ("guards", "3"),
                                             ("guards", True),
                                             ("oversample", np.float64(4)),
                                             ("preamble_slot", 30.0), ("rng_seed", 1.5)])
    def test_rejects_non_integer_fields(self, name, value):
        with pytest.raises(FrameError, match=name):
            small_cfg(**{name: value})
        # numpy integers are integers, stored as Python ints
        cfg = small_cfg(**{name: np.int64(30 if name == "preamble_slot" else 16)})
        assert type(getattr(cfg, name)) is int

    def test_json_roundtrip(self):
        cfg = small_cfg()
        assert FrameConfig(**cfg.to_json_dict()) == cfg
        assert list(cfg.to_json_dict()) == ["subcarriers", "guards", "preamble_slot",
                                            "oversample", "rng_seed"]


class TestBuildFrame:
    def test_column_energies(self):
        cfg = small_cfg()
        symbols = build_frame(cfg, golay_seed(16))
        energies = np.sum(np.abs(symbols) ** 2, axis=0)
        n_col = cfg.preamble_slot - cfg.first_slot
        # guards are exactly zero, every other column carries energy M
        for p in range(1, cfg.guards + 1):
            assert energies[n_col - p] == 0.0
            assert energies[n_col + p] == 0.0
        energies[n_col - cfg.guards: n_col + cfg.guards + 1] = cfg.subcarriers
        assert np.allclose(energies, cfg.subcarriers)

    def test_deterministic(self):
        cfg = small_cfg()
        a = build_frame(cfg, golay_seed(16), trial=5)
        b = build_frame(cfg, golay_seed(16), trial=5)
        assert np.array_equal(a, b)
        c = build_frame(cfg, golay_seed(16), trial=6)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("cfg", [small_cfg(), FrameConfig(subcarriers=512, guards=2)],
                             ids=["small", "M512-G2"])
    def test_each_slot_sits_where_the_frame_says(self, cfg):
        m, trial = cfg.subcarriers, 3
        preamble = np.exp(2j * np.pi * np.random.default_rng(m).random(m))
        symbols = build_frame(cfg, preamble, trial=trial)
        assert symbols.shape == (m, cfg.total_slots)
        data = []
        for col, slot in enumerate(range(cfg.first_slot, cfg.first_slot + cfg.total_slots)):
            got = symbols[:, col].tobytes()
            if slot == cfg.preamble_slot:
                assert got == checked_preamble(preamble, m).tobytes()
            elif abs(slot - cfg.preamble_slot) <= cfg.guards:
                assert got == bytes(16 * m)          # +0.0 in both parts
            else:
                assert got == slot_data(cfg, trial, slot).astype(complex).tobytes()
                data.append(slot)
        assert data == cfg.data_slots()

    def test_rejects_bad_preamble(self):
        cfg = small_cfg()
        with pytest.raises(FrameError):
            build_frame(cfg, np.ones(8))
        with pytest.raises(FrameError):
            build_frame(cfg, 2.0 * golay_seed(16))  # energy 4M

    def test_slot_data_is_counter_based(self):
        cfg = small_cfg()
        a = slot_data(cfg, trial=3, slot=7)
        assert np.array_equal(a, slot_data(cfg, trial=3, slot=7))
        assert set(np.unique(a)) <= {-1.0, 1.0}
        assert not np.array_equal(a, slot_data(cfg, trial=3, slot=8))
        assert not np.array_equal(a, slot_data(cfg, trial=4, slot=7))


    def test_slot_data_writes_to_out(self):
        cfg = small_cfg()
        trials, slots = np.arange(3), np.array([[5], [9]])
        out = np.full((2, 3, 16), np.nan)
        assert slot_data(cfg, trials, slots, out=out) is out
        assert np.array_equal(out, slot_data(cfg, trials, slots))

    @pytest.mark.parametrize("out", [np.empty((2, 3, 15)), np.empty((2, 3, 16), np.float32),
                                     np.empty((2, 16, 3)).transpose(0, 2, 1)])
    def test_slot_data_rejects_bad_out(self, out):
        with pytest.raises(FrameError, match="out"):
            slot_data(small_cfg(), np.arange(3), np.array([[5], [9]]), out=out)

    def test_slot_data_refuses_a_read_only_out_before_drawing(self):
        # It ended in numpy's bare "output array is read-only", after every draw.
        out = np.empty((2, 3, 16))
        out.flags.writeable = False
        with mock.patch.object(np.random, "Philox", side_effect=AssertionError("drew")):
            with pytest.raises(FrameError, match="writeable"):
                slot_data(small_cfg(), np.arange(3), np.array([[5], [9]]), out=out)


class TestEmptyCellSet:
    """No cell to draw, as where no data slot reaches a sigma = 0 window:
    slot_data checks its keys and out as for any other set, and builds no
    generator."""

    NO_SLOTS = np.empty((0, 1), dtype=np.int64)

    @pytest.fixture(autouse=True)
    def no_generator(self):
        with mock.patch.object(np.random, "Philox", side_effect=AssertionError("drew")):
            yield

    def test_returns_the_broadcast_shape(self):
        cfg = small_cfg()
        assert slot_data(cfg, np.arange(3), self.NO_SLOTS).shape == (0, 3, 16)
        assert slot_data(cfg, 4, np.arange(0)).shape == (0, 16)
        out = np.empty((0, 3, 16))
        assert slot_data(cfg, np.arange(3), self.NO_SLOTS, out=out) is out

    @pytest.mark.parametrize("trial, slot, match", [
        (np.array([-1]), NO_SLOTS, "trial"),
        (1 << 48, NO_SLOTS, "trial"),
        (np.array([0.0]), NO_SLOTS, "trial"),
        (np.arange(3), np.empty((0, 1)), "slot"),
    ])
    def test_refuses_an_out_of_range_key(self, trial, slot, match):
        with pytest.raises(FrameError, match=match):
            slot_data(small_cfg(), trial, slot)

    @pytest.mark.parametrize("out", [np.empty((0, 3, 15)), np.empty((0, 3, 16), np.float32),
                                     np.empty((3, 16))])
    def test_refuses_a_wrong_out(self, out):
        with pytest.raises(FrameError, match="out"):
            slot_data(small_cfg(), np.arange(3), self.NO_SLOTS, out=out)

    @pytest.mark.parametrize("name, value", [("phydyas4", 1.6349118786259993),
                                             ("hermite", 2.672985405756094)])
    def test_sigma0_papr_is_pinned(self, name, value):
        # At G = 6 no data slot reaches the window; the floats are those the
        # engine gave when it still drew the empty cell set.
        cfg = FrameConfig(subcarriers=512, guards=6, oversample=4, rng_seed=3)
        papr = papr_samples(sparse_golay_preamble(512, 32),
                            make_filter(name, cfg.samples_per_symbol), cfg, trials=2)
        assert papr.tolist() == [value, value]


class TestTapPairs:
    @pytest.mark.parametrize("name", ["phydyas3", "phydyas4", "hermite"])
    @pytest.mark.parametrize("spt", [26, 2048])
    def test_equals_repeat_bit_for_bit(self, name, spt):
        taps = make_filter(name, spt).taps
        pairs = tap_pairs(taps)
        assert pairs.dtype == np.float64 and pairs.flags.c_contiguous
        assert pairs.tobytes() == np.repeat(taps, 2).tobytes()


class TestCarrierPhase:
    """The phase, read from its period table, against the formula it
    replaced."""

    J = np.array([1.0 + 0j, 1j, -1.0 + 0j, -1j])
    SLOTS = np.arange(-9, 41)
    STARTS = np.arange(-5, 21)

    @pytest.mark.parametrize("m_count", [2, 3, 8, 512])
    def test_equals_the_formula(self, m_count):
        m = np.arange(m_count)
        for slot in self.SLOTS.tolist():
            for start in self.STARTS.tolist():
                expected = self.J[(m + slot + 2 * m * start) % 4]
                assert carrier_phase(m_count, slot, start).tobytes() == expected.tobytes()
        slot, start = self.SLOTS[:, None], self.STARTS
        got = carrier_phase(m_count, slot, start)
        assert got.shape == (len(self.SLOTS), len(self.STARTS), m_count)
        expected = self.J[(m + slot[..., None] + 2 * m * start[..., None]) % 4]
        assert got.tobytes() == expected.tobytes()
        assert np.array_equal(carrier_phase(m_count, self.SLOTS),
                              self.J[(m + self.SLOTS[:, None]) % 4])

    def test_result_is_read_only(self):
        for phase in (carrier_phase(8, 3, 5), carrier_phase(8, self.SLOTS, self.SLOTS)):
            with pytest.raises(ValueError):
                phase[0] = 0.0


def one_symbol(m_count, m, value=1.0):
    symbols = np.zeros((m_count, 1), dtype=complex)
    symbols[m, 0] = value
    return symbols


def per_column_oracle(symbols, filt, cfg):
    """synthesize as it was before one IFFT served every column: for each
    nonzero column in order, its own carrier phase, a one-row IFFT and the
    float-view product of the taps and the sum, added over the whole
    K-interval span."""
    spt = cfg.samples_per_symbol
    m_count, n_cols = symbols.shape
    k_len = filt.overlap * spt
    out = np.zeros((n_cols - 1) * spt // 2 + k_len, dtype=complex)
    pairs = np.repeat(filt.taps, 2)
    for col in np.flatnonzero(np.any(symbols, axis=0)):
        slot = cfg.first_slot + col
        coeff = np.zeros((1, spt), dtype=complex)
        coeff[0, :m_count] = symbols[:, col] * carrier_phase(m_count, slot, slot)
        base = np.fft.ifft(coeff, axis=1, norm="forward")
        offset = col * spt // 2
        span = out[offset: offset + k_len].view(float)
        span += np.tile(base.view(float)[0], filt.overlap) * pairs
    return out


class TestSynthesize:
    @settings(max_examples=40, deadline=None)
    @given(m=st.sampled_from([7, 12, 13, 16, 24, 33, 64]), oversample=st.integers(2, 6),
           name=st.sampled_from(["phydyas3", "phydyas4", "hermite"]),
           guards=st.integers(0, 4), seed=st.integers(0, 2**32),
           kept=st.lists(st.booleans(), min_size=33, max_size=33))
    # A frame with every column zeroed.
    @example(m=13, oversample=2, name="hermite", guards=1, seed=0, kept=[False] * 33)
    def test_equals_per_column_oracle_bit_for_bit(self, m, oversample, name, guards, seed,
                                                  kept):
        # Odd M with an even oversample, and oversample 3, 5 or 6, give spt
        # such as 26, 42 or 60 that are not powers of two.
        assume(m * oversample % 2 == 0)
        cfg = FrameConfig(subcarriers=m, guards=guards, oversample=oversample, rng_seed=seed)
        filt = make_filter(name, cfg.samples_per_symbol)
        preamble = np.exp(2j * np.pi * np.random.default_rng(seed).random(m))
        symbols = build_frame(cfg, preamble, trial=seed)
        # Zeroed columns, beside the guards, between nonzero ones.
        symbols[:, ~np.array(kept[:cfg.total_slots])] = 0.0
        got = synthesize(symbols, filt, cfg).samples
        assert got.tobytes() == per_column_oracle(symbols, filt, cfg).tobytes()

    @pytest.mark.parametrize("name", ["phydyas4", "hermite"])
    @pytest.mark.parametrize("guards", [1, 2, 3])
    @pytest.mark.parametrize("trial", [0, 7])
    def test_paper_frames_equal_per_column_oracle(self, name, guards, trial):
        # The frames of the paper's configs, at M = 512 and oversample 4,
        # which the hypothesis test above does not reach.
        cfg = FrameConfig(subcarriers=512, guards=guards, oversample=4)
        filt = make_filter(name, cfg.samples_per_symbol)
        symbols = build_frame(cfg, sparse_golay_preamble(512, 32), trial=trial)
        got = synthesize(symbols, filt, cfg).samples
        assert got.tobytes() == per_column_oracle(symbols, filt, cfg).tobytes()

    def test_array_likes_and_orders_give_the_same_bytes(self):
        cfg = small_cfg()
        filt = make_filter("hermite", cfg.samples_per_symbol)
        symbols = build_frame(cfg, golay_seed(16), trial=3)
        expected = synthesize(symbols, filt, cfg).samples.tobytes()
        # A list ended in AttributeError: 'list' object has no attribute 'ndim'.
        for grid in (np.asfortranarray(symbols), np.ascontiguousarray(symbols),
                     symbols.tolist()):
            assert synthesize(grid, filt, cfg).samples.tobytes() == expected
        real = symbols.real.astype(np.int8)
        as_complex = synthesize(real.astype(complex), filt, cfg).samples.tobytes()
        assert synthesize(real, filt, cfg).samples.tobytes() == as_complex

    @pytest.mark.parametrize("dtype", [object, "U1", "M8[s]"])
    def test_rejects_grid_of_another_dtype(self, dtype):
        # An object grid ended in a bare UFuncTypeError.
        cfg = small_cfg()
        symbols = np.ones((16, 31)).astype(dtype)
        with pytest.raises(FrameError, match="dtype"):
            synthesize(symbols, phydyas_taps(4, cfg.samples_per_symbol), cfg)

    @pytest.mark.parametrize("shape", [(17, 31), (15, 31), (16,), (16, 31, 1), (16, 0)])
    def test_rejects_grid_without_one_row_per_subcarrier(self, shape):
        # (16, 0) returned (0 - 1) * spt / 2 + K * spt zero samples before.
        cfg = small_cfg()
        with pytest.raises(FrameError, match="symbols of shape"):
            synthesize(np.ones(shape, dtype=complex), phydyas_taps(4, cfg.samples_per_symbol),
                       cfg)

    def test_repeated_calls_give_the_same_bytes(self):
        cfg = small_cfg()
        filt = phydyas_taps(4, cfg.samples_per_symbol)
        symbols = build_frame(cfg, golay_seed(16))
        first = synthesize(symbols, filt, cfg).samples
        assert first.tobytes() == synthesize(symbols, filt, cfg).samples.tobytes()

    @pytest.mark.parametrize("name", ["phydyas4", "hermite"])
    def test_fresh_used_and_unpickled_filters_agree(self, name):
        # A filter holds its taps alone, so neither use nor a pickle (an
        # engine worker's copy) can change what it gives.
        cfg = small_cfg()
        preamble, symbols = golay_seed(16), build_frame(cfg, golay_seed(16))

        def outputs(filt):
            return (papr_samples(preamble, filt, cfg, 20).tobytes(),
                    synthesize(symbols, filt, cfg).samples.tobytes())

        used = make_filter(name, cfg.samples_per_symbol)
        outputs(used)
        copy = pickle.loads(pickle.dumps(used))
        # Straight from a builder: make_filter would return `used` again.
        fresh = (hermite_taps(cfg.samples_per_symbol) if name == "hermite"
                 else phydyas_taps(4, cfg.samples_per_symbol))
        assert outputs(fresh) == outputs(used) == outputs(copy)

    def test_single_dc_symbol_is_the_filter(self):
        cfg = small_cfg(guards=0)
        filt = phydyas_taps(4, cfg.samples_per_symbol)
        assert cfg.first_slot == 0
        sig = synthesize(one_symbol(cfg.subcarriers, 0), filt, cfg)
        assert np.allclose(sig.samples.imag, 0.0, atol=1e-12)
        assert np.allclose(sig.samples.real, filt.taps, atol=1e-12)
        assert sig.times[np.argmax(np.abs(sig.samples))] == pytest.approx(2.0)

    def test_single_subcarrier_modulus(self):
        cfg = small_cfg(guards=0)
        filt = phydyas_taps(4, cfg.samples_per_symbol)
        sig = synthesize(one_symbol(cfg.subcarriers, 1), filt, cfg)
        # unimodular subcarrier factor: |s| = |g| (g itself dips negative)
        assert np.allclose(np.abs(sig.samples), np.abs(filt.taps), atol=1e-10)

    def test_linearity(self):
        cfg = small_cfg()
        filt = hermite_taps(cfg.samples_per_symbol)
        g1 = build_frame(cfg, golay_seed(16), trial=0)
        g2 = build_frame(cfg, golay_seed(16), trial=1)
        total = g1 + g2
        s1 = synthesize(g1, filt, cfg).samples
        s2 = synthesize(g2, filt, cfg).samples
        s12 = synthesize(total, filt, cfg).samples
        scale = np.max(np.abs(s12))
        assert np.max(np.abs(s12 - (s1 + s2))) < 1e-10 * scale

    def test_two_slot_shift_negates_signal(self):
        # With the absolute-time carrier of the synthesis basis, moving every
        # symbol two half-slots later shifts the waveform by T and flips its
        # sign (j^2 = -1, and e^{j2pi m T} = 1).
        cfg = small_cfg()
        filt = phydyas_taps(4, cfg.samples_per_symbol)
        symbols = build_frame(cfg, golay_seed(16))
        shifted = dataclasses.replace(cfg, preamble_slot=cfg.preamble_slot + 2)
        assert shifted.first_slot == cfg.first_slot + 2
        s0 = synthesize(symbols, filt, cfg).samples
        s2 = synthesize(symbols, filt, shifted).samples
        assert np.max(np.abs(s2 + s0)) < 1e-10 * np.max(np.abs(s0))

    def test_one_slot_shift_covariance(self):
        # One half-slot adds a factor j and, because the carrier phase is
        # referenced to absolute time, modulates subcarrier m by (-1)^m.
        cfg = small_cfg()
        filt = phydyas_taps(4, cfg.samples_per_symbol)
        symbols = build_frame(cfg, golay_seed(16))
        shifted = dataclasses.replace(cfg, preamble_slot=cfg.preamble_slot + 1)
        assert shifted.first_slot == cfg.first_slot + 1
        signs = np.where(np.arange(cfg.subcarriers) % 2 == 0, 1.0, -1.0)
        s_shift = synthesize(symbols, filt, shifted).samples
        s_mod = 1j * synthesize(symbols * signs[:, None], filt, cfg).samples
        assert np.max(np.abs(s_shift - s_mod)) < 1e-10 * np.max(np.abs(s_mod))

    def test_refuses_filter_at_another_rate(self):
        cfg = small_cfg()
        filt = phydyas_taps(4, 32)  # wrong rate on purpose
        with pytest.raises(FrameError, match="filter sampled at 32 samples per symbol, "
                                             "the frame at 64"):
            synthesize(build_frame(cfg, golay_seed(16)), filt, cfg)


class TestTransmultiplexer:
    @pytest.mark.parametrize("make", [phydyas_taps, lambda k, L: hermite_taps(L)])
    def test_diagonal_is_unity(self, make):
        filt = make(4, 256)
        for m, n in [(0, 0), (2, 1), (5, 3)]:
            z = transmultiplexer_response(filt, m, n, m, n)
            assert z.real == pytest.approx(1.0, abs=1e-6)

    def test_disjoint_supports(self):
        filt = phydyas_taps(4, 64)
        assert transmultiplexer_response(filt, 0, 0, 0, 8) == 0.0

    @pytest.mark.parametrize("name,builder", [("phydyas", lambda L: phydyas_taps(4, L)),
                                              ("hermite", lambda L: hermite_taps(L))])
    def test_real_field_orthogonality_probe(self, name, builder):
        # 16-pair probe lattice with |dn| <= 1; the real parts of the
        # transmultiplexer response vanish there for both filters.
        filt = builder(512)
        probes = [(m, n) for m in range(8) for n in range(2)]
        worst = 0.0
        for m, n in probes:
            for p, q in probes:
                z = transmultiplexer_response(filt, m, n, p, q)
                delta = 1.0 if (m, n) == (p, q) else 0.0
                worst = max(worst, abs(z.real - delta))
        assert worst < 1e-4

    @pytest.mark.parametrize("name", ["phydyas3", "phydyas4", "hermite"])
    @pytest.mark.parametrize("L", [8, 64, 512])
    def test_equals_array_time_reference(self, name, L):
        # Taps indexed on the filter's grid against slot_signal's pulses at
        # the sample times: the same bits, once -0 is folded into +0.
        filt = make_filter(name, L)
        for m, n in [(0, 0), (1, 3), (5, 1), (2, 6)]:
            for p in range(4):
                for q in (-1, 0, 2, 3, 7):
                    got = transmultiplexer_response(filt, m, n, p, q) + 0.0
                    want = reference_response(filt, m, n, p, q) + 0.0
                    assert (got.real, got.imag) == (want.real, want.imag)
                    assert np.array([got]).tobytes() == np.array([want]).tobytes()

    def test_negative_subcarrier(self):
        # m = -1 used to read the last row of an identity matrix: subcarrier
        # 0's pulse, so (-1, 0, 0, 0) gave 1.
        filt = make_filter("phydyas4", 512)
        assert abs(transmultiplexer_response(filt, -1, 0, 0, 0).real) < 1e-4
        assert transmultiplexer_response(filt, -1, 0, -1, 0).real == pytest.approx(1.0,
                                                                                   abs=1e-4)

    @pytest.mark.parametrize("index", [1.5, 1.0, True, "1", None, np.float64(1.0)])
    def test_refuses_an_index_that_is_not_an_integer(self, index):
        filt = make_filter("phydyas4", 64)
        for pos in range(4):
            args = [0, 0, 0, 0]
            args[pos] = index
            with pytest.raises(FrameError, match=f"^{'mnpq'[pos]} must be an integer, "):
                transmultiplexer_response(filt, *args)
        assert transmultiplexer_response(filt, np.int64(1), 0, 1, np.int32(0)) == (
            transmultiplexer_response(filt, 1, 0, 1, 0))

    def test_refuses_an_odd_rate(self):
        # At L = 65 odd slots start between samples; the diagonal read 0.99994.
        with pytest.raises(FrameError, match="65 samples per symbol must be even"):
            transmultiplexer_response(make_filter("phydyas4", 65), 0, 1, 0, 1)
