import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fbmc_preamble.prototype import hermite_taps, make_filter, phydyas_taps
from fbmc_preamble.sequences import golay_seed
from fbmc_preamble.waveform import (FbmcGrid, FrameConfig, FrameError, build_frame,
                                    carrier_phase, slot_data, synthesize,
                                    transmultiplexer_response)


def small_cfg(**kw) -> FrameConfig:
    kw.setdefault("subcarriers", 16)
    kw.setdefault("guards", 3)
    kw.setdefault("oversample", 4)
    kw.setdefault("rng_seed", 42)
    return FrameConfig(**kw)


class TestFrameConfig:
    def test_layout_counts(self):
        cfg = small_cfg(guards=3, data_span=12)
        assert cfg.total_slots == 31
        assert len(cfg.data_slots()) == 24
        n = cfg.preamble_slot
        assert cfg.data_slots() == [*range(n - 15, n - 3), *range(n + 4, n + 16)]
        cfg = small_cfg(guards=0, data_span=12)
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
        with pytest.raises(FrameError):
            small_cfg(data_span=4)

    def test_rejects_odd_samples_per_symbol(self):
        # Slots start every half symbol, which an odd spt puts between samples.
        with pytest.raises(FrameError, match="even"):
            small_cfg(subcarriers=13, oversample=3)
        assert small_cfg(subcarriers=13, oversample=2).samples_per_symbol == 26

    @pytest.mark.parametrize("name, value", [("subcarriers", 16.0), ("guards", "3"),
                                             ("guards", True), ("data_span", 12.0),
                                             ("oversample", np.float64(4)),
                                             ("preamble_slot", 30.0), ("rng_seed", 1.5)])
    def test_rejects_non_integer_fields(self, name, value):
        with pytest.raises(FrameError, match=name):
            small_cfg(**{name: value})
        # numpy integers are integers
        assert small_cfg(**{name: np.int64(30 if name == "preamble_slot" else 16)})

    def test_json_roundtrip(self):
        cfg = small_cfg()
        assert FrameConfig(**cfg.to_json_dict()) == cfg


class TestBuildFrame:
    def test_column_energies(self):
        cfg = small_cfg()
        grid = build_frame(cfg, golay_seed(16))
        energies = np.sum(np.abs(grid.symbols) ** 2, axis=0)
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
        assert np.array_equal(a.symbols, b.symbols)
        c = build_frame(cfg, golay_seed(16), trial=6)
        assert not np.array_equal(a.symbols, c.symbols)

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


def one_symbol_grid(m_count, m, slot, value=1.0):
    symbols = np.zeros((m_count, 1), dtype=complex)
    symbols[m, 0] = value
    return FbmcGrid(symbols=symbols, first_slot=slot)


def per_column_oracle(grid, filt, cfg):
    """synthesize as it was before one IFFT served every column: for each
    nonzero column in order, its own carrier phase, a one-row IFFT and the
    float-view product of the taps and the sum, added over the whole
    K-interval span."""
    spt = cfg.samples_per_symbol
    filt = filt.resample(spt)
    m_count, n_cols = grid.symbols.shape
    k_len = filt.overlap * spt
    out = np.zeros((n_cols - 1) * spt // 2 + k_len, dtype=complex)
    pairs = np.repeat(filt.taps, 2)
    exact = spt & (spt - 1) == 0
    for col in np.flatnonzero(np.any(grid.symbols, axis=0)):
        slot = grid.first_slot + col
        coeff = np.zeros((1, spt), dtype=complex)
        coeff[0, :m_count] = grid.symbols[:, col] * carrier_phase(m_count, slot, slot)
        base = np.fft.ifft(coeff, axis=1, norm="forward" if exact else "backward")
        if not exact:
            base *= spt
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
        grid = build_frame(cfg, preamble, trial=seed)
        # Zeroed columns, beside the guards, between nonzero ones.
        grid.symbols[:, ~np.array(kept[:cfg.total_slots])] = 0.0
        got = synthesize(grid, filt, cfg).samples
        assert got.tobytes() == per_column_oracle(grid, filt, cfg).tobytes()

    @pytest.mark.parametrize("shape", [(17, 31), (15, 31), (16,), (16, 31, 1)])
    def test_rejects_grid_without_one_row_per_subcarrier(self, shape):
        cfg = small_cfg()
        grid = FbmcGrid(symbols=np.ones(shape, dtype=complex), first_slot=cfg.first_slot)
        with pytest.raises(FrameError, match="grid of shape"):
            synthesize(grid, phydyas_taps(4, cfg.samples_per_symbol), cfg)

    def test_pairs_are_built_once_per_filter(self):
        cfg = small_cfg()
        filt = phydyas_taps(4, cfg.samples_per_symbol)
        grid = build_frame(cfg, golay_seed(16))
        first = synthesize(grid, filt, cfg).samples
        pairs = filt.pairs
        assert first.tobytes() == synthesize(grid, filt, cfg).samples.tobytes()
        assert filt.pairs is pairs
        assert np.array_equal(pairs, np.repeat(filt.taps, 2))
        assert not pairs.flags.writeable

    def test_single_dc_symbol_is_the_filter(self):
        cfg = small_cfg(guards=0)
        filt = phydyas_taps(4, cfg.samples_per_symbol)
        sig = synthesize(one_symbol_grid(cfg.subcarriers, 0, 0), filt, cfg)
        assert np.allclose(sig.samples.imag, 0.0, atol=1e-12)
        assert np.allclose(sig.samples.real, filt.taps, atol=1e-12)
        assert sig.times[np.argmax(np.abs(sig.samples))] == pytest.approx(2.0)

    def test_single_subcarrier_modulus(self):
        cfg = small_cfg(guards=0)
        filt = phydyas_taps(4, cfg.samples_per_symbol)
        sig = synthesize(one_symbol_grid(cfg.subcarriers, 1, 0), filt, cfg)
        # unimodular subcarrier factor: |s| = |g| (g itself dips negative)
        assert np.allclose(np.abs(sig.samples), np.abs(filt.taps), atol=1e-10)

    def test_linearity(self):
        cfg = small_cfg()
        filt = hermite_taps(cfg.samples_per_symbol)
        g1 = build_frame(cfg, golay_seed(16), trial=0)
        g2 = build_frame(cfg, golay_seed(16), trial=1)
        total = FbmcGrid(symbols=g1.symbols + g2.symbols, first_slot=g1.first_slot)
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
        grid = build_frame(cfg, golay_seed(16))
        shifted = FbmcGrid(symbols=grid.symbols, first_slot=grid.first_slot + 2)
        s0 = synthesize(grid, filt, cfg).samples
        s2 = synthesize(shifted, filt, cfg).samples
        assert np.max(np.abs(s2 + s0)) < 1e-10 * np.max(np.abs(s0))

    def test_one_slot_shift_covariance(self):
        # One half-slot adds a factor j and, because the carrier phase is
        # referenced to absolute time, modulates subcarrier m by (-1)^m.
        cfg = small_cfg()
        filt = phydyas_taps(4, cfg.samples_per_symbol)
        grid = build_frame(cfg, golay_seed(16))
        shifted = FbmcGrid(symbols=grid.symbols, first_slot=grid.first_slot + 1)
        signs = np.where(np.arange(cfg.subcarriers) % 2 == 0, 1.0, -1.0)
        modulated = FbmcGrid(symbols=grid.symbols * signs[:, None],
                             first_slot=grid.first_slot)
        s_shift = synthesize(shifted, filt, cfg).samples
        s_mod = 1j * synthesize(modulated, filt, cfg).samples
        assert np.max(np.abs(s_shift - s_mod)) < 1e-10 * np.max(np.abs(s_mod))

    def test_resamples_mismatched_filter(self):
        cfg = small_cfg()
        filt = phydyas_taps(4, 32)  # wrong rate on purpose
        grid = build_frame(cfg, golay_seed(16))
        sig = synthesize(grid, filt, cfg)
        assert sig.samples_per_symbol == cfg.samples_per_symbol


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
