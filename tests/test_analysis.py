import json
import math
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from fbmc_preamble import analysis
from fbmc_preamble.analysis import (AnalysisError, AnalysisWindow, CcdfResult,
                                    RicianPointModel, _WindowSampler, average_power,
                                    empirical_mean_power, iapr_exceedance, marcum_q1,
                                    monte_carlo_ccdf, nu_of_t, papr, papr_samples,
                                    sigma2_of_t, signal_at_times, window_start_slot)
from fbmc_preamble.prototype import PrototypeFilter, hermite_taps, make_filter, phydyas_taps
from fbmc_preamble.sequences import golay_seed, sparse_golay_preamble
from fbmc_preamble.waveform import (FrameConfig, FrameError, build_frame, carrier_phase,
                                    slot_data, slot_term, synthesize)
from lookup_reference import filter_lookup, reaching_slots
from lookup_reference import signal_at_times as reference_signal_at_times
from lookup_reference import slot_pulses as reference_pulses


def marcum_q1_quadrature(a: float, b: float) -> float:
    """Independent oracle: adaptive quadrature of the defining integral,
    with the Bessel growth folded into the exponent."""
    if b == 0.0:
        return 1.0
    f = lambda x: x * math.exp(-0.5 * (x - a) ** 2) * special.ive(0, a * x)
    val, _ = integrate.quad(f, b, np.inf, limit=200)
    return val


# RicianPointModel.at_time(...) (nu, sigma) of sparse_golay_preamble(512, 32),
# oversample 4, at the window's start, peak and end: t - nT/2 = 1, 2 and 3.
GOLDEN_RICIAN = {
    ("phydyas4", 1): [(3.3137084989847594, 21.035911811893556),
                      (38.627408482346176, 2.355167142230809),
                      (3.313708498984758, 21.035911811893552)],
    ("phydyas4", 2): [(3.3137084989847594, 8.336091064895905),
                      (38.627408482346176, 0.23765575886505425),
                      (3.313708498984758, 8.336091064896985)],
    ("phydyas4", 3): [(3.3137084989847594, 1.6653546570964253),
                      (38.627408482346176, 4.257811670793643e-06),
                      (3.313708498984758, 1.665354657101869)],
    ("hermite", 1): [(0.8611837084373678, 22.200650195943492),
                     (43.53106060786552, 0.6098148828106733),
                     (0.8611837084373678, 22.200650195943492)],
    ("hermite", 2): [(0.8611837084373678, 4.373849517218255),
                     (43.53106060786552, 0.03248848193478103),
                     (0.8611837084373678, 4.373849530017062)],
    ("hermite", 3): [(0.8611837084373678, 0.4312041739926013),
                     (43.53106060786552, 0.00033460441133566226),
                     (0.8611837084373678, 0.43120430381520275)],
}


def test_golden_rician_points():
    preamble = sparse_golay_preamble(512, 32)
    for (name, guards), expected in GOLDEN_RICIAN.items():
        cfg = FrameConfig(subcarriers=512, guards=guards, oversample=4, rng_seed=0)
        filt = make_filter(name, cfg.samples_per_symbol)
        n = cfg.preamble_slot
        got = [RicianPointModel.at_time(preamble, filt, cfg, (n + k) / 2.0)
               for k in (2, 4, 6)]
        assert [(m.nu, m.sigma) for m in got] == expected, (name, guards)


# The thresholds of bench/workloads.py's rician_model: 0.5 to 4 dB above P_avg.
POINT_ALPHAS = [float(a) for a in 10.0 ** (np.arange(0.5, 4.01, 0.5) / 10.0)]


def test_golden_rician_point_path():
    """nu, sigma and the exceedance at each of POINT_ALPHAS, at 16 times
    across the window, bit for bit (the file says how they were made).  The
    times are off the k/8 grid, where Python's abs of the complex scalar
    would pass for np.abs."""
    golden = json.loads((Path(__file__).parent / "golden_rician_path.json").read_text())
    preamble = sparse_golay_preamble(512, 32)
    for key, rows in golden["points"].items():
        name, guards = key.split(",")
        cfg = FrameConfig(subcarriers=512, guards=int(guards), oversample=4, rng_seed=0)
        filt = make_filter(name, cfg.samples_per_symbol)
        t0 = window_start_slot(cfg.preamble_slot, filt.overlap) / 2.0
        assert len(rows) == 16
        for k, row in enumerate(rows):
            model = RicianPointModel.at_time(preamble, filt, cfg,
                                             t0 + (k + (5 ** 0.5 - 1) / 2) / 8.0)
            got = [model.nu, model.sigma] + [iapr_exceedance(a, model) for a in POINT_ALPHAS]
            assert got == row, (key, k)


def test_point_path_reaches_the_traced_functions(monkeypatch):
    # bench/spans.py times a point through these names; a point that skips
    # one would read 0 there.
    calls = Counter()

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, name, counted)

    for name in ("nu_of_t", "sigma2_of_t", "marcum_q1"):
        count(analysis, name)
    count(PrototypeFilter, "__call__")
    cfg = FrameConfig(subcarriers=512, guards=1, oversample=4, rng_seed=0)
    filt = make_filter("phydyas4", cfg.samples_per_symbol)
    model = RicianPointModel.at_time(sparse_golay_preamble(512, 32), filt, cfg,
                                     cfg.preamble_slot / 2.0 + 1.3)
    assert model.sigma > 0.0
    # The preamble's pulse and at least one data slot's.
    assert calls["nu_of_t"] == calls["sigma2_of_t"] == 1 and calls["__call__"] >= 2
    assert calls["marcum_q1"] == 0
    assert [iapr_exceedance(a, model) for a in POINT_ALPHAS]
    assert calls["marcum_q1"] == len(POINT_ALPHAS)


class TestAveragePower:
    def test_values(self):
        assert average_power(512) == 1024.0
        assert average_power(1) == 2.0

    @pytest.mark.parametrize("subcarriers", [0, True, 2.5, "512"])
    def test_rejects_zero(self, subcarriers):
        # True gave 2.0, 2.5 gave 5.0 and "512" a bare TypeError.
        with pytest.raises(AnalysisError, match="^subcarriers must be an integer >= 1"):
            average_power(subcarriers)

    @pytest.mark.parametrize("n_symbols", [2.5, -5, "x"])
    def test_empirical_mean_power_refuses_a_symbol_count(self, n_symbols):
        # 2.5 and -5 averaged the grid of 24 symbols, "x" ended in a TypeError.
        with pytest.raises(AnalysisError, match="^n_symbols must be an integer >= 1"):
            empirical_mean_power(64, n_symbols=n_symbols)

    def test_empirical_all_data_frame(self):
        # long-run time average of an all-data frame approaches 2M/T
        measured = empirical_mean_power(128, n_symbols=256, seed=3)
        assert measured == pytest.approx(average_power(128), rel=0.01)

    def test_empirical_mean_power_is_pinned(self):
        # Criterion 5's measurement and the one above, to the last bit: a
        # change to the all-data grid or to synthesize moves them.
        assert empirical_mean_power(512, n_symbols=128, seed=1) == 1024.7710144169723
        assert empirical_mean_power(128, n_symbols=256, seed=3) == 256.2254707242391


class TestMarcumQ1:
    def test_b_zero(self):
        assert marcum_q1(3.7, 0.0) == 1.0

    def test_a_zero_is_rayleigh_tail(self):
        for b in (0.5, 1.0, 2.5):
            assert marcum_q1(0.0, b) == pytest.approx(math.exp(-0.5 * b * b), rel=1e-12)

    def test_frozen_value(self):
        # frozen from the quadrature oracle (err < 5e-10)
        assert marcum_q1(1.0, 2.0) == pytest.approx(0.2690120600359, abs=1e-9)

    def test_against_quadrature_grid(self):
        for a in np.linspace(0.0, 6.0, 7):
            for b in np.linspace(0.0, 6.0, 7):
                assert marcum_q1(float(a), float(b)) == pytest.approx(
                    marcum_q1_quadrature(float(a), float(b)), abs=1e-9)

    def test_against_noncentral_chi2(self):
        pairs = [(a, b) for a in (0.3, 1.0, 4.0, 20.0) for b in (0.1, 1.0, 5.0, 25.0)]
        # Near the preamble peak at G = 3, sigma(t) -> 0 and a, b reach about 4e4.
        pairs += [(39201.0, 34588.0), (4e4, 4e4 + 8.0)]
        for a, b in pairs:
            assert marcum_q1(a, b) == pytest.approx(
                float(stats.ncx2.sf(b * b, 2, a * a)), abs=1e-10)

    def test_monotonicity(self):
        grid = np.linspace(0.05, 6.0, 25)
        for b in (0.5, 2.0, 4.0):
            vals = [marcum_q1(float(a), b) for a in grid]
            assert all(y >= x - 1e-12 for x, y in zip(vals, vals[1:]))
        for a in (0.5, 2.0, 4.0):
            vals = [marcum_q1(a, float(b)) for b in grid]
            assert all(y <= x + 1e-12 for x, y in zip(vals, vals[1:]))

    def test_rejects_invalid(self):
        with pytest.raises(AnalysisError):
            marcum_q1(-1.0, 1.0)
        with pytest.raises(AnalysisError):
            marcum_q1(float("nan"), 1.0)

    def test_non_finite_special_function_raises(self, monkeypatch):
        monkeypatch.setattr(analysis, "_chndtr", lambda x, df, nc: math.nan)
        with pytest.raises(FloatingPointError):
            marcum_q1(1.0, 2.0)

    def test_scalar_chndtr_equals_ufunc(self):
        # The scalar Cython chndtr runs the ufunc's C routine: same bits on a
        # log grid of a and b, NaN cells included.
        values = np.concatenate([[0.0, 5e-324], np.logspace(-12, 8, 401)])
        a, b = np.meshgrid(values, values, indexing="ij")
        scalar = np.array([analysis._chndtr(y * y, 2.0, x * x)
                           for x, y in zip(a.ravel().tolist(), b.ravel().tolist())])
        ufunc = special.chndtr(b * b, 2, a * a).ravel()
        assert np.isnan(ufunc).any()
        assert same_bits(scalar, ufunc)

    @pytest.mark.parametrize("nu, sigma, name", [(1.0, 5e-324, "a"), (1e300, 1e-10, "a"),
                                                 (0.0, 5e-324, "b")])
    def test_exceedance_refuses_overflowing_arguments(self, nu, sigma, name):
        # a = nu/sigma or b = sqrt(alpha P_avg)/sigma overflows to inf.
        model = RicianPointModel(t=0.0, nu=nu, sigma=sigma, p_avg=1024.0)
        with pytest.raises(AnalysisError, match=f"^{name} must be finite and >= 0$"):
            iapr_exceedance(2.0, model)


class TestNuSigma:
    def setup_method(self):
        self.cfg = FrameConfig(subcarriers=64, guards=2, oversample=4, rng_seed=9)
        self.filt = phydyas_taps(4, self.cfg.samples_per_symbol)
        self.preamble = golay_seed(64)

    def test_zero_preamble(self):
        n = self.cfg.preamble_slot
        t = np.linspace((n + 2) / 2, (n + 6) / 2, 17)
        assert all(nu_of_t(np.zeros(64), self.filt, self.cfg, x) == 0.0 for x in t.tolist())

    def test_matches_preamble_only_synthesis(self):
        cfg, n = self.cfg, self.cfg.preamble_slot
        symbols = np.zeros((64, cfg.total_slots), dtype=complex)
        symbols[:, n - cfg.first_slot] = self.preamble
        sig = synthesize(symbols, self.filt, cfg)
        win = AnalysisWindow.for_signal(sig, n)
        seg = np.abs(sig.samples[win.start_index: win.start_index + win.length])
        t = sig.times[win.start_index: win.start_index + win.length]
        nus = np.array([nu_of_t(self.preamble, self.filt, cfg, x) for x in t.tolist()])
        assert np.max(np.abs(seg - nus)) < 1e-9 * np.max(seg)

    def test_golay_envelope_bound(self):
        n = self.cfg.preamble_slot
        t = n / 2 + np.linspace(0, 4, 2049)[:-1]
        nus = np.array([nu_of_t(self.preamble, self.filt, self.cfg, x) for x in t.tolist()])
        bound = math.sqrt(2 * 64) * np.abs(filter_lookup(self.filt, t - n / 2))
        assert np.all(nus <= bound * (1 + 1e-6) + 1e-12)

    def test_sigma2_empty_with_huge_guard(self):
        cfg = FrameConfig(subcarriers=64, guards=50, oversample=4)
        assert sigma2_of_t(self.filt, cfg, (cfg.preamble_slot + 4) / 2) == 0.0

    def test_no_times_give_empty_results(self):
        # The slot range of no times used to be a reduction over an empty array.
        out = signal_at_times(self.preamble, self.filt, self.cfg, [], 3)
        assert out.shape == (3, 0) and out.dtype == complex

    def test_sigma2_decreases_with_guards(self):
        t = np.linspace((PRE + 2) / 2, (PRE + 6) / 2, 65)
        maxima = []
        for g in range(5):
            cfg = FrameConfig(subcarriers=64, guards=g, preamble_slot=PRE, oversample=4)
            maxima.append(max(sigma2_of_t(self.filt, cfg, x) for x in t.tolist()))
        assert all(b < a for a, b in zip(maxima, maxima[1:]))

    def test_sigma2_matches_empirical_variance(self):
        cfg = FrameConfig(subcarriers=64, guards=1, oversample=4, rng_seed=5)
        filt = self.filt
        n = cfg.preamble_slot
        t = np.array([(n + 4) / 2])  # window center
        trials = 50_000
        # Less the preamble's share, which is the same in every trial: the
        # data interference term.
        preamble = golay_seed(64)
        s = (signal_at_times(preamble, filt, cfg, t, trials)[:, 0]
             - slot_term(preamble, n, float(t[0]), filt))
        per_component = 0.5 * float(np.mean(np.abs(s) ** 2))
        predicted = sigma2_of_t(filt, cfg, float(t[0]))
        assert per_component == pytest.approx(predicted, rel=0.02)


def sigma2_per_slot_oracle(guards, filt, subcarriers, preamble_slot, t):
    """sigma2_of_t as it was before one lookup served every slot: one
    filter call per reaching data slot, squared and added in slot order;
    the lookups and the slot set are the array-time reference's."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    acc = np.zeros_like(t)
    for slot in reaching_slots(preamble_slot, guards, filt.overlap, t):
        acc += filter_lookup(filt, t - slot / 2.0) ** 2
    return 0.5 * subcarriers * acc


def slot_signal_per_slot_oracle(coeffs, slots, t, filt):
    """slot_signal as it was before one lookup served every slot: one
    filter call per slot inside the loop, the array-time reference's."""
    coeffs = np.asarray(coeffs)
    m_count = coeffs.shape[-1]
    carriers = np.exp(2j * np.pi * np.outer(np.arange(m_count), t))
    out = 0
    for i, s in enumerate(slots):
        phased = coeffs[..., i, :] * carrier_phase(m_count, s)
        out = out + (phased @ carriers) * filter_lookup(filt, t - s / 2.0)
    return out


PRE = 20        # preamble slot of the lookup properties


@st.composite
def probe_times(draw, filt):
    """Random times around the preamble slot's reach, plus times exactly at
    s/2, s/2 + K - 1/L and s/2 + K, the support edges of slots s."""
    k, spt = filt.overlap, filt.samples_per_symbol
    rand = draw(st.lists(st.floats(PRE / 2 - k - 1, PRE / 2 + k + 1), max_size=12))
    slots = draw(st.lists(st.integers(PRE - 2 * k - 2, PRE + 2 * k + 2), max_size=4))
    edges = [e for s in slots for e in (s / 2, s / 2 + k - 1 / spt, s / 2 + k)]
    return np.array(rand + edges, dtype=float)


def frame_at(filt, subcarriers, guards=0) -> FrameConfig:
    """A frame of `subcarriers` at the filter's rate, its preamble at slot PRE."""
    return FrameConfig(subcarriers=subcarriers, guards=guards, preamble_slot=PRE,
                       oversample=filt.samples_per_symbol // subcarriers)


def same_bits(a, b) -> bool:
    a, b = np.atleast_1d(a), np.atleast_1d(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestPulseLookup:
    """One filter lookup per (slots x times) grid gives the per-slot
    loops' bits."""

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(["phydyas3", "phydyas4", "hermite"]),
           spt=st.sampled_from([8, 64, 256]), guards=st.integers(0, 4), data=st.data())
    def test_sigma2_equals_per_slot_oracle(self, name, spt, guards, data):
        filt = make_filter(name, spt)
        cfg = frame_at(filt, spt // 4, guards)
        t = data.draw(probe_times(filt))
        got = np.array([sigma2_of_t(filt, cfg, x) for x in t.tolist()])
        assert same_bits(got, sigma2_per_slot_oracle(guards, filt, cfg.subcarriers, PRE, t))

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(["phydyas3", "phydyas4", "hermite"]),
           m_oversample=st.sampled_from([(2, 4), (4, 2), (13, 2), (16, 4), (64, 4)]),
           guards=st.integers(0, 4), seed=st.integers(0, 2**32), data=st.data())
    def test_signal_at_times_data_equals_per_slot_oracle(self, name, m_oversample, guards,
                                                         seed, data):
        # The data sum of signal_at_times, its pulses from the one slot scan,
        # against per-slot lookups over the reference's slot set, in chunks
        # of DEFAULT_CHUNK trials with a ragged last one.
        m, oversample = m_oversample
        filt = make_filter(name, m * oversample)
        cfg = frame_at(filt, m, guards)
        t = data.draw(probe_times(filt))
        preamble = np.exp(2j * np.pi * np.random.default_rng(seed).random(m))
        trials = 2 * analysis.DEFAULT_CHUNK + 3
        got = signal_at_times(preamble, filt, cfg, t, trials)
        slots = reaching_slots(PRE, guards, filt.overlap, t)
        want = np.empty((trials, len(t)), dtype=complex)
        want[:] = [slot_term(preamble, PRE, x, filt) for x in t.tolist()]
        for lo in range(0, trials, analysis.DEFAULT_CHUNK):
            rows = np.arange(lo, min(lo + analysis.DEFAULT_CHUNK, trials))
            want[rows] += slot_signal_per_slot_oracle(slot_data(cfg, rows[:, None], slots),
                                                      slots, t, filt)
        assert same_bits(got, want)
        assert same_bits(got, reference_signal_at_times(preamble, filt, cfg, t, trials))


def zero_masked(draw, rng, shape):
    """Random complex coefficients of the given shape, with none, some,
    all but one or all of the subcarriers (the last axis) zero; "some" also
    zeros single coefficients."""
    kind = draw(st.sampled_from(["none", "some", "all but one", "all"]))
    m = shape[-1]
    if kind == "none":
        mask = np.ones(shape, dtype=bool)
    elif kind == "some":
        mask = (rng.random(m) < 0.5) & (rng.random(shape) < 0.7)
    else:
        mask = np.zeros(shape, dtype=bool)
        if kind == "all but one":
            mask[..., rng.integers(m)] = True
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * mask


class TestSparseCarriers:
    """slot_term computes carriers only at subcarriers with a nonzero
    coefficient: its values, and nu_of_t's bits, are those of the dense
    per-slot evaluation."""

    def check_nu(self, preamble, filt, t):
        cfg = frame_at(filt, len(preamble))
        for x in t.tolist():
            want = np.abs(slot_signal_per_slot_oracle(preamble[None, :], [PRE], x, filt))
            assert same_bits(nu_of_t(preamble, filt, cfg, x), want)

    @settings(max_examples=80, deadline=None)
    @given(name=st.sampled_from(["phydyas3", "phydyas4", "hermite"]),
           spt=st.sampled_from([8, 64, 256]), guards=st.integers(0, 4),
           m=st.sampled_from([1, 8, 13, 64]), seed=st.integers(0, 2**32), data=st.data())
    def test_zero_coefficients(self, name, spt, guards, m, seed, data):
        filt = make_filter(name, spt)
        t = data.draw(probe_times(filt))
        rng = np.random.default_rng(seed)
        slot_list = [PRE] + reaching_slots(PRE, guards, filt.overlap, t).tolist()
        coeffs = zero_masked(data.draw, rng, (len(slot_list), m))
        for a, s in zip(coeffs, slot_list):
            for x in t.tolist():
                got = slot_term(a, s, x, filt)
                want = slot_signal_per_slot_oracle(a[None, :], [s], np.array([x]), filt)
                # By value: a zero carrier may turn a -0.0 into 0.0.
                assert type(got) is np.complex128 and np.array_equal([got], want)
        # nu of a preamble at the filter's rate, 4 samples per subcarrier.
        self.check_nu(zero_masked(data.draw, rng, (spt // 4,)), filt, t)

    @settings(max_examples=30, deadline=None)
    @given(name=st.sampled_from(["phydyas3", "phydyas4", "hermite"]),
           oversample=st.sampled_from([2, 4]), pilots=st.sampled_from([8, 16, 32]),
           data=st.data())
    def test_sparse_golay_preamble(self, name, oversample, pilots, data):
        filt = make_filter(name, 512 * oversample)
        self.check_nu(sparse_golay_preamble(512, pilots), filt, data.draw(probe_times(filt)))

    def test_nu_computes_used_carriers_only(self, monkeypatch):
        # Guards the sparse path: 512 arguments here mean the dense carriers
        # came back.
        filt = make_filter("phydyas4", 2048)
        seen = []
        exp = np.exp

        def spy(arg):
            seen.append(np.size(arg))
            return exp(arg)

        monkeypatch.setattr(np, "exp", spy)
        nu_of_t(sparse_golay_preamble(512, 32), filt, frame_at(filt, 512), PRE / 2 + 1.3)
        assert seen == [32]


@st.composite
def scalar_times(draw, filt):
    """probe_times as floats, plus times at which the filter's argument
    t - s/2 is a rounding tie (k + 0.5)/L of slots s."""
    k, spt = filt.overlap, filt.samples_per_symbol
    ties = draw(st.lists(st.tuples(st.integers(PRE - 2 * k - 2, PRE + 2 * k + 2),
                                   st.integers(0, k * spt - 1)), max_size=4))
    return draw(probe_times(filt)).tolist() + [s / 2 + (i + 0.5) / spt for s, i in ties]


class TestScalarPath:
    """The filter lookup, the slot set and the pulses take one float time;
    each gives the bits of the array-time reference's element at that time,
    in an array of many times."""

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(["phydyas3", "phydyas4", "hermite"]),
           spt=st.sampled_from([8, 64, 256]), guards=st.integers(0, 4), data=st.data())
    def test_float_equals_array_elements(self, name, spt, guards, data):
        filt = make_filter(name, spt)
        times = data.draw(scalar_times(filt))
        t_arr = np.array(times, dtype=float)
        slots = np.arange(PRE - 9, PRE + 10)
        args = t_arr - slots[:, None] / 2.0
        lookups = [filt(a) for a in args.ravel().tolist()]
        assert all(type(g) is float for g in lookups)
        assert same_bits(np.array(lookups, dtype=float), filter_lookup(filt, args.ravel()))
        # The reference's slot set is the union of each time's scan, and the
        # scan's pulses, 0.0 where a slot does not reach a time, are the
        # columns of the reference's (slots x times) pulses.
        cfg = frame_at(filt, spt // 4, guards)
        each = [dict(analysis._data_slots_at(filt, cfg, t)) for t in times]
        union = reaching_slots(PRE, guards, filt.overlap, t_arr)
        assert sorted(set().union(*each)) == union.tolist()
        pulses = reference_pulses(union, t_arr, filt)
        for j, near in enumerate(each):
            assert all(type(g) is float for g in near.values())
            column = np.array([near.get(s, 0.0) for s in union.tolist()], dtype=float)
            assert same_bits(column, pulses[:, j])

    @pytest.mark.parametrize("name", ["phydyas4", "hermite"])
    def test_filter_ties_round_to_even(self, name):
        filt = make_filter(name, 8)
        args = (np.arange(filt.overlap * 8) + 0.5) / 8
        assert same_bits(np.array([filt(float(a)) for a in args]), filter_lookup(filt, args))

    @pytest.mark.parametrize("t", [40.7, np.float64(40.7)])
    def test_at_time_looks_up_python_floats(self, monkeypatch, t):
        # Guards the fast path: an array reaching the filter here means a
        # float time went the array way.
        cfg = FrameConfig(subcarriers=64, guards=1, oversample=4, rng_seed=0)
        filt = make_filter("phydyas4", cfg.samples_per_symbol)
        reaching = analysis._data_slots_at(filt, cfg, float(t))
        seen = []
        lookup = type(filt).__call__

        def spy(self, arg):
            seen.append(type(arg))
            return lookup(self, arg)

        monkeypatch.setattr(type(filt), "__call__", spy)
        RicianPointModel.at_time(golay_seed(64), filt, cfg, t)
        assert seen == [float] * (1 + len(reaching))


class TestShapeRule:
    """nu_of_t and sigma2_of_t: a number gives a float."""

    def setup_method(self):
        self.filt = make_filter("phydyas4", 64)
        self.cfg = frame_at(self.filt, 16, guards=1)
        self.preamble = golay_seed(16)
        self.t = PRE / 2 + 1.3

    def evaluate(self, t):
        return (nu_of_t(self.preamble, self.filt, self.cfg, t),
                sigma2_of_t(self.filt, self.cfg, t))

    @pytest.mark.parametrize("number", [lambda t: t, np.float64, lambda t: 12])
    def test_number_gives_float(self, number):
        for out in self.evaluate(number(self.t)):
            assert type(out) is float


class TestRicianRefusesNonNumbers:
    def setup_method(self):
        self.cfg = FrameConfig(subcarriers=64, guards=2, oversample=4, rng_seed=9)
        self.filt = phydyas_taps(4, self.cfg.samples_per_symbol)
        self.preamble = golay_seed(64)
        self.model = RicianPointModel(t=0.0, nu=1.0, sigma=1.0, p_avg=2.0)

    @pytest.mark.parametrize("t", ["1.0", True, np.array([40.1, 40.2]), np.array(40.1), None])
    def test_at_time(self, t):
        with pytest.raises(AnalysisError, match="t must be a real number"):
            RicianPointModel.at_time(self.preamble, self.filt, self.cfg, t)

    @pytest.mark.parametrize("preamble", [golay_seed(32), np.ones((1, 64)), np.ones(65)])
    def test_at_time_refuses_a_preamble_of_another_length(self, preamble):
        # A 32-entry preamble at M = 64 used to give a nu.
        t = (self.cfg.preamble_slot + 4) / 2
        with pytest.raises(AnalysisError, match=r"is not \(64,\)"):
            RicianPointModel.at_time(preamble, self.filt, self.cfg, t)

    @pytest.mark.parametrize("alpha", [np.array([1.0, 2.0]), "2", True])
    def test_iapr_exceedance(self, alpha):
        with pytest.raises(AnalysisError, match="threshold must be a real number"):
            iapr_exceedance(alpha, self.model)

    @pytest.mark.parametrize("a,b", [(np.array([1.0, 2.0]), 1.0), (True, 1.0), (1.0, "1"),
                                     (1.0, np.array([2.0]))])
    def test_marcum_q1(self, a, b):
        with pytest.raises(AnalysisError, match="must be a real number"):
            marcum_q1(a, b)

    @pytest.mark.parametrize("t", ["40.1", True, ["40.1"], [None], np.array([40.1, 40.2])])
    def test_nu_and_sigma2(self, t):
        with pytest.raises(AnalysisError, match="t must be a real number"):
            nu_of_t(self.preamble, self.filt, self.cfg, t)
        with pytest.raises(AnalysisError, match="t must be a real number"):
            sigma2_of_t(self.filt, self.cfg, t)

    def test_model_fields(self):
        with pytest.raises(AnalysisError, match="nu must be a real number"):
            RicianPointModel(t=0.0, nu="1", sigma=1.0, p_avg=2.0)


class TestRicianInputChecks:
    def setup_method(self):
        self.cfg = FrameConfig(subcarriers=64, guards=2, oversample=4, rng_seed=9)
        self.filt = phydyas_taps(4, self.cfg.samples_per_symbol)
        self.preamble = golay_seed(64)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_time_not_finite(self, t):
        n = self.cfg.preamble_slot
        calls = [lambda: RicianPointModel.at_time(self.preamble, self.filt, self.cfg, t),
                 lambda: nu_of_t(self.preamble, self.filt, self.cfg, t),
                 lambda: sigma2_of_t(self.filt, self.cfg, t),
                 lambda: signal_at_times(self.preamble, self.filt, self.cfg, [n / 2 + 1.0, t],
                                         2)]
        for call in calls:
            with pytest.raises(AnalysisError, match="t must be finite"):
                call()

    @pytest.mark.parametrize("t", [1e308, 1e20, 2.0**15, -0.5, np.float64(-1e-300)])
    def test_time_outside_the_domain(self, t):
        # At 1e308 nu read NaN and the others ended in a bare OverflowError;
        # at 1e20, sigma^2 read 2.27e-12 where it is M, since t - s/2 no
        # longer resolved a half slot.
        n = self.cfg.preamble_slot
        calls = [lambda: RicianPointModel.at_time(self.preamble, self.filt, self.cfg, t),
                 lambda: nu_of_t(self.preamble, self.filt, self.cfg, t),
                 lambda: sigma2_of_t(self.filt, self.cfg, t),
                 lambda: signal_at_times(self.preamble, self.filt, self.cfg, [n / 2 + 1.0, t],
                                         2)]
        for call in calls:
            with pytest.raises(AnalysisError, match=r"t must be finite and in \[0, 32768\)"):
                call()

    def test_times_at_the_domain_ends(self):
        # The last half-slot index, 2^16 - 1, is a valid slot_data key.  No
        # slot before slot 0 reaches K - 1/2, and slot -1 reaches just below.
        last = 2.0**15 - 1.0 / self.cfg.samples_per_symbol
        for t in (3.5, last):
            model = RicianPointModel.at_time(self.preamble, self.filt, self.cfg, t)
            assert model.sigma == math.sqrt(sigma2_of_t(self.filt, self.cfg, t))
        assert model.nu == 0.0 and model.sigma > 0.0
        with pytest.raises(AnalysisError, match="reached by data slot -1, "):
            RicianPointModel.at_time(self.preamble, self.filt, self.cfg,
                                     3.5 - 1.0 / self.cfg.samples_per_symbol)
        assert signal_at_times(self.preamble, self.filt, self.cfg, [last], 2).shape == (2, 1)

    def test_time_that_a_slot_before_slot_0_reaches(self):
        # At M = 64, G = 1, data slots -6 to -1 reach t = 0.5: slot_data
        # raised a FrameError naming a slot the caller never passed, and
        # sigma2_of_t read 63.99999999999999, counting those slots as data.
        cfg = FrameConfig(subcarriers=64, guards=1, oversample=4, rng_seed=9)
        times = [cfg.preamble_slot / 2 + 1.0, 0.5]
        calls = [lambda: signal_at_times(self.preamble, self.filt, cfg, times, 2),
                 lambda: sigma2_of_t(self.filt, cfg, 0.5),
                 lambda: RicianPointModel.at_time(self.preamble, self.filt, cfg, 0.5)]
        for call in calls:
            with mock.patch.object(analysis, "slot_data", side_effect=AssertionError), \
                    pytest.raises(AnalysisError, match=r"^t = 0\.5 is reached by data slot -6, "):
                call()
        # nu_of_t reads no data slot, so it keeps its domain; the preamble's
        # pulse does not reach t = 0.5.
        assert nu_of_t(self.preamble, self.filt, cfg, 0.5) == 0.0

    @pytest.mark.parametrize("t", ["x", True, math.nan, -1.0, 2.0**15])
    def test_point_model_checks_its_time(self, t):
        # RicianPointModel(t='x', ...) used to construct: only nu, sigma and
        # p_avg were checked.
        with pytest.raises(AnalysisError, match="^t must be "):
            RicianPointModel(t=t, nu=1.0, sigma=1.0, p_avg=2.0)

    # The model reads the guard count from the frame, whose FrameConfig
    # refuses one that is not an integer >= 0.
    def test_negative_guard_count(self):
        # -1 used to count the preamble slot as data.
        with pytest.raises(FrameError, match="guards must be an integer >= 0, not -1"):
            FrameConfig(subcarriers=64, guards=-1)

    @pytest.mark.parametrize("guards", [2.5, 2.999, 2.0, np.float64(2.0)])
    def test_fractional_guard_count(self, guards):
        # 2.5 and 2.999 used to give G = 2's variance.
        with pytest.raises(FrameError, match="guards must be an integer"):
            FrameConfig(subcarriers=64, guards=guards)

    @pytest.mark.parametrize("call", ["sampler", "signal_at_times", "at_time", "nu_of_t",
                                      "sigma2_of_t"])
    def test_filter_at_another_rate(self, call):
        # A filter of another rate was resampled by the engine but read as
        # given by the model.
        filt = phydyas_taps(4, self.cfg.samples_per_symbol // 4)
        n = self.cfg.preamble_slot
        calls = {"sampler": lambda: _WindowSampler(self.preamble, filt, self.cfg, 1),
                 "signal_at_times": lambda: signal_at_times(self.preamble, filt, self.cfg,
                                                            [n / 2 + 2.0], 2),
                 "at_time": lambda: RicianPointModel.at_time(self.preamble, filt, self.cfg,
                                                             n / 2 + 2.0),
                 "nu_of_t": lambda: nu_of_t(self.preamble, filt, self.cfg, n / 2 + 2.0),
                 "sigma2_of_t": lambda: sigma2_of_t(filt, self.cfg, n / 2 + 2.0)}
        with pytest.raises(FrameError, match="filter sampled at 64 samples per symbol, "
                                             "the frame at 256"):
            calls[call]()

    @pytest.mark.parametrize("name,value", [
        ("nu", math.nan), ("nu", -1.0), ("nu", math.inf), ("sigma", math.nan),
        ("sigma", -0.5), ("sigma", math.inf), ("p_avg", math.nan), ("p_avg", math.inf),
        ("p_avg", -2.0)])
    def test_model_fields(self, name, value):
        fields = {"t": 0.0, "nu": 1.0, "sigma": 1.0, "p_avg": 2.0, name: value}
        with pytest.raises(AnalysisError, match=f"{name} must be finite and >= 0"):
            RicianPointModel(**fields)

    def test_zero_average_power(self):
        with pytest.raises(AnalysisError, match="p_avg must be > 0"):
            RicianPointModel(t=0.0, nu=1.0, sigma=1.0, p_avg=0.0)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf, -0.5, np.float64(math.nan)])
    def test_threshold(self, alpha):
        model = RicianPointModel(t=0.0, nu=1.0, sigma=1.0, p_avg=2.0)
        with pytest.raises(AnalysisError, match="threshold must be finite and >= 0"):
            iapr_exceedance(alpha, model)

    def test_signal_at_times_refuses_a_2d_time_array(self):
        # Its result is (trials, len(t)); a (2, 3) t used to end in a bare
        # numpy broadcast ValueError.
        cfg = FrameConfig(subcarriers=16, guards=1, oversample=4, rng_seed=9)
        filt = phydyas_taps(4, cfg.samples_per_symbol)
        t = (cfg.preamble_slot + 4) / 2 + np.linspace(-0.5, 0.5, 6).reshape(2, 3)
        with pytest.raises(AnalysisError, match=r"1-D array, not of shape \(2, 3\)"):
            signal_at_times(golay_seed(16), filt, cfg, t, 2)


class TestSignalAtTimes:
    @settings(max_examples=20, deadline=None)
    @given(m=st.sampled_from([8, 12, 13, 16, 32]), guards=st.integers(0, 4),
           name=st.sampled_from(["phydyas3", "phydyas4", "hermite"]),
           oversample=st.integers(2, 5), seed=st.integers(0, 2**32),
           picks=st.lists(st.integers(0, 2**20), min_size=1, max_size=6))
    # Probes at t - nT/2 = 0.25 and 0.75, outside the analysis window.
    @example(m=16, guards=1, name="phydyas4", oversample=4, seed=3, picks=[208, 240])
    def test_equals_synthesis_at_sample_times(self, m, guards, name, oversample, seed,
                                              picks):
        assume(m * oversample % 2 == 0)
        cfg = FrameConfig(subcarriers=m, guards=guards, oversample=oversample,
                          rng_seed=seed)
        filt = make_filter(name, cfg.samples_per_symbol)
        preamble = golay_seed(m) if m & (m - 1) == 0 else np.ones(m)
        sigs = [synthesize(build_frame(cfg, preamble, trial=k), filt, cfg) for k in range(2)]
        # Sample times whose reaching slots all lie inside the frame: the
        # frame's zero edges are not part of the data stream.
        spt = cfg.samples_per_symbol
        lo = (2 * filt.overlap - 1) * spt // 2
        idx = lo + np.array(picks) % (cfg.total_slots * spt // 2 - lo)
        got = signal_at_times(preamble, filt, cfg, sigs[0].times[idx], 2)
        for k, sig in enumerate(sigs):
            scale = np.max(np.abs(sig.samples))
            assert np.max(np.abs(got[k] - sig.samples[idx])) <= 1e-12 * scale


    @pytest.mark.parametrize("name", ["phydyas4", "hermite"])
    @pytest.mark.parametrize("m", [64, 96, 160])
    def test_preamble_share_is_nu_bit_for_bit(self, name, m):
        # At G = 6 no data slot reaches `model`'s probes, so |s| is nu; an
        # array-t evaluation of the preamble's share used to differ in the
        # last bit at some, and `model` then read 0 where the probability is 1.
        cfg = FrameConfig(subcarriers=m, guards=6, oversample=4)
        filt = make_filter(name, cfg.samples_per_symbol)
        preamble = sparse_golay_preamble(m, 32)
        times = cfg.preamble_slot / 2 + np.linspace(1.05, 2.80, 8)
        s = signal_at_times(preamble, filt, cfg, times, 2)
        for j, t in enumerate(times.tolist()):
            assert same_bits(np.abs(s[:, j]), np.full(2, nu_of_t(preamble, filt, cfg, t)))

    @pytest.mark.parametrize("name", ["phydyas3", "phydyas4", "hermite"])
    @pytest.mark.parametrize("m, guards", [(64, 0), (96, 3), (160, 6), (512, 1)])
    def test_equals_array_time_reference(self, name, m, guards):
        # 47 probe times across and around the window, the support edges
        # of the slots that reach it included.
        cfg = FrameConfig(subcarriers=m, guards=guards, oversample=4, rng_seed=11)
        filt = make_filter(name, cfg.samples_per_symbol)
        preamble = sparse_golay_preamble(m, 32)
        n = cfg.preamble_slot
        times = np.concatenate([n / 2 + np.linspace(-0.5, 3.5, 41),
                                (n + np.arange(-5, 1)) / 2 + filt.overlap])
        got = signal_at_times(preamble, filt, cfg, times, 17)
        assert same_bits(got, reference_signal_at_times(preamble, filt, cfg, times, 17))

    def test_one_lookup_and_one_dense_exp_per_call(self, monkeypatch):
        # The pulses come from the one slot scan and the dense carriers are
        # computed once, however many chunks the trials fill: criterion
        # 4(f)'s call used to make 80,048 lookups and 1,258 np.exp calls.
        cfg = FrameConfig(subcarriers=64, guards=1, oversample=4, rng_seed=3)
        filt = make_filter("phydyas4", cfg.samples_per_symbol)
        preamble = sparse_golay_preamble(64, 8)
        times = cfg.preamble_slot / 2 + np.linspace(1.0, 3.0, 9)
        scanned = sum(len(analysis._data_slots_at(filt, cfg, x)) for x in times.tolist())
        lookups, exps = [], []
        lookup, exp = type(filt).__call__, np.exp

        def spy_lookup(self, arg):
            lookups.append(arg)
            return lookup(self, arg)

        def spy_exp(arg):
            exps.append(np.size(arg))
            return exp(arg)

        monkeypatch.setattr(type(filt), "__call__", spy_lookup)
        monkeypatch.setattr(np, "exp", spy_exp)
        for trials in (1, 5 * analysis.DEFAULT_CHUNK + 1):
            lookups.clear()
            exps.clear()
            signal_at_times(preamble, filt, cfg, times, trials)
            # One for each time's preamble term, one per (time, scanned slot).
            assert len(lookups) == len(times) + scanned
            # The preamble's 8 used carriers at each time, and the dense ones.
            assert sorted(exps) == [8] * len(times) + [64 * len(times)]


class TestIaprExceedance:
    def test_alpha_zero(self):
        model = RicianPointModel(t=0.0, nu=1.0, sigma=1.0, p_avg=2.0)
        assert iapr_exceedance(0.0, model) == 1.0

    def test_sigma_zero_indicator(self):
        model = RicianPointModel(t=0.0, nu=2.0, sigma=0.0, p_avg=2.0)
        assert iapr_exceedance(1.9, model) == 1.0
        assert iapr_exceedance(2.1, model) == 0.0

    def test_sigma_zero_at_alpha_of_nu(self):
        # alpha = nu^2 / P_avg, as `model` sets it where sigma = 0.  Compared
        # as nu^2 >= alpha P_avg, a P_avg that is not a power of two could
        # round the product below nu^2 and read 0.
        for p_avg in (192.0, 320.0, 960.0):
            for nu in np.linspace(0.1, 20.0, 200).tolist():
                model = RicianPointModel(t=0.0, nu=nu, sigma=0.0, p_avg=p_avg)
                assert iapr_exceedance(nu * nu / p_avg, model) == 1.0

    def test_monotone_in_alpha(self):
        model = RicianPointModel(t=0.0, nu=3.0, sigma=1.5, p_avg=8.0)
        vals = [iapr_exceedance(a, model) for a in np.linspace(0, 5, 21)]
        assert all(y <= x + 1e-12 for x, y in zip(vals, vals[1:]))

    def test_g3_sweep_matches_noncentral_chi2(self):
        # 64 probe times across the window x 8 thresholds x 2 filters at
        # M = 512, G = 3: near the preamble peak a and b reach 1e4 to 1e7.
        cfg = FrameConfig(subcarriers=512, guards=3, oversample=4, rng_seed=0)
        preamble = sparse_golay_preamble(512, 32)
        alphas = 10.0 ** (np.arange(0.5, 4.01, 0.5) / 10.0)
        times = (cfg.preamble_slot + 2) / 2.0 + 2.0 * np.arange(64) / 64
        for name in ("phydyas4", "hermite"):
            filt = make_filter(name, cfg.samples_per_symbol)
            for t in times:
                model = RicianPointModel.at_time(preamble, filt, cfg, float(t))
                got = [iapr_exceedance(float(alpha), model) for alpha in alphas]
                ref = stats.ncx2.sf(alphas * model.p_avg / model.sigma ** 2, 2,
                                    (model.nu / model.sigma) ** 2)
                np.testing.assert_allclose(got, ref, rtol=0, atol=1e-10)

    def test_matches_empirical_tail(self):
        cfg = FrameConfig(subcarriers=64, guards=1, oversample=4, rng_seed=17)
        filt = hermite_taps(cfg.samples_per_symbol)
        preamble = golay_seed(64)
        n = cfg.preamble_slot
        t = (n + 4) / 2 + 0.23
        trials = 30_000
        s = signal_at_times(preamble, filt, cfg, np.array([t]), trials)[:, 0]
        iapr = np.abs(s) ** 2 / average_power(64)
        model = RicianPointModel.at_time(preamble, filt, cfg, t)
        for alpha in (0.2, 0.5, 1.0, 1.5):
            analytic = iapr_exceedance(alpha, model)
            if analytic < 5e-3:
                continue
            empirical = float(np.mean(iapr >= alpha))
            stderr = math.sqrt(analytic * (1 - analytic) / trials)
            assert abs(empirical - analytic) < 3 * stderr + 1e-12


class TestPaprWindow:
    def setup_method(self):
        self.cfg = FrameConfig(subcarriers=64, guards=3, oversample=4, rng_seed=1)
        self.filt = phydyas_taps(4, self.cfg.samples_per_symbol)
        self.preamble = golay_seed(64)

    @pytest.mark.parametrize("name", ["phydyas3", "phydyas4", "hermite"])
    def test_window_geometry(self, name):
        filt = make_filter(name, self.cfg.samples_per_symbol)
        sig = synthesize(build_frame(self.cfg, self.preamble), filt, self.cfg)
        win = AnalysisWindow.for_signal(sig, self.cfg.preamble_slot)
        assert win.length == 2 * self.cfg.samples_per_symbol
        t_start = sig.times[win.start_index]
        assert t_start == pytest.approx((self.cfg.preamble_slot + filt.overlap - 2) / 2)

    @pytest.mark.parametrize("preamble_slot", [40])
    def test_window_outside_the_signal_is_refused(self, preamble_slot):
        # 40 puts the window past the frame's end.
        sig = synthesize(build_frame(self.cfg, self.preamble), self.filt, self.cfg)
        with pytest.raises(AnalysisError, match="exceeds the sampled signal"):
            AnalysisWindow.for_signal(sig, preamble_slot)

    @pytest.mark.parametrize("preamble_slot", [14.5, True, "14", -10])
    def test_refuses_a_preamble_slot_that_is_not_an_integer_ge_0(self, preamble_slot):
        # 14.5 gave a window half a slot off, True measured from slot 1 and
        # "14" ended in a bare TypeError; -10 put the window before the
        # signal's start.
        sig = synthesize(build_frame(self.cfg, self.preamble), self.filt, self.cfg)
        with pytest.raises(AnalysisError, match="preamble_slot must be an integer >= 0"):
            AnalysisWindow.for_signal(sig, preamble_slot)

    def test_out_of_range_window(self):
        sig = synthesize(build_frame(self.cfg, self.preamble), self.filt, self.cfg)
        with pytest.raises(AnalysisError):
            papr(sig, AnalysisWindow(len(sig.samples) - 4, 8), 1.0)

    @pytest.mark.parametrize("start, length", [(10, 0), (10, -3), (-1, 8), (1.5, 8), (True, 8),
                                               (10, 8.0), ("10", 8), (10, None)])
    def test_refuses_window_fields_that_are_not_valid_integers(self, start, length):
        # (10, 0) and a negative length ended in a bare numpy ValueError,
        # 1.5 in a bare TypeError, and True measured from sample 1.
        sig = synthesize(build_frame(self.cfg, self.preamble), self.filt, self.cfg)
        with pytest.raises(AnalysisError, match="must be an integer"):
            papr(sig, AnalysisWindow(start, length), 32.0)

    def test_numpy_integer_window_fields_are_stored_as_ints(self):
        win = AnalysisWindow(np.int64(10), np.int32(8))
        assert win == AnalysisWindow(10, 8) and type(win.start_index) is type(win.length) is int

    @pytest.mark.parametrize("p_avg", [0.0, -1.0, math.nan, math.inf, True, "2"])
    def test_rejects_average_power_not_finite_and_positive(self, p_avg):
        # 0 divided by zero, -1 was a bare math domain error, NaN returned NaN,
        # True divided by 1.0 and "2" ended in a bare TypeError.
        sig = synthesize(build_frame(self.cfg, self.preamble), self.filt, self.cfg)
        with pytest.raises(AnalysisError, match="average power"):
            papr(sig, AnalysisWindow.for_signal(sig, self.cfg.preamble_slot), p_avg)

    @settings(max_examples=20, deadline=None)
    @given(m=st.sampled_from([8, 12, 13, 16, 32, 48]), guards=st.integers(0, 4),
           name=st.sampled_from(["phydyas3", "phydyas4", "hermite"]),
           oversample=st.integers(2, 5), seed=st.integers(0, 2**32))
    @example(m=64, guards=3, name="phydyas4", oversample=4, seed=1)
    def test_windowed_sampler_equals_full_synthesis(self, m, guards, name, oversample,
                                                    seed):
        assume(m * oversample % 2 == 0)
        cfg = FrameConfig(subcarriers=m, guards=guards, oversample=oversample,
                          rng_seed=seed)
        filt = make_filter(name, cfg.samples_per_symbol)
        preamble = golay_seed(m) if m & (m - 1) == 0 else np.ones(m)
        p_avg = average_power(m)
        fast = papr_samples(preamble, filt, cfg, trials=3)
        for trial in range(3):
            grid = build_frame(cfg, preamble, trial=trial)
            sig = synthesize(grid, filt, cfg)
            win = AnalysisWindow.for_signal(sig, cfg.preamble_slot)
            assert fast[trial] == pytest.approx(papr(sig, win, p_avg), abs=1e-9)

    def test_monotone_in_oversampling(self):
        # finer sampling can only reveal higher peaks; O=4 is within
        # 0.02 dB of O=8 for the test preambles
        for preamble in (self.preamble, sparse_golay_preamble(64, 32)):
            vals = []
            for o in (4, 8):
                cfg = FrameConfig(subcarriers=64, guards=3, oversample=o, rng_seed=1)
                filt = phydyas_taps(4, cfg.samples_per_symbol)
                vals.append(float(papr_samples(preamble, filt, cfg, trials=1)[0]))
            assert vals[1] >= vals[0] - 1e-9
            assert vals[1] - vals[0] < 0.02


class TestMonteCarloCcdf:
    def setup_method(self):
        self.cfg = FrameConfig(subcarriers=32, guards=2, oversample=4, rng_seed=77)
        self.filt = phydyas_taps(4, self.cfg.samples_per_symbol)
        self.preamble = golay_seed(32)

    def test_deterministic(self):
        r1 = monte_carlo_ccdf(self.preamble, self.filt, self.cfg, 200)
        r2 = monte_carlo_ccdf(self.preamble, self.filt, self.cfg, 200)
        assert np.array_equal(r1.exceed_prob, r2.exceed_prob)
        assert r1.max_papr_db == r2.max_papr_db

    def test_chunking_invariance(self):
        runs = []
        for chunk in (7, 100):
            with mock.patch.object(analysis, "DEFAULT_CHUNK", chunk):
                runs.append(monte_carlo_ccdf(self.preamble, self.filt, self.cfg, 100))
        assert np.array_equal(runs[0].exceed_prob, runs[1].exceed_prob)

    def test_curve_shape(self):
        res = monte_carlo_ccdf(self.preamble, self.filt, self.cfg, 300)
        probs = res.exceed_prob
        assert np.all((0.0 <= probs) & (probs <= 1.0))
        assert np.all(np.diff(probs) <= 0.0)
        assert res.trials == 300
        # the empirical max separates zero from nonzero exceedance
        above = res.thresholds_db >= res.max_papr_db
        assert np.all(probs[above] == 0.0)

    def test_matches_papr_samples(self):
        res = monte_carlo_ccdf(self.preamble, self.filt, self.cfg, 150)
        samples = papr_samples(self.preamble, self.filt, self.cfg, 150)
        assert res.max_papr_db == pytest.approx(float(samples.max()), abs=1e-12)
        for i in (0, 60, 120):
            thr = res.thresholds_db[i]
            assert res.exceed_prob[i] == pytest.approx(float(np.mean(samples > thr)))

    def test_first_trial_offset_tiles_stream(self):
        full = papr_samples(self.preamble, self.filt, self.cfg, 20)
        tail = papr_samples(self.preamble, self.filt, self.cfg, 8, first_trial=12)
        assert np.array_equal(full[12:], tail)

    def test_rejects_no_trials(self):
        with pytest.raises(AnalysisError):
            monte_carlo_ccdf(self.preamble, self.filt, self.cfg, 0)

    def test_rejects_negative_trials(self):
        assert papr_samples(self.preamble, self.filt, self.cfg, trials=0).shape == (0,)
        assert type(monte_carlo_ccdf(self.preamble, self.filt, self.cfg, np.int64(4)).trials) is int
        t = np.array([(self.cfg.preamble_slot + 4) / 2])
        # Each engine entry point refuses what another refused or let through:
        # True ran one trial and wrote "trials": true, 2.0 and "3" got a TypeError.
        for trials in (-3, True, 2.0, "3", None):
            with pytest.raises(AnalysisError, match="trials"):
                papr_samples(self.preamble, self.filt, self.cfg, trials=trials)
            with pytest.raises(AnalysisError, match="trials"):
                signal_at_times(self.preamble, self.filt, self.cfg, t, trials=trials)
            with pytest.raises(AnalysisError, match="trials"):
                monte_carlo_ccdf(self.preamble, self.filt, self.cfg, trials)

    def test_export(self, tmp_path):
        res = monte_carlo_ccdf(self.preamble, self.filt, self.cfg, 50)
        path = tmp_path / "ccdf.csv"
        res.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "threshold_db,exceed_prob,exceed_count,wilson95_low,wilson95_high"
        assert len(lines) == 1 + len(analysis.THRESHOLDS_DB)
        counts = [int(line.split(",")[2]) for line in lines[1:]]
        assert counts == res.exceed_count.tolist()
        assert np.array_equal(res.exceed_prob, res.exceed_count / 50)
        obj = json.loads(res.to_json())
        assert obj["trials"] == 50
        assert obj["exceed_count"] == counts
        low, high = res.wilson95
        assert obj["wilson95_low"] == low.tolist() and obj["wilson95_high"] == high.tolist()
        # A config of numpy integers writes the same JSON; it used to raise TypeError.
        np_cfg = FrameConfig(**{k: np.int64(v) for k, v in self.cfg.to_json_dict().items()})
        assert monte_carlo_ccdf(self.preamble, self.filt, np_cfg, 50).to_json() == res.to_json()


class TestWilsonInterval:
    @settings(max_examples=50, deadline=None)
    @given(trials=st.integers(1, 10**9), frac=st.floats(0.0, 1.0))
    def test_ends_solve_the_score_equation(self, trials, frac):
        # The Wilson interval is {p : (k - n p)^2 <= z^2 n p (1 - p)}.
        hits = int(round(frac * trials))
        low, high = analysis.wilson_interval(hits, trials)
        z = special.ndtri(0.975)
        assert 0.0 <= low <= hits / trials <= high <= 1.0
        for p in (low, high):
            if 0.0 < p < 1.0:
                lhs = (hits - trials * p) ** 2
                rhs = z * z * trials * p * (1 - p)
                assert lhs == pytest.approx(rhs, rel=1e-6, abs=1e-9)

    def test_zero_hits_give_an_informative_upper_end(self):
        low, high = analysis.wilson_interval(np.array([0, 100_000]), 100_000)
        assert low[0] == 0.0 and high[1] == 1.0
        assert high[0] == pytest.approx(3.8415 / 100_003.84, rel=1e-4)

    @pytest.mark.parametrize("hits, trials", [(0, 0), (5, 3), (-1, 10), (0, -2),
                                              (np.array([0, 11]), 10), (float("nan"), 10),
                                              (0, float("nan")), (1, 2.5), (0, True)])
    def test_rejects_counts_outside_their_range(self, hits, trials):
        # These gave NaN with a RuntimeWarning, or, for a trial count of
        # 2.5 or True, an interval.
        with pytest.raises(AnalysisError):
            analysis.wilson_interval(hits, trials)
