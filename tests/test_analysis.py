import json
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from fbmc_preamble import analysis
from fbmc_preamble.analysis import (AnalysisError, AnalysisWindow, CcdfResult,
                                    RicianPointModel, average_power, default_thresholds,
                                    empirical_mean_power, iapr_exceedance, marcum_q1,
                                    monte_carlo_ccdf, nu_of_t, papr, papr_samples,
                                    sigma2_of_t, signal_at_times)
from fbmc_preamble.prototype import hermite_taps, make_filter, phydyas_taps
from fbmc_preamble.sequences import golay_seed, sparse_golay_preamble
from fbmc_preamble.waveform import FbmcGrid, FrameConfig, build_frame, synthesize


def marcum_q1_quadrature(a: float, b: float) -> float:
    """Independent oracle: adaptive quadrature of the defining integral,
    with the Bessel growth folded into the exponent."""
    if b == 0.0:
        return 1.0
    f = lambda x: x * math.exp(-0.5 * (x - a) ** 2) * special.ive(0, a * x)
    val, _ = integrate.quad(f, b, np.inf, limit=200)
    return val


class TestAveragePower:
    def test_values(self):
        assert average_power(512) == 1024.0
        assert average_power(1) == 2.0

    def test_rejects_zero(self):
        with pytest.raises(AnalysisError):
            average_power(0)

    def test_empirical_all_data_frame(self):
        # long-run time average of an all-data frame approaches 2M/T
        measured = empirical_mean_power(128, n_symbols=256, seed=3)
        assert measured == pytest.approx(average_power(128), rel=0.01)


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
        monkeypatch.setattr(analysis._sp, "chndtr", lambda x, df, nc: math.nan)
        with pytest.raises(FloatingPointError):
            marcum_q1(1.0, 2.0)


class TestNuSigma:
    def setup_method(self):
        self.cfg = FrameConfig(subcarriers=64, guards=2, oversample=4, rng_seed=9)
        self.filt = phydyas_taps(4, self.cfg.samples_per_symbol)
        self.preamble = golay_seed(64)

    def test_zero_preamble(self):
        n = self.cfg.preamble_slot
        t = np.linspace((n + 2) / 2, (n + 6) / 2, 17)
        assert np.all(nu_of_t(np.zeros(64), self.filt, n, t) == 0.0)

    def test_matches_preamble_only_synthesis(self):
        cfg, n = self.cfg, self.cfg.preamble_slot
        symbols = np.zeros((64, cfg.total_slots), dtype=complex)
        symbols[:, n - cfg.first_slot] = self.preamble
        grid = FbmcGrid(symbols=symbols, first_slot=cfg.first_slot)
        sig = synthesize(grid, self.filt, cfg)
        win = AnalysisWindow.for_signal(sig, n)
        seg = np.abs(sig.samples[win.start_index: win.start_index + win.length])
        t = sig.times[win.start_index: win.start_index + win.length]
        nus = nu_of_t(self.preamble, self.filt, n, t)
        assert np.max(np.abs(seg - nus)) < 1e-9 * np.max(seg)

    def test_golay_envelope_bound(self):
        n = self.cfg.preamble_slot
        t = n / 2 + np.linspace(0, 4, 2049)[:-1]
        nus = nu_of_t(self.preamble, self.filt, n, t)
        bound = math.sqrt(2 * 64) * np.abs(self.filt(t - n / 2))
        assert np.all(nus <= bound * (1 + 1e-6) + 1e-12)

    def test_sigma2_empty_with_huge_guard(self):
        n = self.cfg.preamble_slot
        t = (n + 4) / 2
        assert sigma2_of_t(50, self.filt, 64, n, t) == 0.0

    def test_no_times_give_empty_results(self):
        # The slot range of no times used to be a reduction over an empty array.
        n = self.cfg.preamble_slot
        assert nu_of_t(self.preamble, self.filt, n, []).shape == (0,)
        assert sigma2_of_t(2, self.filt, 64, n, []).shape == (0,)
        assert signal_at_times(self.preamble, self.filt, self.cfg, [], 3).shape == (3, 0)

    def test_sigma2_decreases_with_guards(self):
        n = self.cfg.preamble_slot
        t = np.linspace((n + 2) / 2, (n + 6) / 2, 65)
        maxima = [np.max(sigma2_of_t(g, self.filt, 64, n, t)) for g in range(5)]
        assert all(b < a for a, b in zip(maxima, maxima[1:]))

    def test_sigma2_matches_empirical_variance(self):
        cfg = FrameConfig(subcarriers=64, guards=1, oversample=4, rng_seed=5)
        filt = self.filt
        n = cfg.preamble_slot
        t = np.array([(n + 4) / 2])  # window center
        trials = 50_000
        # zero preamble isolates the data interference term
        s = signal_at_times(np.zeros(64), filt, cfg, t, trials)[:, 0]
        per_component = 0.5 * float(np.mean(np.abs(s) ** 2))
        predicted = sigma2_of_t(cfg.guards, filt, 64, n, float(t[0]))
        assert per_component == pytest.approx(predicted, rel=0.02)


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


class TestIaprExceedance:
    def test_alpha_zero(self):
        model = RicianPointModel(t=0.0, nu=1.0, sigma=1.0, p_avg=2.0)
        assert iapr_exceedance(0.0, model) == 1.0

    def test_sigma_zero_indicator(self):
        model = RicianPointModel(t=0.0, nu=2.0, sigma=0.0, p_avg=2.0)
        assert iapr_exceedance(1.9, model) == 1.0
        assert iapr_exceedance(2.1, model) == 0.0

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

    def test_window_geometry(self):
        sig = synthesize(build_frame(self.cfg, self.preamble), self.filt, self.cfg)
        win = AnalysisWindow.for_signal(sig, self.cfg.preamble_slot)
        assert win.length == 2 * self.cfg.samples_per_symbol
        t_start = sig.times[win.start_index]
        assert t_start == pytest.approx((self.cfg.preamble_slot + 2) / 2)

    def test_out_of_range_window(self):
        sig = synthesize(build_frame(self.cfg, self.preamble), self.filt, self.cfg)
        with pytest.raises(AnalysisError):
            papr(sig, AnalysisWindow(0, len(sig.samples) - 4, 8), 1.0)

    @pytest.mark.parametrize("p_avg", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_average_power_not_finite_and_positive(self, p_avg):
        # 0 divided by zero, -1 was a bare math domain error and NaN returned NaN.
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
        r1 = monte_carlo_ccdf(self.preamble, self.filt, self.cfg, 100, chunk=7)
        r2 = monte_carlo_ccdf(self.preamble, self.filt, self.cfg, 100, chunk=100)
        assert np.array_equal(r1.exceed_prob, r2.exceed_prob)

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
        with pytest.raises(AnalysisError, match="trials"):
            papr_samples(self.preamble, self.filt, self.cfg, trials=-3)
        t = np.array([(self.cfg.preamble_slot + 4) / 2])
        with pytest.raises(AnalysisError, match="trials"):
            signal_at_times(self.preamble, self.filt, self.cfg, t, trials=-2)

    def test_export(self, tmp_path):
        res = monte_carlo_ccdf(self.preamble, self.filt, self.cfg, 50)
        path = tmp_path / "ccdf.csv"
        res.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "threshold_db,exceed_prob,exceed_count,wilson95_low,wilson95_high"
        assert len(lines) == 1 + len(default_thresholds())
        counts = [int(line.split(",")[2]) for line in lines[1:]]
        assert counts == res.exceed_count.tolist()
        assert np.array_equal(res.exceed_prob, res.exceed_count / 50)
        obj = json.loads(res.to_json())
        assert obj["trials"] == 50
        assert obj["exceed_count"] == counts
        low, high = res.wilson95
        assert obj["wilson95_low"] == low.tolist() and obj["wilson95_high"] == high.tolist()


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
                                              (0, float("nan"))])
    def test_rejects_counts_outside_their_range(self, hits, trials):
        # These gave NaN with a RuntimeWarning.
        with pytest.raises(AnalysisError):
            analysis.wilson_interval(hits, trials)
