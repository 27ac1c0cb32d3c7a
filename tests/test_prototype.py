import math
import pickle

import numpy as np
import pytest

from fbmc_preamble.prototype import (FilterError, PrototypeFilter, hermite_poly,
                                     hermite_taps, make_filter, papr_bound_sigma0,
                                     phydyas_taps)
from lookup_reference import filter_lookup

# Frozen from the closed forms evaluated at high precision.
BOUND_PHYDYAS4 = 1.634912
BOUND_PHYDYAS3 = 1.693316
BOUND_HERMITE = 2.672985


@pytest.mark.parametrize("make", [lambda L: phydyas_taps(4, L),
                                  lambda L: phydyas_taps(3, L),
                                  lambda L: hermite_taps(L)])
@pytest.mark.parametrize("L", [16, 64, 256])
class TestFilterInvariants:
    def test_unit_energy(self, make, L):
        f = make(L)
        assert f.energy == pytest.approx(1.0, abs=1e-9)

    def test_symmetry(self, make, L):
        f = make(L)
        n = len(f.taps)
        assert np.allclose(f.taps[1:], f.taps[:0:-1], atol=1e-12)

    def test_peak_at_center(self, make, L):
        f = make(L)
        assert int(np.argmax(f.taps)) == f.overlap * L // 2


class TestPhydyas:
    def test_k4_edge_tap(self):
        # direct evaluation of the cosine sum at t = 0
        f1, f2, f3 = 0.97196, 1 / math.sqrt(2), math.sqrt(1 - 0.97196**2)
        a = 4 * (1 + 2 * (f1 * f1 + f2 * f2 + f3 * f3))
        expected = (1 - 2 * f1 + 2 * f2 - 2 * f3) / math.sqrt(a)
        filt = phydyas_taps(4, 64)
        assert filt.taps[0] == pytest.approx(expected, rel=1e-9)
        assert filt.taps[0] < 1e-3 * filt.peak

    def test_k4_peak_squared(self):
        filt = phydyas_taps(4, 64)
        assert filt.peak**2 == pytest.approx(1.45711, abs=5e-6)

    def test_unsupported_overlap(self):
        with pytest.raises(FilterError):
            phydyas_taps(5, 64)

    def test_too_few_samples(self):
        with pytest.raises(FilterError):
            phydyas_taps(4, 1)


class TestHermitePoly:
    def test_base_cases(self):
        x = np.linspace(-2, 2, 7)
        assert np.allclose(hermite_poly(0, x), 1.0)
        assert np.allclose(hermite_poly(1, x), 2 * x)

    def test_even_orders_at_zero(self):
        # H_{2n}(0) = (-1)^n (2n)! / n!
        assert hermite_poly(4, 0.0) == 12
        assert hermite_poly(8, 0.0) == 1680
        assert hermite_poly(20, 0.0) == 670442572800

    def test_matches_numpy_hermite(self):
        x = np.linspace(-3, 3, 11)
        for k in range(9):
            coeffs = np.zeros(k + 1)
            coeffs[k] = 1.0
            assert np.allclose(hermite_poly(k, x), np.polynomial.hermite.hermval(x, coeffs))

    def test_order_guard(self):
        with pytest.raises(FilterError):
            hermite_poly(31, 0.0)
        with pytest.raises(FilterError):
            hermite_poly(-1, 0.0)


class TestBounds:
    def test_phydyas4(self):
        assert papr_bound_sigma0(phydyas_taps(4, 64)) == pytest.approx(BOUND_PHYDYAS4, abs=1e-4)

    def test_phydyas3(self):
        assert papr_bound_sigma0(phydyas_taps(3, 64)) == pytest.approx(BOUND_PHYDYAS3, abs=1e-4)

    def test_hermite(self):
        assert papr_bound_sigma0(hermite_taps(64)) == pytest.approx(BOUND_HERMITE, abs=1e-4)

    @pytest.mark.parametrize("name", ["phydyas4", "phydyas3", "hermite"])
    def test_invariant_under_resolution(self, name):
        values = [papr_bound_sigma0(make_filter(name, L)) for L in (64, 256, 1024)]
        assert max(values) - min(values) < 1e-3

    def test_frequency_localization_ordering(self):
        # better time localization -> larger peak tap -> larger bound
        b4 = papr_bound_sigma0(phydyas_taps(4, 64))
        b3 = papr_bound_sigma0(phydyas_taps(3, 64))
        bh = papr_bound_sigma0(hermite_taps(64))
        assert b4 < b3 < bh


class TestUtility:
    def test_make_filter_names(self):
        assert make_filter("phydyas4", 32).overlap == 4
        assert make_filter("phydyas3", 32).overlap == 3
        assert make_filter("hermite", 32).kind == "hermite"
        with pytest.raises(FilterError):
            make_filter("rrc", 32)

    def test_taps_are_read_only(self):
        # The filter keeps the pairs it builds from its taps.
        filt = make_filter("hermite", 32)
        assert filt.pairs is filt.pairs
        with pytest.raises(ValueError, match="read-only"):
            filt.taps[0] = 0.0

    def test_pickle_leaves_out_the_cached_pairs(self):
        filt = make_filter("phydyas4", 2048)
        size = len(pickle.dumps(filt))
        pairs = filt.pairs
        data = pickle.dumps(filt)
        assert len(data) == size
        copy = pickle.loads(data)
        assert copy == filt and np.array_equal(copy.pairs, pairs)
        assert not copy.pairs.flags.writeable

    def test_lookup_outside_support_is_zero(self):
        f = phydyas_taps(4, 64)
        outside = [-0.1, 4.0, 7.3]
        assert [f(t) for t in outside] == [0.0] * 3
        assert np.all(filter_lookup(f, np.array(outside)) == 0.0)
        assert f(2.0) == filter_lookup(f, np.array([2.0]))[0] == f.peak

    @pytest.mark.parametrize("t", [np.array([1.0, 2.0]), np.array(2.0), "2.0", True, 2])
    def test_lookup_refuses_what_is_not_a_float(self, t):
        # An array used to end in numpy's "truth value ... is ambiguous".
        f = phydyas_taps(4, 64)
        with pytest.raises(FilterError, match="t must be a float"):
            f(t)
        assert f(np.float64(2.0)) == f.peak

    def test_csv_export(self, tmp_path):
        f = hermite_taps(16)
        path = tmp_path / "taps.csv"
        f.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "index,t,tap"
        assert len(lines) == 1 + len(f.taps)
