import math
import pickle

import numpy as np
import pytest

from fbmc_preamble.analysis import _WindowSampler
from fbmc_preamble.prototype import (HERMITE_WEIGHTS, FilterError, PrototypeFilter,
                                     hermite_poly, hermite_taps, make_filter,
                                     papr_bound_sigma0, phydyas_taps)
from fbmc_preamble.sequences import sparse_golay_preamble
from fbmc_preamble.waveform import FrameConfig, build_frame, synthesize
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

    @pytest.mark.parametrize("L", [2, 64, 129, 256, 2048])
    def test_taps_equal_the_per_order_sum(self, L):
        # hermite_taps runs the recurrence once to order 20; summing one
        # hermite_poly call per weight, in the same descending order, gives
        # the same bytes.
        u = np.arange(4 * L) / L - 4 / 2.0
        acc = np.zeros(4 * L)
        for order, weight in sorted(HERMITE_WEIGHTS, reverse=True):
            acc += weight * hermite_poly(order, 2.0 * math.sqrt(math.pi) * u)
        g = np.exp(-2.0 * np.pi * u * u) * acc
        g = g / math.sqrt(np.sum(g * g) / L)
        assert hermite_taps(L).taps.tobytes() == g.tobytes()

    @pytest.mark.parametrize("x", [None, [1.0, None], 1j, np.array([0.5, 1j]), "abc",
                                   True, np.array([True, False])],
                             ids=["None", "list-with-None", "complex", "complex-array",
                                  "str", "bool", "bool-array"])
    def test_refuses_x_that_is_not_real(self, x):
        # None gave nan, 1j a bare TypeError, "abc" a bare ValueError, and
        # True was read as 1.0.
        with pytest.raises(FilterError, match="not real"):
            hermite_poly(2, x)

    def test_integer_and_float_x_keep_their_values(self):
        # H_2(x) = 4x^2 - 2
        for x in (2, np.int64(2), np.uint8(2), 2.0, np.float32(2.0)):
            value = hermite_poly(2, x)
            assert type(value) is float and value == 14.0
        assert hermite_poly(2, [0, 1, 2]).tolist() == [-2.0, 2.0, 14.0]
        assert hermite_poly(2, np.array([0.5, 2.0], np.float32)).tolist() == [-1.0, 14.0]

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
        filt = make_filter("hermite", 32)
        with pytest.raises(ValueError, match="read-only"):
            filt.taps[0] = 0.0

    def test_taps_cannot_be_made_writeable_again(self):
        # Every caller of make_filter shares one filter: a flag set back to
        # writeable would let one of them change the others' results.
        for filt in (make_filter("hermite", 32), phydyas_taps(3, 64)):
            for f in (filt, pickle.loads(pickle.dumps(filt))):
                with pytest.raises(ValueError, match="cannot set WRITEABLE flag"):
                    f.taps.flags.writeable = True
                assert not f.taps.flags.writeable

    def test_pickle_round_trip_is_unchanged_by_use(self):
        # A filter that has served a sampler and synthesize pickles to as
        # many bytes as a fresh one: it keeps nothing that it built.
        cfg = FrameConfig(subcarriers=512, guards=2, oversample=4)
        filt = make_filter("phydyas4", cfg.samples_per_symbol)
        size = len(pickle.dumps(filt))
        preamble = sparse_golay_preamble(512, 32)
        _WindowSampler(preamble, filt, cfg, 1)
        synthesize(build_frame(cfg, preamble), filt, cfg)
        data = pickle.dumps(filt)
        assert len(data) == size
        copy = pickle.loads(data)
        assert copy == filt and np.array_equal(copy.taps, filt.taps)
        assert not copy.taps.flags.writeable

    def test_unpickled_taps_are_read_only(self):
        # Pickle drops numpy's read-only flag: an unpickled copy, such as an
        # engine worker's, took taps[0] = 7.0.
        filt = make_filter("phydyas4", 2048)
        copy = pickle.loads(pickle.dumps(filt))
        with pytest.raises(ValueError, match="read-only"):
            copy.taps[0] = 7.0
        assert np.array_equal(copy.taps, filt.taps) and copy == filt
        assert len(pickle.dumps(copy)) == len(pickle.dumps(filt)) == 65_811

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


class TestSharedFilters:
    """make_filter returns one filter per (name, L) and checks both first."""

    def test_equal_arguments_share_one_filter(self):
        filt = make_filter("phydyas4", 2048)
        assert make_filter("phydyas4", 2048) is filt
        same = make_filter("phydyas4", np.int64(2048))
        assert same.taps.tobytes() == filt.taps.tobytes()
        assert type(same.samples_per_symbol) is int

    def test_other_arguments_give_other_filters(self):
        filt = make_filter("phydyas4", 2048)
        others = [make_filter("phydyas3", 2048), make_filter("hermite", 2048),
                  make_filter("phydyas4", 1024)]
        assert [(f.kind, f.overlap, f.samples_per_symbol) for f in others] == [
            ("phydyas", 3, 2048), ("hermite", 4, 2048), ("phydyas", 4, 1024)]
        assert all(f is not filt and f != filt for f in others)

    @pytest.mark.parametrize("name, rate", [
        ("phydyas4", 2048.0), ("phydyas4", np.float64(2048)), ("phydyas4", True),
        ("phydyas4", "2048"), ("phydyas4", [2048]), ("rrc", 2048), (["phydyas4"], 2048),
    ], ids=["float", "np-float64", "bool", "str", "list", "unknown-name", "list-name"])
    def test_a_cached_filter_does_not_pass_unchecked_arguments(self, name, rate):
        # 2048.0 hashes as 2048 and a list is unhashable: the checks run
        # before the cache is asked.
        make_filter("phydyas4", 2048)
        with pytest.raises(FilterError):
            make_filter(name, rate)


class TestIntegerArguments:
    """The builders take an integer overlap and rate and store them as ints."""

    def test_numpy_integers_are_stored_as_ints(self):
        for filt in (make_filter("phydyas4", np.int64(64)), phydyas_taps(np.int32(3), 64),
                     hermite_taps(np.int64(64))):
            assert type(filt.samples_per_symbol) is int and type(filt.overlap) is int
        assert np.array_equal(make_filter("phydyas4", np.int64(64)).taps,
                              make_filter("phydyas4", 64).taps)

    @pytest.mark.parametrize("build, args, name", [
        (make_filter, ("phydyas4", 2048.0), "samples_per_symbol"),
        (make_filter, ("phydyas4", "64"), "samples_per_symbol"),
        (make_filter, ("hermite", True), "samples_per_symbol"),
        (hermite_taps, (64.5,), "samples_per_symbol"),
        (phydyas_taps, (4.0, 64), "overlap"),
        (phydyas_taps, (True, 64), "overlap"),
        (hermite_poly, (2.5, 0.0), "order"),
        (hermite_poly, (True, 0.0), "order"),
    ], ids=["make_filter-2048.0", "make_filter-str", "make_filter-bool", "hermite_taps-64.5",
            "phydyas_taps-4.0", "phydyas_taps-bool", "hermite_poly-2.5", "hermite_poly-bool"])
    def test_refuses_arguments_that_are_not_integers(self, build, args, name):
        with pytest.raises(FilterError, match=f"{name} must be an integer"):
            build(*args)
