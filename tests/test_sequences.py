import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fbmc_preamble.sequences import (GOLAY_C16, GOLAY_D16, GbfSpec,
                                     PhaseSequence, SequenceError,
                                     array_to_signs, complex_from_json,
                                     complex_to_json, dj_pair, gcp_residual,
                                     golay_seed, iamc_preamble, is_gcp,
                                     mseq_preamble, phase_transform,
                                     signs_to_array, sparse_golay_preamble,
                                     sparsify)

RNG = np.random.default_rng(20240817)


def aacf(c: np.ndarray, tau: int) -> complex:
    """Oracle: aperiodic autocorrelation sum_m c_m conj(c_{m+tau}), tau >= 0,
    as a direct sum."""
    c = np.asarray(c, dtype=complex)
    return complex(np.dot(c[: len(c) - tau], np.conj(c[tau:])))


COMPLEX = st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False)


def random_dj_spec(rng, q_choices=(2, 4), mu_range=(2, 6)) -> GbfSpec:
    q = int(rng.choice(q_choices))
    mu = int(rng.integers(mu_range[0], mu_range[1] + 1))
    return GbfSpec(
        q=q,
        mu=mu,
        pi=tuple(rng.permutation(mu) + 1),
        b=tuple(rng.integers(0, q, mu)),
        const=int(rng.integers(0, q)),
        offset=int(rng.integers(0, q)),
    )


def dj_phases_by_index(spec: GbfSpec) -> tuple[list[int], list[int]]:
    """Oracle: (Q/2) sum_k x_{pi(k)} x_{pi(k+1)} + sum_k b_k x_k + const and
    its partner's + (Q/2) x_{pi(1)} + offset, evaluated index by index in
    Python integers, x_k being bit k-1 of the index."""
    pi = spec.pi
    c, d = [], []
    for kappa in range(1 << spec.mu):
        x = {k: (kappa >> (k - 1)) & 1 for k in range(1, spec.mu + 1)}
        f = spec.q // 2 * sum(x[pi[k]] * x[pi[k + 1]] for k in range(spec.mu - 1))
        f += sum(b * x[k] for k, b in enumerate(spec.b, start=1)) + spec.const
        c.append(f % spec.q)
        d.append((f + spec.q // 2 * x[pi[0]] + spec.offset) % spec.q)
    return c, d


@settings(max_examples=60, deadline=None)
@given(mu=st.integers(1, 8), half_q=st.integers(1, 2**20), data=st.data())
def test_dj_pair_equals_per_index_evaluation(mu, half_q, data):
    q = 2 * half_q
    coeff = st.integers(0, q - 1)
    spec = GbfSpec(q=q, mu=mu, pi=tuple(data.draw(st.permutations(range(1, mu + 1)))),
                   b=tuple(data.draw(st.lists(coeff, min_size=mu, max_size=mu))),
                   const=data.draw(coeff), offset=data.draw(coeff))
    c, d = dj_pair(spec)
    assert (c.phases.tolist(), d.phases.tolist()) == dj_phases_by_index(spec)


class TestDjPair:
    def test_length16_pair_matches_published_signs(self):
        # The published example 16-chip pair; its parameters stated there
        # correspond to b applied through pi and offset 1 (see notes).
        spec = GbfSpec(q=2, mu=4, pi=(2, 3, 4, 1), b=(1, 1, 1, 0), offset=1)
        c, d = dj_pair(spec)
        assert array_to_signs(c.to_complex()) == GOLAY_C16
        assert array_to_signs(d.to_complex()) == GOLAY_D16

    def test_as_printed_parameters_still_give_gcp(self):
        spec = GbfSpec(q=2, mu=4, pi=(2, 3, 4, 1), b=(1, 1, 0, 1))
        c, d = dj_pair(spec)
        assert is_gcp(c.to_complex(), d.to_complex(), 1e-12)

    def test_mu1_trivial_pair(self):
        spec = GbfSpec(q=2, mu=1, pi=(1,), b=(0,))
        c, d = dj_pair(spec)
        assert c.to_complex().tolist() == [1, 1]
        assert d.to_complex().tolist() == [1, -1]

    def test_odd_modulus_rejected(self):
        with pytest.raises(SequenceError):
            GbfSpec(q=3, mu=2, pi=(1, 2), b=(0, 0))

    def test_non_permutation_rejected(self):
        with pytest.raises(SequenceError):
            GbfSpec(q=2, mu=3, pi=(1, 1, 2), b=(0, 0, 0))

    def test_random_specs_are_complementary(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            spec = random_dj_spec(rng)
            c, d = dj_pair(spec)
            assert gcp_residual(c.to_complex(), d.to_complex()) < 1e-9


class TestAacf:
    def test_zero_shift_is_energy(self):
        assert aacf(np.ones(4), 0) == 4

    def test_two_term_shift(self):
        assert aacf(np.array([1.0, -1.0]), 1) == -1

    def test_published_pair_antisymmetry(self):
        c = signs_to_array(GOLAY_C16)
        d = signs_to_array(GOLAY_D16)
        for tau in range(1, 16):
            assert aacf(c, tau) == pytest.approx(-aacf(d, tau), abs=1e-12)

    @given(st.lists(COMPLEX, min_size=1, max_size=24), st.data())
    @settings(max_examples=80, deadline=None)
    def test_scaling_property(self, values, data):
        c = np.asarray(values)
        tau = data.draw(st.integers(0, len(c) - 1))
        alpha = data.draw(st.complex_numbers(min_magnitude=0.1, max_magnitude=4,
                                             allow_nan=False, allow_infinity=False))
        lhs = aacf(alpha * c, tau)
        rhs = abs(alpha) ** 2 * aacf(c, tau)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)
        assert aacf(c, 0) == pytest.approx(np.sum(np.abs(c) ** 2), rel=1e-12)


class TestGcpResidual:
    @given(st.lists(st.tuples(COMPLEX, COMPLEX), min_size=1, max_size=24))
    @settings(max_examples=100, deadline=None)
    def test_equals_direct_autocorrelation_sums(self, pairs):
        # Any complex pair, complementary or not.
        c, d = np.array(pairs).T
        expected = max((abs(aacf(c, tau) + aacf(d, tau)) for tau in range(1, len(c))),
                       default=0.0)
        assert gcp_residual(c, d) == pytest.approx(expected, rel=0, abs=1e-9)


class TestIsGcp:
    def test_published_pair(self):
        assert is_gcp(signs_to_array(GOLAY_C16), signs_to_array(GOLAY_D16), 1e-12)

    def test_identical_pair_fails(self):
        assert not is_gcp(np.ones(2), np.ones(2), 1e-12)

    def test_length_mismatch(self):
        with pytest.raises(SequenceError):
            is_gcp(np.ones(4), np.ones(3))


class TestPhaseTransform:
    def test_all_ones(self):
        out = phase_transform(np.ones(4))
        assert out.tolist() == [1, 1j, -1, -1j]

    def test_energy_preserved(self):
        c = RNG.normal(size=16) + 1j * RNG.normal(size=16)
        out = phase_transform(c)
        assert np.sum(np.abs(out) ** 2) == pytest.approx(np.sum(np.abs(c) ** 2))

    def test_fourth_power_identity(self):
        c = RNG.normal(size=8)
        out = c
        for _ in range(4):
            out = phase_transform(out)
        assert np.allclose(out, c)

    def test_binary_pair_lifts_to_quaternary_gcp(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            spec = random_dj_spec(rng, q_choices=(2,))
            c, d = dj_pair(spec)
            ct = phase_transform(c.to_complex())
            dt = phase_transform(d.to_complex())
            assert is_gcp(ct, dt, 1e-9)


class TestSparsify:
    def test_pilot_layout(self):
        out = sparsify(golay_seed(32), 15, 512)
        assert np.count_nonzero(out) == 32
        nz = np.nonzero(out)[0]
        assert np.array_equal(nz, np.arange(0, 512, 16))
        assert np.allclose(np.abs(out[nz]), 4.0)
        assert np.sum(np.abs(out) ** 2) == pytest.approx(512, rel=1e-12)

    def test_dense_case(self):
        c = signs_to_array(GOLAY_C16)
        out = sparsify(c, 0, 16)
        assert np.allclose(out, c)

    def test_preserves_complementarity(self):
        c, d = signs_to_array(GOLAY_C16), signs_to_array(GOLAY_D16)
        assert is_gcp(sparsify(c, 3, 64), sparsify(d, 3, 64), 1e-9)

    def test_bad_target_length(self):
        with pytest.raises(SequenceError):
            sparsify(np.ones(4), 2, 16)


class TestBaselines:
    def test_mseq_layout(self):
        out = mseq_preamble(512)
        nz = np.nonzero(out)[0]
        assert np.array_equal(nz, np.arange(0, 512, 16))
        assert np.allclose(np.abs(out[nz]), 4.0)

    def test_mseq_core_periodic_autocorrelation(self):
        core = mseq_preamble(32).real  # dense case: the 31-chip run plus '+'
        m31 = core[:31]
        for tau in range(1, 31):
            assert np.dot(m31, np.roll(m31, tau)) == pytest.approx(-1.0)

    def test_mseq_dense_literal(self):
        out = mseq_preamble(32)
        assert array_to_signs(out) == "+----+--+-++--+++++---++-+++-+-" + "+"

    def test_mseq_rejects_bad_length(self):
        with pytest.raises(SequenceError):
            mseq_preamble(100)

    def test_iamc_first_entries(self):
        assert iamc_preamble(4).tolist() == [1, -1j, -1, 1j]

    def test_iamc_transform_is_all_ones(self):
        assert np.allclose(phase_transform(iamc_preamble(512)), 1.0)

    def test_iamc_energy(self):
        assert np.sum(np.abs(iamc_preamble(100)) ** 2) == pytest.approx(100)

    def test_sparse_golay_seed32_matches_concatenation(self):
        # length-32 seed is the 16-chip c followed by the negated partner
        c, d = signs_to_array(GOLAY_C16), signs_to_array(GOLAY_D16)
        assert np.array_equal(golay_seed(32), np.concatenate([c, -d]))

    def test_golay_seeds_are_golay(self):
        for length in (2, 4, 8, 16, 32, 64, 128):
            seed = golay_seed(length)
            # each Golay sequence obeys the OFDM envelope bound
            env = np.abs(np.fft.fft(seed, 16 * length))
            assert env.max() <= np.sqrt(2 * length) * (1 + 1e-9)

    def test_sparse_golay_energy(self):
        out = sparse_golay_preamble(512, 64)
        assert np.sum(np.abs(out) ** 2) == pytest.approx(512)
        assert np.count_nonzero(out) == 64


class TestSerialization:
    def test_phase_sequence_roundtrip(self):
        seq = PhaseSequence(modulus=4, phases=np.array([0, 1, 2, 3, 2]))
        back = PhaseSequence.from_json(json.dumps({"modulus": 4,
                                                   "phases": seq.phases.tolist()}))
        assert back.modulus == 4
        assert np.array_equal(back.phases, seq.phases)
        assert np.array_equal(back.to_complex(), [1, 1j, -1, -1j, -1])

    @pytest.mark.parametrize("obj", [{"modulus": "x", "phases": [0]},
                                     {"modulus": 2.0, "phases": [0]},
                                     {"modulus": True, "phases": [0]},
                                     {"phases": [0]},
                                     {"modulus": 4, "phases": [0.5]},
                                     {"modulus": 4, "phases": [1, None]},
                                     {"modulus": 4, "phases": [1, True]},
                                     {"modulus": 4, "phases": [[0], [1, 2]]},
                                     {"modulus": 4, "phases": 3},
                                     {"modulus": 4, "phases": [2**70]},
                                     {"modulus": 4, "phases": [4]},
                                     [0, 1]])
    def test_phase_sequence_rejects_malformed_json(self, obj):
        with pytest.raises(SequenceError):
            PhaseSequence.from_json(json.dumps(obj))

    def test_large_modulus_needs_no_root_table(self):
        text = json.dumps({"modulus": 10**15, "phases": [0, 10**15 // 2]})
        seq = PhaseSequence.from_json(text)
        assert np.allclose(seq.to_complex(), [1, -1])

    def test_complex_roundtrip(self):
        c = RNG.normal(size=9) + 1j * RNG.normal(size=9)
        assert np.allclose(complex_from_json(complex_to_json(c)), c)

    @pytest.mark.parametrize("obj", [{"re": ["a"], "im": ["b"]}, {"re": None, "im": None},
                                     {"re": [1.0]}, {"re": 1.0, "im": 0.0},
                                     {"re": [[1.0]], "im": [[0.0]]},
                                     {"re": [1.0, True], "im": [0.0, 0.0]},
                                     {"re": [1.0, 2.0], "im": [0.0]}, [1.0]])
    def test_complex_rejects_malformed_json(self, obj):
        with pytest.raises(SequenceError):
            complex_from_json(json.dumps(obj))

    def test_spec_roundtrip(self):
        spec = GbfSpec(q=4, mu=3, pi=(3, 1, 2), b=(1, 0, 2), const=3, offset=2)
        assert GbfSpec(**json.loads(spec.to_json())) == spec

    def test_json_field_names(self):
        obj = json.loads(complex_to_json(np.array([1 + 2j])))
        assert set(obj) == {"re", "im"}
