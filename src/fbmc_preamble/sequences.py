"""Golay complementary pairs and preamble sequence constructions.

The Davis-Jedwab construction evaluates a quadratic-path generalized
Boolean function (GBF) over Z_Q into a Golay complementary pair (GCP) of
phase sequences of length 2^mu.  Baseline preambles (sparse Kronecker
pilots, m-sequence, IAM-C) live here as well.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

# Exact unit circle points for the common moduli, so binary/quaternary
# sequences convert without floating-point phase error.
_EXACT_ROOTS = {
    1: np.array([1.0 + 0j]),
    2: np.array([1.0 + 0j, -1.0 + 0j]),
    4: np.array([1.0 + 0j, 1j, -1.0 + 0j, -1j]),
}


class SequenceError(ValueError):
    """Invalid sequence construction parameters."""


@dataclass(frozen=True)
class PhaseSequence:
    """Length-N sequence of phases over Z_Q."""

    modulus: int
    phases: np.ndarray = field(compare=False)

    def __post_init__(self):
        phases = np.asarray(self.phases, dtype=np.int64)
        if self.modulus < 1:
            raise SequenceError("modulus must be positive")
        if np.any((phases < 0) | (phases >= self.modulus)):
            raise SequenceError("phase entries must lie in [0, Q)")
        object.__setattr__(self, "phases", phases)

    def __len__(self):
        return len(self.phases)

    def to_complex(self) -> np.ndarray:
        """Unit-magnitude amplitudes omega^phase with omega = exp(j2pi/Q)."""
        roots = _EXACT_ROOTS.get(self.modulus)
        if roots is None:
            return np.exp(2j * np.pi * self.phases / self.modulus)
        return roots[self.phases]

    @classmethod
    def from_json(cls, text: str) -> "PhaseSequence":
        """Reads {"modulus": Q, "phases": [...]}, all integers."""
        obj = json.loads(text)
        phases = _json_list(obj, "phases", integers=True)
        modulus = obj.get("modulus")
        if type(modulus) is not int:
            raise SequenceError(f"modulus must be an integer, not {modulus!r}")
        return cls(modulus=modulus, phases=phases)


def _json_list(obj, key: str, integers: bool) -> np.ndarray:
    """obj[key] as a 1-D array of integers, or of reals if not `integers`;
    raises SequenceError for a missing key or any other value."""
    try:
        value = obj[key]
        arr = np.asarray(value)
    except (KeyError, TypeError, ValueError):     # no such key, or ragged
        arr = None
    kinds = "iu" if integers else "iuf"
    if (arr is None or arr.ndim != 1 or (arr.size and arr.dtype.kind not in kinds)
            or any(type(v) is bool for v in value)):      # numpy reads true as 1
        raise SequenceError(f"{key} must be a list of {'integers' if integers else 'numbers'}")
    return arr


def complex_to_json(c: np.ndarray) -> str:
    c = np.asarray(c, dtype=complex)
    return json.dumps({"re": c.real.tolist(), "im": c.imag.tolist()})


def complex_from_json(text: str) -> np.ndarray:
    obj = json.loads(text)
    re, im = (_json_list(obj, key, integers=False).astype(float) for key in ("re", "im"))
    if re.shape != im.shape:
        raise SequenceError(f"re and im differ in length ({re.size} != {im.size})")
    return re + 1j * im


@dataclass(frozen=True)
class GbfSpec:
    """Parameters of a Davis-Jedwab Golay pair.

    The underlying GBF is (Q/2) * sum_k x_{pi(k)} x_{pi(k+1)} + sum_k b_k x_k + const,
    and the partner adds (Q/2) x_{pi(1)} + offset.
    """

    q: int
    mu: int
    pi: tuple[int, ...]
    b: tuple[int, ...]
    const: int = 0
    offset: int = 0

    def __post_init__(self):
        if self.q < 2 or self.q % 2 != 0:
            raise SequenceError("modulus Q must be a positive even integer")
        if self.mu < 1:
            raise SequenceError("mu must be >= 1")
        pi = tuple(int(v) for v in self.pi)
        b = tuple(int(v) for v in self.b)
        if sorted(pi) != list(range(1, self.mu + 1)):
            raise SequenceError("pi must be a permutation of 1..mu")
        if len(b) != self.mu:
            raise SequenceError("b must have mu entries")
        if any(not 0 <= v < self.q for v in b + (self.const, self.offset)):
            raise SequenceError("coefficients must lie in [0, Q)")
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "b", b)

    def to_json(self) -> str:
        return json.dumps(
            {"q": self.q, "mu": self.mu, "pi": list(self.pi), "b": list(self.b),
             "const": self.const, "offset": self.offset}
        )


def dj_pair(spec: GbfSpec) -> tuple[PhaseSequence, PhaseSequence]:
    """Davis-Jedwab Golay complementary pair of length 2^mu over Z_Q: the
    spec's GBF and its partner evaluated at kappa = 0..2^mu-1, where x_k is
    bit k-1 of kappa (x_1 the least significant bit)."""
    kappa = np.arange(1 << spec.mu)
    x = (kappa >> np.arange(spec.mu)[:, None]) & 1      # x[k - 1] = x_k
    path = x[np.array(spec.pi) - 1]                      # path[k - 1] = x_{pi(k)}
    half = spec.q // 2
    f = half * np.sum(path[:-1] * path[1:], axis=0) + np.array(spec.b) @ x + spec.const
    partner = f + half * path[0] + spec.offset
    return (PhaseSequence(modulus=spec.q, phases=f % spec.q),
            PhaseSequence(modulus=spec.q, phases=partner % spec.q))


def is_gcp(c: np.ndarray, d: np.ndarray, tol: float = 1e-9) -> bool:
    """True iff the aperiodic autocorrelations of c and d cancel at every
    nonzero shift, to within tol."""
    return gcp_residual(c, d) <= tol


def gcp_residual(c: np.ndarray, d: np.ndarray) -> float:
    """max_{tau != 0} |rho_c(tau) + rho_d(tau)|, the complementarity defect,
    where rho_c(tau) = sum_m c_m conj(c_{m+tau}) is the aperiodic
    autocorrelation."""
    c = np.asarray(c, dtype=complex)
    d = np.asarray(d, dtype=complex)
    if c.shape != d.shape:
        raise SequenceError("pair members must have equal length")
    if len(c) < 2:
        return 0.0
    # Entry len(c) - 1 - tau of the full correlation is rho(tau), tau >= 0.
    resid = (np.correlate(c, c, "full") + np.correlate(d, d, "full"))[:len(c) - 1]
    return float(np.max(np.abs(resid)))


def phase_transform(c: np.ndarray) -> np.ndarray:
    """Multiply entry m by j^m (the subcarrier phase ramp of FBMC/OQAM)."""
    c = np.asarray(c, dtype=complex)
    return c * _EXACT_ROOTS[4][np.arange(len(c)) % 4]


def sparsify(c: np.ndarray, d: int, m_total: int) -> np.ndarray:
    """Kronecker-expand c with d zeros after each entry and scale so the
    result has energy m_total.  Pilot spacing is d+1."""
    c = np.asarray(c, dtype=complex)
    if d < 0:
        raise SequenceError("sparsity gap must be >= 0")
    if m_total != (d + 1) * len(c):
        raise SequenceError(f"target length {m_total} != (d+1)*len(c) = {(d + 1) * len(c)}")
    out = np.zeros(m_total, dtype=complex)
    out[:: d + 1] = math.sqrt(m_total / len(c)) * c
    return out


# Example-2 pair of the Davis-Jedwab construction (Q=2, mu=4), kept as
# literals because the published Fig.-4 comparison is pinned to them.
GOLAY_C16 = "+--+-+-+++--++++"
GOLAY_D16 = "-+-++--+------++"

# 31-chip maximal-length sequence (periodic autocorrelation -1 at every
# nonzero shift) used by the baseline sparse preamble.
MSEQ31 = "+----+--+-++--+++++---++-+++-+-"


def signs_to_array(s: str) -> np.ndarray:
    if set(s) - {"+", "-"}:
        raise SequenceError("sign string may contain only '+' and '-'")
    return np.array([1.0 if ch == "+" else -1.0 for ch in s])


def array_to_signs(c: np.ndarray) -> str:
    return "".join("+" if v.real > 0 else "-" for v in np.asarray(c))


def golay_seed(length: int) -> np.ndarray:
    """A binary Golay sequence of the given power-of-two length.

    Lengths >= 32 start from the 16-chip pair (c, d) above and grow by the
    concatenation rule (c|d, c|-d); length 32 is therefore c|-d, whose
    partner is c|d.  Shorter lengths come from a canonical DJ spec.
    """
    if length < 1 or length & (length - 1):
        raise SequenceError("seed length must be a power of two")
    if length <= 16:
        mu = length.bit_length() - 1
        if mu == 0:
            return np.array([1.0])
        spec = GbfSpec(q=2, mu=mu, pi=tuple(range(1, mu + 1)), b=(0,) * mu)
        return dj_pair(spec)[0].to_complex().real
    c, d = signs_to_array(GOLAY_C16), signs_to_array(GOLAY_D16)
    while 2 * len(c) <= length:
        c, d = np.concatenate([c, -d]), np.concatenate([c, d])
    return c


def sparse_golay_preamble(m_total: int, pilot_count: int) -> np.ndarray:
    """Equi-spaced, equi-powered pilot preamble built from a binary Golay
    seed of length pilot_count, energy m_total."""
    if pilot_count < 1 or m_total % pilot_count:
        raise SequenceError("subcarrier count must be a multiple of the pilot count")
    seed = golay_seed(pilot_count)
    return sparsify(seed, m_total // pilot_count - 1, m_total)


def mseq_preamble(m_total: int) -> np.ndarray:
    """Baseline sparse preamble from the 31-chip m-sequence with a trailing
    '+' appended, Kronecker-expanded to length m_total (multiple of 32)."""
    if m_total % 32:
        raise SequenceError("length must be divisible by 32")
    core = np.concatenate([signs_to_array(MSEQ31), [1.0]])
    return sparsify(core, m_total // 32 - 1, m_total)


def iamc_preamble(m_total: int) -> np.ndarray:
    """Dense baseline preamble c_m = j^(-m): its phase transform is the
    all-ones sequence, so every subcarrier adds coherently."""
    if m_total < 1:
        raise SequenceError("length must be >= 1")
    return _EXACT_ROOTS[4][(-np.arange(m_total)) % 4].copy()
