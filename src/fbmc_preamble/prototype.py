"""Sampled prototype filters and their peak-power bounds.

Time is normalized to the complex symbol interval (T = 1) everywhere, so a
filter with overlap K spans [0, K] and is sampled at L points per symbol.
Discrete energy is forced to exactly one after sampling.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .checks import check_integer


class FilterError(ValueError):
    """Unsupported prototype filter parameters."""


# Frequency-sampling coefficients F_1..F_{K-1} of the PHYDYAS filter.
PHYDYAS_COEFFS = {
    4: (0.97196, 1.0 / math.sqrt(2.0), math.sqrt(1.0 - 0.97196**2)),
    3: (0.911438, 0.411438),
}

# Gaussian-Hermite expansion weights, even orders 0..20.
HERMITE_WEIGHTS = (
    (0, 1.412682577),
    (4, -3.0145e-3),
    (8, -8.8041e-6),
    (12, -2.2611e-9),
    (16, -4.4570e-15),
    (20, 1.8633e-16),
)

_HERMITE_ORDER_GUARD = 30


@dataclass(frozen=True)
class PrototypeFilter:
    kind: str                     # "phydyas" | "hermite"
    overlap: int                  # K, filter length in symbol intervals
    samples_per_symbol: int       # L
    taps: np.ndarray = field(compare=False)

    @property
    def dt(self) -> float:
        return 1.0 / self.samples_per_symbol

    @property
    def energy(self) -> float:
        return float(np.sum(self.taps**2) * self.dt)

    @property
    def peak(self) -> float:
        return float(np.max(self.taps))

    def __setstate__(self, state):
        # Pickle drops the read-only flag that _normalized sets.
        self.__dict__.update(state)
        self.taps.flags.writeable = False

    def __call__(self, t: float) -> float:
        """Nearest-sample lookup of g(t) at one float time t (a numpy float
        passes); zero outside [0, K).  Python's round rounds ties to even.
        Raises FilterError for a t that is not a float."""
        if not isinstance(t, float):
            raise FilterError(f"t must be a float, not {t!r}")
        if not 0.0 <= t < self.overlap:
            return 0.0
        i = round(t * self.samples_per_symbol)
        taps = self.taps
        return taps.item(i if i < len(taps) else -1)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["index", "t", "tap"])
            for k, tap in enumerate(self.taps):
                w.writerow([k, f"{k * self.dt:.9g}", f"{tap:.12g}"])


def _normalized(kind: str, overlap: int, L: int, g: np.ndarray) -> PrototypeFilter:
    g = g / math.sqrt(np.sum(g * g) / L)
    # Shared by every sampler and synthesize call: a write would change results silently.
    g.flags.writeable = False
    return PrototypeFilter(kind=kind, overlap=overlap, samples_per_symbol=L, taps=g)


def phydyas_taps(overlap: int, samples_per_symbol: int) -> PrototypeFilter:
    """Frequency-sampled cosine-sum filter on [0, K], K in {3, 4}."""
    overlap = check_integer("overlap", overlap, FilterError)
    coeffs = PHYDYAS_COEFFS.get(overlap)
    if coeffs is None:
        raise FilterError(f"unsupported PHYDYAS overlap {overlap}")
    L = check_integer("samples_per_symbol", samples_per_symbol, FilterError, 2)
    t = np.arange(overlap * L) / L
    acc = np.ones_like(t)
    for k, fk in enumerate(coeffs, start=1):
        acc += 2.0 * (-1.0) ** k * fk * np.cos(2.0 * np.pi * k * t / overlap)
    a = overlap * (1.0 + 2.0 * sum(f * f for f in coeffs))
    return _normalized("phydyas", overlap, L, acc / math.sqrt(a))


def hermite_poly(order: int, x) -> np.ndarray | float:
    """Physicists' Hermite polynomial H_k via the three-term recurrence."""
    order = check_integer("order", order, FilterError, 0)
    if order > _HERMITE_ORDER_GUARD:
        raise FilterError(f"order {order} beyond double-precision guard")
    x = np.asarray(x, dtype=float)
    h_prev, h = np.ones_like(x), 2.0 * x
    if order == 0:
        return h_prev if h_prev.ndim else float(h_prev)
    for k in range(1, order):
        h_prev, h = h, 2.0 * x * h - 2.0 * k * h_prev
    return h if h.ndim else float(h)


def hermite_taps(samples_per_symbol: int) -> PrototypeFilter:
    """Gaussian times a sum of even Hermite polynomials, overlap 4."""
    L = check_integer("samples_per_symbol", samples_per_symbol, FilterError, 2)
    overlap = 4
    t = np.arange(overlap * L) / L
    u = t - overlap / 2.0
    # Summation order fixed (descending order k) for bit reproducibility.
    acc = np.zeros_like(t)
    for order, weight in sorted(HERMITE_WEIGHTS, reverse=True):
        acc += weight * hermite_poly(order, 2.0 * math.sqrt(math.pi) * u)
    g = np.exp(-2.0 * np.pi * u * u) * acc
    return _normalized("hermite", overlap, L, g)


def make_filter(name: str, samples_per_symbol: int) -> PrototypeFilter:
    """Filter from a CLI-style name: phydyas3, phydyas4 or hermite."""
    if name == "phydyas4":
        return phydyas_taps(4, samples_per_symbol)
    if name == "phydyas3":
        return phydyas_taps(3, samples_per_symbol)
    if name == "hermite":
        return hermite_taps(samples_per_symbol)
    raise FilterError(f"unknown filter {name!r}")


def papr_bound_sigma0(filt: PrototypeFilter) -> float:
    """Guard-dominated PAPR ceiling in dB: 10 log10(T max g^2) with T = 1."""
    return 10.0 * math.log10(filt.peak**2)
