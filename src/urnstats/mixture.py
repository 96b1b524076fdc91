"""Gaussian scale mixtures over station size.

A population of voting stations of size ``n`` voting independently with
probability ``p`` produces a share distribution that is approximately
N(p, p(1-p)/n).  Mixing over a distribution of station sizes gives a scale
mixture of normals, which is Gaussian only when the size measure is a single
atom.  The moment routines here make that statement checkable numerically:
excess kurtosis of the mixture is zero iff the measure has one atom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.stats import norm

__all__ = [
    "SizeMeasure",
    "GaussianComponent",
    "GaussianSumResult",
    "mixture_density",
    "mixture_cdf",
    "mixture_moments",
    "kolmogorov_gaussian_distance",
    "gaussian_sum_modes",
]

KOLMOGOROV_BLOCK = 256  # grid points per mixture_cdf call in kolmogorov_gaussian_distance


@dataclass(frozen=True)
class SizeMeasure:
    """Discrete measure over station sizes: ``atoms[n] = weight``."""

    atoms: dict[int, float]
    normalized: bool = False

    def __post_init__(self):
        for n, w in self.atoms.items():
            if n <= 0:
                raise ValueError(f"station size must be positive, got {n}")
            if w <= 0:
                raise ValueError(f"atom weight must be positive, got {w} at n={n}")
        if self.normalized and abs(self.total() - 1.0) > 1e-12:
            raise ValueError("normalized measure must have total mass 1")

    def total(self) -> float:
        return float(sum(self.atoms.values()))

    def normalize(self) -> "SizeMeasure":
        if not self.atoms:
            raise ValueError("cannot normalize an empty measure")
        t = self.total()
        return SizeMeasure({n: w / t for n, w in self.atoms.items()}, normalized=True)

    def sizes(self) -> np.ndarray:
        return np.array(sorted(self.atoms), dtype=np.int64)

    def weights(self) -> np.ndarray:
        return np.array([self.atoms[n] for n in sorted(self.atoms)], dtype=float)


@dataclass(frozen=True)
class GaussianComponent:
    weight: float
    mean: float
    sigma: float

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        if self.weight <= 0:
            raise ValueError("weight must be positive")


def _sigma2(mu: SizeMeasure, p: float) -> np.ndarray:
    """Per-atom variances p(1-p)/n, in ascending-size order."""
    if not (0.0 < p < 1.0):
        raise ValueError("p must lie strictly inside (0, 1)")
    if not mu.normalized:
        raise ValueError("size measure must be normalized")
    return p * (1.0 - p) / mu.sizes().astype(float)


def mixture_density(mu: SizeMeasure, p: float, x):
    """Density of the size-mixed share distribution at x (scalar or array).

    Sum over atoms n of w_n * N(p, p(1-p)/n) evaluated at x.  At p = 1/2 the
    n-th term is sqrt(2n/pi) * exp(-2n (x - 1/2)^2).
    """
    x = np.asarray(x, dtype=float)
    s2 = _sigma2(mu, p)
    w = mu.weights()
    z = (x[..., None] - p) ** 2 / (2.0 * s2)
    dens = np.sum(w / np.sqrt(2.0 * math.pi * s2) * np.exp(-z), axis=-1)
    return float(dens) if dens.ndim == 0 else dens


def mixture_cdf(mu: SizeMeasure, p: float, x):
    """CDF of the size-mixed share distribution at x."""
    x = np.asarray(x, dtype=float)
    s2 = _sigma2(mu, p)
    w = mu.weights()
    cdf = np.sum(w * norm.cdf((x[..., None] - p) / np.sqrt(s2)), axis=-1)
    return float(cdf) if cdf.ndim == 0 else cdf


def mixture_moments(mu: SizeMeasure, p: float) -> tuple[float, float, float]:
    """(mean, variance, excess kurtosis) of the size-mixed share distribution.

    For a scale mixture of normals centered at p the fourth central moment is
    3 E[sigma^4], so the excess kurtosis 3 E[sigma^4]/E[sigma^2]^2 - 3 is
    nonnegative and vanishes exactly when the size measure is a single atom.
    """
    s2 = _sigma2(mu, p)
    w = mu.weights()
    var = float(np.sum(w * s2))
    m4 = 3.0 * float(np.sum(w * s2 * s2))
    excess = m4 / (var * var) - 3.0
    return p, var, excess


def kolmogorov_gaussian_distance(mu: SizeMeasure, p: float, grid_points: int = 4001) -> float:
    """Sup-distance between the mixture CDF and the moment-matched Gaussian CDF.

    Evaluated on a grid spanning +-10 of the widest component sigma around p.
    Zero (to grid accuracy) for a single atom, strictly positive otherwise.
    """
    s2 = _sigma2(mu, p)
    _, var, _ = mixture_moments(mu, p)
    smax = math.sqrt(float(np.max(s2)))
    xs = np.linspace(p - 10.0 * smax, p + 10.0 * smax, grid_points)
    fitted = norm.cdf((xs - p) / math.sqrt(var))
    distance = 0.0
    for start in range(0, grid_points, KOLMOGOROV_BLOCK):  # bounds the (points, atoms) temporaries
        block = slice(start, start + KOLMOGOROV_BLOCK)
        distance = max(distance, float(np.max(np.abs(mixture_cdf(mu, p, xs[block]) - fitted[block]))))
    return distance


@dataclass
class GaussianSumResult:
    xs: np.ndarray
    density: np.ndarray
    mode_count: int = 0
    mode_locations: list[float] = field(default_factory=list)


def gaussian_sum_modes(
    components: list[GaussianComponent], grid_step: float
) -> GaussianSumResult:
    """Evaluate a sum of weighted Gaussians on a grid and count its modes.

    The grid spans [min_i(mean_i - 4 sigma_i), max_i(mean_i + 4 sigma_i)].
    A mode is a (plateau-aware) strict local maximum of the sampled values;
    modes closer than grid_step are merged.
    """
    if not components:
        raise ValueError("need at least one component")
    min_sigma = min(c.sigma for c in components)
    if grid_step > min_sigma / 10.0 + 1e-15:
        raise ValueError(
            f"grid_step {grid_step} too coarse: must be <= min sigma / 10 = {min_sigma / 10.0}"
        )
    lo = min(c.mean - 4.0 * c.sigma for c in components)
    hi = max(c.mean + 4.0 * c.sigma for c in components)
    xs = np.arange(lo, hi + grid_step / 2.0, grid_step)
    dens = np.zeros_like(xs)
    for c in components:
        dens += c.weight / (c.sigma * math.sqrt(2.0 * math.pi)) * np.exp(
            -((xs - c.mean) ** 2) / (2.0 * c.sigma**2)
        )

    modes: list[float] = []
    i = 1
    n = len(xs)
    while i < n - 1:
        if dens[i] < dens[i - 1]:
            i += 1
            continue
        # walk any exact plateau
        j = i
        while j + 1 < n and dens[j + 1] == dens[i]:
            j += 1
        if dens[i] > dens[i - 1] and j + 1 < n and dens[i] > dens[j + 1]:
            modes.append(float(xs[(i + j) // 2]))
        i = j + 1

    merged: list[float] = []
    for m in modes:
        if merged and m - merged[-1] < grid_step:
            continue
        merged.append(m)
    return GaussianSumResult(xs, dens, len(merged), merged)
