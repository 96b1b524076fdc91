"""Rational-fraction share artifacts and dent detection.

Small stations only produce shares k/l with small denominators, and
low-denominator values like 1/2 recur for many (k, l) pairs while their
neighborhoods stay empty.  Coin-flip baselines reproduce that sharp-toothed
artifact exactly, so genuine dents at round fractions can be separated from
it: a dent is a localized excess over a locally interpolated baseline in a
histogram whose bins are centered on the candidate fractions.  The summed
excess over flagged candidates, divided by the party's vote total, is a
conservative floor on the manipulated vote mass.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np
from scipy.stats import binom

from .histogram import Histogram, HistogramSpec, bin_indices
from .mixture import SizeMeasure

__all__ = [
    "FractionCatalog",
    "DentCandidate",
    "DentReport",
    "DEFAULT_CANDIDATES",
    "DEFAULT_Z_THRESHOLD",
    "enumerate_fractions",
    "coinflip_distribution",
    "coinflip_histogram",
    "detect_dents",
    "falsification_lower_bound",
]

# Multiples of 1/20 in [0.50, 0.95]: the round-figure shares where result
# drawing concentrates.
DEFAULT_CANDIDATES = tuple(Fraction(k, 20) for k in range(10, 20))
DEFAULT_Z_THRESHOLD = 4.0


@dataclass(frozen=True)
class FractionCatalog:
    max_denominator: int
    interval: tuple[Fraction, Fraction]
    entries: tuple[tuple[Fraction, int], ...]  # (value, multiplicity), ascending

    def multiplicity(self, value) -> int:
        value = Fraction(value)
        for v, m in self.entries:
            if v == value:
                return m
        return 0

    def values(self) -> tuple[Fraction, ...]:
        return tuple(v for v, _ in self.entries)


def enumerate_fractions(max_denominator: int, interval=(0, 1)) -> FractionCatalog:
    """All distinct shares k/l with 0 <= k <= l <= max_denominator in the interval.

    Multiplicity of a value counts the (k, l) pairs producing it, e.g. 1/2
    appears once per even denominator.
    """
    if max_denominator < 1:
        raise ValueError("max_denominator must be >= 1")
    a, b = Fraction(interval[0]), Fraction(interval[1])
    if a > b:
        raise ValueError(f"empty interval [{a}, {b}]")
    counts: dict[Fraction, int] = {}
    for l in range(1, max_denominator + 1):
        k_lo = max(0, math.ceil(a * l))
        k_hi = min(l, math.floor(b * l))
        for k in range(k_lo, k_hi + 1):
            v = Fraction(k, l)
            if a <= v <= b:
                counts[v] = counts.get(v, 0) + 1
    entries = tuple(sorted(counts.items()))
    return FractionCatalog(max_denominator, (a, b), entries)


def coinflip_distribution(n: int, p: float) -> dict[float, float]:
    """Exact law of the share k/n for k ~ Binomial(n, p)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (0.0 <= p <= 1.0):
        raise ValueError("p must lie in [0, 1]")
    k = np.arange(n + 1)
    pmf = binom.pmf(k, n, p)
    return {ki / n: float(pi) for ki, pi in zip(k, pmf) if pi > 0.0}


def coinflip_histogram(
    sizes: SizeMeasure,
    p_model: float | Callable,
    spec: HistogramSpec,
    trials: int = 0,
    seed: int = 0,
) -> Histogram:
    """Histogram of coin-flip voting shares mixed over station sizes.

    With a constant p the exact binomial mixture is computed (no sampling,
    seed-independent).  With a callable p_model(u: array in [0,1)) -> p array,
    each station runs `trials` Monte Carlo draws; results are deterministic
    given (seed, trials) with stations iterated in ascending size order.
    """
    if not sizes.atoms:
        raise ValueError("size measure must be nonempty")
    edges = spec.edges()
    hist = Histogram(spec=spec, edges=edges, weights=np.zeros(len(edges) - 1))

    if isinstance(p_model, (int, float)):
        p = float(p_model)
        for n in sorted(sizes.atoms):
            w = sizes.atoms[n]
            k = np.arange(n + 1)
            pmf = binom.pmf(k, n, p)
            idx = bin_indices(k / n, edges[0], spec.bin_width, len(hist.weights))
            np.add.at(hist.weights, idx, w * pmf)
        return hist

    if trials < 1:
        raise ValueError("a sampled p_model requires trials >= 1")
    for n in sorted(sizes.atoms):
        # one keyed stream per size atom: results do not depend on which
        # atoms run on which worker
        rng = np.random.default_rng(np.random.SeedSequence([seed, n]))
        w = sizes.atoms[n]
        p = np.asarray(p_model(rng.random(trials)), dtype=float)
        k = rng.binomial(n, p)
        idx = bin_indices(k / n, edges[0], spec.bin_width, len(hist.weights))
        np.add.at(hist.weights, idx, w / trials)
    return hist


@dataclass(frozen=True)
class DentCandidate:
    fraction: Fraction
    observed: float
    baseline: float
    excess: float
    z: float
    flagged: bool


@dataclass
class DentReport:
    histogram_spec: HistogramSpec
    party: str | None
    threshold: float
    total_weight: float
    candidates: list[DentCandidate]

    def flagged(self) -> list[DentCandidate]:
        return [c for c in self.candidates if c.flagged]

    def to_json(self) -> str:
        return json.dumps(
            {
                "threshold": self.threshold,
                "party": self.party,
                "weight_mode": self.histogram_spec.weight_mode,
                "total_weight": self.total_weight,
                "candidates": [
                    {
                        "f": f"{c.fraction.numerator}/{c.fraction.denominator}",
                        "value": float(c.fraction),
                        "observed": c.observed,
                        "baseline": c.baseline,
                        "excess": c.excess,
                        "z": c.z,
                        "flagged": c.flagged,
                    }
                    for c in self.candidates
                ],
            },
            indent=2,
            sort_keys=True,
        )


def detect_dents(
    hist: Histogram,
    candidates=DEFAULT_CANDIDATES,
    z_threshold: float = DEFAULT_Z_THRESHOLD,
) -> DentReport:
    """Score each candidate fraction for localized excess over its neighbors.

    Every candidate must be a bin center of `hist` (use centered alignment)
    and candidate bins must be pairwise non-adjacent.  The baseline at a
    candidate is the linear interpolation between the nearest non-candidate
    bins on each side; z = excess / sqrt(max(baseline, 1)).
    """
    candidates = [Fraction(c) for c in candidates]
    indices: dict[int, Fraction] = {}
    for f in candidates:
        i = hist.center_index(float(f))
        if i < 0:
            raise ValueError(
                f"candidate {f} is not a bin center; build the histogram with "
                f"centered alignment"
            )
        indices[i] = f
    idx_sorted = sorted(indices)
    for a, b in zip(idx_sorted, idx_sorted[1:]):
        if b - a < 2:
            raise ValueError("candidate bins must be pairwise non-adjacent")

    centers = hist.centers
    weights = hist.weights
    results: list[DentCandidate] = []
    for f in candidates:
        i = hist.center_index(float(f))
        left = i - 1
        while left >= 0 and left in indices:
            left -= 1
        right = i + 1
        while right < len(weights) and right in indices:
            right += 1
        if left < 0 and right >= len(weights):
            raise ValueError("no non-candidate bins available for the baseline")
        if left < 0:
            baseline = float(weights[right])
        elif right >= len(weights):
            baseline = float(weights[left])
        else:
            x0, y0 = centers[left], weights[left]
            x1, y1 = centers[right], weights[right]
            baseline = float(y0 + (y1 - y0) * (centers[i] - x0) / (x1 - x0))
        observed = float(weights[i])
        excess = observed - baseline
        z = excess / math.sqrt(max(baseline, 1.0))
        results.append(
            DentCandidate(
                fraction=f,
                observed=observed,
                baseline=baseline,
                excess=excess,
                z=z,
                flagged=z >= z_threshold and excess > 0,
            )
        )
    return DentReport(
        histogram_spec=hist.spec,
        party=hist.party,
        threshold=z_threshold,
        total_weight=hist.total_weight(),
        candidates=results,
    )


def falsification_lower_bound(ds, party: str, report: DentReport) -> float:
    """Flagged dent excess as a fraction of the party's votes on included stations.

    A conservative floor on the vote mass moved into round-figure shares: the
    interpolated baseline absorbs part of any genuine excess.
    """
    if report.histogram_spec.weight_mode != "party_votes":
        raise ValueError("lower bound requires a party_votes-weighted dent report")
    if report.party != party:
        raise ValueError(f"report was computed for party {report.party!r}, not {party!r}")
    if party not in ds.parties:
        raise ValueError(f"unknown party {party!r}")
    if report.total_weight <= 0:
        return 0.0
    excess = sum(c.excess for c in report.flagged())
    return max(excess / report.total_weight, 0.0)
