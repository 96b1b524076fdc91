"""Station-voting diagrams and turnout distributions.

A station-voting histogram bins each station by a party's vote share and
accumulates a chosen weight: 1 per station, its registered electors, or its
votes for the party.  Bins are half-open [lo, hi) with the final bin closed
at 1.0; a value landing exactly on an interior edge goes to the right bin.

Two edge alignments are supported: left edges starting at 0, or edges shifted
so that a chosen fraction is a bin center (required by the dent detector so a
candidate fraction never straddles two bins).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .ingest import EXCLUSION_REASONS, Dataset, RegionInfo, select

__all__ = [
    "HistogramSpec",
    "Histogram",
    "WEIGHT_MODES",
    "bin_indices",
    "station_voting_histogram",
    "turnout_histogram",
    "rebin",
]

WEIGHT_MODES = ("stations", "electors", "party_votes")
SHARE_DENOMINATORS = ("ballots_cast", "valid_ballots")

# Absolute slack when mapping a value to its bin: a value this close below an
# edge is treated as sitting on the edge (and therefore falls right).  Real
# shares are ratios of counts <= a few thousand, so their true distance to a
# decimal bin edge is either zero or >> 1e-9.
EDGE_EPS = 1e-9


def bin_indices(values, lo: float, width: float, nbins: int) -> np.ndarray:
    """Bin of each value on the grid of `nbins` bins of `width` starting at `lo`.

    Exact edges fall right; values beyond either end clamp to the first or
    last bin (so 1.0 lands in the final, closed bin).
    """
    idx = np.floor((np.asarray(values, dtype=float) - lo) / width + EDGE_EPS).astype(np.intp)
    return np.clip(idx, 0, nbins - 1)


@dataclass(frozen=True)
class HistogramSpec:
    bin_width: float = 0.005
    weight_mode: str = "stations"
    min_station_size: int = 0
    share_denominator: str = "ballots_cast"
    region_filter: Callable[[RegionInfo], bool] | None = None
    align_center: float | None = None  # None = left edges at zero
    include_flagged: bool = False

    def __post_init__(self):
        if not (0.0 < self.bin_width <= 0.5):
            raise ValueError("bin_width must divide [0,1] into at least 2 bins")
        if self.weight_mode not in WEIGHT_MODES:
            raise ValueError(f"unknown weight mode {self.weight_mode!r}")
        if self.share_denominator not in SHARE_DENOMINATORS:
            raise ValueError(f"unknown share denominator {self.share_denominator!r}")
        if self.min_station_size < 0:
            raise ValueError("min_station_size must be nonnegative")
        if self.align_center is not None and not (0.0 <= self.align_center <= 1.0):
            raise ValueError("align_center must lie in [0, 1]")

    def edges(self) -> np.ndarray:
        """Ascending bin boundaries covering [0, 1]."""
        w = self.bin_width
        if self.align_center is None:
            n = math.ceil(1.0 / w - EDGE_EPS)
            return np.arange(n + 1) * w
        # shift the grid so align_center is a bin center
        first = self.align_center - w / 2.0
        k0 = math.ceil(first / w - EDGE_EPS)
        e0 = first - k0 * w  # largest grid edge <= 0
        n = math.ceil((1.0 - e0) / w - EDGE_EPS)
        return e0 + np.arange(n + 1) * w


@dataclass
class Histogram:
    spec: HistogramSpec
    edges: np.ndarray
    weights: np.ndarray
    excluded: dict[str, float] = field(default_factory=lambda: dict.fromkeys(EXCLUSION_REASONS, 0.0))
    party: str | None = None

    @property
    def centers(self) -> np.ndarray:
        return (self.edges[:-1] + self.edges[1:]) / 2.0

    def total_weight(self) -> float:
        return float(self.weights.sum())

    def excluded_weight(self) -> float:
        return float(sum(self.excluded.values()))

    def bin_index(self, x: float) -> int:
        """Index of the bin containing x; exact edges fall right, 1.0 clamps to the last bin."""
        return int(bin_indices(x, self.edges[0], self.spec.bin_width, len(self.weights)))

    def add(self, x: float, weight: float) -> None:
        self.weights[self.bin_index(x)] += weight

    def center_index(self, f: float) -> int:
        """Index of the bin whose center equals f, or -1."""
        i = self.bin_index(f)
        if abs(self.centers[i] - f) <= self.spec.bin_width * 1e-6:
            return i
        return -1

    def spec_dict(self) -> dict:
        alignment = (
            "left_edges_at_zero"
            if self.spec.align_center is None
            else {"centered_on": self.spec.align_center}
        )
        return {
            "bin_width": self.spec.bin_width,
            "weight_mode": self.spec.weight_mode,
            "min_station_size": self.spec.min_station_size,
            "share_denominator": self.spec.share_denominator,
            "alignment": alignment,
            "region_filter": None if self.spec.region_filter is None else "custom",
            "include_flagged": self.spec.include_flagged,
            "party": self.party,
        }

    def to_json(self) -> str:
        return json.dumps(
            {
                "spec": self.spec_dict(),
                "bins": [
                    {"lo": float(lo), "hi": float(hi), "weight": float(w)}
                    for lo, hi, w in zip(self.edges[:-1], self.edges[1:], self.weights)
                ],
                "excluded": self.excluded,
            },
            indent=2,
            sort_keys=True,
        )

    def to_csv(self) -> str:
        rows = zip(self.edges[:-1].tolist(), self.edges[1:].tolist(), self.weights.tolist())
        return "lo,hi,weight\n" + "".join(f"{lo!r},{hi!r},{w!r}\n" for lo, hi, w in rows)


def _fill(
    ds: Dataset,
    spec: HistogramSpec,
    party: str | None,
    numerator: np.ndarray,
    denominator: str,
) -> Histogram:
    """Bin numerator / ds.columns.<denominator> over the stations `select` keeps."""
    cols = ds.columns
    reason = select(ds, spec.region_filter, spec.include_flagged, spec.min_station_size, denominator)
    if spec.weight_mode == "stations":
        w = np.ones(len(ds))
    elif spec.weight_mode == "electors":
        w = cols.registered.astype(float)
    else:
        w = cols.votes[:, ds.parties.index(party)].astype(float)
    keep = reason == 0
    edges = spec.edges()
    idx = bin_indices(
        numerator[keep] / getattr(cols, denominator)[keep], edges[0], spec.bin_width, len(edges) - 1
    )
    # astype: bincount of an empty input returns integers even when weighted
    excluded = np.bincount(reason, weights=w, minlength=len(EXCLUSION_REASONS) + 1)[1:].astype(float)
    return Histogram(
        spec=spec,
        edges=edges,
        weights=np.bincount(idx, weights=w[keep], minlength=len(edges) - 1).astype(float),
        excluded=dict(zip(EXCLUSION_REASONS, excluded.tolist())),
        party=party,
    )


def station_voting_histogram(ds: Dataset, party: str, spec: HistogramSpec) -> Histogram:
    """Histogram of a party's vote share across stations.

    Each included station contributes its weight (per spec.weight_mode) to the
    bin containing votes/denominator.
    """
    if party not in ds.parties:
        raise ValueError(f"unknown party {party!r}")
    votes = ds.columns.votes[:, ds.parties.index(party)]
    return _fill(ds, spec, party, votes, spec.share_denominator)


def turnout_histogram(ds: Dataset, spec: HistogramSpec) -> Histogram:
    """Histogram of turnout (ballots_cast / registered) across stations."""
    if spec.weight_mode == "party_votes":
        raise ValueError("turnout histograms support stations or electors weighting only")
    return _fill(ds, spec, None, ds.columns.ballots_cast, "registered")


def rebin(hist: Histogram, factor: int) -> Histogram:
    """Aggregate a left-aligned histogram to bin width factor * bin_width.

    Equals the histogram computed directly at the coarser width (trailing
    partial group folds into the final coarse bin, matching the closed-at-1
    convention).
    """
    if factor < 1:
        raise ValueError("factor must be a positive integer")
    if hist.spec.align_center is not None:
        raise ValueError("rebin is defined for left-aligned histograms only")
    coarse_spec = replace(hist.spec, bin_width=hist.spec.bin_width * factor)
    edges = coarse_spec.edges()
    n = len(edges) - 1
    groups = np.minimum(np.arange(len(hist.weights)) // factor, n - 1)
    return Histogram(
        spec=coarse_spec,
        edges=edges,
        weights=np.bincount(groups, weights=hist.weights, minlength=n),
        excluded=dict(hist.excluded),
        party=hist.party,
    )
