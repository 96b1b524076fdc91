"""Cloud and compressed-cloud diagrams.

A cloud diagram plots one point per station at (turnout, party share).  The
compressed cloud applies (u, v) = (x, x*y); with shares computed against
ballots cast, v is exactly the party's share of all registered electors, and
every compressed point lies in the triangle v <= u.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from itertools import chain
from typing import Callable, Sequence

import numpy as np
from scipy.stats import pearsonr, spearmanr

from .histogram import bin_indices
from .ingest import EXCLUSION_REASONS, Dataset, RegionInfo, select

__all__ = [
    "CloudPoint",
    "CompressedPoint",
    "Cloud",
    "ModeEstimate",
    "build_cloud",
    "compress",
    "estimate_modes",
    "slope_between_modes",
    "turnout_share_association",
]


@dataclass(frozen=True)
class CloudPoint:
    x: float  # turnout
    y: float  # party share
    weight: float = 1.0
    station_id: str | None = None

    def __post_init__(self):
        if not (0.0 <= self.x <= 1.0 and 0.0 <= self.y <= 1.0):
            raise ValueError(f"cloud point ({self.x}, {self.y}) outside the unit square")
        if self.weight <= 0:
            raise ValueError("point weight must be positive")

    @property
    def coords(self) -> tuple[float, float]:
        return (self.x, self.y)


@dataclass(frozen=True)
class CompressedPoint:
    u: float
    v: float
    weight: float = 1.0
    station_id: str | None = None

    def __post_init__(self):
        if not (0.0 <= self.v <= self.u + 1e-12 and self.u <= 1.0):
            raise ValueError(f"compressed point ({self.u}, {self.v}) outside the triangle")

    @property
    def coords(self) -> tuple[float, float]:
        return (self.u, self.v)


@dataclass
class Cloud:
    points: list[CloudPoint]
    party: str
    denominator: str
    excluded: dict[str, int] = field(
        default_factory=lambda: {r: 0 for r in EXCLUSION_REASONS if r != "below_min_size"}
    )

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def to_csv(self) -> str:
        return _points_csv(self.points, ("x", "y"))


def _points_csv(points, axes: tuple[str, str]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["station_id", *axes, "weight"])
    for pt in points:
        writer.writerow([pt.station_id or "", *map(repr, pt.coords), repr(pt.weight)])
    return out.getvalue()


def _coordinates(ds, party, denominator, region_filter, include_flagged):
    """(reason, kept, turnout, share): `select`'s reason codes, the kept
    stations' indices and their coordinates."""
    if party not in ds.parties:
        raise ValueError(f"unknown party {party!r}")
    if denominator not in ("ballots_cast", "valid_ballots"):
        raise ValueError(f"unknown denominator {denominator!r}")
    cols = ds.columns
    reason = select(ds, region_filter, include_flagged, 0, denominator)
    kept = np.flatnonzero(reason == 0)
    x = cols.ballots_cast[kept] / cols.registered[kept]
    y = cols.votes[kept, ds.parties.index(party)] / getattr(cols, denominator)[kept]
    return reason, kept, x, y


def build_cloud(
    ds: Dataset,
    party: str,
    denominator: str = "ballots_cast",
    weight_by_registered: bool = False,
    region_filter: Callable[[RegionInfo], bool] | None = None,
    include_flagged: bool = False,
) -> Cloud:
    """One (turnout, share) point per included station.

    Stations whose turnout or share denominator is zero are excluded and
    counted, as are region-filtered and validation-flagged stations.
    """
    reason, kept, x, y = _coordinates(ds, party, denominator, region_filter, include_flagged)
    cols = ds.columns
    w = cols.registered[kept].astype(float).tolist() if weight_by_registered else [1.0] * len(kept)
    points = list(map(CloudPoint, x.tolist(), y.tolist(), w, cols.station_ids[kept].tolist()))
    counts = np.bincount(reason, minlength=len(EXCLUSION_REASONS) + 1)[1:].tolist()
    excluded = dict(zip(EXCLUSION_REASONS, counts))
    del excluded["below_min_size"]  # a cloud has no size threshold
    return Cloud(points=points, party=party, denominator=denominator, excluded=excluded)


def compress(points: Cloud | Sequence[CloudPoint]) -> list[CompressedPoint]:
    """Map each cloud point (x, y) to (u, v) = (x, x*y)."""
    return [
        CompressedPoint(u=pt.x, v=pt.x * pt.y, weight=pt.weight, station_id=pt.station_id)
        for pt in points
    ]


def compressed_csv(points: Sequence[CompressedPoint]) -> str:
    return _points_csv(points, ("u", "v"))


@dataclass(frozen=True)
class ModeEstimate:
    location: tuple[float, float]  # cell center
    density: float
    cell: tuple[int, int]

    @property
    def x(self) -> float:
        return self.location[0]

    @property
    def y(self) -> float:
        return self.location[1]


def estimate_modes(
    points: Cloud | Sequence[CloudPoint] | Sequence[CompressedPoint],
    cell: float = 0.025,
    top_k: int = 4,
) -> list[ModeEstimate]:
    """Local maxima of a weighted 2-D cell histogram over the unit square.

    A mode cell's density strictly exceeds all 8 neighbors (missing neighbors
    count as empty).  Up to top_k modes are returned by descending density;
    ties break toward the lower-x, then lower-y cell corner.
    """
    pts = list(points)
    if not pts:
        raise ValueError("cannot estimate modes of an empty point set")
    if not (0.0 < cell <= 0.25):
        raise ValueError("cell size must lie in (0, 0.25]")
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    n = math.ceil(1.0 / cell - 1e-9)
    xy = np.fromiter(chain.from_iterable(pt.coords for pt in pts), float, 2 * len(pts))
    i, j = (bin_indices(xy[k::2], 0.0, cell, n) for k in (0, 1))
    weights = np.fromiter((pt.weight for pt in pts), float, len(pts))
    grid = np.bincount(i * n + j, weights=weights, minlength=n * n).reshape(n, n)

    # a mode cell strictly exceeds each of its 8 neighbours
    padded = np.zeros((n + 2, n + 2))
    padded[1:-1, 1:-1] = grid
    is_mode = grid > 0
    for di in range(3):
        for dj in range(3):
            if (di, dj) != (1, 1):
                is_mode &= grid > padded[di : di + n, dj : dj + n]
    mi, mj = np.nonzero(is_mode)
    density = grid[mi, mj]
    order = np.lexsort((mj, mi, -density))[:top_k]
    return [
        ModeEstimate(location=((a + 0.5) * cell, (b + 0.5) * cell), density=d, cell=(a, b))
        for a, b, d in zip(mi[order].tolist(), mj[order].tolist(), density[order].tolist())
    ]


def slope_between_modes(m1, m2) -> float:
    """Signed slope (y2 - y1) / (x2 - x1) between two modes or (x, y) pairs."""
    x1, y1 = (m1.x, m1.y) if isinstance(m1, ModeEstimate) else (m1[0], m1[1])
    x2, y2 = (m2.x, m2.y) if isinstance(m2, ModeEstimate) else (m2[0], m2[1])
    if x1 == x2:
        raise ValueError("modes share the same x; slope is vertical")
    return (y2 - y1) / (x2 - x1)


def turnout_share_association(
    ds: Dataset,
    party: str,
    denominator: str = "ballots_cast",
    include_flagged: bool = False,
) -> tuple[float, float, int]:
    """(pearson_r, spearman_rho, n) between turnout and party share."""
    _, _, xs, ys = _coordinates(ds, party, denominator, None, include_flagged)
    outside = np.flatnonzero((xs > 1.0) | (ys > 1.0))
    if outside.size:
        i = outside[0]
        raise ValueError(f"cloud point ({xs[i]}, {ys[i]}) outside the unit square")
    if len(xs) < 3:
        raise ValueError("association needs at least 3 included stations")
    if np.ptp(xs) == 0 or np.ptp(ys) == 0:
        raise ValueError("association undefined: zero variance in a coordinate")
    r = pearsonr(xs, ys).statistic
    rho = spearmanr(xs, ys).statistic
    return float(r), float(rho), len(xs)
