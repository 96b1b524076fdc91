"""Synthetic precinct datasets with known ground truth.

The honest generator samples, per region, station sizes, turnouts, and party
support from configurable distributions, so every detector in the package has
positive and negative controls.  Randomness is counter-based: each region
gets a Philox stream keyed by (seed, region index) and every station's values
are inverse-CDF transforms of its own row of uniforms, so parallel generation
reproduces the sequential output bit for bit.

Two fraud injectors are provided: ballot stuffing (extra ballots, all for one
party, raising turnout and share together) and result drawing (snapping a
party's share up to the nearest round-figure target).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Mapping

import numpy as np
from scipy.stats import beta as beta_dist

from .ingest import Columns, Dataset, RegionInfo

__all__ = [
    "RegionModel",
    "HonestModel",
    "FraudInjector",
    "generate",
    "inject",
    "model_from_config",
]


def _ppf(spec: Mapping, u: np.ndarray) -> np.ndarray:
    """Inverse CDF of a distribution spec applied to uniforms in [0, 1)."""
    kind = spec["kind"]
    if kind == "constant":
        return np.full_like(u, float(spec["value"]))
    if kind == "uniform":
        lo, hi = float(spec["low"]), float(spec["high"])
        return lo + (hi - lo) * u
    if kind == "loguniform":
        lo, hi = float(spec["low"]), float(spec["high"])
        if not (0 < lo <= hi):
            raise ValueError("loguniform needs 0 < low <= high")
        return np.exp(np.log(lo) + (np.log(hi) - np.log(lo)) * u)
    if kind == "beta":
        return beta_dist.ppf(u, float(spec["a"]), float(spec["b"]))
    raise ValueError(f"unknown distribution kind {kind!r}")


@dataclass(frozen=True)
class RegionModel:
    region_id: str
    station_count: int
    size: Mapping  # distribution over registered electors
    turnout: Mapping  # distribution over [0, 1]
    support: Mapping[str, Mapping]  # party -> distribution over [0, 1]
    turnout_link: Mapping[str, float] = field(default_factory=dict)
    # turnout_link[party] = b shifts that party's sampled share by
    # b * (turnout - 1/2): the correlated-honest variant where going to vote
    # and voting for the party move together without any injector.

    def __post_init__(self):
        if self.station_count < 0:
            raise ValueError("station_count must be nonnegative")
        if not self.support:
            raise ValueError("at least one party required")


@dataclass(frozen=True)
class HonestModel:
    regions: tuple[RegionModel, ...]

    @property
    def parties(self) -> tuple[str, ...]:
        seen: list[str] = []
        for r in self.regions:
            for p in r.support:
                if p not in seen:
                    seen.append(p)
        return tuple(seen)


def model_from_config(config: Mapping | str) -> HonestModel:
    """Build a model from a JSON document or parsed dict (see README schema)."""
    if isinstance(config, str):
        config = json.loads(config)
    regions = tuple(
        RegionModel(
            region_id=r["region_id"],
            station_count=int(r["station_count"]),
            size=r["size"],
            turnout=r["turnout"],
            support=r["support"],
            turnout_link=r.get("turnout_link", {}),
        )
        for r in config["regions"]
    )
    return HonestModel(regions=regions)


def _philox(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=np.array([seed % 2**64, stream], dtype=np.uint64)))


def _largest_remainder(quotas: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Integer apportionment of each row of `quotas` to its target: floors
    plus +1 for the row's largest remainders, ties to the earlier column."""
    floors = np.floor(quotas).astype(np.int64)
    short = targets - floors.sum(axis=1)
    order = np.argsort(-(quotas - floors), axis=1, kind="stable")
    rank = np.argsort(order, axis=1)  # each column's place in its row's order
    return floors + (rank < short[:, None])


def generate(model: HonestModel, seed: int) -> Dataset:
    """Sample a full dataset; deterministic and parallel-safe given seed."""
    parties = model.parties
    regions = {rm.region_id: RegionInfo(region_id=rm.region_id, name=rm.region_id) for rm in model.regions}
    code = {rid: i for i, rid in enumerate(regions)}
    counts = [rm.station_count for rm in model.regions]
    n = sum(counts)
    registered, cast = np.empty(n, np.int64), np.empty(n, np.int64)
    votes = np.zeros((n, len(parties)), np.int64)
    station_ids, start = [], 0
    for r_idx, rm in enumerate(model.regions):
        if rm.station_count == 0:
            continue
        rng = _philox(seed, r_idx)
        local_parties = list(rm.support)
        u = rng.random((rm.station_count, 2 + len(local_parties)))
        rows = slice(start, start + rm.station_count)
        start += rm.station_count
        registered[rows] = np.maximum(np.rint(_ppf(rm.size, u[:, 0])).astype(np.int64), 1)
        turnout = np.clip(_ppf(rm.turnout, u[:, 1]), 0.0, 1.0)
        shares = np.column_stack(
            [_ppf(rm.support[p], u[:, 2 + j]) for j, p in enumerate(local_parties)]
        )
        for j, p in enumerate(local_parties):
            slope = float(rm.turnout_link.get(p, 0.0))
            if slope:
                shares[:, j] = shares[:, j] + slope * (turnout - 0.5)
        shares = np.clip(shares, 0.0, 1.0)
        row_sums = shares.sum(axis=1)
        over = row_sums > 1.0
        shares[over] /= row_sums[over, None]

        cast[rows] = np.rint(turnout * registered[rows]).astype(np.int64)
        quotas = shares * cast[rows, None]
        local = _largest_remainder(quotas, np.rint(quotas.sum(axis=1)).astype(np.int64))
        votes[rows, [parties.index(p) for p in local_parties]] = local
        station_ids += [f"{rm.region_id}-{s_idx:05d}" for s_idx in range(rm.station_count)]
    columns = Columns(
        registered, cast, cast.copy(), votes,
        region=np.repeat(np.array([code[rm.region_id] for rm in model.regions], np.int32), counts),
        station_ids=np.fromiter(station_ids, object, n),
    )
    return Dataset(regions=regions, parties=parties, columns=columns)


@dataclass(frozen=True)
class FraudInjector:
    kind: str  # "ballot_stuffing" | "result_drawing"
    party: str
    affected: float  # fraction of stations hit
    rate: float = 0.0  # stuffing: extra ballots as a fraction of registered
    targets: tuple[float, ...] = ()  # drawing: round-figure share targets

    def __post_init__(self):
        if self.kind not in ("ballot_stuffing", "result_drawing"):
            raise ValueError(f"unknown injector kind {self.kind!r}")
        if not (0.0 <= self.affected <= 1.0):
            raise ValueError("affected must lie in [0, 1]")
        if self.kind == "ballot_stuffing" and self.rate < 0:
            raise ValueError("stuffing rate must be nonnegative")
        if self.kind == "result_drawing":
            if not self.targets:
                raise ValueError("result drawing needs at least one target")
            if any(not (0.0 < t <= 1.0) for t in self.targets):
                raise ValueError("targets must lie in (0, 1]")

    def to_dict(self) -> dict:
        d = {"kind": self.kind, "party": self.party, "affected": self.affected}
        if self.kind == "ballot_stuffing":
            d["rate"] = self.rate
        else:
            d["targets"] = sorted(self.targets)
        return d


def _draw(votes: np.ndarray, cast: np.ndarray, valid: np.ndarray, party: int, targets: np.ndarray):
    """Snap column `party` of each vote row up to the nearest reachable target
    share of ballots cast, taking the added votes from the other parties in
    proportion; returns the new rows and the (modified, skipped) masks."""
    old = votes[:, party]
    share = np.divide(old, cast, out=np.full(len(cast), np.inf), where=cast > 0)
    k = np.searchsorted(targets, share)  # first target >= share; none when cast is 0
    new = np.rint(targets[np.minimum(k, len(targets) - 1)] * cast).astype(np.int64)
    skipped = (k == len(targets)) | (new > valid)
    modified = ~skipped & (new != old)
    others = votes.copy()
    others[:, party] = 0
    total = others.sum(axis=1)
    keep = total - np.minimum(new - old, total)  # the others keep all but the votes moved
    scale = modified & (keep < total)
    others[scale] = _largest_remainder(others[scale] * (keep[scale] / total[scale])[:, None], keep[scale])
    others[:, party] = new
    return np.where(modified[:, None], others, votes), modified, skipped


def inject(ds: Dataset, injector: FraudInjector, seed: int) -> tuple[Dataset, dict]:
    """Apply a fraud injector; returns the new dataset and a ground-truth manifest.

    The manifest lists modified station ids plus stations where the injection
    was infeasible (stuffing capped to zero by registered electors, drawing
    with no reachable target).
    """
    if injector.party not in ds.parties:
        raise ValueError(f"unknown party {injector.party!r}")
    hits = np.flatnonzero(_philox(seed, 0).random(len(ds)) < injector.affected)
    party, c = ds.parties.index(injector.party), ds.columns
    cast, valid, votes = c.ballots_cast.copy(), c.valid_ballots.copy(), c.votes.copy()
    if injector.kind == "ballot_stuffing":
        intended = np.floor(injector.rate * c.registered[hits]).astype(np.int64)
        add = np.minimum(intended, c.registered[hits] - cast[hits])
        modified, skipped = add > 0, (intended > 0) & (add <= 0)  # no headroom: skip, never remove
        rows, add = hits[modified], add[modified]
        cast[rows] += add
        valid[rows] += add
        votes[rows, party] += add
    else:
        targets = np.array(sorted(injector.targets))
        votes[hits], modified, skipped = _draw(votes[hits], cast[hits], valid[hits], party, targets)
    manifest = {
        "modified": c.station_ids[hits[modified]].tolist(),
        "skipped": c.station_ids[hits[skipped]].tolist(),
        "injector": injector.to_dict() | {"seed": seed},
    }
    return replace(ds, columns=replace(c, ballots_cast=cast, valid_ballots=valid, votes=votes)), manifest
