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
import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np
from scipy.stats import beta as beta_dist

from .ingest import Dataset, PrecinctRecord, RegionInfo

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


def _largest_remainder(quotas: np.ndarray, target: int) -> np.ndarray:
    """Integer apportionment: floors plus +1 for the largest remainders."""
    floors = np.floor(quotas).astype(np.int64)
    short = target - int(floors.sum())
    if short > 0:
        order = np.argsort(-(quotas - floors), kind="stable")
        floors[order[:short]] += 1
    return floors


def generate(model: HonestModel, seed: int) -> Dataset:
    """Sample a full dataset; deterministic and parallel-safe given seed."""
    parties = model.parties
    records: list[PrecinctRecord] = []
    regions: dict[str, RegionInfo] = {}
    for r_idx, rm in enumerate(model.regions):
        regions[rm.region_id] = RegionInfo(region_id=rm.region_id, name=rm.region_id)
        if rm.station_count == 0:
            continue
        rng = np.random.Generator(
            np.random.Philox(key=np.array([seed % 2**64, r_idx], dtype=np.uint64))
        )
        local_parties = list(rm.support)
        u = rng.random((rm.station_count, 2 + len(local_parties)))
        registered = np.maximum(np.rint(_ppf(rm.size, u[:, 0])).astype(np.int64), 1)
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

        cast = np.rint(turnout * registered).astype(np.int64)
        for s_idx in range(rm.station_count):
            quotas = shares[s_idx] * cast[s_idx]
            votes_arr = _largest_remainder(quotas, int(round(float(quotas.sum()))))
            records.append(
                PrecinctRecord(
                    station_id=f"{rm.region_id}-{s_idx:05d}",
                    region_id=rm.region_id,
                    registered=int(registered[s_idx]),
                    ballots_cast=int(cast[s_idx]),
                    valid_ballots=int(cast[s_idx]),
                    votes={p: int(v) for p, v in zip(local_parties, votes_arr)},
                )
            )
    return Dataset(records=tuple(records), regions=regions, parties=parties)


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


def _stuff(rec: PrecinctRecord, party: str, rate: float):
    intended = math.floor(rate * rec.registered)
    if intended == 0:
        return rec, "unchanged"
    add = min(intended, rec.registered - rec.ballots_cast)
    if add == 0:
        return rec, "skipped"
    votes = dict(rec.votes)
    votes[party] = votes.get(party, 0) + add
    new = replace(
        rec, ballots_cast=rec.ballots_cast + add, valid_ballots=rec.valid_ballots + add, votes=votes
    )
    return new, "modified"


def _draw(rec: PrecinctRecord, party: str, targets: Sequence[float]):
    if rec.ballots_cast == 0:
        return rec, "skipped"
    old = rec.votes.get(party, 0)
    share = old / rec.ballots_cast
    candidates = [t for t in sorted(targets) if t >= share]
    if not candidates:
        return rec, "skipped"
    target = candidates[0]
    new_votes = round(target * rec.ballots_cast)
    if new_votes > rec.valid_ballots:
        return rec, "skipped"
    delta = new_votes - old
    if delta == 0:
        return rec, "unchanged"
    others = {p: v for p, v in rec.votes.items() if p != party}
    others_total = sum(others.values())
    reduce = min(delta, others_total)
    votes = {party: new_votes}
    if others_total > 0 and reduce > 0:
        keys = list(others)
        quotas = np.array([others[k] for k in keys], dtype=float)
        quotas *= (others_total - reduce) / others_total
        scaled = _largest_remainder(quotas, others_total - reduce)
        votes.update({k: int(v) for k, v in zip(keys, scaled)})
    else:
        votes.update(others)
    return replace(rec, votes=votes), "modified"


def inject(ds: Dataset, injector: FraudInjector, seed: int) -> tuple[Dataset, dict]:
    """Apply a fraud injector; returns the new dataset and a ground-truth manifest.

    The manifest lists modified station ids plus stations where the injection
    was infeasible (stuffing capped to zero by registered electors, drawing
    with no reachable target).
    """
    if injector.party not in ds.parties:
        raise ValueError(f"unknown party {injector.party!r}")
    rng = np.random.Generator(
        np.random.Philox(key=np.array([seed % 2**64, 0], dtype=np.uint64))
    )
    hits = rng.random(len(ds.records)) < injector.affected

    modified: list[str] = []
    skipped: list[str] = []
    records: list[PrecinctRecord] = []
    for rec, hit in zip(ds.records, hits):
        if not hit:
            records.append(rec)
            continue
        if injector.kind == "ballot_stuffing":
            new, status = _stuff(rec, injector.party, injector.rate)
        else:
            new, status = _draw(rec, injector.party, injector.targets)
        records.append(new)
        if status == "modified":
            modified.append(rec.station_id)
        elif status == "skipped":
            skipped.append(rec.station_id)

    manifest = {
        "modified": modified,
        "skipped": skipped,
        "injector": injector.to_dict() | {"seed": seed},
    }
    return Dataset(records=tuple(records), regions=ds.regions, parties=ds.parties), manifest
