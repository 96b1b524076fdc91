"""Regional aggregation and decomposition arithmetic.

Per-region integer sums, shares of valid ballots / of all electors, and the
contribution of a region subset to a party's national total: how many votes
the subset supplied, what fraction of the total that is, and what the party's
share would be with the subset removed.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .ingest import Dataset

__all__ = ["RegionSummary", "Decomposition", "summarize_regions", "decompose", "region_report_csv"]


@dataclass(frozen=True)
class RegionSummary:
    region_id: str
    electors: int
    ballots_cast: int
    valid_ballots: int
    votes: Mapping[str, int]
    party_share: float | None  # votes / valid_ballots
    turnout: float | None  # ballots_cast / electors
    share_of_electors: float | None  # votes / electors


@dataclass(frozen=True)
class Decomposition:
    party_id: str
    total_votes: int
    subset_votes: int
    subset_fraction: float
    overall_share: float
    share_excluding_subset: float
    relative_loss: float


def _region_totals(ds: Dataset) -> np.ndarray:
    """Exact per-region sums, one row per region in registry order: registered,
    ballots_cast, valid_ballots, then each party's votes.

    Every station counts, validation-flagged ones included, so the totals
    equal the column sums.
    """
    cols = ds.columns
    totals = np.zeros((len(ds.regions), 3 + len(ds.parties)), np.int64)
    np.add.at(
        totals,
        cols.region,
        np.column_stack((cols.registered, cols.ballots_cast, cols.valid_ballots, cols.votes)),
    )
    return totals


def summarize_regions(ds: Dataset, party: str) -> list[RegionSummary]:
    """Exact integer aggregation per region, sorted descending by party share.

    Regions with no valid ballots report shares as None and sort last; ties
    break by region_id.
    """
    if party not in ds.parties:
        raise ValueError(f"unknown party {party!r}")
    summaries = []
    for rid, (electors, cast, valid, *votes) in zip(ds.regions, _region_totals(ds).tolist()):
        v = votes[ds.parties.index(party)]
        summaries.append(
            RegionSummary(
                region_id=rid,
                electors=electors,
                ballots_cast=cast,
                valid_ballots=valid,
                votes=dict(zip(ds.parties, votes)),
                party_share=v / valid if valid else None,
                turnout=cast / electors if electors else None,
                share_of_electors=v / electors if electors else None,
            )
        )
    summaries.sort(
        key=lambda s: (s.party_share is None, -(s.party_share or 0.0), s.region_id)
    )
    return summaries


def decompose(ds: Dataset, party: str, region_set: Iterable[str]) -> Decomposition:
    """Split a party's national total into a region subset and its complement."""
    if party not in ds.parties:
        raise ValueError(f"unknown party {party!r}")
    region_set = set(region_set)
    unknown = region_set - set(ds.regions)
    if unknown:
        raise ValueError(f"unknown regions in subset: {sorted(unknown)}")

    totals = _region_totals(ds)
    in_subset = np.array([rid in region_set for rid in ds.regions], dtype=bool)
    votes, valid = totals[:, 3 + ds.parties.index(party)], totals[:, 2]
    total_votes, total_valid = int(votes.sum()), int(valid.sum())
    subset_votes, subset_valid = int(votes[in_subset].sum()), int(valid[in_subset].sum())

    if total_valid == 0:
        raise ValueError("dataset has no valid ballots")
    rest_valid = total_valid - subset_valid
    if rest_valid == 0:
        raise ValueError("region subset covers all valid ballots; complement share undefined")

    overall = total_votes / total_valid
    excluding = (total_votes - subset_votes) / rest_valid
    return Decomposition(
        party_id=party,
        total_votes=total_votes,
        subset_votes=subset_votes,
        subset_fraction=subset_votes / total_votes if total_votes else 0.0,
        overall_share=overall,
        share_excluding_subset=excluding,
        relative_loss=(overall - excluding) / overall if overall else 0.0,
    )


def region_report_csv(ds: Dataset, party: str) -> str:
    """Region report mirroring the reference table layout, percentages to 0.1."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(
        [
            "region_id",
            "name",
            "electors_millions",
            "party_share_pct",
            "turnout_pct",
            "share_of_electors_pct",
            "status",
            "geo_tag",
        ]
    )

    def pct(x: float | None) -> str:
        return "" if x is None else f"{100.0 * x:.1f}"

    for s in summarize_regions(ds, party):
        info = ds.regions[s.region_id]
        writer.writerow(
            [
                s.region_id,
                info.name,
                f"{s.electors / 1e6:.1f}",
                pct(s.party_share),
                pct(s.turnout),
                pct(s.share_of_electors),
                info.status,
                info.geo_tag or "",
            ]
        )
    return out.getvalue()
