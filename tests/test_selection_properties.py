"""Column-based analyses against a plain per-record reference.

The references below walk `ds.records` one station at a time, applying the
exclusion rules in their documented order (region filter, validation flag,
size threshold or zero registered electors, zero share denominator).  Random
small datasets, violating rows included, and random analysis settings must
give equal bins, exclusion counters, cloud points, validation reports and
region sums.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urnstats.cloud import CloudPoint, build_cloud
from urnstats.histogram import HistogramSpec, station_voting_histogram, turnout_histogram
from urnstats.ingest import Dataset, PrecinctRecord, validate
from urnstats.region import summarize_regions

from conftest import tiny_regions

PARTIES = ("P", "Q")
REASONS = ("zero_denominator", "below_min_size", "region_filtered", "validation_flagged")
REGION_FILTERS = {
    None: None,
    "ordinary": lambda info: not info.exceptional,
    "exceptional": lambda info: info.exceptional,
}


def violations(rec) -> list[str]:
    codes = []
    if sum(rec.votes.values()) > rec.valid_ballots:
        codes.append("V_VOTES_GT_VALID")
    if rec.valid_ballots > rec.ballots_cast:
        codes.append("V_VALID_GT_CAST")
    if rec.ballots_cast > rec.registered:
        codes.append("V_CAST_GT_REG")
    if rec.registered == 0:
        codes.append("V_ZERO_REGISTERED")
    return codes


def exclusion(ds, rec, region_filter, include_flagged, min_size, denominator) -> str | None:
    if region_filter is not None and not region_filter(ds.regions[rec.region_id]):
        return "region_filtered"
    if not include_flagged and violations(rec):
        return "validation_flagged"
    if rec.registered < max(min_size, 1):
        return "zero_denominator" if rec.registered == 0 else "below_min_size"
    if getattr(rec, denominator) == 0:
        return "zero_denominator"
    return None


def reference_histogram(ds, spec, party, numerator, denominator):
    edges = spec.edges()
    weights = np.zeros(len(edges) - 1)
    excluded = dict.fromkeys(REASONS, 0.0)
    for rec in ds.records:
        if spec.weight_mode == "stations":
            w = 1.0
        elif spec.weight_mode == "electors":
            w = float(rec.registered)
        else:
            w = float(rec.votes.get(party, 0))
        reason = exclusion(
            ds, rec, spec.region_filter, spec.include_flagged, spec.min_station_size, denominator
        )
        if reason is not None:
            excluded[reason] += w
            continue
        x = numerator(rec) / getattr(rec, denominator)
        i = math.floor((x - edges[0]) / spec.bin_width + 1e-9)
        weights[min(max(i, 0), len(weights) - 1)] += w
    return edges, weights, excluded


def reference_cloud(ds, party, denominator, weight_by_registered, region_filter, include_flagged):
    points = []
    excluded = {"zero_denominator": 0, "region_filtered": 0, "validation_flagged": 0}
    for rec in ds.records:
        reason = exclusion(ds, rec, region_filter, include_flagged, 0, denominator)
        if reason is not None:
            excluded[reason] += 1
            continue
        points.append(
            CloudPoint(
                x=rec.ballots_cast / rec.registered,
                y=rec.votes.get(party, 0) / getattr(rec, denominator),
                weight=float(rec.registered) if weight_by_registered else 1.0,
                station_id=rec.station_id,
            )
        )
    return points, excluded


@st.composite
def datasets(draw):
    """Up to 25 stations in two regions; counts are small and only loosely
    ordered, so every violation code and every zero denominator shows up."""
    records = []
    for i in range(draw(st.integers(0, 25))):
        registered = draw(st.integers(0, 60))
        cast = draw(st.integers(0, registered + 8))
        valid = draw(st.integers(0, cast + 3))
        p = draw(st.integers(0, valid + 3))
        q = draw(st.integers(0, max(valid - p, 0) + 2))
        region = draw(st.sampled_from(("a", "b")))
        records.append(PrecinctRecord(f"s{i}", region, registered, cast, valid, {"P": p, "Q": q}))
    return Dataset(records=tuple(records), regions=tiny_regions(), parties=PARTIES)


def specs(weight_modes):
    return st.builds(
        HistogramSpec,
        bin_width=st.sampled_from((0.005, 0.05, 0.1, 0.25, 0.3)),
        weight_mode=st.sampled_from(weight_modes),
        min_station_size=st.integers(0, 40),
        share_denominator=st.sampled_from(("ballots_cast", "valid_ballots")),
        region_filter=st.sampled_from(sorted(REGION_FILTERS, key=str)).map(REGION_FILTERS.get),
        align_center=st.one_of(st.none(), st.floats(0.0, 1.0)),
        include_flagged=st.booleans(),
    )


def assert_same_histogram(hist, reference):
    edges, weights, excluded = reference
    assert np.array_equal(hist.edges, edges)
    assert np.array_equal(hist.weights, weights)
    assert list(hist.excluded.items()) == list(excluded.items())
    assert all(type(v) is float for v in hist.excluded.values())


@settings(max_examples=300, deadline=None)
@given(ds=datasets(), spec=specs(("stations", "electors", "party_votes")), party=st.sampled_from(PARTIES))
def test_station_voting_histogram_matches_reference(ds, spec, party):
    reference = reference_histogram(
        ds, spec, party, lambda rec: rec.votes.get(party, 0), spec.share_denominator
    )
    assert_same_histogram(station_voting_histogram(ds, party, spec), reference)


@settings(max_examples=300, deadline=None)
@given(ds=datasets(), spec=specs(("stations", "electors")))
def test_turnout_histogram_matches_reference(ds, spec):
    reference = reference_histogram(ds, spec, None, lambda rec: rec.ballots_cast, "registered")
    assert_same_histogram(turnout_histogram(ds, spec), reference)


@settings(max_examples=300, deadline=None)
@given(
    ds=datasets(),
    party=st.sampled_from(PARTIES),
    denominator=st.sampled_from(("ballots_cast", "valid_ballots")),
    weight_by_registered=st.booleans(),
    region_filter=st.sampled_from(sorted(REGION_FILTERS, key=str)).map(REGION_FILTERS.get),
    include_flagged=st.booleans(),
)
def test_build_cloud_matches_reference(
    ds, party, denominator, weight_by_registered, region_filter, include_flagged
):
    args = (ds, party, denominator, weight_by_registered, region_filter, include_flagged)
    try:
        points, excluded = reference_cloud(*args)
    except ValueError as exc:  # an included violating station leaves the unit square
        with pytest.raises(ValueError, match="unit square"):
            build_cloud(*args)
        assert "unit square" in str(exc)
        return
    cloud = build_cloud(*args)
    assert cloud.points == points
    assert list(cloud.excluded.items()) == list(excluded.items())
    assert all(type(v) is int for v in cloud.excluded.values())


@settings(max_examples=300, deadline=None)
@given(ds=datasets())
def test_validate_matches_reference(ds):
    expected = [(rec.station_id, code) for rec in ds.records for code in violations(rec)]
    assert [(v.station_id, v.code) for v in validate(ds).violations] == expected


@settings(max_examples=300, deadline=None)
@given(ds=datasets())
def test_region_sums_match_reference(ds):
    """Region sums keep every station, flagged ones included."""
    for s in summarize_regions(ds, "P"):
        recs = [rec for rec in ds.records if rec.region_id == s.region_id]
        assert s.electors == sum(rec.registered for rec in recs)
        assert s.ballots_cast == sum(rec.ballots_cast for rec in recs)
        assert s.valid_ballots == sum(rec.valid_ballots for rec in recs)
        assert s.votes == {p: sum(rec.votes[p] for rec in recs) for p in PARTIES}
        assert all(type(v) is int for v in (s.electors, s.ballots_cast, *s.votes.values()))
