"""Synthetic generator determinism and fraud-injector ground truth."""

import json

import numpy as np
import pytest

from urnstats.ingest import Dataset, PrecinctRecord, serialize_dataset, validate
from urnstats.synth import (
    FraudInjector,
    HonestModel,
    RegionModel,
    generate,
    inject,
    model_from_config,
)

from conftest import heterogeneous_model, homogeneous_model, tiny_regions


# ---------------------------------------------------------------- models


def test_region_model_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        RegionModel("r", -1, {"kind": "constant", "value": 100}, {}, {"P": {}})
    with pytest.raises(ValueError, match="party"):
        RegionModel("r", 1, {"kind": "constant", "value": 100}, {}, {})


def test_party_order_is_first_seen():
    model = heterogeneous_model(1)
    assert model.parties == ("UR", "OPP")


def test_model_from_config_round_trip():
    config = {
        "regions": [
            {
                "region_id": "r0",
                "station_count": 50,
                "size": {"kind": "uniform", "low": 100, "high": 500},
                "turnout": {"kind": "constant", "value": 0.6},
                "support": {"P": {"kind": "beta", "a": 8, "b": 12}},
                "turnout_link": {"P": 0.5},
            }
        ]
    }
    model = model_from_config(json.dumps(config))
    assert model == model_from_config(config)
    assert model.regions[0].turnout_link == {"P": 0.5}
    ds = generate(model, seed=1)
    assert len(ds) == 50


def test_unknown_distribution_kind():
    model = HonestModel(
        (
            RegionModel(
                "r",
                5,
                {"kind": "pareto", "alpha": 2},
                {"kind": "constant", "value": 0.5},
                {"P": {"kind": "constant", "value": 0.5}},
            ),
        )
    )
    with pytest.raises(ValueError, match="unknown distribution"):
        generate(model, seed=0)


# ---------------------------------------------------------------- generation


def test_generation_deterministic():
    model = homogeneous_model(300)
    a = serialize_dataset(generate(model, seed=4))
    b = serialize_dataset(generate(model, seed=4))
    c = serialize_dataset(generate(model, seed=5))
    assert a == b
    assert a != c


def test_generated_datasets_validate_clean():
    for seed in range(3):
        ds = generate(heterogeneous_model(500), seed=seed)
        assert validate(ds).counts == {}


def test_generated_counts_are_consistent():
    ds = generate(homogeneous_model(500), seed=2)
    for rec in ds.records:
        assert 1 <= rec.registered
        assert rec.ballots_cast <= rec.registered
        assert rec.valid_ballots == rec.ballots_cast
        assert rec.votes_total <= rec.valid_ballots
        assert sum(rec.votes.values()) == rec.votes_total


def test_station_ids_and_regions():
    ds = generate(heterogeneous_model(10), seed=0)
    assert len(ds) == 40
    assert ds.records[0].station_id == "r0-00000"
    assert {rec.region_id for rec in ds.records} == {"r0", "r1", "r2", "r3"}


def test_turnout_link_induces_correlation():
    flat = generate(homogeneous_model(4000), seed=8)
    linked = generate(homogeneous_model(4000, turnout_link=0.8), seed=8)
    def corr(ds):
        xs = np.array([r.ballots_cast / r.registered for r in ds.records])
        ys = np.array([r.votes["UR"] / r.ballots_cast for r in ds.records])
        return np.corrcoef(xs, ys)[0, 1]
    assert abs(corr(flat)) < 0.1
    assert corr(linked) > 0.3


# ---------------------------------------------------------------- injectors


def test_injector_validation():
    with pytest.raises(ValueError, match="unknown injector"):
        FraudInjector(kind="bribery", party="P", affected=0.1)
    with pytest.raises(ValueError, match="affected"):
        FraudInjector(kind="ballot_stuffing", party="P", affected=1.5)
    with pytest.raises(ValueError, match="rate"):
        FraudInjector(kind="ballot_stuffing", party="P", affected=0.1, rate=-1)
    with pytest.raises(ValueError, match="target"):
        FraudInjector(kind="result_drawing", party="P", affected=0.1)
    with pytest.raises(ValueError, match="target"):
        FraudInjector(kind="result_drawing", party="P", affected=0.1, targets=(1.2,))


def test_inject_unknown_party():
    ds = generate(homogeneous_model(10), seed=0)
    with pytest.raises(ValueError, match="unknown party"):
        inject(ds, FraudInjector(kind="ballot_stuffing", party="Z", affected=0.5, rate=0.1), 0)


def test_affected_zero_is_identity():
    ds = generate(homogeneous_model(200), seed=1)
    for injector in (
        FraudInjector(kind="ballot_stuffing", party="UR", affected=0.0, rate=0.3),
        FraudInjector(kind="result_drawing", party="UR", affected=0.0, targets=(0.65,)),
    ):
        out, manifest = inject(ds, injector, seed=7)
        assert out.records == ds.records
        assert manifest["modified"] == [] and manifest["skipped"] == []


def test_injection_deterministic():
    ds = generate(homogeneous_model(500), seed=1)
    injector = FraudInjector(kind="ballot_stuffing", party="UR", affected=0.4, rate=0.1)
    a, ma = inject(ds, injector, seed=3)
    b, mb = inject(ds, injector, seed=3)
    c, _ = inject(ds, injector, seed=4)
    assert serialize_dataset(a) == serialize_dataset(b)
    assert ma == mb
    assert serialize_dataset(a) != serialize_dataset(c)


def test_stuffing_monotone_and_valid():
    ds = generate(homogeneous_model(1000), seed=6)
    out, manifest = inject(
        ds, FraudInjector(kind="ballot_stuffing", party="UR", affected=1.0, rate=0.15), seed=0
    )
    assert validate(out).counts == {}
    before = {r.station_id: r for r in ds.records}
    for rec in out.records:
        old = before[rec.station_id]
        assert rec.ballots_cast >= old.ballots_cast
        assert rec.votes["UR"] >= old.votes["UR"]
        assert rec.votes["OPP"] == old.votes["OPP"]
        if rec.station_id in set(manifest["modified"]):
            assert rec.ballots_cast / rec.registered > old.ballots_cast / old.registered
            assert (
                rec.votes["UR"] / rec.ballots_cast >= old.votes["UR"] / old.ballots_cast
            )


def test_stuffing_caps_at_registered():
    ds = generate(homogeneous_model(500), seed=6)
    out, _ = inject(
        ds, FraudInjector(kind="ballot_stuffing", party="UR", affected=1.0, rate=5.0), seed=0
    )
    for rec in out.records:
        assert rec.ballots_cast <= rec.registered
    assert validate(out).counts == {}


def test_stuffing_never_lowers_or_negates_a_count():
    """Stations with ballots cast at or above registered electors have no
    headroom: stuffing skips them rather than removing ballots."""
    recs = (
        PrecinctRecord("over", "a", 100, 130, 120, {"UR": 10, "OPP": 100}),
        PrecinctRecord("full", "a", 100, 100, 100, {"UR": 40, "OPP": 60}),
        PrecinctRecord("room", "a", 100, 50, 50, {"UR": 20, "OPP": 30}),
        PrecinctRecord("empty", "a", 0, 0, 0, {}),
    )
    ds = Dataset(records=recs, regions=tiny_regions(), parties=("UR", "OPP"))
    for rate in (0.0, 0.1, 0.5, 5.0):
        out, manifest = inject(
            ds, FraudInjector(kind="ballot_stuffing", party="UR", affected=1.0, rate=rate), seed=0
        )
        for old, new in zip(ds.records, out.records):
            for field in ("registered", "ballots_cast", "valid_ballots"):
                assert getattr(old, field) <= getattr(new, field)
            assert all(old.votes[p] <= v for p, v in new.votes.items())
        assert (out.columns.votes >= 0).all()
        assert manifest["modified"] == ([] if rate == 0 else ["room"])
        assert manifest["skipped"] == ([] if rate == 0 else ["over", "full"])


def test_drawing_places_shares_near_targets():
    targets = (0.65, 0.75)
    ds = generate(homogeneous_model(1000), seed=5)
    out, manifest = inject(
        ds,
        FraudInjector(kind="result_drawing", party="UR", affected=1.0, targets=targets),
        seed=0,
    )
    assert validate(out).counts == {}
    modified = set(manifest["modified"])
    by_id = {r.station_id: r for r in out.records}
    for sid in modified:
        rec = by_id[sid]
        share = rec.votes["UR"] / rec.ballots_cast
        # integer rounding of votes against ballots_cast
        assert min(abs(share - t) for t in targets) <= 0.5 / rec.ballots_cast + 1e-12
    # skipped stations were already above every target or can't reach one
    for sid in manifest["skipped"]:
        rec = {r.station_id: r for r in ds.records}[sid]
        share = rec.votes["UR"] / rec.ballots_cast if rec.ballots_cast else 0.0
        reachable = [t for t in targets if t >= share]
        assert not reachable or round(reachable[0] * rec.ballots_cast) > rec.valid_ballots


def test_drawing_preserves_cast_and_valid():
    ds = generate(homogeneous_model(500), seed=5)
    out, _ = inject(
        ds,
        FraudInjector(kind="result_drawing", party="UR", affected=1.0, targets=(0.7,)),
        seed=0,
    )
    before = {r.station_id: r for r in ds.records}
    for rec in out.records:
        old = before[rec.station_id]
        assert rec.ballots_cast == old.ballots_cast
        assert rec.valid_ballots == old.valid_ballots
        assert rec.registered == old.registered


def test_manifest_contents():
    ds = generate(homogeneous_model(300), seed=2)
    injector = FraudInjector(kind="result_drawing", party="UR", affected=0.3, targets=(0.65,))
    _, manifest = inject(ds, injector, seed=11)
    assert manifest["injector"] == {
        "kind": "result_drawing",
        "party": "UR",
        "affected": 0.3,
        "targets": [0.65],
        "seed": 11,
    }
    ids = {r.station_id for r in ds.records}
    assert set(manifest["modified"]) <= ids
    assert set(manifest["skipped"]) <= ids
    assert not set(manifest["modified"]) & set(manifest["skipped"])
