"""Parsing, serialization round-trips, and count-identity validation."""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urnstats.ingest import (
    Dataset,
    ParseError,
    PrecinctRecord,
    RegionInfo,
    flagged_stations,
    parse_dataset,
    parse_regions,
    serialize_dataset,
    serialize_regions,
    station_size_distribution,
    validate,
)

from conftest import tiny_dataset, tiny_regions


# ---------------------------------------------------------------- records


def test_turnout_and_share():
    rec = PrecinctRecord("s", "a", 1000, 600, 580, {"P": 300})
    assert rec.turnout() == 0.6
    assert rec.share("P") == 0.5
    assert rec.share("P", "valid_ballots") == 300 / 580
    assert rec.share("missing") == 0.0


def test_zero_denominators_give_none():
    rec = PrecinctRecord("s", "a", 0, 0, 0, {"P": 0})
    assert rec.turnout() is None
    assert rec.share("P") is None
    assert rec.share("P", "valid_ballots") is None


def test_region_info_rejects_unknown_status_and_tag():
    with pytest.raises(ValueError):
        RegionInfo(region_id="x", name="X", status="kingdom")
    with pytest.raises(ValueError):
        RegionInfo(region_id="x", name="X", geo_tag="XX")


def test_dataset_rejects_broken_references():
    regions = tiny_regions()
    with pytest.raises(ValueError, match="unknown region"):
        Dataset(
            records=(PrecinctRecord("s", "nowhere", 10, 5, 5, {"P": 1}),),
            regions=regions,
            parties=("P",),
        )
    with pytest.raises(ValueError, match="unknown party"):
        Dataset(
            records=(PrecinctRecord("s", "a", 10, 5, 5, {"Z": 1}),),
            regions=regions,
            parties=("P",),
        )


# ---------------------------------------------------------------- validation


def test_validate_codes(tiny_ds):
    report = validate(tiny_ds)
    assert not report  # truthiness == "clean" is False here
    assert report.counts == {"V_CAST_GT_REG": 1, "V_ZERO_REGISTERED": 1}
    by_station = {(v.station_id, v.code) for v in report.violations}
    assert ("x5", "V_CAST_GT_REG") in by_station
    assert ("x6", "V_ZERO_REGISTERED") in by_station


def test_validate_all_codes_trigger():
    recs = (
        PrecinctRecord("bad", "a", 10, 12, 13, {"P": 14}),
    )
    ds = Dataset(records=recs, regions=tiny_regions(), parties=("P",))
    assert validate(ds).counts == {
        "V_VOTES_GT_VALID": 1,
        "V_VALID_GT_CAST": 1,
        "V_CAST_GT_REG": 1,
    }


def test_validate_is_pure(tiny_ds):
    assert validate(tiny_ds).to_json() == validate(tiny_ds).to_json()


def test_flagged_stations(tiny_ds):
    assert flagged_stations(tiny_ds) == {"x5", "x6"}


def test_clean_dataset_reports_empty():
    recs = (PrecinctRecord("s", "a", 10, 8, 8, {"P": 4}),)
    ds = Dataset(records=recs, regions=tiny_regions(), parties=("P",))
    report = validate(ds)
    assert report and report.counts == {}


# ---------------------------------------------------------------- parsing


def test_round_trip(tiny_ds):
    text = serialize_dataset(tiny_ds)
    back = parse_dataset(io.StringIO(text), tiny_ds.regions)
    assert back.records == tiny_ds.records
    assert back.parties == tiny_ds.parties


def test_region_round_trip():
    regions = tiny_regions()
    back = parse_regions(io.StringIO(serialize_regions(regions)))
    assert back == regions


def test_parse_from_paths(tmp_path, tiny_ds):
    data = tmp_path / "data.csv"
    regs = tmp_path / "regions.csv"
    data.write_text(serialize_dataset(tiny_ds))
    regs.write_text(serialize_regions(tiny_ds.regions))
    back = parse_dataset(data, regs)
    assert back.records == tiny_ds.records


def test_parse_paths_with_utf8_bom(tmp_path, tiny_ds):
    data = tmp_path / "data.csv"
    regs = tmp_path / "regions.csv"
    data.write_text(serialize_dataset(tiny_ds), encoding="utf-8-sig")
    regs.write_text(serialize_regions(tiny_ds.regions), encoding="utf-8-sig")
    assert data.read_bytes().startswith(b"\xef\xbb\xbfstation_id,")
    back = parse_dataset(data, regs)
    assert back.records == tiny_ds.records
    assert back.regions == tiny_ds.regions


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "missing header"),
        ("station,region\n", "header must start with"),
        (
            "station_id,region_id,registered,ballots_cast,valid_ballots,turnout\n",
            "bad vote column",
        ),
        (
            "station_id,region_id,registered,ballots_cast,valid_ballots,votes_P,votes_P\n",
            "duplicate party",
        ),
        (
            "station_id,region_id,registered,ballots_cast,valid_ballots,votes_P\ns1,a,10,5\n",
            "expected 6 columns",
        ),
        (
            "station_id,region_id,registered,ballots_cast,valid_ballots,votes_P\n"
            "s1,a,10,5,5,2\ns1,a,10,5,5,2\n",
            "duplicate station_id",
        ),
        (
            "station_id,region_id,registered,ballots_cast,valid_ballots,votes_P\ns1,zz,10,5,5,2\n",
            "unknown region_id",
        ),
        (
            "station_id,region_id,registered,ballots_cast,valid_ballots,votes_P\ns1,a,ten,5,5,2\n",
            "non-integer registered",
        ),
        (
            "station_id,region_id,registered,ballots_cast,valid_ballots,votes_P\ns1,a,10,-5,5,2\n",
            "negative ballots_cast",
        ),
    ],
)
def test_parse_errors(text, message):
    with pytest.raises(ParseError, match=message):
        parse_dataset(io.StringIO(text), tiny_regions())


@pytest.mark.parametrize("value", ["9223372036854775808", "100000000000000000000"])
def test_count_beyond_int64_is_a_parse_error(value):
    text = (
        "station_id,region_id,registered,ballots_cast,valid_ballots,votes_P\n"
        "s1,a,10,5,5,2\n"
        f"s2,a,{value},5,5,2\n"
    )
    with pytest.raises(ParseError, match=f"line 3: registered value {value} exceeds the int64 maximum"):
        parse_dataset(io.StringIO(text), tiny_regions())
    ok = parse_dataset(io.StringIO(text.replace(value, "9223372036854775807")), tiny_regions())
    assert ok.columns.registered[1] == 2**63 - 1


def test_parse_error_names_line():
    text = (
        "station_id,region_id,registered,ballots_cast,valid_ballots,votes_P\n"
        "s1,a,10,5,5,2\n"
        "s2,a,10,5,5,bad\n"
    )
    with pytest.raises(ParseError, match="line 3"):
        parse_dataset(io.StringIO(text), tiny_regions())


@pytest.mark.parametrize(
    "text, message",
    [
        ("region_id,name\n", "bad or missing header"),
        (
            "region_id,name,status,exceptional,geo_tag\na,A,ordinary,yes,\n",
            "exceptional must be 0 or 1",
        ),
        (
            "region_id,name,status,exceptional,geo_tag\na,A,ordinary,0,\na,A,ordinary,0,\n",
            "duplicate region",
        ),
        (
            "region_id,name,status,exceptional,geo_tag\na,A,empire,0,\n",
            "unknown region status",
        ),
    ],
)
def test_region_parse_errors(text, message):
    with pytest.raises(ParseError, match=message):
        parse_regions(io.StringIO(text))


# ---------------------------------------------------------------- size measure


def test_station_size_distribution(tiny_ds):
    mu = station_size_distribution(tiny_ds)
    assert mu.atoms == {1000: 1.0, 500: 1.0, 20: 1.0, 800: 1.0, 100: 1.0}
    # zero-registered stations are dropped; the rest carry unit mass each
    assert mu.total() == len(tiny_ds) - 1


def test_size_distribution_empty_dataset():
    ds = Dataset(records=(), regions=tiny_regions(), parties=("P",))
    assert station_size_distribution(ds).atoms == {}


# ------------------------------------------------------- randomized round-trip

ids = st.text(
    alphabet=st.characters(min_codepoint=48, max_codepoint=122, categories=["L", "N"]),
    min_size=1,
    max_size=8,
)


@st.composite
def datasets(draw):
    parties = draw(st.lists(ids, min_size=1, max_size=3, unique=True))
    region_ids = draw(st.lists(ids, min_size=1, max_size=3, unique=True))
    regions = {r: RegionInfo(region_id=r, name=r.upper()) for r in region_ids}
    n = draw(st.integers(0, 8))
    records = []
    for i in range(n):
        registered = draw(st.integers(0, 5000))
        cast = draw(st.integers(0, 5000))
        valid = draw(st.integers(0, cast)) if cast else 0
        votes = {}
        remaining = valid
        for p in parties:
            v = draw(st.integers(0, remaining))
            votes[p] = v
            remaining -= v
        records.append(
            PrecinctRecord(
                station_id=f"s{i}",
                region_id=draw(st.sampled_from(region_ids)),
                registered=registered,
                ballots_cast=cast,
                valid_ballots=valid,
                votes=votes,
            )
        )
    return Dataset(records=tuple(records), regions=regions, parties=tuple(parties))


@settings(max_examples=200, deadline=None)
@given(datasets())
def test_round_trip_randomized(ds):
    regions = parse_regions(io.StringIO(serialize_regions(ds.regions)))
    back = parse_dataset(io.StringIO(serialize_dataset(ds)), regions)
    assert back.records == ds.records
    assert back.parties == ds.parties
    assert back.regions == ds.regions
