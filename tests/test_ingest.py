"""Parsing, serialization round-trips, and count-identity validation."""

import io
import re
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urnstats import ingest
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


HEADER_P = "station_id,region_id,registered,ballots_cast,valid_ballots,votes_P\n"
LONG_ID = "x" * 200_000  # over the csv module's default field limit of 131072


def test_count_with_surrounding_separator_characters_is_read():
    """`str.strip` removes U+001C..U+001F but `int` does not accept them; the
    csv path used to find no bad token after `int` failed and raise StopIteration."""
    ds = parse_dataset(io.StringIO(HEADER_P + "s1,a,\x1c10,5\x1f,5,2\n"), tiny_regions())
    assert ds.columns.registered.tolist() == [10]
    assert ds.columns.ballots_cast.tolist() == [5]


@pytest.mark.parametrize(
    "rows, message",
    [
        (f"s1,a,10,5,5,2\n{LONG_ID},a,10,5,5,2\n", "line 3: field larger than field limit (131072)"),
        (f"s1,a,10,5,5,2\ns2,a,{LONG_ID},5,5,2\n", "line 3: field larger than field limit (131072)"),
        (f'"{LONG_ID}",a,10,5,5,2\n', "line 2: field larger than field limit (131072)"),
        # rows read before the over-long field are checked first
        (f"s1,a,10,5,5,x\n{LONG_ID},a,10,5,5,2\n", "line 2: non-integer votes_P value 'x'"),
    ],
)
def test_field_over_the_csv_limit_is_a_parse_error(rows, message):
    with pytest.raises(ParseError, match=re.escape(message)):
        parse_dataset(io.StringIO(HEADER_P + rows), tiny_regions())


def test_field_over_the_csv_limit_in_header_or_registry_is_a_parse_error():
    with pytest.raises(ParseError, match="^line 1: field larger than field limit"):
        parse_dataset(io.StringIO(HEADER_P.rstrip() + "," + LONG_ID + "\n"), tiny_regions())
    registry = f"region_id,name,status,exceptional,geo_tag\na,{LONG_ID},ordinary,0,\n"
    with pytest.raises(ParseError, match="^region registry line 2: field larger than field limit"):
        parse_regions(io.StringIO(registry))


@pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"])
def test_invalid_utf8_is_a_parse_error_naming_the_line(tmp_path, bom):
    data, registry = tmp_path / "data.csv", tmp_path / "regions.csv"
    registry.write_text(serialize_regions(tiny_regions()), encoding="utf-8")
    data.write_bytes(bom + HEADER_P.encode() + b"s1,a,10,5,5,2\ns\xff2,a,10,5,5,2\n")
    with pytest.raises(ParseError, match=r"^line 3: invalid UTF-8 \(invalid start byte, byte 0xff\)$"):
        parse_dataset(data, registry)
    registry.write_bytes(b"region_id,name,status,exceptional,geo_tag\na,\xc3,ordinary,0,\n")
    with pytest.raises(ParseError, match=r"^region registry line 2: invalid UTF-8"):
        parse_regions(registry)


def test_plain_csv_never_reaches_the_csv_path(tmp_path, tiny_ds):
    """A plain file is read by numpy's route alone, from a stream or a path."""
    text = serialize_dataset(tiny_ds).replace(",a,", ", a ,").replace("\nx2,", "\n x2 ,")  # both stripped
    (tmp_path / "data.csv").write_text(text, encoding="utf-8")
    with patch.object(ingest, "_chunk_columns", side_effect=AssertionError("csv path used")):
        assert parse_dataset(io.StringIO(text), tiny_ds.regions) == tiny_ds
        assert parse_dataset(tmp_path / "data.csv", tiny_ds.regions) == tiny_ds


@pytest.mark.parametrize(
    "edit",
    [
        lambda t: t.replace("x1,", '"x1",'),  # quoted field
        lambda t: t.replace("\n", "\r\n"),
        lambda t: t.replace("\n", "\r"),
        lambda t: t.replace("\nx2", "\n\nx2"),  # blank line
        lambda t: t.replace(",1000,", ",1_000,"),  # int() reads it, numpy does not
        lambda t: t.replace(",20,", ",٢٠,"),
    ],
)
def test_csv_path_reads_what_the_plain_route_declines(tiny_ds, edit):
    text = edit(serialize_dataset(tiny_ds))
    assert text != serialize_dataset(tiny_ds)
    with patch.object(ingest, "_chunk_columns", wraps=ingest._chunk_columns) as chunk_columns:
        assert parse_dataset(io.StringIO(text), tiny_ds.regions) == tiny_ds
    assert chunk_columns.called


def test_nul_goes_to_the_csv_path(tiny_ds):
    """Before Python 3.11 the csv module refuses NUL, so numpy's route must too."""
    text = serialize_dataset(tiny_ds).replace("x1,", "x\x001,")
    with patch.object(ingest, "_chunk_columns", wraps=ingest._chunk_columns) as chunk_columns:
        try:
            ds = parse_dataset(io.StringIO(text), tiny_ds.regions)
        except ParseError as exc:
            assert str(exc) == "line 2: line contains NUL"
        else:
            assert ds.columns.station_ids[0] == "x\x001"
    assert chunk_columns.called


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


# ------------------------------------------------------------- fuzzed input

# Characters that steer the csv reader and numpy's reader, mixed into the
# text so that the strategies reach past the header.
CSV_CHARS = ',"\r\n\x00 \t#_.-+0123456789ab\x1c ٣'
fuzz_text = st.one_of(st.text(), st.text(alphabet=CSV_CHARS))


@settings(max_examples=300, deadline=None)
@given(body=fuzz_text, header=st.sampled_from(("", HEADER_P, HEADER_P.replace("_P", "_P,votes_Q"))))
def test_parse_dataset_fails_only_with_parse_error(body, header):
    try:
        ds = parse_dataset(io.StringIO(header + body), tiny_regions())
    except ParseError:
        return
    assert (ds.columns.votes >= 0).all()


@settings(max_examples=300, deadline=None)
@given(body=fuzz_text, header=st.sampled_from(("", "region_id,name,status,exceptional,geo_tag\n")))
def test_parse_regions_fails_only_with_parse_error(body, header):
    try:
        parse_regions(io.StringIO(header + body))
    except ParseError:
        pass


@settings(max_examples=200, deadline=None)
@given(data=st.binary(max_size=200))
def test_parse_from_path_fails_only_with_parse_error_on_any_bytes(tmp_path_factory, data):
    path = tmp_path_factory.mktemp("fuzz") / "data.csv"
    path.write_bytes(HEADER_P.encode() + data)
    try:
        parse_dataset(path, tiny_regions())
    except ParseError:
        pass
    path.write_bytes(b"region_id,name,status,exceptional,geo_tag\n" + data)
    try:
        parse_regions(path)
    except ParseError:
        pass
