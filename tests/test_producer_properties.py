"""Column-writing producers against plain per-row references.

`parse_dataset` builds its columns in bulk, with numpy's reader for plain
files and otherwise a chunk of csv rows at a time, `synth._largest_remainder`
apportions a whole matrix at once, and `inject` stuffs or draws all hit
stations in array operations.  The references below are the per-row
versions: a line-by-line parser that raises on the first bad line, a one-row
largest remainder, and one-station injectors.  Random CSVs, valid and
malformed, must give an equal dataset or the identical ParseError message;
random datasets must give equal injected records and manifests.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urnstats import ingest
from urnstats.ingest import Dataset, ParseError, PrecinctRecord, parse_dataset
from urnstats.synth import FraudInjector, _largest_remainder, inject

from conftest import tiny_regions

INT64_MAX = 2**63 - 1
FIXED = ("station_id", "region_id", "registered", "ballots_cast", "valid_ballots")


def reference_count(token: str, line_no: int, column: str) -> int:
    token = token.strip()
    try:
        value = int(token)
    except ValueError:
        raise ParseError(f"line {line_no}: non-integer {column} value {token!r}") from None
    if value < 0:
        raise ParseError(f"line {line_no}: negative {column} value {value}")
    if value > INT64_MAX:
        raise ParseError(f"line {line_no}: {column} value {value} exceeds the int64 maximum {INT64_MAX}")
    return value


def reference_parse(text: str, regions) -> Dataset:
    """One record per line, checks in line order (the header is well formed here)."""
    reader = csv.reader(io.StringIO(text, newline=""))
    header = [h.strip() for h in next(reader)]
    parties = [col[len("votes_"):] for col in header[len(FIXED):]]
    records, seen, line_no = [], set(), 1
    while True:
        line_no += 1
        try:
            row = next(reader)
        except StopIteration:
            break
        except csv.Error as exc:
            raise ParseError(f"line {line_no}: {exc}") from None
        if not row:
            continue
        if len(row) != len(header):
            raise ParseError(f"line {line_no}: expected {len(header)} columns, got {len(row)}")
        station_id, region_id = row[0].strip(), row[1].strip()
        if station_id in seen:
            raise ParseError(f"line {line_no}: duplicate station_id {station_id!r}")
        seen.add(station_id)
        if region_id not in regions:
            raise ParseError(f"line {line_no}: unknown region_id {region_id!r}")
        counts = [reference_count(tok, line_no, col) for tok, col in zip(row[2:], header[2:])]
        votes = dict(zip(parties, counts[3:]))
        records.append(PrecinctRecord(station_id, region_id, *counts[:3], votes))
    return Dataset(records=tuple(records), regions=regions, parties=tuple(parties))


ODD_COUNTS = (
    "-1", "-0", "x", "", "1.5", " 7 ", "\t8", "+9", "1_000", "٣",
    str(INT64_MAX), str(INT64_MAX + 1), str(-INT64_MAX - 2), "100000000000000000000",
    # tokens where a C number reader could part from int()
    "1.0", "1e3", "0x10", "0b1", "0o7", "1 2", "-", "+", "١٢", "１", "5\x0b", "\x0c5", "\xa09", "9\u2003",
    "\x1c7", "#5", "5#", "'5", "\"5\"", "\"1,2\"",
)
ODD_IDS = ("s1", " s1", "s2", "s3 ", "s#1", "s'1", '"s,1"', '"s1"', '"s""q"', "s\x00", "x" * 131073)
ODD_LINES = ("", "  ", "\t", ",,,,,")


@st.composite
def precinct_csvs(draw):
    """A header with one to three parties and up to 12 rows.  Clean files
    have unique ids, known regions and plain counts; odd-count files differ
    only in their count tokens; broken files mix in every kind of bad line:
    wrong column counts, trailing commas, whitespace-only lines, duplicate
    (after stripping) ids, unknown regions, non-integers, negatives, counts
    beyond int64, NULs and fields over the csv field limit.  Plain files (no
    quotes, LF line ends) take numpy's route when valid; the others use
    quoted fields and CRLF or CR line ends."""
    parties = draw(st.sampled_from((("P",), ("P", "Q"), ("Q", "P", "R"))))
    kind, plain = draw(st.sampled_from(("clean", "odd counts", "broken"))), draw(st.booleans())
    counts = st.integers(0, 10**6).map(str)
    if kind != "clean":
        counts = st.one_of(counts, st.sampled_from(ODD_COUNTS))
    lines = [",".join([*FIXED, *(f"votes_{p}" for p in parties)])]
    for i in range(draw(st.integers(0, 12))):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(ODD_LINES if kind == "broken" else ODD_LINES[:1])))
            continue  # "" is skipped but counted
        if kind != "broken":
            sids = (f"s{i}", f" s{i}", f"s{i} ") if plain else (f"s{i}", f'"s{i}"', f'"s,{i}"')
            sid = draw(st.sampled_from(sids))
            region = draw(st.sampled_from(("a", "b", " b ")))
        else:
            sid = draw(st.sampled_from((*ODD_IDS, f"s{i}")))
            region = draw(st.sampled_from(("a", "b", " a", "zz", '"a"')))
        row = [sid, region, *(draw(counts) for _ in range(3 + len(parties)))]
        width = draw(st.sampled_from((0, 0, 0, -1, 1))) if kind == "broken" else 0
        row = row[:-1] if width < 0 else row + [draw(st.sampled_from(("5", "")))] * width
        lines.append(",".join(row))
    eol = "\n" if plain else draw(st.sampled_from(("\r\n", "\r")))
    return eol.join(lines) + draw(st.sampled_from(("", eol)))


def assert_parse_matches_reference(text):
    regions = tiny_regions()
    try:
        expected = reference_parse(text, regions)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            parse_dataset(io.StringIO(text), regions)
        assert str(got.value) == str(exc)
        return
    ds = parse_dataset(io.StringIO(text), regions)
    assert ds == expected
    assert ds.records == expected.records
    assert ds.parties == expected.parties


@pytest.mark.parametrize("token", ODD_COUNTS)
@pytest.mark.parametrize("column", [2, 5])
def test_odd_count_token_matches_reference(token, column):
    """One token at a time in an otherwise plain, valid file: numpy's route
    reads it as int() does or declines it to the csv path."""
    row = ["s1", "a", "10", "5", "5", "2"]
    row[column] = token
    assert_parse_matches_reference(",".join(FIXED) + ",votes_P\n" + ",".join(row) + "\n")


@settings(max_examples=400, deadline=None)
@given(text=precinct_csvs(), chunk=st.sampled_from((1, 2, 3, 5, ingest.PARSE_CHUNK)))
def test_parse_dataset_matches_reference(text, chunk):
    """Small chunks put duplicates, blank lines and errors across chunk borders."""
    with patch.object(ingest, "PARSE_CHUNK", chunk):
        assert_parse_matches_reference(text)


def reference_largest_remainder(quotas: np.ndarray, target: int) -> np.ndarray:
    floors = np.floor(quotas).astype(np.int64)
    short = target - int(floors.sum())
    if short > 0:
        order = np.argsort(-(quotas - floors), kind="stable")
        floors[order[:short]] += 1
    return floors


@settings(max_examples=300, deadline=None)
@given(
    counts=st.lists(st.lists(st.integers(0, 40), min_size=3, max_size=3), min_size=0, max_size=12),
    scale=st.sampled_from((0.0, 0.25, 1 / 3, 0.5, 0.999, 1.0)),
)
def test_largest_remainder_matches_per_row_reference(counts, scale):
    """Rows with equal remainders and integer quotas included (ties go left)."""
    quotas = np.array(counts, dtype=float).reshape(len(counts), 3) * scale
    targets = np.rint(quotas.sum(axis=1)).astype(np.int64)
    expected = [reference_largest_remainder(q, int(t)) for q, t in zip(quotas, targets)]
    assert np.array_equal(_largest_remainder(quotas, targets), np.array(expected).reshape(len(counts), 3))


def reference_stuff(rec, party, rate):
    intended = math.floor(rate * rec.registered)
    if intended == 0:
        return rec, "unchanged"
    add = min(intended, rec.registered - rec.ballots_cast)
    if add <= 0:  # no headroom: ballots are never removed
        return rec, "skipped"
    votes = dict(rec.votes)
    votes[party] = votes.get(party, 0) + add
    new = replace(
        rec, ballots_cast=rec.ballots_cast + add, valid_ballots=rec.valid_ballots + add, votes=votes
    )
    return new, "modified"


def reference_draw(rec, party, targets):
    if rec.ballots_cast == 0:
        return rec, "skipped"
    old = rec.votes.get(party, 0)
    candidates = [t for t in sorted(targets) if t >= old / rec.ballots_cast]
    if not candidates:
        return rec, "skipped"
    new_votes = round(candidates[0] * rec.ballots_cast)
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
        quotas = np.array(list(others.values()), dtype=float)
        quotas *= (others_total - reduce) / others_total
        scaled = reference_largest_remainder(quotas, others_total - reduce)
        votes.update({k: int(v) for k, v in zip(others, scaled)})
    else:
        votes.update(others)
    return replace(rec, votes=votes), "modified"


def reference_inject(ds, injector, seed):
    rng = np.random.Generator(np.random.Philox(key=np.array([seed % 2**64, 0], dtype=np.uint64)))
    hits = rng.random(len(ds)) < injector.affected
    records, modified, skipped = [], [], []
    for rec, hit in zip(ds.records, hits):
        if hit:
            if injector.kind == "ballot_stuffing":
                rec, status = reference_stuff(rec, injector.party, injector.rate)
            else:
                rec, status = reference_draw(rec, injector.party, injector.targets)
            {"modified": modified, "skipped": skipped}.get(status, []).append(rec.station_id)
        records.append(rec)
    return Dataset(records=tuple(records), regions=ds.regions, parties=ds.parties), modified, skipped


@st.composite
def injected_datasets(draw):
    """Up to 30 stations; counts only loosely ordered, so ballots cast above
    registered, zero cast and votes above valid all occur, and a party can be
    missing from a record (it reads 0)."""
    parties = ("P", "Q", "R")
    records = []
    for i in range(draw(st.integers(0, 30))):
        registered = draw(st.integers(0, 400))
        cast = draw(st.integers(0, registered + 40))
        valid = draw(st.integers(0, cast + 5))
        present = draw(st.lists(st.sampled_from(parties), unique=True))
        votes = {p: draw(st.integers(0, max(valid, 1))) for p in parties if p in present}
        region = draw(st.sampled_from(("a", "b")))
        records.append(PrecinctRecord(f"s{i}", region, registered, cast, valid, votes))
    return Dataset(records=tuple(records), regions=tiny_regions(), parties=parties)


injectors = st.one_of(
    st.builds(
        FraudInjector, kind=st.just("ballot_stuffing"), party=st.sampled_from(("P", "Q", "R")),
        affected=st.sampled_from((0.0, 0.3, 0.7, 1.0)), rate=st.sampled_from((0.0, 0.004, 0.1, 0.5, 3.0)),
    ),
    st.builds(
        FraudInjector, kind=st.just("result_drawing"), party=st.sampled_from(("P", "Q", "R")),
        affected=st.sampled_from((0.0, 0.3, 0.7, 1.0)),
        targets=st.lists(st.sampled_from((0.05, 1 / 3, 0.5, 0.65, 0.75, 1.0)), min_size=1, max_size=3)
        .map(tuple),
    ),
)


@settings(max_examples=400, deadline=None)
@given(ds=injected_datasets(), injector=injectors, seed=st.integers(0, 2**64 - 1))
def test_inject_matches_reference(ds, injector, seed):
    expected, modified, skipped = reference_inject(ds, injector, seed)
    out, manifest = inject(ds, injector, seed)
    assert out == expected
    assert out.records == expected.records
    assert manifest["modified"] == modified
    assert manifest["skipped"] == skipped
    assert manifest["injector"] == injector.to_dict() | {"seed": seed}
