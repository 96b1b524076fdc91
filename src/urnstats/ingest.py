"""Parsing, validation, and indexing of precinct-level election data.

File formats (UTF-8 CSV, header required):

  precinct data:   station_id,region_id,registered,ballots_cast,valid_ballots,votes_<P1>,votes_<P2>,...
  region registry: region_id,name,status,exceptional,geo_tag

The party list is taken from the vote column headers in file order.  Records
that violate the count identities are kept in the dataset and reported by
``validate``; downstream analyses decide whether to include them.
"""

from __future__ import annotations

import csv
import io
import json
import warnings
from collections import Counter
from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import compress, islice, repeat
from pathlib import Path
from typing import IO, Callable, Mapping

import numpy as np

from .mixture import SizeMeasure

__all__ = [
    "PrecinctRecord",
    "RegionInfo",
    "Dataset",
    "Columns",
    "EXCLUSION_REASONS",
    "Violation",
    "ValidationReport",
    "ParseError",
    "REGION_STATUSES",
    "GEO_TAGS",
    "parse_dataset",
    "parse_regions",
    "serialize_dataset",
    "serialize_regions",
    "validate",
    "select",
    "flagged_stations",
    "station_size_distribution",
]

REGION_STATUSES = (
    "ordinary",
    "republic",
    "autonomous_okrug",
    "autonomous_oblast",
    "federal_city",
)
GEO_TAGS = ("NC", "I", "Pr", "For", "T", "WS", "East")

# Why select() leaves a station out; a station's reason code is 1 + the
# reason's index here, and 0 means included.
EXCLUSION_REASONS = ("zero_denominator", "below_min_size", "region_filtered", "validation_flagged")
ZERO_DENOMINATOR, BELOW_MIN_SIZE, REGION_FILTERED, VALIDATION_FLAGGED = range(1, 5)

VOTE_PREFIX = "votes_"
FIXED_COLUMNS = ("station_id", "region_id", "registered", "ballots_cast", "valid_ballots")
REGISTRY_COLUMNS = ("region_id", "name", "status", "exceptional", "geo_tag")
INT64_MAX = np.iinfo(np.int64).max
PARSE_CHUNK = 8192  # precinct rows converted to columns at a time


class ParseError(ValueError):
    """Malformed input file (wrong columns, bad integers, broken references)."""


@dataclass(frozen=True)
class PrecinctRecord:
    """One voting station's reported counts."""

    station_id: str
    region_id: str
    registered: int
    ballots_cast: int
    valid_ballots: int
    votes: Mapping[str, int]

    @property
    def votes_total(self) -> int:
        return sum(self.votes.values())

    def turnout(self) -> float | None:
        if self.registered == 0:
            return None
        return self.ballots_cast / self.registered

    def share(self, party: str, denominator: str = "ballots_cast") -> float | None:
        """Party share against ballots_cast (default) or valid_ballots.

        None when the chosen denominator is zero.
        """
        den = self.ballots_cast if denominator == "ballots_cast" else self.valid_ballots
        if den == 0:
            return None
        return self.votes.get(party, 0) / den


@dataclass(frozen=True)
class RegionInfo:
    region_id: str
    name: str
    status: str = "ordinary"
    exceptional: bool = False
    geo_tag: str | None = None

    def __post_init__(self):
        if self.status not in REGION_STATUSES:
            raise ValueError(f"unknown region status {self.status!r}")
        if self.geo_tag is not None and self.geo_tag not in GEO_TAGS:
            raise ValueError(f"unknown geo tag {self.geo_tag!r}")


@dataclass(frozen=True, init=False, eq=False)
class Dataset:
    """The region registry plus one row per station, stored as columns.

    Built from `columns`, or from PrecinctRecords given as `records`, which
    win when both are given (as in `dataclasses.replace(ds, records=...)`).
    """

    regions: Mapping[str, RegionInfo]
    parties: tuple[str, ...]
    columns: Columns

    def __init__(self, records=None, regions=None, parties=(), columns=None):
        if records is not None:
            columns = _columns_from_records(records, regions, parties)
        n = len(columns.registered)
        bad_region = n and not 0 <= columns.region.min() <= columns.region.max() < len(regions)
        if columns.votes.shape != (n, len(parties)) or bad_region:
            raise ValueError("columns do not match the parties or regions")
        self.__dict__.update(regions=regions, parties=parties, columns=columns)  # frozen: skip __setattr__

    def __len__(self) -> int:
        return len(self.columns.registered)

    def __eq__(self, other):
        if not isinstance(other, Dataset) or (self.regions, self.parties) != (other.regions, other.parties):
            return False
        return all(map(np.array_equal, self.columns._arrays(), other.columns._arrays()))

    @cached_property
    def records(self) -> tuple[PrecinctRecord, ...]:
        """The stations as PrecinctRecords (votes for every party, in `parties`
        order), built from the columns on first use and kept."""
        c, region_ids = self.columns, list(self.regions)
        votes = [dict(zip(self.parties, row)) for row in c.votes.tolist()]
        return tuple(
            map(PrecinctRecord, c.station_ids.tolist(), [region_ids[g] for g in c.region.tolist()],
                c.registered.tolist(), c.ballots_cast.tolist(), c.valid_ballots.tolist(), votes)
        )


@dataclass(frozen=True, eq=False)
class Columns:
    """A dataset's stations as read-only arrays, one entry per station."""

    registered: np.ndarray
    ballots_cast: np.ndarray
    valid_ballots: np.ndarray
    votes: np.ndarray  # (stations, parties), parties in Dataset.parties order
    region: np.ndarray  # position of the station's region in Dataset.regions
    station_ids: np.ndarray  # object array of str

    def __post_init__(self):  # datasets share unchanged columns, so none may change
        for array in self._arrays():
            array.flags.writeable = False

    def _arrays(self) -> list[np.ndarray]:
        return [getattr(self, f.name) for f in fields(self)]

    @cached_property
    def violations(self) -> dict[str, np.ndarray]:
        """Violation code -> mask of the stations breaking that count identity."""
        return {
            "V_VOTES_GT_VALID": self.votes.sum(axis=1) > self.valid_ballots,
            "V_VALID_GT_CAST": self.valid_ballots > self.ballots_cast,
            "V_CAST_GT_REG": self.ballots_cast > self.registered,
            "V_ZERO_REGISTERED": self.registered == 0,
        }

    @property
    def flagged(self) -> np.ndarray:
        """Mask of stations with at least one violation."""
        return np.logical_or.reduce(list(self.violations.values()))


def _columns_from_records(records, regions: Mapping[str, RegionInfo], parties: tuple[str, ...]) -> Columns:
    recs, code = tuple(records), {rid: i for i, rid in enumerate(regions)}
    for rec in recs:
        if rec.region_id not in code:
            raise ValueError(f"record {rec.station_id}: unknown region {rec.region_id!r}")
        for party in rec.votes:
            if party not in parties:
                raise ValueError(f"record {rec.station_id}: unknown party {party!r}")
    rows = [(r.registered, r.ballots_cast, r.valid_ballots, *(r.votes.get(p, 0) for p in parties)) for r in recs]
    counts = np.array(rows, np.int64).reshape(len(recs), 3 + len(parties))
    return Columns(
        *counts[:, :3].T.copy(), counts[:, 3:].copy(),
        region=np.array([code[r.region_id] for r in recs], np.int32),
        station_ids=np.fromiter((r.station_id for r in recs), object, len(recs)),
    )


@dataclass(frozen=True)
class Violation:
    station_id: str
    code: str
    detail: str


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def counts(self) -> dict[str, int]:
        return dict(Counter(v.code for v in self.violations))

    def __bool__(self) -> bool:
        return not self.violations

    def to_json(self) -> str:
        return json.dumps(
            {
                "violations": [
                    {"station_id": v.station_id, "code": v.code, "detail": v.detail}
                    for v in self.violations
                ],
                "counts": self.counts,
            },
            indent=2,
            sort_keys=True,
        )


def _read_text(source: str | Path | IO[str], where: str) -> str:
    """The whole text of a path (UTF-8, optional BOM) or of a caller's stream.

    Bytes that are not UTF-8 are a ParseError naming their line, after `where`.
    """
    if not isinstance(source, (str, Path)):
        return source.read()
    with open(source, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        line = exc.object.count(b"\n", 0, exc.start) + 1  # exc.object: data after any BOM
        reason = f"{exc.reason}, byte 0x{exc.object[exc.start]:02x}"
        raise ParseError(f"{where}line {line}: invalid UTF-8 ({reason})") from None


def _csv_rows(text: str):
    """The csv rows of `text`; a csv.Error (such as a field over the field
    limit) ends them as the last item instead of being raised, so that the
    rows before it can be checked first."""
    try:
        yield from csv.reader(io.StringIO(text, newline=""))
    except csv.Error as exc:
        yield exc


def _count_problem(token: str, column: str) -> str | None:
    """Why a count token is rejected, or None when it is a valid count."""
    token = token.strip()
    try:
        value = int(token)
    except ValueError:
        return f"non-integer {column} value {token!r}"
    if value < 0:
        return f"negative {column} value {value}"
    if value > INT64_MAX:
        return f"{column} value {value} exceeds the int64 maximum {INT64_MAX}"
    return None


def parse_regions(source: str | Path | IO[str]) -> dict[str, RegionInfo]:
    """Parse a region registry CSV into a region_id -> RegionInfo mapping."""
    rows = _csv_rows(_read_text(source, "region registry "))
    header = next(rows, None)
    if isinstance(header, csv.Error):
        raise ParseError(f"region registry line 1: {header}")
    if header is None or tuple(h.strip() for h in header) != REGISTRY_COLUMNS:
        raise ParseError("region registry: bad or missing header row")
    regions: dict[str, RegionInfo] = {}
    for line_no, row in enumerate(rows, start=2):
        if isinstance(row, csv.Error):
            raise ParseError(f"region registry line {line_no}: {row}")
        if not row:
            continue
        if len(row) != 5:
            raise ParseError(f"region registry line {line_no}: expected 5 columns, got {len(row)}")
        region_id, name, status, exceptional, geo_tag = (c.strip() for c in row)
        if region_id in regions:
            raise ParseError(f"region registry line {line_no}: duplicate region {region_id!r}")
        if exceptional not in ("0", "1"):
            raise ParseError(f"region registry line {line_no}: exceptional must be 0 or 1")
        try:
            regions[region_id] = RegionInfo(
                region_id=region_id,
                name=name,
                status=status,
                exceptional=exceptional == "1",
                geo_tag=geo_tag or None,
            )
        except ValueError as exc:
            raise ParseError(f"region registry line {line_no}: {exc}") from None
    return regions


def parse_dataset(
    source: str | Path | IO[str],
    registry: str | Path | IO[str] | Mapping[str, RegionInfo],
) -> Dataset:
    """Parse a precinct CSV against a region registry (path, stream, or mapping).

    Raises ParseError naming the offending line for malformed rows, duplicate
    station ids, or region ids missing from the registry.
    """
    regions = dict(registry) if isinstance(registry, Mapping) else parse_regions(registry)
    code = {rid: i for i, rid in enumerate(regions)}
    text = _read_text(source, "")
    header = next(_csv_rows(text), None)  # a reader of its own: its copy of the text is freed now
    if isinstance(header, csv.Error):
        raise ParseError(f"line 1: {header}")
    if header is None:
        raise ParseError("precinct file: missing header row")
    header = [h.strip() for h in header]
    if tuple(header[: len(FIXED_COLUMNS)]) != FIXED_COLUMNS:
        raise ParseError(f"precinct file: header must start with {','.join(FIXED_COLUMNS)}")
    parties = []
    for col in header[len(FIXED_COLUMNS) :]:
        if not col.startswith(VOTE_PREFIX) or len(col) == len(VOTE_PREFIX):
            raise ParseError(f"precinct file: bad vote column name {col!r}")
        parties.append(col[len(VOTE_PREFIX) :])
    if len(set(parties)) != len(parties):
        raise ParseError("precinct file: duplicate party columns")

    columns = _plain_columns(text, len(header), code)
    if columns is None:  # not plain, or some line is bad: the csv path finds and names it
        rows, chunks, line_no, seen = islice(_csv_rows(text), 1, None), [], 2, set()
        while True:  # a chunk at a time: the whole file never exists as row lists
            chunk = list(islice(rows, PARSE_CHUNK))
            error = chunk.pop() if chunk and isinstance(chunk[-1], csv.Error) else None
            chunks.append(_chunk_columns(chunk, line_no, len(header), code, parties, seen))
            line_no += len(chunk)
            if error is not None:
                raise ParseError(f"line {line_no}: {error}")
            if len(chunk) < PARSE_CHUNK:
                break
        columns = Columns(*map(np.concatenate, zip(*chunks)))
    return Dataset(regions=regions, parties=tuple(parties), columns=columns)


def _plain_columns(text: str, width: int, code: Mapping[str, int]) -> Columns | None:
    """The columns of a plain, valid precinct CSV, read by numpy's C parser.

    Plain means no quote, CR or NUL, no blank line, no line longer than the
    csv field limit and exactly `width` fields on every row.  Returns None
    (and the csv path then runs) when the text is not plain or any row fails
    a check; otherwise the columns equal those of the csv path.  The
    `comments=None` C reader accepts no count token that int() rejects and
    reads none to a different value.
    """
    if '"' in text or "\r" in text or "\0" in text:
        return None
    lines = text.split("\n")[1:]  # below the header
    if lines and not lines[-1]:
        lines.pop()
    if not lines or "" in lines or max(map(len, lines)) > csv.field_size_limit():
        return None
    row_type = np.dtype([("station_id", object), ("region_id", object), ("counts", np.int64, (width - 2,))])
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)  # older numpy reads "1.0" as 1, warning
            table = np.loadtxt(lines, dtype=row_type, delimiter=",", comments=None, ndmin=1)
    except (ValueError, OverflowError, DeprecationWarning):
        return None
    n, counts = len(table), table["counts"]
    station_ids = list(map(str.strip, table["station_id"].tolist()))
    region = np.fromiter(map(code.get, map(str.strip, table["region_id"].tolist()), repeat(-1)), np.int32, n)
    if (counts < 0).any() or (region < 0).any() or len(set(station_ids)) < n:
        return None
    return Columns(
        *counts[:, :3].T.copy(), counts[:, 3:].copy(), region, np.fromiter(station_ids, object, n)
    )


def _chunk_columns(rows: list[list[str]], first_line: int, width: int, code, parties, seen: set[str]):
    """Column arrays of consecutive precinct rows, the first at `first_line`.

    Raises the ParseError of the first bad line, and for that line the first
    check it fails in this order: column count, duplicate station id (also
    against `seen`, which gains the chunk's ids), unknown region, then each
    count column in file order.
    """
    lengths = np.fromiter(map(len, rows), np.intp, len(rows))
    line_nos = np.flatnonzero(lengths) + first_line  # blank lines are skipped but counted
    rows, lengths = list(compress(rows, lengths)), lengths[lengths > 0]
    errors = []  # (row, check, message)
    wrong = np.flatnonzero(lengths != width)
    n = int(wrong[0]) if len(wrong) else len(rows)
    if n < len(rows):
        errors.append((n, 0, f"expected {width} columns, got {lengths[n]}"))
    tokens = list(zip(*rows[:n])) or [()] * width

    station_ids = list(map(str.strip, tokens[0]))
    repeat_at = next((i for i, sid in enumerate(station_ids) if sid in seen or seen.add(sid)), None)
    if repeat_at is not None:
        errors.append((repeat_at, 1, f"duplicate station_id {station_ids[repeat_at]!r}"))
    region_ids = list(map(str.strip, tokens[1]))
    region = np.fromiter(map(code.get, region_ids, repeat(-1)), np.int32, n)
    if (region < 0).any():
        i = int(np.argmax(region < 0))
        errors.append((i, 2, f"unknown region_id {region_ids[i]!r}"))

    names = [*FIXED_COLUMNS[2:], *(VOTE_PREFIX + p for p in parties)]
    counts = []
    for check, (column, col_tokens) in enumerate(zip(names, tokens[2:]), start=3):
        try:
            values = np.fromiter(map(int, map(str.strip, col_tokens)), np.int64, n)
        except (ValueError, OverflowError):
            values = np.full(n, -1)  # some token is not a count: find the first below
        if (values < 0).any():
            i = next(i for i, tok in enumerate(col_tokens) if _count_problem(tok, column))
            errors.append((i, check, _count_problem(col_tokens[i], column)))
        counts.append(values)
    if errors:
        row, _, message = min(errors)
        raise ParseError(f"line {line_nos[row]}: {message}")
    votes = np.array(counts[3:], np.int64).T.reshape(n, len(parties))
    return *counts[:3], votes, region, np.fromiter(station_ids, object, n)


def serialize_dataset(ds: Dataset) -> str:
    """Render a dataset back to the precinct CSV format (parse round-trips)."""
    c, region_ids = ds.columns, list(ds.regions)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(list(FIXED_COLUMNS) + [VOTE_PREFIX + p for p in ds.parties])
    counts = (c.registered, c.ballots_cast, c.valid_ballots, *c.votes.T)
    region_ids = [region_ids[g] for g in c.region.tolist()]
    writer.writerows(zip(c.station_ids.tolist(), region_ids, *(col.tolist() for col in counts)))
    return out.getvalue()


def serialize_regions(regions: Mapping[str, RegionInfo]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(REGISTRY_COLUMNS)
    for info in regions.values():
        writer.writerow(
            [info.region_id, info.name, info.status, int(info.exceptional), info.geo_tag or ""]
        )
    return out.getvalue()


_VIOLATION_DETAIL = {
    "V_VOTES_GT_VALID": lambda c, i: f"votes sum {c.votes[i].sum()} > valid ballots {c.valid_ballots[i]}",
    "V_VALID_GT_CAST": lambda c, i: f"valid ballots {c.valid_ballots[i]} > ballots cast {c.ballots_cast[i]}",
    "V_CAST_GT_REG": lambda c, i: f"ballots cast {c.ballots_cast[i]} > registered {c.registered[i]}",
    "V_ZERO_REGISTERED": lambda c, i: "no registered electors",
}


def validate(ds: Dataset) -> ValidationReport:
    """Report every count-identity violation; never mutates the dataset.

    Codes: V_VOTES_GT_VALID, V_VALID_GT_CAST, V_CAST_GT_REG, V_ZERO_REGISTERED.
    """
    cols = ds.columns
    report = ValidationReport()
    for i in np.flatnonzero(cols.flagged).tolist():
        for code, mask in cols.violations.items():
            if mask[i]:
                detail = _VIOLATION_DETAIL[code](cols, i)
                report.violations.append(Violation(cols.station_ids[i], code, detail))
    return report


def flagged_stations(ds: Dataset) -> frozenset[str]:
    """Station ids with at least one validation violation."""
    cols = ds.columns
    return frozenset(cols.station_ids[cols.flagged].tolist())


def select(
    ds: Dataset,
    region_filter: Callable[[RegionInfo], bool] | None,
    include_flagged: bool,
    min_station_size: int,
    denominator: str,
) -> np.ndarray:
    """Per-station exclusion reason code (see EXCLUSION_REASONS); 0 = included.

    `denominator` names the column the analysed value is divided by.  Reasons
    take precedence in this order: region_filtered, validation_flagged, then
    below_min_size, or zero_denominator when the station has no registered
    electors or a zero denominator.
    """
    cols = ds.columns
    reason = np.zeros(len(ds), np.int8)
    # later assignments overwrite earlier ones: lowest precedence first
    reason[getattr(cols, denominator) == 0] = ZERO_DENOMINATOR
    reason[cols.registered < max(min_station_size, 1)] = BELOW_MIN_SIZE
    reason[cols.registered == 0] = ZERO_DENOMINATOR
    if not include_flagged:
        reason[cols.flagged] = VALIDATION_FLAGGED
    if region_filter is not None:
        keep = np.array([bool(region_filter(info)) for info in ds.regions.values()], dtype=bool)
        reason[~keep[cols.region]] = REGION_FILTERED
    return reason


def station_size_distribution(ds: Dataset) -> SizeMeasure:
    """Empirical measure over station sizes (registered electors).

    Weight of size n = number of stations with that many registered electors;
    total mass = number of records with registered > 0 (zero-registered
    stations cannot be carried by a size measure and are dropped).
    """
    registered = ds.columns.registered
    sizes, counts = np.unique(registered[registered > 0], return_counts=True)
    return SizeMeasure(dict(zip(sizes.tolist(), map(float, counts.tolist()))))
