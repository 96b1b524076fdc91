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
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter
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


@dataclass(frozen=True)
class Dataset:
    """Immutable collection of precinct records plus the region registry."""

    records: tuple[PrecinctRecord, ...]
    regions: Mapping[str, RegionInfo]
    parties: tuple[str, ...]

    def __post_init__(self):
        for rec in self.records:
            if rec.region_id not in self.regions:
                raise ValueError(f"record {rec.station_id}: unknown region {rec.region_id!r}")
            for party in rec.votes:
                if party not in self.parties:
                    raise ValueError(f"record {rec.station_id}: unknown party {party!r}")

    def __len__(self) -> int:
        return len(self.records)

    @cached_property
    def columns(self) -> Columns:
        """The records as column arrays, built on first use and kept."""
        recs, n, width = self.records, len(self.records), len(self.parties)

        def column(attr, dtype=np.int64):
            return np.fromiter(map(attrgetter(attr), recs), dtype, count=n)

        code = {rid: i for i, rid in enumerate(self.regions)}
        votes = np.fromiter(
            (r.votes.get(p, 0) for r in recs for p in self.parties), np.int64, n * width
        ).reshape(n, width)
        registered, cast, valid = column("registered"), column("ballots_cast"), column("valid_ballots")
        return Columns(
            registered, cast, valid, votes,
            region=np.fromiter((code[r.region_id] for r in recs), np.int32, count=n),
            station_ids=column("station_id", object),
            violations={
                "V_VOTES_GT_VALID": votes.sum(axis=1) > valid,
                "V_VALID_GT_CAST": valid > cast,
                "V_CAST_GT_REG": cast > registered,
                "V_ZERO_REGISTERED": registered == 0,
            },
        )


@dataclass(frozen=True)
class Columns:
    """A dataset's records as arrays, one entry per station in record order."""

    registered: np.ndarray
    ballots_cast: np.ndarray
    valid_ballots: np.ndarray
    votes: np.ndarray  # (stations, parties), parties in Dataset.parties order
    region: np.ndarray  # position of the station's region in Dataset.regions
    station_ids: np.ndarray  # object array of str
    violations: dict[str, np.ndarray]  # violation code -> mask of stations breaking it

    @property
    def flagged(self) -> np.ndarray:
        """Mask of stations with at least one violation."""
        return np.logical_or.reduce(list(self.violations.values()))


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


def _open_text(source: str | Path | IO[str]) -> tuple[IO[str], bool]:
    if isinstance(source, (str, Path)):
        return open(source, "r", encoding="utf-8-sig", newline=""), True
    return source, False


def _to_count(token: str, line_no: int, column: str) -> int:
    token = token.strip()
    try:
        value = int(token)
    except ValueError:
        raise ParseError(f"line {line_no}: non-integer {column} value {token!r}") from None
    if value < 0:
        raise ParseError(f"line {line_no}: negative {column} value {value}")
    return value


def parse_regions(source: str | Path | IO[str]) -> dict[str, RegionInfo]:
    """Parse a region registry CSV into a region_id -> RegionInfo mapping."""
    stream, owned = _open_text(source)
    try:
        reader = csv.reader(stream)
        header = next(reader, None)
        if header is None or tuple(h.strip() for h in header) != REGISTRY_COLUMNS:
            raise ParseError("region registry: bad or missing header row")
        regions: dict[str, RegionInfo] = {}
        for line_no, row in enumerate(reader, start=2):
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
    finally:
        if owned:
            stream.close()


def parse_dataset(
    source: str | Path | IO[str],
    registry: str | Path | IO[str] | Mapping[str, RegionInfo],
) -> Dataset:
    """Parse a precinct CSV against a region registry (path, stream, or mapping).

    Raises ParseError naming the offending line for malformed rows, duplicate
    station ids, or region ids missing from the registry.
    """
    if isinstance(registry, Mapping):
        regions = dict(registry)
    else:
        regions = parse_regions(registry)

    stream, owned = _open_text(source)
    try:
        reader = csv.reader(stream)
        header = next(reader, None)
        if header is None:
            raise ParseError("precinct file: missing header row")
        header = [h.strip() for h in header]
        if tuple(header[: len(FIXED_COLUMNS)]) != FIXED_COLUMNS:
            raise ParseError(
                f"precinct file: header must start with {','.join(FIXED_COLUMNS)}"
            )
        vote_columns = header[len(FIXED_COLUMNS) :]
        parties = []
        for col in vote_columns:
            if not col.startswith(VOTE_PREFIX) or len(col) == len(VOTE_PREFIX):
                raise ParseError(f"precinct file: bad vote column name {col!r}")
            parties.append(col[len(VOTE_PREFIX) :])
        if len(set(parties)) != len(parties):
            raise ParseError("precinct file: duplicate party columns")

        records: list[PrecinctRecord] = []
        seen: set[str] = set()
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(
                    f"line {line_no}: expected {len(header)} columns, got {len(row)}"
                )
            station_id = row[0].strip()
            region_id = row[1].strip()
            if station_id in seen:
                raise ParseError(f"line {line_no}: duplicate station_id {station_id!r}")
            seen.add(station_id)
            if region_id not in regions:
                raise ParseError(f"line {line_no}: unknown region_id {region_id!r}")
            registered = _to_count(row[2], line_no, "registered")
            ballots_cast = _to_count(row[3], line_no, "ballots_cast")
            valid_ballots = _to_count(row[4], line_no, "valid_ballots")
            votes = {
                party: _to_count(tok, line_no, f"votes_{party}")
                for party, tok in zip(parties, row[len(FIXED_COLUMNS) :])
            }
            records.append(
                PrecinctRecord(
                    station_id=station_id,
                    region_id=region_id,
                    registered=registered,
                    ballots_cast=ballots_cast,
                    valid_ballots=valid_ballots,
                    votes=votes,
                )
            )
        return Dataset(records=tuple(records), regions=regions, parties=tuple(parties))
    finally:
        if owned:
            stream.close()


def serialize_dataset(ds: Dataset) -> str:
    """Render a dataset back to the precinct CSV format (parse round-trips)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(list(FIXED_COLUMNS) + [VOTE_PREFIX + p for p in ds.parties])
    for rec in ds.records:
        writer.writerow(
            [
                rec.station_id,
                rec.region_id,
                rec.registered,
                rec.ballots_cast,
                rec.valid_ballots,
            ]
            + [rec.votes.get(p, 0) for p in ds.parties]
        )
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
    "V_VOTES_GT_VALID": lambda r: f"votes sum {r.votes_total} > valid ballots {r.valid_ballots}",
    "V_VALID_GT_CAST": lambda r: f"valid ballots {r.valid_ballots} > ballots cast {r.ballots_cast}",
    "V_CAST_GT_REG": lambda r: f"ballots cast {r.ballots_cast} > registered {r.registered}",
    "V_ZERO_REGISTERED": lambda r: "no registered electors",
}


def validate(ds: Dataset) -> ValidationReport:
    """Report every count-identity violation; never mutates the dataset.

    Codes: V_VOTES_GT_VALID, V_VALID_GT_CAST, V_CAST_GT_REG, V_ZERO_REGISTERED.
    """
    cols = ds.columns
    report = ValidationReport()
    for i in np.flatnonzero(cols.flagged).tolist():
        rec = ds.records[i]
        for code, mask in cols.violations.items():
            if mask[i]:
                report.violations.append(Violation(rec.station_id, code, _VIOLATION_DETAIL[code](rec)))
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
    counts = Counter(rec.registered for rec in ds.records if rec.registered > 0)
    return SizeMeasure({n: float(c) for n, c in sorted(counts.items())})
