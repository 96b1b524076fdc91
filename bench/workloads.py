"""The benchmark's three workloads: inputs made from a seed, one pass each, output checks.

A pass is a fixed list of steps.  Each step makes one call into urnstats and
has a check that reads only that pass's results and the reference counts the
set-up took from the generated input.  Every check is an identity that any
correct version of the package satisfies (weights add up, nothing is lost,
totals equal column sums), so a failure is a wrong answer, never a changed
algorithm.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if not (SRC / "urnstats" / "__init__.py").is_file():
    raise ImportError(f"urnstats sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from urnstats import cli, ingest, ru2011, synth  # noqa: E402
from urnstats import cloud as cloud_mod  # noqa: E402
from urnstats import histogram, mixture, rational, region, svg  # noqa: E402
from urnstats.histogram import HistogramSpec  # noqa: E402

STATIONS = 100_000
# --seed picks one of this many input variants; golden.json holds the seed
# commit's output hashes for each, so every run can report changed outputs.
INPUT_VARIANTS = 16
PARTY = "UR"
DENT_SPEC = dict(bin_width=0.005, min_station_size=400, align_center=0.65)
DRAWING = dict(kind="result_drawing", party=PARTY, affected=0.05, targets=(0.65, 0.75))
STUFFING = dict(kind="ballot_stuffing", party=PARTY, affected=0.05, rate=0.1)
GOLDEN = Path(__file__).resolve().parent / "golden.json"


def variant(seed: int) -> int:
    return seed % INPUT_VARIANTS


def beta(mean: float, concentration: float) -> dict:
    return {"kind": "beta", "a": mean * concentration, "b": (1.0 - mean) * concentration}


def national_model(stations: int = STATIONS) -> synth.HonestModel:
    """The 83 regions of the 2011 reference table.  Station counts follow the
    electors column; turnout and UR support are centred on the table's values."""
    total = sum(row[5] for row in ru2011.REGION_TABLE)
    regions = []
    for region_id, _, _, _, _, electors, ur_pct, turnout_pct, _ in ru2011.REGION_TABLE:
        ur, rest = ur_pct / 100.0, 1.0 - ur_pct / 100.0
        regions.append(
            synth.RegionModel(
                region_id=region_id,
                station_count=max(1, round(stations * electors / total)),
                size={"kind": "loguniform", "low": 10, "high": 3000},
                turnout=beta(turnout_pct / 100.0, 40),
                support={"UR": beta(ur, 30), "KPRF": beta(0.6 * rest, 30), "LDPR": beta(0.3 * rest, 30)},
            )
        )
    return synth.HonestModel(tuple(regions))


def heterogeneous_model(stations: int = STATIONS) -> synth.HonestModel:
    """Four regions with UR support means 0.30-0.60 and station sizes 10-3000,
    the acceptance suite's ground-truth model at a chosen size."""
    return synth.HonestModel(
        tuple(
            synth.RegionModel(
                region_id=f"r{i}",
                station_count=stations // 4,
                size={"kind": "loguniform", "low": 10, "high": 3000},
                turnout={"kind": "beta", "a": 24, "b": 16},
                support={"UR": beta(m, 30), "OPP": beta(0.9 - m, 30)},
            )
            for i, m in enumerate((0.30, 0.40, 0.50, 0.60))
        )
    )


@dataclass
class Step:
    name: str
    call: Callable[[dict], object]  # results so far -> this step's result
    check: Callable[[dict], bool]  # all results of the pass -> identity holds
    span: str | None = None  # span the runner opens around the call, if any


@dataclass
class Context:
    """What a workload's set-up leaves for its passes."""

    seed: int
    workdir: Path
    inputs: dict  # reported with every run
    ref: dict = field(default_factory=dict)  # reference counts for the checks
    dataset: object = None
    model: object = None
    golden: dict = field(default_factory=dict)  # golden key -> {output: sha256} at the seed commit


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def reference_counts(ds) -> dict:
    exceptional = ru2011.EXCEPTIONAL_REGIONS
    return {
        "stations": len(ds.records),
        "sized_stations": sum(1 for r in ds.records if r.registered > 0),
        "party_votes": sum(r.votes.get(PARTY, 0) for r in ds.records),
        "exceptional_votes": sum(r.votes.get(PARTY, 0) for r in ds.records if r.region_id in exceptional),
    }


def describe(ds, csv_bytes: int | None) -> dict:
    sizes = {r.registered for r in ds.records if r.registered > 0}
    return {
        "stations": len(ds.records),
        "regions": len({r.region_id for r in ds.records}),
        "distinct_station_sizes": len(sizes),
        "csv_bytes": csv_bytes,
        # work drivers: coinflip evaluates one pmf term per k in 0..n for each
        # distinct size n; the Kolmogorov grid is 4001 points by distinct sizes
        "pmf_terms": sum(n + 1 for n in sizes),
        "grid_cells": 4001 * len(sizes),
    }


def load_golden(section: str) -> dict:
    if not GOLDEN.is_file():
        return {}
    return json.loads(GOLDEN.read_text())[section]


def write_national(seed: int, workdir: Path, stations: int):
    """Generate the national dataset and write it, with the reference registry, as CSV."""
    workdir.mkdir(parents=True, exist_ok=True)
    ds = synth.generate(national_model(stations), variant(seed))
    text = ingest.serialize_dataset(ds)
    (workdir / "precincts.csv").write_text(text, encoding="utf-8")
    (workdir / "regions.csv").write_text(
        ingest.serialize_regions(ru2011.default_registry()), encoding="utf-8"
    )
    return ds, len(text.encode("utf-8"))


def hist_adds_up(h, total: float) -> bool:
    return abs(h.total_weight() + h.excluded_weight() - total) <= 1e-9 * max(total, 1.0)


def bound_matches(bound: float, report) -> bool:
    if report.total_weight <= 0:
        return bound == 0.0
    expected = max(sum(c.excess for c in report.flagged()) / report.total_weight, 0.0)
    return 0.0 <= bound <= 1.0 and abs(bound - expected) <= 1e-12


# ----------------------------------------------------------------- cli-national

CLI_HIST = ["--party", PARTY, "--weight", "party_votes", "--min-size", "400", "--center", "0.65"]
CLI_COMMANDS = (
    ("validate", "validate.json", []),
    ("hist", "hist.json", CLI_HIST),
    ("turnout-hist", "turnout.svg", ["--exclude-exceptional", "--format", "svg"]),
    ("dents", "dents.json", CLI_HIST),
    ("bound", "bound.json", CLI_HIST),
    ("cloud", "cloud.svg", ["--party", PARTY, "--format", "svg", "--exclude-exceptional"]),
    ("compress", "compress.csv", ["--party", PARTY, "--format", "csv", "--exclude-exceptional"]),
    ("modes", "modes.json", ["--party", PARTY]),
    ("coinflip", "coinflip.json", ["--p", "0.5", "--bin-width", "0.001"]),
    ("mixture", "mixture.json", ["--p", "0.5"]),
    ("region-report", "region-report.csv", ["--party", PARTY]),
    ("decompose", "decompose.json", ["--party", PARTY]),
)


def setup_cli_national(seed: int, workdir: Path, stations: int = STATIONS) -> Context:
    ds, csv_bytes = write_national(seed, workdir, stations)
    golden = load_golden("cli-national") if stations == STATIONS else {}
    return Context(seed, workdir, describe(ds, csv_bytes), reference_counts(ds), golden=golden)


def _cli_checks(ctx: Context) -> dict[str, Callable[[dict], bool]]:
    ref = ctx.ref

    def text(name):
        return (ctx.workdir / name).read_text(encoding="utf-8")

    def js(name):
        return json.loads(text(name))

    def hist_ok(_):
        h = js("hist.json")
        return abs(sum(b["weight"] for b in h["bins"]) + sum(h["excluded"].values()) - ref["party_votes"]) < 1e-6

    def validate_ok(_):
        v = js("validate.json")
        return sum(v["counts"].values()) == len(v["violations"])

    def dents_ok(_):
        d, h = js("dents.json"), js("hist.json")
        return d["total_weight"] == sum(b["weight"] for b in h["bins"]) and len(d["candidates"]) == 10

    def bound_ok(_):
        d, b = js("dents.json"), js("bound.json")
        excess = sum(c["excess"] for c in d["candidates"] if c["flagged"])
        expected = max(excess / d["total_weight"], 0.0) if d["total_weight"] > 0 else 0.0
        return abs(b["bound"] - expected) <= 1e-12

    def turnout_ok(_):
        svg_text = text("turnout.svg")
        points = re.findall(r'<polyline points="([^"]*)"', svg_text)
        return len(points) == 1 and len(points[0].split()) == len(HistogramSpec().edges()) - 1

    def cloud_ok(_):
        circles = text("cloud.svg").count("<circle ")
        rows = text("compress.csv").count("\n") - 1
        return circles == rows and 0 < rows <= ref["stations"]

    def modes_ok(_):
        m = js("modes.json")
        return 1 <= len(m) <= 4 and sum(x["density"] for x in m) <= ref["stations"]

    def coinflip_ok(_):
        c = js("coinflip.json")
        return abs(sum(b["weight"] for b in c["bins"]) - ref["sized_stations"]) <= 1e-9 * ref["sized_stations"]

    def mixture_ok(_):
        m = js("mixture.json")
        return m["variance"] > 0 and m["excess_kurtosis"] >= -1e-12 and 0.0 <= m["kolmogorov_distance_to_gaussian"] <= 1.0

    def region_ok(_):
        rows = text("region-report.csv").splitlines()[1:]
        return sorted(r.split(",")[0] for r in rows) == sorted(ru2011.default_registry())

    def decompose_ok(_):
        d = js("decompose.json")
        return d["total_votes"] == ref["party_votes"] and d["subset_votes"] == ref["exceptional_votes"]

    return {
        "validate": validate_ok, "hist": hist_ok, "turnout-hist": turnout_ok, "dents": dents_ok,
        "bound": bound_ok, "cloud": cloud_ok, "compress": cloud_ok, "modes": modes_ok,
        "coinflip": coinflip_ok, "mixture": mixture_ok, "region-report": region_ok,
        "decompose": decompose_ok,
    }


def cli_national_steps(ctx: Context, pass_index: int) -> list[Step]:
    data = ["--input", str(ctx.workdir / "precincts.csv"), "--regions", str(ctx.workdir / "regions.csv")]
    checks = _cli_checks(ctx)
    steps = []
    for sub, out, extra in CLI_COMMANDS:
        argv = [sub, *data, *extra, "--output", str(ctx.workdir / out)]
        steps.append(
            Step(
                sub,
                lambda res, argv=argv: cli.main(argv),
                lambda res, sub=sub: res[sub] == 0 and checks[sub](res),
                span=f"cli.{sub}",
            )
        )
    return steps


def cli_national_outputs(ctx: Context, pass_index: int, results: dict) -> tuple[str, dict]:
    return str(variant(ctx.seed)), {out: sha256((ctx.workdir / out).read_bytes()) for _, out, _ in CLI_COMMANDS}


# ----------------------------------------------------------------- api-analysis


def setup_api_analysis(seed: int, workdir: Path, stations: int = STATIONS) -> Context:
    _, csv_bytes = write_national(seed, workdir, stations)
    ds = ingest.parse_dataset(workdir / "precincts.csv", workdir / "regions.csv")
    return Context(seed, workdir, describe(ds, csv_bytes), reference_counts(ds), dataset=ds)


def api_analysis_steps(ctx: Context, pass_index: int) -> list[Step]:
    ds, ref = ctx.dataset, ctx.ref
    stations_spec = HistogramSpec(weight_mode="stations", **DENT_SPEC)
    votes_spec = HistogramSpec(weight_mode="party_votes", **DENT_SPEC)

    def cloud_ok(r):
        c = r["cloud"]
        return len(c) + sum(c.excluded.values()) == ref["stations"]

    def modes_ok(key, points):
        return lambda r: 1 <= len(r[key]) <= 4 and sum(m.density for m in r[key]) <= len(r[points])

    def association_ok(r):
        pr, rho, n = r["association"]
        return n == len(r["cloud"]) and abs(pr) <= 1.0 and abs(rho) <= 1.0

    def moments_ok(r):
        mean, var, excess = r["moments"]
        return mean == 0.5 and var > 0 and excess >= -1e-12

    def decompose_ok(r):
        d = r["decompose"]
        return d.total_votes == ref["party_votes"] and d.subset_votes == ref["exceptional_votes"]

    return [
        Step("hist_stations", lambda r: histogram.station_voting_histogram(ds, PARTY, stations_spec),
             lambda r: hist_adds_up(r["hist_stations"], ref["stations"])),
        Step("hist_votes", lambda r: histogram.station_voting_histogram(ds, PARTY, votes_spec),
             lambda r: hist_adds_up(r["hist_votes"], ref["party_votes"])),
        Step("turnout", lambda r: histogram.turnout_histogram(ds, HistogramSpec()),
             lambda r: hist_adds_up(r["turnout"], ref["stations"])),
        Step("dents", lambda r: rational.detect_dents(r["hist_votes"]),
             lambda r: r["dents"].total_weight == r["hist_votes"].total_weight() and len(r["dents"].candidates) == 10),
        Step("bound", lambda r: rational.falsification_lower_bound(ds, PARTY, r["dents"]),
             lambda r: bound_matches(r["bound"], r["dents"])),
        Step("cloud", lambda r: cloud_mod.build_cloud(ds, PARTY), cloud_ok),
        Step("compress", lambda r: cloud_mod.compress(r["cloud"]),
             lambda r: len(r["compress"]) == len(r["cloud"]) and all(p.v <= p.u + 1e-12 for p in r["compress"])),
        Step("modes_cloud", lambda r: cloud_mod.estimate_modes(r["cloud"]), modes_ok("modes_cloud", "cloud")),
        Step("modes_compressed", lambda r: cloud_mod.estimate_modes(r["compress"]),
             modes_ok("modes_compressed", "compress")),
        Step("association", lambda r: cloud_mod.turnout_share_association(ds, PARTY), association_ok),
        Step("sizes", lambda r: ingest.station_size_distribution(ds),
             lambda r: r["sizes"].total() == ref["sized_stations"]),
        Step("coinflip", lambda r: rational.coinflip_histogram(r["sizes"], 0.5, HistogramSpec(bin_width=0.001)),
             lambda r: abs(r["coinflip"].total_weight() - ref["sized_stations"]) <= 1e-9 * ref["sized_stations"]),
        Step("moments", lambda r: mixture.mixture_moments(r["sizes"].normalize(), 0.5), moments_ok),
        Step("kolmogorov", lambda r: mixture.kolmogorov_gaussian_distance(r["sizes"].normalize(), 0.5),
             lambda r: 0.0 <= r["kolmogorov"] <= 1.0),
        Step("region_report", lambda r: region.region_report_csv(ds, PARTY),
             lambda r: len(r["region_report"].splitlines()) == len(ds.regions) + 1),
        Step("decompose", lambda r: region.decompose(ds, PARTY, ru2011.EXCEPTIONAL_REGIONS), decompose_ok),
        Step("scatter", lambda r: svg.scatter_svg([p.coords for p in r["cloud"].points]),
             lambda r: r["scatter"].count("<circle ") == len(r["cloud"])),
    ]


def api_analysis_outputs(ctx: Context, pass_index: int, results: dict) -> tuple[str, dict]:
    return str(variant(ctx.seed)), {}


# ------------------------------------------------------------ synth-groundtruth


def setup_synth_groundtruth(seed: int, workdir: Path, stations: int = STATIONS) -> Context:
    workdir.mkdir(parents=True, exist_ok=True)
    model = heterogeneous_model(stations)
    n = sum(r.station_count for r in model.regions)
    golden = load_golden("synth-groundtruth") if stations == STATIONS else {}
    return Context(seed, workdir, {"stations": n}, {"stations": n}, model=model, golden=golden)


def hit_mask(n: int, affected: float, seed: int) -> np.ndarray:
    """Stations an injector may touch: `inject` draws one Philox uniform per
    station, keyed by (seed, 0), and hits those below `affected`.  The CLI's
    byte-identical output bar fixes this draw."""
    rng = np.random.Generator(np.random.Philox(key=np.array([seed % 2**64, 0], dtype=np.uint64)))
    return rng.random(n) < affected


def hit_set(station_ids, affected: float, seed: int) -> set:
    return {sid for sid, hit in zip(station_ids, hit_mask(len(station_ids), affected, seed)) if hit}


def manifest_ok(before, after, manifest, affected: float, seed: int) -> bool:
    """Modified and skipped stations are disjoint hits, and exactly the modified ones changed."""
    ids = [r.station_id for r in before.records]
    modified, skipped = set(manifest["modified"]), set(manifest["skipped"])
    changed = {a.station_id for a, b in zip(before.records, after.records) if a != b}
    return (
        len(after.records) == len(before.records)
        and not modified & skipped
        and modified | skipped <= hit_set(ids, affected, seed)
        and changed == modified
    )


def synth_pass_seed(ctx: Context, pass_index: int) -> int:
    return variant(ctx.seed + pass_index)


def synth_groundtruth_steps(ctx: Context, pass_index: int) -> list[Step]:
    g = synth_pass_seed(ctx, pass_index)
    n = ctx.ref["stations"]
    stations_spec = HistogramSpec(weight_mode="stations", **DENT_SPEC)
    votes_spec = HistogramSpec(weight_mode="party_votes", **DENT_SPEC)
    drawing, stuffing = synth.FraudInjector(**DRAWING), synth.FraudInjector(**STUFFING)

    def serialize(r):
        text = ingest.serialize_dataset(r["draw"][0])
        (ctx.workdir / "drawn.csv").write_text(text, encoding="utf-8")
        return text

    def generated_ok(r):
        ds = r["generate"]
        return len(ds.records) == n and set(ds.regions) == {m.region_id for m in ctx.model.regions}

    def votes_total(r):
        return sum(rec.votes.get(PARTY, 0) for rec in r["draw"][0].records)

    return [
        Step("generate", lambda r: synth.generate(ctx.model, g), generated_ok),
        Step("draw", lambda r: synth.inject(r["generate"], drawing, g + 1000),
             lambda r: manifest_ok(r["generate"], r["draw"][0], r["draw"][1], drawing.affected, g + 1000)),
        Step("stuff", lambda r: synth.inject(r["generate"], stuffing, g + 2000),
             lambda r: manifest_ok(r["generate"], r["stuff"][0], r["stuff"][1], stuffing.affected, g + 2000)),
        Step("serialize", serialize, lambda r: r["serialize"].count("\n") == n + 1),
        Step("hist_stations", lambda r: histogram.station_voting_histogram(r["draw"][0], PARTY, stations_spec),
             lambda r: hist_adds_up(r["hist_stations"], n)),
        Step("dents_stations", lambda r: rational.detect_dents(r["hist_stations"]),
             lambda r: r["dents_stations"].total_weight == r["hist_stations"].total_weight()),
        Step("hist_votes", lambda r: histogram.station_voting_histogram(r["draw"][0], PARTY, votes_spec),
             lambda r: hist_adds_up(r["hist_votes"], votes_total(r))),
        Step("dents_votes", lambda r: rational.detect_dents(r["hist_votes"]),
             lambda r: r["dents_votes"].total_weight == r["hist_votes"].total_weight()),
        Step("bound", lambda r: rational.falsification_lower_bound(r["draw"][0], PARTY, r["dents_votes"]),
             lambda r: bound_matches(r["bound"], r["dents_votes"])),
    ]


def manifest_bytes(manifest: dict) -> bytes:
    return (json.dumps(manifest, indent=2, sort_keys=True) + "\n").encode("utf-8")


def synth_groundtruth_outputs(ctx: Context, pass_index: int, results: dict) -> tuple[str, dict]:
    if pass_index == 0:  # the inputs are made inside the pass: describe the first one
        ctx.inputs.update(describe(results["generate"], len(results["serialize"].encode("utf-8"))))
    return str(synth_pass_seed(ctx, pass_index)), {
        "drawn.csv": sha256((ctx.workdir / "drawn.csv").read_bytes()),
        "draw-manifest.json": sha256(manifest_bytes(results["draw"][1])),
        "stuff-manifest.json": sha256(manifest_bytes(results["stuff"][1])),
    }


@dataclass(frozen=True)
class Workload:
    setup: Callable[..., Context]  # (seed, workdir, stations) -> Context
    steps: Callable[[Context, int], list[Step]]
    outputs: Callable[[Context, int, dict], tuple[str, dict]]  # -> (golden key, {output: sha256})


WORKLOADS = {
    "cli-national": Workload(setup_cli_national, cli_national_steps, cli_national_outputs),
    "api-analysis": Workload(setup_api_analysis, api_analysis_steps, api_analysis_outputs),
    "synth-groundtruth": Workload(setup_synth_groundtruth, synth_groundtruth_steps, synth_groundtruth_outputs),
}
