"""Command-line front-end.

Every analysis is a subcommand with deterministic output: identical argv,
inputs, and seed produce byte-identical files.  Exit codes: 0 success, 1 data
error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from fractions import Fraction

from . import cloud as cloud_mod
from . import mixture as mixture_mod
from . import rational, region, svg, synth
from .histogram import Histogram, HistogramSpec, station_voting_histogram, turnout_histogram
from .ingest import ParseError, parse_dataset, serialize_dataset, serialize_regions, validate
from .ingest import station_size_distribution

__all__ = ["main"]


def _fractions(text: str) -> list[Fraction]:
    try:
        return [Fraction(tok) for tok in text.split(",")]
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected comma-separated fractions, got {text!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="urnstats", description="Precinct-level election forensics toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_, *, data=True, party=False, hist=False, fmt=False):
        p = sub.add_parser(name, help=help_)
        if data:
            p.add_argument("--input", required=True, help="precinct CSV path")
            p.add_argument("--regions", required=True, help="region registry CSV path")
        if party:
            p.add_argument("--party", required=True)
        if hist:
            p.add_argument("--bin-width", type=float, default=0.005)
            p.add_argument("--weight", default="stations", choices=["stations", "electors", "party_votes"])
            p.add_argument("--min-size", type=int, default=0)
            p.add_argument("--denominator", default="ballots_cast", choices=["ballots_cast", "valid_ballots"])
            p.add_argument("--center", type=float, default=None, help="align bins so this fraction is a bin center")
        if fmt:
            p.add_argument("--format", default="json", choices=["json", "csv", "svg"])
        p.add_argument("--output", default=None, help="output path (default: stdout)")
        p.add_argument("--exclude-exceptional", action="store_true",
                       help="drop regions marked exceptional in the registry")
        return p

    add("validate", "report count-identity violations as JSON")

    add("hist", "station-voting histogram for a party", party=True, hist=True, fmt=True)
    add("turnout-hist", "turnout histogram", hist=True, fmt=True)

    for name in ("cloud", "compress"):
        p = add(name, f"{name} diagram points", party=True, fmt=True)
        p.add_argument("--denominator", default="ballots_cast", choices=["ballots_cast", "valid_ballots"])

    p = add("modes", "2-D mode estimates of a cloud", party=True)
    p.add_argument("--denominator", default="ballots_cast", choices=["ballots_cast", "valid_ballots"])
    p.add_argument("--cell", type=float, default=0.025)
    p.add_argument("--top-k", type=int, default=4)
    p.add_argument("--compressed", action="store_true")

    for name in ("dents", "bound"):
        p = add(name, "dent detection" if name == "dents" else "falsification lower bound",
                party=True, hist=True)
        p.add_argument("--z-threshold", type=float, default=rational.DEFAULT_Z_THRESHOLD)
        p.add_argument("--candidates", default=None, type=_fractions,
                       help="comma-separated fractions, e.g. 13/20,3/4 (default: k/20 in [0.5,0.95])")

    p = add("coinflip", "coin-flip share histogram over the dataset's station sizes", fmt=True)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--bin-width", type=float, default=0.005)
    p.add_argument("--center", type=float, default=None)
    p.add_argument("--seed", type=int, default=0)

    p = add("mixture", "Gaussian-scale-mixture moments over the dataset's station sizes")
    p.add_argument("--p", type=float, default=0.5)

    add("region-report", "per-region summary CSV", party=True)

    p = add("decompose", "region-subset decomposition of a party's total", party=True)
    p.add_argument("--region-set", default=None,
                   help="comma-separated region ids (default: the registry's exceptional set)")

    p = sub.add_parser("generate", help="generate a synthetic dataset from a model config")
    p.add_argument("--input", required=True, help="model config JSON path")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--output", required=True, help="precinct CSV output path")
    p.add_argument("--regions", required=True, help="region registry CSV output path")

    p = add("inject", "apply a fraud injector to a dataset")
    p.add_argument("--injector-kind", required=True, choices=["ballot_stuffing", "result_drawing"])
    p.add_argument("--party", required=True)
    p.add_argument("--affected", type=float, required=True)
    p.add_argument("--rate", type=float, default=0.0)
    p.add_argument("--targets", default=None, help="comma-separated share targets, e.g. 0.65,0.75")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--manifest", default=None, help="ground-truth manifest JSON output path")

    return parser


def _write(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _json(doc, sort_keys: bool = True) -> str:
    return json.dumps(doc, indent=2, sort_keys=sort_keys) + "\n"


def _region_filter(args):
    if getattr(args, "exclude_exceptional", False):
        return lambda info: not info.exceptional
    return None


def _hist_spec(args) -> HistogramSpec:
    return HistogramSpec(
        bin_width=args.bin_width,
        weight_mode=args.weight,
        min_station_size=getattr(args, "min_size", 0),
        share_denominator=getattr(args, "denominator", "ballots_cast"),
        region_filter=_region_filter(args),
        align_center=args.center,
    )


def _hist_output(h: Histogram, args) -> str:
    if args.format == "json":
        return h.to_json()
    if args.format == "csv":
        return h.to_csv()
    return svg.polyline_svg([(h.centers.tolist(), h.weights.tolist())])


def _dent_report(ds, args):
    candidates = args.candidates or rational.DEFAULT_CANDIDATES
    spec = _hist_spec(args)
    if spec.align_center is None:
        spec = replace(spec, align_center=float(candidates[0]))
    h = station_voting_histogram(ds, args.party, spec)
    return rational.detect_dents(h, candidates, args.z_threshold)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (ParseError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    cmd = args.command

    if cmd == "generate":
        with open(args.input, encoding="utf-8") as fh:
            model = synth.model_from_config(fh.read())
        ds = synth.generate(model, args.seed)
        _write(serialize_dataset(ds), args.output)
        with open(args.regions, "w", encoding="utf-8") as fh:
            fh.write(serialize_regions(ds.regions))
        return 0

    ds = parse_dataset(args.input, args.regions)

    if cmd == "validate":
        _write(validate(ds).to_json() + "\n", args.output)
        return 0

    if cmd == "hist":
        h = station_voting_histogram(ds, args.party, _hist_spec(args))
        _write(_hist_output(h, args), args.output)
        return 0

    if cmd == "turnout-hist":
        h = turnout_histogram(ds, _hist_spec(args))
        _write(_hist_output(h, args), args.output)
        return 0

    if cmd in ("cloud", "compress", "modes"):
        cl = cloud_mod.build_cloud(
            ds, args.party, denominator=args.denominator, region_filter=_region_filter(args)
        )
        compressed = cmd == "compress" or (cmd == "modes" and args.compressed)
        pts = cloud_mod.compress(cl) if compressed else cl.points
        if cmd == "modes":
            modes = cloud_mod.estimate_modes(pts, cell=args.cell, top_k=args.top_k)
            text = _json(
                [{"location": list(m.location), "density": m.density, "cell": list(m.cell)} for m in modes],
                sort_keys=False,
            )
        elif args.format == "svg":
            text = svg.scatter_svg([p.coords for p in pts])
        elif args.format == "csv":
            text = cloud_mod.compressed_csv(pts) if compressed else cl.to_csv()
        else:
            text = _json(
                {
                    "party": args.party,
                    "denominator": args.denominator,
                    "points": [
                        {"station_id": p.station_id, "coords": list(p.coords), "weight": p.weight}
                        for p in pts
                    ],
                    "excluded": cl.excluded,
                }
            )
        _write(text, args.output)
        return 0

    if cmd == "dents":
        _write(_dent_report(ds, args).to_json() + "\n", args.output)
        return 0

    if cmd == "bound":
        report = _dent_report(ds, args)
        bound = rational.falsification_lower_bound(ds, args.party, report)
        _write(_json({"party": args.party, "bound": bound}, sort_keys=False), args.output)
        return 0

    if cmd == "coinflip":
        sizes = station_size_distribution(ds)
        spec = HistogramSpec(bin_width=args.bin_width, align_center=args.center)
        h = rational.coinflip_histogram(sizes, args.p, spec, seed=args.seed)
        _write(_hist_output(h, args), args.output)
        return 0

    if cmd == "mixture":
        mu = station_size_distribution(ds).normalize()
        mean, var, excess = mixture_mod.mixture_moments(mu, args.p)
        doc = {
            "p": args.p,
            "mean": mean,
            "variance": var,
            "excess_kurtosis": excess,
            "kolmogorov_distance_to_gaussian": mixture_mod.kolmogorov_gaussian_distance(mu, args.p),
        }
        _write(_json(doc), args.output)
        return 0

    if cmd == "region-report":
        _write(region.region_report_csv(ds, args.party), args.output)
        return 0

    if cmd == "decompose":
        if args.region_set is not None:
            subset = {tok.strip() for tok in args.region_set.split(",") if tok.strip()}
        else:
            subset = {rid for rid, info in ds.regions.items() if info.exceptional}
        doc = asdict(region.decompose(ds, args.party, subset))
        doc["party"] = doc.pop("party_id")
        _write(_json(doc), args.output)
        return 0

    if cmd == "inject":
        targets = tuple(float(t) for t in args.targets.split(",")) if args.targets else ()
        injector = synth.FraudInjector(
            kind=args.injector_kind,
            party=args.party,
            affected=args.affected,
            rate=args.rate,
            targets=targets,
        )
        new_ds, manifest = synth.inject(ds, injector, args.seed)
        _write(serialize_dataset(new_ds), args.output)
        if args.manifest:
            with open(args.manifest, "w", encoding="utf-8") as fh:
                fh.write(_json(manifest))
        return 0

    raise ValueError(f"unhandled command {cmd!r}")


if __name__ == "__main__":
    sys.exit(main())
