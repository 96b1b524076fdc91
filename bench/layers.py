"""Which urnstats functions the traced run wraps, the counts it takes at each
wrapper, and the per-layer metrics derived from spans, counts and the
tracemalloc memory probe."""

from __future__ import annotations

import statistics
import tracemalloc

from workloads import PARTY, cloud_mod, hit_mask, histogram, ingest, mixture, rational, region, svg, synth, synth_pass_seed

MB = 1024.0 * 1024.0


def _rows(t, args, kwargs, ds):
    t.count("ingest.parse_dataset.rows", len(ds))


def _bytes(name):
    return lambda t, args, kwargs, text: t.count(name, len(text.encode("utf-8")))


def _violations(t, args, kwargs, report):
    t.count("ingest.validate.violations", len(report.violations))


def _included(t, args, kwargs, h):
    total = h.total_weight() + h.excluded_weight()
    t.count("histogram.included_sum", h.total_weight() / total if total else 0.0)
    t.count("histogram.histograms")


def _flagged(t, args, kwargs, report):
    t.count("rational.detect_dents.flagged", len(report.flagged()))


def _pmf_terms(t, args, kwargs, h):
    t.count("rational.coinflip_histogram.pmf_terms", sum(n + 1 for n in args[0].atoms))


def _points(t, args, kwargs, cl):
    t.count("cloud.build_cloud.points", len(cl))


def _grid_cells(t, args, kwargs, d):
    grid_points = kwargs.get("grid_points", args[2] if len(args) > 2 else 4001)
    t.count("mixture.kolmogorov_gaussian_distance.grid_cells", grid_points * len(args[0].atoms))


def _modified(t, args, kwargs, result):
    ds, injector, seed = args
    t.count("synth.inject.modified", len(result[1]["modified"]))
    t.count("synth.inject.hits", int(hit_mask(len(ds.records), injector.affected, seed).sum()))


# span name -> (function, counter called with the call's arguments and result)
LAYERS = {
    "ingest.parse_dataset": (ingest.parse_dataset, _rows),
    "ingest.serialize_dataset": (ingest.serialize_dataset, _bytes("ingest.serialize_dataset.bytes")),
    "ingest.validate": (ingest.validate, _violations),
    "ingest.station_size_distribution": (ingest.station_size_distribution, None),
    "synth.generate": (synth.generate, None),
    "synth.inject": (synth.inject, _modified),
    "histogram.station_voting_histogram": (histogram.station_voting_histogram, _included),
    "histogram.turnout_histogram": (histogram.turnout_histogram, _included),
    "rational.detect_dents": (rational.detect_dents, _flagged),
    "rational.falsification_lower_bound": (rational.falsification_lower_bound, None),
    "rational.coinflip_histogram": (rational.coinflip_histogram, _pmf_terms),
    "cloud.build_cloud": (cloud_mod.build_cloud, _points),
    "cloud.compress": (cloud_mod.compress, None),
    "cloud.estimate_modes": (cloud_mod.estimate_modes, None),
    "cloud.turnout_share_association": (cloud_mod.turnout_share_association, None),
    "mixture.mixture_moments": (mixture.mixture_moments, None),
    "mixture.kolmogorov_gaussian_distance": (mixture.kolmogorov_gaussian_distance, _grid_cells),
    "region.region_report_csv": (region.region_report_csv, None),
    "region.decompose": (region.decompose, None),
    "svg.scatter_svg": (svg.scatter_svg, _bytes("svg.scatter_svg.bytes")),
    "svg.polyline_svg": (svg.polyline_svg, None),
}


def pass_metrics(self_times: dict[str, float], counts: dict[str, float], pass_s: float) -> dict[str, float]:
    """Per-layer figures of one traced pass: self time in ms per span name,
    call counts, the counts the wrappers took, and the ratios built from them."""
    out = {f"{name}.ms": 1000.0 * s for name, s in self_times.items()}
    out.update(counts)
    histograms = counts.get("histogram.histograms", 0)
    out["histogram.included_ratio"] = counts.get("histogram.included_sum", 0.0) / histograms if histograms else 0.0
    hits = counts.get("synth.inject.hits", 0)
    out["synth.inject.modified_ratio"] = counts.get("synth.inject.modified", 0) / hits if hits else 0.0
    out["cli.parse_share"] = self_times.get("ingest.parse_dataset", 0.0) / pass_s if any(
        name.startswith("cli.") for name in self_times) else 0.0
    out["trace.coverage"] = sum(self_times.values()) / pass_s
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    names = {name for m in per_pass for name in m}
    return {name: statistics.median(m.get(name, 0.0) for m in per_pass) for name in names}


def _peak_mb(fn, *args):
    """Run fn under the already started tracemalloc; MB allocated at its peak beyond the start."""
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    result = fn(*args)
    return result, (tracemalloc.get_traced_memory()[1] - before) / MB


def memory_probe(workload: str, ctx) -> dict[str, float]:
    """Memory of the layers a workload's pass calls, one tracemalloc'd call each.

    Kept apart from both timed runs because tracemalloc slows allocation-heavy
    Python several-fold.  Layers the pass does not call report 0.
    """
    out = {}
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        if workload == "synth-groundtruth":
            ds, out["synth.generate.peak_mb"] = _peak_mb(synth.generate, ctx.model, synth_pass_seed(ctx, 0))
        else:
            ds = ingest.parse_dataset(ctx.workdir / "precincts.csv", ctx.workdir / "regions.csv")
        out["ingest.dataset_bytes_per_station"] = (tracemalloc.get_traced_memory()[0] - before) / len(ds)
        if workload != "synth-groundtruth":
            _, out["cloud.build_cloud.peak_mb"] = _peak_mb(cloud_mod.build_cloud, ds, PARTY)
            mu = ingest.station_size_distribution(ds).normalize()
            _, out["mixture.kolmogorov_gaussian_distance.peak_mb"] = _peak_mb(
                mixture.kolmogorov_gaussian_distance, mu, 0.5)
    finally:
        tracemalloc.stop()
    return out
