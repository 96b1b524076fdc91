"""The benchmark's own tests: its checks catch corrupted outputs, and its spans add up.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SMALL = 2000


def small_pass(name, tmp_path, pass_index=0):
    workload = workloads.WORKLOADS[name]
    ctx = workload.setup(5, tmp_path, SMALL)
    steps = workload.steps(ctx, pass_index)
    _, results, errors = run.run_pass(steps)
    assert errors == {}
    return workload, ctx, steps, results


def failing(steps, results) -> set[str]:
    return {s.name for s in steps if not run._holds(s.check, results)}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_clean_pass_has_no_failures(name, tmp_path):
    workload, ctx, steps, results = small_pass(name, tmp_path)
    tally = run.Tally()
    tally.add(workload, ctx, 0, steps, results, {})
    assert (tally.attempted, tally.failed) == (len(steps), 0), tally.failures


def test_api_checks_catch_corruption(tmp_path):
    _, _, steps, results = small_pass("api-analysis", tmp_path)

    h = results["hist_votes"]
    h.weights[10] += 1.0
    assert "hist_votes" in failing(steps, results)
    h.weights[10] -= 1.0

    results["cloud"].points.pop()
    assert {"cloud", "association", "scatter"} <= failing(steps, results)

    d = results["decompose"]
    results["decompose"] = dataclasses.replace(d, total_votes=d.total_votes + 1)
    assert "decompose" in failing(steps, results)


def test_cli_checks_catch_corrupted_files(tmp_path):
    _, ctx, steps, results = small_pass("cli-national", tmp_path)
    assert failing(steps, results) == set()

    path = ctx.workdir / "decompose.json"
    d = json.loads(path.read_text())
    d["total_votes"] += 1
    path.write_text(json.dumps(d))
    assert failing(steps, results) == {"decompose"}

    compress = ctx.workdir / "compress.csv"
    compress.write_text("\n".join(compress.read_text().splitlines()[:-1]) + "\n")
    assert failing(steps, results) == {"decompose", "cloud", "compress"}

    results["hist"] = 1  # a non-zero exit code fails the step
    assert "hist" in failing(steps, results)


def test_synth_checks_catch_corruption(tmp_path):
    _, ctx, steps, results = small_pass("synth-groundtruth", tmp_path)
    assert failing(steps, results) == set()

    ds = results["generate"]
    results["generate"] = dataclasses.replace(ds, records=ds.records[:-1])
    assert "generate" in failing(steps, results)
    results["generate"] = ds

    drawn, manifest = results["draw"]
    hits = workloads.hit_set([r.station_id for r in ds.records], 0.05, ctx.seed + 1000)
    outsider = next(r.station_id for r in ds.records if r.station_id not in hits)
    results["draw"] = (drawn, manifest | {"skipped": manifest["skipped"] + [outsider]})
    assert "draw" in failing(steps, results)

    results["draw"] = (drawn, manifest | {"modified": manifest["modified"][1:]})
    assert "draw" in failing(steps, results)


def test_a_wrong_library_result_is_counted(tmp_path, monkeypatch):
    workload = workloads.WORKLOADS["api-analysis"]
    ctx = workload.setup(5, tmp_path, SMALL)
    real = workloads.region.decompose

    def off_by_one(ds, party, subset):
        return dataclasses.replace(real(ds, party, subset), total_votes=1)

    monkeypatch.setattr(workloads.region, "decompose", off_by_one)
    steps = workload.steps(ctx, 0)
    tally = run.Tally()
    tally.add(workload, ctx, 0, steps, *run.run_pass(steps)[1:])
    assert (tally.failed, tally.attempted) == (1, len(steps))


def test_a_failed_cli_step_is_counted_not_raised(tmp_path):
    workload, ctx, steps, results = small_pass("cli-national", tmp_path)
    (ctx.workdir / "decompose.json").unlink()
    results["decompose"] = 1  # exit code of a data error, which writes no file
    tally = run.Tally()
    tally.add(workload, ctx, 0, steps, results, {})
    assert (tally.failed, tally.checked) == (1, 0)


def test_changed_output_is_counted(tmp_path):
    workload, ctx, steps, results = small_pass("synth-groundtruth", tmp_path)
    key, hashes = workload.outputs(ctx, 0, results)
    ctx.golden = {key: hashes | {"drawn.csv": "0" * 64}}
    tally = run.Tally()
    tally.add(workload, ctx, 0, steps, results, {})
    assert (tally.checked, tally.changed, tally.failed) == (3, 1, 0)


def test_adjusted_clock_scales_each_segment_by_its_references(monkeypatch):
    refs = iter([0.1, 0.1, 0.05])  # at start, after the first segment, at stop
    ticks = iter([0.0, 0.5, 2.0, 2.0, 3.0, 3.0])  # start; short lap; lap and restart; stop and restart
    monkeypatch.setattr(hostspeed, "reference_seconds", lambda: next(refs))
    monkeypatch.setattr(hostspeed, "perf_counter", lambda: next(ticks))
    clock = hostspeed.AdjustedClock()
    clock.start()
    clock.lap()
    clock.lap()
    clock.stop()
    nominal = hostspeed.REFERENCE_NOMINAL_S
    assert clock.wall == 3.0
    assert clock.adjusted == pytest.approx(2.0 * nominal / 0.1 + 1.0 * nominal / 0.075)


def test_self_time_subtracts_children():
    t = spans.Tracer()
    t.spans = [
        spans.Span("pass", 0.0, 10.0, None),
        spans.Span("a", 1.0, 6.0, 0),
        spans.Span("b", 2.0, 4.0, 1),
        spans.Span("a", 7.0, 8.0, 0),
    ]
    assert t.self_times(0) == {"a": 4.0, "b": 2.0}


def test_install_wraps_every_lookup_name_and_uninstall_restores():
    from urnstats import cli, histogram, ingest

    original = ingest.validate
    t = spans.Tracer()
    t.install({"ingest.validate": (original, None)})
    try:
        assert cli.validate is ingest.validate and ingest.validate is not original
        ds = workloads.synth.generate(workloads.heterogeneous_model(40), 0)
        histogram.station_voting_histogram(ds, "UR", histogram.HistogramSpec())
    finally:
        t.uninstall()
    assert ingest.validate is original and cli.validate is original
    assert [s.name for s in t.spans] == ["ingest.validate"] and t.counts["ingest.validate.calls"] == 1


def test_top_percentile_needs_ten_samples_beyond():
    assert run.top_percentile(list(range(10))) is None
    assert run.top_percentile([float(x) for x in range(20)]) == (50.0, 9.0)
