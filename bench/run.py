"""urnstats benchmark: one workload, one run, one JSON line of metrics.

    python3 bench/run.py --workload cli-national --seed 3 --seconds 20 --trace 0

Each workload is a closed loop in this one process: it repeats a fixed pass
over inputs made from --seed until --seconds have passed, then checks every
pass's outputs (see workloads.py).  With --trace 0 it reports the end-to-end
metrics of BENCHMARK.json: the median of several set-ups and the median
pass, both in wall time adjusted for host speed (see hostspeed.py), and the
resident memory a pass adds at its peak.  With --trace 1 it
alternates untraced and traced passes, then runs the tracemalloc memory probe,
and reports the per-layer metrics; its spans go to bench/_out/.  The last
line of standard output is the result object; the lines before it are a
readable summary.
"""

from __future__ import annotations

import os

# One BLAS thread: the benchmark measures a single-process library on a small machine.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from hostspeed import AdjustedClock, reference  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 3
WARMUP_STATIONS = 1000
MB = 1024.0 * 1024.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_pass(steps, tracer=None) -> tuple[AdjustedClock, dict, dict]:
    """Make every step's call once; returns (the pass's clock, results, errors by step)."""
    results, errors = {}, {}
    clock = AdjustedClock()
    gc.collect()
    if tracer is None:
        _call_all(steps, results, errors, None, clock)
    else:
        with tracer.span("pass"):
            _call_all(steps, results, errors, tracer, clock)
    return clock, results, errors


def _call_all(steps, results, errors, tracer, clock) -> None:
    if clock is not None:
        clock.start()
    for step in steps:
        try:
            if tracer is not None and step.span:
                with tracer.span(step.span):
                    results[step.name] = step.call(results)
            else:
                results[step.name] = step.call(results)
        except (Exception, SystemExit) as exc:  # a failed call is counted, the run goes on
            errors[step.name] = repr(exc)
        if clock is not None:
            clock.lap()
    if clock is not None:
        clock.stop()


def _holds(check, results) -> bool:
    try:
        return bool(check(results))
    except Exception:
        return False


class Tally:
    """Calls attempted and failed, and outputs compared with the seed commit's bytes."""

    def __init__(self):
        self.attempted = self.failed = self.checked = self.changed = 0
        self.failures: list[str] = []

    def add(self, workload, ctx, pass_index, steps, results, errors) -> None:
        self.attempted += len(steps)
        failed = [s.name for s in steps if s.name in errors or not _holds(s.check, results)]
        self.failed += len(failed)
        self.failures += [f"pass {pass_index}: {name} {errors.get(name, 'failed its check')}" for name in failed]
        if failed:  # outputs may be missing; the failures already count
            return
        key, hashes = workload.outputs(ctx, pass_index, results)
        golden = ctx.golden.get(key, {})
        self.checked += len(golden)
        self.changed += sum(hashes.get(name) != digest for name, digest in golden.items())


def rss_mb() -> float:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / MB


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


def top_percentile(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with ten samples above it."""
    n = len(samples)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(samples)[n - 11]


def git_sha(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def environment() -> dict:
    import numpy
    import scipy

    tree = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        tree.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": git_sha(ROOT),
        "src_sha256": tree.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def set_up(workload, seed: int, workdir: Path, stations: int) -> tuple[object, AdjustedClock]:
    """Build the inputs and warm up on a small copy; returns (context, set-up clock)."""
    clock = AdjustedClock()
    clock.start()
    warm = workload.setup(seed, workdir / "warmup", WARMUP_STATIONS)
    _call_all(workload.steps(warm, 0), {}, {}, None, None)
    ctx = workload.setup(seed, workdir / "main", stations)
    clock.stop()
    return ctx, clock


def timed_run(workload, ctx, seconds, tally, setups) -> tuple[dict, dict]:
    passes = []
    reference()  # its heap is then part of the resident size before the pass
    rss_before, high_before = rss_mb(), maxrss_mb()
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        steps = workload.steps(ctx, len(passes))
        clock, results, errors = run_pass(steps)
        if not passes:
            high_after = maxrss_mb()
            peak = {"peak_mb": high_after - rss_before, "new_high": high_after > high_before}
        tally.add(workload, ctx, len(passes), steps, results, errors)
        passes.append(clock)
        del results
    metrics = {
        "setup_s": statistics.median(c.adjusted for c in setups),
        "pass_s": statistics.median(c.adjusted for c in passes),
        "peak_mb": peak["peak_mb"],
    }
    detail = {
        "pass_s": [c.adjusted for c in passes],
        "pass_wall_s": [c.wall for c in passes],
        "reference_s": [c.references for c in passes],
        "peak_set_new_high": peak["new_high"],
    }
    return metrics, detail


def traced_run(name, workload, ctx, seconds, tally) -> tuple[dict, dict]:
    import layers
    import spans

    tracer = spans.Tracer()
    plain, traced, per_pass = [], [], []
    start = time.perf_counter()
    index = 0
    while not traced or time.perf_counter() - start < seconds:
        steps = workload.steps(ctx, index)
        clock, results, errors = run_pass(steps)
        tally.add(workload, ctx, index, steps, results, errors)
        plain.append(clock.adjusted)
        del results
        index += 1

        steps = workload.steps(ctx, index)
        tracer.counts.clear()
        tracer.install(layers.LAYERS)
        try:
            root = len(tracer.spans)
            clock, results, errors = run_pass(steps, tracer)
        finally:
            tracer.uninstall()
        # self times and coverage are wall time; the reference jobs between segments sit in no layer
        per_pass.append(layers.pass_metrics(tracer.self_times(root), dict(tracer.counts), clock.wall))
        tally.add(workload, ctx, index, steps, results, errors)
        traced.append(clock.adjusted)
        del results
        index += 1

    metrics = layers.median_metrics(per_pass)
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    metrics.update(layers.memory_probe(name, ctx))
    detail = {"untraced_pass_s": plain, "traced_pass_s": traced, "spans": tracer.to_records()}
    return metrics, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import workloads
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    workload = workloads.WORKLOADS[args.workload]
    workdir = BENCH / "_work" / f"{args.workload}-{os.getpid()}"
    tally = Tally()
    try:
        setups = []
        for _ in range(SETUP_REPEATS if not args.trace else 1):
            ctx, clock = set_up(workload, args.seed, workdir, workloads.STATIONS)
            setups.append(clock)
        if args.trace:
            metrics, detail = traced_run(args.workload, workload, ctx, args.seconds, tally)
        else:
            metrics, detail = timed_run(workload, ctx, args.seconds, tally, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics["ops.failed_ratio"] = tally.failed / tally.attempted
    metrics["ops.attempted"] = tally.attempted
    metrics["outputs.changed"] = tally.changed
    metrics["outputs.checked"] = tally.checked
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "input_variant": workloads.variant(args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": ctx.inputs,
        "environment": environment(),
        "metrics": metrics,
        "failures": tally.failures,
        "setup_s": [c.adjusted for c in setups],
        "setup_wall_s": [c.wall for c in setups],
        **detail,
    }
    out = BENCH / "_out"
    out.mkdir(exist_ok=True)
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}, seed {args.seed} (input variant {record['input_variant']}), trace {args.trace}")
    print("inputs " + json.dumps(ctx.inputs | record["environment"], sort_keys=True))
    print(f"setup_s {statistics.median(record['setup_s']):.3f} s adjusted "
          f"({statistics.median(record['setup_wall_s']):.3f} s wall), median of {len(setups)} set-ups")
    if not args.trace:
        passes = detail["pass_s"]
        print(f"pass_s {metrics['pass_s']:.3f} s adjusted ({statistics.median(detail['pass_wall_s']):.3f} s wall), "
              f"median of {len(passes)} passes")
        top = top_percentile(passes)
        if top is not None:
            print(f"pass_s p{top[0]:.0f} {top[1]:.3f} s adjusted")
        print(f"peak_mb {metrics['peak_mb']:.1f} MB resident added by the first pass"
              + ("" if detail["peak_set_new_high"] else " (lower bound: set-up peaked higher)"))
    else:
        print(f"pass_s untraced {statistics.median(detail['untraced_pass_s']):.3f} s, "
              f"traced {statistics.median(detail['traced_pass_s']):.3f} s, adjusted")
    print(f"ops_failed_ratio {tally.failed}/{tally.attempted} calls")
    print(f"outputs.changed {tally.changed} of {tally.checked} compared with the seed commit's bytes")
    for line in tally.failures[:20]:
        print(f"FAILED {line}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        # a layer the pass never calls has no spans or counts: its per-layer figures are 0
        "metrics": {
            m["name"]: {"value": metrics.get(m["name"], 0.0) if args.trace else metrics[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
