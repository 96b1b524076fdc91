"""Record the reference bytes for `outputs.changed`.

    python3 bench/golden.py

Runs one cli-national pass per input variant and one synth-groundtruth pass
per generator seed, checks them, and writes the sha256 of every output to
bench/golden.json.  Run it only at a commit whose outputs are the reference.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads


def record(name: str, seeds) -> dict:
    workload = workloads.WORKLOADS[name]
    workdir = run.BENCH / "_work" / f"golden-{name}"
    table = {}
    try:
        for seed in seeds:
            ctx = workload.setup(seed, workdir, workloads.STATIONS)
            steps = workload.steps(ctx, 0)
            _, results, errors = run.run_pass(steps)
            tally = run.Tally()
            tally.add(workload, ctx, 0, steps, results, errors)
            if tally.failed:
                raise SystemExit(f"{name} seed {seed}: {tally.failures}")
            key, hashes = workload.outputs(ctx, 0, results)
            table[key] = hashes
            print(f"{name} {key}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return table


def main() -> int:
    variants = range(workloads.INPUT_VARIANTS)
    golden = {
        "recorded_at": run.environment(),
        "cli-national": record("cli-national", variants),
        # pass 0 of a run with seed g generates with seed g
        "synth-groundtruth": record("synth-groundtruth", variants),
    }
    workloads.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
