"""Wall time adjusted for the speed the host gives this process at the time.

On a small shared machine the same pass can take 30% longer a minute later
because of other tenants, which no statistic over one 20-second run removes.
So timed work is cut into segments of at least `SEGMENT_S` at step
boundaries, a fixed stdlib-only reference job is timed between segments
(outside the timed work), and each segment's wall time is scaled by
`REFERENCE_NOMINAL_S` over the mean reference time at its two ends.  The
reference job imitates the package's Python-object work (string splitting,
small dicts, int parsing) and never calls urnstats, so a change to the
package moves the adjusted time as it moves the wall time.
"""

from __future__ import annotations

from time import perf_counter

SEGMENT_S = 1.0
# Adjusted seconds are seconds on a host that runs the reference job in this
# long (about its time on an unloaded 2-vCPU Xeon VM with Python 3.11).
REFERENCE_NOMINAL_S = 0.050
_KEYS = ("station", "region", "registered", "cast", "valid", "a", "b")


def reference() -> int:
    """~20000 CSV-like rows to dicts and ints, 2000 at a time so it holds ~1 MB."""
    total = 0
    for chunk in range(10):
        rows = [f"s{i},r{i % 83},{i % 3000},{i % 2000},{i % 1900},{i % 900},{i % 500}"
                for i in range(chunk * 2000, (chunk + 1) * 2000)]
        records = [dict(zip(_KEYS, row.split(","))) for row in rows]
        total += sum(int(r["registered"]) for r in records)
    return total


def reference_seconds() -> float:
    start = perf_counter()
    reference()
    return perf_counter() - start


class AdjustedClock:
    """Times work between `start` and `stop`, cut into segments by `lap`."""

    def __init__(self):
        self.wall = 0.0  # seconds of timed work, reference jobs excluded
        self.adjusted = 0.0
        self.references: list[float] = []

    def start(self) -> None:
        self.references.append(reference_seconds())
        self._segment_start = perf_counter()

    def lap(self, force: bool = False) -> None:
        """Close the running segment if it is long enough (or `force`) and start the next."""
        now = perf_counter()
        elapsed = now - self._segment_start
        if elapsed < SEGMENT_S and not force:
            return
        before, after = self.references[-1], reference_seconds()
        self.references.append(after)
        self.wall += elapsed
        self.adjusted += elapsed * REFERENCE_NOMINAL_S / ((before + after) / 2.0)
        self._segment_start = perf_counter()

    def stop(self) -> None:
        self.lap(force=True)
