"""In-memory spans around calls into urnstats' layer functions.

The benchmark never edits the package: `Tracer.install` swaps each layer
function for a timing wrapper under every name the package's modules look it
up by (``cli.parse_dataset``, ``histogram.flagged_stations``, the module
attribute ``rational.detect_dents``, ...), and `uninstall` puts the originals
back.  A span is (name, start, end, parent); a layer's self time is its
duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append(Span(name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else None))
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx].end = time.perf_counter()

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[name] += value

    def wrap(self, name: str, fn: Callable, on_result: Callable | None = None) -> Callable:
        """`fn` recorded as span `name`; `on_result(tracer, args, kwargs, result)` adds counts."""

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self.count(name + ".calls")
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, layers: dict[str, tuple[Callable, Callable | None]], package: str = "urnstats") -> None:
        """Replace each function in `layers` (span name -> (function, counter)) everywhere
        the package's modules hold a reference to it."""
        by_id = {id(fn): self.wrap(name, fn, on_result) for name, (fn, on_result) in layers.items()}
        for mod_name, module in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = by_id.get(id(value))
                if wrapper is not None:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def self_times(self, root: int) -> dict[str, float]:
        """Seconds of self time per span name among the descendants of span `root`."""
        children: dict[int, list[int]] = defaultdict(list)
        for i in range(root + 1, len(self.spans)):
            children[self.spans[i].parent].append(i)
        out: dict[str, float] = defaultdict(float)
        todo = list(children[root])
        while todo:
            i = todo.pop()
            s = self.spans[i]
            kids = children.get(i, [])
            out[s.name] += (s.end - s.start) - sum(self.spans[k].end - self.spans[k].start for k in kids)
            todo.extend(kids)
        return dict(out)

    def to_records(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent} for s in self.spans
        ]
