"""In-memory span recorder for the pipeline benchmark.

The benchmark measures each layer from outside the program: while a
traced run is open, :func:`patched` swaps selected public functions for
wrappers that open a span around every call.  A span records its name,
start, end, parent span and run id; spans stay in memory and are
written as JSONL when the benchmark ends.

A layer's *self time* is its span duration minus the time its child
spans cover.  Calls are sequential, so children never overlap and the
subtraction is exact.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Iterator


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: str


class Tracer:
    """Records nested spans, one tree per run id."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._run = ""
        self._t0 = perf_counter()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        record = Span(name, perf_counter(), 0.0, parent, self._run)
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record.end = perf_counter()
            self._stack.pop()

    @contextmanager
    def run(self, run_id: str, root: str) -> Iterator[None]:
        """Open run ``run_id`` whose root span is named ``root``."""
        self._run = run_id
        try:
            with self.span(root):
                yield
        finally:
            self._run = ""

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def self_times(self, root: str) -> tuple[dict[str, float], int, float]:
        """Self time per span name over the runs rooted at ``root``,
        with the number of such runs and their total wall time."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        runs = {s.run for s in self.spans if s.parent is None and s.name == root}
        self_s: dict[str, float] = {}
        wall = 0.0
        for i, s in enumerate(self.spans):
            if s.run not in runs:
                continue
            dur = s.end - s.start
            self_s[s.name] = self_s.get(s.name, 0.0) + dur - child_time[i]
            if s.parent is None:
                wall += dur
        return self_s, len(runs), wall

    def write_jsonl(self, path, header: dict, limit: int) -> None:
        """Write the provenance header, then the first ``limit`` spans;
        a last line counts the spans left out (a churn run opens about
        a million path-query spans)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"provenance": header}) + "\n")
            for i, s in enumerate(self.spans[:limit]):
                fh.write(json.dumps({
                    "id": i,
                    "name": s.name,
                    "start": s.start - self._t0,
                    "end": s.end - self._t0,
                    "parent": s.parent,
                    "run": s.run,
                }) + "\n")
            fh.write(json.dumps({"dropped_spans": max(0, len(self.spans) - limit)}) + "\n")


@contextmanager
def patched(tracer: Tracer, targets) -> Iterator[None]:
    """Wrap ``(owner, attribute, span name)`` targets for the duration.

    ``owner`` is the module (or class) whose attribute the program looks
    up at call time: for a name the caller imported with
    ``from ... import``, that is the caller's module.
    """
    saved = []
    try:
        for owner, attr, name in targets:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
