"""Span and count recording for the benchmark's traced run.

A span is opened by the benchmark around a call into one of the program's
public functions.  It records its name, start, end, parent span and the
id of the operation (one search, one replay, one set-up) it belongs to.
Each span also opens a scope of the same name in the program's host
profiler (``repro.observ.hostprof``), so the program's own scopes and the
benchmark's spans share one nesting and one self-time ledger: a span's
self time is its duration minus every scope or span inside it.

Spans and counts stay in memory and are written out once, at the end.
:class:`NullRecorder` is what the untraced runs use; each of its methods
costs one call.
"""

from __future__ import annotations

import json
import tracemalloc
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter_ns
from typing import Iterator


class Recorder:
    """Spans, counts and per-kind host-profiler totals of a traced run."""

    enabled = True

    def __init__(self) -> None:
        from repro.observ.hostprof import get_hostprof, profiling_host

        self._get_hostprof = get_hostprof
        self._profiling_host = profiling_host
        self.spans: list[dict] = []
        self.counts: list[dict] = []
        self._stack: list[int] = []
        self._op = -1
        self._next_op = 0
        #: kind -> scope name -> [calls, total_s, self_s], summed over the
        #: operations of that kind.
        self.scopes: dict[str, dict[str, list[float]]] = {}
        #: kind -> number of operations recorded.
        self.ops: dict[str, int] = {}
        #: name -> tracemalloc peak (MB) of the last measured body.
        self.peaks: dict[str, float] = {}

    @contextmanager
    def operation(self, kind: str) -> Iterator[None]:
        """One traced operation of ``kind`` under a fresh host profiler.

        Its scope totals are added to ``self.scopes[kind]``."""
        self._op, self._next_op = self._next_op, self._next_op + 1
        with self._profiling_host() as prof, self.span(kind):
            yield
        table = self.scopes.setdefault(kind, {})
        for stat in prof.profile().scopes:
            self.count(f"{stat.name}.calls", stat.calls)
            row = table.setdefault(stat.name, [0, 0.0, 0.0])
            row[0] += stat.calls
            row[1] += stat.total_ms / 1e3
            row[2] += stat.self_ms / 1e3
        self.ops[kind] = self.ops.get(kind, 0) + 1

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = {"name": name, "op": self._op, "parent": parent}
        self.spans.append(record)
        self._stack.append(index)
        try:
            with self._get_hostprof().scope(name):
                record["start_ns"] = perf_counter_ns()
                try:
                    yield
                finally:
                    record["end_ns"] = perf_counter_ns()
        finally:
            self._stack.pop()

    @contextmanager
    def memory(self, name: str) -> Iterator[None]:
        """Record the tracemalloc peak of the body, in MB."""
        tracemalloc.start()
        try:
            yield
        finally:
            self.peaks[name] = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()

    def count(self, name: str, value: float) -> None:
        self.counts.append({"name": name, "op": self._op, "value": value})

    # ------------------------------------------------------------------
    # Read-out
    # ------------------------------------------------------------------
    def self_s(self, kind: str, name: str) -> float:
        """Mean self seconds of scope ``name`` per operation of ``kind``."""
        return self._per_op(kind, name, 2)

    def total_s(self, kind: str, name: str) -> float:
        """Mean inclusive seconds of scope ``name`` per operation."""
        return self._per_op(kind, name, 1)

    def self_per_call(self, kind: str, name: str) -> float:
        """Mean self seconds of scope ``name`` per call."""
        row = self.scopes.get(kind, {}).get(name)
        return row[2] / row[0] if row else 0.0

    def _per_op(self, kind: str, name: str, column: int) -> float:
        ops = self.ops.get(kind, 0)
        row = self.scopes.get(kind, {}).get(name)
        return row[column] / ops if ops and row else 0.0

    def peak_mb(self, name: str) -> float:
        return self.peaks.get(name, 0.0)

    def first_count(self, kind: str, name: str) -> float:
        """``name`` as counted in the first operation of ``kind``."""
        ops = {s["op"] for s in self.spans
               if s["name"] == kind and s["parent"] is None}
        for c in self.counts:
            if c["name"] == name and c["op"] in ops:
                return c["value"]
        return 0

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": self.spans,
                                    "counts": self.counts}))


class NullRecorder:
    """Records nothing: the untraced runs."""

    enabled = False

    def operation(self, kind: str):
        return nullcontext()

    def span(self, name: str):
        return nullcontext()

    def count(self, name: str, value: float) -> None:
        pass
