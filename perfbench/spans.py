"""In-memory spans for the benchmark's traced run.

A :class:`Tracer` records one span per ``with tracer.span(name):`` block:
its name, start and end (``time.perf_counter_ns``), the id of the enclosing
span, and the workload and cell it belongs to.  Spans stay in memory while
the workload runs and are written once at the end, in the chrome://tracing
format of :func:`repro.obs.trace.write_chrome_trace`.

Span names are ``<layer>.<step>`` (``simulator.run``, ``fuzz.build``) except
for the structural spans ``pass``, ``replay``, ``extras`` and ``job``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional


class Tracer:
    """Records nested spans of one workload run."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: List[Dict[str, Any]] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str, cell: str = "") -> Iterator[Dict[str, Any]]:
        """Time the block as a child of the innermost open span.

        ``cell`` defaults to the parent's cell, so the steps inside a job
        carry the job's label.  The yielded record's ``args`` dict may be
        filled with counters while the span is open.
        """
        parent = self._stack[-1] if self._stack else None
        if not cell and parent is not None:
            cell = self.spans[parent]["cell"]
        record: Dict[str, Any] = {
            "id": len(self.spans), "name": name, "parent": parent,
            "workload": self.workload, "cell": cell,
            "start_ns": time.perf_counter_ns(), "end_ns": None, "args": {}}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._stack.pop()

    # ---------------------------------------------------------- queries
    def finished(self) -> List[Dict[str, Any]]:
        return [s for s in self.spans if s["end_ns"] is not None]

    def self_ns(self) -> Dict[int, int]:
        """Each span's duration minus the time its direct children cover.

        Children of one parent run one after another (the tracer is
        single-threaded), so their durations add without overlap.
        """
        own = {s["id"]: s["end_ns"] - s["start_ns"] for s in self.finished()}
        for span in self.finished():
            if span["parent"] is not None and span["parent"] in own:
                own[span["parent"]] -= span["end_ns"] - span["start_ns"]
        return own

    def named(self, name: str, under: Optional[str] = None
              ) -> List[Dict[str, Any]]:
        """Finished spans called ``name``, optionally only those that have
        an ancestor called ``under``."""
        found = [s for s in self.finished() if s["name"] == name]
        if under is None:
            return found
        return [s for s in found if self._has_ancestor(s, under)]

    def _has_ancestor(self, span: Dict[str, Any], name: str) -> bool:
        parent = span["parent"]
        while parent is not None:
            if self.spans[parent]["name"] == name:
                return True
            parent = self.spans[parent]["parent"]
        return False

    @staticmethod
    def total_s(spans: List[Dict[str, Any]]) -> float:
        return sum(s["end_ns"] - s["start_ns"] for s in spans) / 1e9

    # ---------------------------------------------------------- export
    def chrome_events(self) -> List[Dict[str, Any]]:
        spans = self.finished()
        if not spans:
            return []
        base = min(s["start_ns"] for s in spans)
        own = self.self_ns()
        return [{
            "name": s["name"],
            "cat": s["name"].split(".")[0],
            "ph": "X",
            "ts": (s["start_ns"] - base) / 1e3,
            "dur": (s["end_ns"] - s["start_ns"]) / 1e3,
            "pid": 1,
            "tid": 1,
            "args": {"id": s["id"], "parent": s["parent"],
                     "workload": s["workload"], "cell": s["cell"],
                     "self_us": own[s["id"]] / 1e3, **s["args"]},
        } for s in spans]

    def write(self, path: Path) -> Path:
        from repro.obs.trace import write_chrome_trace

        return write_chrome_trace(path, self.chrome_events(),
                                  metadata={"workload": self.workload,
                                            "spans": len(self.spans)})
