"""Chrome trace-event export: simulation timelines for ``chrome://tracing``.

Two renderings, both emitting the `Trace Event Format
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
JSON that ``chrome://tracing`` (and Perfetto's legacy loader) accepts:

* **Simulation event timeline** — :class:`EventTraceRecorder` hooks the
  engine's dispatch loop (:meth:`EventLoop.set_trace_hook`) and records every
  fired event.  Exported events use **simulated time** as the timeline axis
  (µs) and the callback's **wall-clock cost** as the bar length, so a slow
  callback is literally a long bar; one tracing row (tid) per component class
  plus per-link queue-depth counter tracks.
* **Sweep worker timeline** — :func:`sweep_trace_events` renders the per-job
  records an observed :class:`~repro.runtime.executor.SweepExecutor` run
  collects (and a run manifest stores under ``executor.jobs``): one row per
  worker pid, one bar per sweep cell, wall-clock axis.

``tools/export_trace.py`` is the CLI for both.  Tracing is strictly opt-in:
with no hook installed the engine runs its untouched hot loop (the traced
loop is a separate method), so the disabled-mode overhead is zero.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional

#: Cap on recorded events; beyond it the recorder counts drops instead of
#: growing without bound (a 30 s metro cell can dispatch tens of millions).
DEFAULT_MAX_EVENTS = 2_000_000


class EventTraceRecorder:
    """Records every dispatched engine event via the engine's trace hook.

    Attach before the run, detach (or just export) after::

        recorder = EventTraceRecorder(scenario.env)
        scenario.run(duration)
        recorder.write_chrome(Path("trace.json"))
    """

    def __init__(self, loop: Any, max_events: int = DEFAULT_MAX_EVENTS):
        self._loop = loop
        self.max_events = max_events
        #: (sim_time_s, wall_ns, callback) triples, in dispatch order.
        self.records: List[tuple] = []
        self.dropped = 0
        loop.set_trace_hook(self._record)

    def _record(self, sim_time: float, callback: Any, wall_ns: int) -> None:
        if len(self.records) >= self.max_events:
            self.dropped += 1
            return
        self.records.append((sim_time, wall_ns, callback))

    def detach(self) -> None:
        self._loop.set_trace_hook(None)

    # ------------------------------------------------------------- export
    def chrome_events(self) -> List[Dict[str, Any]]:
        """Trace events: sim-time axis, wall-cost bars, one tid per class."""
        events: List[Dict[str, Any]] = []
        tids: Dict[str, int] = {}
        for sim_time, wall_ns, callback in self.records:
            owner = getattr(callback, "__self__", None)
            group = type(owner).__name__ if owner is not None else "function"
            tid = tids.get(group)
            if tid is None:
                tid = tids[group] = len(tids) + 1
            events.append({
                "name": f"{group}.{getattr(callback, '__name__', repr(callback))}",
                "cat": "sim",
                "ph": "X",
                "ts": sim_time * 1e6,
                # Bar length = wall cost of the callback (µs, floored so
                # zero-cost events stay visible).
                "dur": max(wall_ns / 1e3, 0.01),
                "pid": 1,
                "tid": tid,
            })
        events.extend(_thread_names(1, {v: k for k, v in tids.items()}))
        return events

    def queue_counter_events(self, scenario: Any) -> List[Dict[str, Any]]:
        """Per-link queue-depth counter tracks from the scenario monitors."""
        events: List[Dict[str, Any]] = []
        for name, monitor in getattr(scenario, "monitors", {}).items():
            times = getattr(monitor, "queue_sample_times", ())
            depths = getattr(monitor, "queue_sample_backlogs", ())
            for t, depth in zip(times, depths):
                events.append({
                    "name": f"queue:{name}", "cat": "queue", "ph": "C",
                    "ts": t * 1e6, "pid": 1,
                    "args": {"packets": depth},
                })
        return events

    def write_chrome(self, path: Path,
                     scenario: Any = None) -> Path:
        events = self.chrome_events()
        if scenario is not None:
            events.extend(self.queue_counter_events(scenario))
        return write_chrome_trace(path, events,
                                  metadata={"dropped_events": self.dropped})


def _thread_names(pid: int, names: Dict[int, str]) -> List[Dict[str, Any]]:
    """Metadata events labelling each tid row in the trace viewer."""
    return [{"name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
             "args": {"name": label}} for tid, label in sorted(names.items())]


# ---------------------------------------------------------------------------
# Sweep worker timeline
# ---------------------------------------------------------------------------
def sweep_trace_events(job_records: List[Dict[str, Any]]
                       ) -> List[Dict[str, Any]]:
    """Per-worker job timeline from an executor's (or manifest's) records.

    Each record needs ``label``, ``pid``, ``start_unix`` and ``wall_seconds``
    (what :class:`~repro.runtime.executor.SweepExecutor` collects for every
    attempt); timestamps are re-based to the earliest job start.

    Records carry ``attempt``/``outcome`` (older manifests may not); each
    retried attempt renders as its own span (``label [attempt N]``) in a
    distinct category per outcome (``retry``/``timeout``/``worker_crash``),
    so a chaos run's timeline shows exactly which cells were retried, where,
    and why.  Records whose worker pid was never learned (a crash before the
    attempt announced itself) land on a dedicated ``unattributed`` row.
    """
    records = [r for r in job_records if r.get("start_unix") is not None]
    if not records:
        return []
    base = min(r["start_unix"] for r in records)
    pids = sorted({r["pid"] for r in records if r.get("pid") is not None})
    tid_of: Dict[Any, int] = {pid: index + 1
                              for index, pid in enumerate(pids)}
    names = {tid: f"worker pid {pid}" for pid, tid in tid_of.items()}
    if any(r.get("pid") is None for r in records):
        tid_of[None] = len(tid_of) + 1
        names[tid_of[None]] = "unattributed"
    events: List[Dict[str, Any]] = []
    for record in records:
        attempt = record.get("attempt")
        outcome = record.get("outcome")
        name = record.get("label") or "job"
        if attempt is not None and (attempt > 1 or outcome not in (None, "ok")):
            name = f"{name} [attempt {attempt}]"
        if outcome in ("timeout", "worker_crash"):
            cat = outcome
        elif outcome not in (None, "ok") or (attempt or 1) > 1:
            cat = "retry"
        else:
            cat = "sweep"
        events.append({
            "name": name,
            "cat": cat,
            "ph": "X",
            "ts": (record["start_unix"] - base) * 1e6,
            "dur": max(record["wall_seconds"] * 1e6, 0.01),
            "pid": 1,
            "tid": tid_of[record.get("pid")],
            "args": {k: v for k, v in record.items()
                     if k not in ("label", "pid", "start_unix")},
        })
    events.extend(_thread_names(1, names))
    return events


def write_chrome_trace(path: Path, events: List[Dict[str, Any]],
                       metadata: Optional[Dict[str, Any]] = None) -> Path:
    """Write events as a ``chrome://tracing``-loadable JSON object."""
    payload: Dict[str, Any] = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
    }
    if metadata:
        payload["metadata"] = metadata
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload) + "\n")
    return path
