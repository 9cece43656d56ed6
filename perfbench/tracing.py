"""The traced run: spans around the benchmark's calls into each layer.

:class:`TracedExecutor` runs a workload's jobs in-process, each wrapped in
:func:`traced_job`, which opens a ``job`` span and records the metrics
registry's counter deltas around it.  Fig. 9 cells (``sweep_cell``) and fuzz
scenarios (``fuzz_cell``) are split into the public steps their job
functions compose, so build, run, checks and summary get separate spans;
every other job (Wi-Fi, Fig. 7, metro cells) is one span.  Spans inside
``Scenario.run`` (engine vs. link vs. router) need instrumentation inside
the program and are not recorded; per-scheme rows and the registry's exact
counters stand in for them.

Next to each traced job, :func:`traced_job` runs the same job once more with
telemetry off, in a ``reference`` span: its result is what the traced result
must equal, and the paired timings give the tracing overhead.  Host speed
on shared machines swings by tens of percent within seconds, so only runs
back to back see the same host; the order alternates from job to job so
that neither side always runs with warm caches.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.obs import metrics as obs_metrics
from repro.runtime import SweepJob
from repro.runtime.cache import stable_hash

from perfbench.spans import Tracer
from perfbench.workloads import RecordingExecutor


class TraceRun:
    """What traced jobs record besides spans."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.jobs = 0
        #: Labels of jobs whose traced result differs from their untraced
        #: one.  Compared as the job returns, before an entry point touches
        #: the result (``fig10_wifi`` renames its rows in place).
        self.mismatches: List[str] = []


#: The run that :func:`traced_job` records into.  Jobs must be module-level
#: functions with picklable kwargs, so the run cannot travel with them;
#: traced jobs only ever run in-process, inside :func:`active`.
_ACTIVE: List[TraceRun] = []


@contextmanager
def active(tracer: Tracer) -> Iterator[TraceRun]:
    run = TraceRun(tracer)
    _ACTIVE.append(run)
    try:
        yield run
    finally:
        _ACTIVE.pop()


def _current() -> TraceRun:
    if not _ACTIVE:
        raise RuntimeError("traced_job ran outside perfbench.tracing.active()")
    return _ACTIVE[-1]


def counters() -> Dict[str, int]:
    return dict(obs_metrics.registry().snapshot()["counters"])


def counter_delta(before: Dict[str, int]) -> Dict[str, int]:
    after = counters()
    return {name: value - before.get(name, 0)
            for name, value in after.items() if value != before.get(name, 0)}


def _target_name(func: Any) -> str:
    return f"{func.__module__}:{func.__qualname__}"


def _resolve(target: str) -> Any:
    module, qualname = target.split(":")
    obj: Any = importlib.import_module(module)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def traced_job(target: str, kwargs: Dict[str, Any], label: str) -> Any:
    """Run the job ``target(**kwargs)`` traced, and once more untraced."""
    from repro.fuzz.campaign import fuzz_cell
    from repro.runtime.spec import sweep_cell

    run = _current()
    tracer = run.tracer
    func = _resolve(target)
    run.jobs += 1
    reference_first = run.jobs % 2 == 1
    if reference_first:
        reference = _reference(tracer, func, kwargs, label)
    with tracer.span("job", cell=label) as span:
        before = counters()
        if func is sweep_cell and set(kwargs) == _FIG9_KWARGS:
            result = _fig9_cell(tracer, **kwargs)
        elif func is fuzz_cell:
            result = _fuzz_cell(tracer, **kwargs)
        else:
            span["args"]["unsplit"] = True
            result = func(**kwargs)
        span["args"]["counters"] = counter_delta(before)
    if not reference_first:
        reference = _reference(tracer, func, kwargs, label)
    with tracer.span("check", cell=label):
        if stable_hash(reference) != stable_hash(result):
            run.mismatches.append(label)
    return result


def _reference(tracer: Tracer, func: Any, kwargs: Dict[str, Any],
               label: str) -> Any:
    with tracer.span("reference", cell=label):
        with obs_metrics.override(False):
            return func(**kwargs)


class TracedExecutor(RecordingExecutor):
    """An in-process executor whose jobs run under :func:`traced_job`.

    Each ``run()`` is a ``runtime.run`` span; the wrapped jobs keep the
    original jobs' labels and must run inside :func:`active`.  Cache keys
    cover the target's name, kwargs and label, so a warm replay through
    this executor hits what its cold pass stored.
    """

    def __init__(self, tracer: Tracer, **kwargs: Any):
        super().__init__(jobs=1, **kwargs)
        self.tracer = tracer
        self.originals: List[SweepJob] = []

    def run(self, jobs: Sequence[SweepJob],
            failure_policy: Optional[str] = None) -> List[Any]:
        jobs = list(jobs)
        self.originals.extend(jobs)
        wrapped = [SweepJob(func=traced_job,
                            kwargs={"target": _target_name(job.func),
                                    "kwargs": job.kwargs, "label": job.label},
                            label=job.label) for job in jobs]
        with self.tracer.span("runtime.run"):
            return super().run(wrapped, failure_policy=failure_policy)


# ---------------------------------------------------------------------------
# Split job bodies
# ---------------------------------------------------------------------------
_FIG9_KWARGS = {"scheme", "link_spec", "rtt", "duration", "buffer_packets",
                "abc_params", "warmup", "seed"}


def _fig9_cell(tracer: Tracer, scheme: str, link_spec: Any, rtt: float,
               duration: float, buffer_packets: int, abc_params: Any,
               warmup: float, seed: int) -> Any:
    """``sweep_cell`` for one Fig. 9 cell, as the steps of
    ``run_single_bottleneck``: build, run, summary."""
    from repro.cellular.trace import CellularTrace
    from repro.experiments.runner import SingleBottleneckResult, make_scheme
    from repro.runtime import resolve_link_spec, strip_result
    from repro.simulator.scenario import Scenario

    trace = resolve_link_spec(link_spec)
    if not isinstance(trace, CellularTrace):
        raise TypeError("Fig. 9 cells run over cellular traces")
    with tracer.span("experiments.build"):
        spec = make_scheme(scheme, buffer_packets=buffer_packets,
                           abc_params=abc_params, seed=seed)
        scenario = Scenario()
        link = scenario.add_cellular_link(
            trace, qdisc=spec.make_qdisc(buffer_packets), name="bottleneck")
        flow = scenario.add_flow(spec.make_sender(), [link], rtt=rtt,
                                 label=spec.name)
    with tracer.span("simulator.run") as span:
        before = counters()
        result = scenario.run(duration)
        span["args"]["counters"] = counter_delta(before)
        span["args"]["scheme"] = spec.name
        qdisc = link.qdisc
        if hasattr(qdisc, "accel_marked"):
            span["args"]["accel_marked"] = qdisc.accel_marked
            span["args"]["brake_marked"] = qdisc.brake_marked
    with tracer.span("analysis.summary"):
        stats = flow.stats
        utilization = result.link_utilization(link, t0=warmup)
        summary = SingleBottleneckResult(
            scheme=spec.name,
            trace=trace.name,
            throughput_bps=result.flow_throughput_bps(flow, t0=warmup),
            utilization=utilization,
            delay_p95_ms=stats.delay_percentile(95) * 1000.0,
            delay_mean_ms=stats.mean_delay() * 1000.0,
            queuing_p95_ms=stats.delay_percentile(95, kind="queuing") * 1000.0,
            queuing_mean_ms=stats.mean_delay(kind="queuing") * 1000.0,
            drops=result.link_drops(link),
            extra={"per_link_utilization": [utilization]})
    return strip_result(summary)


def _fuzz_cell(tracer: Tracer, spec: dict,
               check_determinism: bool = True) -> Dict[str, Any]:
    """``fuzz_cell`` as the steps of ``evaluate_scenario``: build, run,
    summary and invariants, then the determinism replay."""
    from repro.fuzz.generator import FuzzScenario, build_scenario
    from repro.fuzz.invariants import (CheckContext, CwndProbe, Violation,
                                       run_invariants, scenario_summary)

    fuzz = FuzzScenario.from_jsonable(spec)

    def run_once():
        with tracer.span("fuzz.build"):
            built = build_scenario(fuzz)
            probe = CwndProbe(built)
        with tracer.span("simulator.run"):
            result = built.scenario.run(fuzz.duration)
        with tracer.span("fuzz.summary"):
            summary = scenario_summary(built)
        return CheckContext(fuzz=fuzz, built=built, result=result,
                            cwnd_samples=probe.samples), summary

    ctx, summary = run_once()
    with tracer.span("fuzz.invariants"):
        violations = run_invariants(ctx)
    if check_determinism:
        with tracer.span("fuzz.replay"):
            _, replay = run_once()
        if replay != summary:
            violations.append(Violation(
                "determinism",
                "two identical runs produced different summaries"))
    return {
        "scenario_id": fuzz.scenario_id,
        "signature": fuzz.signature(),
        "violations": [[v.invariant, v.message] for v in violations],
        "summary": summary,
    }
