"""The benchmark's three workloads: inputs, passes and output checks.

Each workload turns a seed into inputs (:meth:`setup`), runs one pass of its
jobs through a :class:`~repro.runtime.SweepExecutor` via the same public
entry points users call (:meth:`run_pass`), and checks the pass's outputs
(:meth:`check`).  The executor is a :class:`RecordingExecutor`, which keeps
every per-cell result in submission order so passes can be compared cell by
cell and hashed.

Why these three workloads:

* ``paper_figs`` — the paper's headline experiments (Fig. 9 grid, Fig. 10
  single-user Wi-Fi, Fig. 7 coexistence).  Long backlogged flows put almost
  all host time in the per-packet path; executor overhead is negligible.
* ``metro_churn`` — a metro city on a persistent pool.  Flow churn exercises
  per-flow set-up and completion; the pool, trace store and result pickling
  do real work; the slowest cells set the makespan.
* ``fuzz_small`` — a fuzz campaign of short random scenarios, each run twice.
  Per-scenario fixed costs (build, trace generation, cache keys and writes,
  the invariant net, the determinism replay) are a large share here.
"""

from __future__ import annotations

import copy
import os
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.runtime import SweepExecutor, SweepJob, TraceRef, is_failure
from repro.runtime.cache import stable_hash

#: The Fig. 9 schemes of a pass: the three the Fig. 9 and Table 1 claims
#: compare (ABC, Cubic, Cubic+Codel), plus XCP for the explicit-feedback
#: routers.  The other eight schemes of ``benchmarks/bench_fig09_sweep.py``
#: would more than double a pass, and three passes of the full grid do not
#: fit a run; ``fuzz_small`` runs all twelve, ``metro_churn`` BBR's paced
#: senders.
FIG9_SCHEMES = ("abc", "xcp", "cubic+codel", "cubic")

#: A Fig. 9 trace set's eight mean rates must add up to within
#: ``FIG9_RATE_TOLERANCE`` of this: the median total over seeds 1-100.  A
#: cell's cost follows its trace's rate, and the totals of plain seeds
#: spread by 17 % (quartiles over median), which would make runs at
#: different seeds differ by their inputs more than by the code.
FIG9_TOTAL_RATE_BPS = 65e6
FIG9_RATE_TOLERANCE = 0.03
#: Trace seeds tried per workload seed before giving up.
FIG9_MAX_DRAWS = 500

#: Simulated seconds of the Fig. 10 Wi-Fi cells and of the Fig. 7 run, and
#: the Fig. 7 flows' start stagger.
WIFI_DURATION = 5.0
FIG7_DURATION = 20.0
FIG7_STAGGER = 5.0


@dataclass(frozen=True)
class Sizes:
    """How much work one pass of each workload does.

    The defaults are the benchmark; the tests shrink them.  Durations are
    simulated seconds.
    """

    fig9_schemes: Tuple[str, ...] = FIG9_SCHEMES
    #: A subset of the eight-trace synthetic set; ``None`` keeps all eight.
    fig9_traces: Optional[Tuple[str, ...]] = None
    #: Long enough that ABC's start-up does not decide the Fig. 9 claims:
    #: at 12 s, three of seeds 0-59 fail them; at 15 s, the duration of
    #: ``benchmarks/bench_fig09_sweep.py``, none of seeds 0-99 do.
    fig9_duration: float = 15.0
    wifi_thresholds: Tuple[float, ...] = (0.02, 0.06, 0.1)
    #: ``None`` means the Fig. 10 default baselines.
    wifi_baselines: Optional[Tuple[str, ...]] = None
    metro_cells: int = 24
    metro_duration: float = 8.0
    #: A scenario's cost varies a hundredfold with its duration, link
    #: rate, scheme, flows and loss, so a campaign's cost follows its seed;
    #: the spread over seeds falls as one over the square root of the budget.
    fuzz_budget: int = 90


def nproc() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def fig9_traces(seed: int, duration: float) -> Dict[str, Any]:
    """The eight synthetic Fig. 9 traces of workload seed ``seed``.

    They are the set of trace seed ``seed + 1000 * k`` for the first
    ``k >= 0`` whose total mean rate is within ``FIG9_RATE_TOLERANCE`` of
    ``FIG9_TOTAL_RATE_BPS``, so every workload seed simulates about the
    same number of packets.
    """
    from repro.cellular.synthetic import synthetic_trace_set

    for k in range(FIG9_MAX_DRAWS):
        traces = synthetic_trace_set(duration=duration, seed=seed + 1000 * k)
        total = sum(trace.mean_rate_bps() for trace in traces.values())
        if abs(total / FIG9_TOTAL_RATE_BPS - 1.0) <= FIG9_RATE_TOLERANCE:
            return traces
    raise RuntimeError(f"no Fig. 9 trace set near {FIG9_TOTAL_RATE_BPS:g} "
                       f"bit/s in {FIG9_MAX_DRAWS} draws for seed {seed}")


def noop(**_kwargs: Any) -> None:
    """A job that does nothing; used to start a pool's workers."""
    return None


class RecordingExecutor(SweepExecutor):
    """A :class:`SweepExecutor` that keeps what each ``run()`` ran and
    returned.

    ``jobs`` collects the submitted jobs across calls, ``cells`` their
    ``(label, result)`` pairs and ``run_stats`` each call's
    :class:`~repro.runtime.ExecutorStats`; :meth:`take` drains all three.
    Each result is kept as a shallow copy, because entry points may edit
    the rows they return (``fig10_wifi`` renames its ABC rows): cells hold
    what the executor returned, as the result cache does.  Execution itself
    is unchanged.
    """

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        self.jobs: List[SweepJob] = []
        self.cells: List[Tuple[str, Any]] = []
        self.run_stats: List[Any] = []

    def run(self, jobs: Sequence[SweepJob],
            failure_policy: Optional[str] = None) -> List[Any]:
        jobs = list(jobs)
        results = super().run(jobs, failure_policy=failure_policy)
        self.jobs.extend(jobs)
        self.cells.extend((job.label, copy.copy(result))
                          for job, result in zip(jobs, results))
        self.run_stats.append(self.last_stats)
        return results

    def take(self) -> Tuple[List[SweepJob], List[Tuple[str, Any]],
                            List[Any]]:
        taken = self.jobs, self.cells, self.run_stats
        self.jobs, self.cells, self.run_stats = [], [], []
        return taken


def cell_hashes(cells: Sequence[Tuple[str, Any]]) -> List[Tuple[str, str]]:
    """``(label, sha256 of the canonical result)`` per cell."""
    return [(label, stable_hash(result)) for label, result in cells]


def results_sha256(cells: Sequence[Tuple[str, Any]]) -> str:
    """One sha256 over every cell's canonical result, in cell order."""
    return stable_hash(cell_hashes(cells))


def compare_cells(reference: Sequence[Tuple[str, Any]],
                  other: Sequence[Tuple[str, Any]],
                  what: str) -> List[Tuple[int, str]]:
    """Failures for cells of ``other`` that differ from ``reference``."""
    ref, got = cell_hashes(reference), cell_hashes(other)
    if [label for label, _ in ref] != [label for label, _ in got]:
        return [(max(len(got), 1),
                 f"{what}: cell list differs from the reference pass")]
    differing = [label for (label, a), (_, b) in zip(ref, got) if a != b]
    if differing:
        return [(len(differing), f"{what}: {len(differing)} cell(s) differ, "
                 f"first {differing[0]}")]
    return []


def failed_cells(cells: Sequence[Tuple[str, Any]]) -> List[Tuple[int, str]]:
    """Failures for cells that came back as ``JobFailure`` sentinels."""
    bad = [label for label, result in cells if is_failure(result)]
    return [(len(bad), f"{len(bad)} JobFailure sentinel(s), first "
             f"{bad[0]}")] if bad else []


def _span(tracer: Any, name: str, cell: str = "") -> Any:
    """``tracer.span(name)``, or nothing when the run is untraced."""
    if tracer is None:
        return nullcontext()
    return tracer.span(name, cell=cell)


def _claim(ok: bool, cells: int, message: str) -> List[Tuple[int, str]]:
    return [] if ok else [(cells, message)]


# ---------------------------------------------------------------------------
# paper_figs
# ---------------------------------------------------------------------------
class PaperFigs:
    """Fig. 9 grid + Fig. 10 single-user Wi-Fi + Fig. 7 coexistence."""

    name = "paper_figs"
    parallel = False

    def __init__(self, seed: int, sizes: Sizes = Sizes()):
        self.seed = seed
        self.sizes = sizes
        self.traces: Dict[str, Any] = {}

    def setup(self, tracer: Any = None) -> None:
        """Imports, the synthetic trace set and the Fig. 9 grid."""
        from repro.experiments import (coexistence, pareto,  # noqa: F401
                                       wifi_eval)
        from repro.runtime import SweepSpec

        with _span(tracer, "cellular.trace_gen"):
            self.traces = fig9_traces(self.seed, self.sizes.fig9_duration)
        if self.sizes.fig9_traces is not None:
            self.traces = {name: self.traces[name]
                           for name in self.sizes.fig9_traces}
        SweepSpec(schemes=list(self.sizes.fig9_schemes), traces=self.traces,
                  duration=self.sizes.fig9_duration).expand()

    @property
    def split_cells(self) -> int:
        """Cells the traced run splits into steps: the Fig. 9 grid."""
        return len(self.sizes.fig9_schemes) * len(self.traces)

    def make_executor(self) -> RecordingExecutor:
        return RecordingExecutor(jobs=1)

    def start(self, executor: RecordingExecutor) -> None:
        """Serial: there is no pool to start."""

    def warmup(self, executor: RecordingExecutor) -> None:
        from repro.experiments.pareto import fig9_sweep

        first = dict(list(self.traces.items())[:1])
        fig9_sweep(schemes=self.sizes.fig9_schemes,
                   duration=self.sizes.fig9_duration, traces=first,
                   executor=executor)

    def run_pass(self, executor: RecordingExecutor) -> Dict[str, Any]:
        from repro.experiments.coexistence import fig7_coexistence_timeseries
        from repro.experiments.pareto import fig9_sweep
        from repro.experiments.wifi_eval import WIFI_BASELINES, fig10_wifi

        sizes = self.sizes
        fig9 = fig9_sweep(schemes=sizes.fig9_schemes,
                          duration=sizes.fig9_duration, traces=self.traces,
                          executor=executor)
        wifi = fig10_wifi(num_users=1, duration=WIFI_DURATION,
                          abc_delay_thresholds=sizes.wifi_thresholds,
                          baselines=(sizes.wifi_baselines
                                     if sizes.wifi_baselines is not None
                                     else WIFI_BASELINES),
                          executor=executor)
        fig7 = fig7_coexistence_timeseries(duration=FIG7_DURATION,
                                           stagger=FIG7_STAGGER,
                                           executor=executor)
        return {"fig9": fig9, "wifi": wifi, "fig7": fig7}

    def extras(self, tracer: Any, jobs: Sequence[SweepJob],
               results: Sequence[Any]) -> Dict[str, Any]:
        return {}

    def check(self, output: Dict[str, Any],
              cells: Sequence[Tuple[str, Any]]) -> List[Tuple[int, str]]:
        """The claim asserts of the Fig. 9, Table 1, Fig. 10 and Fig. 7
        benchmarks (``benchmarks/bench_fig09_sweep.py`` and friends)."""
        from repro.experiments.pareto import table1_summary
        from repro.experiments.runner import sweep_averages

        failures = failed_cells(cells)
        if failures:
            return failures
        n9 = sum(len(per_trace) for per_trace in output["fig9"].values())
        avg = {row["scheme"]: row for row in sweep_averages(output["fig9"])}
        norm = {row["scheme"]: row for row in table1_summary(output["fig9"])}
        failures += _claim(
            avg["abc"]["utilization"]
            > 1.2 * avg["cubic+codel"]["utilization"],
            n9, "Fig. 9: ABC utilisation is not 1.2x Cubic+Codel's")
        failures += _claim(
            avg["cubic"]["delay_p95_ms"] > 2.0 * avg["abc"]["delay_p95_ms"],
            n9, "Fig. 9: Cubic p95 delay is not 2x ABC's")
        failures += _claim(norm["abc"]["norm_throughput"] == 1.0, n9,
                           "Table 1: ABC is not its own reference")
        failures += _claim(norm["cubic"]["norm_delay_p95"] > 2.0, n9,
                           "Table 1: Cubic normalised delay is not above 2")
        failures += _claim(norm["cubic+codel"]["norm_throughput"] < 0.9, n9,
                           "Table 1: Cubic+Codel normalised throughput is "
                           "not below 0.9")
        wifi = {row.scheme: row for row in output["wifi"]}
        failures += _claim(
            wifi["abc_dt100"].throughput_mbps
            > wifi["cubic+codel"].throughput_mbps, len(wifi),
            "Fig. 10: ABC (dt=100ms) throughput is not above Cubic+Codel's")
        failures += _claim(
            wifi["abc_dt100"].queuing_p95_ms < wifi["cubic"].queuing_p95_ms,
            len(wifi), "Fig. 10: ABC (dt=100ms) queuing is not below Cubic's")
        fig7 = output["fig7"]
        failures += _claim(abs(fig7.throughput_gap) < 0.25, 1,
                           "Fig. 7: ABC/Cubic throughput gap is 0.25 or more")
        failures += _claim(
            fig7.abc_queuing_p95_ms < fig7.cubic_queuing_p95_ms, 1,
            "Fig. 7: ABC queuing is not below Cubic's")
        return failures


# ---------------------------------------------------------------------------
# metro_churn
# ---------------------------------------------------------------------------
class MetroChurn:
    """A metro city with churning flows on a persistent pool."""

    name = "metro_churn"
    parallel = True
    #: Metro cells are one span each in the traced run.
    split_cells = 0

    def __init__(self, seed: int, sizes: Sizes = Sizes()):
        self.seed = seed
        self.sizes = sizes
        self.spec = None
        self.jobs: List[SweepJob] = []

    def setup(self, tracer: Any = None) -> None:
        """Imports, the city's traces and square-wave cells, its jobs."""
        from repro.metro import aggregate_city, metro_pack  # noqa: F401

        with _span(tracer, "cellular.trace_gen"):
            self.spec = metro_pack(n_cells=self.sizes.metro_cells,
                                   duration=self.sizes.metro_duration,
                                   trace_seed=self.seed)
        _, self.jobs = self.spec.expand()

    def make_executor(self) -> RecordingExecutor:
        return RecordingExecutor(jobs=nproc())

    def start(self, executor: RecordingExecutor) -> None:
        """Start the persistent pool with every trace the city uses.

        Workers are primed with the traces the submitted jobs reference, so
        the no-op start jobs carry all of them; the real passes then reuse
        the warm pool instead of restarting it.
        """
        refs = tuple(job.kwargs["link_spec"] for job in self.jobs
                     if isinstance(job.kwargs["link_spec"], TraceRef))
        executor.open()
        executor.run([SweepJob(func=noop, kwargs={"traces": refs},
                               label=f"start-{i}")
                      for i in range(max(executor.workers, 2))])
        executor.take()

    def warmup(self, executor: RecordingExecutor) -> None:
        executor.run(self.jobs[:2 * executor.workers])

    def run_pass(self, executor: RecordingExecutor) -> Dict[str, Any]:
        return {"cells": executor.run(self.jobs)}

    def extras(self, tracer: Any, jobs: Sequence[SweepJob],
               results: Sequence[Any]) -> Dict[str, Any]:
        """Each cell's flow arrivals, sizes and schemes, as ``metro_cell``
        draws them, and the city aggregate."""
        from repro.metro import aggregate_city
        from repro.metro.workload import (bounded_pareto_sizes, parse_mix,
                                          poisson_arrivals, scheme_assignment)

        for job in jobs:
            kw = job.kwargs
            with tracer.span("metro.workload_gen", cell=job.label):
                arrivals = poisson_arrivals(kw["arrival_rate"], kw["duration"],
                                            kw["cell"], kw["seed"])
                bounded_pareto_sizes(len(arrivals), kw["cell"], kw["seed"],
                                     min_bytes=kw["flow_size_min"],
                                     max_bytes=kw["flow_size_max"],
                                     alpha=kw["flow_size_alpha"])
                scheme_assignment(kw["base_flows"] + len(arrivals),
                                  parse_mix(kw["mix"]), kw["cell"], kw["seed"])
        with tracer.span("metro.aggregate"):
            city = aggregate_city(results)
        return {"flows": city["offered_flows"]}

    def check(self, output: Dict[str, Any],
              cells: Sequence[Tuple[str, Any]]) -> List[Tuple[int, str]]:
        """``aggregate_city`` sanity and per-cell bounds."""
        from repro.metro import aggregate_city

        failures = failed_cells(cells)
        if failures:
            return failures
        bad = [r["cell"] for r in output["cells"]
               if not (0.0 < r["utilization"] <= 1.0
                       and 0 <= r["completed_flows"] <= r["offered_flows"])]
        failures += _claim(not bad, len(bad),
                           f"metro: {len(bad)} cell(s) with utilisation "
                           f"outside (0, 1] or completed > offered flows")
        city = aggregate_city(output["cells"])
        failures += _claim(
            0.0 < city["utilization_mean"] <= 1.0
            and city["completed_flows"] <= city["offered_flows"]
            and "failed_cells" not in city, len(cells),
            "metro: city aggregate out of bounds")
        return failures


# ---------------------------------------------------------------------------
# fuzz_small
# ---------------------------------------------------------------------------
class FuzzSmall:
    """A serial fuzz campaign with the determinism replay and shrinking."""

    name = "fuzz_small"
    parallel = False

    def __init__(self, seed: int, sizes: Sizes = Sizes()):
        self.seed = seed
        self.sizes = sizes

    def setup(self, tracer: Any = None) -> None:
        """Imports and the campaign's scenarios (``run_campaign`` samples
        them again itself; sampling is a pure function of the seed)."""
        from repro.fuzz import campaign  # noqa: F401
        from repro.fuzz.generator import ScenarioGen

        ScenarioGen(self.seed).sample_many(self.sizes.fuzz_budget)

    @property
    def split_cells(self) -> int:
        """Cells the traced run splits into steps: every scenario."""
        return self.sizes.fuzz_budget

    def make_executor(self) -> RecordingExecutor:
        return RecordingExecutor(jobs=1)

    def start(self, executor: RecordingExecutor) -> None:
        """Serial: there is no pool to start."""

    def warmup(self, executor: RecordingExecutor) -> None:
        from repro.fuzz.campaign import run_campaign

        run_campaign(max(self.sizes.fuzz_budget // 12, 1), seed=self.seed,
                     executor=executor, check_determinism=True, shrink=True)

    def run_pass(self, executor: RecordingExecutor) -> Dict[str, Any]:
        from repro.fuzz.campaign import run_campaign

        return {"report": run_campaign(self.sizes.fuzz_budget, seed=self.seed,
                                       executor=executor,
                                       check_determinism=True, shrink=True)}

    def extras(self, tracer: Any, jobs: Sequence[SweepJob],
               results: Sequence[Any]) -> Dict[str, Any]:
        """Scenario generation, and shrinking when a scenario failed."""
        from repro.fuzz.campaign import evaluate_scenario
        from repro.fuzz.generator import FuzzScenario, ScenarioGen
        from repro.fuzz.shrink import shrink_scenario

        with tracer.span("fuzz.generate"):
            ScenarioGen(self.seed).sample_many(self.sizes.fuzz_budget)
        violating = [(job, verdict) for job, verdict in zip(jobs, results)
                     if not is_failure(verdict) and verdict["violations"]]
        if violating:
            job, verdict = violating[0]
            invariant = verdict["violations"][0][0]

            def still_fails(candidate: Any) -> bool:
                again = evaluate_scenario(candidate)
                return any(name == invariant
                           for name, _ in again["violations"])

            with tracer.span("fuzz.shrink", cell=job.label):
                shrink_scenario(FuzzScenario.from_jsonable(job.kwargs["spec"]),
                                still_fails)
        return {"violations": sum(len(v["violations"]) for v in results
                                  if not is_failure(v))}

    def check(self, output: Dict[str, Any],
              cells: Sequence[Tuple[str, Any]]) -> List[Tuple[int, str]]:
        """The campaign report is clean and no job failed."""
        failures = failed_cells(cells)
        report = output["report"]
        violating = sum(1 for _, verdict in cells
                        if not is_failure(verdict) and verdict["violations"])
        failures += _claim(not violating, violating,
                           f"fuzz: {violating} scenario(s) violate an "
                           f"invariant")
        failures += _claim(report["clean"] and not report["failed_jobs"]
                           and report["scenarios_run"] == len(cells),
                           0 if violating else len(cells),
                           "fuzz: the campaign report is not clean")
        return failures


WORKLOADS = {cls.name: cls for cls in (PaperFigs, MetroChurn, FuzzSmall)}
