"""Run one workload, untraced or traced, and compute its metrics.

:func:`run_benchmark` is what ``perfbench/run.py`` calls.  Untraced, it
measures the end-to-end metrics; traced, the per-layer metrics.  Both modes
check every pass's outputs and count cells that failed or failed a check.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.obs import metrics as obs_metrics
from repro.obs.manifest import git_sha, knob_snapshot
from repro.runtime import ResultCache, SweepExecutor

from perfbench.spans import Tracer
from perfbench.workloads import (FIG9_SCHEMES, WORKLOADS, RecordingExecutor,
                                 Sizes, compare_cells, nproc, results_sha256)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

#: End-to-end metrics (untraced run) and their units.
END_TO_END = {
    "setup_s": "s",
    "cells_per_s": "1/s",
    "replay_cells_per_s": "1/s",
    "peak_rss_mb": "MB",
    "pass_ratio": "ratio",
}

#: The Fig. 9 schemes under metric-name spelling (``+`` is not allowed).
SCHEME_KEYS = {scheme: scheme.replace("+", "_") for scheme in FIG9_SCHEMES}

#: Per-layer metrics (traced run) and their units.
PER_LAYER = {
    "runtime.overhead_ms_per_cell": "ms",
    "runtime.job_wall_p50_ms": "ms",
    "runtime.job_wall_p90_ms": "ms",
    "runtime.queue_wait_p50_ms": "ms",
    "runtime.cache_key_ms_per_cell": "ms",
    "runtime.cache_put_ms_per_cell": "ms",
    "runtime.cache_get_ms_per_cell": "ms",
    "runtime.pickle_kb_per_cell": "KiB",
    "runtime.pickle_ms_per_cell": "ms",
    "runtime.executed": "count",
    "runtime.cache_hits": "count",
    "runtime.retries": "count",
    "experiments.build_ms_per_cell": "ms",
    "simulator.run_s": "s",
    "simulator.ns_per_pkt": "ns",
    "simulator.ns_per_event": "ns",
    "simulator.pkts": "count",
    "simulator.events": "count",
    "simulator.events_per_pkt": "ratio",
    **{f"simulator.ns_per_pkt.{key}": "ns" for key in SCHEME_KEYS.values()},
    "simulator.ns_per_pkt.wifi": "ns",
    "link.drop_ratio": "ratio",
    "sender.rtx_ratio": "ratio",
    "sender.timeouts": "count",
    "core.accel_marked": "count",
    "core.brake_marked": "count",
    "core.accel_frac": "ratio",
    "cellular.trace_gen_s": "s",
    "metro.workload_gen_ms_per_cell": "ms",
    "metro.aggregate_ms": "ms",
    "metro.flows": "count",
    "fuzz.generate_ms": "ms",
    "fuzz.build_ms_per_scenario": "ms",
    "fuzz.invariants_ms_per_scenario": "ms",
    "fuzz.replay_share": "ratio",
    "fuzz.violations": "count",
    "fuzz.shrink_s": "s",
    "analysis.summary_ms_per_cell": "ms",
    "obs.trace_overhead": "ratio",
}

#: Set-up probes per run; ``setup_s`` is their median.
SETUP_PROBES = 5

#: Cold passes per run: at least this many, more while ``--seconds`` lasts.
#: ``cells_per_s`` is the fastest pass's rate.
MIN_COLD_PASSES = 3

#: Warm replays run in bursts of this many, one burst per set-up probe, so a
#: run always times ``SETUP_PROBES * REPLAY_BURST`` of them: right after
#: each of the first cold passes, from the cache that pass wrote, and after
#: each probe left over once the passes are done.  A replay submits the
#: pass's jobs again, in one ``run()``: it times serving cells (cache keys
#: and reads), not the entry points' spec building, whose trace hashing
#: would make the rate follow the seed's trace lengths.  A replay takes
#: milliseconds, and the shared host the benchmark was built on runs the
#: same code up to 1.8x slower in phases that last from seconds to minutes,
#: so the bursts spread over the run and the rate reported is the fastest
#: replay's.
REPLAY_BURST = 8

SETUP_PROBE = BENCH_DIR / "setup_probe.py"


class Tally:
    """Cells attempted, cells failed, and why."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        #: Each distinct failure message, with the number of passes it hit.
        self.messages: Dict[str, int] = {}

    def add(self, cells: int, failures: Sequence[Tuple[int, str]]) -> None:
        self.attempted += cells
        self.failed += min(cells, sum(n for n, _ in failures))
        for _, message in failures:
            self.messages[message] = self.messages.get(message, 0) + 1


@contextmanager
def clean_knobs() -> Iterator[None]:
    """Unset every ``REPRO_*`` knob for the block, then restore them."""
    saved = {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}
    for key in saved:
        del os.environ[key]
    try:
        yield
    finally:
        for key in [k for k in os.environ if k.startswith("REPRO_")]:
            del os.environ[key]
        os.environ.update(saved)


def fresh_cache(parent: Path) -> ResultCache:
    """A result cache in a new, empty directory under ``parent``."""
    parent.mkdir(parents=True, exist_ok=True)
    return ResultCache(tempfile.mkdtemp(prefix="cache-", dir=parent))


def measure_setup(workload: str, seed: int) -> float:
    """Wall time from spawning a fresh interpreter to the point where it
    would submit its first job (see ``setup_probe.py``)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(SETUP_PROBE), workload,
                             str(seed)], stdout=subprocess.PIPE, text=True,
                            cwd=ROOT)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=120)
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe for {workload} exited {code}")
    return elapsed


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its live pool workers."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kb += sum(_vm_hwm_kb(child.pid)
              for child in multiprocessing.active_children())
    return kb / 1024.0


def _pass(workload: Any, executor: RecordingExecutor
          ) -> Tuple[Dict[str, Any], float, List[Any], List[Tuple[str, Any]],
                     List[Any]]:
    """One pass: its output, wall time, jobs, cells and executor stats."""
    start = time.perf_counter()
    output = workload.run_pass(executor)
    elapsed = time.perf_counter() - start
    return (output, elapsed) + executor.take()


# ---------------------------------------------------------------------------
# Untraced: end-to-end metrics
# ---------------------------------------------------------------------------
def replay_burst(executor: RecordingExecutor, jobs: Sequence[Any],
                 reference: Sequence[Tuple[str, Any]], tally: Tally,
                 seconds: List[float]) -> None:
    """``REPLAY_BURST`` warm replays of ``jobs`` from ``executor``'s cache,
    each checked against ``reference`` and timed into ``seconds``."""
    for _ in range(REPLAY_BURST):
        # The plain SweepExecutor.run: no entry point touches the results,
        # so the recording's copies need not be timed.
        start = time.perf_counter()
        results = SweepExecutor.run(executor, jobs)
        elapsed = time.perf_counter() - start
        cells = [(job.label, result) for job, result in zip(jobs, results)]
        failures = compare_cells(reference, cells, "warm replay")
        executed = executor.last_stats.executed
        if executed:
            failures.append((executed, f"warm replay simulated {executed} "
                             f"cell(s)"))
        tally.add(len(cells), failures)
        seconds.append(elapsed)


def run_untraced(workload: Any, seconds: float, work_dir: Path,
                 probes: int) -> Tuple[Dict[str, float], Tally, Dict]:
    """Cold passes for ``seconds``, each followed, while probes are left, by
    a replay burst and a set-up probe; then the remaining probes, each
    followed by a replay burst from the last pass's cache."""
    tally = Tally()
    workload.setup()
    executor = workload.make_executor()
    rates: List[float] = []
    replay_seconds: List[float] = []
    setup_times: List[float] = []
    reference: List[Tuple[str, Any]] = []
    try:
        workload.start(executor)
        workload.warmup(executor)
        executor.take()
        spent = 0.0
        while True:
            old = executor.cache
            executor.cache = fresh_cache(work_dir)
            if old is not None:
                shutil.rmtree(old.root, ignore_errors=True)
            output, elapsed, jobs, cells, _ = _pass(workload, executor)
            failures = workload.check(output, cells)
            if not reference:
                reference = cells
            else:
                failures += compare_cells(reference, cells, "cold pass")
            tally.add(len(cells), failures)
            rates.append(len(cells) / elapsed)
            spent += elapsed
            if len(setup_times) < probes:
                replay_burst(executor, jobs, reference, tally, replay_seconds)
                setup_times.append(measure_setup(workload.name,
                                                 workload.seed))
            if len(rates) >= MIN_COLD_PASSES and spent + elapsed > seconds:
                break
        while len(setup_times) < probes:
            setup_times.append(measure_setup(workload.name, workload.seed))
            replay_burst(executor, jobs, reference, tally, replay_seconds)
        rss = peak_rss_mb()
    finally:
        executor.close()
        if executor.cache is not None:
            shutil.rmtree(executor.cache.root, ignore_errors=True)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "cells_per_s": max(rates),
        "replay_cells_per_s": len(reference) / min(replay_seconds),
        "peak_rss_mb": rss,
        "pass_ratio": 1.0 - tally.failed / max(tally.attempted, 1),
    }
    details = {"cold_passes": len(rates), "cold_cells_per_s": rates,
               "replay_passes": len(replay_seconds),
               "replay_seconds": replay_seconds, "setup_seconds": setup_times,
               "cells_per_pass": len(reference),
               "results_sha256": results_sha256(reference)}
    return metrics, tally, details


# ---------------------------------------------------------------------------
# Traced: per-layer metrics
# ---------------------------------------------------------------------------
def run_traced(workload: Any, work_dir: Path, trace_path: Path
               ) -> Tuple[Dict[str, float], Tally, Dict]:
    from perfbench.tracing import TracedExecutor, active, counters

    tally = Tally()
    tracer = Tracer(workload.name)
    with tracer.span("setup"):
        workload.setup(tracer)
    plain = RecordingExecutor(jobs=1)
    workload.warmup(plain)
    plain.take()

    os.environ[obs_metrics.TELEMETRY_ENV] = "1"
    obs_metrics.registry().reset()
    traced = TracedExecutor(tracer)
    traced.cache = fresh_cache(work_dir)
    with active(tracer) as run:
        with tracer.span("pass"):
            output, _, _, cells, cold_stats = _pass(workload, traced)
        totals = counters()
        originals = list(traced.originals)
        mismatched = [(len(run.mismatches), f"traced pass: "
                       f"{len(run.mismatches)} cell(s) differ from their "
                       f"untraced run, first {run.mismatches[0]}")
                      ] if run.mismatches else []
        tally.add(len(cells), workload.check(output, cells) + mismatched
                  + split_failures(workload, tracer))
        with tracer.span("replay"):
            output, _, _, replayed, replay_stats = _pass(workload, traced)
        tally.add(len(replayed), workload.check(output, replayed)
                  + compare_cells(cells, replayed, "traced replay"))

    records: List[Dict[str, Any]] = [
        {"wall_seconds": (s["end_ns"] - s["start_ns"]) / 1e9,
         "queue_wait_seconds": 0.0} for s in tracer.named("job", under="pass")]
    pool_overhead_s: Optional[float] = None
    if workload.parallel:
        # Queue waits, per-job walls and the executor's overhead (dispatch,
        # pickling, IPC, idle workers at the tail) come from a pool pass.
        pool = workload.make_executor()
        try:
            workload.start(pool)
            pool.cache = fresh_cache(work_dir)
            output, elapsed, _, pooled, stats = _pass(workload, pool)
        finally:
            pool.close()
        records = [r for s in stats for r in s.job_records]
        pool_overhead_s = (elapsed * pool.workers
                           - sum(r["wall_seconds"] for r in records))
        tally.add(len(pooled), workload.check(output, pooled)
                  + compare_cells(cells, pooled, "pool pass"))

    with tracer.span("extras"):
        extras = _extras(workload, tracer, traced.salt, originals, cells,
                         work_dir)
    tracer.write(trace_path)

    metrics = layer_metrics(
        workload, tracer, cells, totals, extras, records, pool_overhead_s,
        executed=sum(s.executed for s in cold_stats),
        cache_hits=sum(s.cache_hits for s in replay_stats),
        retries=sum(s.retries for s in cold_stats + replay_stats))
    details = {"results_sha256": results_sha256(cells),
               "cells_per_pass": len(cells),
               "trace_file": str(trace_path),
               "knobs_traced": knob_snapshot()}
    obs_metrics.registry().reset()
    return metrics, tally, details


def split_failures(workload: Any, tracer: Tracer) -> List[Tuple[int, str]]:
    """Failures when the traced pass did not split the cells it should have
    into their steps, or read no marks from the ABC router.  Either would
    leave the per-scheme, ``core`` and ``analysis`` metrics at 0."""
    jobs = tracer.named("job", under="pass")
    split = sum(1 for job in jobs if not job["args"].get("unsplit"))
    failures: List[Tuple[int, str]] = []
    if split != workload.split_cells:
        failures.append((len(jobs), f"traced pass: {split} cell(s) split "
                         f"into steps, expected {workload.split_cells}"))
    abc = [s for s in tracer.named("simulator.run", under="pass")
           if s["args"].get("scheme") == "abc"]
    marks = sum(s["args"].get("accel_marked", 0)
                + s["args"].get("brake_marked", 0) for s in abc)
    if abc and not marks:
        failures.append((len(abc),
                         "traced pass: no ABC router marks were read"))
    return failures


def _extras(workload: Any, tracer: Tracer, salt: str, jobs: Sequence[Any],
            cells: Sequence[Tuple[str, Any]], work_dir: Path
            ) -> Dict[str, Any]:
    """The benchmark's own calls into the runtime, metro and fuzz layers,
    outside the timed pass."""
    extras: Dict[str, Any] = {"pickle_bytes": 0}
    cache = fresh_cache(work_dir)
    for job, (label, result) in zip(jobs, cells):
        with tracer.span("runtime.cache_key", cell=label):
            key = job.cache_key(salt)
        with tracer.span("runtime.cache_put", cell=label):
            cache.put(key, result)
        with tracer.span("runtime.cache_get", cell=label):
            cache.get(key)
        with tracer.span("runtime.pickle", cell=label):
            blob = pickle.dumps((job.kwargs, result),
                                protocol=pickle.HIGHEST_PROTOCOL)
            pickle.loads(blob)
        extras["pickle_bytes"] += len(blob)
    extras.update(workload.extras(tracer, jobs, [r for _, r in cells]))
    return extras


def _percentile_ms(values: Sequence[float], pct: float) -> float:
    return float(np.percentile(values, pct)) * 1e3 if values else 0.0


def layer_metrics(workload: Any, tracer: Tracer,
                  cells: Sequence[Tuple[str, Any]], totals: Dict[str, int],
                  extras: Dict[str, Any], records: Sequence[Dict[str, Any]],
                  pool_overhead_s: Optional[float],
                  executed: int, cache_hits: int, retries: int
                  ) -> Dict[str, float]:
    """Every per-layer metric from the spans and counters of a traced run.

    ``pool_overhead_s`` is a pool pass's worker time not spent in job
    bodies; for a parallel workload it is the executor's overhead, for a
    serial one (``None``) that comes from the in-process ``runtime.run``
    spans.  Metrics of a layer the workload does not reach read 0.
    """
    n = max(len(cells), 1)
    total = tracer.total_s
    own = tracer.self_ns()
    jobs = tracer.named("job", under="pass")
    runs = tracer.named("runtime.run", under="pass")
    references = tracer.named("reference", under="pass")
    checks = tracer.named("check", under="pass")
    split_jobs = [j for j in jobs if not j["args"].get("unsplit")]
    unsplit_jobs = [j for j in jobs if j["args"].get("unsplit")]
    sim_runs = tracer.named("simulator.run", under="pass")
    run_s = total(sim_runs) + sum(own[j["id"]] for j in unsplit_jobs) / 1e9
    pkts = totals.get("receiver.packets_received", 0)
    events = totals.get("engine.events_dispatched", 0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    if pool_overhead_s is None:
        pool_overhead_s = (total(runs) - total(jobs) - total(references)
                           - total(checks))
    metrics: Dict[str, float] = {
        "runtime.overhead_ms_per_cell": pool_overhead_s / n * 1e3,
        "runtime.job_wall_p50_ms": _percentile_ms(
            [r["wall_seconds"] for r in records], 50),
        "runtime.job_wall_p90_ms": _percentile_ms(
            [r["wall_seconds"] for r in records], 90),
        "runtime.queue_wait_p50_ms": _percentile_ms(
            [r["queue_wait_seconds"] for r in records], 50),
        "runtime.cache_key_ms_per_cell":
            total(tracer.named("runtime.cache_key")) / n * 1e3,
        "runtime.cache_put_ms_per_cell":
            total(tracer.named("runtime.cache_put")) / n * 1e3,
        "runtime.cache_get_ms_per_cell":
            total(tracer.named("runtime.cache_get")) / n * 1e3,
        "runtime.pickle_kb_per_cell": extras["pickle_bytes"] / n / 1024.0,
        "runtime.pickle_ms_per_cell":
            total(tracer.named("runtime.pickle")) / n * 1e3,
        "runtime.executed": executed,
        "runtime.cache_hits": cache_hits,
        "runtime.retries": retries,
        "experiments.build_ms_per_cell": ratio(
            total(tracer.named("experiments.build", under="pass"))
            + total(tracer.named("fuzz.build", under="pass")),
            len(split_jobs)) * 1e3,
        "simulator.run_s": run_s,
        "simulator.ns_per_pkt": ratio(run_s * 1e9, pkts),
        "simulator.ns_per_event": ratio(run_s * 1e9, events),
        "simulator.pkts": pkts,
        "simulator.events": events,
        "simulator.events_per_pkt": ratio(events, pkts),
        "link.drop_ratio": ratio(totals.get("link.dropped_packets", 0),
                                 totals.get("link.arrived_packets", 0)),
        "sender.rtx_ratio": ratio(totals.get("sender.retransmissions", 0),
                                  totals.get("sender.packets_sent", 0)),
        "sender.timeouts": totals.get("sender.timeouts", 0),
        "cellular.trace_gen_s": total(tracer.named("cellular.trace_gen")),
        "obs.trace_overhead": ratio(total(jobs), total(references)) - 1.0,
    }

    # Per-scheme cost of Scenario.run (Fig. 9 cells) and the Wi-Fi cells.
    by_scheme: Dict[str, List[float]] = {}
    for span in sim_runs:
        scheme = span["args"].get("scheme")
        if scheme in SCHEME_KEYS:
            acc = by_scheme.setdefault(SCHEME_KEYS[scheme], [0.0, 0])
            acc[0] += span["end_ns"] - span["start_ns"]
            acc[1] += span["args"]["counters"].get(
                "receiver.packets_received", 0)
    wifi = [0.0, 0]
    for job in unsplit_jobs:
        if job["cell"].startswith("wifi/"):
            wifi[0] += own[job["id"]]
            wifi[1] += job["args"]["counters"].get(
                "receiver.packets_received", 0)
    for key in SCHEME_KEYS.values():
        ns, count = by_scheme.get(key, (0.0, 0))
        metrics[f"simulator.ns_per_pkt.{key}"] = ratio(ns, count)
    metrics["simulator.ns_per_pkt.wifi"] = ratio(wifi[0], wifi[1])

    accel = sum(s["args"].get("accel_marked", 0) for s in sim_runs)
    brake = sum(s["args"].get("brake_marked", 0) for s in sim_runs)
    metrics["core.accel_marked"] = accel
    metrics["core.brake_marked"] = brake
    metrics["core.accel_frac"] = ratio(accel, accel + brake)

    metrics["metro.workload_gen_ms_per_cell"] = (
        total(tracer.named("metro.workload_gen")) / n * 1e3
        if workload.name == "metro_churn" else 0.0)
    metrics["metro.aggregate_ms"] = (total(tracer.named("metro.aggregate"))
                                     * 1e3)
    metrics["metro.flows"] = extras.get("flows", 0)

    first_builds = (total(tracer.named("fuzz.build", under="pass"))
                    - total(tracer.named("fuzz.build", under="fuzz.replay")))
    fuzzing = workload.name == "fuzz_small"
    metrics["fuzz.generate_ms"] = total(tracer.named("fuzz.generate")) * 1e3
    metrics["fuzz.build_ms_per_scenario"] = (first_builds / n * 1e3
                                             if fuzzing else 0.0)
    metrics["fuzz.invariants_ms_per_scenario"] = (
        total(tracer.named("fuzz.invariants", under="pass")) / n * 1e3
        if fuzzing else 0.0)
    metrics["fuzz.replay_share"] = (
        ratio(total(tracer.named("fuzz.replay", under="pass")), total(jobs))
        if fuzzing else 0.0)
    metrics["fuzz.violations"] = extras.get("violations", 0)
    metrics["fuzz.shrink_s"] = total(tracer.named("fuzz.shrink"))

    summaries = tracer.named("analysis.summary", under="pass")
    metrics["analysis.summary_ms_per_cell"] = ratio(total(summaries),
                                                    len(summaries)) * 1e3
    return {name: metrics[name] for name in PER_LAYER}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------
def run_benchmark(workload: str, seed: int, seconds: float, trace: bool,
                  sizes: Sizes = Sizes(), out_dir: Optional[Path] = None,
                  setup_probes: int = SETUP_PROBES) -> Dict[str, Any]:
    """Run one workload and return ``{"result": ..., "details": ...}``.

    ``result`` is the benchmark's final JSON object (``correct``,
    ``attempted``, ``failed``, ``metrics``); ``details`` records the seed,
    configuration and failure messages.  Every ``REPRO_*`` knob is unset
    while the workload runs, so it measures the default configuration.
    """
    if setup_probes < 1:
        raise ValueError("setup_probes must be at least 1")
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from "
                         f"{sorted(WORKLOADS)}")
    out_dir = Path(out_dir) if out_dir is not None else BENCH_DIR / "out"
    work_dir = out_dir / "work"
    with clean_knobs():
        knobs = knob_snapshot()
        bench = WORKLOADS[workload](seed, sizes)
        try:
            if trace:
                trace_path = out_dir / f"trace-{workload}-seed{seed}.json"
                values, tally, details = run_traced(bench, work_dir,
                                                    trace_path)
                units = PER_LAYER
            else:
                values, tally, details = run_untraced(bench, seconds,
                                                      work_dir, setup_probes)
                units = END_TO_END
        finally:
            shutil.rmtree(work_dir, ignore_errors=True)
    details.update({
        "workload": workload, "seed": seed, "trace": trace,
        "seconds": seconds, "knobs": knobs, "git_sha": git_sha(),
        "python": platform.python_version(),
        "platform": platform.platform(), "nproc": nproc(),
        "fail_ratio": tally.failed / max(tally.attempted, 1),
        "failures": tally.messages})
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return {"result": result, "details": details}

