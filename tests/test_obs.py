"""Observability subsystem: registry, harvest, merge-back, manifests, traces.

Pins the contracts ``src/repro/obs`` is built on:

* disabled mode hands out shared no-op instruments and records nothing;
* instruments merge exactly and order-independently, so serial and parallel
  sweeps produce identical merged counter totals;
* simulation results are bit-identical with telemetry on and off (and with
  the engine trace hook attached);
* run manifests round-trip through JSON with the documented schema, and the
  provenance record embedded in fuzz reports is deterministic;
* the executor counts corrupt cache entries distinctly from ordinary misses.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs import manifest as obs_manifest
from repro.obs import metrics as obs_metrics
from repro.obs import progress
from repro.obs.manifest import MANIFEST_SCHEMA, provenance
from repro.obs.metrics import (NULL_COUNTER, NULL_GAUGE, NULL_TIMER,
                               MetricsRegistry, TimerHist)
from repro.obs.progress import (ProgressTracker, resolve_progress,
                                stderr_reporter)
from repro.obs.trace import (EventTraceRecorder, sweep_trace_events,
                             write_chrome_trace)
from repro.runtime.executor import SweepExecutor, SweepJob
from repro.runtime.spec import SweepSpec
from repro.simulator.engine import EventLoop

REPO_ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def _clean_registry():
    """Each test starts and ends with an empty process registry."""
    obs_metrics.registry().reset()
    yield
    obs_metrics.registry().reset()


# ---------------------------------------------------------------------------
# Registry: enabled vs disabled
# ---------------------------------------------------------------------------
def test_disabled_handles_are_noop_singletons():
    with obs_metrics.override(False):
        assert obs_metrics.counter("x") is NULL_COUNTER
        assert obs_metrics.gauge("x") is NULL_GAUGE
        assert obs_metrics.timer("x") is NULL_TIMER
        obs_metrics.counter("x").inc(5)
        obs_metrics.gauge("x").set(3.0)
        obs_metrics.timer("x").observe_ns(100)
        with obs_metrics.timer("x").time():
            pass
    snap = obs_metrics.registry().snapshot()
    assert snap == {"counters": {}, "gauges": {}, "timers": {}}


def test_enabled_handles_record():
    with obs_metrics.override(True):
        obs_metrics.counter("a").inc()
        obs_metrics.counter("a").inc(2)
        obs_metrics.gauge("g").set(7)
        with obs_metrics.timer("t").time():
            pass
    snap = obs_metrics.registry().snapshot()
    assert snap["counters"] == {"a": 3}
    assert snap["gauges"] == {"g": 7}
    assert snap["timers"]["t"]["count"] == 1
    assert snap["timers"]["t"]["total_ns"] >= 0


def test_override_nesting_restores_previous_state(monkeypatch):
    monkeypatch.delenv(obs_metrics.TELEMETRY_ENV, raising=False)
    assert not obs_metrics.enabled()
    with obs_metrics.override(True):
        assert obs_metrics.enabled()
        with obs_metrics.override(False):
            assert not obs_metrics.enabled()
        assert obs_metrics.enabled()
    assert not obs_metrics.enabled()


def test_env_knob(monkeypatch):
    monkeypatch.setenv(obs_metrics.TELEMETRY_ENV, "1")
    assert obs_metrics.enabled()
    monkeypatch.setenv(obs_metrics.TELEMETRY_ENV, "0")
    assert not obs_metrics.enabled()


# ---------------------------------------------------------------------------
# TimerHist math and merging
# ---------------------------------------------------------------------------
def test_timer_hist_stats():
    t = TimerHist("t")
    for ns in (5, 1, 9, 0):
        t.observe_ns(ns)
    assert t.count == 4
    assert t.total_ns == 15
    assert t.min_ns == 0
    assert t.max_ns == 9
    assert t.mean_ns == pytest.approx(3.75)
    data = t.to_jsonable()
    # 0 → bucket 0, 1 → bucket 1, 5 → bucket 3, 9 → bucket 4.
    assert data["buckets"] == [1, 1, 0, 1, 1]
    assert sum(data["buckets"]) == t.count


def test_timer_hist_merge_equals_combined_observations():
    combined, a, b = TimerHist("c"), TimerHist("a"), TimerHist("b")
    for ns in (10, 200, 3_000):
        a.observe_ns(ns)
        combined.observe_ns(ns)
    for ns in (1, 40_000):
        b.observe_ns(ns)
        combined.observe_ns(ns)
    a.merge(b.to_jsonable())
    assert a.to_jsonable() == combined.to_jsonable()


def test_registry_merge_is_order_independent():
    snap_a = {"counters": {"c": 3}, "gauges": {"g": 2.0},
              "timers": {"t": TimerHist("t").to_jsonable()}}
    snap_b = {"counters": {"c": 4, "d": 1}, "gauges": {"g": 5.0},
              "timers": {}}
    ab, ba = MetricsRegistry(), MetricsRegistry()
    ab.merge(snap_a), ab.merge(snap_b)
    ba.merge(snap_b), ba.merge(snap_a)
    assert ab.snapshot() == ba.snapshot()
    assert ab.snapshot()["counters"] == {"c": 7, "d": 1}
    assert ab.snapshot()["gauges"] == {"g": 5.0}


# ---------------------------------------------------------------------------
# Scenario harvest
# ---------------------------------------------------------------------------
def _run_fig_cell(**overrides):
    from repro.experiments.runner import run_single_bottleneck
    kwargs = dict(scheme="abc", link_spec=12e6, rtt=0.05, duration=2.0,
                  buffer_packets=100, seed=0)
    kwargs.update(overrides)
    return run_single_bottleneck(**kwargs)


def test_harvest_publishes_component_counters():
    with obs_metrics.override(True):
        result = _run_fig_cell()
    scenario = result.extra["scenario"]
    counters = obs_metrics.registry().snapshot()["counters"]
    assert counters["scenario.runs"] == 1
    assert counters["engine.events_dispatched"] == scenario.env.events_processed
    assert counters["engine.events_cancelled"] == scenario.env.cancels
    assert counters["engine.compactions"] == scenario.env.compactions
    link = scenario.links[0]
    assert counters["link.delivered_packets"] == link.delivered_packets
    sender = scenario.flows[0].sender
    assert counters["sender.acks_received"] == sender.acks_received
    assert counters["sender.rto_rearms"] == sender.rto_rearms
    assert counters["sender.packets_sent"] == sender.packets_sent
    assert sender.rto_rearms > 0  # ACK-clocked: re-armed throughout the run
    assert (counters["sender.fastpath_flows"]
            + counters["sender.classic_flows"]) == 1


def test_harvest_publishes_wheel_and_pacing_counters():
    """The scheduler-backend and fused-pacing counters ride the same
    end-of-run harvest: non-zero under REPRO_SCHED=wheel + a paced fastpath
    flow, zero (but present) on the classic heap/per-ACK configuration."""
    from repro.simulator import fastpath, sched

    with obs_metrics.override(True), sched.override("wheel"), \
            fastpath.override(True):
        # > 8 s so the cursor wraps the 4096-slot wheel at least once.
        result = _run_fig_cell(scheme="bbr", duration=9.0)
    scenario = result.extra["scenario"]
    counters = obs_metrics.registry().snapshot()["counters"]
    assert counters["engine.wheel_rotations"] == scenario.env.rotations
    assert counters["engine.wheel_rotations"] > 0
    assert counters["engine.overflow_spills"] == scenario.env.overflow_spills
    sender = scenario.flows[0].sender
    assert counters["sender.pace_ticks"] == sender.pace_ticks > 0
    assert counters["sender.pace_halts"] == sender.pace_halts

    obs_metrics.registry().reset()
    with obs_metrics.override(True), sched.override("heap"), \
            fastpath.override(False):
        _run_fig_cell(scheme="bbr")
    counters = obs_metrics.registry().snapshot()["counters"]
    assert counters["engine.wheel_rotations"] == 0
    assert counters["sender.pace_ticks"] == 0


def test_results_bit_identical_with_and_without_telemetry():
    with obs_metrics.override(False):
        off = _run_fig_cell()
    with obs_metrics.override(True):
        on = _run_fig_cell()
    assert off.throughput_bps == on.throughput_bps
    assert off.utilization == on.utilization
    assert off.delay_p95_ms == on.delay_p95_ms
    assert off.drops == on.drops


# ---------------------------------------------------------------------------
# Executor: merge-back determinism, job records, corrupt-entry accounting
# ---------------------------------------------------------------------------
def _scenario_counters(snapshot):
    """The deterministic (simulation-side) counters of a snapshot."""
    return {name: value for name, value in snapshot["counters"].items()
            if not name.startswith("executor.")}


def _small_spec():
    return SweepSpec(schemes=["abc", "cubic"], traces={"12mbps": 12e6},
                     seeds=(0, 1), duration=1.0)


def test_worker_merge_back_matches_serial(monkeypatch):
    monkeypatch.setenv(obs_metrics.TELEMETRY_ENV, "1")
    spec = _small_spec()

    obs_metrics.registry().reset()
    serial = spec.run_cells(SweepExecutor(jobs=1))
    serial_counters = _scenario_counters(obs_metrics.registry().snapshot())

    obs_metrics.registry().reset()
    parallel = spec.run_cells(SweepExecutor(jobs=2))
    parallel_counters = _scenario_counters(obs_metrics.registry().snapshot())

    assert serial_counters == parallel_counters
    assert serial_counters["scenario.runs"] == 4
    for (cell_s, res_s), (cell_p, res_p) in zip(serial, parallel):
        assert cell_s == cell_p
        assert res_s.throughput_bps == res_p.throughput_bps


def test_observed_run_collects_job_records(monkeypatch):
    monkeypatch.setenv(obs_metrics.TELEMETRY_ENV, "1")
    executor = SweepExecutor(jobs=2)
    _small_spec().run_cells(executor)
    stats = executor.last_stats
    assert stats.executed == 4
    assert len(stats.job_records) == 4
    for record in stats.job_records:
        assert record["wall_seconds"] > 0
        assert record["queue_wait_seconds"] >= 0
        assert record["pid"] > 0
        assert record["label"]
    timers = obs_metrics.registry().snapshot()["timers"]
    assert timers["executor.job_wall"]["count"] == 4


def test_unobserved_run_collects_nothing(monkeypatch):
    monkeypatch.delenv(obs_metrics.TELEMETRY_ENV, raising=False)
    monkeypatch.delenv(obs_manifest.RUN_DIR_ENV, raising=False)
    monkeypatch.delenv(progress.PROGRESS_ENV, raising=False)
    executor = SweepExecutor(jobs=1)
    SweepSpec(schemes=["abc"], traces={"12mbps": 12e6},
              duration=1.0).run_cells(executor)
    # Timing records are always kept (one per executed cell); telemetry
    # itself stays off.
    stats = executor.last_stats
    assert stats.executed == 1
    assert [r["label"] for r in stats.job_records] == ["abc/12mbps/seed0"]
    assert obs_metrics.registry().snapshot()["counters"] == {}


def _double(x: int) -> int:
    return 2 * x


def test_executor_counts_corrupt_entries_distinctly(tmp_path):
    executor = SweepExecutor(jobs=1, cache_dir=tmp_path)
    jobs = [SweepJob(func=_double, kwargs={"x": 21}, label="j")]
    assert executor.run(jobs) == [42]
    assert executor.last_stats.cache_corrupt == 0
    (pkl,) = tmp_path.glob("*/*.pkl")
    pkl.write_bytes(b"not a pickle")
    assert executor.run(jobs) == [42]
    stats = executor.last_stats
    assert stats.cache_corrupt == 1
    assert stats.cache_hits == 0
    assert stats.executed == 1
    assert executor.cache.corrupt == 1
    # The corrupt entry was deleted and rewritten: next run hits cleanly.
    assert executor.run(jobs) == [42]
    assert executor.last_stats.cache_hits == 1
    assert executor.last_stats.cache_corrupt == 0


# ---------------------------------------------------------------------------
# Progress
# ---------------------------------------------------------------------------
def test_progress_tracker_counts_and_eta():
    seen = []
    tracker = ProgressTracker(total=3, cache_hits=1, callback=seen.append)
    assert seen[-1].done == 1 and seen[-1].eta_seconds is None
    tracker.job_done("a")
    tracker.job_done("b")
    last = seen[-1]
    assert last.done == 3 and last.total == 3
    assert last.executed == 2 and last.cache_hits == 1
    assert last.eta_seconds == pytest.approx(0.0, abs=1.0)
    assert last.cache_hit_rate == pytest.approx(1 / 3)
    assert last.label == "b"


def test_resolve_progress_semantics(monkeypatch):
    monkeypatch.delenv("REPRO_PROGRESS", raising=False)
    assert resolve_progress(None) is None
    assert resolve_progress(False) is None
    assert resolve_progress(True) is stderr_reporter
    sink = lambda p: None  # noqa: E731
    assert resolve_progress(sink) is sink
    monkeypatch.setenv("REPRO_PROGRESS", "1")
    assert resolve_progress(None) is stderr_reporter
    assert resolve_progress(False) is None
    with pytest.raises(TypeError):
        resolve_progress(42)


def test_executor_progress_callback():
    seen = []
    executor = SweepExecutor(jobs=1, progress=seen.append)
    SweepSpec(schemes=["abc"], traces={"12mbps": 12e6},
              duration=1.0).run_cells(executor)
    assert seen[-1].done == seen[-1].total == 1


# ---------------------------------------------------------------------------
# Manifests
# ---------------------------------------------------------------------------
def test_provenance_is_deterministic_and_timestamp_free():
    first, second = provenance(), provenance()
    assert first == second
    assert first["schema"] == MANIFEST_SCHEMA
    assert "created_unix" not in first
    assert first["code_version_salt"].startswith("repro-runtime")
    assert isinstance(first["knobs"], dict)


def test_sweep_manifest_round_trip(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RUN_DIR", str(tmp_path / "runs"))
    monkeypatch.setenv(obs_metrics.TELEMETRY_ENV, "1")
    executor = SweepExecutor(jobs=1)
    spec = _small_spec()
    spec.run_cells(executor)
    (path,) = (tmp_path / "runs").glob("sweep-*.json")
    manifest = json.loads(path.read_text())
    assert manifest["schema"] == MANIFEST_SCHEMA
    assert manifest["kind"] == "sweep"
    assert manifest["created_unix"] > 0
    assert manifest["knobs"]["REPRO_TELEMETRY"] == "1"
    assert manifest["spec"]["schemes"] == ["abc", "cubic"]
    assert manifest["spec"]["seeds"] == [0, 1]
    assert len(manifest["cells"]) == 4
    assert manifest["executor"]["total"] == 4
    assert manifest["executor"]["executed"] == 4
    assert manifest["executor"]["cache_corrupt"] == 0
    assert len(manifest["executor"]["jobs"]) == 4
    assert manifest["metrics"]["counters"]["scenario.runs"] == 4


def test_no_manifest_without_run_dir(tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_RUN_DIR", raising=False)
    from repro.obs.manifest import write_manifest
    assert write_manifest({"kind": "x"}) is None


def test_fuzz_report_embeds_deterministic_manifest():
    from repro.fuzz.campaign import run_campaign
    report = run_campaign(budget=2, seed=3, jobs=1, shrink=False,
                          check_determinism=False)
    replay = run_campaign(budget=2, seed=3, jobs=1, shrink=False,
                          check_determinism=False)
    assert report == replay
    assert report["format"] == 3
    assert report["manifest"]["schema"] == MANIFEST_SCHEMA


# ---------------------------------------------------------------------------
# Chrome trace export
# ---------------------------------------------------------------------------
def test_event_trace_recorder_records_every_dispatch(tmp_path):
    loop = EventLoop()
    fired = []
    for i in range(5):
        loop.schedule(0.1 * (i + 1), fired.append, i)
    recorder = EventTraceRecorder(loop)
    loop.run(until=1.0)
    assert len(recorder.records) == 5
    assert fired == [0, 1, 2, 3, 4]
    sim_times = [r[0] for r in recorder.records]
    assert sim_times == sorted(sim_times)
    path = recorder.write_chrome(tmp_path / "trace.json")
    payload = json.loads(path.read_text())
    events = [e for e in payload["traceEvents"] if e["ph"] == "X"]
    assert len(events) == 5
    for event in events:
        assert set(event) >= {"name", "ph", "ts", "dur", "pid", "tid"}
        assert event["dur"] > 0


def test_traced_run_is_bit_identical_to_untraced():
    untraced = _run_fig_cell()
    from repro.experiments.runner import make_scheme
    # Tracing the same cell through the hook must not change results.
    spec = make_scheme("abc", buffer_packets=100, seed=0)
    from repro.simulator.scenario import Scenario
    scenario = Scenario()
    link = scenario.add_rate_link(12e6, qdisc=spec.make_qdisc(100),
                                  name="bottleneck")
    flow = scenario.add_flow(spec.make_sender(), [link], rtt=0.05,
                             label=spec.name)
    recorder = EventTraceRecorder(scenario.env)
    result = scenario.run(2.0)
    recorder.detach()
    traced_scenario = untraced.extra["scenario"]
    assert scenario.env.events_processed == traced_scenario.env.events_processed
    assert (result.flow_throughput_bps(flow)
            == untraced.throughput_bps)
    assert len(recorder.records) == scenario.env.events_processed


def test_recorder_detach_and_cap():
    loop = EventLoop()
    for i in range(10):
        loop.schedule(0.1 * (i + 1), lambda: None)
    recorder = EventTraceRecorder(loop, max_events=4)
    loop.run(until=0.65)
    assert len(recorder.records) == 4
    assert recorder.dropped == 2
    recorder.detach()
    loop.run(until=2.0)
    assert len(recorder.records) == 4  # nothing recorded after detach
    assert recorder.dropped == 2


def test_sweep_trace_events_one_row_per_worker(tmp_path):
    records = [
        {"label": "a", "pid": 100, "start_unix": 10.0, "wall_seconds": 0.5,
         "queue_wait_seconds": 0.0},
        {"label": "b", "pid": 200, "start_unix": 10.1, "wall_seconds": 0.4,
         "queue_wait_seconds": 0.1},
        {"label": "c", "pid": 100, "start_unix": 10.6, "wall_seconds": 0.3,
         "queue_wait_seconds": 0.0},
    ]
    events = sweep_trace_events(records)
    bars = [e for e in events if e["ph"] == "X"]
    names = [e for e in events if e["ph"] == "M"]
    assert len(bars) == 3
    assert {b["tid"] for b in bars} == {1, 2}
    assert bars[0]["ts"] == 0.0  # re-based to earliest start
    assert len(names) == 2
    path = write_chrome_trace(tmp_path / "w.json", events)
    assert json.loads(path.read_text())["traceEvents"]
    assert sweep_trace_events([]) == []


# ---------------------------------------------------------------------------
# CLI tools
# ---------------------------------------------------------------------------
def _run_tool(script, *args, env_extra=None):
    import os
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / script), *args],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT, timeout=120)


def test_export_trace_tool_scenario_mode(tmp_path):
    out = tmp_path / "sim.json"
    proc = _run_tool("export_trace.py", "--scheme", "abc",
                     "--duration", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(out.read_text())
    assert payload["traceEvents"]
    assert any(e["ph"] == "X" for e in payload["traceEvents"])


def test_export_trace_tool_manifest_mode(tmp_path, monkeypatch):
    run_dir = tmp_path / "runs"
    monkeypatch.setenv("REPRO_RUN_DIR", str(run_dir))
    executor = SweepExecutor(jobs=1)
    SweepSpec(schemes=["abc"], traces={"12mbps": 12e6},
              duration=1.0).run_cells(executor)
    (manifest,) = run_dir.glob("sweep-*.json")
    out = tmp_path / "workers.json"
    proc = _run_tool("export_trace.py", "--manifest", str(manifest),
                     "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(out.read_text())
    assert any(e["ph"] == "X" for e in payload["traceEvents"])


def test_profile_tool_json_output(tmp_path):
    out = tmp_path / "profile.json"
    proc = _run_tool("profile_hotpath.py", "--scheme", "abc",
                     "--duration", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(out.read_text())
    assert payload["kind"] == "profile"
    assert payload["rows"]
    row = payload["rows"][0]
    assert set(row) >= {"function", "file", "line", "tottime", "cumtime"}


def test_profile_tool_bare_out_lands_in_run_dir(tmp_path):
    run_dir = tmp_path / "runs"
    proc = _run_tool("profile_hotpath.py", "--scheme", "abc",
                     "--duration", "1", "--out", "profile.json",
                     env_extra={"REPRO_RUN_DIR": str(run_dir)})
    assert proc.returncode == 0, proc.stderr
    assert (run_dir / "profile.json").exists()
