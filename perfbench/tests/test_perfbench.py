"""Tests of the benchmark itself, at tiny sizes."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from perfbench import bench
from perfbench.bench import END_TO_END, PER_LAYER, run_benchmark
from perfbench.spans import Tracer
from perfbench.workloads import (WORKLOADS, FuzzSmall, MetroChurn, PaperFigs,
                                 RecordingExecutor, Sizes, compare_cells)

ROOT = Path(__file__).resolve().parents[2]

#: Small enough for the test suite, large enough that every claim holds on
#: seed 1.
TINY = Sizes(fig9_schemes=("abc", "cubic+codel", "cubic"),
             fig9_traces=("Verizon-LTE-2",), fig9_duration=6.0,
             wifi_thresholds=(0.1,), wifi_baselines=("cubic+codel", "cubic"),
             metro_cells=4, metro_duration=2.0, fuzz_budget=4)


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _assert_spans_nest(trace_file: Path) -> None:
    events = json.loads(Path(trace_file).read_text())["traceEvents"]
    assert events
    by_id = {e["args"]["id"]: e for e in events}
    for event in events:
        assert event["args"]["self_us"] >= -1e-3
        parent = event["args"]["parent"]
        if parent is None:
            continue
        outer = by_id[parent]
        assert outer["ts"] <= event["ts"]
        assert event["ts"] + event["dur"] <= outer["ts"] + outer["dur"] + 1e-3


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_workload_runs_checked_untraced_and_traced(workload, tmp_path):
    untraced = run_benchmark(workload, 1, 0.0, False, sizes=TINY,
                             out_dir=tmp_path, setup_probes=1)
    traced = run_benchmark(workload, 1, 0.0, True, sizes=TINY,
                           out_dir=tmp_path)
    spec = _benchmark_json()
    for outcome, declared in ((untraced, spec["end_to_end"]),
                              (traced, spec["per_layer"])):
        result = outcome["result"]
        assert result["correct"], outcome["details"]["failures"]
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert {m["name"]: m["unit"] for m in declared} == {
            name: metric["unit"]
            for name, metric in result["metrics"].items()}
        assert all(isinstance(metric["value"], (int, float))
                   for metric in result["metrics"].values())
    assert untraced["result"]["metrics"]["pass_ratio"]["value"] == 1.0
    # Traced cells equal untraced cells; the traced run checks it per cell,
    # and both runs hash the same canonical results.
    assert (traced["details"]["results_sha256"]
            == untraced["details"]["results_sha256"])
    assert untraced["details"]["knobs"] == {}
    assert traced["details"]["knobs_traced"] == {"REPRO_TELEMETRY": "1"}
    _assert_spans_nest(traced["details"]["trace_file"])
    layers = traced["result"]["metrics"]
    value = {name: metric["value"] for name, metric in layers.items()}
    assert value["runtime.executed"] == value["runtime.cache_hits"]
    assert 0 < value["simulator.pkts"] < value["simulator.events"]


def test_benchmark_json_matches_the_code():
    spec = _benchmark_json()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert spec["command"] == ["python3", "perfbench/run.py"]


def test_cli_prints_every_metric_with_its_unit(monkeypatch, capsys):
    import perfbench.run as cli

    def fake(workload, seed, seconds, trace):
        units = PER_LAYER if trace else END_TO_END
        return {"result": {"correct": True, "attempted": 3, "failed": 0,
                           "metrics": {name: {"value": 1.5, "unit": unit}
                                       for name, unit in units.items()}},
                "details": {"failures": {}}}

    monkeypatch.setattr(bench, "run_benchmark", fake)
    for trace, declared in ((0, "end_to_end"), (1, "per_layer")):
        assert cli.main(["--workload", "fuzz_small", "--trace",
                         str(trace)]) == 0
        last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert {name: m["unit"] for name, m in last["metrics"].items()} == {
            m["name"]: m["unit"] for m in _benchmark_json()[declared]}


def test_spans_nest_and_self_time_excludes_children(tmp_path):
    tracer = Tracer("unit")
    with tracer.span("pass", cell="c1"):
        with tracer.span("job"):
            with tracer.span("simulator.run"):
                sum(range(10_000))
        with tracer.span("job", cell="c2"):
            pass
    own = tracer.self_ns()
    outer, first, run, second = tracer.spans
    assert first["cell"] == run["cell"] == "c1" and second["cell"] == "c2"
    assert run["parent"] == first["id"] and first["parent"] == outer["id"]
    assert all(value >= 0 for value in own.values())
    assert own[outer["id"]] == (outer["end_ns"] - outer["start_ns"]
                                - (first["end_ns"] - first["start_ns"])
                                - (second["end_ns"] - second["start_ns"]))
    assert [s["id"] for s in tracer.named("simulator.run", under="job")] == [
        run["id"]]
    _assert_spans_nest(tracer.write(tmp_path / "trace.json"))


def _paper_output(gap: float = 0.1) -> dict:
    from repro.experiments.coexistence import CoexistenceResult
    from repro.experiments.runner import SingleBottleneckResult
    from repro.experiments.wifi_eval import WiFiSchemeResult

    def cell(scheme, utilization, delay):
        return SingleBottleneckResult(
            scheme=scheme, trace="t", throughput_bps=utilization * 1e7,
            utilization=utilization, delay_p95_ms=delay, delay_mean_ms=delay,
            queuing_p95_ms=delay, queuing_mean_ms=delay, drops=0)

    fig9 = {"abc": {"t": cell("abc", 0.9, 100.0)},
            "cubic+codel": {"t": cell("cubic+codel", 0.5, 90.0)},
            "cubic": {"t": cell("cubic", 0.95, 900.0)}}
    wifi = [WiFiSchemeResult("abc_dt100", 30.0, 60.0, 50.0, 0.9),
            WiFiSchemeResult("cubic+codel", 25.0, 60.0, 20.0, 0.8),
            WiFiSchemeResult("cubic", 31.0, 400.0, 390.0, 0.95)]
    fig7 = CoexistenceResult(abc_throughputs_mbps=[10.0, 10.0],
                             cubic_throughputs_mbps=[10.0 * (1 + gap)] * 2,
                             abc_queuing_p95_ms=10.0,
                             cubic_queuing_p95_ms=500.0)
    return {"fig9": fig9, "wifi": wifi, "fig7": fig7}


def test_perturbed_results_fail_the_output_checks():
    figs = PaperFigs(1, TINY)
    assert figs.check(_paper_output(), []) == []
    failures = figs.check(_paper_output(gap=0.5), [])
    assert [n for n, _ in failures] == [1]
    slow_abc = _paper_output()
    slow_abc["fig9"]["abc"]["t"].utilization = 0.55
    assert sum(n for n, _ in figs.check(slow_abc, [])) == 3 * 2

    sizes = replace(TINY, metro_cells=2, metro_duration=1.0, fuzz_budget=2)
    for workload in (MetroChurn(1, sizes), FuzzSmall(1, sizes)):
        workload.setup()
        executor = RecordingExecutor(jobs=1)
        output = workload.run_pass(executor)
        _, cells, _ = executor.take()
        assert workload.check(output, cells) == []
        label, value = cells[0]
        value = dict(value)
        if workload.name == "metro_churn":
            value["utilization"] = 1.5
            output = {"cells": [value] + [v for _, v in cells[1:]]}
        else:
            value["violations"] = [["fuzz-test", "perturbed"]]
        perturbed = [(label, value)] + list(cells[1:])
        assert workload.check(output, perturbed)
        assert compare_cells(cells, perturbed, "replay") == [
            (1, f"replay: 1 cell(s) differ, first {label}")]


def test_traced_pass_must_split_fig9_cells_and_read_abc_marks():
    figs = PaperFigs(1, TINY)
    figs.traces = {"Verizon-LTE-3": None}

    def traced_pass(split: bool, marks: bool) -> Tracer:
        tracer = Tracer(figs.name)
        with tracer.span("pass"):
            for scheme in TINY.fig9_schemes:
                with tracer.span("job", cell=scheme) as job:
                    if not split:
                        job["args"]["unsplit"] = True
                        continue
                    with tracer.span("simulator.run") as run:
                        run["args"]["scheme"] = scheme
                        if marks and scheme == "abc":
                            run["args"].update(accel_marked=5,
                                               brake_marked=3)
        return tracer

    assert bench.split_failures(figs, traced_pass(True, True)) == []
    unsplit = bench.split_failures(figs, traced_pass(False, True))
    assert [n for n, _ in unsplit] == [3]
    assert "0 cell(s) split into steps, expected 3" in unsplit[0][1]
    unmarked = bench.split_failures(figs, traced_pass(True, False))
    assert unmarked == [(1, "traced pass: no ABC router marks were read")]


def test_traced_result_that_differs_from_untraced_fails(monkeypatch,
                                                        tmp_path):
    import perfbench.tracing as tracing

    split = tracing._fuzz_cell

    def perturbed(tracer, spec, check_determinism=True):
        verdict = split(tracer, spec, check_determinism)
        verdict["summary"] = {}
        return verdict

    monkeypatch.setattr(tracing, "_fuzz_cell", perturbed)
    outcome = run_benchmark("fuzz_small", 1, 0.0, True,
                            sizes=replace(TINY, fuzz_budget=2),
                            out_dir=tmp_path)
    assert not outcome["result"]["correct"]
    assert any(message.startswith("traced pass: 2 cell(s) differ")
               for message in outcome["details"]["failures"])


def test_exits_nonzero_without_a_result_when_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "fuzz_small", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
