"""The executor's single supervised driver, seen from a plain run.

A run with no ``REPRO_*`` knob is the supervised driver with zero retries,
no deadline and the strict policy, so it inherits the driver's guarantees:
a worker that dies mid-job is detected instead of hanging the sweep, and a
failing cell does not stop the others from running and landing in the cache
before the original exception is re-raised.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.runtime import ResultCache, SweepExecutor, SweepJob


# Module-level so jobs survive pickling into pool workers.
def _value_or_exit(value: int, exit_code: int = 0) -> int:
    if exit_code:
        os._exit(exit_code)
    return value


def _value_or_raise(value: int, fail: bool = False) -> int:
    if fail:
        raise ValueError(f"bad value {value}")
    return value


def _pid() -> int:
    return os.getpid()


_CRASH_SCRIPT = textwrap.dedent("""
    import sys

    sys.path.insert(0, {src!r})
    from repro.runtime import JobFailureError, SweepExecutor, SweepJob
    from tests.test_executor_driver import _value_or_exit

    if __name__ == "__main__":
        executor = SweepExecutor(jobs=2)
        jobs = [SweepJob(func=_value_or_exit,
                         kwargs={{"value": i, "exit_code": 3 if i == 2 else 0}},
                         label=f"j{{i}}")
                for i in range(4)]
        try:
            executor.run(jobs)
        except JobFailureError as exc:
            stats = executor.last_stats
            print(f"OUTCOME {{exc.failure.outcome}} {{exc.failure.label}}")
            print(f"CRASHES {{stats.worker_crashes}}")
            print(f"FAILED {{stats.failed_jobs}}")
            sys.exit(0)
        print("NO ERROR")
        sys.exit(1)
""")


def test_plain_pool_run_detects_a_crashed_worker(tmp_path):
    """A job calling ``os._exit`` on a plain ``jobs=2`` run fails with a
    ``worker_crash`` record instead of hanging the sweep (run in a child
    process with a timeout, so a hang fails the test)."""
    repo_root = Path(__file__).resolve().parents[1]
    script = tmp_path / "crash_child.py"
    script.write_text(_CRASH_SCRIPT.format(src=str(repo_root / "src")))
    env = {name: value for name, value in os.environ.items()
           if not name.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(repo_root / "src"), str(repo_root)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    child = subprocess.Popen([sys.executable, str(script)],
                             stdout=subprocess.PIPE, text=True, env=env,
                             cwd=repo_root)
    try:
        out, _ = child.communicate(timeout=30)
    finally:
        if child.poll() is None:
            child.kill()
            child.communicate()
    assert child.returncode == 0, out
    assert "OUTCOME worker_crash j2" in out
    assert "CRASHES 1" in out
    assert "FAILED 1" in out


def test_plain_strict_run_finishes_and_caches_other_cells(tmp_path):
    jobs = [SweepJob(func=_value_or_raise,
                     kwargs={"value": i, "fail": i == 1}, label=f"j{i}")
            for i in range(3)]
    executor = SweepExecutor(jobs=1, cache_dir=tmp_path)
    with pytest.raises(ValueError, match="bad value 1"):
        executor.run(jobs)
    cache = ResultCache(tmp_path)
    keys = [job.cache_key(executor.salt) for job in jobs]
    assert cache.get(keys[0]) == (True, 0)
    assert cache.get(keys[1]) == (False, None)
    assert cache.get(keys[2]) == (True, 2)
    stats = executor.last_stats
    assert (stats.executed, stats.failed_jobs) == (3, 1)
    assert [r["outcome"] for r in stats.job_records] == ["ok", "error", "ok"]


def test_single_pending_job_runs_in_process():
    """One pending job with no deadline to preempt starts no pool, whatever
    the worker count or retry budget."""
    executor = SweepExecutor(jobs=2, retries=1)
    assert executor.run([SweepJob(func=_pid)]) == [os.getpid()]
    assert executor.last_stats.job_records[0]["pid"] == os.getpid()


def test_plain_pool_run_keeps_worker_timing_records():
    executor = SweepExecutor(jobs=2)
    jobs = [SweepJob(func=_pid, label=f"j{i}") for i in range(3)]
    pids = executor.run(jobs)
    assert os.getpid() not in pids
    records = executor.last_stats.job_records
    assert sorted(r["label"] for r in records) == ["j0", "j1", "j2"]
    assert {r["pid"] for r in records} == set(pids)
    assert all(r["attempt"] == 1 and r["outcome"] == "ok" for r in records)
