"""Parallel sweep execution with deterministic, cache-backed results.

:class:`SweepExecutor` runs independent sweep cells (:class:`SweepJob`)
in-process or on a ``multiprocessing`` pool (persistent when the executor is
used as a context manager, its workers primed with the traces the jobs
reference) and memoizes them in a :class:`~repro.runtime.cache.ResultCache`.
Results come back in submission order, bit-identical whether run serially,
in parallel, on a reused pool or from the cache; under fault injection
(:mod:`repro.runtime.faults`) the failure records are too.

One supervised driver runs every sweep: a finished attempt *commits*
(result slot, cache, journal), is *retried* after a seeded backoff, or
*fails* its job once the retry budget is spent.  Serial and pool runs
differ only in how an attempt is launched: an in-process call, or
``apply_async`` with each attempt announcing its pid on a start queue so
the parent can arm deadlines and blame worker deaths.  The pool is used
with more than one worker and either more than one pending job or a
deadline to preempt.  A plain run is that driver with zero retries, no
deadline and the strict policy: a dying worker (say, a job calling
``os._exit``) fails its job with a ``worker_crash`` record instead of
hanging the sweep, and a failed job's original exception (or a
:class:`~repro.runtime.faults.JobFailureError`) is raised only after the
other cells have finished and been cached.  ``salvage`` leaves a
:class:`~repro.runtime.faults.JobFailure` in the slot instead.  Cells can be
journaled for resume (:mod:`repro.runtime.journal`), and
``KeyboardInterrupt`` tears the pool down instead of orphaning workers.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import pickle
import queue
import signal
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.obs import metrics as obs_metrics
from repro.obs.progress import ProgressTracker, resolve_progress
from repro.runtime.cache import (CACHE_DIR_ENV, ResultCache, effective_salt,
                                 stable_hash)
from repro.runtime.faults import (FaultInjectionError, FaultInjector,
                                  FaultSpec, JobAttempt, JobFailure,
                                  JobFailureError, lost_attempt,
                                  resolve_fault_spec, retry_backoff)
from repro.runtime.journal import RunJournal, resolve_journal_dir, run_key_for
from repro.runtime.trace_store import (TraceRef, install_snapshot,
                                       snapshot_for)

#: Worker count (``1`` = serial, ``0``/``auto`` = one per CPU).
JOBS_ENV = "REPRO_JOBS"
#: Default seed list for multi-seed sweeps (``REPRO_SEEDS="1,2,3"``).
SEEDS_ENV = "REPRO_SEEDS"
#: Per-job wall-clock deadline in seconds (unset/0 = none).  In-process runs
#: cannot preempt a running job, so there it only applies to injected hangs.
TIMEOUT_ENV = "REPRO_JOB_TIMEOUT"
#: How many times a failed attempt is retried (default 0).
RETRIES_ENV = "REPRO_JOB_RETRIES"
#: Base seconds of the seeded exponential retry backoff (default 0.05).
BACKOFF_ENV = "REPRO_RETRY_BACKOFF"
#: ``strict`` (default) or ``salvage``.
FAILURE_POLICY_ENV = "REPRO_FAILURE_POLICY"

#: Longest the pool supervisor waits for a result between its checks (each
#: wake costs parent CPU that the workers would otherwise get).
_POLL_SECONDS = 0.1

#: How long a dead-pid / expired-deadline attempt stays *condemned* before
#: it is finalised as a crash/timeout.  A worker pipes task N's result before
#: taking task N+1, so it can die on N+1 while N's result is still in flight
#: to the parent; the grace window lets such a result win the race (a truly
#: lost attempt never delivers, so the wait costs latency, not correctness).
_LATE_RESULT_GRACE_SECONDS = 1.0

#: The injected fault kind behind each lost-attempt outcome.
_FAULT_KIND = {"worker_crash": "worker_crash", "timeout": "job_hang"}


def _parse(raw: str, convert: Callable[[str], Any], env: str,
           expected: str) -> Any:
    try:
        return convert(raw)
    except ValueError as exc:
        raise ValueError(f"{env} must be {expected}, got {raw!r}") from exc


def _knob(value: Any, env: str, default: Any, convert: Callable[[Any], Any],
          expected: str, what: str) -> Any:
    """A non-negative number from the API arg, else ``env``, else default."""
    if value is None:
        value = os.environ.get(env, "")
    if isinstance(value, str):
        if not value.strip():
            return default
        value = _parse(value.strip(), convert, env, expected)
    value = convert(value)
    if value < 0:
        raise ValueError(f"{what} must be >= 0, got {value}")
    return value


def resolve_worker_count(jobs: Optional[int | str] = None) -> int:
    """Resolve the worker count from the API arg or ``REPRO_JOBS``."""
    value: Any = jobs if jobs is not None else os.environ.get(JOBS_ENV, "1")
    if isinstance(value, str):
        value = value.strip().lower()
        value = 0 if value in ("", "auto") else _parse(
            value, int, JOBS_ENV, "an integer or 'auto'")
    if value < 0:
        raise ValueError(f"worker count must be >= 0, got {value}")
    return value or os.cpu_count() or 1


def resolve_seeds(seeds: Union[int, Sequence[int], None] = None
                  ) -> Optional[Tuple[int, ...]]:
    """Seed list from the API arg (an int or ints), else ``REPRO_SEEDS``
    (comma- or space-separated), else ``None`` (the entry point's legacy
    single-seed default)."""
    if isinstance(seeds, int):
        return (seeds,)
    if seeds is None:
        raw = os.environ.get(SEEDS_ENV, "").strip()
        if not raw:
            return None
        seeds = _parse(raw, lambda text: [int(part) for part in text.replace(
            ",", " ").split()], SEEDS_ENV, "comma- or space-separated integers")
    resolved = tuple(int(s) for s in seeds)
    if not resolved:
        raise ValueError("seeds must contain at least one seed")
    return resolved


def resolve_job_timeout(timeout: Union[int, float, str, None] = None
                        ) -> Optional[float]:
    """Per-job deadline in seconds, or ``None`` (unset or 0)."""
    value = _knob(timeout, TIMEOUT_ENV, 0.0, float, "a number of seconds",
                  "job timeout")
    return value if value > 0 else None


def resolve_job_retries(retries: Union[int, str, None] = None) -> int:
    """Retry budget per job from the API arg or ``REPRO_JOB_RETRIES``."""
    return _knob(retries, RETRIES_ENV, 0, int, "an integer", "job retries")


def resolve_retry_backoff(backoff: Union[int, float, str, None] = None
                          ) -> float:
    """Backoff base seconds from the API arg or ``REPRO_RETRY_BACKOFF``."""
    return _knob(backoff, BACKOFF_ENV, 0.05, float, "a number of seconds",
                 "retry backoff")


def resolve_failure_policy(policy: Optional[str] = None) -> str:
    """``strict`` or ``salvage`` from the API arg or the environment."""
    value = str(os.environ.get(FAILURE_POLICY_ENV, "") if policy is None
                else policy).strip().lower() or "strict"
    if value not in ("strict", "salvage"):
        raise ValueError(
            f"failure policy must be 'strict' or 'salvage', got {value!r}")
    return value


@dataclass
class SweepJob:
    """One independent sweep cell: a module-level function plus kwargs.

    ``label`` is purely cosmetic (progress/debug output); it does not enter
    the cache key, so relabeling a job still hits its cached result.
    """

    func: Callable[..., Any]
    kwargs: Dict[str, Any] = field(default_factory=dict)
    label: str = ""

    def cache_key(self, salt: str) -> str:
        """Content-addressed cache key: function identity + kwargs + salt."""
        func_id = f"{self.func.__module__}.{self.func.__qualname__}"
        return stable_hash([func_id, self.kwargs, salt])

    def run(self) -> Any:
        return self.func(**self.kwargs)


def _timing(label: str, pid: Optional[int], submitted_unix: float,
            start_unix: float, wall: float, attempt: int,
            outcome: str) -> Dict[str, Any]:
    """One ``ExecutorStats.job_records`` entry."""
    return {"label": label, "pid": pid, "start_unix": start_unix,
            "wall_seconds": wall,
            "queue_wait_seconds": max(start_unix - submitted_unix, 0.0),
            "attempt": attempt, "outcome": outcome}


def _attempt(job: SweepJob, job_key: str, attempt: int,
             fault_spec: Optional[FaultSpec], submitted_unix: float) -> tuple:
    """Run one guarded attempt: ``(value, failed attempt, original
    exception, timing)``; never raises ``Exception``.  In-process and pool
    launches share it so a captured traceback is byte-identical."""
    start_unix = time.time()
    t0 = time.perf_counter()
    value = failed = original = None
    try:
        if fault_spec is not None:
            FaultInjector(fault_spec).maybe_error(job_key, attempt)
        value = job.run()
    except Exception as exc:
        original = exc
        failed = JobAttempt(
            attempt=attempt, outcome="error", error=str(exc),
            error_type=type(exc).__qualname__,
            traceback="".join(traceback.format_exception(
                type(exc), exc, exc.__traceback__)),
            injected=isinstance(exc, FaultInjectionError))
    return value, failed, original, _timing(
        job.label, os.getpid(), submitted_unix, start_unix,
        time.perf_counter() - t0, attempt, "ok" if failed is None else "error")


#: Worker-side handle on the executor's start queue (set by _pool_init).
_START_QUEUE = None


def _pool_init(trace_snapshot: Dict[str, Any], start_queue) -> None:
    """Pool initializer: prime the trace store and keep the start queue."""
    global _START_QUEUE
    install_snapshot(trace_snapshot)
    _START_QUEUE = start_queue


def _pool_attempt(payload: tuple) -> tuple:
    """Worker side: announce, fire process faults, run the attempt.  With
    telemetry on, the worker registry's snapshot rides home and is reset,
    so each attempt ships exactly its own delta."""
    run_id, slot, attempt, job, job_key, fault_spec, submitted_unix = payload
    _START_QUEUE.put((run_id, slot, attempt, os.getpid()))
    if fault_spec is not None:
        FaultInjector(fault_spec).fire_process_faults(job_key, attempt)
    value, failed, original, timing = _attempt(job, job_key, attempt,
                                               fault_spec, submitted_unix)
    if original is not None:
        try:  # the original rides home for strict re-raising if it can
            pickle.dumps(original)
        except Exception:
            original = None
    snapshot = None
    if obs_metrics.enabled():
        snapshot = obs_metrics.registry().snapshot()
        obs_metrics.registry().reset()
    return value, failed, original, timing, snapshot


def _needed_trace_keys(jobs: Sequence[SweepJob]) -> set:
    """Content keys of every :class:`TraceRef` the jobs' kwargs reference."""
    keys = set()
    for job in jobs:
        for value in job.kwargs.values():
            if isinstance(value, TraceRef):
                keys.add(value.key)
            elif isinstance(value, (tuple, list)):
                keys.update(item.key for item in value
                            if isinstance(item, TraceRef))
    return keys


def _cache_counts(cache: Optional[ResultCache]) -> Tuple[int, int, int]:
    return ((cache.corrupt, cache.evictions, cache.write_errors)
            if cache is not None else (0, 0, 0))


@dataclass
class ExecutorStats:
    """What the last :meth:`SweepExecutor.run` call actually did."""

    total: int = 0
    cache_hits: int = 0
    cache_corrupt: int = 0  # corrupt entries: served as misses, rewritten
    cache_evictions: int = 0  # by the REPRO_CACHE_MAX_MB size cap
    cache_write_errors: int = 0  # failed writes, degraded to a warning
    executed: int = 0
    workers: int = 1
    wall_seconds: float = 0.0
    pool_reused: bool = False
    retries: int = 0  # attempts retried after an error, crash or timeout
    timeouts: int = 0  # attempts abandoned at the REPRO_JOB_TIMEOUT deadline
    worker_crashes: int = 0  # workers that died mid-attempt
    failed_jobs: int = 0  # jobs whose retry budget was exhausted
    #: Cells served from a resume journal's *private* store (cache-less
    #: runs; journaled cells served by the result cache count as cache_hits).
    journal_hits: int = 0
    #: JSON-able JobFailure records, in slot order (set before any raise).
    failures: List[Dict[str, Any]] = field(default_factory=list)
    #: Per-attempt timing records (label, worker pid, start, wall time,
    #: queue wait, attempt, outcome), in completion order; always populated.
    job_records: List[Dict[str, Any]] = field(default_factory=list)


class _Run:
    """One ``run()`` call's attempt state machine, plus in-process launches:
    :meth:`settle` commits each finished attempt, schedules a retry after
    the seeded backoff, or fails the job once its retry budget is spent."""

    def __init__(self, executor: "SweepExecutor", jobs: List[SweepJob],
                 keys: List[Optional[str]], results: List[Any],
                 journal: Optional[RunJournal], pending: List[int],
                 tracker: Optional[ProgressTracker]):
        self.executor, self.jobs, self.keys = executor, jobs, keys
        self.results, self.journal, self.tracker = results, journal, tracker
        self.open = len(pending)
        #: Attempts to launch: ``(monotonic due time, slot, attempt)``.
        self.waiting = [(0.0, slot, 1) for slot in pending]
        self.stats = ExecutorStats()
        self.history: Dict[int, List[JobAttempt]] = {}
        self.failures: Dict[int, JobFailure] = {}
        self.originals: Dict[int, BaseException] = {}

    def key(self, slot: int) -> str:
        """The job's cache key, hashed on first use if not up front."""
        if self.keys[slot] is None:
            self.keys[slot] = self.jobs[slot].cache_key(self.executor.salt)
        return self.keys[slot]

    def due(self) -> List[Tuple[int, int]]:
        """Pop the ``(slot, attempt)`` pairs due now, in slot order."""
        now = time.monotonic()
        due = sorted((slot, attempt) for at, slot, attempt in self.waiting
                     if at <= now)
        if due:
            self.waiting = [item for item in self.waiting if item[0] > now]
        return due

    def settle(self, slot: int, value: Any, failed: Optional[JobAttempt],
               original: Optional[BaseException],
               timing: Dict[str, Any]) -> None:
        """Land one finished attempt: commit, retry or fail."""
        executor, stats = self.executor, self.stats
        stats.job_records.append(timing)
        label = self.jobs[slot].label
        if failed is None:
            self.results[slot] = value
            if executor.cache is not None:
                executor.cache.put(self.keys[slot], value)
            if self.journal is not None:
                self.journal.record(self.keys[slot], label, value,
                                    store_value=self.journal.owns_store)
            return self._close(label)
        if original is not None:
            self.originals[slot] = original
        if failed.outcome == "worker_crash":
            stats.worker_crashes += 1
        elif failed.outcome == "timeout":
            stats.timeouts += 1
        history = self.history.setdefault(slot, [])
        if failed.attempt <= executor.retries:
            delay = retry_backoff(self.key(slot), failed.attempt,
                                  executor.backoff, executor.faults.seed
                                  if executor.faults is not None else 0)
            history.append(dataclasses.replace(failed, backoff_seconds=delay))
            stats.retries += 1
            self.waiting.append((time.monotonic() + delay, slot,
                                 failed.attempt + 1))
            return
        history.append(failed)
        self.failures[slot] = self.results[slot] = JobFailure(
            key=self.key(slot), label=label, attempts=tuple(history))
        self._close(label)

    def _close(self, label: str) -> None:
        self.open -= 1
        if self.tracker is not None:
            self.tracker.job_done(label)

    def launch(self, slot: int, attempt: int) -> None:
        """In-process launch: call the job here and settle it at once.
        A running call cannot be preempted, so an injected crash/hang is
        *synthesized* as the record the pool supervisor would produce on
        observing the real thing (serial ≡ parallel chaos records)."""
        executor, job, submitted = self.executor, self.jobs[slot], time.time()
        injector = executor._injector
        key = self.key(slot) if injector is not None else ""
        for outcome, kind in _FAULT_KIND.items():
            if injector is not None and injector.should(kind, key, attempt):
                return self.settle(
                    slot, None, lost_attempt(outcome, attempt,
                                             executor.timeout, True),
                    None, _timing(job.label, os.getpid(), submitted,
                                  submitted, 0.0, attempt, outcome))
        self.settle(slot, *_attempt(job, key, attempt, executor.faults,
                                    submitted))

    def wait(self) -> None:
        """Sleep until the next retry's backoff has elapsed."""
        if self.waiting:
            nearest = min(at for at, _, _ in self.waiting)
            time.sleep(max(nearest - time.monotonic(), 0.0))


class _Pooled:
    """Pool launches: ``apply_async`` per attempt, results via callbacks.
    Each attempt's start announcement arms its deadline only once it runs
    and lets a worker death be blamed on it; the pool respawns dead
    workers, and wedged ones are killed at the deadline."""

    def __init__(self, run: _Run, pool):
        self.run, self.pool, self.done = run, pool, queue.Queue()
        self.starts = run.executor._start_queue
        run.executor._run_counter += 1
        self.run_id = run.executor._run_counter
        self.inflight: Dict[int, Dict[str, Any]] = {}

    def launch(self, slot: int, attempt: int) -> None:
        run, done, faults = self.run, self.done, self.run.executor.faults
        submitted = time.time()
        payload = (self.run_id, slot, attempt, run.jobs[slot],
                   run.key(slot) if faults is not None else "", faults,
                   submitted)
        self.inflight[slot] = {
            "attempt": attempt, "pid": None, "deadline": None,
            "submitted": submitted, "started": None,
            "condemned": None,  # (tag, monotonic) once presumed lost
            "result": self.pool.apply_async(
                _pool_attempt, (payload,),
                callback=lambda out: done.put((slot, attempt, out)),
                error_callback=lambda exc: done.put((slot, attempt, exc))),
        }

    def wait(self) -> None:
        """One supervision step: results, announcements, deaths, deadlines."""
        try:
            finished = [self.done.get(timeout=_POLL_SECONDS)]
        except queue.Empty:
            finished = []
        while not self.done.empty():
            finished.append(self.done.get())
        # Start announcements arm deadlines and map attempt -> pid; those of
        # an aborted earlier run or a finalised attempt match no state.
        timeout = self.run.executor.timeout
        while not self.starts.empty():
            try:
                run_id, slot, attempt, pid = self.starts.get()
            except (EOFError, OSError):
                break
            state = self.inflight.get(slot)
            if (run_id == self.run_id and state is not None
                    and state["attempt"] == attempt):
                state["pid"], state["started"] = pid, time.time()
                if timeout is not None:
                    state["deadline"] = time.monotonic() + timeout
        for slot, attempt, out in finished:
            state = self.inflight.get(slot)
            if state is None or state["attempt"] != attempt:
                continue  # late result of an attempt finalised as lost
            del self.inflight[slot]
            if isinstance(out, BaseException):
                # Pool plumbing failure (an unpicklable job or result): an
                # errored attempt carrying the parent-side exception.
                out = (None, JobAttempt(attempt=attempt, outcome="error",
                                        error=str(out),
                                        error_type=type(out).__qualname__),
                       out, self._lost_timing(slot, state, "error"), None)
            value, failed, original, timing, snapshot = out
            if snapshot is not None:
                obs_metrics.registry().merge(snapshot)
            self.run.settle(slot, value, failed, original, timing)
        self._check_lost()

    def _check_lost(self) -> None:
        """Condemn attempts whose worker died or whose deadline expired, and
        finalise them once the grace window has passed with no result (see
        ``_LATE_RESULT_GRACE_SECONDS``); wedged workers are then killed."""
        executor = self.run.executor
        live = self._live_pids()
        now = time.monotonic()
        for slot, state in list(self.inflight.items()):
            if state["result"].ready():
                continue  # its result is on the done queue
            if state["condemned"] is None:
                if state["pid"] is not None and state["pid"] not in live:
                    state["condemned"] = ("worker_crash", now)
                elif state["deadline"] is not None and now >= state["deadline"]:
                    state["condemned"] = ("timeout", now)
                continue
            tag, since = state["condemned"]
            if now - since < _LATE_RESULT_GRACE_SECONDS:
                continue
            del self.inflight[slot]
            attempt, injector = state["attempt"], executor._injector
            injected = injector is not None and injector.should(
                _FAULT_KIND[tag], self.run.key(slot), attempt)
            self.pool._cache.pop(state["result"]._job, None)
            self.run.settle(
                slot, None, lost_attempt(tag, attempt, executor.timeout,
                                         injected),
                None, self._lost_timing(slot, state, tag))
            if tag == "timeout" and state["pid"] in self._live_pids():
                try:
                    os.kill(state["pid"], signal.SIGKILL)
                except OSError:
                    pass

    def _live_pids(self) -> Set[int]:
        """Pids of live pool workers.  The pool's handler thread deletes dead
        workers from ``_pool`` meanwhile, and iterating that list could skip
        a *live* worker and condemn its attempt: iterate an atomic copy."""
        return {worker.pid for worker in list(self.pool._pool)
                if worker.exitcode is None and worker.pid is not None}

    def _lost_timing(self, slot: int, state: Dict[str, Any],
                     tag: str) -> Dict[str, Any]:
        start = state["started"] or state["submitted"]
        return _timing(self.run.jobs[slot].label, state["pid"],
                       state["submitted"], start,
                       max(time.time() - start, 0.0), state["attempt"], tag)


class SweepExecutor:
    """Runs :class:`SweepJob` lists with optional parallelism and caching.

    ``jobs`` is the worker count; ``cache_dir`` enables the result cache
    (``salt`` enters every key); ``progress`` is ``True``/``False`` for the
    stderr line or a callable receiving a
    :class:`~repro.obs.progress.SweepProgress` per cell; ``faults`` is a
    :class:`~repro.runtime.faults.FaultSpec`, a spec string or ``False``;
    ``journal`` a directory, ``True`` or ``False``.  Arguments left ``None``
    defer to their ``REPRO_*`` variable.  As a context manager the pool
    persists across :meth:`run` calls; otherwise each call has its own.
    """

    def __init__(self, jobs: Optional[int | str] = None,
                 cache_dir: Optional[os.PathLike | str] = None,
                 salt: Optional[str] = None,
                 progress: Union[None, bool, Callable] = None,
                 timeout: Union[int, float, str, None] = None,
                 retries: Union[int, str, None] = None,
                 backoff: Union[int, float, str, None] = None,
                 faults: Any = None,
                 failure_policy: Optional[str] = None,
                 journal: Any = None):
        self.workers = resolve_worker_count(jobs)
        self.progress = progress
        if cache_dir is None:
            cache_dir = os.environ.get(CACHE_DIR_ENV) or None
        self.cache: Optional[ResultCache] = (
            ResultCache(cache_dir) if cache_dir is not None else None)
        self.salt = effective_salt(salt)
        self.timeout = resolve_job_timeout(timeout)
        self.retries = resolve_job_retries(retries)
        self.backoff = resolve_retry_backoff(backoff)
        self.faults: Optional[FaultSpec] = resolve_fault_spec(faults)
        self.failure_policy = resolve_failure_policy(failure_policy)
        self.journal_dir = resolve_journal_dir(journal)
        self._injector: Optional[FaultInjector] = (
            FaultInjector(self.faults) if self.faults is not None else None)
        if (self._injector is not None
                and self.faults.rate("job_hang") > 0.0
                and self.timeout is None):
            raise ValueError(
                "REPRO_FAULTS injects job_hang but no job timeout is set — "
                "an injected hang would wedge the sweep forever; set "
                "REPRO_JOB_TIMEOUT (or timeout=)")
        if self.cache is not None and self._injector is not None:
            # cache_write_fail faults fire inside ResultCache.put, which
            # degrades them to a warning + miss like any real OSError.
            self.cache.fault_injector = self._injector
        self.last_stats = ExecutorStats()
        self._persistent = False
        self._pool: Optional[multiprocessing.pool.Pool] = None
        self._pool_trace_keys: set = set()
        self._start_queue = None
        self._run_counter = 0

    # ------------------------------------------------------------ pool reuse
    def open(self) -> "SweepExecutor":
        """Persistent-pool mode: the pool stays warm until :meth:`close`."""
        self._persistent = True
        return self

    def close(self) -> None:
        """Shut the persistent pool down (idempotent, safe without one)."""
        self._stop_pool(graceful=True)

    def __enter__(self) -> "SweepExecutor":
        return self.open()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
        self._persistent = False

    def _ensure_pool(self, needed_keys: set,
                     processes: int) -> multiprocessing.pool.Pool:
        """The pool, primed with exactly the traces the jobs reference (so
        worker memory stays bounded by one sweep's working set) and
        restarted only when it is missing one."""
        if self._pool is not None and not needed_keys <= self._pool_trace_keys:
            self._stop_pool(graceful=True)
        if self._pool is None:
            if self._start_queue is None:  # lives as long as the executor
                self._start_queue = multiprocessing.SimpleQueue()
            snapshot = snapshot_for(needed_keys)
            self._pool = multiprocessing.Pool(
                processes=processes, initializer=_pool_init,
                initargs=(snapshot, self._start_queue))
            self._pool_trace_keys = set(snapshot)
        return self._pool

    def _stop_pool(self, graceful: bool = False) -> None:
        """Close (or terminate: one-shot pools, interrupted runs) and join
        the pool, so no orphaned workers outlive the sweep."""
        pool, self._pool = self._pool, None
        self._pool_trace_keys = set()
        if pool is not None:
            if graceful:
                pool.close()
            else:
                pool.terminate()
            pool.join()

    # ------------------------------------------------------------------ run
    def run(self, jobs: Sequence[SweepJob],
            failure_policy: Optional[str] = None) -> List[Any]:
        """Execute every job, returning results in submission order.

        Cached (or journaled) cells are served without executing; the rest
        go through the one supervised driver (see the module docstring).
        ``failure_policy`` overrides the executor's policy for this run.
        Timing records always land in ``last_stats.job_records``; worker
        metrics merge back only with telemetry on.
        """
        jobs = list(jobs)
        policy = (resolve_failure_policy(failure_policy)
                  if failure_policy is not None else self.failure_policy)
        started = time.perf_counter()
        cache = self.cache
        before = _cache_counts(cache)
        keyed = (cache is not None or self.journal_dir is not None
                 or self._injector is not None)
        keys: List[Optional[str]] = [
            job.cache_key(self.salt) if keyed else None for job in jobs]
        results: List[Any] = [None] * len(jobs)
        journal: Optional[RunJournal] = None
        if self.journal_dir is not None and jobs:
            journal = RunJournal(self.journal_dir, run_key_for(keys),
                                 store=cache)
            journal.load()
        hits = journal_hits = 0
        pending: List[int] = []
        for index, job in enumerate(jobs):
            hit, value = (cache.get(keys[index]) if cache is not None
                          else (False, None))
            if hit:
                hits += 1
                if journal is not None:
                    journal.record(keys[index], job.label)
            elif journal is not None and journal.owns_store:
                hit, value = journal.lookup(keys[index])
                journal_hits += hit
            if hit:
                results[index] = value
            else:
                pending.append(index)

        callback = resolve_progress(self.progress)
        tracker = (ProgressTracker(len(jobs), hits + journal_hits, callback)
                   if callback is not None else None)
        run = _Run(self, jobs, keys, results, journal, pending, tracker)
        try:
            if pending:
                self._drive(run, pending)
        except (KeyboardInterrupt, SystemExit):
            # Everything committed so far is cached/journaled, so a rerun
            # resumes instead of restarting.
            self._stop_pool()
            raise
        finally:
            if not self._persistent:
                self._stop_pool()
            if journal is not None:
                journal.close()

        stats = self.last_stats = run.stats
        stats.cache_corrupt, stats.cache_evictions, stats.cache_write_errors \
            = (a - b for a, b in zip(_cache_counts(cache), before))
        stats.total, stats.cache_hits, stats.journal_hits = (
            len(jobs), hits, journal_hits)
        stats.executed, stats.workers = len(pending), self.workers
        stats.wall_seconds = time.perf_counter() - started
        stats.failed_jobs = len(run.failures)
        stats.failures = [run.failures[i].to_jsonable()
                          for i in sorted(run.failures)]
        if obs_metrics.enabled():
            self._publish_run_metrics(stats)
        if run.failures and policy == "strict":
            first = min(run.failures)
            raise run.originals.get(first,
                                    JobFailureError(run.failures[first]))
        return results

    def _drive(self, run: _Run, pending: List[int]) -> None:
        """The one execution driver: launch every due attempt, then wait —
        for results and lost workers on a pool, for the next retry's backoff
        in-process — until every pending job is committed or failed."""
        launcher: Union[_Run, _Pooled] = run
        if self.workers > 1 and (len(pending) > 1 or self.timeout is not None):
            previous = self._pool
            pool = self._ensure_pool(
                _needed_trace_keys([run.jobs[i] for i in pending]),
                self.workers if self._persistent
                else min(self.workers, len(pending)))
            run.stats.pool_reused = pool is previous
            launcher = _Pooled(run, pool)
        while run.open:
            for slot, attempt in run.due():
                launcher.launch(slot, attempt)
            if run.open:
                launcher.wait()

    def _publish_run_metrics(self, stats: ExecutorStats) -> None:
        """Fold the finished run's bookkeeping into the metrics registry."""
        registry = obs_metrics.registry()
        registry.counter("executor.runs").inc()
        if stats.pool_reused:
            registry.counter("executor.pool_reuses").inc()
        registry.gauge("executor.workers").set(self.workers)
        for name in ("retries", "timeouts", "worker_crashes", "failed_jobs",
                     "journal_hits", "cache_write_errors"):
            if getattr(stats, name):
                registry.counter(f"executor.{name}").inc(getattr(stats, name))
        wall = registry.timer("executor.job_wall")
        wait = registry.timer("executor.queue_wait")
        for record in stats.job_records:
            wall.observe_ns(int(record["wall_seconds"] * 1e9))
            wait.observe_ns(int(record["queue_wait_seconds"] * 1e9))


def get_executor(executor: Optional[SweepExecutor] = None,
                 jobs: Optional[int | str] = None,
                 cache_dir: Optional[os.PathLike | str] = None,
                 journal: Any = None,
                 failure_policy: Optional[str] = None) -> SweepExecutor:
    """``executor`` itself when given, else a fresh :class:`SweepExecutor`
    built from these knobs (and thus their ``REPRO_*`` defaults)."""
    if executor is not None:
        return executor
    return SweepExecutor(jobs=jobs, cache_dir=cache_dir, journal=journal,
                         failure_policy=failure_policy)
