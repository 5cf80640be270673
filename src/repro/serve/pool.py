"""The shared worker-process pool under batch serving *and* cohort eval.

:class:`WorkerPool` wraps a ``ProcessPoolExecutor`` with the semantics a
managed workload needs and a bare executor lacks:

- **fork context** (when the platform has it) so workers inherit the
  parent's warm :func:`repro.core.localize.cached_delay_map` store instead
  of rebuilding maps from scratch;
- **classified retries** through a :class:`repro.serve.retry.RetryPolicy`:
  a worker process dying (segfault, OOM kill, ``os._exit``) is a
  *transient* failure, re-dispatched with capped exponential backoff and
  deterministic jitter up to a per-task retry cap; the task function
  *raising* is a *permanent* failure and is never retried (the runner is a
  pure function of the spec);
- **a watchdog** for hung — not just dead — workers: every task beats a
  per-attempt heartbeat file (:mod:`repro.serve.heartbeat`); a worker
  whose beat goes stale past ``heartbeat_deadline_s`` is SIGKILLed and the
  task retried as a transient failure, exactly like a crash;
- **per-task timeouts** via timers — a task over budget resolves as
  ``timeout`` without blocking the caller, and is never retried;
- **the worker pid of every attempt** that returned or raised, reported by
  the worker itself (:func:`_run_task`); a worker that died is named only
  by its heartbeat;
- **inline mode** (``workers <= 1`` by default) that runs tasks in the
  calling process with no subprocess at all — the single-core opt-out
  :func:`repro.eval.common.get_cohort` has always honored via
  ``REPRO_COHORT_WORKERS=1``.

Everything is callback-based (:meth:`dispatch`), with :meth:`map` /
:meth:`outcomes` as the blocking conveniences.  One pool implementation,
one set of crash/retry semantics, shared by ``repro.serve.BatchServer`` and
the evaluation cohort.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import signal
import tempfile
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Callable, Iterable

from repro.errors import ReproError, WorkerDiedError, WorkerHungError
from repro.obs import metrics as obs_metrics
from repro.serve import heartbeat as hb
from repro.serve.retry import RetryPolicy

__all__ = ["TaskOutcome", "WorkerPool"]

#: Bucket ladder for retry backoff delays (seconds).
_BACKOFF_BUCKETS_S = (0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0)


@dataclass
class TaskOutcome:
    """How one dispatched task ended.

    ``status`` is one of ``ok`` (``value`` holds the return), ``error``
    (the function raised; ``exception`` holds the re-raised instance),
    ``crashed`` (the worker process died or hung and retries ran out —
    ``exception`` is a :class:`WorkerDiedError` / :class:`WorkerHungError`),
    or ``timeout``.
    """

    status: str
    value: Any = None
    error: str | None = None
    exception: BaseException | None = None
    attempts: int = 1
    duration_s: float = 0.0
    #: One record per attempt, oldest first: wall-clock ``start_t`` and
    #: ``end_t``, the attempt's ``status``, its ``worker_pid`` (``None``
    #: when unknown) and, on an attempt that was retried, the
    #: ``backoff_s`` slept before the next one.
    attempt_log: list[dict[str, Any]] = field(default_factory=list)


class _Task:
    __slots__ = (
        "fn", "arg", "timeout_s", "on_done", "attempts", "resolved",
        "started", "timer", "executor", "token", "task_id", "hb_path",
        "hung", "dispatched_at", "log",
    )

    def __init__(self, fn, arg, timeout_s, on_done, token, task_id):
        self.fn = fn
        self.arg = arg
        self.timeout_s = timeout_s
        self.on_done = on_done
        self.attempts = 0
        self.resolved = False
        self.started = 0.0
        self.timer: threading.Timer | None = None
        self.executor: ProcessPoolExecutor | None = None
        self.token = token
        self.task_id = task_id
        self.hb_path: str | None = None
        self.hung = False
        self.dispatched_at = 0.0
        self.log: list[dict[str, Any]] = []

    def end_attempt(self, status: str, worker_pid: int | None) -> None:
        """Log the attempt that started at ``dispatched_at`` as ended now."""
        self.log.append({
            "start_t": self.dispatched_at,
            "end_t": time.time(),
            "status": status,
            "worker_pid": worker_pid,
        })


def _noop() -> None:
    """Warmup task: forces worker processes to exist (fork now, not later)."""


def _run_task(payload) -> tuple[int, Any]:
    """Worker-side shim of every process-mode task: ``(fn, arg, hb_path)``.

    Returns ``(pid, fn(arg))``, and stamps the pid on any exception
    ``fn`` raises as ``worker_pid`` (instance attributes survive the
    exception's pickling home).  With an ``hb_path`` the task beats its
    heartbeat file while it runs.
    """
    fn, arg, hb_path = payload
    stop = hb.start(hb_path) if hb_path is not None else None
    try:
        return os.getpid(), fn(arg)
    except Exception as error:
        error.worker_pid = os.getpid()
        raise
    finally:
        if stop is not None:
            stop.set()


def _init_worker(map_store: str | None) -> None:
    """Executor initializer: activate the head-search store per worker.

    Setting ``REPRO_MAP_STORE`` in the child covers spawn contexts (no env
    inheritance) and parents that configured a store programmatically
    without exporting it themselves.
    """
    if map_store:
        from repro.core.mapstore import MAP_STORE_ENV

        os.environ[MAP_STORE_ENV] = map_store


def _default_context():
    # fork (when available) lets children inherit this process's warm
    # DelayMap cache instead of rebuilding maps from scratch.
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX fallback
        return multiprocessing.get_context()


#: The retry policy a pool gets when none is passed: one immediate retry
#: after a transient failure (worker death, watchdog kill), no backoff and
#: no jitter.
DEFAULT_RETRY = MappingProxyType(
    {"max_transient_retries": 1, "base_backoff_s": 0.0, "jitter_frac": 0.0}
)


class WorkerPool:
    """A crash-tolerant, timeout-aware process pool (see module docstring).

    Parameters
    ----------
    workers:
        Worker process count; ``None`` uses the machine's cpu count.
    inline:
        ``True`` executes tasks synchronously in the calling process
        (defaults to ``workers <= 1``).  Pass ``False`` to force a real
        subprocess even for one worker — what the batch server does so a
        single-worker service still survives job crashes.
    retry_policy:
        Full retry semantics (classification, backoff, per-task cap); defaults
        to a fresh ``RetryPolicy(**DEFAULT_RETRY)``.
    heartbeat_deadline_s:
        Enable the watchdog: a task whose worker has not heartbeaten for
        this long is presumed hung; the worker is SIGKILLed and the task
        retried as a transient failure.  ``None`` (default) disables the
        watchdog and the heartbeats.  Keep the deadline several
        :data:`repro.serve.heartbeat.HEARTBEAT_INTERVAL_S` wide.
    map_store:
        Head-search outcome store directory (:mod:`repro.core.mapstore`),
        activated as ``REPRO_MAP_STORE`` in every worker process (and in
        this process under inline mode) so cold workers replay pre-baked
        head searches instead of running them.  ``None`` leaves the
        inherited environment in charge.
    """

    def __init__(
        self,
        workers: int | None = None,
        *,
        inline: bool | None = None,
        retry_policy: RetryPolicy | None = None,
        heartbeat_deadline_s: float | None = None,
        map_store: str | os.PathLike | None = None,
    ) -> None:
        self.workers = max(1, int(workers if workers is not None else os.cpu_count() or 1))
        self.inline = (self.workers <= 1) if inline is None else bool(inline)
        self.map_store = os.fspath(map_store) if map_store else None
        if self.map_store and self.inline:
            # Inline mode runs tasks in this process; the store is activated
            # the same way the workers would see it.
            from repro.core.mapstore import MAP_STORE_ENV

            os.environ[MAP_STORE_ENV] = self.map_store
        self.retry_policy = (
            retry_policy if retry_policy is not None
            else RetryPolicy(**DEFAULT_RETRY)
        )
        self.heartbeat_deadline_s = heartbeat_deadline_s
        self._lock = threading.Lock()
        self._executor: ProcessPoolExecutor | None = None
        self._closed = False
        self._task_ids = itertools.count()
        self._running: set[_Task] = set()
        self._hb_dir: tempfile.TemporaryDirectory | None = None
        self._watchdog: threading.Thread | None = None
        self._watchdog_stop = threading.Event()
        obs_metrics.gauge("serve.pool.workers").set(float(self.workers))
        if not self.inline:
            with self._lock:
                self._ensure_executor()
            if self.heartbeat_deadline_s is not None:
                self._hb_dir = tempfile.TemporaryDirectory(prefix="repro-hb-")
                self._watchdog = threading.Thread(
                    target=self._run_watchdog,
                    name="repro-pool-watchdog",
                    daemon=True,
                )
                self._watchdog.start()

    # -- executor lifecycle -------------------------------------------------

    def _ensure_executor(self) -> ProcessPoolExecutor:
        """Create (or recreate) the executor; caller holds ``self._lock``."""
        if self._executor is None:
            if self._closed:
                raise ReproError("WorkerPool is shut down")
            self._executor = ProcessPoolExecutor(
                max_workers=self.workers,
                mp_context=_default_context(),
                initializer=_init_worker,
                initargs=(self.map_store,),
            )
            # Fork the workers immediately, from a known-quiet moment,
            # rather than lazily at first dispatch.
            for _ in range(self.workers):
                self._executor.submit(_noop)
        return self._executor

    def _retire_executor(self, broken: ProcessPoolExecutor) -> None:
        """Replace a broken executor exactly once; caller holds the lock."""
        if self._executor is broken:
            obs_metrics.counter("serve.pool.rebuilds").inc()
            broken.shutdown(wait=False)
            self._executor = None

    def shutdown(self, wait: bool = True) -> None:
        with self._lock:
            self._closed = True
            executor, self._executor = self._executor, None
        self._watchdog_stop.set()
        if executor is not None:
            executor.shutdown(wait=wait)
        if self._watchdog is not None:
            self._watchdog.join(timeout=5.0)
        if self._hb_dir is not None:
            try:
                self._hb_dir.cleanup()
            except OSError:  # pragma: no cover - best-effort cleanup
                pass
            self._hb_dir = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def _attempt_pid(self, task: "_Task") -> int | None:
        """This attempt's worker pid, when the heartbeat has revealed it."""
        if task.hb_path is None:
            return None
        return hb.heartbeat_pid(task.hb_path)

    # -- dispatch -----------------------------------------------------------

    def dispatch(
        self,
        fn: Callable[[Any], Any],
        arg: Any,
        *,
        timeout_s: float | None = None,
        on_done: Callable[[TaskOutcome], None],
        retry_token: str | None = None,
    ) -> None:
        """Run ``fn(arg)`` on the pool; deliver a :class:`TaskOutcome`.

        ``on_done`` fires exactly once, from the calling thread in inline
        mode and from an executor/timer thread otherwise.  The timeout
        clock starts at dispatch and covers executor handoff plus
        execution; inline mode cannot preempt, so timeouts are ignored
        there.  ``retry_token`` seeds the deterministic backoff jitter
        (the batch server passes the job's spec key).  The outcome's
        ``attempt_log`` records every attempt.
        """
        obs_metrics.counter("serve.pool.dispatched").inc()
        task = _Task(
            fn, arg, timeout_s, on_done,
            retry_token if retry_token is not None else "",
            next(self._task_ids),
        )
        if self.inline:
            task.attempts = 1
            task.dispatched_at = time.time()
            started = time.perf_counter()
            try:
                value = fn(arg)
            except Exception as error:  # noqa: BLE001 - outcome carries it
                obs_metrics.counter("serve.pool.errors").inc()
                self.retry_policy.classify("error", error)
                outcome = TaskOutcome(
                    status="error",
                    error=f"{type(error).__name__}: {error}",
                    exception=error,
                    attempts=1,
                    duration_s=time.perf_counter() - started,
                    attempt_log=task.log,
                )
            else:
                outcome = TaskOutcome(
                    status="ok",
                    value=value,
                    attempts=1,
                    duration_s=time.perf_counter() - started,
                    attempt_log=task.log,
                )
            task.end_attempt(outcome.status, os.getpid())
            on_done(outcome)
            return
        self._submit(task)

    def _submit(self, task: _Task) -> None:
        submitted = False
        with self._lock:
            if not self._closed:
                submitted = True
                executor = self._ensure_executor()
                task.attempts += 1
                task.executor = executor
                task.started = time.perf_counter()
                task.dispatched_at = time.time()
                task.hung = False
                if self._hb_dir is not None:
                    task.hb_path = os.path.join(
                        self._hb_dir.name,
                        f"task{task.task_id}-a{task.attempts}.hb",
                    )
                future = executor.submit(
                    _run_task, (task.fn, task.arg, task.hb_path)
                )
                self._running.add(task)
        if not submitted:
            # Outside the lock: the resolution callback belongs to the
            # caller (server / outcomes) and must not run under pool state.
            self._resolve_closed(task)
            return
        if task.timeout_s is not None:
            timer = threading.Timer(task.timeout_s, self._timed_out, (task, future))
            timer.daemon = True
            task.timer = timer
            timer.start()
        future.add_done_callback(lambda f, t=task: self._completed(t, f))

    def _resolve_closed(self, task: _Task) -> None:
        """Resolve a task that can no longer run (pool shut down mid-retry)."""
        if task.resolved:
            return
        task.resolved = True
        error = "pool shut down before the task could be retried"
        task.on_done(
            TaskOutcome(
                status="crashed",
                error=error,
                exception=WorkerDiedError(error),
                attempts=task.attempts,
                attempt_log=task.log,
            )
        )

    # -- watchdog -----------------------------------------------------------

    def _run_watchdog(self) -> None:
        deadline = float(self.heartbeat_deadline_s or 0.0)
        interval = max(0.02, min(hb.HEARTBEAT_INTERVAL_S, deadline / 4.0))
        while not self._watchdog_stop.wait(interval):
            obs_metrics.counter("serve.watchdog.scans").inc()
            now = time.time()
            with self._lock:
                running = list(self._running)
            for task in running:
                if task.resolved or task.hung or task.hb_path is None:
                    continue
                last = hb.last_beat(task.hb_path)
                reference = max(task.dispatched_at, last or 0.0)
                if now - reference <= deadline:
                    continue
                task.hung = True
                obs_metrics.counter("serve.watchdog.hangs").inc()
                self._kill_worker(hb.heartbeat_pid(task.hb_path), task)

    def _kill_worker(self, pid: int | None, task: _Task) -> None:
        """SIGKILL the worker running ``task`` (or the whole broken pool).

        Killing any worker breaks the ``ProcessPoolExecutor``; its other
        in-flight futures resolve as ``BrokenProcessPool`` and ride the
        same transient-retry path — collateral the executor design forces,
        bounded by the per-task retry cap.
        """
        pids: list[int] = []
        if pid is not None:
            pids = [pid]
        elif task.executor is not None:  # no beat yet: pid unknown
            pids = [p.pid for p in (task.executor._processes or {}).values()]
        for target in pids:
            try:
                os.kill(target, signal.SIGKILL)
                obs_metrics.counter("serve.watchdog.kills").inc()
            except (OSError, ProcessLookupError):  # pragma: no cover
                pass

    # -- completion ---------------------------------------------------------

    def _timed_out(self, task: _Task, future) -> None:
        with self._lock:
            if task.resolved:
                return
            task.resolved = True
            self._running.discard(task)
        future.cancel()
        obs_metrics.counter("serve.pool.timeouts").inc()
        self.retry_policy.classify("timeout")
        duration = time.perf_counter() - task.started
        task.end_attempt("timeout", self._attempt_pid(task))
        task.on_done(
            TaskOutcome(
                status="timeout",
                error=f"task exceeded {task.timeout_s:.3f} s",
                attempts=task.attempts,
                duration_s=duration,
                attempt_log=task.log,
            )
        )

    def _completed(self, task: _Task, future) -> None:
        if task.timer is not None:
            task.timer.cancel()
        if future.cancelled():
            # Only the timeout path cancels futures, and it resolves the
            # task itself; CancelledError must not reach result() below
            # (it is a BaseException and would escape this callback).
            with self._lock:
                self._running.discard(task)
            return
        duration = time.perf_counter() - task.started
        try:
            pid, value = future.result()
        except BrokenProcessPool:
            self._worker_died(task, duration)
            return
        except Exception as error:  # noqa: BLE001 - the job's own failure
            with self._lock:
                self._running.discard(task)
                if task.resolved:
                    return
                task.resolved = True
            obs_metrics.counter("serve.pool.errors").inc()
            self.retry_policy.classify("error", error)
            task.end_attempt("error", getattr(error, "worker_pid", None))
            task.on_done(
                TaskOutcome(
                    status="error",
                    error=f"{type(error).__name__}: {error}",
                    exception=error,
                    attempts=task.attempts,
                    duration_s=duration,
                    attempt_log=task.log,
                )
            )
            return
        with self._lock:
            self._running.discard(task)
            if task.resolved:
                return
            task.resolved = True
        obs_metrics.counter("serve.pool.completed").inc()
        task.end_attempt("ok", pid)
        task.on_done(
            TaskOutcome(
                status="ok",
                value=value,
                attempts=task.attempts,
                duration_s=duration,
                attempt_log=task.log,
            )
        )

    def _worker_died(self, task: _Task, duration: float) -> None:
        """Handle a ``BrokenProcessPool``: classify, back off, retry or give up."""
        hung = task.hung
        policy = self.retry_policy
        with self._lock:
            self._running.discard(task)
            if task.resolved:
                return
            self._retire_executor(task.executor)
            closed = self._closed
        obs_metrics.counter("serve.pool.crashes").inc()
        policy.classify("crashed")
        task.end_attempt("crashed", self._attempt_pid(task))
        if not closed and policy.should_retry("crashed", task.attempts):
            obs_metrics.counter("serve.pool.crash_retries").inc()
            delay = policy.backoff_s(task.attempts, task.token)
            obs_metrics.histogram(
                "serve.retry.backoff_s", _BACKOFF_BUCKETS_S
            ).observe(delay)
            task.log[-1]["backoff_s"] = delay
            if delay > 0:
                timer = threading.Timer(delay, self._submit, (task,))
                timer.daemon = True
                timer.start()
            else:
                self._submit(task)
            return
        with self._lock:
            if task.resolved:
                return
            task.resolved = True
        if hung:
            error = (
                f"worker hung (no heartbeat for > "
                f"{self.heartbeat_deadline_s}s); killed by watchdog "
                f"(attempt {task.attempts}, retries exhausted)"
            )
            exception: WorkerDiedError = WorkerHungError(error)
        else:
            error = (
                "worker process died "
                f"(attempt {task.attempts}, retries exhausted)"
            )
            exception = WorkerDiedError(error)
        task.on_done(
            TaskOutcome(
                status="crashed",
                error=error,
                exception=exception,
                attempts=task.attempts,
                duration_s=duration,
                attempt_log=task.log,
            )
        )

    # -- blocking conveniences ---------------------------------------------

    def outcomes(
        self,
        fn: Callable[[Any], Any],
        items: Iterable[Any],
        *,
        timeout_s: float | None = None,
    ) -> list[TaskOutcome]:
        """Dispatch ``fn`` over ``items``; outcomes in input order."""
        items = list(items)
        results: list[TaskOutcome | None] = [None] * len(items)
        pending = threading.Semaphore(0)

        def deliver(index: int):
            def on_done(outcome: TaskOutcome) -> None:
                results[index] = outcome
                pending.release()

            return on_done

        for index, item in enumerate(items):
            self.dispatch(
                fn, item, timeout_s=timeout_s, on_done=deliver(index),
                retry_token=f"item-{index}",
            )
        for _ in items:
            pending.acquire()
        return [outcome for outcome in results if outcome is not None]

    def map(
        self,
        fn: Callable[[Any], Any],
        items: Iterable[Any],
        *,
        timeout_s: float | None = None,
    ) -> list[Any]:
        """Like ``Executor.map`` with crash retry: values in input order.

        Re-raises the first task failure (the original exception instance
        when the task's function raised; :class:`WorkerDiedError` /
        :class:`ReproError` for crashes and timeouts), matching what a
        plain serial loop would do.
        """
        values = []
        for outcome in self.outcomes(fn, items, timeout_s=timeout_s):
            if outcome.status == "ok":
                values.append(outcome.value)
            elif outcome.exception is not None:
                raise outcome.exception
            else:
                raise ReproError(f"pool task {outcome.status}: {outcome.error}")
        return values
