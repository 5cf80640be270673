"""The concurrent batch-personalization service.

:class:`BatchServer` turns the one-shot :meth:`repro.core.pipeline.Uniq
.personalize` into a managed workload:

- **backpressure at the worker slots**: :meth:`BatchServer.submit` runs
  in the caller's thread and returns once its job is dispatched,
  coalesced, replayed or held back by a drain, so at most ``workers`` jobs
  are in flight and a caller submitting a batch waits for a free slot;
- a :class:`~repro.serve.pool.WorkerPool` of long-lived worker processes
  that keep their :func:`~repro.core.localize.cached_delay_map` stores warm
  across jobs, with per-job timeouts, **classified retries** (transient
  worker deaths back off and retry up to a per-task cap; permanent job
  failures dead-letter immediately), and an optional heartbeat watchdog
  that kills and replaces hung workers;
- **request coalescing**: jobs asking for the same computation
  (:meth:`Job.spec_key`) share one execution — the service-level cache that
  makes a fleet of repeated captures cheap (disable with
  ``coalesce=False``);
- an optional **write-ahead journal** (:class:`repro.serve.journal
  .Journal`): every submission, dispatch, completion, and failure is
  durably recorded, so a crashed or interrupted batch resumes
  (``resume=True``) by replaying ``done`` records instead of re-executing
  them, and a SIGINT/SIGTERM **graceful drain** (:meth:`interrupt`)
  journals unfinished work and returns a resumable report;
- per-job metrics and spans through :mod:`repro.obs` (``serve.*`` counters,
  queue-wait and run-time histograms) and a structured
  :class:`BatchReport`.

Every job follows one path: :meth:`BatchServer.submit` → ``_job_done`` →
``_resolve``; the server starts no thread of its own.

The core guarantee, enforced by the regression suite: for a fixed job list,
the :meth:`JobResult.deterministic` part of every result is **bit-identical
for any worker count and any submission order** — results are pure
functions of job specs; the service only decides *when* they run.  The
journal extends that guarantee across process boundaries: a batch killed
mid-run and resumed produces the same deterministic results as an
uninterrupted one, with zero completed jobs re-executed.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping

from repro.core.mapstore import validate_store_path
from repro.errors import ReproError
from repro.ioutil import atomic_write_json
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.logging import get_logger, kv
from repro.obs.metrics import TIME_BUCKETS_S
from repro.serve.job import Job, JobResult
from repro.serve.journal import Journal
from repro.serve.pool import TaskOutcome, WorkerPool
from repro.serve.retry import RetryPolicy
from repro.serve.telemetry import ServeTelemetry, build_job_trace, slo_stats
from repro.serve.worker import execute_job, run_with_telemetry

__all__ = [
    "BatchReport",
    "BatchServer",
]

_log = get_logger("serve.server")

_OUTCOME_STATUS = {
    "ok": "ok",
    "error": "failed",
    "crashed": "crashed",
    "timeout": "timeout",
}

#: Outcome statuses whose journal record is a *transient* failure — the
#: spec was never judged, a resumed batch re-executes it.
_TRANSIENT_RESULTS = ("crashed", "timeout")


@dataclass(frozen=True)
class BatchReport:
    """The structured record of one :meth:`BatchServer.run_batch`."""

    results: tuple[JobResult, ...]
    wall_s: float
    workers: int
    coalesce: bool
    resumed: bool = False
    journal_path: str | None = None
    interrupted: bool = field(default=False)
    #: The SLO verdict (``{"summary", "thresholds", "violations"}``) once
    #: judged: ``dataclasses.replace(report, slo=policy.judge(report))``
    #: with a :class:`repro.serve.telemetry.SloPolicy`.  ``None`` keeps
    #: :meth:`to_dict` free of ``slo_*`` keys.
    slo: Mapping[str, Any] | None = None

    @property
    def counts(self) -> dict[str, int]:
        by_status: dict[str, int] = {}
        for result in self.results:
            by_status[result.status] = by_status.get(result.status, 0) + 1
        return by_status

    @property
    def n_ok(self) -> int:
        return self.counts.get("ok", 0)

    @property
    def dead_letters(self) -> tuple[JobResult, ...]:
        """Permanently failed jobs (the spec is at fault; never retried)."""
        return tuple(r for r in self.results if r.status == "failed")

    @property
    def n_interrupted(self) -> int:
        return self.counts.get("interrupted", 0)

    @property
    def slo_violations(self) -> list[Mapping[str, Any]]:
        """SLO objectives this batch violated (empty without a policy)."""
        if not self.slo:
            return []
        return list(self.slo.get("violations", ()))

    @property
    def n_replayed(self) -> int:
        """Jobs restored from the journal instead of re-executed."""
        return sum(1 for r in self.results if r.replayed)

    @property
    def jobs_per_s(self) -> float:
        return len(self.results) / self.wall_s if self.wall_s > 0 else float("inf")

    def latency_summary(self) -> dict[str, float]:
        """p50/p95 of executed-job run time and queue wait (seconds).

        Read from :func:`repro.serve.telemetry.slo_stats`, so the report,
        the CLI summary and ``--slo`` quote the same numbers over the same
        executed jobs.
        """
        stats = slo_stats(self)
        return {
            "run_p50_s": stats["job_p50_s"],
            "run_p95_s": stats["job_p95_s"],
            "queue_wait_p50_s": stats["queue_wait_p50_s"],
            "queue_wait_p95_s": stats["queue_wait_p95_s"],
        }

    def quality_summary(self) -> dict[str, Any]:
        """Aggregate confidence and flag statistics across completed jobs.

        Jobs run by runners without quality reporting (the test workloads)
        contribute nothing; a batch of those reports zero graded jobs.
        """
        confidences: list[float] = []
        flagged_jobs: list[str] = []
        flag_counts: dict[str, int] = {}
        rung_counts: dict[str, int] = {}
        escalated_jobs: list[str] = []
        for result in self.results:
            payload = result.payload or {}
            if not result.ok or payload.get("quality") is None:
                continue
            confidences.append(float(payload["confidence"]))
            flags = payload["quality"].get("flags", [])
            if flags:
                flagged_jobs.append(result.job_id)
            for flag in flags:
                key = f"{flag['stage']}.{flag['code']}"
                flag_counts[key] = flag_counts.get(key, 0) + 1
            deconv = payload.get("deconv") or {}
            method = str(deconv.get("method", "inverse"))
            rung_counts[method] = rung_counts.get(method, 0) + 1
            if int(deconv.get("rung", 0)) > 0:
                escalated_jobs.append(result.job_id)
        return {
            "graded_jobs": len(confidences),
            "mean_confidence": (
                sum(confidences) / len(confidences) if confidences else None
            ),
            "min_confidence": min(confidences) if confidences else None,
            "flagged_jobs": flagged_jobs,
            "flag_counts": dict(sorted(flag_counts.items())),
            "deconv_method_counts": dict(sorted(rung_counts.items())),
            "escalated_jobs": escalated_jobs,
        }

    def to_dict(self) -> dict[str, Any]:
        record: dict[str, Any] = {
            "n_jobs": len(self.results),
            "counts": self.counts,
            "wall_s": self.wall_s,
            "jobs_per_s": self.jobs_per_s,
            "workers": self.workers,
            "coalesce": self.coalesce,
            "coalesced_jobs": sum(1 for r in self.results if r.coalesced),
            "replayed_jobs": self.n_replayed,
            "dead_letters": [r.job_id for r in self.dead_letters],
            "interrupted": self.interrupted,
            "resumed": self.resumed,
            "journal_path": self.journal_path,
            "total_attempts": sum(r.attempts for r in self.results),
            "latency": self.latency_summary(),
            "quality": self.quality_summary(),
            "results": [result.to_dict() for result in self.results],
        }
        if self.slo is not None:
            record["slo_summary"] = self.slo.get("summary")
            record["slo_thresholds"] = self.slo.get("thresholds")
            record["slo_violations"] = self.slo.get("violations")
        return record

    def save(self, path: str | os.PathLike) -> None:
        """Write the report as JSON, atomically (never a truncated file)."""
        atomic_write_json(self.to_dict(), path)


class BatchServer:
    """A concurrent batch-personalization service (see module docstring).

    Use as a context manager, or call :meth:`close` explicitly::

        with BatchServer(workers=4) as server:
            report = server.run_batch(load_jobs("jobs.jsonl"))

    Parameters
    ----------
    workers:
        Worker process count (default: cpu count).  Even ``workers=1``
        uses a real subprocess so job crashes cannot take the service down.
        The worker count also bounds the jobs in flight: :meth:`submit`
        waits for a free slot.
    default_timeout_s:
        Per-job budget when the job does not set its own.
    runner:
        The function executed per job — ``runner(job_spec_dict) ->
        payload_dict``.  Defaults to :func:`repro.serve.worker.execute_job`;
        tests substitute cheap top-level functions from
        :mod:`repro.testing.workloads`.
    coalesce:
        Share one execution among jobs with equal :meth:`Job.spec_key`.
    retry_policy:
        Classified-retry semantics (see :class:`repro.serve.retry
        .RetryPolicy`); defaults to one immediate retry after a worker
        death (:data:`repro.serve.pool.DEFAULT_RETRY`).
    journal:
        A :class:`repro.serve.journal.Journal`, or a path to open one at.
        Enables the write-ahead log of every submission and outcome.
    resume:
        Replay the journal's ``done`` records: jobs whose spec key already
        has a terminal record resolve instantly (``replayed=True``,
        ``serve.journal.replayed_done``) instead of re-executing.  Requires
        ``journal``.  Without ``resume``, a non-empty journal is refused —
        silently appending a fresh batch onto an old journal is almost
        never what the caller meant.
    heartbeat_deadline_s:
        Enable the pool watchdog: workers heartbeat every
        :data:`repro.serve.heartbeat.HEARTBEAT_INTERVAL_S`; one silent for
        longer than the deadline is killed and its job retried as a
        transient failure.
    telemetry:
        ``True`` (or a :class:`repro.serve.telemetry.ServeTelemetry`)
        turns on worker span capture: jobs run under
        :func:`repro.serve.worker.run_with_telemetry` and ship their trace
        and metrics delta home, the delta merges into this process's
        registry, and each result carries its merged cross-process trace.
        Off by default, which leaves every output bit-identical to a
        telemetry-less build.  A path is refused: the journal is the one
        durable serve record.
    map_store:
        Head-search outcome store directory (:mod:`repro.core.mapstore`),
        exported as ``REPRO_MAP_STORE`` to every worker so cold workers
        replay pre-baked head searches instead of running them — the
        cold-start killer.  ``None`` (default) inherits whatever
        ``REPRO_MAP_STORE`` the environment already carries; an unusable
        path warns and serves storeless.
    """

    def __init__(
        self,
        workers: int | None = None,
        *,
        default_timeout_s: float | None = None,
        runner: Callable[[Mapping[str, Any]], Mapping[str, Any]] | None = None,
        coalesce: bool = True,
        retry_policy: RetryPolicy | None = None,
        journal: Journal | str | os.PathLike | None = None,
        resume: bool = False,
        heartbeat_deadline_s: float | None = None,
        telemetry: bool | ServeTelemetry | None = None,
        map_store: str | os.PathLike | None = None,
    ) -> None:
        if resume and journal is None:
            raise ReproError("resume=True requires a journal")
        self.default_timeout_s = default_timeout_s
        self.coalesce = bool(coalesce)
        self.resume = bool(resume)
        self._runner = runner if runner is not None else execute_job
        if isinstance(telemetry, (str, os.PathLike)):
            ServeTelemetry(telemetry)  # refuses the path, naming the journal
        self._telemetry = bool(telemetry)
        # With telemetry on, jobs execute under the worker-side capture
        # wrapper (span tree + metrics delta shipped back in the payload).
        # functools.partial of two top-level functions pickles cleanly.
        self._dispatch_runner = (
            functools.partial(run_with_telemetry, self._runner)
            if self._telemetry
            else self._runner
        )
        if journal is not None and not isinstance(journal, Journal):
            journal = Journal(journal)
        self._journal: Journal | None = journal
        self.journal_path = journal.path if journal is not None else None
        if journal is not None:
            state = journal.state
            if not resume and state.n_records:
                raise ReproError(
                    f"journal {journal.path} already holds "
                    f"{state.n_records} records; pass resume=True to "
                    "continue that batch, or point --journal at a fresh path"
                )
            if resume:
                obs_metrics.gauge("serve.journal.resume_done_records").set(
                    float(len(state.done))
                )
                _log.info(
                    kv(
                        "serve.journal.resume",
                        path=journal.path,
                        done=len(state.done),
                        pending=len(state.pending()),
                        corrupt=len(state.corrupt),
                    )
                )
        if map_store is not None:
            # Same lenient contract as REPRO_MAP_STORE: an unusable path
            # warns and runs storeless rather than refusing to serve.
            map_store = validate_store_path(os.fspath(map_store))
        self.map_store = map_store
        self._pool = WorkerPool(
            workers if workers is not None else os.cpu_count(),
            retry_policy=retry_policy,
            heartbeat_deadline_s=heartbeat_deadline_s,
            map_store=map_store,
        )
        self.workers = self._pool.workers
        # Specs are keyed once at submission: coalescing and the journal
        # both use the key.
        self._keyed = self.coalesce or journal is not None
        self._state = threading.Condition()
        self._outstanding = 0
        self._closed = False
        self._draining = False
        # The results ledger: submission order, the set of submitted ids
        # (an O(1) duplicate check), and every resolved result.
        self._order: list[str] = []
        self._ids: set[str] = set()
        self._results: dict[str, JobResult] = {}
        self._inflight: dict[str, list[tuple[Job, float]]] = {}
        self._done_cache: dict[str, tuple[str, Mapping[str, Any] | None, str | None]] = {}
        # One slot per worker: the only backpressure.  A slot frees once
        # its job's outcome is journaled, so the journal never shows more
        # jobs in flight than there are workers.
        self._slots = threading.Semaphore(self.workers)
        obs_metrics.gauge("serve.workers").set(float(self.workers))

    # -- public API ---------------------------------------------------------

    def submit(self, job: Job) -> bool:
        """Accept one job and see it dispatched, in the caller's thread.

        Keys and journals the job, then replays it (on resume), coalesces
        it onto an execution of the same spec, or waits for a free worker
        slot and dispatches it — the slots are the backpressure.  Returns
        ``False`` when a graceful drain held the job back: it resolves
        ``interrupted`` without executing (its journal record makes it
        resumable).  The job's ``queue_wait_s`` is the time spent here
        waiting for a slot or for a coalescing leader.
        """
        with self._state:
            if self._closed:
                raise ReproError("BatchServer is closed")
            if job.job_id in self._ids:
                raise ReproError(f"duplicate job_id {job.job_id!r}")
            self._ids.add(job.job_id)
            self._order.append(job.job_id)
            self._outstanding += 1
        key = job.spec_key() if self._keyed else None
        if self._journal is not None:
            # Write-ahead: the submission is durable before it can run.
            self._journal.append("submitted", spec_key=key, job_id=job.job_id)
        arrived = time.perf_counter()
        if self._hold_back(job, arrived):
            return False
        obs_metrics.counter("serve.jobs_submitted").inc()
        if self.resume and key is not None:
            record = self._journal.done_record(key)
            if record is not None:
                # A journaled outcome replays instead of re-executing.
                status = record.get("status", "failed")
                obs_metrics.counter(
                    "serve.journal.replayed_done" if status == "ok"
                    else "serve.journal.replayed_dead_letters"
                ).inc()
                self._resolve(
                    JobResult(
                        job_id=job.job_id, status=status,
                        payload=record.get("payload"),
                        error=record.get("error"), attempts=0,
                        queue_wait_s=time.perf_counter() - arrived,
                        replayed=True,
                    )
                )
                return True
        if key is not None and self.coalesce:
            with self._state:
                cached = self._done_cache.get(key)
                if cached is None:
                    if key in self._inflight:
                        # Counted when the leader's result reaches it.
                        self._inflight[key].append((job, arrived))
                        return True
                    self._inflight[key] = []
            if cached is not None:
                self._resolve(
                    self._coalesced_result(job.job_id, arrived, *cached)
                )
                return True
        self._slots.acquire()
        if self._hold_back(job, arrived):
            # interrupt() fired while this job waited for a slot; jobs
            # coalesced onto it go the same way.
            self._slots.release()
            with self._state:
                followers = self._inflight.pop(key, []) if self.coalesce else []
            for follower, since in followers:
                self._hold_back(follower, since)
            return False
        queue_wait = time.perf_counter() - arrived
        obs_metrics.histogram("serve.queue_wait_s", TIME_BUCKETS_S).observe(
            queue_wait
        )
        if self._journal is not None:
            self._journal.append("started", spec_key=key, t=time.time())
        timeout = job.timeout_s if job.timeout_s is not None else self.default_timeout_s
        self._pool.dispatch(
            self._dispatch_runner,
            job.to_dict(),
            timeout_s=timeout,
            retry_token=key,
            on_done=lambda outcome: self._job_done(job, key, queue_wait, outcome),
        )
        return True

    def drain(self) -> None:
        """Block until every accepted job has a result."""
        with self._state:
            self._state.wait_for(lambda: self._outstanding == 0)

    def interrupt(self) -> None:
        """Begin a graceful drain (the SIGINT/SIGTERM path).

        Jobs not yet dispatched — waiting in :meth:`submit` for a slot, or
        submitted from now on — resolve ``interrupted`` (journaled
        ``submitted`` records make them resumable); in-flight jobs finish
        and are journaled normally.  :meth:`drain` / :meth:`run_batch` then
        return a report marked ``interrupted`` — exit code 4 at the CLI —
        and the journal gets a final checkpoint.
        """
        with self._state:
            if self._draining:
                return
            self._draining = True
        obs_metrics.counter("serve.interrupts").inc()
        _log.warning(kv("serve.interrupted", journal=self.journal_path))

    @property
    def interrupted(self) -> bool:
        with self._state:
            return self._draining

    def results(self) -> tuple[JobResult, ...]:
        """All results so far, in submission order."""
        with self._state:
            return tuple(
                self._results[job_id]
                for job_id in self._order
                if job_id in self._results
            )

    def checkpoint(self) -> None:
        """Compact the journal (no-op without one).

        :meth:`run_batch` checkpoints automatically; callers driving the
        server through :meth:`submit`/:meth:`drain` directly call this at
        their own batch boundaries.
        """
        if self._journal is not None:
            with obs_trace.span("serve.journal.checkpoint"):
                self._journal.checkpoint()

    def run_batch(self, jobs: Iterable[Job]) -> BatchReport:
        """Submit ``jobs`` in order, wait, checkpoint, and report.

        Each :meth:`submit` waits for a free worker slot, so jobs are
        dispatched in the given order.
        """
        jobs = list(jobs)
        started = time.perf_counter()
        with obs_trace.span(
            "serve.run_batch",
            n_jobs=len(jobs),
            workers=self.workers,
            coalesce=self.coalesce,
        ):
            for job in jobs:
                self.submit(job)
            self.drain()
        self.checkpoint()
        wall = time.perf_counter() - started
        with self._state:
            results = tuple(self._results[job.job_id] for job in jobs)
            interrupted = self._draining
        _log.info(
            kv(
                "serve.batch_done",
                n_jobs=len(jobs),
                wall_s=round(wall, 3),
                workers=self.workers,
                interrupted=interrupted,
            )
        )
        return BatchReport(
            results=results,
            wall_s=wall,
            workers=self.workers,
            coalesce=self.coalesce,
            resumed=self.resume,
            journal_path=self.journal_path,
            interrupted=interrupted,
        )

    def close(self) -> None:
        """Let in-flight jobs finish, shut the pool down, close the journal.

        Call it once every :meth:`submit` has returned.
        """
        with self._state:
            if self._closed:
                return
            self._closed = True
        self._pool.shutdown()
        if self._journal is not None:
            self._journal.close()

    def __enter__(self) -> "BatchServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- submission path ----------------------------------------------------

    def _hold_back(self, job: Job, arrived: float) -> bool:
        """During a graceful drain, resolve ``job`` ``interrupted``.

        Returns ``False`` when the job may run.
        """
        with self._state:
            if not self._draining:
                return False
        obs_metrics.counter("serve.jobs_interrupted").inc()
        self._resolve(
            JobResult(
                job_id=job.job_id,
                status="interrupted",
                error="batch interrupted before this job ran; resume from the journal",
                attempts=0,
                queue_wait_s=time.perf_counter() - arrived,
            )
        )
        return True

    def _coalesced_result(
        self, job_id: str, arrived: float, status: str,
        payload: Mapping[str, Any] | None, error: str | None,
    ) -> JobResult:
        """A result shared from another execution of the same spec."""
        obs_metrics.counter("serve.jobs_coalesced").inc()
        return JobResult(
            job_id=job_id, status=status, payload=payload, error=error,
            attempts=0, queue_wait_s=time.perf_counter() - arrived,
            coalesced=True,
        )

    def _journal_outcome(
        self, job: Job, key: str | None, status: str, outcome: TaskOutcome,
    ) -> None:
        """Durably record one execution outcome before results propagate.

        Besides the outcome, each terminal record carries the wall-clock
        ``t`` it was written at, the final attempt's ``run_s`` and
        ``worker_pid`` (``None`` when unknown) and, for a retried job,
        the pool's whole ``attempt_log``: what ``repro.cli timeline``
        draws.
        """
        journal = self._journal
        if journal is None:
            return
        timing: dict[str, Any] = {
            "t": time.time(),
            "run_s": outcome.duration_s,
            "worker_pid": (
                outcome.attempt_log[-1]["worker_pid"]
                if outcome.attempt_log else None
            ),
        }
        if outcome.attempts > 1:
            timing["attempt_log"] = outcome.attempt_log
        if status == "ok":
            journal.append(
                "done", spec_key=key, job_id=job.job_id, status="ok",
                payload=outcome.value, attempts=outcome.attempts, **timing,
            )
            return
        # A permanent failure means the spec itself is bad: its dead-letter
        # record is terminal — a resumed batch replays it rather than
        # retrying a deterministic failure.  Transient ones re-run.
        if status == "failed":
            obs_metrics.counter("serve.journal.dead_letters").inc()
        journal.append(
            "failed", spec_key=key, job_id=job.job_id, status=status,
            classification=(
                "transient" if status in _TRANSIENT_RESULTS else "permanent"
            ),
            error=outcome.error, attempts=outcome.attempts, **timing,
        )

    def _job_telemetry(
        self,
        job: Job,
        status: str,
        payload: Mapping[str, Any] | None,
        queue_wait: float,
        outcome: TaskOutcome,
    ) -> Mapping[str, Any] | None:
        """Merge one finished job's worker telemetry; returns its trace.

        Merges the worker's metrics delta into this process's registry and
        grafts the worker-captured span tree under the server-side per-job
        spans.  Returns the merged trace as nested dicts, or ``None`` when
        telemetry is off.
        """
        if not self._telemetry:
            return None
        worker_telemetry: Mapping[str, Any] = {}
        if isinstance(payload, Mapping):
            worker_telemetry = payload.get("_telemetry") or {}
        delta = worker_telemetry.get("metrics_delta")
        if delta:
            obs_metrics.registry().merge_delta(delta)
        try:
            return build_job_trace(
                job.job_id,
                status=status,
                queue_wait_s=queue_wait,
                run_s=outcome.duration_s,
                attempt_log=outcome.attempt_log,
                worker_trace=worker_telemetry.get("trace"),
                cold_start=worker_telemetry.get("cold_start"),
            ).to_dict()
        except Exception:  # noqa: BLE001 - telemetry must not fail the job
            return None

    def _job_done(
        self, job: Job, key: str | None, queue_wait: float,
        outcome: TaskOutcome,
    ) -> None:
        status = _OUTCOME_STATUS[outcome.status]
        payload = outcome.value if outcome.status == "ok" else None
        self._journal_outcome(job, key, status, outcome)
        self._slots.release()
        obs_metrics.counter(f"serve.jobs_{status}").inc()
        obs_metrics.counter("serve.job_attempts").inc(outcome.attempts)
        if outcome.attempts > 1:
            obs_metrics.counter("serve.jobs_retried").inc()
        obs_metrics.histogram("serve.run_s", TIME_BUCKETS_S).observe(
            outcome.duration_s
        )
        trace_dict = self._job_telemetry(
            job, status, payload, queue_wait, outcome
        )
        result = JobResult(
            job_id=job.job_id,
            status=status,
            payload=payload,
            error=outcome.error,
            attempts=outcome.attempts,
            queue_wait_s=queue_wait,
            run_s=outcome.duration_s,
            trace=trace_dict,
        )
        followers: list[tuple[Job, float]] = []
        if key is not None and self.coalesce:
            with self._state:
                followers = self._inflight.pop(key, [])
                # Cache only deterministic outcomes: a timeout or a crash
                # says something about this execution, not about the spec.
                if status in ("ok", "failed"):
                    self._done_cache[key] = (status, payload, outcome.error)
        if status != "ok":
            _log.warning(
                kv(
                    "serve.job_" + status,
                    job_id=job.job_id,
                    error=outcome.error,
                    attempts=outcome.attempts,
                )
            )
        self._resolve(result)
        for follower, arrived in followers:
            self._resolve(
                self._coalesced_result(
                    follower.job_id, arrived, status, payload, outcome.error
                )
            )

    def _resolve(self, result: JobResult) -> None:
        """Enter one result in the ledger."""
        with self._state:
            self._results[result.job_id] = result
            self._outstanding -= 1
            self._state.notify_all()
