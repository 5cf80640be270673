"""The concurrent batch-personalization service.

:class:`BatchServer` turns the one-shot :meth:`repro.core.pipeline.Uniq
.personalize` into a managed workload:

- **bounded priority queues** of :class:`~repro.serve.job.Job`s with
  backpressure — blocking :meth:`submit` waits for room, non-blocking
  submit records a ``rejected`` result and moves on;
- :class:`~repro.serve.pool.WorkerPool`\\ s of long-lived worker processes
  that keep their :func:`~repro.core.localize.cached_delay_map` stores warm
  across jobs, with per-job timeouts, **classified retries** (transient
  worker deaths/hangs back off and retry under a budget; permanent job
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
- **partitions** (``shards``): each partition is one failure domain with
  its own pool, bounded queue, scheduler thread, journal at
  :func:`shard_journal_path` and circuit breaker.  Jobs route by
  ``crc32(spec_key) % shards`` (:func:`shard_of`), walking the ring to the
  first healthy partition, so duplicate specs still coalesce, even across
  tenants.  :data:`BREAKER_THRESHOLD` consecutive transient outcomes
  (crashes, watchdog kills, timeouts) eject a partition: its queued jobs
  reroute, and after an exponentially growing backoff the partition is
  probed — rebuilt, resumed from its journal, and trialed half-open.
  With every partition down, jobs resolve as typed ``shard_down``
  rejections.  Each partition's :class:`~repro.serve.retry.RetryPolicy`
  jitter is namespaced by shard id so retries decorrelate, and
  :meth:`checkpoint` folds the partition journals back into one
  resumable journal at the base path (:func:`repro.serve.journal
  .merge_journals`);
- optional **admission** (:class:`repro.serve.admission.Admission`):
  per-tenant token-bucket quotas, a bounded backlog released to the
  partitions in weighted-fair stride order, and value-based shedding,
  all as typed, never-blocking rejections;
- per-job metrics and spans through :mod:`repro.obs` (``serve.*`` counters,
  queue-wait and run-time histograms) and a structured
  :class:`BatchReport`.

**Zero-overhead default**: one partition journals at the plain base path,
keeps the retry namespace empty, never arms its breaker, and with no
admission policy no thread beyond the scheduler runs.

The core guarantee, enforced by the regression suite: for a fixed job list,
the :meth:`JobResult.deterministic` part of every result is **bit-identical
for any worker count, any partition count and any submission order** —
results are pure functions of job specs; the service only decides *when
and where* they run.  The journal extends that guarantee across process
boundaries: a batch killed mid-run and resumed produces the same
deterministic results as an uninterrupted one, with zero completed jobs
re-executed.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import os
import queue
import threading
import time
import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

from repro.core.mapstore import validate_store_path
from repro.errors import ReproError
from repro.ioutil import atomic_write_json
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.logging import get_logger, kv
from repro.obs.metrics import TIME_BUCKETS_S
from repro.serve.admission import Admission
from repro.serve.job import Job, JobResult
from repro.serve.journal import (
    Journal,
    JournalState,
    merge_journals,
    replay_journal,
)
from repro.serve.pool import TaskOutcome, WorkerPool
from repro.serve.retry import RetryPolicy
from repro.serve.telemetry import ServeTelemetry, SloPolicy
from repro.serve.worker import execute_job, run_with_telemetry

__all__ = [
    "BatchReport",
    "BatchServer",
    "DEFAULT_QUEUE_SIZE",
    "shard_journal_path",
    "shard_of",
]

_log = get_logger("serve.server")

#: Default bound on each partition's pending-job queue.
DEFAULT_QUEUE_SIZE = 64

#: Consecutive transient outcomes that eject a partition (never armed
#: with one partition).
BREAKER_THRESHOLD = 3

#: First eject-to-probe delay; doubles per consecutive re-eject, up to
#: :data:`MAX_PROBE_BACKOFF_S`.
PROBE_BACKOFF_S = 0.5
MAX_PROBE_BACKOFF_S = 30.0

#: Time source for probe deadlines, and for admission quotas when
#: :meth:`BatchServer.submit` is not given an explicit ``now``.
clock: Callable[[], float] = time.monotonic

_OUTCOME_STATUS = {
    "ok": "ok",
    "error": "failed",
    "crashed": "crashed",
    "timeout": "timeout",
}

#: Outcome statuses whose journal record is a *transient* failure — the
#: spec was never judged, a resumed batch re-executes it.  They are also
#: what counts against a partition's circuit breaker.
_TRANSIENT_RESULTS = ("crashed", "timeout")


def _percentile(values: Sequence[float], q: float) -> float:
    """Exact percentile by linear interpolation (no numpy dependency here)."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    return ordered[low] + (rank - low) * (ordered[high] - ordered[low])


@dataclass(frozen=True)
class BatchReport:
    """The structured record of one :meth:`BatchServer.run_batch`."""

    results: tuple[JobResult, ...]
    wall_s: float
    workers: int
    queue_size: int
    coalesce: bool
    resumed: bool = False
    journal_path: str | None = None
    interrupted: bool = field(default=False)
    #: The telemetry SLO report (``{"summary", "thresholds", "violations"}``)
    #: when the server ran with telemetry or an SLO policy; ``None`` keeps
    #: :meth:`to_dict` bit-identical to a pre-telemetry report.
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
    def n_rejected(self) -> int:
        """Jobs turned away at admission (queue full, quota, shedding)."""
        return self.counts.get("rejected", 0)

    def rejection_reasons(self) -> dict[str, int]:
        """Count of rejected jobs by typed reason (untyped under ``""``)."""
        reasons: dict[str, int] = {}
        for result in self.results:
            if result.status == "rejected":
                key = result.reason or ""
                reasons[key] = reasons.get(key, 0) + 1
        return dict(sorted(reasons.items()))

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
        """p50/p95 of executed-job run time and queue wait (seconds)."""
        runs = [
            r.run_s for r in self.results
            if r.ok and not r.coalesced and not r.replayed
        ]
        waits = [
            r.queue_wait_s for r in self.results
            if r.status not in ("rejected", "interrupted")
        ]
        return {
            "run_p50_s": _percentile(runs, 0.50),
            "run_p95_s": _percentile(runs, 0.95),
            "queue_wait_p50_s": _percentile(waits, 0.50),
            "queue_wait_p95_s": _percentile(waits, 0.95),
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
            "queue_size": self.queue_size,
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
        if self.n_rejected:
            # Only when rejections happened: clean batches keep their
            # exact pre-admission-control report representation.
            record["rejected_jobs"] = self.n_rejected
            record["rejection_reasons"] = self.rejection_reasons()
        if self.slo is not None:
            record["slo_summary"] = self.slo.get("summary")
            record["slo_thresholds"] = self.slo.get("thresholds")
            record["slo_violations"] = self.slo.get("violations")
        return record

    def save(self, path: str | os.PathLike) -> None:
        """Write the report as JSON, atomically (never a truncated file)."""
        atomic_write_json(self.to_dict(), path)


def shard_of(spec_key: str, shards: int) -> int:
    """The home partition for a spec key: ``crc32(key) % shards``.

    CRC-32 rather than :func:`hash` because routing must be stable across
    processes and Python versions — a resumed run must route every spec
    to the journal that knows about it.
    """
    return zlib.crc32(spec_key.encode()) % shards


def shard_journal_path(base: str | os.PathLike, shard: int, shards: int) -> str:
    """Journal path for one partition: ``<base>.shard<k>``, or ``<base>``
    itself when ``shards == 1`` (the zero-overhead single-partition case)."""
    base = os.fspath(base)
    return base if shards == 1 else f"{base}.shard{shard}"


def _namespaced_policy(policy: RetryPolicy | None, shard: int, shards: int):
    """Per-partition retry policy: same schedule, partition-scoped jitter.

    ``shards == 1`` passes the caller's policy through untouched so the
    jitter sequence stays byte-identical to an unpartitioned server's.
    """
    if policy is None or shards == 1:
        return policy
    return dataclasses.replace(policy, namespace=f"shard{shard}")


class _Breaker:
    """Per-partition circuit-breaker state (guarded by the server's lock)."""

    __slots__ = ("state", "consecutive", "probe_at", "backoff_s", "ejections")

    def __init__(self) -> None:
        self.state = "closed"  # closed | open | probing | half_open
        self.consecutive = 0
        self.probe_at = 0.0
        self.backoff_s = 0.0
        self.ejections = 0

    def open(self) -> None:
        """Trip open and schedule the next probe (exponential backoff)."""
        self.state = "open"
        self.ejections += 1
        self.backoff_s = min(
            PROBE_BACKOFF_S * 2 ** (self.ejections - 1), MAX_PROBE_BACKOFF_S
        )
        self.probe_at = clock() + self.backoff_s


class _Sentinel:
    """Queue terminator; sorts after every real job."""


_STOP = (math.inf, math.inf, _Sentinel(), 0.0, None)


class _Partition:
    """One failure domain: pool, bounded queue, scheduler, journal, breaker.

    A probe replaces the pool, queue and scheduler with fresh ones and
    keeps the journal and breaker; ``ejected`` marks a partition whose
    queued jobs must reroute rather than run.
    """

    def __init__(
        self, server: "BatchServer", index: int, journal: Journal | None,
        breaker: _Breaker, replays: bool,
    ) -> None:
        self.index = index
        self.pool = WorkerPool(
            server._workers,
            retry_policy=_namespaced_policy(
                server._retry_policy, index, server.shards
            ),
            **server._pool_options,
        )
        self.queue: queue.PriorityQueue = queue.PriorityQueue(
            maxsize=server.queue_size
        )
        self.slots = threading.Semaphore(self.pool.workers)
        self.journal = journal
        self.breaker = breaker
        #: Resolve specs with a terminal journal record by replaying it.
        self.replays = replays and journal is not None
        self.ejected = False
        self.thread = threading.Thread(
            target=server._run_scheduler, args=(self,),
            name=f"repro-serve-scheduler-{index}", daemon=True,
        )
        self.thread.start()


class BatchServer:
    """A concurrent batch-personalization service (see module docstring).

    Use as a context manager, or call :meth:`close` explicitly::

        with BatchServer(workers=4) as server:
            report = server.run_batch(load_jobs("jobs.jsonl"))

    Parameters
    ----------
    workers:
        Worker process count per partition (default: cpu count).  Even
        ``workers=1`` uses a real subprocess so job crashes cannot take the
        service down.
    shards:
        Independent partitions (see module docstring).  ``1`` (default)
        is the zero-overhead configuration.
    queue_size:
        Bound on each partition's pending queue; the backpressure point.
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
        .RetryPolicy`); defaults to the legacy one-immediate-crash-retry
        behavior via ``max_crash_retries``.
    journal:
        A :class:`repro.serve.journal.Journal` (one partition only), or a
        base path: partition ``k`` journals at
        :func:`shard_journal_path`, and :meth:`checkpoint` merges the set
        back into the base path.  Enables the write-ahead log of every
        submission and outcome.
    resume:
        Replay the journal's ``done`` records: jobs whose spec key already
        has a terminal record resolve instantly (``replayed=True``,
        ``serve.journal.replayed_done``) instead of re-executing.  With
        several partitions the base journal (a merged journal from an
        earlier run, of any partition count) and every partition journal
        are replayed, wherever a spec originally ran.  Requires
        ``journal``.  Without ``resume``, a non-empty journal is refused —
        silently appending a fresh batch onto an old journal is almost
        never what the caller meant.
    heartbeat_deadline_s / heartbeat_interval_s:
        Enable the pool watchdog: workers heartbeat every ``interval``;
        one silent for longer than ``deadline`` is killed and its job
        retried as a transient failure.
    telemetry:
        A :class:`repro.serve.telemetry.ServeTelemetry` (stays the
        caller's to close), or a path to write the flight-recorder JSONL
        stream at (typically beside the journal).  Enables per-event
        recording, worker span-tree capture (jobs run under
        :func:`repro.serve.worker.run_with_telemetry` and ship their trace
        and metrics delta home), per-job merged traces on results, and the
        SLO report on the batch report.  ``None`` (default) records
        nothing and leaves every output bit-identical to a telemetry-less
        build.
    slo:
        Declarative objectives (a :class:`repro.serve.telemetry.SloPolicy`
        or a flat ``max_*``/``min_*`` thresholds mapping) evaluated over
        the batch; usable without a telemetry path (statistics are then
        tracked in memory only).
    map_store:
        DelayMap artifact store directory (:mod:`repro.core.mapstore`),
        exported as ``REPRO_MAP_STORE`` to every worker so cold workers
        mmap pre-baked delay tables instead of rebuilding them — the
        cold-start killer.  ``None`` (default) inherits whatever
        ``REPRO_MAP_STORE`` the environment already carries; an unusable
        path warns and serves storeless.
    admission:
        An :class:`repro.serve.admission.Admission` policy.  Submissions
        then pass its quotas and bounded backlog (never blocking), and a
        feeder thread releases the backlog to the partitions in stride
        order.  ``None`` (default) queues submissions directly.
    """

    def __init__(
        self,
        workers: int | None = None,
        *,
        shards: int = 1,
        queue_size: int = DEFAULT_QUEUE_SIZE,
        default_timeout_s: float | None = None,
        runner: Callable[[Mapping[str, Any]], Mapping[str, Any]] | None = None,
        coalesce: bool = True,
        max_crash_retries: int = 1,
        retry_policy: RetryPolicy | None = None,
        journal: Journal | str | os.PathLike | None = None,
        resume: bool = False,
        heartbeat_deadline_s: float | None = None,
        heartbeat_interval_s: float = 0.2,
        mp_context=None,
        telemetry: ServeTelemetry | str | os.PathLike | None = None,
        slo: SloPolicy | Mapping[str, float] | None = None,
        map_store: str | os.PathLike | None = None,
        admission: Admission | None = None,
    ) -> None:
        if shards < 1:
            raise ReproError(f"shards must be >= 1, got {shards}")
        if queue_size < 1:
            raise ReproError(f"queue_size must be >= 1, got {queue_size}")
        if resume and journal is None:
            raise ReproError("resume=True requires a journal")
        if isinstance(journal, Journal) and shards > 1:
            raise ReproError(
                "a partitioned server journals per shard; pass a base path"
            )
        self.shards = int(shards)
        self.queue_size = int(queue_size)
        self.default_timeout_s = default_timeout_s
        self.coalesce = bool(coalesce)
        self.resume = bool(resume)
        self.admission = admission
        self._runner = runner if runner is not None else execute_job
        self._owns_telemetry = not isinstance(telemetry, ServeTelemetry)
        if self._owns_telemetry and (telemetry is not None or slo is not None):
            telemetry = ServeTelemetry(telemetry, slo=slo)
        elif telemetry is not None and slo is not None and telemetry.policy is None:
            telemetry.policy = slo if isinstance(slo, SloPolicy) else SloPolicy(slo)
        self._telemetry: ServeTelemetry | None = telemetry
        # With telemetry on, jobs execute under the worker-side capture
        # wrapper (span tree + metrics delta shipped back in the payload).
        # functools.partial of two top-level functions pickles cleanly.
        self._dispatch_runner = (
            functools.partial(run_with_telemetry, self._runner)
            if self._telemetry is not None
            else self._runner
        )
        journals: list[Journal | None] = [None] * self.shards
        self.journal_path: str | None = None
        if isinstance(journal, Journal):
            journals = [journal]
            self.journal_path = journal.path
        elif journal is not None:
            self.journal_path = os.fspath(journal)
            journals = [
                Journal(shard_journal_path(self.journal_path, k, self.shards))
                for k in range(self.shards)
            ]
        for opened in journals:
            if opened is None:
                continue
            state = opened.state
            if not resume and state.n_records:
                raise ReproError(
                    f"journal {opened.path} already holds "
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
                        path=opened.path,
                        done=len(state.done),
                        pending=len(state.pending()),
                        corrupt=len(state.corrupt),
                    )
                )
        # Partitioned resume also replays the base journal (a merged
        # journal from an earlier run) and every partition's records, so
        # done work resolves no matter which partition (or reroute)
        # originally finished it.  An ok record outranks a dead letter.
        resumed = JournalState()
        if self.resume and self.shards > 1:
            for state in [replay_journal(self.journal_path)] + [
                opened.state for opened in journals
            ]:
                resumed.absorb(state)
        self._resumed = resumed.done
        if map_store is not None:
            # Same lenient contract as REPRO_MAP_STORE: an unusable path
            # warns and runs storeless rather than refusing to serve.
            map_store = validate_store_path(os.fspath(map_store))
        self.map_store = map_store
        self._workers = workers if workers is not None else os.cpu_count()
        self._retry_policy = retry_policy
        self._pool_options = dict(
            inline=False,
            max_crash_retries=max_crash_retries,
            heartbeat_deadline_s=heartbeat_deadline_s,
            heartbeat_interval_s=heartbeat_interval_s,
            mp_context=mp_context,
            on_event=(
                self._telemetry.pool_event
                if self._telemetry is not None else None
            ),
            map_store=map_store,
        )
        self._breaker_threshold = BREAKER_THRESHOLD if self.shards > 1 else None
        # Specs are keyed once at submission: routing, coalescing and the
        # journal all use the key.
        self._keyed = self.shards > 1 or self.coalesce or journal is not None
        self._state = threading.Condition()
        self._seq = 0
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
        self._reroutes: deque[Job] = deque()
        self._parts = [
            _Partition(self, k, journals[k], _Breaker(), self.resume)
            for k in range(self.shards)
        ]
        self.workers = sum(part.pool.workers for part in self._parts)
        obs_metrics.gauge("serve.workers").set(float(self.workers))
        obs_metrics.gauge("serve.queue_size").set(float(queue_size))
        # Reroutes and admission releases are blocking handoffs into a
        # partition queue; they run on their own thread, because blocking
        # there from a scheduler thread could deadlock two draining
        # partitions against each other's full queues.
        self._feeder: threading.Thread | None = None
        if self.shards > 1 or admission is not None:
            obs_metrics.gauge("serve.shards").set(float(self.shards))
            self._feeder = threading.Thread(
                target=self._run_feeder, name="repro-serve-feeder", daemon=True
            )
            self._feeder.start()

    # -- public API ---------------------------------------------------------

    def _record(self, event: str, **fields: Any) -> None:
        """Forward one event to the telemetry hub (no-op when disabled)."""
        if self._telemetry is not None:
            self._telemetry.record(event, **fields)

    def submit(self, job: Job, block: bool = True, now: float | None = None) -> bool:
        """Accept one job.  Returns ``True`` if it was queued or admitted.

        Without admission, ``block=True`` makes a full partition queue
        exert backpressure (the call waits for room); with
        ``block=False`` a full queue *rejects*: a typed ``queue_full``
        result is recorded, ``serve.rejected`` bumps, and ``False``
        returns.  With admission the decision is immediate — admitted to
        the backlog, or rejected as ``over_quota``, ``shed_overload`` or
        ``queue_full`` — which is what an open-loop arrival process
        requires; ``now`` is the admission time for quota refill (the
        load generator passes virtual schedule time; default
        :data:`clock`).  With every partition down the job resolves as a
        typed ``shard_down`` rejection.  During a graceful drain new
        submissions resolve ``interrupted`` without executing (their
        journal record makes them resumable).
        """
        with self._state:
            if self._closed:
                raise ReproError("BatchServer is closed")
            if job.job_id in self._ids:
                raise ReproError(f"duplicate job_id {job.job_id!r}")
            self._ids.add(job.job_id)
            self._order.append(job.job_id)
            self._outstanding += 1
            direct = self.admission is None or self._draining
            if not direct:
                victim, reason, shed = self.admission.offer(
                    job, clock() if now is None else now
                )
                if victim is not job:
                    self._state.notify_all()  # the backlog grew
        if direct:
            return self._enqueue(job, block)
        if reason is None:
            obs_metrics.counter("serve.frontdoor.admitted").inc()
            return True
        fields = {}
        if shed is not None:
            obs_metrics.counter("serve.shed").inc()
            self._record("shed", **shed)
            fields["value"] = shed["value"]
        error = {
            "over_quota": f"tenant {job.tenant!r} over admission quota",
            "queue_full": (
                f"admission backlog full (limit {self.admission.backlog_limit})"
            ),
            "shed_overload": "shed under overload (lowest value in a full backlog)",
        }[reason]
        self._reject(
            victim, reason, error, counter=f"serve.frontdoor.{reason}", **fields
        )
        return victim is not job

    def drain(self) -> None:
        """Block until every accepted job has a result."""
        with self._state:
            self._state.wait_for(lambda: self._outstanding == 0)

    def interrupt(self) -> None:
        """Begin a graceful drain (the SIGINT/SIGTERM path).

        The admission backlog and queued-but-undispatched jobs resolve
        ``interrupted`` (journaled ``submitted`` records make them
        resumable); in-flight jobs finish and are journaled normally; new
        submissions are refused into ``interrupted`` results.
        :meth:`drain` / :meth:`run_batch` then return a report marked
        ``interrupted`` — exit code 4 at the CLI — and the journal gets a
        final checkpoint.
        """
        with self._state:
            if self._draining:
                return
            self._draining = True
            backlog = self.admission.drain() if self.admission is not None else []
        obs_metrics.counter("serve.interrupts").inc()
        self._record(
            "drain", queue_depth=sum(p.queue.qsize() for p in self._parts),
            backlog=len(backlog),
        )
        _log.warning(kv("serve.interrupted", journal=self.journal_path))
        for job in backlog:
            self._resolve(self._interrupted_result(job.job_id))

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
        """Compact every partition journal (no-op without a journal).

        With several partitions the compacted journals are then merged
        into the base path — the artifact a one-partition ``--resume``
        (or the next partitioned run, of any shard count) replays.
        :meth:`run_batch` checkpoints automatically; callers driving the
        server through :meth:`submit`/:meth:`drain` directly call this at
        their own batch boundaries.
        """
        for part in self._parts:
            if part.journal is not None:
                with obs_trace.span("serve.journal.checkpoint"):
                    part.journal.checkpoint()
                self._record("checkpoint", journal=part.journal.path)
        if self.shards > 1 and self.journal_path is not None:
            merge_journals(
                [part.journal.path for part in self._parts], self.journal_path
            )
            self._record("checkpoint", journal=self.journal_path)

    def run_batch(self, jobs: Iterable[Job]) -> BatchReport:
        """Submit ``jobs`` (backpressured), wait, checkpoint, and report.

        Jobs are queued in the given order; the priority queues reorder
        whatever is pending at each moment, so priorities matter exactly as
        far as the queue bound lets them — like any real admission queue.
        """
        jobs = list(jobs)
        started = time.perf_counter()
        self._record("batch_start", n_jobs=len(jobs), workers=self.workers)
        with obs_trace.span(
            "serve.run_batch",
            n_jobs=len(jobs),
            workers=self.workers,
            coalesce=self.coalesce,
        ):
            for job in jobs:
                self.submit(job, block=True)
            self.drain()
        self.checkpoint()
        wall = time.perf_counter() - started
        with self._state:
            results = tuple(self._results[job.job_id] for job in jobs)
            interrupted = self._draining
        slo_report = (
            self._telemetry.slo_report()
            if self._telemetry is not None else None
        )
        self._record(
            "batch_done", n_jobs=len(jobs), wall_s=wall,
            interrupted=interrupted,
        )
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
            queue_size=self.queue_size,
            coalesce=self.coalesce,
            resumed=self.resume,
            journal_path=self.journal_path,
            interrupted=interrupted,
            slo=slo_report,
        )

    def close(self) -> None:
        """Release the backlog, finish queued work, shut the pools down."""
        with self._state:
            if self._closed:
                return
            self._closed = True
            self._state.notify_all()
        if self._feeder is not None:
            self._feeder.join()
        for part in self._parts:
            self._retire(part)
            if part.journal is not None:
                part.journal.close()
        if self._telemetry is not None and self._owns_telemetry:
            self._telemetry.close()

    def __enter__(self) -> "BatchServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- partitions ---------------------------------------------------------

    def inject_shard_failure(self, k: int) -> None:
        """Test/chaos hook: forcibly eject partition ``k`` right now."""
        if not 0 <= k < self.shards:
            raise ReproError(f"no shard {k} (shards={self.shards})")
        if self.shards == 1:
            raise ReproError("cannot eject the only shard")
        self._eject(k, forced=True)

    def shard_states(self) -> list[dict[str, Any]]:
        """Breaker snapshot per partition (CLI/report surface)."""
        with self._state:
            return [
                {
                    "shard": part.index,
                    "state": part.breaker.state,
                    "ejections": part.breaker.ejections,
                    "consecutive_transients": part.breaker.consecutive,
                }
                for part in self._parts
            ]

    def _route(self, key: str | None) -> _Partition | None:
        """First healthy partition on the ring from the spec's home.

        May rebuild an open partition whose probe backoff has elapsed
        (the half-open trial).  Returns ``None`` when every partition is
        down.
        """
        if self.shards == 1:
            return self._parts[0]
        start = shard_of(key, self.shards)
        for step in range(self.shards):
            k = (start + step) % self.shards
            with self._state:
                breaker = self._parts[k].breaker
                probe = breaker.state == "open" and clock() >= breaker.probe_at
                if probe:
                    # This thread claims the probe; others keep routing
                    # around the partition until it turns half-open.
                    breaker.state = "probing"
                routable = probe or breaker.state in ("closed", "half_open")
            if routable and (not probe or self._probe(k)):
                return self._parts[k]
        return None

    def _probe(self, k: int) -> bool:
        """Rebuild an ejected partition from its journal, trial it half-open."""
        old = self._parts[k]
        obs_metrics.counter("serve.shard.probes").inc()
        self._record("shard_probe", shard=k, backoff_s=old.breaker.backoff_s)
        _log.info(kv("serve.shard.probe", shard=k))
        try:
            self._retire(old)
        except Exception:  # noqa: BLE001 - a wedged partition must not block recovery
            pass
        try:
            # The rebuilt partition replays its own journal: work it
            # already finished resolves instead of re-executing.
            self._parts[k] = _Partition(self, k, old.journal, old.breaker, True)
        except Exception as error:  # noqa: BLE001 - failed probe re-opens
            with self._state:
                old.breaker.open()
            _log.warning(kv("serve.shard.probe_failed", shard=k, error=str(error)))
            return False
        with self._state:
            old.breaker.state = "half_open"
            old.breaker.consecutive = 0
        return True

    def _eject(self, k: int, *, forced: bool = False) -> None:
        """Open partition ``k``'s breaker; its queued work reroutes."""
        with self._state:
            part = self._parts[k]
            breaker = part.breaker
            if breaker.state in ("open", "probing"):
                return
            breaker.open()
            part.ejected = True
            consecutive = breaker.consecutive
        obs_metrics.counter("serve.shard.ejections").inc()
        self._record(
            "shard_eject", shard=k, consecutive=consecutive,
            backoff_s=breaker.backoff_s, forced=forced,
        )
        _log.warning(
            kv(
                "serve.shard.ejected",
                shard=k,
                consecutive=consecutive,
                backoff_s=round(breaker.backoff_s, 3),
                forced=forced,
            )
        )

    def _breaker_locked(self, part: _Partition, status: str) -> bool:
        """Fold one partition outcome into its breaker; ``True`` to eject."""
        breaker = part.breaker
        if status in _TRANSIENT_RESULTS:
            breaker.consecutive += 1
            return breaker.state in ("closed", "half_open") and (
                breaker.consecutive >= self._breaker_threshold
                or breaker.state == "half_open"
            )
        if status != "interrupted":
            breaker.consecutive = 0
            if breaker.state == "half_open" and status == "ok":
                breaker.state = "closed"
                breaker.ejections = 0
                breaker.backoff_s = 0.0
                _log.info(kv("serve.shard.recovered", shard=part.index))
        return False

    def _retire(self, part: _Partition) -> None:
        """Stop a partition's scheduler and pool.

        The scheduler finishes what is queued first (the stop marker sorts
        last); a job that raced in behind the marker is given back.
        """
        part.queue.put(_STOP)
        part.thread.join()
        part.pool.shutdown()
        while True:
            try:
                _, _, job, enqueued, _ = part.queue.get_nowait()
            except queue.Empty:
                return
            if isinstance(job, _Sentinel):
                continue  # a partition retired twice (after a failed probe)
            if not self._hold_back(part, job, enqueued):
                self._resolve(self._interrupted_result(job.job_id, enqueued))

    # -- submission path ----------------------------------------------------

    def _reject(
        self, job: Job, reason: str, error: str, *, counter: str,
        part: _Partition | None = None, **fields: Any,
    ) -> None:
        # A turned-away job must be as observable as a served one: typed
        # result reason, a dedicated metric, and a flight-recorder event —
        # backpressure that is invisible reads as lost load.
        obs_metrics.counter(counter).inc()
        obs_metrics.counter("serve.rejected").inc()
        self._record(
            "rejected", job_id=job.job_id, reason=reason, tenant=job.tenant,
            **fields,
        )
        self._resolve(
            JobResult(
                job_id=job.job_id, status="rejected", error=error,
                attempts=0, reason=reason,
            ),
            part,
        )

    def _enqueue(self, job: Job, block: bool) -> bool:
        """Route ``job`` to a partition, journal it, and queue it there."""
        key = job.spec_key() if self._keyed else None
        with self._state:
            draining = self._draining
            self._seq += 1
            seq = self._seq
        if draining:
            part = self._parts[shard_of(key, self.shards) if self.shards > 1 else 0]
        else:
            part = self._route(key)
        if part is None:
            self._reject(
                job, "shard_down", "no healthy shard to route to",
                counter="serve.shard.shard_down",
            )
            return False
        if part.journal is not None:
            # Write-ahead: the submission is durable before it can run.
            part.journal.append("submitted", spec_key=key, job_id=job.job_id)
        if draining:
            self._resolve(self._interrupted_result(job.job_id))
            return False
        obs_metrics.counter("serve.jobs_submitted").inc()
        self._record(
            "enqueue", job_id=job.job_id, priority=int(job.priority),
            queue_depth=part.queue.qsize(),
        )
        item = (-int(job.priority), seq, job, time.perf_counter(), key)
        try:
            part.queue.put(item, block=block)
        except queue.Full:
            self._reject(
                job, "queue_full", f"queue full (size {self.queue_size})",
                counter="serve.jobs_rejected", part=part,
                queue_depth=part.queue.qsize(),
            )
            return False
        return True

    def _run_feeder(self) -> None:
        """Hand reroutes and released admission backlog to partitions."""
        while True:
            with self._state:
                self._state.wait_for(
                    lambda: self._closed or self._reroutes
                    or (self.admission is not None and self.admission.depth)
                )
                if self._reroutes:
                    job = self._reroutes.popleft()
                elif self.admission is not None and self.admission.depth:
                    job = self.admission.pop()
                else:
                    return
            # Blocking: a partition's bounded queue is the backpressure
            # point; the admission backlog above it is the shed point.
            self._enqueue(job, block=True)

    # -- scheduler ----------------------------------------------------------

    def _interrupted_result(self, job_id: str, enqueued: float | None = None) -> JobResult:
        obs_metrics.counter("serve.jobs_interrupted").inc()
        return JobResult(
            job_id=job_id,
            status="interrupted",
            error="batch interrupted before this job ran; resume from the journal",
            attempts=0,
            queue_wait_s=(
                time.perf_counter() - enqueued if enqueued is not None else 0.0
            ),
        )

    def _hold_back(self, part: _Partition, job: Job, enqueued: float) -> bool:
        """Give back a job ``part`` must not run; ``False`` when it may.

        During a graceful drain (or at close) the job resolves
        ``interrupted``; from an ejected partition it reroutes.
        """
        with self._state:
            if not (self._draining or part.ejected):
                return False
            reroute = not (self._draining or self._closed)
            if reroute:
                self._reroutes.append(job)
                self._state.notify_all()
        if reroute:
            obs_metrics.counter("serve.shard.reroutes").inc()
            self._record("reroute", job_id=job.job_id, from_shard=part.index)
        else:
            self._resolve(self._interrupted_result(job.job_id, enqueued))
        return True

    def _coalesced_result(
        self, job_id: str, enqueued: float, status: str,
        payload: Mapping[str, Any] | None, error: str | None,
    ) -> JobResult:
        """A result shared from another execution of the same spec."""
        obs_metrics.counter("serve.jobs_coalesced").inc()
        return JobResult(
            job_id=job_id, status=status, payload=payload, error=error,
            attempts=0, queue_wait_s=time.perf_counter() - enqueued,
            coalesced=True,
        )

    def _run_scheduler(self, part: _Partition) -> None:
        while True:
            _, _, job, enqueued, key = part.queue.get()
            if isinstance(job, _Sentinel):
                return
            if self._hold_back(part, job, enqueued):
                continue
            if part.replays and key is not None:
                record = self._resumed.get(key) or part.journal.done_record(key)
                if record is not None:
                    # A journaled outcome replays instead of re-executing.
                    status = record.get("status", "failed")
                    obs_metrics.counter(
                        "serve.journal.replayed_done" if status == "ok"
                        else "serve.journal.replayed_dead_letters"
                    ).inc()
                    self._record("replay", job_id=job.job_id, status=status)
                    self._resolve(
                        JobResult(
                            job_id=job.job_id, status=status,
                            payload=record.get("payload"),
                            error=record.get("error"), attempts=0,
                            queue_wait_s=time.perf_counter() - enqueued,
                            replayed=True,
                        ),
                        part,
                    )
                    continue
            if key is not None and self.coalesce:
                with self._state:
                    cached = self._done_cache.get(key)
                    if cached is None:
                        if key in self._inflight:
                            # Counted when the leader's result reaches it.
                            self._inflight[key].append((job, enqueued))
                            continue
                        self._inflight[key] = []
                if cached is not None:
                    self._record("coalesced", job_id=job.job_id)
                    self._resolve(
                        self._coalesced_result(job.job_id, enqueued, *cached), part
                    )
                    continue
            # Backpressure on workers: hold the job here (queue stays
            # bounded) until a worker slot frees up.
            part.slots.acquire()
            if self._hold_back(part, job, enqueued):
                # interrupt() or an ejection fired while this job waited
                # for a slot; jobs coalesced onto it go the same way.
                part.slots.release()
                with self._state:
                    followers = self._inflight.pop(key, []) if self.coalesce else []
                for follower, since in followers:
                    self._hold_back(part, follower, since)
                continue
            queue_wait = time.perf_counter() - enqueued
            obs_metrics.histogram("serve.queue_wait_s", TIME_BUCKETS_S).observe(
                queue_wait
            )
            if part.journal is not None:
                part.journal.append("started", spec_key=key)
            self._record(
                "dispatch", job_id=job.job_id, queue_wait_s=queue_wait,
            )
            timeout = job.timeout_s if job.timeout_s is not None else self.default_timeout_s
            part.pool.dispatch(
                self._dispatch_runner,
                job.to_dict(),
                timeout_s=timeout,
                retry_token=key,
                event_key=job.job_id,
                on_done=lambda outcome, p=part, j=job, k=key, w=queue_wait: (
                    self._job_done(p, j, k, w, outcome)
                ),
            )

    def _journal_outcome(
        self, journal: Journal | None, job: Job, key: str | None, status: str,
        outcome: TaskOutcome,
    ) -> None:
        """Durably record one execution outcome before results propagate."""
        if journal is None:
            return
        if status == "ok":
            journal.append(
                "done", spec_key=key, job_id=job.job_id, status="ok",
                payload=outcome.value, attempts=outcome.attempts,
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
            error=outcome.error, attempts=outcome.attempts,
        )

    def _job_telemetry(
        self,
        job: Job,
        status: str,
        payload: Mapping[str, Any] | None,
        queue_wait: float,
        outcome: TaskOutcome,
    ) -> Mapping[str, Any] | None:
        """Fold one finished job into the telemetry hub; returns its trace.

        Merges the worker's metrics delta into this process's registry,
        grafts the worker-captured span tree under the server-side per-job
        spans, records the ``done`` (and possibly ``dead_letter``) events,
        and releases the per-job accumulation.  Returns the merged trace as
        nested dicts, or ``None`` when telemetry is off.
        """
        if self._telemetry is None:
            return None
        worker_telemetry: Mapping[str, Any] = {}
        if isinstance(payload, Mapping):
            worker_telemetry = payload.get("_telemetry") or {}
        delta = worker_telemetry.get("metrics_delta")
        if delta:
            obs_metrics.registry().merge_delta(delta)
        trace_dict: Mapping[str, Any] | None = None
        try:
            span = self._telemetry.build_job_trace(
                job.job_id,
                status=status,
                attempts=outcome.attempts,
                queue_wait_s=queue_wait,
                run_s=outcome.duration_s,
                worker_trace=worker_telemetry.get("trace"),
                worker_pid=worker_telemetry.get("worker_pid"),
                cold_start=worker_telemetry.get("cold_start"),
            )
            trace_dict = span.to_dict()
        except Exception:  # noqa: BLE001 - telemetry must not fail the job
            trace_dict = None
        self._record(
            "done",
            job_id=job.job_id,
            status=status,
            attempts=outcome.attempts,
            queue_wait_s=queue_wait,
            run_s=outcome.duration_s,
            cold_start=worker_telemetry.get("cold_start"),
            trace=trace_dict,
        )
        if status == "failed":
            self._record(
                "dead_letter", job_id=job.job_id, error=outcome.error,
            )
        self._telemetry.forget_job(job.job_id)
        return trace_dict

    def _job_done(
        self, part: _Partition, job: Job, key: str | None, queue_wait: float,
        outcome: TaskOutcome,
    ) -> None:
        part.slots.release()
        status = _OUTCOME_STATUS[outcome.status]
        payload = outcome.value if outcome.status == "ok" else None
        self._journal_outcome(part.journal, job, key, status, outcome)
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
        self._resolve(result, part)
        for follower, enqueued in followers:
            self._record(
                "coalesced", job_id=follower.job_id, leader=job.job_id,
            )
            self._resolve(
                self._coalesced_result(
                    follower.job_id, enqueued, status, payload, outcome.error
                ),
                part,
            )

    def _resolve(self, result: JobResult, part: _Partition | None = None) -> None:
        """Enter one result in the ledger; ``part`` feeds its breaker."""
        with self._state:
            self._results[result.job_id] = result
            self._outstanding -= 1
            eject = (
                part is not None
                and self._breaker_threshold is not None
                and self._breaker_locked(part, result.status)
            )
            self._state.notify_all()
        if eject:
            self._eject(part.index)
