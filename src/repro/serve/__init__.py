"""repro.serve — batch personalization as a managed workload.

The production layer over the one-shot pipeline: many users' captures in,
one managed batch out.  The pieces:

- :mod:`repro.serve.job`     — :class:`Job`/:class:`JobResult` dataclasses
  and the JSONL job-spec format;
- :mod:`repro.serve.pool`    — :class:`WorkerPool`, the crash-tolerant,
  timeout-aware process pool with a hung-worker watchdog (also the engine
  under :func:`repro.eval.common.get_cohort`);
- :mod:`repro.serve.retry`   — :class:`RetryPolicy`: transient-vs-permanent
  failure classification, capped exponential backoff with deterministic
  jitter, per-batch retry budget;
- :mod:`repro.serve.journal` — :class:`Journal`, the append-only, fsync'd,
  checksummed write-ahead log that makes batches crash-safe and resumable;
- :mod:`repro.serve.worker`  — the worker-side runner
  (:func:`execute_job`): job spec in, deterministic payload out;
- :mod:`repro.serve.telemetry` — the flight recorder (fsync'd JSONL event
  stream + rollups), :class:`SloTracker`/:class:`SloPolicy`, and
  :class:`ServeTelemetry`, which grafts worker-captured span trees into
  per-job cross-process traces (rendered by ``repro.cli timeline``);
- :mod:`repro.serve.server`  — :class:`BatchServer`: bounded priority queues,
  backpressure, per-job timeouts, classified retries, request coalescing,
  journaling/resume, graceful drain, metrics, and the structured
  :class:`BatchReport`; optionally hash-partitioned (``shards``) into
  failure domains with per-partition journals, circuit-breaker brownouts
  (ejection, reroute, probe-back), and journal merging back to a single
  resumable file;
- :mod:`repro.serve.admission` — :class:`Admission`, the optional policy
  a server admits through: per-tenant token-bucket quotas, weighted-fair
  (stride) release of a bounded backlog, and value-based load shedding
  with typed rejections;
- :mod:`repro.serve.shed`    — the shed-value model
  (priority + expected confidence) and the offline
  :func:`verify_shed_ordering` invariant checker.

Quickstart::

    from repro.serve import BatchServer, Job

    jobs = [Job(job_id=f"u{i}", subject_seed=i) for i in range(32)]
    with BatchServer(workers=4, journal="batch.journal") as server:
        report = server.run_batch(jobs)
    report.save("batch_report.json")

Or from the command line (resumable after a crash or Ctrl-C)::

    python -m repro.cli batch --jobs jobs.jsonl --workers 4 \
        --journal batch.journal --report batch_report.json
    python -m repro.cli batch --jobs jobs.jsonl --workers 4 \
        --journal batch.journal --resume --report batch_report.json
"""

from repro.serve.admission import Admission, TenantQuota, TokenBucket
from repro.serve.job import (
    REJECTION_REASONS,
    STATUSES,
    Job,
    JobResult,
    dump_jobs,
    load_jobs,
)
from repro.serve.journal import (
    Journal,
    JournalState,
    merge_journals,
    replay_journal,
)
from repro.serve.pool import TaskOutcome, WorkerPool
from repro.serve.retry import RetryPolicy
from repro.serve.server import (
    DEFAULT_QUEUE_SIZE,
    BatchReport,
    BatchServer,
    shard_journal_path,
    shard_of,
)
from repro.serve.shed import estimate_confidence, job_value, verify_shed_ordering
from repro.serve.telemetry import (
    FlightRecorder,
    ServeTelemetry,
    SloPolicy,
    SloTracker,
    read_events,
)
from repro.serve.worker import execute_job, run_with_telemetry

__all__ = [
    "Admission",
    "BatchReport",
    "BatchServer",
    "DEFAULT_QUEUE_SIZE",
    "FlightRecorder",
    "Job",
    "JobResult",
    "Journal",
    "JournalState",
    "REJECTION_REASONS",
    "RetryPolicy",
    "STATUSES",
    "ServeTelemetry",
    "SloPolicy",
    "SloTracker",
    "TaskOutcome",
    "TenantQuota",
    "TokenBucket",
    "WorkerPool",
    "dump_jobs",
    "estimate_confidence",
    "execute_job",
    "job_value",
    "load_jobs",
    "merge_journals",
    "read_events",
    "replay_journal",
    "run_with_telemetry",
    "shard_journal_path",
    "shard_of",
    "verify_shed_ordering",
]
