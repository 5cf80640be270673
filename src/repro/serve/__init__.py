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
  jitter, a per-task retry cap;
- :mod:`repro.serve.journal` — :class:`Journal`, the append-only, fsync'd,
  checksummed write-ahead log that makes batches crash-safe and resumable;
- :mod:`repro.serve.worker`  — the worker-side runner
  (:func:`execute_job`): job spec in, deterministic payload out;
- :mod:`repro.serve.telemetry` — per-job cross-process traces (worker
  span trees grafted under the server's queue/attempt/retry spans) and
  :class:`SloPolicy`, which judges statistics computed from a finished
  :class:`BatchReport`;
- :mod:`repro.serve.server`  — :class:`BatchServer`: ``submit`` dispatches
  in the caller's thread with backpressure at the worker slots, one worker
  pool, per-job timeouts, classified retries, request coalescing,
  journaling/resume, graceful drain, metrics, and the structured
  :class:`BatchReport`.

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

from repro.serve.job import (
    STATUSES,
    Job,
    JobResult,
    dump_jobs,
    load_jobs,
)
from repro.serve.journal import Journal, JournalState, replay_journal
from repro.serve.pool import TaskOutcome, WorkerPool
from repro.serve.retry import RetryPolicy
from repro.serve.server import BatchReport, BatchServer
from repro.serve.telemetry import ServeTelemetry, SloPolicy
from repro.serve.worker import execute_job, run_with_telemetry

__all__ = [
    "BatchReport",
    "BatchServer",
    "Job",
    "JobResult",
    "Journal",
    "JournalState",
    "RetryPolicy",
    "STATUSES",
    "ServeTelemetry",
    "SloPolicy",
    "TaskOutcome",
    "WorkerPool",
    "dump_jobs",
    "execute_job",
    "load_jobs",
    "replay_journal",
    "run_with_telemetry",
]
