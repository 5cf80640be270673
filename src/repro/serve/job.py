"""Job specifications and results for the batch personalization service.

A :class:`Job` names one personalization to run — either a seeded virtual
capture (``subject_seed`` + ``session_seed``) or an on-disk session file
(``session_path``, as written by :func:`repro.datasets.save_session`) — plus
the service-level knobs: per-job timeout and optional fault
injection (tests).  Jobs round-trip through a JSONL file (one JSON object
per line, ``#`` comment lines allowed), the on-disk queue format the
``repro.cli batch`` subcommand consumes.

A :class:`JobResult` separates the **deterministic payload** (head
parameters, residual, table digest — a pure function of the job spec) from
the **operational record** (status timing, attempts, queue wait).  The
service's core guarantee — any worker count, any submission order, same
results — is stated over :meth:`JobResult.deterministic`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from repro.errors import ReproError

__all__ = [
    "Job",
    "JobResult",
    "STATUSES",
    "load_jobs",
    "dump_jobs",
]

#: Every terminal state a job can reach.  ``interrupted`` marks a job a
#: graceful drain (SIGINT/SIGTERM) gave back unexecuted — the write-ahead
#: journal still holds its ``submitted`` record, so a ``--resume`` run
#: picks it up.
STATUSES = ("ok", "failed", "timeout", "crashed", "interrupted")


@dataclass(frozen=True)
class Job:
    """One unit of batch-personalization work.

    Attributes
    ----------
    job_id:
        Caller-chosen unique identifier (the JSONL key results join on).
    subject_seed / session_seed / probe_interval_s:
        The seeded virtual capture to simulate (mutually exclusive with
        ``session_path``).
    session_path:
        An existing capture ``.npz`` written by
        :func:`repro.datasets.save_session`.
    angle_step_deg:
        Output table resolution.
    timeout_s:
        Per-job wall-clock budget; ``None`` uses the server default.
    enforce_gesture_check:
        As :class:`repro.core.pipeline.UniqConfig`.
    deconv:
        Deconvolution strategy: ``"auto"`` (the default escalation
        ladder) or one of :data:`repro.signals.deconvolve.LADDER` to pin
        a single rung.  Part of the spec key when pinned.
    fault / fault_args:
        Optional :mod:`repro.testing.faults` injection applied to the
        capture before personalizing — how tests corrupt exactly one job
        inside a batch.
    crash_marker:
        Test hook: a file path; the first worker to execute this job
        creates the file and kills its own process, later attempts run
        normally.  Exercises the service's crash-retry path end to end.
    params:
        Free-form runner parameters (JSON-serializable), for runners that
        need compute-relevant knobs beyond the capture spec — the fleet
        harness tags each job with its stratum here.  Part of
        the spec key (two jobs differing only in ``params`` are different
        computations); omitted from keys and JSONL when empty, so specs
        without it keep their exact pre-``params`` representation.
    """

    job_id: str
    subject_seed: int | None = None
    session_path: str | None = None
    session_seed: int = 0
    probe_interval_s: float = 0.4
    angle_step_deg: float = 5.0
    timeout_s: float | None = None
    enforce_gesture_check: bool = True
    deconv: str = "auto"
    fault: str | None = None
    fault_args: Mapping[str, Any] = field(default_factory=dict)
    crash_marker: str | None = None
    params: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.job_id:
            raise ReproError("job_id must be a non-empty string")
        has_seed = self.subject_seed is not None
        has_path = self.session_path is not None
        if has_seed == has_path:
            raise ReproError(
                f"job {self.job_id!r} must set exactly one of subject_seed "
                f"or session_path"
            )
        if self.deconv != "auto":
            from repro.signals.deconvolve import LADDER

            if self.deconv not in LADDER:
                raise ReproError(
                    f"job {self.job_id!r} names unknown deconvolution "
                    f"{self.deconv!r}; known: ['auto', "
                    + ", ".join(repr(m) for m in LADDER)
                    + "]"
                )
        if self.fault is not None:
            self._validate_fault()

    def _validate_fault(self) -> None:
        """Fail a bad fault spec at load time, not deep inside a worker.

        Checks the name against the :data:`repro.testing.faults.FAULTS`
        registry and binds ``fault_args`` against the helper's signature,
        so a typo'd JSONL line rejects the whole file immediately instead
        of failing one job minutes into a batch.
        """
        import inspect

        from repro.testing.faults import FAULTS

        if self.fault not in FAULTS:
            raise ReproError(
                f"job {self.job_id!r} names unknown fault {self.fault!r}; "
                f"known: {sorted(FAULTS)}"
            )
        signature = inspect.signature(FAULTS[self.fault])
        try:
            signature.bind(None, **dict(self.fault_args))
        except TypeError as error:
            raise ReproError(
                f"job {self.job_id!r}: fault_args {dict(self.fault_args)!r} "
                f"do not fit fault {self.fault!r}{signature}: {error}"
            ) from None

    def spec_key(self) -> str:
        """Canonical key of the *computation* this job asks for.

        Excludes ``job_id`` and ``timeout_s`` — two jobs
        with equal keys produce bit-identical payloads, which is what lets
        the server coalesce duplicate requests onto one execution.
        """
        record = {
            "subject_seed": self.subject_seed,
            "session_path": self.session_path,
            "session_seed": self.session_seed,
            "probe_interval_s": self.probe_interval_s,
            "angle_step_deg": self.angle_step_deg,
            "enforce_gesture_check": self.enforce_gesture_check,
            "fault": self.fault,
            "fault_args": dict(sorted(self.fault_args.items())),
            "crash_marker": self.crash_marker,
        }
        if self.deconv != "auto":
            # Only when pinned: keys of auto jobs stay exactly as they
            # were, so pre-ladder journals replay unchanged.
            record["deconv"] = self.deconv
        if self.params:
            # Only when present: keys of params-less jobs stay exactly as
            # they were, so pre-params journals replay unchanged.
            record["params"] = dict(sorted(self.params.items()))
        return json.dumps(record, sort_keys=True)

    def to_dict(self) -> dict[str, Any]:
        """The JSONL representation (defaults omitted for readability)."""
        record: dict[str, Any] = {"job_id": self.job_id}
        if self.subject_seed is not None:
            record["subject_seed"] = self.subject_seed
        if self.session_path is not None:
            record["session_path"] = self.session_path
        defaults = {
            "session_seed": 0,
            "probe_interval_s": 0.4,
            "angle_step_deg": 5.0,
            "timeout_s": None,
            "enforce_gesture_check": True,
            "deconv": "auto",
            "fault": None,
            "crash_marker": None,
        }
        for name, default in defaults.items():
            value = getattr(self, name)
            if value != default:
                record[name] = value
        if self.fault_args:
            record["fault_args"] = dict(self.fault_args)
        if self.params:
            record["params"] = dict(self.params)
        return record

    @classmethod
    def from_dict(cls, record: Mapping[str, Any]) -> "Job":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(record) - known
        if unknown:
            raise ReproError(
                f"job spec has unknown fields {sorted(unknown)}; "
                f"known: {sorted(known)}"
            )
        return cls(**dict(record))


@dataclass(frozen=True)
class JobResult:
    """The outcome of one job.

    ``payload`` is whatever the job runner returned (for the personalize
    runner: head parameters, residual, gyro bias, probe/angle counts, and
    the table digest) and is a pure function of the job spec; ``status``,
    ``error`` and the runner identity complete the deterministic part.
    ``attempts``, ``queue_wait_s``, ``run_s``, ``coalesced``, and
    ``replayed`` describe how this particular execution went and are
    excluded from :meth:`deterministic`.  ``replayed=True`` marks a result
    restored from a write-ahead journal's ``done`` record instead of being
    re-executed — bit-identical to the original execution by the
    determinism contract, with ``attempts=0``.

    ``trace`` (telemetry-enabled servers only) is the job's merged span
    tree as nested dicts — the server-side submit → queue → attempt(s) →
    done spans with the worker-captured pipeline trace grafted under the
    final attempt.  Purely operational: excluded from
    :meth:`deterministic`, and :meth:`to_dict` emits the key only when a
    trace exists, so telemetry-off reports stay bit-identical to
    pre-telemetry ones.
    """

    job_id: str
    status: str
    payload: Mapping[str, Any] | None = None
    error: str | None = None
    attempts: int = 1
    queue_wait_s: float = 0.0
    run_s: float = 0.0
    coalesced: bool = False
    replayed: bool = False
    trace: Mapping[str, Any] | None = None

    def __post_init__(self) -> None:
        if self.status not in STATUSES:
            raise ReproError(
                f"unknown job status {self.status!r}; known: {STATUSES}"
            )

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def deterministic(self) -> dict[str, Any]:
        """The part of the result that must not depend on scheduling.

        Payload keys starting with ``_`` (operational stats a runner tucks
        in, e.g. worker pid and cache hit deltas) are excluded — they
        legitimately differ between executions of the same spec.
        """
        payload = None
        if self.payload is not None:
            payload = {
                key: value
                for key, value in self.payload.items()
                if not key.startswith("_")
            }
        return {
            "job_id": self.job_id,
            "status": self.status,
            "payload": payload,
            "error": self.error,
        }

    def to_dict(self) -> dict[str, Any]:
        record = self.deterministic()
        record.update(
            attempts=self.attempts,
            queue_wait_s=self.queue_wait_s,
            run_s=self.run_s,
            coalesced=self.coalesced,
            replayed=self.replayed,
        )
        if self.trace is not None:
            record["trace"] = self.trace
        return record


def load_jobs(path: str | os.PathLike) -> tuple[Job, ...]:
    """Parse a JSONL job file; blank lines and ``#`` comments are skipped.

    Job ids must be unique — a duplicated id would make the batch report
    ambiguous, so it fails loudly here.
    """
    jobs: list[Job] = []
    seen: set[str] = set()
    with open(os.fspath(path)) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise ReproError(
                    f"{path}:{lineno}: not valid JSON: {error}"
                ) from error
            job = Job.from_dict(record)
            if job.job_id in seen:
                raise ReproError(
                    f"{path}:{lineno}: duplicate job_id {job.job_id!r}"
                )
            seen.add(job.job_id)
            jobs.append(job)
    if not jobs:
        raise ReproError(f"{path}: no jobs found")
    return tuple(jobs)


def dump_jobs(jobs: Iterable[Job], path: str | os.PathLike) -> None:
    """Write jobs as JSONL (the inverse of :func:`load_jobs`)."""
    with open(os.fspath(path), "w") as handle:
        for job in jobs:
            handle.write(json.dumps(job.to_dict(), sort_keys=True) + "\n")
