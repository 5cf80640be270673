"""Cheap, pickleable job runners for exercising the serve machinery.

A real personalization takes seconds; queueing, coalescing, backpressure,
priorities, crash retry, and order/worker-count invariance are properties of
the *service*, not of the pipeline, so the serve tests (and the hypothesis
property suite) exercise them with these millisecond runners instead.  Each
is a top-level function over a job-spec dict — the exact contract of
:func:`repro.serve.worker.execute_job` — so it pickles into worker
processes.

All runners are pure functions of the spec's compute fields (the ones in
:meth:`repro.serve.job.Job.spec_key`), so the server's determinism guarantee
is testable against them: same spec, same payload, bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import time
from typing import Any, Mapping

from repro.errors import ReproError
from repro.obs import metrics as obs_metrics
from repro.serve.worker import maybe_crash
from repro.testing.faults import apply_process_fault

__all__ = [
    "digest_runner",
    "fleet_runner",
    "sleepy_runner",
]

#: fault name that makes :func:`digest_runner` raise (job-failure path).
FAILING_FAULT = "synthetic-failure"


def _spec_digest(spec: Mapping[str, Any]) -> str:
    """SHA-256 over the compute-relevant spec fields only."""
    compute = {
        key: spec.get(key)
        for key in (
            "subject_seed",
            "session_path",
            "session_seed",
            "probe_interval_s",
            "angle_step_deg",
            "enforce_gesture_check",
            "fault",
            "fault_args",
        )
    }
    if compute.get("fault_args"):
        compute["fault_args"] = dict(sorted(compute["fault_args"].items()))
    blob = json.dumps(compute, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def _fail_if_requested(spec: Mapping[str, Any]) -> None:
    """Raise the job failure :data:`FAILING_FAULT` asks for.

    The message names the spec digest, never the ``job_id``: a coalesced
    follower inherits its leader's error, so the error must be a pure
    function of the spec like the rest of the deterministic result.
    """
    if spec.get("fault") == FAILING_FAULT:
        raise ReproError(f"synthetic failure for spec {_spec_digest(spec)[:12]}")


def digest_runner(spec: Mapping[str, Any]) -> dict[str, Any]:
    """Hash the spec — the fastest possible deterministic "payload".

    Honors ``crash_marker`` (die once, succeed on retry) and treats
    ``fault == FAILING_FAULT`` as a job failure, mirroring the two
    unhappy paths of the real runner.
    """
    maybe_crash(spec)
    apply_process_fault(spec)
    _fail_if_requested(spec)
    # Worker-side instrumentation: lets the serve tests observe the
    # cross-process metrics export (the delta rides home with the payload).
    obs_metrics.counter("workload.digest_jobs").inc()
    return {
        "digest": _spec_digest(spec),
        "subject_seed": spec.get("subject_seed"),
    }


def fleet_runner(spec: Mapping[str, Any]) -> dict[str, Any]:
    """Synthetic per-subject fleet metrics (see :mod:`repro.eval.fleet`).

    Mirrors :func:`digest_runner`'s unhappy paths (crash markers, process
    faults, :data:`FAILING_FAULT`) so the fleet harness exercises the same
    service machinery, then returns the deterministic subject metrics.
    Imports the fleet model lazily: workloads must stay importable without
    pulling the eval package into every worker.
    """
    maybe_crash(spec)
    apply_process_fault(spec)
    _fail_if_requested(spec)
    from repro.eval.fleet import subject_metrics

    obs_metrics.counter("fleet.subject_jobs").inc()
    return subject_metrics(spec)


def sleepy_runner(spec: Mapping[str, Any]) -> dict[str, Any]:
    """Like :func:`digest_runner` but sleeps ``fault_args['sleep_s']`` first.

    The knob backpressure and timeout tests turn to make workers busy for
    a controlled interval.
    """
    time.sleep(float((spec.get("fault_args") or {}).get("sleep_s", 0.05)))
    return digest_runner(spec)

