"""The worker-side job runner: job spec in, deterministic payload out.

:func:`execute_job` is the default runner a :class:`repro.serve.BatchServer`
dispatches to its worker processes.  It is a *top-level function over plain
dicts* so it pickles cleanly into a ``ProcessPoolExecutor``, and it is a pure
function of the job spec: the same spec produces a bit-identical payload in
any process, which is what makes the service's results independent of worker
count and scheduling order.

Workers are long-lived, so the process-wide caches PR 2 introduced —
:func:`repro.core.localize.cached_delay_map` across jobs, the per-session
:class:`repro.signals.channel.ProbeChannelBank` within one — amortize
exactly as they do in a single-process run.  With telemetry on, each
payload's ``_telemetry`` block carries the job's metrics delta, which is
where a batch report reads what the caches and the map store earned.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from typing import Any, Mapping

from repro.datasets import load_session
from repro.errors import ReproError
from repro.hrtf.io import table_digest
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.core.pipeline import personalize_capture

__all__ = [
    "execute_job",
    "maybe_crash",
    "personalize_spec",
    "run_with_telemetry",
]

#: Jobs completed in *this* process since import.  With the fork start
#: method workers inherit the parent's zero, so the first job each worker
#: executes sees 0 here — the definition of a cold start (stone-cold
#: DelayMap / channel-bank caches).
_jobs_in_process = 0


def run_with_telemetry(
    runner: "Callable[[Mapping[str, Any]], Mapping[str, Any]]",
    spec: Mapping[str, Any],
) -> Any:
    """Run ``runner(spec)`` under the span tracer and export what happened.

    The worker-side half of cross-process telemetry: the job executes under
    :func:`repro.obs.trace.capturing` inside a ``serve.worker.job`` root
    span (the instrumented pipeline hangs its own stage spans beneath it),
    and the process-global metrics registry is snapshotted before and
    after.  The finished span tree, the metrics delta, the worker pid, and
    the cold-start marker ship back inside the payload under the
    operational ``_telemetry`` key — excluded from the determinism contract
    like every underscore key, so telemetry-on payloads stay bit-identical
    on their deterministic fields.

    Dispatched via ``functools.partial(run_with_telemetry, runner)``, which
    pickles into worker processes as long as ``runner`` does (it already
    must).  Only mapping payloads can carry telemetry; any other return
    type passes through untouched.
    """
    global _jobs_in_process
    cold_start = _jobs_in_process == 0
    registry = obs_metrics.registry()
    before = registry.snapshot()
    obs_trace.clear()
    started = time.perf_counter()
    with obs_trace.capturing():
        with obs_trace.span(
            "serve.worker.job",
            job_id=spec.get("job_id"),
            worker_pid=os.getpid(),
            cold_start=cold_start,
        ):
            payload = runner(spec)
    _jobs_in_process += 1
    root = obs_trace.last_trace()
    if not isinstance(payload, Mapping):
        return payload
    payload = dict(payload)
    payload["_telemetry"] = {
        "worker_pid": os.getpid(),
        "cold_start": cold_start,
        "compute_s": time.perf_counter() - started,
        "trace": root.to_dict() if root is not None else None,
        "metrics_delta": obs_metrics.diff_snapshots(before, registry.snapshot()),
    }
    return payload


def maybe_crash(spec: Mapping[str, Any]) -> None:
    """Honor a job's ``crash_marker`` test hook.

    The first process to execute the job creates the marker file and dies
    with ``os._exit`` — an un-catchable worker death, exactly what a
    segfaulting native library or an OOM kill looks like to the pool.  Any
    later attempt finds the marker and runs normally, so a server with
    crash-retry enabled completes the job on its second try.

    Refuses to kill the main process: if the runner is executing inline
    (serial mode, no subprocess) the hook raises instead of exiting.
    """
    marker = spec.get("crash_marker")
    if not marker or os.path.exists(marker):
        return
    with open(marker, "w") as handle:
        handle.write(f"crashed in pid {os.getpid()}\n")
    if multiprocessing.parent_process() is None:
        raise ReproError(
            "crash_marker fired in the main process; use workers >= 1 "
            "subprocess mode to exercise crash handling"
        )
    os._exit(77)


def personalize_spec(spec: Mapping[str, Any]):
    """Personalize the capture a job spec names: ``(session, result)``.

    The one spec → :class:`~repro.core.pipeline.PersonalizationResult`
    path shared by :func:`execute_job` and the fleet runner
    (:func:`repro.eval.fleet.score_job`): honors the ``crash_marker`` hook
    and process faults, loads or simulates the capture, applies any
    capture fault, and runs the pipeline.
    """
    maybe_crash(spec)

    process_fault = False
    if spec.get("fault"):
        # Process-level faults (worker kill/hang/slow start) act on this
        # worker, not the capture — apply before any expensive simulation.
        from repro.testing.faults import apply_process_fault

        process_fault = apply_process_fault(spec)

    session = None
    if spec.get("session_path") is not None:
        session = load_session(spec["session_path"])
    if spec.get("fault") and not process_fault:
        from repro.testing.faults import apply_fault

        if session is None:
            session = _simulated_session(spec)
        session = apply_fault(
            session, spec["fault"], **dict(spec.get("fault_args") or {})
        )

    return personalize_capture(
        subject_seed=spec.get("subject_seed", 0) or 0,
        session_seed=spec.get("session_seed", 0),
        probe_interval_s=spec.get("probe_interval_s", 0.4),
        angle_step_deg=spec.get("angle_step_deg", 5.0),
        enforce_gesture_check=spec.get("enforce_gesture_check", True),
        session=session,
        deconv=spec.get("deconv", "auto") or "auto",
    )


def execute_job(spec: Mapping[str, Any]) -> dict[str, Any]:
    """Run one personalization job and return its deterministic payload.

    Raises :class:`repro.errors.ReproError` subclasses for *job* failures
    (bad spec, corrupted capture, failed gesture check) — the server records
    those as ``status="failed"`` without disturbing the rest of the batch.
    """
    session, result = personalize_spec(spec)
    a, b, c = result.head_parameters
    salvage = (result.quality.salvage or {}) if result.quality else {}
    return {
        "head_parameters": [float(a), float(b), float(c)],
        "residual_deg": float(result.fusion.residual_deg),
        "gyro_bias_dps": float(result.fusion.gyro_bias_dps),
        "n_probes": int(session.n_probes),
        "n_angles": int(result.table.n_angles),
        "table_digest": table_digest(result.table),
        "confidence": float(result.confidence),
        "deconv": {
            "method": str(salvage.get("deconv_method", "inverse")),
            "rung": int(salvage.get("deconv_rung", 0)),
        },
        "quality": result.quality.to_dict() if result.quality else None,
    }


def _simulated_session(spec: Mapping[str, Any]):
    """Simulate the capture alone (needed to apply a fault before the run)."""
    from repro.simulation.person import VirtualSubject
    from repro.simulation.session import MeasurementSession

    subject = VirtualSubject.random(int(spec.get("subject_seed", 0) or 0))
    return MeasurementSession(
        subject,
        seed=int(spec.get("session_seed", 0)),
        probe_interval_s=float(spec.get("probe_interval_s", 0.4)),
    ).run()
