"""The worker-side job runner: job spec in, deterministic payload out.

:func:`execute_job` is the default runner a :class:`repro.serve.BatchServer`
dispatches to its worker processes.  It is a *top-level function over plain
dicts* so it pickles cleanly into a ``ProcessPoolExecutor``, and it is a pure
function of the job spec: the same spec produces a bit-identical payload in
any process, which is what makes the service's results independent of worker
count and scheduling order.

Workers are long-lived, so the process-wide caches amortize across the
jobs one worker serves.  :func:`repro.core.localize.cached_delay_map` keeps
DelayMaps, and the map store (:mod:`repro.core.mapstore`) keeps head-search
outcomes across processes.  Within one worker the capture memo keeps each
capture file's :class:`~repro.core.pipeline.CaptureSolution`, so a
re-render at another angle grid only renders.  Within one job a
:class:`repro.signals.channel.ProbeChannelBank` holds each deconvolution.
With telemetry on, each payload's ``_telemetry`` block carries the job's
metrics delta, which is where a batch report reads what the caches and
the map store earned.
"""

from __future__ import annotations

import hashlib
import io
import json
import multiprocessing
import os
import threading
import time
from collections import OrderedDict
from typing import Any, Mapping

from repro.datasets import load_session
from repro.errors import ReproError, TableError
from repro.hrtf.io import table_digest
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.core.pipeline import CaptureSolution, Uniq, capture_config

__all__ = [
    "clear_capture_memo",
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


#: Spec fields the capture solve reads.  With the SHA-256 of the capture
#: file's bytes they key the capture memo.
_SOLVE_FIELDS = ("deconv", "enforce_gesture_check", "fault", "fault_args")

#: Spec fields :func:`personalize_spec` reads that do not key the memo.
#: The grid step is read only by the render; the crash hook runs before
#: the lookup, on every attempt; the path is keyed by the bytes read from
#: it; and the simulation fields describe captures without a file, which
#: are never memoized.
_UNKEYED_SPEC_FIELDS = (
    "angle_step_deg",
    "crash_marker",
    "session_path",
    "subject_seed",
    "session_seed",
    "probe_interval_s",
)

#: Solutions the capture memo holds.  A 34-probe capture's solution keeps
#: about 125 KB alive (78 KB of it the HRIR windows), so about 4 MB when
#: full.
_CAPTURE_MEMO_MAX = 32
_CAPTURE_MEMO: OrderedDict[tuple, CaptureSolution] = OrderedDict()
_CAPTURE_MEMO_LOCK = threading.Lock()


def _recall_capture(key: tuple) -> CaptureSolution | None:
    with _CAPTURE_MEMO_LOCK:
        solution = _CAPTURE_MEMO.get(key)
        if solution is not None:
            _CAPTURE_MEMO.move_to_end(key)
        return solution


def _remember_capture(key: tuple, solution: CaptureSolution) -> None:
    with _CAPTURE_MEMO_LOCK:
        _CAPTURE_MEMO[key] = solution
        _CAPTURE_MEMO.move_to_end(key)
        while len(_CAPTURE_MEMO) > _CAPTURE_MEMO_MAX:
            _CAPTURE_MEMO.popitem(last=False)


def clear_capture_memo() -> None:
    """Forget every memoized capture solution (counters are kept)."""
    with _CAPTURE_MEMO_LOCK:
        _CAPTURE_MEMO.clear()


def _capture_key(data: bytes, spec: Mapping[str, Any]) -> tuple:
    """Memo key: the capture's bytes and every spec field the solve reads."""
    fields = json.dumps(
        [spec.get(name) for name in _SOLVE_FIELDS], sort_keys=True, default=repr
    )
    return hashlib.sha256(data).hexdigest(), fields


def _read_capture(path: str | os.PathLike) -> bytes:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError as error:
        raise TableError(f"cannot read session file {path}: {error}") from error


def _parse_capture(data: bytes, path: str | os.PathLike):
    """The session in the bytes that were hashed: the file is never read
    twice, so a digest cannot be paired with another version of it."""
    buffer = io.BytesIO(data)
    buffer.name = os.fspath(path)
    return load_session(buffer)


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

    A capture file is read once and hashed.  When this process has already
    solved those bytes under the same solve fields, the solution is taken
    from the capture memo and only rendered at the spec's grid; ``session``
    is then ``None``, as the file was not parsed.  Only successful solves
    are memoized, and simulated captures never are.
    """
    maybe_crash(spec)

    process_fault = False
    if spec.get("fault"):
        # Process-level faults (worker kill/hang/slow start) act on this
        # worker, not the capture — apply before any expensive simulation.
        from repro.testing.faults import apply_process_fault

        process_fault = apply_process_fault(spec)

    uniq = Uniq(
        capture_config(
            spec.get("angle_step_deg", 5.0),
            spec.get("enforce_gesture_check", True),
            spec.get("deconv", "auto") or "auto",
        )
    )
    key = None
    if spec.get("session_path") is not None:
        path = spec["session_path"]
        data = _read_capture(path)
        key = _capture_key(data, spec)
        solution = _recall_capture(key)
        if solution is not None:
            obs_metrics.counter("serve.capture_memo_hits").inc()
            with uniq.personalize_span(solution.n_probes, solution.fs):
                return None, uniq.render(solution)
        obs_metrics.counter("serve.capture_memo_misses").inc()
        session = _parse_capture(data, path)
        del data  # the solve needs only the parsed session
    else:
        session = _simulated_session(spec)
    if spec.get("fault") and not process_fault:
        from repro.testing.faults import apply_fault

        session = apply_fault(
            session, spec["fault"], **dict(spec.get("fault_args") or {})
        )

    with uniq.personalize_span(session.n_probes, session.fs):
        solution = uniq.solve(session)
        if key is not None:
            _remember_capture(key, solution)
        return session, uniq.render(solution)


def execute_job(spec: Mapping[str, Any]) -> dict[str, Any]:
    """Run one personalization job and return its deterministic payload.

    Raises :class:`repro.errors.ReproError` subclasses for *job* failures
    (bad spec, corrupted capture, failed gesture check) — the server records
    those as ``status="failed"`` without disturbing the rest of the batch.
    """
    _, result = personalize_spec(spec)
    a, b, c = result.head_parameters
    salvage = (result.quality.salvage or {}) if result.quality else {}
    return {
        "head_parameters": [float(a), float(b), float(c)],
        "residual_deg": float(result.fusion.residual_deg),
        "gyro_bias_dps": float(result.fusion.gyro_bias_dps),
        "n_probes": int(result.fusion.n_probes),
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
    """Simulate the capture a spec without a ``session_path`` describes."""
    from repro.simulation.person import VirtualSubject
    from repro.simulation.session import MeasurementSession

    subject = VirtualSubject.random(int(spec.get("subject_seed", 0) or 0))
    return MeasurementSession(
        subject,
        seed=int(spec.get("session_seed", 0)),
        probe_interval_s=float(spec.get("probe_interval_s", 0.4)),
    ).run()
