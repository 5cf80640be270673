"""Deterministic capture-degradation ("fault injection") helpers.

A home measurement meets clipped audio, missing probes, loud rooms, and
broken hardware.  Every helper here takes a finished
:class:`~repro.simulation.session.SessionData` and returns a degraded copy —
the session object is immutable, so the original is never touched and two
calls with the same arguments produce bit-identical degraded sessions.

The robustness suite (``tests/test_robustness.py``) uses these directly; the
batch-serving layer accepts a ``fault`` spec on a :class:`repro.serve.Job`
and routes it through :func:`apply_fault`, which is how the serve tests
corrupt exactly one capture inside a batch.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from dataclasses import replace
from typing import Any, Mapping

import numpy as np

from repro.errors import ReproError
from repro.simulation.imu import IMUTrace
from repro.simulation.session import ProbeMeasurement, SessionData

__all__ = [
    "FAULTS",
    "PROCESS_FAULTS",
    "apply_fault",
    "apply_process_fault",
    "clipped",
    "clock_skew",
    "dropout",
    "gyro_bias_drift",
    "gyro_dropout",
    "gyro_saturation",
    "mic_noise",
    "noisy_reverberant",
    "reverberant_room",
    "slow_start",
    "synthetic_failure",
    "worker_hang",
    "worker_kill",
    "zeroed",
]


def clipped(session: SessionData, level: float) -> SessionData:
    """Hard-clip every probe recording to ``[-level, +level]``.

    ``level`` is an absolute amplitude; pass e.g. ``0.6 * peak`` for the
    mild clipping a too-hot speaker produces.
    """
    probes = tuple(
        ProbeMeasurement(
            time=p.time,
            left=np.clip(p.left, -level, level),
            right=np.clip(p.right, -level, level),
        )
        for p in session.probes
    )
    return replace(session, probes=probes)


def dropout(session: SessionData, keep_every: int) -> SessionData:
    """Keep only every ``keep_every``-th probe (lost packets, muted mics).

    The truth block's probe indices are thinned identically so evaluation
    code keeps lining up with the surviving probes.
    """
    if keep_every < 1:
        raise ValueError(f"keep_every must be >= 1, got {keep_every}")
    probes = session.probes[::keep_every]
    truth = replace(
        session.truth,
        probe_sample_indices=session.truth.probe_sample_indices[::keep_every],
    )
    return replace(session, probes=tuple(probes), truth=truth)


def mic_noise(session: SessionData, std: float, seed: int = 0) -> SessionData:
    """Add seeded white microphone noise of standard deviation ``std``."""
    rng = np.random.default_rng(seed)
    probes = tuple(
        ProbeMeasurement(
            time=p.time,
            left=p.left + rng.normal(0.0, std, p.left.shape),
            right=p.right + rng.normal(0.0, std, p.right.shape),
        )
        for p in session.probes
    )
    return replace(session, probes=probes)


def reverberant_room(
    session: SessionData,
    rt60_s: float = 0.4,
    width_m: float = 4.0,
    depth_m: float = 3.0,
    wet_level: float = 1.0,
) -> SessionData:
    """Convolve every probe recording through a reverberant shoebox room.

    Activates :class:`repro.room_acoustics.image_source.ShoeboxRoom` in the
    production test path: the wall absorption is solved from the requested
    ``rt60_s`` by inverting the Sabine estimate, the image-source echo
    train (orders >= 1) is rendered into a fractional-delay impulse
    response per ear, and each recording is convolved with
    ``direct + wet_level * tail``.  Geometry is a fixed deterministic
    placement inside the room, with the two ears offset so left/right get
    decorrelated tails.  Higher ``rt60_s`` -> lower absorption -> stronger,
    longer tails, monotonically.
    """
    if rt60_s <= 0:
        raise ReproError(f"rt60_s must be positive, got {rt60_s}")
    if wet_level < 0:
        raise ReproError(f"wet_level must be >= 0, got {wet_level}")
    from scipy.signal import fftconvolve

    from repro.room_acoustics.image_source import ShoeboxRoom
    from repro.signals.delays import add_tap

    # Invert the 2D Sabine estimate rt60 = 0.16 * area / (absorption *
    # perimeter) for the wall absorption that produces the requested decay.
    area = width_m * depth_m
    perimeter = 2.0 * (width_m + depth_m)
    absorption = float(np.clip(0.16 * area / (rt60_s * perimeter), 0.02, 1.0))
    room = ShoeboxRoom(width=width_m, depth=depth_m, absorption=absorption)

    # Deterministic geometry: listener off-center (avoids degenerate
    # symmetric image trains), phone-speaker source at arm's length, ears
    # offset laterally for decorrelated left/right tails.
    listener = np.array([0.42 * width_m, 0.38 * depth_m])
    source = listener + np.array([0.45, 0.35])
    ear_offset = np.array([0.075, 0.0])

    fs = session.fs
    impulse_responses = []
    for sign in (+1.0, -1.0):  # left, right
        images = room.image_sources(
            source, listener + sign * ear_offset, max_order=6, min_gain=1e-4
        )
        direct = images[0]
        tail_span = max(img.delay_s - direct.delay_s for img in images)
        ir = np.zeros(int(np.ceil(tail_span * fs)) + 16)
        ir[0] = 1.0
        for img in images[1:]:
            add_tap(
                ir,
                (img.delay_s - direct.delay_s) * fs,
                wet_level * img.gain / direct.gain,
            )
        impulse_responses.append(ir)

    left_ir, right_ir = impulse_responses
    probes = tuple(
        ProbeMeasurement(
            time=p.time,
            left=fftconvolve(p.left, left_ir)[: p.left.shape[0]],
            right=fftconvolve(p.right, right_ir)[: p.right.shape[0]],
        )
        for p in session.probes
    )
    return replace(session, probes=probes)


def noisy_reverberant(
    session: SessionData,
    rt60_s: float = 0.5,
    std: float = 0.05,
    width_m: float = 4.0,
    depth_m: float = 3.0,
    wet_level: float = 1.0,
    seed: int = 0,
) -> SessionData:
    """The compound in-the-wild capture: a reverberant room *and* mic noise.

    Composition order matters and mirrors physics: the room smears the
    probe first, then the microphone adds its own noise on top.
    """
    echoic = reverberant_room(
        session,
        rt60_s=rt60_s,
        width_m=width_m,
        depth_m=depth_m,
        wet_level=wet_level,
    )
    return mic_noise(echoic, std=std, seed=seed)


def zeroed(session: SessionData) -> SessionData:
    """Replace every recording with silence (dead earbud microphones).

    Personalizing such a capture raises a :class:`repro.errors.SignalError`
    — the canonical "this one job must fail, the batch must not" fixture.
    """
    probes = tuple(
        ProbeMeasurement(
            time=p.time,
            left=np.zeros_like(p.left),
            right=np.zeros_like(p.right),
        )
        for p in session.probes
    )
    return replace(session, probes=probes)


def gyro_saturation(session: SessionData, limit_dps: float) -> SessionData:
    """Clip the gyro rate to ``[-limit_dps, +limit_dps]`` (rail saturation).

    A fast sweep (or a cheap part with a narrow full-scale range) pins the
    measured rate at the rails; integration then under-rotates and the IMU
    angles lag the true sweep.
    """
    if limit_dps <= 0:
        raise ReproError(f"limit_dps must be positive, got {limit_dps}")
    imu = session.imu
    return replace(
        session,
        imu=IMUTrace(
            times=imu.times.copy(),
            rate_dps=np.clip(imu.rate_dps, -limit_dps, limit_dps),
        ),
    )


def gyro_dropout(
    session: SessionData, start_frac: float = 0.3, duration_frac: float = 0.2
) -> SessionData:
    """Drop a contiguous window of IMU samples (sensor hub stall).

    The window covers ``[start_frac, start_frac + duration_frac)`` of the
    trace; timestamps stay strictly increasing, so the gap shows up as one
    huge inter-sample interval exactly like a real dropout does.
    """
    if not 0.0 <= start_frac < 1.0 or duration_frac <= 0.0:
        raise ReproError(
            f"need 0 <= start_frac < 1 and duration_frac > 0, got "
            f"{start_frac}, {duration_frac}"
        )
    imu = session.imu
    n = len(imu)
    lo = int(start_frac * n)
    hi = min(n, int((start_frac + duration_frac) * n))
    keep = np.ones(n, dtype=bool)
    keep[lo:hi] = False
    if keep.sum() < 2:
        raise ReproError("gyro_dropout would leave fewer than 2 IMU samples")
    return replace(
        session,
        imu=IMUTrace(times=imu.times[keep], rate_dps=imu.rate_dps[keep]),
    )


def gyro_bias_drift(session: SessionData, drift_dps_per_s: float) -> SessionData:
    """Add a slowly growing rate bias (thermal drift after power-on).

    The bias ramps linearly from 0 at the start of the trace to
    ``drift_dps_per_s * duration`` at the end; integration accumulates it
    into a quadratically growing angle error.
    """
    imu = session.imu
    elapsed = imu.times - imu.times[0]
    return replace(
        session,
        imu=IMUTrace(
            times=imu.times.copy(),
            rate_dps=imu.rate_dps + float(drift_dps_per_s) * elapsed,
        ),
    )


def clock_skew(session: SessionData, skew: float) -> SessionData:
    """Scale the IMU timestamps by ``1 + skew`` (mic/IMU clock mismatch).

    The earbud audio clock and the phone IMU clock are independent
    oscillators; a relative rate error stretches one timeline against the
    other, so probe emission times no longer line up with the IMU samples
    they were emitted at.
    """
    if skew <= -1.0:
        raise ReproError(f"skew must be > -1, got {skew}")
    imu = session.imu
    origin = imu.times[0]
    return replace(
        session,
        imu=IMUTrace(
            times=origin + (imu.times - origin) * (1.0 + float(skew)),
            rate_dps=imu.rate_dps.copy(),
        ),
    )


def synthetic_failure(session: SessionData) -> SessionData:
    """Always raise — the fault that *is* a failure.

    Serve tests use this (as ``repro.testing.workloads.FAILING_FAULT``) to
    make exactly one job in a batch fail deterministically and cheaply,
    exercising the failure-isolation paths without corrupting any signal.
    """
    raise ReproError(
        f"synthetic failure injected (session of {session.n_probes} probes)"
    )


# -- process-level faults ----------------------------------------------------
#
# The faults above degrade the *capture*; these degrade the *worker process*
# executing it — the failure modes the durable-batch machinery (retry
# classification, heartbeat watchdog, journal resume) exists for.  They take
# the same ``(session, **kwargs)`` shape as the session faults so job specs
# validate and spec-key identically, but the session passes through untouched
# (it may be ``None`` when a cheap test runner applies them spec-side via
# :func:`apply_process_fault`).


def _fired_once(marker: str | None) -> bool:
    """``True`` if a once-only fault already fired (marker file exists).

    Without a marker the fault fires on *every* attempt — the shape
    retries-exhausted tests need.  With one, the first attempt creates the
    file and fires; retries find it and run clean, so a batch with retry
    enabled completes.
    """
    if marker is None:
        return False
    if os.path.exists(marker):
        return True
    with open(marker, "w") as handle:
        handle.write(f"fired in pid {os.getpid()}\n")
    return False


def worker_kill(session: SessionData, marker: str | None = None) -> SessionData:
    """SIGKILL the executing worker mid-job (OOM killer, segfault).

    Uncatchable and instant — the parent sees a broken pool, classifies the
    loss as transient, and re-dispatches with backoff.  Refuses to fire in
    the main process (inline runners) so a misconfigured test cannot kill
    the suite itself.
    """
    if _fired_once(marker):
        return session
    if multiprocessing.parent_process() is None:
        raise ReproError(
            "worker_kill fired in the main process; run it on a real "
            "worker pool (workers >= 1, subprocess mode)"
        )
    os.kill(os.getpid(), signal.SIGKILL)
    raise AssertionError("unreachable")  # pragma: no cover


def worker_hang(
    session: SessionData, hang_s: float = 30.0, marker: str | None = None
) -> SessionData:
    """Wedge the worker: suspend its heartbeat and sleep ``hang_s``.

    From the parent's side this is indistinguishable from a worker stuck
    in native code — the process is alive but its beat goes stale.  With
    the watchdog enabled the worker is SIGKILLed mid-sleep and the job
    retried; without one (or with ``hang_s`` under the deadline) the
    worker wakes up, resumes beating, and finishes normally.
    """
    if _fired_once(marker):
        return session
    from repro.serve import heartbeat

    heartbeat.suspend()
    try:
        time.sleep(float(hang_s))
    finally:
        heartbeat.resume()
    return session


def slow_start(session: SessionData, delay_s: float = 0.5) -> SessionData:
    """Stall ``delay_s`` before computing (cold caches, page-in, NFS).

    Benign: the job still completes.  Exercises the watchdog's
    false-positive margin — a slow worker that *is* beating must not be
    killed.
    """
    time.sleep(float(delay_s))
    return session


#: Name -> helper registry used by :func:`apply_fault` (and thereby by
#: ``repro.serve`` job specs, which are plain JSON and name faults by string).
FAULTS = {
    "clipped": clipped,
    "clock_skew": clock_skew,
    "dropout": dropout,
    "gyro_bias_drift": gyro_bias_drift,
    "gyro_dropout": gyro_dropout,
    "gyro_saturation": gyro_saturation,
    "mic_noise": mic_noise,
    "noisy_reverberant": noisy_reverberant,
    "reverberant_room": reverberant_room,
    "slow_start": slow_start,
    "synthetic-failure": synthetic_failure,
    "worker_hang": worker_hang,
    "worker_kill": worker_kill,
    "zeroed": zeroed,
}

#: Faults that act on the worker process, not the capture.  Excluded from
#: the capture-degradation matrices (``tests/test_quality.py``,
#: ``benchmarks/chaos_report.py``) — running them in-process would kill or
#: stall the caller; the durability suite exercises them on a real pool.
PROCESS_FAULTS = frozenset(
    {"slow_start", "worker_hang", "worker_kill"}
)


def apply_process_fault(spec: Mapping[str, Any]) -> bool:
    """Apply a job spec's fault iff it is process-level; ``True`` if it was.

    Runners call this first: process faults need no session (the capture
    passes through untouched anyway), so cheap test runners can exercise
    worker kills and hangs without simulating anything.
    """
    name = spec.get("fault")
    if name not in PROCESS_FAULTS:
        return False
    FAULTS[name](None, **dict(spec.get("fault_args") or {}))
    return True


def apply_fault(session: SessionData, name: str, **kwargs) -> SessionData:
    """Apply the registered fault ``name`` to ``session``.

    Raises :class:`repro.errors.ReproError` for unknown fault names so a
    typo'd job spec fails that job loudly instead of silently running the
    clean capture.
    """
    try:
        fault = FAULTS[name]
    except KeyError:
        raise ReproError(
            f"unknown fault {name!r}; known: {sorted(FAULTS)}"
        ) from None
    return fault(session, **kwargs)
