"""Worker liveness heartbeats for the pool watchdog.

A dead worker is easy to see (the executor breaks); a *hung* one — wedged
in native code, deadlocked, or stalled on I/O — looks exactly like a slow
job from the parent's side.  The watchdog needs a liveness signal that is
independent of task completion, so every non-inline task is wrapped in
:func:`run_with_heartbeat`: the worker writes its pid into a per-attempt
heartbeat file the moment it picks the task up and then re-touches the
file from a daemon thread every ``interval`` seconds.  The parent's
watchdog (see :class:`repro.serve.pool.WorkerPool`) compares the file's
mtime against a deadline; a stale file names the exact pid to SIGKILL.

The channel is a file rather than an extra pipe on purpose: it inherits
nothing from the executor (works under fork *and* spawn), survives the
worker's death for post-mortem reading, and costs one ``utime`` per
interval.

Tests drive the hung-worker path through :func:`suspend` — the
``worker_hang`` fault in :mod:`repro.testing.faults` suspends the beat and
sleeps past the deadline, which is indistinguishable from a real wedge
from the parent's side.
"""

from __future__ import annotations

import os
import threading
import time

__all__ = [
    "heartbeat_pid",
    "last_beat",
    "resume",
    "run_with_heartbeat",
    "suspend",
    "suspended",
]

#: Per-process suspension switch (set by the ``worker_hang`` fault).
_suspended = threading.Event()


def suspend() -> None:
    """Stop this process's heartbeat thread from beating (test hook)."""
    _suspended.set()


def resume() -> None:
    """Re-enable heartbeats after :func:`suspend`."""
    _suspended.clear()


def suspended() -> bool:
    return _suspended.is_set()


def _beat(path: str) -> None:
    """Write/refresh one heartbeat: pid in the content, liveness in mtime."""
    tmp = f"{path}.{os.getpid()}.beat"
    with open(tmp, "w") as handle:
        handle.write(f"{os.getpid()}\n")
    os.replace(tmp, path)


def _beater(path: str, interval_s: float, stop: threading.Event) -> None:
    while not stop.wait(interval_s):
        if not _suspended.is_set():
            try:
                _beat(path)
            except OSError:  # pragma: no cover - tmpdir vanished mid-run
                return


def run_with_heartbeat(payload) -> object:
    """Top-level pool shim: ``(fn, arg, hb_path, interval_s)`` -> ``fn(arg)``.

    The first beat happens synchronously before ``fn`` runs — it marks the
    pickup time and publishes the worker pid — then a daemon thread keeps
    beating until the task returns (or the process dies, which is the
    point).
    """
    fn, arg, hb_path, interval_s = payload
    _beat(hb_path)
    stop = threading.Event()
    thread = threading.Thread(
        target=_beater,
        args=(hb_path, interval_s, stop),
        name="repro-heartbeat",
        daemon=True,
    )
    thread.start()
    try:
        return fn(arg)
    finally:
        stop.set()


def last_beat(hb_path: str) -> float | None:
    """mtime of the heartbeat file, or ``None`` if no beat landed yet."""
    try:
        return os.stat(hb_path).st_mtime
    except OSError:
        return None


def heartbeat_pid(hb_path: str) -> int | None:
    """The pid recorded in the heartbeat file, or ``None``."""
    try:
        with open(hb_path) as handle:
            return int(handle.read().strip() or 0) or None
    except (OSError, ValueError):
        return None

