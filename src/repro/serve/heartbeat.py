"""Worker liveness heartbeats for the pool watchdog.

A dead worker is easy to see (the executor breaks); a *hung* one — wedged
in native code, deadlocked, or stalled on I/O — looks exactly like a slow
job from the parent's side.  The watchdog needs a liveness signal that is
independent of task completion, so the pool's worker-side task shim calls
:func:`start`: the worker writes its pid into a per-attempt heartbeat file
the moment it picks the task up and then re-touches the file from a daemon
thread every :data:`HEARTBEAT_INTERVAL_S` seconds.  The parent's
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

__all__ = [
    "HEARTBEAT_INTERVAL_S",
    "heartbeat_pid",
    "last_beat",
    "resume",
    "start",
    "suspend",
    "suspended",
]

#: Seconds between beats.  A watchdog deadline should span several of them
#: (the durability tests use 0.5 s).
HEARTBEAT_INTERVAL_S = 0.2

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


def _beater(path: str, stop: threading.Event) -> None:
    while not stop.wait(HEARTBEAT_INTERVAL_S):
        if not _suspended.is_set():
            try:
                _beat(path)
            except OSError:  # pragma: no cover - tmpdir vanished mid-run
                return


def start(hb_path: str) -> threading.Event:
    """Beat ``hb_path`` now and from a daemon thread until the event is set.

    The first beat happens synchronously, before the task runs: it marks
    the pickup time and publishes the worker pid.  The thread keeps beating
    until the caller sets the returned event (or the process dies, which is
    the point).
    """
    _beat(hb_path)
    stop = threading.Event()
    threading.Thread(
        target=_beater, args=(hb_path, stop), name="repro-heartbeat", daemon=True
    ).start()
    return stop


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

