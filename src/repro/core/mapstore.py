"""On-disk store of head-search outcomes, shared by every process.

UNIQ estimates the head ``E_opt`` once per capture (paper §4.1); the angle
grid enters only later.  :meth:`repro.core.fusion.DiffractionAwareSensorFusion.run`
asks this store before it searches, so a fresh serve worker, a CLI
one-shot, or a re-render in a new process reads the outcome instead of
re-running the Nelder-Mead search.

An artifact is one small JSON file holding the search outcome ``(x, nit,
fun, success)``.  JSON writes floats by ``repr``, which round-trips every
float64 exactly, so a replayed outcome is bit-identical to the search.
Files are written atomically (:func:`repro.ioutil.atomic_write_json`, tmp
sibling + rename).

The file name is a SHA-256 of the search key (the exact bytes of all the
search reads, see ``fusion._search_key``) salted with :func:`code_salt`, a
digest of the ``repro`` sources and the numpy and scipy versions.  A store
baked before an upgrade therefore misses rather than replays an ``E_opt``
the new code would not find.

Activation is by environment variable so worker processes inherit it with
zero plumbing: ``REPRO_MAP_STORE=/path/to/store``.  An unusable path warns
and disables the store (the serve path must never die on a bad cache
knob); corrupt or truncated artifacts are discarded and searched again.
Counters: ``mapstore.hits`` / ``misses`` / ``saved`` / ``corrupt`` /
``save_errors`` / ``disabled``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import threading
from pathlib import Path

import numpy as np

from repro.ioutil import atomic_write_json
from repro.obs import metrics as obs_metrics
from repro.obs.logging import get_logger, kv

#: Environment variable naming the store directory for this process.
MAP_STORE_ENV = "REPRO_MAP_STORE"

_ARTIFACT_SUFFIX = ".json"

_log = get_logger("core.mapstore")


@functools.lru_cache(maxsize=None)
def code_salt() -> str:
    """Digest of every ``repro`` module plus the numpy and scipy versions.

    Computed once per process (a few ms); forked workers inherit it.
    """
    import scipy

    root = Path(__file__).resolve().parents[1]
    digest = hashlib.sha256(f"{np.__version__} {scipy.__version__}".encode())
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _artifact_name(key: tuple) -> str:
    """Stable filename for one search key.

    The key holds only strings, ints and bytes (no classes, no floats
    outside ``repr``), so its ``repr`` is the same in every process and
    under every ``PYTHONHASHSEED``.
    """
    digest = hashlib.sha256((code_salt() + repr(key)).encode("utf-8")).hexdigest()
    return f"search-{digest[:40]}{_ARTIFACT_SUFFIX}"


class MapStore:
    """A directory of head-search outcomes.

    Methods never raise on I/O problems: a load failure reports a miss (or
    a counted corruption) and a save failure is logged and dropped — the
    caller always has the search-from-scratch path.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = os.fspath(root)
        os.makedirs(self.root, exist_ok=True)

    def path_for(self, key: tuple) -> str:
        return os.path.join(self.root, _artifact_name(key))

    def load(self, key: tuple, size: int) -> tuple[list[float], int, float, bool] | None:
        """The ``(x, nit, fun, success)`` stored for ``key``, or None on a miss.

        Anything unreadable — garbage bytes, a truncated write, fields of
        the wrong type, or an ``x`` that is not ``size`` floats — counts as
        corruption: the artifact is discarded so the caller's search can
        replace it.
        """
        path = self.path_for(key)
        try:
            with open(path, "rb") as handle:
                record = json.load(handle)
            x, nit, fun, success = (record[f] for f in ("x", "nit", "fun", "success"))
            if not (
                isinstance(x, list) and len(x) == size
                and all(type(v) is float for v in x)
                and type(nit) is int and type(fun) is float and type(success) is bool
            ):
                raise ValueError("fields of the wrong type or size")
        except FileNotFoundError:
            obs_metrics.counter("mapstore.misses").inc()
            return None
        except (OSError, ValueError, TypeError, KeyError) as exc:
            obs_metrics.counter("mapstore.corrupt").inc()
            _log.warning(kv("mapstore.corrupt", path=path, error=str(exc)))
            self.discard(key)
            return None
        obs_metrics.counter("mapstore.hits").inc()
        return x, nit, fun, success

    def save(self, key: tuple, x: np.ndarray, nit: int, fun: float, success: bool) -> None:
        """Persist one search outcome atomically (first writer wins, last lands)."""
        record = {
            "x": [float(v) for v in x], "nit": int(nit),
            "fun": float(fun), "success": bool(success),
        }
        path = self.path_for(key)
        try:
            # durable=False: atomicity (tmp sibling + rename) without the
            # fsync tax — a torn artifact after a crash is re-detected as
            # corruption and searched again, so durability buys nothing.
            atomic_write_json(record, path, indent=None, durable=False)
        except OSError as exc:
            obs_metrics.counter("mapstore.save_errors").inc()
            _log.warning(kv("mapstore.save_failed", path=path, error=str(exc)))
            return
        obs_metrics.counter("mapstore.saved").inc()

    def discard(self, key: tuple) -> None:
        """Best-effort removal of one artifact (corruption recovery)."""
        try:
            os.unlink(self.path_for(key))
        except OSError:
            pass

    def _artifacts(self) -> list[str]:
        try:
            names = os.listdir(self.root)
        except OSError:
            return []
        return [
            os.path.join(self.root, name)
            for name in sorted(names)
            if name.endswith(_ARTIFACT_SUFFIX)
        ]

    def __len__(self) -> int:
        return len(self._artifacts())

    def size_bytes(self) -> int:
        total = 0
        for path in self._artifacts():
            try:
                total += os.stat(path).st_size
            except OSError:
                continue
        return total


def validate_store_path(raw: str) -> str | None:
    """Lenient store-path validation shared by the env var and CLI flags.

    Returns a usable directory path, or None — with a warning and a
    ``mapstore.disabled`` count, never an exception — when the value is
    empty, points at a non-directory, or cannot be created/written.
    """
    path = raw.strip()
    if not path:
        return None
    try:
        os.makedirs(path, exist_ok=True)
        if not os.path.isdir(path) or not os.access(path, os.W_OK):
            raise OSError("not a writable directory")
    except OSError as exc:
        obs_metrics.counter("mapstore.disabled").inc()
        _log.warning(kv("mapstore.invalid_path", path=path, error=str(exc)))
        return None
    return path


_ACTIVE_LOCK = threading.Lock()
#: (raw env value, resolved store) — revalidated whenever the env changes.
_ACTIVE: tuple[str, MapStore | None] | None = None


def active_store() -> MapStore | None:
    """The process-wide store named by ``REPRO_MAP_STORE``.

    None when the variable is unset, empty, or names an unusable path (a
    warning is logged once per distinct value).  The resolution is cached
    against the raw value so the hot path costs one dict lookup and a
    string compare.
    """
    global _ACTIVE
    raw = os.environ.get(MAP_STORE_ENV, "")
    with _ACTIVE_LOCK:
        if _ACTIVE is not None and _ACTIVE[0] == raw:
            return _ACTIVE[1]
        store: MapStore | None = None
        if raw.strip():
            path = validate_store_path(raw)
            if path is not None:
                store = MapStore(path)
        _ACTIVE = (raw, store)
        return store
