"""Lightweight span tracer for the UNIQ pipeline.

A *span* is one named, timed region of work.  Spans nest: the innermost
open span on the current thread adopts every span opened inside it, so a
personalization run produces a tree rooted at ``uniq.personalize`` whose
children are the pipeline stages (fusion, interpolation, near-far
conversion, ...).  Each span carries free-form attributes — residuals,
probe counts, grid sizes — attached by the instrumented code itself.

Tracing is **off by default** and the disabled path is engineered to be a
single module-flag check returning a shared no-op handle, so instrumented
hot paths pay effectively nothing (< 2% on a personalization run is the
repo's acceptance bar; the measured overhead is far below that).

Usage::

    from repro.obs import trace

    with trace.capturing():                 # or trace.set_enabled(True)
        with trace.span("fusion.run") as sp:
            ...
            sp.set("residual_deg", residual)
    root = trace.last_trace()               # the finished span tree

The span stack is thread-local: concurrent personalizations on different
threads each build their own tree and never interleave.
"""

from __future__ import annotations

import hashlib
import threading
import time
from typing import Any, Mapping

__all__ = [
    "Span",
    "capturing",
    "is_enabled",
    "last_trace",
    "set_enabled",
    "span",
]

_enabled = False
_local = threading.local()

#: Hex digits kept per span id — 48 bits, ample for one trace forest.
_SPAN_ID_HEX = 12


def _derive_span_id(path: tuple[tuple[int, str], ...]) -> str:
    """A stable span id from the span's root-relative ``(index, name)`` path.

    Pure function of tree *structure*, not of timing or process identity:
    the same tree shape serializes to the same ids on any machine, which is
    what lets traces captured in worker processes be diffed and grafted
    across process boundaries.
    """
    blob = "/".join(f"{index}:{name}" for index, name in path)
    return hashlib.sha256(blob.encode()).hexdigest()[:_SPAN_ID_HEX]


class Span:
    """One timed, attributed region of work; also its own context manager.

    Attributes
    ----------
    name:
        Dotted stage name, e.g. ``"fusion.optimize"``.
    attributes:
        Free-form key/value pairs attached by the instrumented code.
    children:
        Spans opened while this one was the innermost open span.
    start_s:
        ``time.perf_counter()`` at entry (relative ordering only).
    duration_s:
        Wall-clock duration; ``None`` while the span is still open.
    """

    __slots__ = (
        "name", "attributes", "children", "start_s", "duration_s", "span_id",
    )

    def __init__(self, name: str, attributes: dict[str, Any] | None = None) -> None:
        self.name = name
        self.attributes: dict[str, Any] = dict(attributes) if attributes else {}
        self.children: list[Span] = []
        self.start_s: float = 0.0
        self.duration_s: float | None = None
        self.span_id: str | None = None

    def set(self, key: str, value: Any) -> None:
        """Attach one attribute to this span."""
        self.attributes[key] = value

    def update(self, **attributes: Any) -> None:
        """Attach several attributes at once."""
        self.attributes.update(attributes)

    def __enter__(self) -> "Span":
        stack = _stack()
        stack.append(self)
        self.start_s = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration_s = time.perf_counter() - self.start_s
        if exc_type is not None:
            self.attributes.setdefault("error", exc_type.__name__)
        stack = _stack()
        # Tolerate enable/disable mid-trace: pop only if we are on top.
        if stack and stack[-1] is self:
            stack.pop()
        if stack:
            stack[-1].children.append(self)
        else:
            _local.last_trace = self
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"{self.duration_s * 1e3:.2f} ms" if self.duration_s is not None else "open"
        return f"Span({self.name!r}, {state}, {len(self.children)} children)"

    # -- serialization -------------------------------------------------------

    def to_dict(
        self, _path: tuple[tuple[int, str], ...] | None = None
    ) -> dict[str, Any]:
        """The span (and its subtree) as JSON-serializable nested dicts.

        Spans without an id are assigned one derived from their position in
        the tree (:func:`_derive_span_id`), so serializing the same finished
        trace twice yields bit-identical documents, and
        ``Span.from_dict(span.to_dict()).to_dict() == span.to_dict()``.
        """
        path = _path if _path is not None else ((0, self.name),)
        if self.span_id is None:
            self.span_id = _derive_span_id(path)
        return {
            "name": self.name,
            "span_id": self.span_id,
            "start_s": self.start_s,
            "duration_s": self.duration_s,
            "attributes": dict(self.attributes),
            "children": [
                child.to_dict(path + ((index, child.name),))
                for index, child in enumerate(self.children)
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Span":
        """Rebuild a span tree from :meth:`to_dict` output (exact inverse).

        Used by the serve layer to graft traces captured inside worker
        processes back into the batch server's own trace forest.
        """
        span = cls(str(data["name"]), data.get("attributes") or {})
        span.span_id = data.get("span_id")
        start = data.get("start_s")
        span.start_s = 0.0 if start is None else float(start)
        duration = data.get("duration_s")
        span.duration_s = None if duration is None else float(duration)
        span.children = [cls.from_dict(child) for child in data.get("children", [])]
        return span


class _NullSpan:
    """Shared no-op handle returned while tracing is disabled."""

    __slots__ = ()

    def set(self, key: str, value: Any) -> None:
        pass

    def update(self, **attributes: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = _NullSpan()


def _stack() -> list[Span]:
    stack = getattr(_local, "stack", None)
    if stack is None:
        stack = _local.stack = []
    return stack


def set_enabled(enabled: bool) -> bool:
    """Turn tracing on/off globally; returns the previous state."""
    global _enabled
    previous = _enabled
    _enabled = bool(enabled)
    return previous


def is_enabled() -> bool:
    """Whether spans are currently being recorded."""
    return _enabled


def span(name: str, **attributes: Any):
    """Open a span (or the shared no-op handle when tracing is disabled)."""
    if not _enabled:
        return NULL_SPAN
    return Span(name, attributes)


def last_trace() -> Span | None:
    """The most recently completed *root* span on this thread."""
    return getattr(_local, "last_trace", None)


def clear() -> None:
    """Drop this thread's span stack and last completed trace."""
    _local.stack = []
    _local.last_trace = None


class capturing:
    """Context manager: enable tracing inside, restore the prior state after.

    >>> with capturing():
    ...     with span("work"):
    ...         pass
    >>> last_trace().name
    'work'
    """

    def __enter__(self) -> None:
        self._previous = set_enabled(True)

    def __exit__(self, exc_type, exc, tb) -> bool:
        set_enabled(self._previous)
        return False

