"""Render finished traces and metric snapshots for humans and machines.

The human form follows :mod:`repro.textplot` idiom — pure-unicode output
that survives any terminal — and shows, per span, its share of the root's
wall clock as a block bar::

    uniq.personalize                           3.214 s  ██████████████████████
    ├─ fusion.run                              2.101 s  ██████████████▌        65.4%
    │  ├─ fusion.extract_delays                0.412 s  ██▊                    12.8%
    ...

The machine form is :meth:`repro.obs.trace.Span.to_dict`: plain nested
dicts, stable enough to diff across commits.
"""

from __future__ import annotations

from typing import Any

from repro.errors import SignalError
from repro.obs.trace import Span

__all__ = [
    "render_metrics",
    "render_span_tree",
    "self_durations",
]

_BAR_WIDTH = 22
_BAR_EIGHTHS = " ▏▎▍▌▋▊▉█"


def _bar(fraction: float, width: int = _BAR_WIDTH) -> str:
    """A block bar filled to ``fraction`` of ``width`` characters."""
    fraction = min(max(fraction, 0.0), 1.0)
    eighths = int(round(fraction * width * 8))
    full, rest = divmod(eighths, 8)
    return "█" * full + (_BAR_EIGHTHS[rest] if rest else "")


def _duration(seconds: float | None) -> str:
    if seconds is None:
        return "open"
    if seconds >= 1.0:
        return f"{seconds:7.3f} s "
    return f"{seconds * 1e3:7.2f} ms"


def _attributes(span: Span, limit: int = 6) -> str:
    parts = []
    for key, value in list(span.attributes.items())[:limit]:
        if isinstance(value, float):
            parts.append(f"{key}={value:.4g}")
        elif isinstance(value, (list, tuple)) and len(value) > 4:
            parts.append(f"{key}=<{len(value)} values>")
        else:
            parts.append(f"{key}={value}")
    if len(span.attributes) > limit:
        parts.append("...")
    return " ".join(parts)


def render_span_tree(root: Span, width: int = 96) -> str:
    """A finished trace as an indented unicode tree with duration bars."""
    if root is None:
        raise SignalError("no trace to render (was tracing enabled?)")
    total = root.duration_s or 0.0
    name_width = max(
        24, min(44, _longest_name(root, 0) + 2)
    )
    lines: list[str] = []

    def emit(span: Span, prefix: str, connector: str) -> None:
        label = (prefix + connector + span.name)[: name_width - 1]
        duration = span.duration_s
        fraction = (duration / total) if (total > 0 and duration is not None) else 0.0
        share = "" if span is root else f"{fraction * 100:5.1f}%"
        attrs = _attributes(span)
        line = (
            f"{label.ljust(name_width)}{_duration(duration)}  "
            f"{_bar(fraction).ljust(_BAR_WIDTH)} {share:>6}"
        )
        if attrs:
            line += f"  {attrs}"
        line = line.rstrip()
        if len(line) > width:
            line = line[: width - 1] + "…"
        lines.append(line)
        child_prefix = prefix + ("   " if connector.startswith("└") else "│  " if connector else "")
        for i, child in enumerate(span.children):
            last = i == len(span.children) - 1
            emit(child, child_prefix, "└─ " if last else "├─ ")

    emit(root, "", "")
    return "\n".join(lines)


def _longest_name(span: Span, depth: int) -> int:
    length = depth * 3 + len(span.name)
    for child in span.children:
        length = max(length, _longest_name(child, depth + 1))
    return length


def self_durations(root: Span) -> dict[str, float]:
    """Per-name *self* time (own duration minus children) over a trace.

    The critical-path view: a span whose children account for all its wall
    clock contributes nothing of its own, so ranking these totals names the
    stages actually burning time rather than the wrappers around them.
    Negative self-times (timer jitter on near-empty spans) clamp to zero.
    """
    totals: dict[str, float] = {}
    todo = [root]
    while todo:
        node = todo.pop()
        if node.duration_s is not None:
            in_children = sum(
                child.duration_s or 0.0 for child in node.children
            )
            own = max(node.duration_s - in_children, 0.0)
            totals[node.name] = totals.get(node.name, 0.0) + own
        todo.extend(node.children)
    return totals


def render_metrics(snapshot: dict[str, Any]) -> str:
    """A metrics snapshot as aligned text (counters, gauges, histograms)."""
    lines: list[str] = []
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    histograms = snapshot.get("histograms", {})
    names = list(counters) + list(gauges) + list(histograms)
    if not names:
        return "(no metrics recorded)"
    name_width = max(len(name) for name in names) + 2
    for name, value in counters.items():
        lines.append(f"{name.ljust(name_width)} counter   {value:g}")
    for name, value in gauges.items():
        lines.append(f"{name.ljust(name_width)} gauge     {value:g}")
    for name, data in histograms.items():
        count = data.get("count", 0)
        mean = (data.get("sum", 0.0) / count) if count else float("nan")
        lines.append(
            f"{name.ljust(name_width)} histogram count={count} mean={mean:.4g}"
        )
    return "\n".join(lines)
