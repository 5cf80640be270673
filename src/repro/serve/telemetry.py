"""Serve telemetry: per-job cross-process traces and SLOs over a batch report.

Two pieces, both off by default:

- :func:`build_job_trace` — grafts the span tree a worker captured
  (:func:`repro.serve.worker.run_with_telemetry`) under server-side spans
  built from the pool's attempt log — ``serve.job`` → ``serve.queue`` →
  ``serve.attempt`` per dispatch, with ``serve.retry`` (the backoff)
  between attempts — producing one causally-complete trace per job
  across the process boundary.  A :class:`~repro.serve.server.BatchServer`
  built with ``telemetry=True`` runs jobs under the worker-side capture,
  merges each worker's metrics delta into this process's registry and
  puts the trace on :attr:`JobResult.trace`.
- :func:`slo_stats` / :class:`SloPolicy` — operational statistics
  (latency percentiles, queue wait, throughput, retry, dead-letter and
  reject rates, cold-start fraction) computed from a finished
  :class:`~repro.serve.server.BatchReport`, judged against declarative
  ``max_*`` / ``min_*`` thresholds.

The serve tier keeps one durable record, the write-ahead journal
(:mod:`repro.serve.journal`): its ``started``/``done``/``failed`` lines
carry wall-clock times, run times and worker pids, and ``repro.cli
timeline`` draws its per-worker Gantt chart from them.
"""

from __future__ import annotations

import json
import math
import os
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.errors import ReproError
from repro.obs.trace import Span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve.server import BatchReport

__all__ = [
    "SLO_STATS",
    "ServeTelemetry",
    "SloPolicy",
    "build_job_trace",
    "slo_stats",
]


def _percentile(values: list[float], q: float) -> float:
    """Exact percentile by linear interpolation (also the batch report's)."""
    if not values:
        return float("nan")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    return ordered[low] + (rank - low) * (ordered[high] - ordered[low])


class ServeTelemetry:
    """The switch that turns on worker span capture for a batch server.

    ``BatchServer(telemetry=ServeTelemetry())`` is the same as
    ``BatchServer(telemetry=True)``.  The serve tier writes no event
    stream of its own, so a path is refused: the write-ahead journal is
    the one durable record.
    """

    def __init__(self, path: str | os.PathLike | None = None) -> None:
        if path is not None:
            raise ReproError(
                f"serve telemetry writes no event stream (got {path!r}); "
                "journal the batch with --journal (BatchServer(journal=...)) "
                "and render it with `python -m repro.cli timeline JOURNAL`"
            )


def build_job_trace(
    job_id: str,
    *,
    status: str,
    queue_wait_s: float,
    run_s: float,
    attempt_log: Sequence[Mapping[str, Any]],
    worker_trace: Mapping[str, Any] | None = None,
    cold_start: bool | None = None,
) -> Span:
    """One causally-complete span tree for a finished job.

    Server-side shape: ``serve.job`` → ``serve.queue`` (the wait) then one
    ``serve.attempt`` per entry of the pool's ``attempt_log``, with a
    ``serve.retry`` span (carrying the backoff delay) after each attempt
    that was retried.  The worker-captured tree, when the final attempt
    shipped one back, is grafted under that attempt via
    :meth:`repro.obs.trace.Span.from_dict` — the cross-process graft.
    """
    root = Span(
        "serve.job",
        {"job_id": job_id, "status": status, "attempts": len(attempt_log)},
    )
    root.start_s = (
        attempt_log[0]["start_t"] - queue_wait_s if attempt_log else 0.0
    )
    root.duration_s = queue_wait_s + run_s
    queue_span = Span("serve.queue", {"job_id": job_id})
    queue_span.start_s = root.start_s
    queue_span.duration_s = queue_wait_s
    root.children.append(queue_span)
    for number, entry in enumerate(attempt_log, start=1):
        attrs: dict[str, Any] = {"attempt": number, "status": entry["status"]}
        if entry.get("worker_pid") is not None:
            attrs["worker_pid"] = entry["worker_pid"]
        final_ok = number == len(attempt_log) and status == "ok"
        if final_ok and cold_start is not None:
            attrs["cold_start"] = cold_start
        attempt_span = Span("serve.attempt", attrs)
        attempt_span.start_s = float(entry["start_t"])
        attempt_span.duration_s = (
            run_s if final_ok
            else max(float(entry["end_t"]) - attempt_span.start_s, 0.0)
        )
        if final_ok and worker_trace is not None:
            attempt_span.children.append(Span.from_dict(worker_trace))
        root.children.append(attempt_span)
        if "backoff_s" in entry:
            retry_span = Span(
                "serve.retry",
                {"attempt": number, "backoff_s": entry["backoff_s"]},
            )
            retry_span.start_s = float(entry["end_t"])
            retry_span.duration_s = float(entry["backoff_s"])
            root.children.append(retry_span)
    return root


#: Statistics a :class:`SloPolicy` threshold may reference.
SLO_STATS = (
    "job_p50_s",
    "job_p95_s",
    "job_p99_s",
    "queue_wait_p50_s",
    "queue_wait_p95_s",
    "queue_wait_p99_s",
    "throughput_jobs_per_s",
    "retry_rate",
    "dead_letter_rate",
    "cold_start_fraction",
)


def slo_stats(report: "BatchReport") -> dict[str, Any]:
    """Every SLO statistic of a finished batch, as one flat JSON-able dict.

    *Executed* jobs are those this batch dispatched to a worker
    (``attempts > 0``: not coalesced, replayed or interrupted).
    Latency, queue wait, retry and dead-letter statistics are over
    executed jobs; throughput counts every job that got an outcome
    (everything but interrupted jobs) over the batch's ``wall_s``.  The
    cold-start fraction needs the worker telemetry in the payloads and is
    ``NaN`` without it.
    """
    results = report.results
    executed = [r for r in results if r.attempts > 0]
    runs = [r.run_s for r in executed if r.ok]
    waits = [r.queue_wait_s for r in executed]
    colds = [
        bool(r.payload["_telemetry"]["cold_start"])
        for r in executed
        if r.payload and "cold_start" in (r.payload.get("_telemetry") or {})
    ]
    served = sum(1 for r in results if r.status != "interrupted")

    def rate(part: int, whole: int, empty: float = 0.0) -> float:
        return part / whole if whole else empty

    return {
        "n_jobs": len(results),
        "n_executed": len(executed),
        "counts": dict(sorted(report.counts.items())),
        "total_attempts": sum(r.attempts for r in executed),
        "job_p50_s": _percentile(runs, 0.50),
        "job_p95_s": _percentile(runs, 0.95),
        "job_p99_s": _percentile(runs, 0.99),
        "queue_wait_p50_s": _percentile(waits, 0.50),
        "queue_wait_p95_s": _percentile(waits, 0.95),
        "queue_wait_p99_s": _percentile(waits, 0.99),
        "throughput_jobs_per_s": (
            served / report.wall_s if report.wall_s > 0 else float("nan")
        ),
        "retry_rate": rate(sum(1 for r in executed if r.attempts > 1),
                           len(executed)),
        "dead_letter_rate": rate(
            sum(1 for r in executed if r.status == "failed"), len(executed)
        ),
        "cold_start_fraction": rate(sum(colds), len(colds), float("nan")),
    }


class SloPolicy:
    """Declarative service-level objectives over :func:`slo_stats`.

    Thresholds are a flat mapping of ``max_<stat>`` / ``min_<stat>`` keys
    to finite numeric limits, e.g.::

        SloPolicy({"max_job_p95_s": 2.0, "max_dead_letter_rate": 0.0,
                   "min_throughput_jobs_per_s": 0.5})

    Unknown statistic names and limits that are not finite numbers
    (``null``, ``"nan"``, booleans) are rejected at construction — a
    typo'd SLO that silently never fires is worse than none.  Statistics
    with no data (``NaN``) violate nothing: an empty batch meets every
    objective vacuously rather than spuriously failing a ``min_`` bound.
    """

    def __init__(self, thresholds: Mapping[str, float]) -> None:
        parsed: list[tuple[str, str, str, float]] = []
        for key, limit in dict(thresholds).items():
            if key.startswith("max_"):
                kind, stat = "max", key[4:]
            elif key.startswith("min_"):
                kind, stat = "min", key[4:]
            else:
                raise ReproError(
                    f"SLO threshold {key!r} must start with max_ or min_"
                )
            if stat not in SLO_STATS:
                raise ReproError(
                    f"SLO threshold {key!r} names unknown statistic "
                    f"{stat!r}; known: {list(SLO_STATS)}"
                )
            if (
                isinstance(limit, bool)
                or not isinstance(limit, (int, float))
                or not math.isfinite(limit)
            ):
                raise ReproError(
                    f"SLO threshold {key!r} must be a finite number, "
                    f"got {limit!r}"
                )
            parsed.append((key, kind, stat, float(limit)))
        self.thresholds = {key: limit for key, _, _, limit in parsed}
        self._parsed = parsed

    @classmethod
    def from_json_file(cls, path: str | os.PathLike) -> "SloPolicy":
        """Load thresholds from a JSON file (the ``--slo`` CLI format)."""
        with open(os.fspath(path)) as handle:
            data = json.load(handle)
        if not isinstance(data, dict):
            raise ReproError(
                f"{path}: SLO policy must be a JSON object of thresholds"
            )
        return cls(data)

    def evaluate(self, stats: Mapping[str, Any]) -> list[dict[str, Any]]:
        """Which objectives the statistics violate (empty = all met)."""
        violations: list[dict[str, Any]] = []
        for key, kind, stat, limit in self._parsed:
            actual = stats.get(stat)
            if actual is None or (
                isinstance(actual, float) and math.isnan(actual)
            ):
                continue
            actual = float(actual)
            violated = actual > limit if kind == "max" else actual < limit
            if violated:
                violations.append(
                    {"threshold": key, "stat": stat, "limit": limit,
                     "actual": actual}
                )
        return violations

    def judge(self, report: "BatchReport") -> dict[str, Any]:
        """``{"summary", "thresholds", "violations"}`` for ``report``.

        The value of :attr:`BatchReport.slo`: a judged report is
        ``dataclasses.replace(report, slo=policy.judge(report))``.
        """
        stats = slo_stats(report)
        return {
            "summary": stats,
            "thresholds": dict(self.thresholds),
            "violations": self.evaluate(stats),
        }
