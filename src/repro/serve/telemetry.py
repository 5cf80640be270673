"""Cross-process serve telemetry: flight recorder, SLO tracking, job traces.

Three cooperating pieces, all optional and all off by default:

- :class:`FlightRecorder` — an append-only, fsync'd JSONL stream of serve
  events (enqueue, dispatch, attempt start/end with worker pid, retry with
  backoff delay, watchdog kill, dead-letter, drain) living beside the
  write-ahead journal, with periodic rollup snapshots written atomically to
  ``<path>.rollup.json``.  The stream is the input to ``repro.cli
  timeline``, which renders it as a per-worker Gantt chart.
- :class:`SloTracker` / :class:`SloPolicy` — rolling operational statistics
  (latency percentiles, queue wait and depth, throughput, retry and
  dead-letter rates, cold-start fraction) evaluated against declarative
  ``max_*`` / ``min_*`` thresholds; violations land in the
  :class:`~repro.serve.server.BatchReport` and gate the CLI's exit code.
- :class:`ServeTelemetry` — the orchestrator a :class:`~repro.serve.server
  .BatchServer` drives: it timestamps and fans events out to the recorder
  and the tracker, accumulates per-job attempt events arriving from the
  :class:`~repro.serve.pool.WorkerPool`, and grafts the span trees captured
  inside worker processes (:func:`repro.serve.worker.run_with_telemetry`)
  under a server-side per-job span — submit → queue → attempt(s) → done —
  producing one causally-complete trace per job across the process
  boundary.

Event records are flat JSON objects: ``{"event": ..., "seq": ..., "t":
...}`` plus event-specific fields.  ``t`` is wall-clock ``time.time()`` so
events from the server threads and (relayed) worker facts share one
timeline; ``seq`` breaks ties and exposes torn tails.
"""

from __future__ import annotations

import json
import math
import os
import threading
import time
from typing import Any, Iterator, Mapping

from repro.errors import ReproError
from repro.ioutil import JsonlAppender, atomic_write_json
from repro.obs.trace import Span

__all__ = [
    "EVENTS",
    "FlightRecorder",
    "ServeTelemetry",
    "SloPolicy",
    "SloTracker",
    "read_events",
]

#: Every event kind the serve layer records.  The timeline CLI and the
#: rollup snapshots key off these names; adding one is backward-compatible
#: (readers ignore kinds they do not know).
EVENTS = (
    "batch_start",
    "enqueue",
    "dispatch",
    "attempt_start",
    "attempt_end",
    "retry",
    "watchdog_kill",
    "done",
    "dead_letter",
    "replay",
    "coalesced",
    "drain",
    "checkpoint",
    "batch_done",
    "rejected",
)

#: How many appended events between rollup snapshots.
DEFAULT_ROLLUP_EVERY = 64


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


class FlightRecorder:
    """The durable event stream: one JSON object per line, fsync'd.

    Sits beside the write-ahead journal and shares its durability story
    (:class:`repro.ioutil.JsonlAppender`): every event that
    :meth:`record` returned for survives a crash, with at worst one torn
    final line — which :func:`read_events` tolerates.  Every
    ``rollup_every`` events a rollup snapshot (event counts plus whatever
    summary the caller supplies) is written atomically to
    ``<path>.rollup.json``, so a monitoring glance never has to replay the
    whole stream.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        *,
        fsync: bool = True,
        rollup_every: int = DEFAULT_ROLLUP_EVERY,
    ) -> None:
        if rollup_every < 1:
            raise ReproError(f"rollup_every must be >= 1, got {rollup_every}")
        self.path = os.fspath(path)
        self.rollup_path = self.path + ".rollup.json"
        self.rollup_every = int(rollup_every)
        self._appender = JsonlAppender(self.path, fsync=fsync)
        self._lock = threading.Lock()
        self._seq = 0
        self._counts: dict[str, int] = {}

    @property
    def n_events(self) -> int:
        return self._seq

    def record(self, event: str, **fields: Any) -> dict[str, Any]:
        """Append one event; returns the full record as written."""
        with self._lock:
            self._seq += 1
            record = {"event": event, "seq": self._seq, "t": time.time()}
            self._counts[event] = self._counts.get(event, 0) + 1
        record.update(fields)
        self._appender.append(record)
        return record

    def rollup(self, summary: Mapping[str, Any] | None = None) -> None:
        """Write the rollup snapshot atomically (crash leaves old or new)."""
        with self._lock:
            payload: dict[str, Any] = {
                "n_events": self._seq,
                "by_event": dict(sorted(self._counts.items())),
                "stream": self.path,
                "t": time.time(),
            }
        if summary is not None:
            payload["summary"] = dict(summary)
        atomic_write_json(payload, self.rollup_path)

    def due_for_rollup(self) -> bool:
        with self._lock:
            return self._seq > 0 and self._seq % self.rollup_every == 0

    def close(self, summary: Mapping[str, Any] | None = None) -> None:
        """Final rollup, then release the stream handle."""
        if self._seq > 0:
            self.rollup(summary)
        self._appender.close()

    def __enter__(self) -> "FlightRecorder":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_events(path: str | os.PathLike) -> list[dict[str, Any]]:
    """Parse a flight-recorder stream, tolerating a torn final line.

    Corrupt lines (disk trouble, a crash mid-append) are skipped rather
    than fatal — the stream is diagnostics, and a partial timeline beats no
    timeline.
    """
    events: list[dict[str, Any]] = []
    with open(os.fspath(path)) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue
            if isinstance(record, dict) and "event" in record:
                events.append(record)
    return events


class SloTracker:
    """Rolling operational statistics over the serve event stream.

    Fed one event at a time (:meth:`observe`); :meth:`stats` summarizes
    whatever has arrived so far, so the tracker works identically live
    (inside :class:`ServeTelemetry`) and offline (``repro.cli timeline``
    replaying a recorded stream).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._run_s: list[float] = []
        self._queue_wait_s: list[float] = []
        self._depth_samples: list[int] = []
        self._status_counts: dict[str, int] = {}
        self._executed = 0
        self._retried_jobs = 0
        self._total_attempts = 0
        self._cold_starts = 0
        self._cold_known = 0
        self._dead_letters = 0
        self._rejected = 0
        self._first_t: float | None = None
        self._last_done_t: float | None = None
        self._n_done = 0

    def observe(self, record: Mapping[str, Any]) -> None:
        event = record.get("event")
        t = record.get("t")
        with self._lock:
            if isinstance(t, (int, float)):
                if self._first_t is None or t < self._first_t:
                    self._first_t = float(t)
            if event == "enqueue":
                depth = record.get("queue_depth")
                if depth is not None:
                    self._depth_samples.append(int(depth))
            elif event == "dispatch":
                wait = record.get("queue_wait_s")
                if wait is not None:
                    self._queue_wait_s.append(float(wait))
            elif event == "done":
                status = str(record.get("status", "ok"))
                self._status_counts[status] = (
                    self._status_counts.get(status, 0) + 1
                )
                self._n_done += 1
                if isinstance(t, (int, float)):
                    self._last_done_t = float(t)
                attempts = int(record.get("attempts", 1) or 0)
                if attempts > 0:
                    self._executed += 1
                    self._total_attempts += attempts
                    if attempts > 1:
                        self._retried_jobs += 1
                if status == "ok" and attempts > 0:
                    run = record.get("run_s")
                    if run is not None:
                        self._run_s.append(float(run))
                cold = record.get("cold_start")
                if cold is not None:
                    self._cold_known += 1
                    self._cold_starts += 1 if cold else 0
            elif event == "dead_letter":
                self._dead_letters += 1
            elif event == "rejected":
                self._rejected += 1

    def stats(self) -> dict[str, Any]:
        """Every tracked statistic as one flat JSON-serializable dict."""
        with self._lock:
            runs = list(self._run_s)
            waits = list(self._queue_wait_s)
            depths = list(self._depth_samples)
            wall = None
            if self._first_t is not None and self._last_done_t is not None:
                wall = max(self._last_done_t - self._first_t, 0.0)
            throughput = float("nan")
            if wall and self._n_done:
                throughput = self._n_done / wall
            offered = self._n_done + self._rejected
            return {
                "n_jobs": self._n_done,
                "n_executed": self._executed,
                "counts": dict(sorted(self._status_counts.items())),
                "total_attempts": self._total_attempts,
                "job_p50_s": _percentile(runs, 0.50),
                "job_p95_s": _percentile(runs, 0.95),
                "job_p99_s": _percentile(runs, 0.99),
                "queue_wait_p50_s": _percentile(waits, 0.50),
                "queue_wait_p95_s": _percentile(waits, 0.95),
                "queue_wait_p99_s": _percentile(waits, 0.99),
                "queue_depth_peak": max(depths) if depths else 0,
                "queue_depth_mean": (
                    sum(depths) / len(depths) if depths else 0.0
                ),
                "throughput_jobs_per_s": throughput,
                "retry_rate": (
                    self._retried_jobs / self._executed
                    if self._executed else 0.0
                ),
                "dead_letter_rate": (
                    self._dead_letters / self._n_done
                    if self._n_done else 0.0
                ),
                "cold_start_fraction": (
                    self._cold_starts / self._cold_known
                    if self._cold_known else float("nan")
                ),
                # The reject rate is over *offered* load (completed +
                # turned away), the denominator an operator reasons about.
                "n_rejected": self._rejected,
                "reject_rate": (
                    self._rejected / offered if offered else 0.0
                ),
            }


#: Statistics a :class:`SloPolicy` threshold may reference.
SLO_STATS = (
    "job_p50_s",
    "job_p95_s",
    "job_p99_s",
    "queue_wait_p50_s",
    "queue_wait_p95_s",
    "queue_wait_p99_s",
    "queue_depth_peak",
    "queue_depth_mean",
    "throughput_jobs_per_s",
    "retry_rate",
    "dead_letter_rate",
    "cold_start_fraction",
    "n_rejected",
    "reject_rate",
)


class SloPolicy:
    """Declarative service-level objectives over :meth:`SloTracker.stats`.

    Thresholds are a flat mapping of ``max_<stat>`` / ``min_<stat>`` keys
    to numeric limits, e.g.::

        SloPolicy({"max_job_p95_s": 2.0, "max_dead_letter_rate": 0.0,
                   "min_throughput_jobs_per_s": 0.5})

    Unknown statistic names are rejected at construction — a typo'd SLO
    that silently never fires is worse than none.  Statistics with no data
    yet (``NaN``) violate nothing: an empty batch meets every objective
    vacuously rather than spuriously failing a ``min_`` bound.
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


class ServeTelemetry:
    """The server-side telemetry hub (see module docstring).

    Parameters
    ----------
    path:
        Flight-recorder JSONL destination; ``None`` keeps everything
        in memory (SLO tracking and trace assembly still work — what a
        server configured with ``slo`` but no ``telemetry`` path gets).
    slo:
        A :class:`SloPolicy` or a plain thresholds mapping; ``None``
        records statistics without judging them.
    fsync / rollup_every:
        Passed to the :class:`FlightRecorder`.
    """

    def __init__(
        self,
        path: str | os.PathLike | None = None,
        *,
        slo: SloPolicy | Mapping[str, float] | None = None,
        fsync: bool = True,
        rollup_every: int = DEFAULT_ROLLUP_EVERY,
    ) -> None:
        self.recorder = (
            FlightRecorder(path, fsync=fsync, rollup_every=rollup_every)
            if path is not None else None
        )
        if slo is not None and not isinstance(slo, SloPolicy):
            slo = SloPolicy(slo)
        self.policy: SloPolicy | None = slo
        self.tracker = SloTracker()
        self._lock = threading.Lock()
        self._attempts: dict[str, list[dict[str, Any]]] = {}
        self._enqueued_t: dict[str, float] = {}
        self._closed = False

    # -- event intake -------------------------------------------------------

    def record(self, event: str, **fields: Any) -> None:
        """Stamp, persist, and track one serve event.  Never raises."""
        try:
            if self.recorder is not None:
                record = self.recorder.record(event, **fields)
            else:
                record = {"event": event, "t": time.time(), **fields}
            self.tracker.observe(record)
            if event == "enqueue" and "job_id" in fields:
                with self._lock:
                    self._enqueued_t[fields["job_id"]] = record["t"]
            if self.recorder is not None and self.recorder.due_for_rollup():
                self.recorder.rollup(self.slo_report())
        except Exception:  # noqa: BLE001 - telemetry must not break serving
            pass

    def pool_event(self, record: Mapping[str, Any]) -> None:
        """Intake for :class:`~repro.serve.pool.WorkerPool` ``on_event``.

        Attempt-level events carry the server-assigned ``event_key`` (the
        leader job's id); they are accumulated per job so the finished
        job's span tree can reconstruct every attempt, including the ones
        that crashed.
        """
        record = dict(record)
        event = record.pop("event", "attempt")
        record.setdefault("t", time.time())
        key = record.get("event_key")
        if key:
            with self._lock:
                self._attempts.setdefault(key, []).append(
                    {"event": event, **record}
                )
        self.record(event, **record)

    # -- trace assembly -----------------------------------------------------

    def attempt_events(self, job_id: str) -> list[dict[str, Any]]:
        with self._lock:
            return list(self._attempts.get(job_id, ()))

    def build_job_trace(
        self,
        job_id: str,
        *,
        status: str,
        attempts: int,
        queue_wait_s: float,
        run_s: float,
        worker_trace: Mapping[str, Any] | None = None,
        worker_pid: int | None = None,
        cold_start: bool | None = None,
    ) -> Span:
        """One causally-complete span tree for a finished job.

        Server-side shape: ``serve.job`` → ``serve.queue`` (the wait) then
        ``serve.attempt`` per dispatch the pool reported, with a
        ``serve.retry`` span (carrying the backoff delay) between
        consecutive attempts.  The worker-captured tree, when the final
        attempt shipped one back, is grafted under that attempt via
        :meth:`repro.obs.trace.Span.from_dict` — the cross-process graft.
        """
        events = self.attempt_events(job_id)
        with self._lock:
            enqueued_t = self._enqueued_t.get(job_id)
        root = Span(
            "serve.job",
            {"job_id": job_id, "status": status, "attempts": attempts},
        )
        root.start_s = enqueued_t if enqueued_t is not None else 0.0
        root.duration_s = queue_wait_s + run_s
        queue_span = Span("serve.queue", {"job_id": job_id})
        queue_span.start_s = root.start_s
        queue_span.duration_s = queue_wait_s
        root.children.append(queue_span)

        starts = {
            e["attempt"]: e for e in events if e["event"] == "attempt_start"
        }
        ends = {
            e["attempt"]: e for e in events if e["event"] == "attempt_end"
        }
        retries = {e["attempt"]: e for e in events if e["event"] == "retry"}
        numbers = sorted(set(starts) | set(ends)) or list(
            range(1, max(attempts, 1) + 1)
        )
        for number in numbers:
            start = starts.get(number)
            end = ends.get(number)
            attrs: dict[str, Any] = {"attempt": number}
            if end is not None:
                attrs["status"] = end.get("status")
                if end.get("worker_pid") is not None:
                    attrs["worker_pid"] = end["worker_pid"]
            final_ok = number == numbers[-1] and status == "ok"
            if final_ok:
                attrs["status"] = attrs.get("status") or "ok"
                if worker_pid is not None:
                    attrs["worker_pid"] = worker_pid
                if cold_start is not None:
                    attrs["cold_start"] = cold_start
            attempt_span = Span("serve.attempt", attrs)
            if start is not None:
                attempt_span.start_s = float(start.get("t", 0.0))
            if end is not None and end.get("duration_s") is not None:
                attempt_span.duration_s = float(end["duration_s"])
            elif final_ok:
                attempt_span.duration_s = run_s
            else:
                attempt_span.duration_s = 0.0
            if final_ok and worker_trace is not None:
                attempt_span.children.append(Span.from_dict(worker_trace))
            root.children.append(attempt_span)
            retry = retries.get(number)
            if retry is not None:
                retry_span = Span(
                    "serve.retry",
                    {"attempt": number,
                     "backoff_s": retry.get("backoff_s", 0.0)},
                )
                retry_span.start_s = float(retry.get("t", 0.0))
                retry_span.duration_s = float(retry.get("backoff_s") or 0.0)
                root.children.append(retry_span)
        return root

    def forget_job(self, job_id: str) -> None:
        """Drop per-job accumulation once its trace has been built."""
        with self._lock:
            self._attempts.pop(job_id, None)
            self._enqueued_t.pop(job_id, None)

    # -- SLO ----------------------------------------------------------------

    def slo_report(self) -> dict[str, Any]:
        """Summary + thresholds + violations, ready for a batch report."""
        stats = self.tracker.stats()
        report: dict[str, Any] = {"summary": stats}
        if self.policy is not None:
            report["thresholds"] = dict(self.policy.thresholds)
            report["violations"] = self.policy.evaluate(stats)
        else:
            report["thresholds"] = {}
            report["violations"] = []
        return report

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self.recorder is not None:
            self.recorder.close(self.slo_report())


def iter_attempt_bars(
    events: list[dict[str, Any]],
) -> Iterator[dict[str, Any]]:
    """Pair ``attempt_start``/``attempt_end`` events into renderable bars.

    Yields ``{"event_key", "attempt", "start_t", "end_t", "status",
    "worker_pid"}`` — the timeline CLI's unit of drawing.  An attempt with
    a start and no end (torn stream, or the process died recording) yields
    with ``end_t=None`` so the renderer can mark it open.
    """
    open_attempts: dict[tuple[str, int], dict[str, Any]] = {}
    for record in events:
        event = record.get("event")
        key = record.get("event_key")
        attempt = record.get("attempt")
        if event == "attempt_start" and key is not None:
            open_attempts[(key, attempt)] = record
        elif event == "attempt_end" and key is not None:
            start = open_attempts.pop((key, attempt), None)
            yield {
                "event_key": key,
                "attempt": attempt,
                "start_t": start.get("t") if start else None,
                "end_t": record.get("t"),
                "status": record.get("status"),
                "worker_pid": record.get("worker_pid"),
            }
    for (key, attempt), start in open_attempts.items():
        yield {
            "event_key": key,
            "attempt": attempt,
            "start_t": start.get("t"),
            "end_t": None,
            "status": "open",
            "worker_pid": start.get("worker_pid"),
        }
