"""Process-global metrics registry: counters, gauges, histograms.

Instrumented code grabs a metric once (cheap get-or-create under a lock)
and bumps it with plain attribute arithmetic, so metrics stay on even in
hot loops — a counter increment is a dict lookup away from free, which is
what lets the fusion optimizer count every cost evaluation.

Three metric kinds, mirroring the usual production vocabulary:

- :class:`Counter` — monotonically increasing totals (probes rendered,
  fusion iterations, gesture rejections);
- :class:`Gauge` — last-written values (final residual, learned radius);
- :class:`Histogram` — fixed-bucket distributions (per-probe localization
  error) with cumulative-style bucket counts, sum, and count.

The global :func:`registry` supports ``snapshot()`` (a plain dict),
``reset()`` (zero everything, keep registrations), and ``to_json()`` —
that JSON is what ``uniq-personalize --metrics-json`` and the benchmark
exporter write.
"""

from __future__ import annotations

import json
import math
import threading
from typing import Any

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TIME_BUCKETS_S",
    "counter",
    "diff_snapshots",
    "gauge",
    "histogram",
    "registry",
]

#: Default histogram bucket upper bounds — a generic log-ish ladder that
#: covers degrees, milliseconds, and counts equally well.
DEFAULT_BUCKETS = (0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0)

#: Bucket ladder for wall-clock durations in *seconds*: millisecond queue
#: waits through multi-minute batch jobs.  Used by the serve-layer latency
#: histograms (``serve.queue_wait_s``, ``serve.run_s``).
TIME_BUCKETS_S = (
    0.001, 0.005, 0.02, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
    60.0, 120.0, 300.0,
)


class Counter:
    """A monotonically increasing total.

    Thread-safe: serve-layer pool callbacks and batch submitters bump
    counters from several threads at once, and ``value += amount`` is a
    read-modify-write that loses increments under that interleaving.  The
    per-metric lock makes every increment exact; the uncontended acquire is
    ~100 ns, invisible even in the fusion cost-evaluation hot loop.
    """

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease ({amount})")
        with self._lock:
            self.value += amount


class Gauge:
    """A last-written value."""

    __slots__ = ("name", "value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)


class Histogram:
    """A fixed-bucket distribution.

    ``bucket_counts[i]`` counts observations ``<= buckets[i]`` (non-
    cumulative per bucket); the final slot counts overflows.  Non-finite
    observations are counted separately and never pollute the sum.
    """

    __slots__ = (
        "name", "buckets", "bucket_counts", "sum", "count", "non_finite",
        "_lock",
    )

    def __init__(self, name: str, buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        ordered = tuple(float(b) for b in buckets)
        if len(ordered) < 1 or list(ordered) != sorted(set(ordered)):
            raise ValueError(f"histogram {name} buckets must be sorted unique: {buckets}")
        self.name = name
        self.buckets = ordered
        self.bucket_counts = [0] * (len(ordered) + 1)
        self.sum = 0.0
        self.count = 0
        self.non_finite = 0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        if not math.isfinite(value):
            with self._lock:
                self.non_finite += 1
            return
        with self._lock:
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    self.bucket_counts[i] += 1
                    break
            else:
                self.bucket_counts[-1] += 1
            self.sum += value
            self.count += 1


class MetricsRegistry:
    """A named collection of metrics with snapshot/reset semantics."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        with self._lock:
            metric = self._counters.get(name)
            if metric is None:
                metric = self._counters[name] = Counter(name)
            return metric

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            metric = self._gauges.get(name)
            if metric is None:
                metric = self._gauges[name] = Gauge(name)
            return metric

    def histogram(
        self, name: str, buckets: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> Histogram:
        with self._lock:
            metric = self._histograms.get(name)
            if metric is None:
                metric = self._histograms[name] = Histogram(name, buckets)
            return metric

    def snapshot(self) -> dict[str, Any]:
        """Every metric as one JSON-serializable dict."""
        with self._lock:
            return {
                "counters": {
                    name: metric.value for name, metric in sorted(self._counters.items())
                },
                "gauges": {
                    name: metric.value for name, metric in sorted(self._gauges.items())
                },
                "histograms": {
                    name: {
                        "buckets": list(metric.buckets),
                        "counts": list(metric.bucket_counts),
                        "sum": metric.sum,
                        "count": metric.count,
                        "non_finite": metric.non_finite,
                    }
                    for name, metric in sorted(self._histograms.items())
                },
            }

    def reset(self) -> None:
        """Zero every metric, keeping all registrations alive."""
        with self._lock:
            for metric in self._counters.values():
                with metric._lock:
                    metric.value = 0.0
            for metric in self._gauges.values():
                with metric._lock:
                    metric.value = 0.0
            for metric in self._histograms.values():
                with metric._lock:
                    metric.bucket_counts = [0] * (len(metric.buckets) + 1)
                    metric.sum = 0.0
                    metric.count = 0
                    metric.non_finite = 0

    def merge_delta(self, delta: dict[str, Any]) -> None:
        """Fold a :func:`diff_snapshots` delta into this registry.

        The serve layer's cross-process export path: each worker ships the
        metrics delta of one job back with its result, and the batch server
        merges it here so the parent's registry describes the whole fleet.
        Counter deltas add, gauge values overwrite (last writer wins, same
        as in-process gauges), histogram deltas add bucket-wise.  A
        histogram arriving with a different bucket ladder than the local
        registration cannot be merged faithfully and is dropped, counted by
        ``obs.merge.bucket_mismatch``.
        """
        for name, amount in delta.get("counters", {}).items():
            if amount:
                self.counter(name).inc(float(amount))
        for name, value in delta.get("gauges", {}).items():
            self.gauge(name).set(float(value))
        for name, data in delta.get("histograms", {}).items():
            buckets = tuple(float(b) for b in data["buckets"])
            metric = self.histogram(name, buckets)
            if metric.buckets != buckets:
                self.counter("obs.merge.bucket_mismatch").inc()
                continue
            with metric._lock:
                for i, count in enumerate(data["counts"]):
                    metric.bucket_counts[i] += int(count)
                metric.sum += float(data.get("sum", 0.0))
                metric.count += int(data.get("count", 0))
                metric.non_finite += int(data.get("non_finite", 0))

    def to_json(self, indent: int | None = 2) -> str:
        """The snapshot serialized as JSON text."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)


def diff_snapshots(
    before: dict[str, Any], after: dict[str, Any]
) -> dict[str, Any]:
    """What happened between two :meth:`MetricsRegistry.snapshot` calls.

    Counters subtract (entries whose total did not move are dropped, so a
    delta stays small even against a long-lived registry); gauges keep the
    ``after`` value for any gauge that changed or appeared; histograms
    subtract bucket-wise and drop when no observation landed.  The result
    is itself snapshot-shaped, which is what lets
    :meth:`MetricsRegistry.merge_delta` fold it into another process's
    registry — the worker→server metrics export format.
    """
    delta: dict[str, Any] = {"counters": {}, "gauges": {}, "histograms": {}}
    before_counters = before.get("counters", {})
    for name, value in after.get("counters", {}).items():
        moved = value - before_counters.get(name, 0.0)
        if moved:
            delta["counters"][name] = moved
    before_gauges = before.get("gauges", {})
    for name, value in after.get("gauges", {}).items():
        if name not in before_gauges or before_gauges[name] != value:
            delta["gauges"][name] = value
    before_histograms = before.get("histograms", {})
    for name, data in after.get("histograms", {}).items():
        prior = before_histograms.get(name)
        if prior is not None and list(prior["buckets"]) != list(data["buckets"]):
            prior = None  # re-registered with a new ladder: treat as fresh
        counts = [
            count - (prior["counts"][i] if prior else 0)
            for i, count in enumerate(data["counts"])
        ]
        non_finite = data.get("non_finite", 0) - (
            prior.get("non_finite", 0) if prior else 0
        )
        if not any(counts) and not non_finite:
            continue
        delta["histograms"][name] = {
            "buckets": list(data["buckets"]),
            "counts": counts,
            "sum": data.get("sum", 0.0) - (prior.get("sum", 0.0) if prior else 0.0),
            "count": data.get("count", 0) - (prior.get("count", 0) if prior else 0),
            "non_finite": non_finite,
        }
    return delta


_registry = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-global registry all library instrumentation uses."""
    return _registry


def counter(name: str) -> Counter:
    """Get-or-create a counter on the global registry."""
    return _registry.counter(name)


def gauge(name: str) -> Gauge:
    """Get-or-create a gauge on the global registry."""
    return _registry.gauge(name)


def histogram(name: str, buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> Histogram:
    """Get-or-create a histogram on the global registry."""
    return _registry.histogram(name, buckets)
