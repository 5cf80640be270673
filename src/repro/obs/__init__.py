"""repro.obs — observability for the UNIQ pipeline.

Four small, dependency-free layers that every other subsystem threads
through:

- :mod:`repro.obs.trace`   — a span tracer (``with span("fusion.run"):``)
  with nested spans, wall-clock timing, per-span attributes, and near-zero
  overhead when disabled (the default);
- :mod:`repro.obs.metrics` — a process-global registry of counters, gauges,
  and fixed-bucket histograms with snapshot/reset semantics and JSON export;
- :mod:`repro.obs.logging` — the ``repro``-namespaced structured logger;
- :mod:`repro.obs.report`  — render a finished trace as a human-readable
  tree or machine-readable JSON, and metrics snapshots as tables.

Quickstart::

    from repro import obs

    with obs.capturing():                       # enable tracing in a scope
        result = Uniq().personalize(session)
    print(obs.render_span_tree(result.trace))   # the span tree
    print(obs.registry().to_json())             # every counter/gauge/histogram
"""

from repro.obs.trace import (
    Span,
    capturing,
    is_enabled,
    last_trace,
    set_enabled,
    span,
)
from repro.obs.metrics import (
    MetricsRegistry,
    counter,
    gauge,
    histogram,
    registry,
)
from repro.obs.logging import configure as configure_logging
from repro.obs.logging import get_logger, kv
from repro.obs.report import (
    render_metrics,
    render_span_tree,
)

__all__ = [
    "Span",
    "capturing",
    "is_enabled",
    "last_trace",
    "set_enabled",
    "span",
    "MetricsRegistry",
    "counter",
    "gauge",
    "histogram",
    "registry",
    "configure_logging",
    "get_logger",
    "kv",
    "render_metrics",
    "render_span_tree",
]
