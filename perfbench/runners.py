"""Worker-side job runners for the benchmark.

:func:`serving_runner` picks the runner a driver serves a workload with.  All
are top-level functions the :class:`repro.serve.BatchServer` pickles into its
worker processes (``functools.partial(runner, kind)``).

- Untraced tiny jobs run the program's own ``digest_runner``, unwrapped: the
  wrapper below would be a measurable part of a sub-millisecond job, and the
  counts that workload checks exactly are all read on the driver side.
- :func:`counted_runner` runs the program's own runner and adds, under the
  determinism-excluded ``_bench`` payload key, the job's compute time and its
  deltas of the program's work counters.  That is a few dozen counter reads
  per multi-second pipeline job; it is what the exact counter checks need.
- :func:`traced_runner` does the same inside spans that wrap the public calls
  into each layer (capture loading, preflight, deconvolution, DelayMap builds
  and loads, store reads and writes, interpolation, near-far conversion,
  table digest).  The serve telemetry path ships the span tree home; the
  driver splits it into per-layer self times.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable, Mapping

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

#: Program counters whose per-job deltas ride home in ``_bench``.
COUNTERS = (
    "localize.delay_map_builds",
    "localize.delay_map_loads",
    "localize.delay_map_cache_hits",
    "localize.delay_map_cache_misses",
    "localize.invert_cache_hits",
    "mapstore.hits",
    "mapstore.misses",
    "mapstore.saved",
    "fusion.runs",
    "fusion.cost_evaluations",
    "channel.bank_deconvolutions",
    "quality.deconv_escalations",
    "quality.salvage_retries",
    "uniq.gesture_rejections",
    "near_far.arc_fallbacks",
    "workload.digest_jobs",
)


def _program_runner(kind: str) -> Callable[[Mapping[str, Any]], Mapping[str, Any]]:
    if kind == "pipeline":
        from repro.serve.worker import execute_job

        return execute_job
    from repro.testing.workloads import digest_runner

    return digest_runner


def counted_runner(kind: str, spec: Mapping[str, Any]) -> dict[str, Any]:
    """Run the program's runner; attach compute time and counter deltas."""
    runner = _program_runner(kind)
    counters = [obs_metrics.counter(name) for name in COUNTERS]
    before = [c.value for c in counters]
    started = time.perf_counter()
    with obs_trace.span("bench.runner"):
        payload = dict(runner(spec))
    compute_s = time.perf_counter() - started
    payload["_bench"] = {
        "compute_s": compute_s,
        "counters": {
            c.name: c.value - b for c, b in zip(counters, before) if c.value != b
        },
    }
    return payload


def _wrap(owner: Any, attribute: str, name: Callable[..., str] | str) -> None:
    """Replace ``owner.attribute`` by a span-opening wrapper (idempotent)."""
    original = getattr(owner, attribute)
    if getattr(original, "_bench_wrapped", False):
        return

    @functools.wraps(original)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        label = name(*args, **kwargs) if callable(name) else name
        with obs_trace.span(label):
            return original(*args, **kwargs)

    wrapper._bench_wrapped = True  # type: ignore[attr-defined]
    setattr(owner, attribute, wrapper)


def _delay_map_label(*args: Any, **kwargs: Any) -> str:
    # cached_delay_map passes store tables by keyword; a build has none.
    if kwargs.get("tables") is not None:
        return "bench.localize.delay_map_load"
    return "bench.localize.delay_map_build"


def install_layer_spans() -> None:
    """Wrap each layer's public entry points in spans (this process only)."""
    import importlib

    from repro.core import fusion
    from repro.core.interpolation import NearFieldInterpolator
    from repro.core.localize import DelayMap
    from repro.core.mapstore import MapStore
    from repro.core.near_far import NearFarConverter
    from repro.serve import worker
    from repro.signals.channel import ProbeChannelBank

    _wrap(worker, "load_session", "bench.datasets.load_session")
    _wrap(worker, "table_digest", "bench.hrtf.table_digest")
    # The package re-exports the preflight() function under the module name.
    preflight = importlib.import_module("repro.quality.preflight")
    _wrap(preflight, "estimate_channel", "bench.signals.preflight_deconvolve")
    _wrap(ProbeChannelBank, "channel", "bench.signals.bank_channel")
    _wrap(fusion, "cached_delay_map", "bench.localize.cached_delay_map")
    _wrap(DelayMap, "__init__", _delay_map_label)
    _wrap(MapStore, "load", "bench.mapstore.load")
    _wrap(MapStore, "save", "bench.mapstore.save")
    _wrap(NearFieldInterpolator, "extract_measurements",
          "bench.interpolation.extract_measurements")
    _wrap(NearFieldInterpolator, "build_grid", "bench.interpolation.build_grid")
    _wrap(NearFarConverter, "convert", "bench.near_far.convert")


def traced_runner(kind: str, spec: Mapping[str, Any]) -> dict[str, Any]:
    """:func:`counted_runner` with every layer call wrapped in a span."""
    install_layer_spans()
    return counted_runner(kind, spec)


def serving_runner(kind: str, traced: bool) -> Callable[[Mapping[str, Any]], Any]:
    """The runner a driver serves ``kind`` jobs with."""
    if traced:
        return functools.partial(traced_runner, kind)
    if kind == "digest":
        return _program_runner(kind)
    return functools.partial(counted_runner, kind)
