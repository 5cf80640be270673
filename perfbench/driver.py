"""The timed program: one serve process, started fresh for every sample.

``python3 perfbench/driver.py CONFIG.json`` imports the package, starts a
:class:`repro.serve.BatchServer` over the configured worker count with its
write-ahead journal on, and records the moment its workers exist (the end of
set-up).  Unless the config
says ``setup_only``, it then serves the JSONL job file as ``batches``
consecutive closed batches (every job of a batch submitted up front through
the bounded queue), and writes a per-job record plus the serving processes'
peak RSS to ``out_path``.

The driver runs no pipeline work before the workers fork, so every worker
starts with an empty DelayMap cache.  Jobs run under the runner
:func:`runners.serving_runner` picks.  With ``traced`` set, that is
:func:`runners.traced_runner` and the serve telemetry path is on; the worker
span trees come home in the payloads and are split here into per-layer self
times.
"""

from __future__ import annotations

import functools
import json
import multiprocessing
import os
import sys
import time

#: Span name -> the layer its self time belongs to.  Spans not listed (e.g.
#: ``uniq.gesture_check``) count toward their nearest listed ancestor.
SPAN_LAYER = {
    "serve.worker.job": "serve.worker_self",
    "bench.runner": "serve.worker_self",
    "bench.datasets.load_session": "datasets.load_session",
    "uniq.personalize": "uniq.personalize",
    "quality.preflight": "quality.preflight",
    "bench.signals.preflight_deconvolve": "signals.deconvolve",
    "bench.signals.bank_channel": "signals.deconvolve",
    "fusion.run": "fusion.other",
    "fusion.extract_delays": "fusion.extract_delays",
    "fusion.optimize": "fusion.optimize",
    "fusion.final_localize": "fusion.final_localize",
    "bench.localize.cached_delay_map": "localize.map_lookup",
    "bench.localize.delay_map_build": "localize.delay_map_build",
    "bench.localize.delay_map_load": "mapstore.load",
    "bench.mapstore.load": "mapstore.load",
    "bench.mapstore.save": "mapstore.save",
    "bench.interpolation.extract_measurements": "interpolation.extract_measurements",
    "bench.interpolation.build_grid": "interpolation.build_grid",
    "bench.near_far.convert": "near_far.convert",
    "bench.hrtf.table_digest": "hrtf.table_digest",
}

#: Driver-side counters read after the batch.
SERVE_COUNTERS = (
    "serve.journal.appends",
    "serve.jobs_coalesced",
    "serve.jobs_retried",
)


def layer_self_times(tree: dict) -> tuple[dict[str, float], dict[str, int]]:
    """Self time per layer, and span counts by name, of one tree."""
    times: dict[str, float] = {}
    counts: dict[str, int] = {}
    stack = [(tree, "serve.worker_self")]
    while stack:
        span, inherited = stack.pop()
        layer = SPAN_LAYER.get(span["name"], inherited)
        counts[span["name"]] = counts.get(span["name"], 0) + 1
        children = span.get("children") or []
        own = (span["duration_s"] or 0.0) - sum(
            child["duration_s"] or 0.0 for child in children
        )
        times[layer] = times.get(layer, 0.0) + own
        stack.extend((child, layer) for child in children)
    return times, counts


def _serving_pids() -> list[int]:
    return [os.getpid()] + [p.pid for p in multiprocessing.active_children()]


def _peak_rss_mb(pids: list[int]) -> float:
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            pass
    return total_kb / 1024.0


def _timed(total: list[float], method):
    """Wrap ``method`` to accumulate its call count and seconds in ``total``."""

    @functools.wraps(method)
    def wrapper(*args, **kwargs):
        started = time.perf_counter()
        try:
            return method(*args, **kwargs)
        finally:
            total[0] += time.perf_counter() - started
            total[1] += 1

    return wrapper


def _record(result, traced: bool) -> dict:
    payload = result.payload or {}
    bench = payload.get("_bench") or {}
    record = {
        "id": result.job_id,
        "status": result.status,
        "coalesced": result.coalesced,
        "attempts": result.attempts,
        "run_s": result.run_s,
        "wait_s": result.queue_wait_s,
        "digest": payload.get("table_digest", payload.get("digest")),
        "compute_s": bench.get("compute_s"),
        "counters": bench.get("counters", {}),
    }
    if "table_digest" in payload:
        record.update(
            confidence=payload["confidence"],
            rung=payload["deconv"]["rung"],
            n_angles=payload["n_angles"],
        )
    telemetry = payload.get("_telemetry") or {}
    if traced and not result.coalesced and telemetry.get("trace"):
        times, counts = layer_self_times(telemetry["trace"])
        record["layers"] = times
        record["worker_s"] = telemetry["trace"]["duration_s"]
        record["preflight_deconvolutions"] = counts.get(
            "bench.signals.preflight_deconvolve", 0
        )
    return record


def main(config_path: str) -> int:
    with open(config_path) as handle:
        config = json.load(handle)
    from repro.core.mapstore import MapStore
    from repro.obs import metrics as obs_metrics
    from repro.serve import BatchServer, load_jobs
    from repro.serve.journal import Journal
    from repro.serve.telemetry import ServeTelemetry

    import inputs
    import runners

    traced = bool(config["traced"])
    jobs = load_jobs(config["jobs_path"])
    runner = runners.serving_runner(config["runner"], traced)
    submit_total = [0.0, 0]
    append_total = [0.0, 0]
    if traced:
        Journal.append = _timed(append_total, Journal.append)
    server = BatchServer(
        workers=config["workers"],
        runner=runner,
        # The journal writes every record but skips fsync: fsync latency on a
        # shared disk drifted by a third between runs and swamped the
        # program's own cost.  Appends are still counted exactly.
        journal=Journal(config["journal_path"], fsync=False),
        map_store=config.get("map_store"),
        telemetry=ServeTelemetry(None) if traced else None,
    )
    deadline = time.perf_counter() + 60.0
    while len(multiprocessing.active_children()) < config["workers"]:
        if time.perf_counter() > deadline:
            server.close()
            print("driver: workers did not start", file=sys.stderr)
            return 1
        time.sleep(0.002)
    ready = time.perf_counter()
    out: dict = {"ready": ready}
    if config.get("setup_only"):
        server.close()
    else:
        if traced:
            server.submit = _timed(submit_total, server.submit)
        # Set-up allocates less than the batch that follows it (the worker is
        # forked idle), so the processes' lifetime peak is the batch's peak.
        pids = _serving_pids()
        # Consecutive closed batches on one server; the benchmark reports
        # the median batch throughput.
        bounds = inputs.batch_bounds(len(jobs), config.get("batches", 1))
        reports = [
            server.run_batch(jobs[lo:hi]) for lo, hi in zip(bounds, bounds[1:])
        ]
        out["rss_mb"] = _peak_rss_mb(pids)
        server.close()
        out.update(
            wall_s=sum(r.wall_s for r in reports),
            batch_rates=[r.n_ok / r.wall_s for r in reports],
            results=[
                _record(r, traced) for report in reports for r in report.results
            ],
            submit=submit_total,
            journal_append=append_total,
            registry={
                name: obs_metrics.counter(name).value
                for name in SERVE_COUNTERS + runners.COUNTERS
            },
        )
        if config.get("map_store"):
            out["store_bytes"] = MapStore(config["map_store"]).size_bytes()
    with open(config["out_path"], "w") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
