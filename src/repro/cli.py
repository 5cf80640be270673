"""Command-line entry points: one-shot personalization and batch serving.

``uniq-personalize`` (no subcommand) simulates a capture session for a
(virtual) subject, runs the UNIQ pipeline, reports the learned head
parameters and localization quality, optionally evaluates against the
subject's ground truth, and saves the personal HRTF table as an ``.npz``
usable by :func:`repro.hrtf.io.load_table`.

``python -m repro.cli batch`` runs a JSONL job file through the
:class:`repro.serve.BatchServer` — the managed-workload counterpart of the
one-shot command.

``python -m repro.cli timeline`` renders a flight-recorder stream (the
``batch --telemetry`` output) as a per-worker Gantt chart with a
critical-path summary and the batch's SLO statistics.

``python -m repro.cli warmup`` pre-bakes head-search outcomes into a
:mod:`repro.core.mapstore` directory so serve workers start warm (see
``docs/PERFORMANCE.md``, "Cold start & the map store").

``python -m repro.cli fleet`` runs the fleet-evaluation tier
(:mod:`repro.eval.fleet`): ``run`` personalizes the pinned population
through the batch server and writes a FleetReport, ``compare``
gates a report against the pinned distribution baseline with drift
classification, and ``regen-baseline`` re-pins the baseline (see
``docs/TESTING.md``, "Fleet tier & distribution digests").

Examples::

    uniq-personalize --subject-seed 7 --output my_hrtf.npz --evaluate
    python -m repro.cli warmup --store /var/cache/repro-maps --jobs jobs.jsonl
    python -m repro.cli batch --jobs jobs.jsonl --workers 4 \
        --map-store /var/cache/repro-maps \
        --telemetry telemetry.jsonl --report batch_report.json
    python -m repro.cli timeline telemetry.jsonl
    python -m repro.cli fleet run --output fleet_report.json
    python -m repro.cli fleet compare --report fleet_report.json
"""

from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from repro import obs
from repro.errors import ReproError
from repro.hrtf.io import save_table
from repro.hrtf.metrics import mean_table_correlation
from repro.hrtf.reference import global_template_table, ground_truth_table
from repro.simulation.person import VirtualSubject
from repro.simulation.session import MeasurementSession
from repro.core.pipeline import Uniq, UniqConfig, grid_from_step


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uniq-personalize",
        description=(
            "Personalize a head related transfer function (HRTF) by "
            "simulating a phone sweep around a virtual subject's head and "
            "running the UNIQ pipeline on the recordings."
        ),
    )
    parser.add_argument(
        "--subject-seed",
        type=int,
        default=1,
        help="seed of the virtual subject to personalize (default: 1)",
    )
    parser.add_argument(
        "--session-seed",
        type=int,
        default=0,
        help="seed of the capture session randomness (default: 0)",
    )
    parser.add_argument(
        "--output",
        default="personal_hrtf.npz",
        help="path for the saved HRTF table (default: personal_hrtf.npz)",
    )
    parser.add_argument(
        "--angle-step",
        type=float,
        default=5.0,
        help="output table angular resolution in degrees (default: 5)",
    )
    parser.add_argument(
        "--probe-interval",
        type=float,
        default=0.4,
        help="seconds between probe chirps during the sweep (default: 0.4)",
    )
    parser.add_argument(
        "--min-confidence",
        type=float,
        default=0.0,
        metavar="C",
        help="reject the result (exit 1, no table written) when the quality "
        "confidence falls below C in [0, 1] (default: 0, accept everything)",
    )
    parser.add_argument(
        "--deconv",
        choices=("auto", "inverse", "wiener", "tdls"),
        default="auto",
        help="deconvolution strategy: 'auto' (default) starts on the rung "
        "the preflight sentinels recommend and climbs the ladder when the "
        "solve fails; pinning a method runs exactly that rung",
    )
    parser.add_argument(
        "--evaluate",
        action="store_true",
        help="also compare the result against the subject's ground truth "
        "and the global template",
    )
    parser.add_argument(
        "--show",
        action="store_true",
        help="print terminal plots of the estimated HRIRs and the sweep",
    )
    parser.add_argument(
        "--trace",
        action="store_true",
        help="record a span trace of the run and print it as a timing tree",
    )
    parser.add_argument(
        "--metrics-json",
        metavar="PATH",
        default=None,
        help="write the pipeline metrics registry (counters, gauges, "
        "histograms) as JSON to PATH",
    )
    parser.add_argument(
        "-v", "--verbose",
        action="count",
        default=0,
        help="enable structured pipeline logging (-v info, -vv debug)",
    )
    return parser


def _write_metrics(path: str | None) -> None:
    if path is None:
        return
    from repro.ioutil import atomic_write

    try:
        with atomic_write(path, "w") as handle:
            handle.write(obs.registry().to_json())
    except OSError as error:
        print(f"error: cannot write metrics to {path}: {error}", file=sys.stderr)
        return
    print(f"metrics saved    : {path}")


def build_batch_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli batch",
        description=(
            "Run a JSONL file of personalization jobs through the batch "
            "server: bounded queue, worker pool, per-job timeouts, crash "
            "retry, request coalescing."
        ),
    )
    parser.add_argument(
        "--jobs",
        required=True,
        metavar="PATH",
        help="JSONL job file (one repro.serve.Job object per line)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker process count (default: cpu count)",
    )
    parser.add_argument(
        "--queue-size",
        type=int,
        default=None,
        help="bound on the pending-job queue (default: 64)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="S",
        help="default per-job timeout in seconds (jobs may override)",
    )
    parser.add_argument(
        "--no-coalesce",
        action="store_true",
        help="disable sharing one execution among identical job specs",
    )
    parser.add_argument(
        "--journal",
        metavar="PATH",
        default=None,
        help="write-ahead journal file: every submission and outcome is "
        "durably recorded so a killed batch can be resumed (see --resume)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="replay the --journal before running: jobs already recorded "
        "as done (or dead-lettered) are restored, not re-executed",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="max transient retries per job with capped exponential "
        "backoff (default: 1 immediate retry, the legacy behavior)",
    )
    parser.add_argument(
        "--heartbeat-deadline",
        type=float,
        default=None,
        metavar="S",
        help="enable the hung-worker watchdog: kill and retry any worker "
        "silent for more than S seconds",
    )
    parser.add_argument(
        "--min-confidence",
        type=float,
        default=0.0,
        metavar="C",
        help="exit 1 when any completed job's quality confidence falls "
        "below C in [0, 1] (default: 0, accept everything)",
    )
    parser.add_argument(
        "--telemetry",
        metavar="PATH",
        default=None,
        help="record the serve flight-recorder event stream (JSONL) at "
        "PATH and capture per-job cross-process traces; render it later "
        "with `python -m repro.cli timeline PATH`",
    )
    parser.add_argument(
        "--map-store",
        metavar="DIR",
        default=None,
        help="map store directory: workers replay each capture's head "
        "search from DIR (and persist the searches they run) instead of "
        "searching from cold — pre-bake with `python -m repro.cli "
        "warmup`; defaults to $REPRO_MAP_STORE when set",
    )
    parser.add_argument(
        "--slo",
        metavar="PATH",
        default=None,
        help="JSON file of declarative SLO thresholds (max_*/min_* over "
        "the serve statistics); violations print and exit 5",
    )
    parser.add_argument(
        "--report",
        metavar="PATH",
        default=None,
        help="write the structured batch report as JSON to PATH",
    )
    parser.add_argument(
        "--metrics-json",
        metavar="PATH",
        default=None,
        help="write the serve metrics registry as JSON to PATH",
    )
    parser.add_argument(
        "-v", "--verbose",
        action="count",
        default=0,
        help="enable structured serve logging (-v info, -vv debug)",
    )
    return parser


def main_batch(argv: list[str] | None = None) -> int:
    """Run a job file through the batch server.

    Exit codes: 0 every job completed ok, 1 transient failures or
    low-confidence results, 2 the job file (or journal, or SLO policy)
    could not be used, 3 the batch completed but left dead letters
    (permanently failed jobs), 4 the batch was interrupted (SIGINT/SIGTERM)
    and is resumable from the journal, 5 the batch completed ok but
    violated a declared --slo objective.
    """
    import signal

    from repro.serve import BatchServer, RetryPolicy, load_jobs
    from repro.serve.server import DEFAULT_QUEUE_SIZE
    from repro.serve.telemetry import SloPolicy

    args = build_batch_parser().parse_args(argv)
    if args.verbose:
        obs.configure_logging(verbosity=args.verbose)
    if args.resume and args.journal is None:
        print("error: --resume requires --journal", file=sys.stderr)
        return 2
    try:
        jobs = load_jobs(args.jobs)
    except (OSError, ReproError) as error:
        print(f"error: cannot load jobs: {error}", file=sys.stderr)
        return 2
    slo_policy = None
    if args.slo is not None:
        try:
            slo_policy = SloPolicy.from_json_file(args.slo)
        except (OSError, ValueError, ReproError) as error:
            print(f"error: cannot load SLO policy: {error}", file=sys.stderr)
            return 2

    retry_policy = None
    if args.retries is not None:
        retry_policy = RetryPolicy(max_transient_retries=args.retries)
    queue_size = args.queue_size if args.queue_size else DEFAULT_QUEUE_SIZE
    print(f"jobs             : {len(jobs)} from {args.jobs}")
    previous_handlers = {}
    try:
        server = BatchServer(
            workers=args.workers,
            queue_size=queue_size,
            default_timeout_s=args.timeout,
            coalesce=not args.no_coalesce,
            retry_policy=retry_policy,
            journal=args.journal,
            resume=args.resume,
            heartbeat_deadline_s=args.heartbeat_deadline,
            telemetry=args.telemetry,
            slo=slo_policy,
            map_store=args.map_store,
        )
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    def _interrupt(signum, frame):  # noqa: ARG001 - signal signature
        name = signal.Signals(signum).name
        print(f"\n{name} received: draining — in-flight jobs finish, "
              f"queued jobs return to the journal", file=sys.stderr)
        server.interrupt()

    with server:
        if args.journal is not None:
            mode = "resume" if args.resume else "new"
            print(f"journal          : {args.journal} ({mode})")
            # Graceful drain on Ctrl-C / kill: the journal stays resumable.
            for signum in (signal.SIGINT, signal.SIGTERM):
                previous_handlers[signum] = signal.signal(signum, _interrupt)
        print(f"server           : {server.workers} workers, "
              f"queue bound {queue_size}, "
              f"coalescing {'on' if server.coalesce else 'off'}")
        if server.map_store is not None:
            print(f"map store        : {server.map_store}")
        try:
            report = server.run_batch(jobs)
        finally:
            for signum, handler in previous_handlers.items():
                signal.signal(signum, handler)

    counts = ", ".join(
        f"{status} {count}" for status, count in sorted(report.counts.items())
    )
    latency = report.latency_summary()
    print(f"batch done       : {counts}")
    print(f"wall time        : {report.wall_s:.2f} s "
          f"({report.jobs_per_s:.2f} jobs/s)")
    if not math.isnan(latency["run_p50_s"]):
        print(f"job latency      : p50 {latency['run_p50_s']:.2f} s, "
              f"p95 {latency['run_p95_s']:.2f} s "
              f"(queue wait p95 {latency['queue_wait_p95_s']:.2f} s)")
    for result in report.results:
        if not result.ok:
            print(f"  {result.job_id}: {result.status} — {result.error}",
                  file=sys.stderr)
    quality = report.quality_summary()
    low_confidence: list[str] = []
    if quality["graded_jobs"]:
        print(f"quality          : {quality['graded_jobs']} jobs graded, "
              f"confidence mean {quality['mean_confidence']:.3f} "
              f"min {quality['min_confidence']:.3f}, "
              f"{len(quality['flagged_jobs'])} flagged")
        for key, count in quality["flag_counts"].items():
            print(f"                   {key} x{count}")
        methods = quality.get("deconv_method_counts", {})
        if methods and set(methods) != {"inverse"}:
            rungs = ", ".join(f"{m} x{n}" for m, n in methods.items())
            print(f"deconvolution    : {rungs} "
                  f"({len(quality['escalated_jobs'])} jobs above rung 0)")
        for result in report.results:
            payload = result.payload or {}
            if (
                result.ok
                and payload.get("quality") is not None
                and float(payload["confidence"]) < args.min_confidence
            ):
                low_confidence.append(result.job_id)
                print(f"  {result.job_id}: confidence "
                      f"{payload['confidence']:.3f} below "
                      f"--min-confidence {args.min_confidence}",
                      file=sys.stderr)
    if report.n_replayed:
        print(f"resumed          : {report.n_replayed} jobs replayed from "
              f"the journal, {len(report.results) - report.n_replayed} "
              f"executed")
    if args.telemetry is not None:
        print(f"telemetry        : {args.telemetry} "
              f"(render with `python -m repro.cli timeline "
              f"{args.telemetry}`)")
    violations = report.slo_violations
    for violation in violations:
        print(f"SLO violated     : {violation['threshold']} "
              f"(limit {violation['limit']:g}, "
              f"actual {violation['actual']:g})", file=sys.stderr)
    if args.report is not None:
        try:
            report.save(args.report)
        except OSError as error:
            print(f"error: cannot write report: {error}", file=sys.stderr)
            return 1
        print(f"report saved     : {args.report}")
    _write_metrics(args.metrics_json)
    if report.interrupted:
        print(f"interrupted      : {report.n_interrupted} jobs not run; "
              f"resume with --journal {args.journal} --resume",
              file=sys.stderr)
        return 4
    dead = report.dead_letters
    if dead:
        print(f"dead letters     : {len(dead)} jobs failed permanently "
              f"({', '.join(r.job_id for r in dead)})", file=sys.stderr)
        return 3
    ok = report.n_ok == len(report.results) and not low_confidence
    if ok and violations:
        return 5
    return 0 if ok else 1


def build_timeline_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli timeline",
        description=(
            "Render a serve flight-recorder stream (batch --telemetry "
            "output) as a per-worker Gantt chart, a critical-path summary "
            "of span self-times, and the batch's SLO statistics."
        ),
    )
    parser.add_argument(
        "stream",
        metavar="TELEMETRY_JSONL",
        help="the flight-recorder JSONL stream to render",
    )
    parser.add_argument(
        "--width",
        type=int,
        default=72,
        help="Gantt chart width in columns (default: 72)",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=8,
        metavar="N",
        help="show the N largest span self-times (default: 8)",
    )
    parser.add_argument(
        "--output",
        metavar="PATH",
        default=None,
        help="also write the rendered timeline to PATH (CI artifacts)",
    )
    return parser


#: Bar glyph per attempt status on the timeline.
_TIMELINE_BARS = {
    "ok": "█", "error": "▓", "timeout": "▒", "crashed": "░", "open": "─",
}


def main_timeline(argv: list[str] | None = None) -> int:
    """Render a flight-recorder stream as a per-worker timeline.

    Exit codes: 0 rendered, 2 the stream could not be read or holds no
    events.
    """
    from repro.obs.report import self_durations
    from repro.obs.trace import Span
    from repro.serve.telemetry import SloTracker, iter_attempt_bars, read_events
    from repro.textplot import gantt

    args = build_timeline_parser().parse_args(argv)
    try:
        events = read_events(args.stream)
    except OSError as error:
        print(f"error: cannot read telemetry stream: {error}", file=sys.stderr)
        return 2
    if not events:
        print(f"error: {args.stream} holds no telemetry events", file=sys.stderr)
        return 2

    times = [
        e["t"] for e in events if isinstance(e.get("t"), (int, float))
    ]
    t0, t1 = min(times), max(times)
    if t1 <= t0:
        t1 = t0 + 1e-3

    # One lane per worker pid (attempt bars + kill marks), plus a server
    # lane carrying dispatch/retry/dead-letter/drain marks.
    lanes_map: dict[str, tuple[list, list]] = {}

    def lane(pid) -> tuple[list, list]:
        label = f"pid {pid}" if pid is not None else "pid ?"
        return lanes_map.setdefault(label, ([], []))

    n_attempts = 0
    for bar in iter_attempt_bars(events):
        n_attempts += 1
        bars, _ = lane(bar["worker_pid"])
        char = _TIMELINE_BARS.get(bar["status"] or "ok", "█")
        bars.append((bar["start_t"], bar["end_t"], char))
    server_marks: list[tuple[float, str]] = []
    for event in events:
        kind = event.get("event")
        t = event.get("t")
        if not isinstance(t, (int, float)):
            continue
        if kind == "watchdog_kill":
            lane(event.get("worker_pid"))[1].append((t, "K"))
        elif kind == "retry":
            server_marks.append((t, "r"))
        elif kind == "dead_letter":
            server_marks.append((t, "D"))
        elif kind == "drain":
            server_marks.append((t, "!"))
        elif kind == "dispatch":
            server_marks.append((t, "·"))

    lines: list[str] = []
    n_jobs = sum(1 for e in events if e.get("event") == "done")
    lines.append(
        f"timeline: {len(events)} events, {n_jobs} jobs, "
        f"{n_attempts} attempts, {t1 - t0:.2f} s window ({args.stream})"
    )
    lines.append("")
    lanes = [("server", [], server_marks)]
    lanes.extend((label,) + lanes_map[label] for label in sorted(lanes_map))
    lines.append(gantt(lanes, t0, t1, width=args.width))
    lines.append(
        "legend: █ ok  ▓ error  ▒ timeout  ░ crashed  ─ open  "
        "K watchdog kill  r retry  D dead letter  ! drain  · dispatch"
    )

    # Critical path: per-span-name self time summed over every job trace
    # shipped home in the done events.
    totals: dict[str, float] = {}
    n_traces = 0
    for event in events:
        if event.get("event") == "done" and event.get("trace"):
            n_traces += 1
            for name, own in self_durations(
                Span.from_dict(event["trace"])
            ).items():
                totals[name] = totals.get(name, 0.0) + own
    if totals:
        lines.append("")
        lines.append(f"critical path (span self-time over {n_traces} traces):")
        ranked = sorted(totals.items(), key=lambda kv: -kv[1])[: args.top]
        name_width = max(len(name) for name, _ in ranked)
        for name, total in ranked:
            lines.append(f"  {name.ljust(name_width)}  {total:8.3f} s")

    tracker = SloTracker()
    for event in events:
        tracker.observe(event)
    stats = tracker.stats()
    lines.append("")
    lines.append(
        f"slo stats: job p50 {stats['job_p50_s']:.3f} s "
        f"p95 {stats['job_p95_s']:.3f} s, "
        f"queue wait p95 {stats['queue_wait_p95_s']:.3f} s, "
        f"depth peak {stats['queue_depth_peak']}, "
        f"throughput {stats['throughput_jobs_per_s']:.2f} jobs/s, "
        f"retry rate {stats['retry_rate']:.2f}, "
        f"dead-letter rate {stats['dead_letter_rate']:.2f}, "
        f"cold-start fraction {stats['cold_start_fraction']:.2f}"
    )

    text = "\n".join(lines)
    print(text)
    if args.output is not None:
        from repro.ioutil import atomic_write

        try:
            with atomic_write(args.output, "w") as handle:
                handle.write(text + "\n")
        except OSError as error:
            print(f"error: cannot write --output: {error}", file=sys.stderr)
            return 2
    return 0


def build_warmup_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli warmup",
        description=(
            "Pre-bake head-search outcomes into a map store so cold serve "
            "workers replay each capture's head search instead of running "
            "it: run each distinct job spec once with the store active and "
            "persist every search it runs (a search is keyed on the exact "
            "capture, so only the captures served later produce hits)."
        ),
    )
    parser.add_argument(
        "--store",
        metavar="DIR",
        default=None,
        help="map store directory (defaults to $REPRO_MAP_STORE)",
    )
    parser.add_argument(
        "--jobs",
        metavar="PATH",
        required=True,
        help="JSONL job file: run each distinct spec once, persisting every "
        "head search it runs",
    )
    return parser


def main_warmup(argv: list[str] | None = None) -> int:
    """Pre-bake head-search outcomes into a map store.

    Exit codes: 0 baked, 1 a job spec failed, 2 the store or job file
    could not be used.
    """
    import os

    from repro.core import mapstore
    from repro.serve import load_jobs
    from repro.serve.worker import execute_job

    args = build_warmup_parser().parse_args(argv)
    raw = args.store or os.environ.get(mapstore.MAP_STORE_ENV, "")
    if not raw.strip():
        print("error: no store: pass --store or set REPRO_MAP_STORE",
              file=sys.stderr)
        return 2
    path = mapstore.validate_store_path(raw)
    if path is None:
        print(f"error: unusable store path {raw!r}", file=sys.stderr)
        return 2
    store = mapstore.MapStore(path)
    before_n, before_bytes = len(store), store.size_bytes()
    # Searches persist through fusion's store lookup, which reads the
    # environment.
    os.environ[mapstore.MAP_STORE_ENV] = path
    started = time.perf_counter()

    try:
        jobs = load_jobs(args.jobs)
    except (OSError, ReproError) as error:
        print(f"error: cannot load jobs: {error}", file=sys.stderr)
        return 2
    distinct = {job.spec_key(): job for job in jobs}
    print(f"exact warmup     : {len(distinct)} distinct specs "
          f"from {args.jobs} -> {path}")
    failed = 0
    for i, job in enumerate(distinct.values()):
        job_started = time.perf_counter()
        try:
            execute_job(job.to_dict())
        except ReproError as error:
            failed += 1
            print(f"  {job.job_id}: failed ({error})", file=sys.stderr)
            continue
        print(f"  [{i + 1}/{len(distinct)}] {job.job_id}: "
              f"{time.perf_counter() - job_started:.2f} s")

    print(f"store            : {len(store)} artifacts "
          f"({store.size_bytes() / 1e3:.1f} kB), "
          f"+{len(store) - before_n} new "
          f"(+{(store.size_bytes() - before_bytes) / 1e3:.1f} kB) "
          f"in {time.perf_counter() - started:.1f} s")
    return 1 if failed else 0


def build_fleet_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.cli fleet",
        description=(
            "Fleet evaluation: personalize the pinned population through the "
            "batch server, score each subject against the simulator's "
            "truth, digest the per-stratum distributions into a FleetReport, "
            "and gate against the pinned baseline with drift classification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--workers",
            type=int,
            default=2,
            help="serve worker process count (default: 2)",
        )

    run = sub.add_parser(
        "run", help="run the population and write the FleetReport JSON"
    )
    add_run_args(run)
    run.add_argument(
        "--output",
        metavar="PATH",
        default="fleet_report.json",
        help="FleetReport path (default: fleet_report.json); any worker "
        "count writes bit-identical files",
    )
    run.add_argument(
        "--metrics-json",
        metavar="PATH",
        default=None,
        help="write the fleet/serve metrics registry as JSON to PATH",
    )

    compare = sub.add_parser(
        "compare",
        help="compare a FleetReport (or a fresh run) against the pinned "
        "baseline; drift fails with a classified diff table",
    )
    add_run_args(compare)
    compare.add_argument(
        "--report",
        metavar="PATH",
        default=None,
        help="existing FleetReport to compare; omitted: run the population "
        "afresh",
    )
    compare.add_argument(
        "--baseline",
        metavar="PATH",
        default=None,
        help="baseline report (default: the pinned tests/golden/"
        "fleet_baseline.json)",
    )
    compare.add_argument(
        "--output",
        metavar="PATH",
        default=None,
        help="also save the compared report (fresh runs only)",
    )

    regen = sub.add_parser(
        "regen-baseline",
        help="re-pin the distribution baseline after an intentional change",
    )
    add_run_args(regen)
    regen.add_argument(
        "--output",
        metavar="PATH",
        default=None,
        help="baseline path (default: tests/golden/fleet_baseline.json)",
    )
    return parser


def _fleet_run(args) -> tuple["object", dict]:
    """Execute one fleet run from parsed CLI args (shared by subcommands)."""
    from repro.eval.fleet import run_fleet

    report, ops = run_fleet(workers=args.workers)
    statuses = ", ".join(
        f"{status} {count}" for status, count in sorted(ops["statuses"].items())
    )
    print(f"fleet run        : {sum(ops['statuses'].values())} subjects "
          f"({statuses})")
    print(f"throughput       : {ops['subjects_per_s']:.2f} subjects/s "
          f"({ops['wall_s']:.1f} s wall, {ops['workers']} workers)")
    return report, ops


def main_fleet(argv: list[str] | None = None) -> int:
    """Run / compare / re-pin the fleet-evaluation tier.

    Exit codes: 0 clean, 1 baseline drift (``compare``), 2 the inputs
    (report, baseline file, or server options) could not be used, 3 the
    run left subjects the service never measured (``crashed``,
    ``timeout``, ``interrupted`` or ``rejected``).  A ``failed`` subject
    is a measured outcome: it counts in the failure rate only.
    """
    import json
    import os

    from repro.eval.drift import render_drift_table
    from repro.eval.fleet import UNMEASURED_STATUSES, compare_reports
    from repro.testing.golden import golden_dir

    args = build_fleet_parser().parse_args(argv)
    pinned_baseline = os.path.join(golden_dir(), "fleet_baseline.json")
    unmeasured_names = "/".join(sorted(UNMEASURED_STATUSES))

    if args.command == "run":
        try:
            report, _ = _fleet_run(args)
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        try:
            report.save(args.output)
        except OSError as error:
            print(f"error: cannot write report: {error}", file=sys.stderr)
            return 2
        print(f"report saved     : {args.output}")
        _write_metrics(args.metrics_json)
        if report.n_unmeasured:
            print(f"error: {report.n_unmeasured} subjects were not measured "
                  f"({unmeasured_names})", file=sys.stderr)
            return 3
        return 0

    if args.command == "regen-baseline":
        output = args.output or pinned_baseline
        try:
            report, _ = _fleet_run(args)
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        if report.n_unmeasured:
            print(f"error: refusing to pin a baseline with "
                  f"{report.n_unmeasured} unmeasured subjects "
                  f"({unmeasured_names})", file=sys.stderr)
            return 3
        try:
            report.save(output)
        except OSError as error:
            print(f"error: cannot write baseline: {error}", file=sys.stderr)
            return 2
        print(f"baseline pinned  : {output}")
        return 0

    # compare
    baseline_path = args.baseline or pinned_baseline
    try:
        with open(baseline_path) as handle:
            baseline = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        print(f"error: cannot load baseline {baseline_path}: {error}",
              file=sys.stderr)
        return 2
    if args.report is not None:
        try:
            with open(args.report) as handle:
                report_dict = json.load(handle)
        except (OSError, json.JSONDecodeError) as error:
            print(f"error: cannot load report {args.report}: {error}",
                  file=sys.stderr)
            return 2
        print(f"comparing        : {args.report} vs {baseline_path}")
    else:
        try:
            report, _ = _fleet_run(args)
        except ReproError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        report_dict = report.to_dict()
        if args.output is not None:
            try:
                report.save(args.output)
            except OSError as error:
                print(f"error: cannot write report: {error}", file=sys.stderr)
                return 2
            print(f"report saved     : {args.output}")
        print(f"comparing        : fresh run vs {baseline_path}")
    try:
        violations, findings = compare_reports(baseline, report_dict)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if not violations:
        print("baseline check   : ok (every digest within tolerance)")
        return 0
    print(f"baseline check   : {len(violations)} violations, "
          f"{len(findings)} classified drift findings", file=sys.stderr)
    for violation in violations:
        print(f"  {violation}", file=sys.stderr)
    if findings:
        print(file=sys.stderr)
        print(render_drift_table(findings), file=sys.stderr)
    return 1


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "batch":
        return main_batch(argv[1:])
    if argv and argv[0] == "timeline":
        return main_timeline(argv[1:])
    if argv and argv[0] == "warmup":
        return main_warmup(argv[1:])
    if argv and argv[0] == "fleet":
        return main_fleet(argv[1:])
    args = build_parser().parse_args(argv)
    if args.angle_step <= 0 or args.angle_step > 60:
        print(f"error: --angle-step must be in (0, 60], got {args.angle_step}",
              file=sys.stderr)
        return 2
    if args.metrics_json is not None:
        # Fail fast: a typo'd path should not surface only after the
        # multi-second personalization has already run.
        try:
            open(args.metrics_json, "a").close()
        except OSError as error:
            print(f"error: cannot write --metrics-json path: {error}",
                  file=sys.stderr)
            return 2
    if args.verbose:
        obs.configure_logging(verbosity=args.verbose)
    if args.trace:
        obs.set_enabled(True)

    subject = VirtualSubject.random(args.subject_seed)
    print(f"subject          : {subject.name}")
    print("true head (a,b,c): "
          + ", ".join(f"{v * 100:.2f} cm" for v in subject.head.parameters))

    session = MeasurementSession(
        subject, seed=args.session_seed, probe_interval_s=args.probe_interval
    ).run()
    print(f"capture          : {session.n_probes} probes over "
          f"{session.truth.trajectory.duration:.0f} s sweep")

    grid = grid_from_step(args.angle_step)
    uniq = Uniq(UniqConfig(angle_grid_deg=grid, deconv=args.deconv))
    try:
        result = uniq.personalize(session)
    except ReproError as error:
        print(f"personalization failed: {error}", file=sys.stderr)
        _write_metrics(args.metrics_json)
        return 1

    if args.trace and result.trace is not None:
        print()
        print("span trace (wall clock per pipeline stage):")
        print(obs.render_span_tree(result.trace))
        print()

    print("learned E_opt    : "
          + ", ".join(f"{v * 100:.2f} cm" for v in result.head_parameters))
    print(f"fusion residual  : {result.fusion.residual_deg:.1f} deg")
    print(f"gyro bias        : {result.fusion.gyro_bias_dps:+.2f} deg/s")

    if result.quality is not None:
        print(f"confidence       : {result.quality.confidence:.3f}")
        method = result.quality.salvage.get("deconv_method", "inverse")
        rung = result.quality.salvage.get("deconv_rung", 0)
        path = result.quality.salvage.get("deconv_path", [method])
        climbed = f" via {' -> '.join(path)}" if len(path) > 1 else ""
        print(f"deconvolution    : {method} (rung {rung}){climbed}")
        print("quality          : stage        score  flags")
        for stage, score, flags in result.quality.stage_table():
            print(f"                   {stage:<12} {score:.3f}  {flags}")
        if result.quality.salvage.get("retried"):
            dropped = result.quality.salvage.get("dropped_probes", [])
            print(f"salvage          : retried with {len(dropped)} probes dropped")
        if result.quality.confidence < args.min_confidence:
            print(
                f"error: confidence {result.quality.confidence:.3f} below "
                f"--min-confidence {args.min_confidence}; table not saved",
                file=sys.stderr,
            )
            _write_metrics(args.metrics_json)
            return 1

    if args.evaluate:
        angles = np.asarray(grid)
        truth = ground_truth_table(subject, angles, session.fs)
        template = global_template_table(angles, session.fs)
        own_l, own_r = mean_table_correlation(result.table, truth)
        tpl_l, tpl_r = mean_table_correlation(template, truth)
        print(f"corr to truth    : UNIQ {own_l:.2f}/{own_r:.2f}  "
              f"global {tpl_l:.2f}/{tpl_r:.2f}  "
              f"gain {(own_l + own_r) / (tpl_l + tpl_r):.2f}x")

    if args.show:
        from repro.textplot import cdf_plot, waveform

        for angle in (0.0, 60.0, 120.0):
            entry = result.table.nearest(angle, "far")
            print()
            print(waveform(
                entry.left,
                title=f"far-field HRIR, left ear, {angle:.0f} deg",
            ))
        fusion = result.fusion
        if fusion.solved.any():
            print()
            print("fused-vs-IMU angular gap CDF (deg):")
            gap = np.abs(
                fusion.acoustic_angles_deg[fusion.solved]
                - fusion.imu_angles_deg[fusion.solved]
            )
            print(cdf_plot(gap))

    save_table(result.table, args.output)
    print(f"table saved      : {args.output} "
          f"({result.table.n_angles} angles, near+far, left+right)")
    _write_metrics(args.metrics_json)
    return 0


if __name__ == "__main__":
    sys.exit(main())
