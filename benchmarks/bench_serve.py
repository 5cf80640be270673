"""Load-generate the batch service and record BENCH_PR3.json.

Three ways to run the same 32-job workload (8 distinct specs, so request
coalescing has something to do), most expensive first:

- **per-process** (the status-quo workflow this PR replaces): every job
  pays a fresh interpreter, imports, and stone-cold caches, like looping
  ``uniq-personalize`` in a shell script.  Sampled (a few real spawns) and
  extrapolated to the full job count.
- **serial service**: one :class:`repro.serve.BatchServer` with a single
  worker — long-lived process, warm caches, coalescing.
- **batch service**: the same server at 4 workers.

The record keeps both baselines honest and separate: ``speedup_vs_
per_process`` is the headline (the workflow actually being replaced) and
``speedup_vs_serial_service`` shows what worker parallelism adds on this
machine (~1x on a single-core box — the cache and coalescing wins are
already in the serial service number).

Also verifies on every run that the 4-worker batch is bit-identical to the
serial run, that turning the telemetry flight recorder on costs under 5% of
throughput (and changes no deterministic result), that a batch survives
one injected worker crash, and — the PR 7 cold-start phase — that a fresh
worker forked cold serves its first job from a pre-baked DelayMap artifact
store within 2x the warm single-process personalize time, bit-identically
to the empty-store run (record it with ``--pr7-output BENCH_PR7.json``).

The PR 8 fleet phase pushes a synthetic evaluation population through the
same serve layer and records subjects/second — the number that sizes the
CI fleet tier — plus a bit-identity check of the multi-worker
:class:`~repro.eval.fleet.FleetReport` against a serial run (record it
with ``--pr8-output BENCH_PR8.json``).

The PR 10 adverse phase checks the deconvolution ladder's two serve-side
contracts: ``auto`` costs under 2% over pinned ``inverse`` on a clean
capture (the ladder is free when it does nothing), and a batch of noisy/
reverberant jobs completes with zero failures, each payload carrying the
method/rung it settled on (record it with ``--pr10-output
BENCH_PR10.json``).

    PYTHONPATH=src python benchmarks/bench_serve.py --output BENCH_PR3.json \
        --pr7-output BENCH_PR7.json --pr8-output BENCH_PR8.json
    PYTHONPATH=src python benchmarks/bench_serve.py --quick   # CI smoke
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time

from repro import __version__, obs
from repro.core.fusion import clear_search_memo
from repro.serve import BatchServer, Job

#: The golden-case pipeline configuration (small grid, sparse probes).
SPEC = {"probe_interval_s": 0.6, "angle_step_deg": 15.0}

_PER_PROCESS_SNIPPET = """
import time
from repro.core.pipeline import personalize_capture
started = time.perf_counter()
personalize_capture(subject_seed={seed}, probe_interval_s={probe}, \
angle_step_deg={step})
print(time.perf_counter() - started)
"""


def make_jobs(n_jobs: int, n_specs: int) -> list[Job]:
    """``n_jobs`` jobs cycling through ``n_specs`` distinct subject seeds."""
    return [
        Job(job_id=f"user-{i:03d}", subject_seed=1 + (i % n_specs), **SPEC)
        for i in range(n_jobs)
    ]


def run_service(jobs: list[Job], workers: int) -> dict:
    # The serial (inline) phase solves in this process; forked workers of
    # later phases must not inherit its head searches, so every phase times
    # warm solves, not replays.
    clear_search_memo()
    with BatchServer(workers=workers) as server:
        report = server.run_batch(jobs)
    if report.n_ok != len(jobs):
        raise RuntimeError(f"batch had failures: {report.counts}")
    return {
        "workers": workers,
        "n_jobs": len(jobs),
        "wall_s": report.wall_s,
        "jobs_per_s": report.jobs_per_s,
        "coalesced_jobs": sum(1 for r in report.results if r.coalesced),
        "latency": report.latency_summary(),
        "results": [r.deterministic() for r in report.results],
    }


def run_per_process(jobs: list[Job], samples: int) -> dict:
    """Time a few real fresh-interpreter runs; extrapolate to the batch."""
    distinct = []
    seen = set()
    for job in jobs:
        if job.subject_seed not in seen:
            seen.add(job.subject_seed)
            distinct.append(job)
    sampled = distinct[: max(1, samples)]
    walls = []
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    for job in sampled:
        snippet = _PER_PROCESS_SNIPPET.format(
            seed=job.subject_seed,
            probe=job.probe_interval_s,
            step=job.angle_step_deg,
        )
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", snippet], env=env, check=True,
            stdout=subprocess.DEVNULL,
        )
        walls.append(time.perf_counter() - started)
    mean_wall = sum(walls) / len(walls)
    return {
        "n_sampled": len(walls),
        "sample_walls_s": walls,
        "mean_job_wall_s": mean_wall,
        # Every job pays the full price: no shared process, no warm cache,
        # no coalescing.
        "extrapolated_wall_s": mean_wall * len(jobs),
        "extrapolated_jobs_per_s": len(jobs) / (mean_wall * len(jobs)),
    }


def run_telemetry_phase(
    jobs: list[Job], workers: int, baseline: dict, budget_frac: float = 0.05
) -> dict:
    """Telemetry-on vs telemetry-off throughput on the same workload.

    The observability bar: flight recorder + worker span capture + SLO
    tracking must cost under ``budget_frac`` of throughput.  Walls are
    noisy on shared CI boxes, so each side keeps its best (minimum) wall
    over up to two rounds before the budget is enforced; the first
    telemetry-off measurement is reused from the main batch phase.
    """
    best_off = baseline["wall_s"]
    best_on = float("inf")
    overhead = float("inf")
    n_events = 0
    on_results: list[dict] = []
    for round_index in range(2):
        with tempfile.TemporaryDirectory() as tmp:
            stream = os.path.join(tmp, "telemetry.jsonl")
            clear_search_memo()  # time solves, as the telemetry-off side does
            with BatchServer(workers=workers, telemetry=stream) as server:
                report = server.run_batch(jobs)
            if report.n_ok != len(jobs):
                raise RuntimeError(f"telemetry batch failed: {report.counts}")
            from repro.serve import read_events

            n_events = len(read_events(stream))
        best_on = min(best_on, report.wall_s)
        on_results = [r.deterministic() for r in report.results]
        overhead = best_on / best_off - 1.0
        if overhead < budget_frac:
            break
        if round_index == 0:
            # Re-measure the off side too before judging: the baseline may
            # have been the noisy sample.
            best_off = min(best_off, run_service(jobs, workers)["wall_s"])
    if on_results != baseline["results"]:
        raise RuntimeError(
            "telemetry changed the deterministic results of the batch"
        )
    if overhead >= budget_frac:
        raise RuntimeError(
            f"telemetry overhead {overhead:.1%} exceeds the "
            f"{budget_frac:.0%} throughput budget"
        )
    return {
        "wall_off_s": best_off,
        "wall_on_s": best_on,
        "overhead_frac": overhead,
        "budget_frac": budget_frac,
        "n_events": n_events,
        "deterministic_vs_off": True,
    }


def run_cold_start_phase(
    jobs: list[Job],
    bound_factor: float = 2.0,
    bound_grace_s: float = 0.25,
) -> dict:
    """Fresh-server cold starts: empty map store vs pre-baked (BENCH_PR7).

    The question this answers: how long does a job take on a stone-cold
    worker process?  Both sides fork fresh single-worker servers from a
    parent whose in-memory DelayMap cache has been cleared, so the only
    difference is the artifact store's content — empty on the first run
    (whose build-on-miss persistence is exactly what pre-bakes the store),
    fully baked on the second.  Enforced here, not just recorded:

    - both phases produce identical deterministic results (store-loaded
      tables are bit-identical to freshly built ones);
    - the pre-baked run p50 lands within ``bound_factor`` x the warm
      single-process personalize time (plus a small absolute grace for
      scheduler noise) — the PR 7 acceptance bound.
    """
    from repro.core.localize import clear_delay_map_cache
    from repro.core.pipeline import personalize_capture

    distinct: list[Job] = []
    seen: set = set()
    for job in jobs:
        if job.subject_seed not in seen:
            seen.add(job.subject_seed)
            distinct.append(
                Job(job_id=f"cold-{job.subject_seed:03d}",
                    subject_seed=job.subject_seed, **SPEC)
            )
    # Warm single-process reference: the same unit of work with every
    # process-wide cache hot (first run warms, best of the rest counts).
    # Each run forgets its head search, so the reference stays a solve
    # rather than a replay.
    walls = []
    for _ in range(3):
        clear_search_memo()
        started = time.perf_counter()
        personalize_capture(subject_seed=distinct[0].subject_seed, **SPEC)
        walls.append(time.perf_counter() - started)
    warm_single = min(walls[1:])

    phases: dict[str, dict] = {}
    results: dict[str, list] = {}
    with tempfile.TemporaryDirectory() as tmp:
        store = os.path.join(tmp, "maps")
        for label in ("empty_store", "prebaked_store"):
            clear_delay_map_cache()  # workers must fork cold in memory
            clear_search_memo()
            with BatchServer(workers=1, map_store=store) as server:
                report = server.run_batch(distinct)
            if report.n_ok != len(distinct):
                raise RuntimeError(f"{label} phase failed: {report.counts}")
            latency = report.latency_summary()
            stats = [
                (r.payload or {}).get("_stats") or {} for r in report.results
            ]
            phases[label] = {
                "n_jobs": len(distinct),
                "wall_s": report.wall_s,
                "run_p50_s": latency["run_p50_s"],
                "run_p95_s": latency["run_p95_s"],
                "map_store_hits": sum(s.get("map_store_hits", 0) for s in stats),
                "map_store_misses": sum(
                    s.get("map_store_misses", 0) for s in stats
                ),
            }
            results[label] = [r.deterministic() for r in report.results]
        from repro.core.mapstore import MapStore

        baked = MapStore(store)
        store_stats = {"artifacts": len(baked), "bytes": baked.size_bytes()}
    identical = results["empty_store"] == results["prebaked_store"]
    if not identical:
        raise RuntimeError(
            "store-loaded tables changed the deterministic results"
        )
    bound_s = bound_factor * warm_single + bound_grace_s
    warmed_p50 = phases["prebaked_store"]["run_p50_s"]
    if warmed_p50 > bound_s:
        raise RuntimeError(
            f"pre-baked cold-start p50 {warmed_p50:.2f} s exceeds the bound "
            f"{bound_s:.2f} s ({bound_factor:g} x warm single-process "
            f"{warm_single:.2f} s + {bound_grace_s:g} s grace)"
        )
    return {
        "warm_single_process_s": warm_single,
        "empty_store": phases["empty_store"],
        "prebaked_store": phases["prebaked_store"],
        "deterministic_empty_vs_prebaked": identical,
        "store": store_stats,
        "bound": {
            "factor": bound_factor,
            "grace_s": bound_grace_s,
            "bound_s": bound_s,
            "warmed_p50_s": warmed_p50,
            "within_bound": True,
        },
    }


def run_fleet_phase(subjects: int, seed: int, workers: int) -> dict:
    """Fleet-evaluation throughput through the serve layer (BENCH_PR8).

    The fleet tier's unit of work is tiny (a synthetic metric model, not a
    personalization), so this measures the serve layer's fixed per-job
    costs — queueing, dispatch, result marshalling — at population scale.
    The multi-worker report must be bit-identical to the serial one; the
    recorded ``subjects_per_s`` is what sizes the CI quick tier.
    """
    from repro.eval.fleet import run_fleet

    report_multi, ops_multi = run_fleet(subjects, seed, workers=workers)
    report_serial, ops_serial = run_fleet(subjects, seed, workers=1)
    multi = json.dumps(report_multi.to_dict(), sort_keys=True)
    serial = json.dumps(report_serial.to_dict(), sort_keys=True)
    if multi != serial:
        raise RuntimeError(
            f"{workers}-worker fleet report differs from the serial run"
        )
    return {
        "subjects": subjects,
        "seed": seed,
        "workers": workers,
        "wall_s": ops_multi["wall_s"],
        "subjects_per_s": ops_multi["subjects_per_s"],
        "serial_wall_s": ops_serial["wall_s"],
        "serial_subjects_per_s": ops_serial["subjects_per_s"],
        "statuses": dict(ops_multi["statuses"]),
        "serve_latency": ops_multi["serve_latency"],
        "deterministic_vs_serial": True,
    }


def run_adverse_phase(workers: int, budget_frac: float = 0.02) -> dict:
    """Adverse captures through the serve tier + rung-0 overhead (BENCH_PR10).

    Two contracts, enforced here rather than just recorded:

    - **rung-0 overhead**: on a clean capture, the ``auto`` ladder (with
      its sentinel reads and escalation bookkeeping) must cost under
      ``budget_frac`` of the pinned-``inverse`` wall time, warm, best of
      three per side — the ladder is free when it does nothing;
    - **graceful degradation at the serve tier**: a batch mixing clean,
      noisy, reverberant, and noisy+reverberant jobs completes with zero
      failures, every payload carries its method/rung, and at least one
      adverse job actually escalated.
    """
    from repro.core.pipeline import personalize_capture

    # Warm every process-wide cache, then alternate pinned/auto so both
    # sides see the same machine state; best-of-three per side before the
    # budget is enforced (walls are noisy on shared CI boxes).  Each timed
    # run forgets its head search, so both sides time a warm solve.
    personalize_capture(subject_seed=1, deconv="inverse", **SPEC)
    walls = {"inverse": [], "auto": []}
    for _ in range(3):
        for mode in ("inverse", "auto"):
            clear_search_memo()
            started = time.perf_counter()
            personalize_capture(subject_seed=1, deconv=mode, **SPEC)
            walls[mode].append(time.perf_counter() - started)
    overhead = min(walls["auto"]) / min(walls["inverse"]) - 1.0
    if overhead >= budget_frac:
        raise RuntimeError(
            f"rung-0 ladder overhead {overhead:.1%} exceeds the "
            f"{budget_frac:.0%} budget"
        )

    adverse_jobs = [
        Job(job_id="adverse-clean", subject_seed=1, **SPEC),
        Job(job_id="adverse-noise", subject_seed=1,
            fault="mic_noise", fault_args={"std": 0.3}, **SPEC),
        Job(job_id="adverse-reverb", subject_seed=1,
            fault="reverberant_room",
            fault_args={"rt60_s": 0.9, "wet_level": 1.6}, **SPEC),
        Job(job_id="adverse-both", subject_seed=1,
            fault="noisy_reverberant",
            fault_args={"rt60_s": 0.9, "std": 0.3}, **SPEC),
    ]
    with BatchServer(workers=workers) as server:
        report = server.run_batch(adverse_jobs)
    if report.n_ok != len(adverse_jobs):
        raise RuntimeError(f"adverse batch had failures: {report.counts}")
    rungs = {
        r.job_id: dict((r.payload or {}).get("deconv") or {})
        for r in report.results
    }
    if rungs["adverse-clean"].get("rung") != 0:
        raise RuntimeError(f"clean job left rung 0: {rungs['adverse-clean']}")
    escalated = sum(1 for d in rungs.values() if d.get("rung", 0) > 0)
    if escalated == 0:
        raise RuntimeError("no adverse job escalated the ladder")
    return {
        "rung0_overhead": {
            "walls_inverse_s": walls["inverse"],
            "walls_auto_s": walls["auto"],
            "overhead_frac": overhead,
            "budget_frac": budget_frac,
        },
        "adverse_batch": {
            "n_jobs": len(adverse_jobs),
            "counts": report.counts,
            "wall_s": report.wall_s,
            "escalated_jobs": escalated,
            "deconv_by_job": rungs,
            "confidence_by_job": {
                r.job_id: (r.payload or {}).get("confidence")
                for r in report.results
            },
        },
    }


def run_crash_phase(workers: int) -> dict:
    """A small batch with one injected worker death must still complete."""
    with tempfile.TemporaryDirectory() as tmp:
        marker = os.path.join(tmp, "crash-marker")
        jobs = [
            Job(job_id="victim", subject_seed=1, crash_marker=marker, **SPEC),
            Job(job_id="bystander", subject_seed=2, **SPEC),
        ]
        with BatchServer(workers=workers) as server:
            report = server.run_batch(jobs)
        victim = next(r for r in report.results if r.job_id == "victim")
        crashed = os.path.exists(marker)
    if report.n_ok != len(jobs):
        raise RuntimeError(f"crash phase failed: {report.counts}")
    if not crashed or victim.attempts < 2:
        raise RuntimeError("crash was not actually injected/retried")
    return {
        "counts": report.counts,
        "victim_attempts": victim.attempts,
        "wall_s": report.wall_s,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default=None, metavar="PATH",
                        help="write the benchmark record here")
    parser.add_argument("--jobs", type=int, default=32)
    parser.add_argument("--specs", type=int, default=8,
                        help="distinct subject seeds among the jobs")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--samples", type=int, default=3,
                        help="fresh-interpreter runs for the per-process baseline")
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: 8 jobs, 2 specs, 1 baseline sample")
    parser.add_argument("--pr7-output", default=None, metavar="PATH",
                        help="write the cold-start phase record "
                        "(BENCH_PR7.json) here")
    parser.add_argument("--pr8-output", default=None, metavar="PATH",
                        help="write the fleet-throughput phase record "
                        "(BENCH_PR8.json) here")
    parser.add_argument("--pr10-output", default=None, metavar="PATH",
                        help="write the adverse-capture phase record "
                        "(BENCH_PR10.json) here")
    parser.add_argument("--fleet-subjects", type=int, default=2000,
                        help="population size for the fleet phase")
    args = parser.parse_args(argv)
    if args.quick:
        args.jobs, args.specs, args.samples = 8, 2, 1
        args.fleet_subjects = min(args.fleet_subjects, 500)

    jobs = make_jobs(args.jobs, args.specs)
    print(f"workload       : {len(jobs)} jobs over {args.specs} distinct specs")

    print(f"per-process    : sampling {args.samples} fresh-interpreter runs ...")
    per_process = run_per_process(jobs, args.samples)
    print(f"                 {per_process['mean_job_wall_s']:.2f} s/job -> "
          f"{per_process['extrapolated_wall_s']:.1f} s extrapolated")

    print("serial service : 1 worker ...")
    serial = run_service(jobs, workers=1)
    print(f"                 {serial['wall_s']:.1f} s "
          f"({serial['jobs_per_s']:.2f} jobs/s, "
          f"{serial['coalesced_jobs']} coalesced)")

    print(f"batch service  : {args.workers} workers ...")
    batch = run_service(jobs, workers=args.workers)
    print(f"                 {batch['wall_s']:.1f} s "
          f"({batch['jobs_per_s']:.2f} jobs/s)")

    identical = batch["results"] == serial["results"]
    print(f"determinism    : batch == serial results: {identical}")
    if not identical:
        raise RuntimeError("4-worker batch results differ from serial run")

    print("telemetry      : same workload with the flight recorder on ...")
    telemetry = run_telemetry_phase(jobs, args.workers, batch)
    print(f"                 {telemetry['wall_on_s']:.1f} s on vs "
          f"{telemetry['wall_off_s']:.1f} s off "
          f"({telemetry['overhead_frac']:+.1%} overhead, "
          f"{telemetry['n_events']} events)")

    print("crash phase    : one injected worker death ...")
    crash = run_crash_phase(args.workers)
    print(f"                 recovered in {crash['victim_attempts']} attempts")

    print("cold start     : fresh workers, empty vs pre-baked map store ...")
    cold = run_cold_start_phase(jobs)
    print(f"                 empty store p50 "
          f"{cold['empty_store']['run_p50_s']:.2f} s -> pre-baked p50 "
          f"{cold['prebaked_store']['run_p50_s']:.2f} s "
          f"(warm single-process {cold['warm_single_process_s']:.2f} s, "
          f"bound {cold['bound']['bound_s']:.2f} s, "
          f"{cold['store']['artifacts']} artifacts)")

    print("adverse phase  : rung-0 overhead + adverse batch ...")
    adverse = run_adverse_phase(args.workers)
    print(f"                 rung-0 overhead "
          f"{adverse['rung0_overhead']['overhead_frac']:+.1%} "
          f"(budget {adverse['rung0_overhead']['budget_frac']:.0%}), "
          f"{adverse['adverse_batch']['escalated_jobs']}/"
          f"{adverse['adverse_batch']['n_jobs']} jobs escalated")

    print(f"fleet phase    : {args.fleet_subjects} synthetic subjects ...")
    fleet = run_fleet_phase(args.fleet_subjects, seed=7, workers=args.workers)
    print(f"                 {fleet['wall_s']:.1f} s "
          f"({fleet['subjects_per_s']:.0f} subjects/s at {fleet['workers']} "
          f"workers, {fleet['serial_subjects_per_s']:.0f} serial)")

    speedup_pp = per_process["extrapolated_wall_s"] / batch["wall_s"]
    speedup_serial = serial["wall_s"] / batch["wall_s"]
    print(f"speedup        : {speedup_pp:.2f}x vs per-process, "
          f"{speedup_serial:.2f}x vs serial service")

    record = {
        "benchmark": "serve_batch",
        "repro_version": __version__,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "spec": SPEC,
        "n_jobs": len(jobs),
        "n_distinct_specs": args.specs,
        "quick": args.quick,
        "per_process_baseline": per_process,
        "serial_service": {k: v for k, v in serial.items() if k != "results"},
        "batch_service": {k: v for k, v in batch.items() if k != "results"},
        "deterministic_vs_serial": identical,
        "telemetry_overhead": telemetry,
        "crash_recovery": crash,
        "cold_start": cold,
        "adverse": adverse,
        "fleet": fleet,
        "speedup_vs_per_process": speedup_pp,
        "speedup_vs_serial_service": speedup_serial,
        "metrics": obs.registry().snapshot(),
    }
    if args.output:
        from repro.ioutil import atomic_write

        with atomic_write(args.output, "w") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"record         : {args.output}")
    if args.pr7_output:
        from repro.ioutil import atomic_write

        pr7_record = {
            "benchmark": "serve_cold_start",
            "repro_version": __version__,
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "spec": SPEC,
            "quick": args.quick,
            **cold,
        }
        with atomic_write(args.pr7_output, "w") as handle:
            json.dump(pr7_record, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"record         : {args.pr7_output}")
    if args.pr8_output:
        from repro.ioutil import atomic_write

        pr8_record = {
            "benchmark": "fleet_throughput",
            "repro_version": __version__,
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "quick": args.quick,
            **fleet,
        }
        with atomic_write(args.pr8_output, "w") as handle:
            json.dump(pr8_record, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"record         : {args.pr8_output}")
    if args.pr10_output:
        from repro.ioutil import atomic_write

        pr10_record = {
            "benchmark": "adverse_capture",
            "repro_version": __version__,
            "python": platform.python_version(),
            "cpu_count": os.cpu_count(),
            "spec": SPEC,
            "quick": args.quick,
            **adverse,
        }
        with atomic_write(args.pr10_output, "w") as handle:
            json.dump(pr10_record, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"record         : {args.pr10_output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
