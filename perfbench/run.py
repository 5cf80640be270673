"""Served-personalization benchmark: one command, three workloads.

    python3 perfbench/run.py --workload new_users --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  The benchmark simulates seeded capture
files (outside the timed program), serves them through
:class:`repro.serve.BatchServer` in a fresh driver process
(``perfbench/driver.py``), checks every payload, and prints a human report
followed by one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics (telemetry off); ``--trace 1``
reruns with the serve telemetry path on and layer spans installed, and
reports the per-layer split instead.  Workloads, metrics and their bounds
are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import os

# Single-threaded BLAS/OpenMP in this process and every process it starts;
# must happen before numpy is imported anywhere.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import inputs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PINS_PATH = os.path.join(HERE, "pinned.json")
STATE_DIR = os.path.join(ROOT, ".perfbench_state")
TMP_DIR = os.path.join(ROOT, ".perfbench_tmp")

WORKLOADS = ("new_users", "rerender", "tiny_jobs")
#: Set-up samples per run (fresh driver processes); the median is reported.
#: They bracket the measured phase, three before and three after it, so they
#: come from different stretches of host load rather than one.  The
#: re-render pre-bake is likewise timed once before and once after.
SETUP_SAMPLES = 7
#: Longest any one child process may take before the run is abandoned.
CHILD_TIMEOUT_S = 150.0

END_TO_END = (
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("attempt_p50_s", "s"),
    ("peak_rss_mb", "MB"),
)
#: Layers an attempt's time is split across, in call order.  Each reports
#: its self time as a share of the mean attempt (``<layer>.share``), so a
#: layer a workload never enters reads 0 rather than a constant time.
LAYERS = (
    "datasets.load_session",
    "quality.preflight",
    "signals.deconvolve",
    "fusion.extract_delays",
    "fusion.optimize",
    "fusion.final_localize",
    "fusion.other",
    "localize.map_lookup",
    "localize.delay_map_build",
    "mapstore.load",
    "mapstore.save",
    "interpolation.extract_measurements",
    "interpolation.build_grid",
    "near_far.convert",
    "hrtf.table_digest",
    "uniq.personalize",
    "serve.worker_self",
    "serve.dispatch_overhead",
)
#: Self-time buckets that hold code outside every named layer call.
GLUE_LAYERS = ("uniq.personalize", "serve.worker_self", "fusion.other")
#: Per-layer counts (totals over the run's executed jobs).
LAYER_COUNTS = (
    "localize.delay_map_builds",
    "localize.delay_map_loads",
    "localize.delay_map_cache_hits",
    "localize.delay_map_cache_misses",
    "localize.invert_cache_hits",
    "mapstore.saved",
    "fusion.runs",
    "fusion.cost_evaluations",
    "channel.bank_deconvolutions",
    "signals.preflight_deconvolutions",
    "quality.deconv_escalations",
    "uniq.gesture_rejections",
    "near_far.arc_fallbacks",
    "serve.journal.appends",
    "serve.jobs_coalesced",
    "serve.jobs_retried",
)
#: Counts that must repeat exactly between runs of one seed.
EXACT_COUNTERS = (
    "localize.delay_map_builds",
    "localize.delay_map_loads",
    "localize.delay_map_cache_hits",
    "mapstore.saved",
    "fusion.cost_evaluations",
    "channel.bank_deconvolutions",
    "signals.preflight_deconvolutions",
    "quality.deconv_escalations",
    "serve.journal.appends",
    "serve.jobs_coalesced",
)
PER_LAYER = (
    [(f"{name}.share", "ratio") for name in LAYERS]
    + [
        ("trace.mean_attempt_s", "s"),
        ("serve.submit_s", "s"),
        ("serve.queue_wait_p50_s", "s"),
        ("serve.journal_append_s", "s"),
    ]
    + [(name, "count") for name in LAYER_COUNTS]
    + [
        ("fusion.solves_kept_ratio", "ratio"),
        ("mapstore.bytes", "B"),
        ("datasets.capture_bytes", "B"),
        ("trace.attributed_frac", "ratio"),
        ("traced.jobs_per_s", "1/s"),
        ("traced.attempt_p50_s", "s"),
    ]
)


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    rank = (len(ordered) - 1) * q
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (rank - low) * (ordered[high] - ordered[low])


def _tail(values: list[float]) -> tuple[str, float] | None:
    """The highest of p99.9/p99/p90 with at least ten samples beyond it."""
    for q in (0.999, 0.99, 0.9):
        if len(values) * (1.0 - q) >= 10:
            return f"p{q * 100:g}", _percentile(values, q)
    return None


def _load_json(path: str) -> dict:
    try:
        with open(path) as handle:
            return json.load(handle)
    except FileNotFoundError:
        return {}


def code_fingerprint() -> str:
    """Digest of the package source and the benchmark's code.

    Run state is keyed by it, so the exact-repeat checks compare runs of
    the same code only: a change that does less work starts a new record.
    """
    digest = hashlib.sha256()
    paths = [os.path.join(HERE, name) for name in os.listdir(HERE)
             if name.endswith(".py")]
    for dirpath, dirnames, filenames in os.walk(os.path.join(SRC, "repro")):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        paths += [os.path.join(dirpath, name) for name in filenames]
    for path in sorted(paths):
        digest.update(os.path.relpath(path, ROOT).encode() + b"\0")
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:16]


def _run_child(argv: list[str]) -> None:
    """Run one child to completion; its stdout goes to our stderr."""
    subprocess.run(
        argv, check=True, timeout=CHILD_TIMEOUT_S,
        stdout=sys.stderr, stdin=subprocess.DEVNULL,
    )


def run_driver(config: dict, run_dir: str, tag: str) -> tuple[float, dict]:
    """Start one driver process; returns (set-up seconds, its output)."""
    config = dict(
        config,
        out_path=os.path.join(run_dir, f"{tag}.out.json"),
        journal_path=os.path.join(run_dir, f"{tag}.journal"),
    )
    config_path = os.path.join(run_dir, f"{tag}.config.json")
    with open(config_path, "w") as handle:
        json.dump(config, handle)
    started = time.perf_counter()
    _run_child([sys.executable, os.path.join(HERE, "driver.py"), config_path])
    out = _load_json(config["out_path"])
    return out["ready"] - started, out


def expected_tiny_digest(spec: dict) -> str:
    """The digest ``digest_runner`` must return for ``spec`` (independent)."""
    from repro.serve import Job

    full = Job.from_dict(spec).to_dict()
    compute = {
        key: full.get(key)
        for key in ("subject_seed", "session_path", "session_seed",
                    "probe_interval_s", "angle_step_deg",
                    "enforce_gesture_check", "fault", "fault_args")
    }
    blob = json.dumps(compute, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def check_results(workload, results: list[dict], pins: dict, state: dict) -> list[str]:
    """Job ids whose result is wrong, each with the reason."""
    specs = {spec["job_id"]: spec for spec in workload.jobs}
    problems = []
    for record in results:
        job_id = record["id"]
        spec = specs[job_id]
        reason = None
        if record["status"] != "ok":
            reason = f"status {record['status']}"
        elif workload.runner == "digest":
            if record["digest"] != expected_tiny_digest(spec):
                reason = "digest does not match its spec"
        else:
            name = os.path.splitext(os.path.basename(spec["session_path"]))[0]
            capture = workload.captures[name]
            n_angles = round(180.0 / spec["angle_step_deg"]) + 1
            if record["n_angles"] != n_angles:
                reason = f"{record['n_angles']} angles, expected {n_angles}"
            elif capture.adverse and record["rung"] < 1:
                reason = f"adverse capture served at rung {record['rung']}"
            elif not capture.adverse and (
                record["rung"] != 0 or record["confidence"] != 1.0
            ):
                reason = (f"clean capture at rung {record['rung']}, "
                          f"confidence {record['confidence']}")
        for source, digests in (("pinned", pins.get("digests")),
                                ("earlier run", state.get("digests"))):
            if reason is None and digests and digests.get(job_id) != record["digest"]:
                reason = f"digest differs from the {source} one"
        if reason is not None:
            problems.append(f"{job_id}: {reason}")
    return problems


def count_work(out: dict, traced: bool) -> dict[str, float]:
    """Run totals of the program's work counters."""
    totals = {name: 0.0 for name in LAYER_COUNTS}
    executed = [r for r in out["results"] if not r["coalesced"]]
    for record in executed:
        for name, value in record["counters"].items():
            totals[name] = totals.get(name, 0.0) + value
        totals["signals.preflight_deconvolutions"] += record.get(
            "preflight_deconvolutions", 0
        )
    for name in ("serve.journal.appends", "serve.jobs_retried"):
        totals[name] = out["registry"][name]
    # Counted from the results: the server's own serve.jobs_coalesced counts
    # a follower twice when it joins a still-running leader, so that counter
    # depends on timing.
    totals["serve.jobs_coalesced"] = sum(1 for r in out["results"] if r["coalesced"])
    if not traced:
        del totals["signals.preflight_deconvolutions"]
    return totals


def runners_counters(out: dict) -> list[str]:
    """Worker counters the driver's registry received through telemetry."""
    return [n for n in out["registry"] if not n.startswith("serve.")]


def end_to_end(out: dict, setup_s: float) -> tuple[dict, dict]:
    """(metrics, report extras) of one measured batch."""
    results = out["results"]
    ok = [r for r in results if r["status"] == "ok"]
    runs = [r["run_s"] for r in ok if not r["coalesced"]]
    metrics = {
        "setup_s": setup_s,
        "jobs_per_s": statistics.median(out["batch_rates"]),
        "attempt_p50_s": statistics.median(runs) if runs else float("nan"),
        "peak_rss_mb": out["rss_mb"],
    }
    extras = {"attempt samples": len(runs), "measured wall s": out["wall_s"]}
    tail = _tail(runs)
    if tail is not None:
        extras[f"attempt {tail[0]} s (not gated)"] = tail[1]
    return metrics, extras


def per_layer(out: dict, counts: dict, workload) -> dict:
    results = out["results"]
    executed = [r for r in results if not r["coalesced"] and r.get("layers")]
    n = max(len(executed), 1)
    mean_attempt = sum(r["run_s"] for r in executed) / n
    self_s = {
        name: sum(r["layers"].get(name, 0.0) for r in executed) / n
        for name in LAYERS
    }
    self_s["serve.dispatch_overhead"] = sum(
        r["run_s"] - r["worker_s"] for r in executed
    ) / n
    metrics = {f"{name}.share": self_s[name] / mean_attempt for name in LAYERS}
    submit_s, submits = out["submit"]
    append_s, appends = out["journal_append"]
    metrics["trace.mean_attempt_s"] = mean_attempt
    metrics["serve.submit_s"] = submit_s / max(submits, 1)
    metrics["serve.queue_wait_p50_s"] = statistics.median(
        r["wait_s"] for r in results if not r["coalesced"]
    )
    metrics["serve.journal_append_s"] = append_s / max(appends, 1)
    metrics.update({name: counts.get(name, 0.0) for name in LAYER_COUNTS})
    ok_solves = sum(1 for r in executed if r["status"] == "ok" and "rung" in r)
    runs = counts.get("fusion.runs", 0.0)
    metrics["fusion.solves_kept_ratio"] = ok_solves / runs if runs else 0.0
    metrics["mapstore.bytes"] = out.get("store_bytes", 0)
    executed_ids = {r["id"] for r in executed}
    metrics["datasets.capture_bytes"] = sum(
        os.path.getsize(spec["session_path"])
        for spec in workload.jobs
        if "session_path" in spec and spec["job_id"] in executed_ids
    )
    metrics["trace.attributed_frac"] = 1.0 - sum(
        metrics[f"{name}.share"] for name in GLUE_LAYERS
    )
    e2e, _ = end_to_end(out, 0.0)
    metrics["traced.jobs_per_s"] = e2e["jobs_per_s"]
    metrics["traced.attempt_p50_s"] = e2e["attempt_p50_s"]
    return metrics


def measure(args, workload, run_dir: str) -> tuple[float, dict]:
    """Set up, serve the batch, return (median set-up s, driver output)."""
    traced = bool(args.trace)
    inputs_jobs = os.path.join(run_dir, "jobs.jsonl")
    config = {
        "workers": inputs.WORKERS,
        "batches": workload.batches,
        "runner": workload.runner,
        "traced": traced,
        "jobs_path": inputs_jobs,
        "map_store": None,
    }
    if workload.runner == "pipeline":
        config["map_store"] = os.path.join(run_dir, "maps")
        os.makedirs(config["map_store"])
    bake_jobs = os.path.join(run_dir, "prebake.jsonl")

    def prebake(store: str) -> float:
        """Pre-bake ``store`` in a subprocess; the seconds it took."""
        started = time.perf_counter()
        _run_child([sys.executable, "-m", "repro.cli", "warmup",
                    "--store", store, "--jobs", bake_jobs])
        return time.perf_counter() - started

    def setup_only(i: int) -> float:
        return run_driver(dict(config, setup_only=True), run_dir, f"setup{i}")[0]

    bakes = []
    if workload.prebake:
        inputs.write_jobs(workload.prebake, bake_jobs)
        bakes.append(prebake(config["map_store"]))
    before = SETUP_SAMPLES // 2
    samples = [setup_only(i) for i in range(before)]
    setup, out = run_driver(config, run_dir, "measured")
    samples.append(setup)
    samples += [setup_only(i) for i in range(before, SETUP_SAMPLES - 1)]
    if workload.prebake:
        # The second pre-bake fills a store nothing reads; it only times.
        bakes.append(prebake(os.path.join(run_dir, "maps-again")))
    out["setup_samples"] = samples
    out["prebake_samples"] = bakes
    prebake_s = statistics.median(bakes) if bakes else 0.0
    return statistics.median(samples) + prebake_s, out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--write-pins", action="store_true",
        help="record this run's payload digests in perfbench/pinned.json "
             "instead of comparing them with the pinned and earlier ones",
    )
    parser.add_argument(
        "--corrupt-digest", action="store_true",
        help="alter one payload digest before checking (smoke-test hook)",
    )
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no package source at {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p
    )
    os.environ.pop("REPRO_MAP_STORE", None)
    workload = inputs.plan(args.workload, args.seed, args.seconds)
    key = f"{workload.name}-{workload.fingerprint()}"
    state_path = os.path.join(STATE_DIR, f"{key}-{code_fingerprint()}.json")
    if args.write_pins:
        # Start both references afresh from this run.
        pins, state = {}, {}
    else:
        pins = _load_json(PINS_PATH).get(key, {})
        state = _load_json(state_path)
    os.makedirs(TMP_DIR, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=TMP_DIR)
    try:
        generation_started = time.perf_counter()
        inputs.materialize(workload, run_dir)
        inputs.write_jobs(workload.jobs, os.path.join(run_dir, "jobs.jsonl"))
        generation_s = time.perf_counter() - generation_started
        setup_s, out = measure(args, workload, run_dir)
        results = out["results"]
        if args.corrupt_digest:
            first_ok = next(r for r in results if r["status"] == "ok")
            first_ok["digest"] = "0" * 64
        problems = check_results(workload, results, pins, state)
        counts = count_work(out, bool(args.trace))
        if args.trace:
            # The telemetry path must bring every worker counter home.
            for name in runners_counters(out):
                if out["registry"][name] != counts.get(name, 0.0):
                    problems.append(
                        f"counter {name}: merged telemetry "
                        f"{out['registry'][name]:g} != payload sum {counts[name]:g}"
                    )
            metrics = per_layer(out, counts, workload)
            units = dict(PER_LAYER)
        else:
            metrics, extras = end_to_end(out, setup_s)
            units = dict(END_TO_END)
        exact = {n: counts[n] for n in EXACT_COUNTERS if n in counts}
        for name, value in exact.items():
            earlier = state.get("counters", {}).get(name)
            if earlier is not None and earlier != value:
                problems.append(
                    f"counter {name}: {value:g} != {earlier:g} in an earlier "
                    "run of this seed"
                )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed_ids = {p.split(":")[0] for p in problems if not p.startswith("counter ")}
    attempted = len(results)
    correct = not problems
    if correct:
        os.makedirs(STATE_DIR, exist_ok=True)
        state.setdefault("digests", {r["id"]: r["digest"] for r in results})
        state.setdefault("counters", {}).update(exact)
        state["traced" if args.trace else "untraced"] = metrics
        with open(state_path, "w") as handle:
            json.dump(state, handle, indent=1, sort_keys=True)
        if args.write_pins:
            all_pins = _load_json(PINS_PATH)
            all_pins[key] = {"digests": {r["id"]: r["digest"] for r in results}}
            with open(PINS_PATH, "w") as handle:
                json.dump(all_pins, handle, indent=1, sort_keys=True)
                handle.write("\n")

    n_ok = sum(1 for r in results if r["status"] == "ok")
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"workers {inputs.WORKERS}  closed batch of {attempted} jobs")
    print(f"  inputs generated in {generation_s:.2f} s (not timed); "
          f"set-up samples {', '.join(f'{s:.3f}' for s in out['setup_samples'])} s"
          f" + pre-bake {', '.join(f'{s:.3f}' for s in out['prebake_samples']) or '-'} s")
    print(f"  sent {attempted}  ok {n_ok}  failed {len(failed_ids)}  "
          f"failed_frac {len(failed_ids) / attempted:.4f}  "
          f"pinned digests {'checked' if pins else 'none for this seed'}"
          f"{', rewritten' if args.write_pins and correct else ''}")
    if not args.trace:
        for label, value in extras.items():
            print(f"  {label}: {value:.6g}")
    for name, value in exact.items():
        print(f"  counter {name} = {value:g}")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    if args.trace and "untraced" in state:
        for name in ("jobs_per_s", "attempt_p50_s"):
            base = state["untraced"][name]
            print(f"  tracing overhead on {name}: "
                  f"{metrics['traced.' + name] / base - 1.0:+.2%} "
                  f"(untraced {base:.6g})")
    for problem in problems:
        print(f"  FAIL {problem}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failed_ids),
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
