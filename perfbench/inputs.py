"""Seeded inputs for the served-personalization benchmark.

Everything here runs in the benchmark process, before and outside the timed
program: captures are simulated, degraded with :mod:`repro.testing.faults`
where a workload asks for adverse captures, and written with
:func:`repro.datasets.save_session`.  The program later sees only the capture
files and JSONL job specs that carry ``session_path`` and ``angle_step_deg``.

The same ``(workload, seed, seconds)`` always yields the same job list, so the
program's work counters repeat exactly between runs of one seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass, field

#: Subject seeds whose clean 34-probe capture (session seed = subject seed,
#: probe interval 0.6 s) personalizes at rung 0 with confidence exactly 1.0
#: and whose capture under each fault in :data:`ADVERSE_FAULTS` completes at
#: rung >= 1.  Vetted once by running the pipeline on every (subject, fault)
#: pair of subjects 1-40; seeds 9, 15, 17, 19 and 33 failed and are left out.
#: Ordered by the DelayMap builds the clean 15-degree personalization needs
#: on an empty cache (129 for subject 39 up to 217 for subject 25), a count
#: that does not depend on the host.
ROSTER = (
    39, 24, 36, 14, 38, 10, 31, 13, 21, 23, 5, 12, 35, 3, 37, 30, 7, 18,
    2, 32, 27, 26, 34, 16, 20, 29, 4, 22, 6, 8, 11, 40, 1, 28, 25,
)
#: New users come from the middle 25 of the roster (148-194 builds), one
#: per contiguous stratum, so every seed's batch costs nearly the same and
#: its median attempt comes from the same narrow band of build counts.
NEW_USER_ROSTER = ROSTER[2:27]
#: Roster subjects also vetted at every step of :data:`RERENDER_STEPS_DEG`
#: (rung 0, confidence 1.0), in roster order.
RERENDER_ROSTER = tuple(
    s for s in ROSTER if s in {1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 12, 13, 14}
)

#: Adverse capture faults, cells of the ``chaos_report --adverse`` grid that
#: complete and climb the deconvolution ladder: pure noise, pure reverb, and
#: noise plus reverb.
ADVERSE_FAULTS = (
    ("mic_noise", {"std": 0.3}),
    ("reverberant_room", {"rt60_s": 0.6, "wet_level": 1.6}),
    ("noisy_reverberant", {"rt60_s": 0.9, "std": 0.3}),
)

#: Every workload is served by one worker: which worker runs a job then
#: never depends on timing, so LRU reuse, store loads and every work counter
#: repeat exactly between runs of one seed.
WORKERS = 1

PROBE_INTERVAL_S = 0.6
#: Table resolution of a new user's first personalization (and of the
#: re-render workload's pre-bake).
BASE_STEP_DEG = 15.0
#: The re-render sweep, coarse to fine.
RERENDER_STEPS_DEG = (10.0, 7.5, 5.0, 4.0, 3.0, 2.5, 2.0)
#: Distinct captures re-rendered round-robin.  Each capture's fusion touches
#: 150-200 DelayMaps, so two captures cycle more maps than the worker's
#: 256-entry in-memory LRU holds: every re-render reads its maps from the
#: store.
RERENDER_CAPTURES = 2

#: Rough per-job cost on a 2-core x86 box, used only to turn ``--seconds``
#: into a fixed job count (the count never depends on a measurement).
NEW_USER_JOB_S = 5.0
RERENDER_JOB_S = 2.0
TINY_JOBS_PER_S = 500
#: Tiny jobs are served as this many consecutive batches of like work, and
#: the run reports the median batch throughput: one batch is a few seconds,
#: short enough that a burst of host noise spoils only one of them.
TINY_BATCHES = 5


@dataclass
class Capture:
    """One generated capture file and what its payload must report."""

    name: str
    subject_seed: int
    fault: str | None = None
    fault_args: dict = field(default_factory=dict)

    @property
    def adverse(self) -> bool:
        return self.fault is not None


@dataclass
class Workload:
    """A generated job list plus the captures it references."""

    name: str
    jobs: list[dict]
    captures: dict[str, Capture] = field(default_factory=dict)
    #: Job specs the map store is pre-baked with during set-up.
    prebake: list[dict] = field(default_factory=list)
    runner: str = "pipeline"
    #: Consecutive closed batches the job list is served as.
    batches: int = 1

    def fingerprint(self) -> str:
        """Digest of everything the program receives, for run-state keys."""
        blob = json.dumps(
            {
                "jobs": self.jobs,
                "prebake": self.prebake,
                "captures": {
                    name: [c.subject_seed, c.fault, c.fault_args]
                    for name, c in sorted(self.captures.items())
                },
            },
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def batch_bounds(n_jobs: int, n_batches: int) -> list[int]:
    """Start indices of ``n_batches`` near-equal batches, plus the end."""
    return [round(i * n_jobs / n_batches) for i in range(n_batches + 1)]


def _capture_path(directory: str, name: str) -> str:
    return os.path.join(directory, f"{name}.npz")


def _stratified(rng: random.Random, roster: tuple[int, ...], n: int) -> list[int]:
    """One subject from each of ``n`` contiguous, near-equal roster strata."""
    if not 1 <= n <= len(roster):
        raise SystemExit(f"need 1..{len(roster)} captures, got {n}; "
                         "change --seconds")
    bounds = [round(i * len(roster) / n) for i in range(n + 1)]
    return [rng.choice(roster[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]


def plan(name: str, seed: int, seconds: float) -> Workload:
    """The job list of one workload; no capture is written yet."""
    rng = random.Random(f"{name}:{seed}")
    if name == "new_users":
        n_jobs = max(2, round(seconds / NEW_USER_JOB_S))
        n_adverse = max(1, round(n_jobs / 4))
        subjects = _stratified(rng, NEW_USER_ROSTER, n_jobs)
        captures = []
        for i, subject in enumerate(subjects):
            fault, args = (None, {})
            if i < n_adverse:
                fault, args = rng.choice(ADVERSE_FAULTS)
            captures.append(Capture(f"new-{i:02d}", subject, fault, dict(args)))
        rng.shuffle(captures)
        jobs = [
            {"job_id": c.name, "session_path": c.name,
             "angle_step_deg": BASE_STEP_DEG}
            for c in captures
        ]
        return Workload(name, jobs, {c.name: c for c in captures})
    if name == "rerender":
        subjects = _stratified(rng, RERENDER_ROSTER, RERENDER_CAPTURES)
        captures = [Capture(f"re-{i:02d}", s) for i, s in enumerate(subjects)]
        # Every (capture, step) pair is distinct work; a longer run serves
        # the whole sweep once.
        pairs = [(c, step) for step in RERENDER_STEPS_DEG for c in captures]
        n_jobs = min(len(pairs), max(2, round(seconds / RERENDER_JOB_S)))
        jobs = [
            {"job_id": f"{c.name}-{step:g}", "session_path": c.name,
             "angle_step_deg": step}
            for c, step in pairs[:n_jobs]
        ]
        prebake = [
            {"job_id": f"bake-{c.name}", "session_path": c.name,
             "angle_step_deg": BASE_STEP_DEG}
            for c in captures
        ]
        return Workload(
            name, jobs, {c.name: c for c in captures}, prebake=prebake
        )
    if name == "tiny_jobs":
        n_jobs = max(200, round(seconds * TINY_JOBS_PER_S))
        bounds = batch_bounds(n_jobs, TINY_BATCHES)
        # Half the jobs of each batch repeat a spec of the same batch under a
        # new id, so the server coalesces them onto one execution.  Specs
        # never repeat across batches: the server's done cache outlives a
        # batch, so such repeats would make each batch cheaper than the last.
        distinct = rng.sample(range(1, 2**31), n_jobs)
        jobs = []
        for lo, hi in zip(bounds, bounds[1:]):
            specs = distinct[lo:lo + (hi - lo) // 2]
            seeds = specs + [rng.choice(specs) for _ in range(hi - lo - len(specs))]
            rng.shuffle(seeds)
            jobs += [
                {"job_id": f"t{lo + i:06d}", "subject_seed": s}
                for i, s in enumerate(seeds)
            ]
        return Workload(
            name, jobs, runner="digest", batches=TINY_BATCHES
        )
    raise SystemExit(f"unknown workload {name!r}")


def materialize(workload: Workload, directory: str) -> None:
    """Simulate and write every capture; point job specs at the files."""
    from repro.datasets import save_session
    from repro.simulation.person import VirtualSubject
    from repro.simulation.session import MeasurementSession
    from repro.testing.faults import apply_fault

    for capture in workload.captures.values():
        session = MeasurementSession(
            VirtualSubject.random(capture.subject_seed),
            seed=capture.subject_seed,
            probe_interval_s=PROBE_INTERVAL_S,
        ).run()
        if capture.fault is not None:
            session = apply_fault(session, capture.fault, **capture.fault_args)
        save_session(session, _capture_path(directory, capture.name))
    for spec in workload.jobs + workload.prebake:
        if "session_path" in spec:
            spec["session_path"] = _capture_path(directory, spec["session_path"])


def write_jobs(jobs: list[dict], path: str) -> None:
    with open(path, "w") as handle:
        for spec in jobs:
            handle.write(json.dumps(spec, sort_keys=True) + "\n")
