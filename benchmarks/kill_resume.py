"""CI chaos scenario: SIGKILL a journaled batch at ~50%, resume, diff digests.

The end-to-end crash drill for the durable-batch machinery, run from CI's
``chaos`` job and writable locally::

    PYTHONPATH=src python benchmarks/kill_resume.py \\
        --output kill_resume_report.json --workdir artifacts/

Five acts, all through the real ``python -m repro.cli batch`` entry point
and the real :func:`repro.serve.worker.execute_job` runner:

1. **reference** — the batch runs uninterrupted (journaled); its per-job
   table digests are the ground truth.  One job is a poison pill
   (``synthetic-failure``), so the run also demonstrates the dead-letter
   exit code 3.
2. **victim** — the same batch against a fresh journal is SIGKILLed once
   the journal shows roughly half the specs done — the untrappable crash
   the write-ahead journal exists for.
3. **resume** — ``--resume`` replays the victim's journal: done jobs (and
   the dead letter) are restored, the rest execute.
4. **diff** — the resumed report must be bit-identical to the reference on
   every deterministic field (status, payload, table digest, error), the
   dead letter must appear exactly once with one attempt, and no spec done
   before the kill may have been re-executed.
5. **timeline** — the victim's journal, copied to ``victim.journal`` right
   after the SIGKILL (the resume compacts ``batch.journal`` and drops its
   ``started`` records), must render through ``repro.cli timeline`` into a
   per-worker Gantt chart with at least one open bar: a job the kill
   caught in flight.

The report, the journals, and the rendered timeline are uploaded as CI
artifacts, so every commit carries a reviewable record of an actual
kill-and-recover cycle.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

from repro.ioutil import atomic_write
from repro.serve import Job, dump_jobs, replay_journal

#: The golden-case pipeline configuration (small grid, sparse probes).
SPEC = {"probe_interval_s": 0.6, "angle_step_deg": 15.0}

#: Four healthy seeded jobs plus one poison pill (a permanent failure).
JOBS = [
    Job(job_id="u1", subject_seed=1, session_seed=0, **SPEC),
    Job(job_id="u2", subject_seed=2, session_seed=0, **SPEC),
    Job(job_id="u3", subject_seed=1, session_seed=3, **SPEC),
    Job(job_id="u4", subject_seed=7, session_seed=0, **SPEC),
    Job(job_id="poison", subject_seed=1, fault="synthetic-failure", **SPEC),
]

#: Exit code the CLI uses for "completed, but with dead letters".
EXIT_DEAD_LETTERS = 3


def _batch_cmd(
    jobs_path: str,
    report_path: str,
    journal: str,
    resume: bool = False,
) -> list[str]:
    cmd = [
        sys.executable, "-m", "repro.cli", "batch",
        "--jobs", jobs_path,
        "--workers", "2",
        "--journal", journal,
        "--report", report_path,
        "--retries", "3",
        "--telemetry",
    ]
    if resume:
        cmd.append("--resume")
    return cmd


def _deterministic(report_path: str) -> dict[str, dict]:
    """job_id -> the scheduling-independent slice of each result."""
    with open(report_path) as handle:
        report = json.load(handle)
    return {
        r["job_id"]: {k: r[k] for k in ("status", "payload", "error")}
        for r in report["results"]
    }


def run_scenario(workdir: str) -> dict:
    os.makedirs(workdir, exist_ok=True)
    jobs_path = os.path.join(workdir, "jobs.jsonl")
    dump_jobs(JOBS, jobs_path)
    failures: list[str] = []

    def check(condition: bool, message: str) -> None:
        print(("ok   " if condition else "FAIL ") + message, flush=True)
        if not condition:
            failures.append(message)

    # Act 1: the uninterrupted reference run.
    ref_report = os.path.join(workdir, "reference_report.json")
    ref_journal = os.path.join(workdir, "reference.journal")
    print("kill_resume: reference run ...", flush=True)
    reference = subprocess.run(
        _batch_cmd(jobs_path, ref_report, ref_journal), check=False,
    )
    check(
        reference.returncode == EXIT_DEAD_LETTERS,
        f"reference exits {EXIT_DEAD_LETTERS} (completed with dead letters), "
        f"got {reference.returncode}",
    )

    # Act 2: SIGKILL at ~50% done.
    victim_report = os.path.join(workdir, "victim_report.json")
    victim_journal = os.path.join(workdir, "batch.journal")
    victim_copy = os.path.join(workdir, "victim.journal")
    print("kill_resume: victim run (will be SIGKILLed) ...", flush=True)
    # Own process group: SIGKILLing the group takes the CLI *and* its
    # forked workers down together — otherwise orphaned workers outlive
    # the kill, blocked forever on their dead executor's call queue.
    victim = subprocess.Popen(
        _batch_cmd(jobs_path, victim_report, victim_journal),
        start_new_session=True,
    )
    half = len({job.spec_key() for job in JOBS}) // 2
    deadline = time.monotonic() + 600.0
    while time.monotonic() < deadline and victim.poll() is None:
        if len(replay_journal(victim_journal).done) >= half:
            break
        time.sleep(0.2)
    try:
        os.killpg(victim.pid, signal.SIGKILL)
    except ProcessLookupError:  # pragma: no cover - batch won the race
        pass
    victim.wait(timeout=60)
    # The resume compacts batch.journal; keep the journal the kill left.
    shutil.copyfile(victim_journal, victim_copy)
    check(victim.returncode != 0, f"victim was killed (rc {victim.returncode})")
    done_before = set(replay_journal(victim_journal).done)
    check(
        0 < len(done_before) < len(JOBS),
        f"kill landed mid-batch ({len(done_before)}/{len(JOBS)} specs done)",
    )

    # Act 3: resume from the survivor journal.
    resumed_report = os.path.join(workdir, "resumed_report.json")
    print("kill_resume: resume run ...", flush=True)
    resumed = subprocess.run(
        _batch_cmd(jobs_path, resumed_report, victim_journal, resume=True),
        check=False,
    )
    check(
        resumed.returncode == EXIT_DEAD_LETTERS,
        f"resume completes with the replayed dead letter (exit "
        f"{EXIT_DEAD_LETTERS}), got {resumed.returncode}",
    )

    # Act 4: diff the deterministic fields and the journal's history.
    want = _deterministic(ref_report)
    got = _deterministic(resumed_report)
    check(got == want, "resumed results bit-identical to the reference")
    digests = {
        job_id: (fields["payload"] or {}).get("table_digest")
        for job_id, fields in got.items()
    }
    check(
        all(
            digests[job_id] == (want[job_id]["payload"] or {}).get("table_digest")
            for job_id in want
        ),
        "table digests identical across kill and resume",
    )
    with open(resumed_report) as handle:
        full = json.load(handle)
    replayed = {r["job_id"] for r in full["results"] if r["replayed"]}
    executed_keys = {
        job.spec_key()
        for job in JOBS
        if job.job_id not in replayed
    }
    check(
        executed_keys.isdisjoint(done_before),
        f"zero done specs re-executed ({len(replayed)} replayed)",
    )
    state = replay_journal(victim_journal)
    dead = list(state.dead_letters.values())
    check(len(dead) == 1, f"exactly one dead-letter record, got {len(dead)}")
    check(
        dead and dead[0].get("attempts") == 1,
        "dead letter recorded with a single attempt (zero retries)",
    )
    check(full["dead_letters"] == ["poison"], "report names the dead letter")

    # Act 5: the observability drill riding on the chaos drill — the
    # victim's fsync'd journal survived the SIGKILL (with at worst one torn
    # final line) and must render as a per-worker timeline in which the
    # jobs the kill caught in flight are open bars.
    timeline_txt = os.path.join(workdir, "victim_timeline.txt")
    print("kill_resume: rendering the victim's journal timeline ...",
          flush=True)
    rendered = subprocess.run(
        [sys.executable, "-m", "repro.cli", "timeline", victim_copy,
         "--output", timeline_txt],
        check=False,
    )
    check(
        rendered.returncode == 0 and os.path.exists(timeline_txt),
        "timeline renders from the SIGKILLed run's journal",
    )
    lanes = []
    if os.path.exists(timeline_txt):
        with open(timeline_txt) as handle:
            # Lane rows only: the legend shows every glyph too.
            lanes = [line for line in handle if " |" in line]
    check(
        any("─" in line for line in lanes),
        "timeline shows an open bar (a job in flight at the kill)",
    )

    return {
        "record": "kill_resume",
        "jobs": len(JOBS),
        "specs_done_at_kill": sorted(done_before),
        "victim_exit": victim.returncode,
        "resume_exit": resumed.returncode,
        "replayed_jobs": sorted(replayed),
        "dead_letters": full["dead_letters"],
        "table_digests": digests,
        "journals": {
            "reference": ref_journal,
            "victim": victim_copy,
            "resumed": victim_journal,
        },
        "victim_timeline": timeline_txt,
        "failures": failures,
        "ok": not failures,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python benchmarks/kill_resume.py",
        description="SIGKILL a journaled batch at ~50%, resume it, and "
        "verify bit-identical results.",
    )
    parser.add_argument("--output", default="kill_resume_report.json")
    parser.add_argument(
        "--workdir", default="kill_resume_artifacts",
        help="directory for the jobs file, journals, and per-run reports",
    )
    args = parser.parse_args(argv)
    record = run_scenario(args.workdir)
    with atomic_write(args.output, "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(
        f"wrote {args.output}: "
        + ("OK" if record["ok"] else f"FAILURES: {record['failures']}")
    )
    return 0 if record["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
