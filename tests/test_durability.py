"""Durability tests: journal, retries, watchdog, kill-resume bit-identity.

The contract under test (docs/ROBUSTNESS.md, "Durability & resume"):

- a batch killed at any point resumes from its write-ahead journal and
  produces results bit-identical (deterministic fields, table digests) to
  an uninterrupted run, with **zero completed jobs re-executed**;
- corrupt or truncated journal lines are detected by checksum and
  quarantined, never crash-looped;
- permanent failures dead-letter exactly once with zero retries, while
  process-level faults (``worker_kill``, ``worker_hang``) are retried with
  backoff and the batch completes;
- a clean batch with journaling enabled is bit-identical to one with
  journaling disabled.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ReproError, WorkerDiedError
from repro.ioutil import atomic_write, atomic_write_json
from repro.obs import metrics as obs_metrics
from repro.serve import (
    BatchServer,
    Job,
    Journal,
    RetryPolicy,
    execute_job,
    replay_journal,
)
from repro.testing.workloads import digest_runner, sleepy_runner

#: The golden-case pipeline configuration, shared with tests/test_serve.py
#: so real-runner tests keep the delay-map caches warm across the suite.
FAST = {"probe_interval_s": 0.6, "angle_step_deg": 15.0}

#: Fast retry policy for tests: real backoff shape, millisecond scale.
QUICK_RETRY = dict(max_transient_retries=3, base_backoff_s=0.01, max_backoff_s=0.05)


def _det(report):
    return [r.deterministic() for r in report.results]


def _counter(name: str) -> float:
    return obs_metrics.counter(name).value


# ---------------------------------------------------------------------------
# atomic_write
# ---------------------------------------------------------------------------


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        target = tmp_path / "out.json"
        atomic_write_json({"a": 1}, target)
        assert json.loads(target.read_text()) == {"a": 1}
        atomic_write_json({"a": 2}, target)
        assert json.loads(target.read_text()) == {"a": 2}

    def test_exception_leaves_destination_untouched(self, tmp_path):
        target = tmp_path / "out.txt"
        target.write_text("original")
        with pytest.raises(RuntimeError):
            with atomic_write(target) as handle:
                handle.write("half-writ")
                raise RuntimeError("crash mid-write")
        assert target.read_text() == "original"
        assert [p for p in tmp_path.iterdir() if p.suffix == ".tmp"] == []

    def test_rejects_read_modes(self, tmp_path):
        with pytest.raises(ValueError):
            with atomic_write(tmp_path / "x", "r"):
                pass


# ---------------------------------------------------------------------------
# RetryPolicy
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    def test_classification(self):
        policy = RetryPolicy()
        assert policy.classify("crashed", WorkerDiedError("x")) == "transient"
        assert policy.classify("timeout") == "transient"
        assert policy.classify("error", ReproError("bad spec")) == "permanent"

    def test_permanent_failures_never_retry(self):
        policy = RetryPolicy(max_transient_retries=5)
        assert not policy.should_retry("error", attempts=1)

    def test_transient_retries_capped(self):
        policy = RetryPolicy(max_transient_retries=2)
        assert policy.should_retry("crashed", attempts=1)
        assert policy.should_retry("crashed", attempts=2)
        assert not policy.should_retry("crashed", attempts=3)

    def test_timeouts_retry_only_when_opted_in(self):
        assert not RetryPolicy().should_retry("timeout", attempts=1)
        assert RetryPolicy(retry_timeouts=True).should_retry("timeout", attempts=1)

    def test_backoff_is_deterministic_and_capped(self):
        policy = RetryPolicy(
            base_backoff_s=0.1, backoff_factor=2.0, max_backoff_s=0.35,
            jitter_frac=0.25, seed=7,
        )
        again = RetryPolicy(
            base_backoff_s=0.1, backoff_factor=2.0, max_backoff_s=0.35,
            jitter_frac=0.25, seed=7,
        )
        for attempt in (1, 2, 3, 4):
            delay = policy.backoff_s(attempt, "job-key")
            assert delay == again.backoff_s(attempt, "job-key")
            base = min(0.1 * 2.0 ** (attempt - 1), 0.35)
            assert base <= delay <= base * 1.25
        # Different tokens must decorrelate (thundering-herd protection).
        assert policy.backoff_s(1, "a") != policy.backoff_s(1, "b")

    def test_namespace_decorrelates_without_moving_the_default(self):
        import hashlib

        kw = dict(base_backoff_s=0.1, backoff_factor=2.0, max_backoff_s=0.35,
                  jitter_frac=0.25, seed=7)
        plain = RetryPolicy(**kw)
        # The empty namespace must reproduce the historical digest input
        # byte for byte: existing schedules do not move.
        digest = hashlib.sha256(b"7:job-key:2").digest()
        unit = int.from_bytes(digest[:8], "big") / 2**64
        assert plain.backoff_s(2, "job-key") == 0.2 * (1.0 + 0.25 * unit)
        # Shard namespaces each get their own jitter sequence, inside the
        # same envelope.
        schedules = {}
        for namespace in ("", "shard0", "shard1"):
            policy = RetryPolicy(**kw, namespace=namespace)
            schedule = tuple(
                policy.backoff_s(attempt, "job-key") for attempt in (1, 2, 3)
            )
            for attempt, delay in zip((1, 2, 3), schedule):
                base = min(0.1 * 2.0 ** (attempt - 1), 0.35)
                assert base <= delay <= base * 1.25
            schedules[namespace] = schedule
        assert len(set(schedules.values())) == 3

    def test_batch_budget_exhausts(self):
        policy = RetryPolicy(max_transient_retries=10, max_total_retries=2)
        assert policy.should_retry("crashed", attempts=1)
        assert policy.should_retry("crashed", attempts=1)
        assert not policy.should_retry("crashed", attempts=1)
        assert policy.retries_spent == 2


# ---------------------------------------------------------------------------
# Journal format, corruption, compaction
# ---------------------------------------------------------------------------


def _spec(i: int) -> str:
    return json.dumps({"k": i})


class TestJournal:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "j"
        with Journal(path, fsync=False) as journal:
            journal.append("submitted", spec_key=_spec(1), job_id="a")
            journal.append("started", spec_key=_spec(1))
            journal.append(
                "done", spec_key=_spec(1), job_id="a", status="ok",
                payload={"x": 1.5},
            )
        state = replay_journal(path)
        assert state.done[_spec(1)]["payload"] == {"x": 1.5}
        assert state.submitted == {_spec(1): ["a"]}
        assert state.pending() == []
        assert state.corrupt == []

    def test_rejects_unknown_event(self, tmp_path):
        with Journal(tmp_path / "j", fsync=False) as journal:
            with pytest.raises(ReproError, match="unknown journal event"):
                journal.append("exploded", spec_key=_spec(1))

    def test_corrupt_line_quarantined_not_fatal(self, tmp_path):
        path = tmp_path / "j"
        with Journal(path, fsync=False) as journal:
            journal.append("submitted", spec_key=_spec(1), job_id="a")
            journal.append(
                "done", spec_key=_spec(1), job_id="a", status="ok", payload={}
            )
        lines = path.read_text().splitlines()
        # Flip payload content without updating the checksum.
        lines[1] = lines[1].replace('"status":"ok"', '"status":"no"')
        path.write_text("\n".join(lines) + "\n")
        state = replay_journal(path)
        assert len(state.corrupt) == 1
        assert _spec(1) not in state.done  # tampered record not trusted
        assert state.pending() == [_spec(1)]  # ... so the job re-runs
        quarantine = (str(path) + ".quarantine")
        assert os.path.exists(quarantine)
        assert '"status":"no"' in open(quarantine).read()

    def test_truncated_final_line_quarantined(self, tmp_path):
        path = tmp_path / "j"
        with Journal(path, fsync=False) as journal:
            journal.append("submitted", spec_key=_spec(1), job_id="a")
            journal.append(
                "done", spec_key=_spec(1), job_id="a", status="ok", payload={}
            )
        raw = path.read_text()
        path.write_text(raw[: len(raw) - 20])  # torn mid-record by a crash
        state = replay_journal(path)
        assert len(state.corrupt) == 1
        assert state.submitted == {_spec(1): ["a"]}
        assert _spec(1) not in state.done

    def test_reopen_continues_appending(self, tmp_path):
        path = tmp_path / "j"
        with Journal(path, fsync=False) as journal:
            journal.append("submitted", spec_key=_spec(1), job_id="a")
        with Journal(path, fsync=False) as journal:
            assert journal.state.submitted == {_spec(1): ["a"]}
            journal.append(
                "done", spec_key=_spec(1), job_id="a", status="ok", payload={}
            )
        state = replay_journal(path)
        assert state.done and state.pending() == []

    def test_checkpoint_compacts_and_preserves_state(self, tmp_path):
        path = tmp_path / "j"
        with Journal(path, fsync=False) as journal:
            for i in range(4):
                journal.append("submitted", spec_key=_spec(i), job_id=f"job{i}")
                journal.append("started", spec_key=_spec(i))
                for attempt in range(3):  # retries bloat the raw log
                    journal.append(
                        "failed", spec_key=_spec(i), status="crashed",
                        classification="transient", error="worker died",
                        attempts=attempt + 1,
                    )
                if i < 2:
                    journal.append(
                        "done", spec_key=_spec(i), job_id=f"job{i}",
                        status="ok", payload={"i": i},
                    )
            before = journal.state
            n_lines_before = len(path.read_text().splitlines())
            journal.checkpoint()
            after = journal.state
            n_lines_after = len(path.read_text().splitlines())
        assert n_lines_after < n_lines_before
        assert after.done == {
            key: {k: v for k, v in rec.items() if k != "seq"}
            | {"seq": after.done[key]["seq"]}
            for key, rec in before.done.items()
        }
        assert after.pending() == before.pending()
        assert after.submitted == before.submitted
        # The compacted file replays clean from disk too.
        replayed = replay_journal(path)
        assert set(replayed.done) == set(before.done)
        assert replayed.pending() == before.pending()

    def test_auto_compaction_bounds_the_file(self, tmp_path):
        path = tmp_path / "j"
        with Journal(path, fsync=False, compact_every=10) as journal:
            for i in range(100):
                journal.append(
                    "done", spec_key=_spec(i % 3), job_id=f"j{i}",
                    status="ok", payload={},
                )
        # 100 appends over 3 live keys: the file stays near the live size.
        assert len(path.read_text().splitlines()) <= 10


# Hypothesis: replay of ANY journal prefix never forgets a terminal record
# ("done jobs are never re-executed") and never loses a submission
# ("submitted jobs are never dropped").  This is exactly the crash model:
# SIGKILL truncates the journal at an arbitrary line boundary (plus at most
# one torn line, covered above).

_EVENTS = st.lists(
    st.tuples(
        st.sampled_from(["submitted", "started", "done", "transient", "permanent"]),
        st.integers(min_value=0, max_value=3),
    ),
    min_size=1,
    max_size=14,
)


class TestJournalPrefixProperty:
    @given(events=_EVENTS)
    def test_any_prefix_preserves_done_and_submitted(self, events, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("journal-prefix")
        path = tmp / "j"
        with Journal(path, fsync=False) as journal:
            for n, (kind, key) in enumerate(events):
                if kind == "submitted":
                    journal.append("submitted", spec_key=_spec(key), job_id=f"j{n}")
                elif kind == "started":
                    journal.append("started", spec_key=_spec(key))
                elif kind == "done":
                    journal.append(
                        "done", spec_key=_spec(key), job_id=f"j{n}",
                        status="ok", payload={"n": n},
                    )
                else:
                    journal.append(
                        "failed", spec_key=_spec(key), job_id=f"j{n}",
                        status="failed" if kind == "permanent" else "crashed",
                        classification=kind, error="x", attempts=1,
                    )
        lines = path.read_text().splitlines()
        prefix_path = tmp / "prefix"
        for cut in range(len(lines) + 1):
            prefix_path.write_text("\n".join(lines[:cut]) + "\n")
            state = replay_journal(prefix_path)
            seen = events[:cut]
            terminal = {k for kind, k in seen if kind in ("done", "permanent")}
            submitted = {k for kind, k in seen if kind == "submitted"}
            # Terminal records survive: these specs are never re-executed.
            assert {_spec(k) for k in terminal} <= set(state.done)
            # Submissions survive: pending ∪ done covers every one.
            covered = set(state.submitted) | set(state.done)
            assert {_spec(k) for k in submitted} <= covered


# ---------------------------------------------------------------------------
# Server-level durability (cheap runners)
# ---------------------------------------------------------------------------


def _jobs(n: int, **kw) -> list[Job]:
    return [Job(job_id=f"j{i}", subject_seed=i, **kw) for i in range(n)]


class TestServerJournal:
    def test_journaled_clean_batch_is_bit_identical_to_unjournaled(self, tmp_path):
        jobs = _jobs(6)
        with BatchServer(workers=2, runner=digest_runner) as server:
            plain = server.run_batch(jobs)
        with BatchServer(
            workers=2, runner=digest_runner, journal=tmp_path / "j"
        ) as server:
            journaled = server.run_batch(jobs)
        assert _det(journaled) == _det(plain)
        assert journaled.n_replayed == 0

    def test_resume_replays_done_jobs_without_reexecution(self, tmp_path):
        path = tmp_path / "j"
        jobs = _jobs(5)
        with BatchServer(workers=2, runner=digest_runner, journal=path) as server:
            first = server.run_batch(jobs)
        before = _counter("serve.journal.replayed_done")
        with BatchServer(
            workers=2, runner=digest_runner, journal=path, resume=True
        ) as server:
            again = server.run_batch(jobs)
        assert _det(again) == _det(first)
        assert again.n_replayed == len(jobs)
        assert all(r.replayed and r.attempts == 0 for r in again.results)
        assert _counter("serve.journal.replayed_done") - before == len(jobs)

    def test_fresh_server_refuses_a_stale_journal(self, tmp_path):
        path = tmp_path / "j"
        with BatchServer(workers=2, runner=digest_runner, journal=path) as server:
            server.run_batch(_jobs(2))
        with pytest.raises(ReproError, match="resume"):
            BatchServer(workers=2, runner=digest_runner, journal=path)

    def test_resume_requires_journal(self):
        with pytest.raises(ReproError, match="requires a journal"):
            BatchServer(workers=2, runner=digest_runner, resume=True)

    def test_interrupt_drains_and_resume_completes(self, tmp_path):
        import threading

        path = tmp_path / "j"
        jobs = [
            Job(job_id=f"j{i}", subject_seed=i, fault="slow_start",
                fault_args={"delay_s": 0.25})
            for i in range(8)
        ]
        with BatchServer(
            workers=2, runner=sleepy_runner, journal=path, coalesce=False
        ) as server:
            threading.Timer(0.4, server.interrupt).start()
            report = server.run_batch(jobs)
        assert report.interrupted
        assert report.n_interrupted >= 1
        assert report.counts.get("ok", 0) >= 1  # in-flight jobs finished
        done_before = set(replay_journal(path).done)
        with BatchServer(
            workers=2, runner=sleepy_runner, journal=path, resume=True,
            coalesce=False,
        ) as server:
            resumed = server.run_batch(jobs)
        assert resumed.counts == {"ok": len(jobs)}
        executed = {r.job_id for r in resumed.results if not r.replayed}
        replayed_keys = {
            job.spec_key() for job in jobs if job.job_id not in executed
        }
        assert replayed_keys <= done_before  # zero done jobs re-executed

    def test_dead_letter_exactly_once_and_replayed_on_resume(self, tmp_path):
        path = tmp_path / "j"
        jobs = [
            Job(job_id="good", subject_seed=1),
            Job(job_id="poison", subject_seed=2, fault="synthetic-failure"),
        ]
        policy = RetryPolicy(**QUICK_RETRY)
        with BatchServer(
            workers=2, runner=digest_runner, journal=path, retry_policy=policy
        ) as server:
            report = server.run_batch(jobs)
        poison = report.results[1]
        assert poison.status == "failed"
        assert poison.attempts == 1  # permanent: zero retries
        assert policy.retries_spent == 0
        assert [r.job_id for r in report.dead_letters] == ["poison"]
        state = replay_journal(path)
        assert len(state.dead_letters) == 1
        record = next(iter(state.dead_letters.values()))
        assert record["classification"] == "permanent"
        # Resume: the dead letter replays — the failing runner never re-runs.
        with BatchServer(
            workers=2, runner=digest_runner, journal=path, resume=True,
            retry_policy=RetryPolicy(**QUICK_RETRY),
        ) as server:
            again = server.run_batch(jobs)
        assert _det(again) == _det(report)
        assert all(r.replayed for r in again.results)

    def test_worker_kill_is_retried_with_backoff_and_completes(self, tmp_path):
        marker = tmp_path / "kill.marker"
        jobs = [
            Job(job_id="stable", subject_seed=1),
            Job(job_id="victim", subject_seed=2, fault="worker_kill",
                fault_args={"marker": str(marker)}),
        ]
        policy = RetryPolicy(**QUICK_RETRY)
        before = _counter("serve.pool.crash_retries")
        with BatchServer(
            workers=2, runner=digest_runner, journal=tmp_path / "j",
            retry_policy=policy,
        ) as server:
            report = server.run_batch(jobs)
        assert report.counts == {"ok": 2}
        victim = report.results[1]
        assert victim.attempts >= 2  # died once, completed on retry
        assert _counter("serve.pool.crash_retries") > before
        assert policy.retries_spent >= 1

    def test_worker_kill_without_marker_exhausts_retries(self, tmp_path):
        jobs = [Job(job_id="doomed", subject_seed=1, fault="worker_kill")]
        policy = RetryPolicy(max_transient_retries=1, base_backoff_s=0.01)
        with BatchServer(
            workers=1, runner=digest_runner, retry_policy=policy
        ) as server:
            report = server.run_batch(jobs)
        doomed = report.results[0]
        assert doomed.status == "crashed"
        assert doomed.attempts == 2  # initial + the one granted retry
        assert "retries exhausted" in doomed.error

    def test_worker_hang_killed_by_watchdog_and_retried(self, tmp_path):
        marker = tmp_path / "hang.marker"
        jobs = [
            Job(job_id="wedged", subject_seed=3, fault="worker_hang",
                fault_args={"hang_s": 20.0, "marker": str(marker)}),
        ]
        hangs_before = _counter("serve.watchdog.hangs")
        with BatchServer(
            workers=1, runner=digest_runner,
            retry_policy=RetryPolicy(**QUICK_RETRY),
            heartbeat_deadline_s=0.5, heartbeat_interval_s=0.1,
        ) as server:
            report = server.run_batch(jobs)
        assert report.counts == {"ok": 1}
        assert report.results[0].attempts >= 2
        assert _counter("serve.watchdog.hangs") > hangs_before

    def test_slow_start_is_not_killed_while_beating(self, tmp_path):
        # A slow but live worker must never trip the watchdog.
        jobs = [
            Job(job_id="sluggish", subject_seed=1, fault="slow_start",
                fault_args={"delay_s": 1.2}),
        ]
        with BatchServer(
            workers=1, runner=digest_runner,
            retry_policy=RetryPolicy(**QUICK_RETRY),
            heartbeat_deadline_s=0.5, heartbeat_interval_s=0.1,
        ) as server:
            report = server.run_batch(jobs)
        assert report.counts == {"ok": 1}
        assert report.results[0].attempts == 1


# ---------------------------------------------------------------------------
# Kill -9 at ~50% and resume: the end-to-end crash model
# ---------------------------------------------------------------------------

_CHILD = textwrap.dedent(
    """
    import sys
    from repro.serve import BatchServer, Job
    from repro.testing.workloads import sleepy_runner

    journal = sys.argv[1]
    jobs = [
        Job(job_id=f"j{i}", subject_seed=i, fault="slow_start",
            fault_args={"delay_s": 0.25})
        for i in range(8)
    ]
    with BatchServer(workers=2, runner=sleepy_runner, journal=journal,
                     coalesce=False) as server:
        server.run_batch(jobs)
    """
)


class TestKillResume:
    def test_sigkill_midway_then_resume_is_bit_identical(self, tmp_path):
        path = tmp_path / "kill.journal"
        jobs = [
            Job(job_id=f"j{i}", subject_seed=i, fault="slow_start",
                fault_args={"delay_s": 0.25})
            for i in range(8)
        ]
        # Reference: the uninterrupted run.
        with BatchServer(workers=2, runner=sleepy_runner, coalesce=False) as server:
            reference = server.run_batch(jobs)

        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), os.pardir, "src")]
            + env.get("PYTHONPATH", "").split(os.pathsep)
        )
        # Own process group so SIGKILL takes the forked workers down with
        # the batch — orphans would block forever on the dead call queue.
        child = subprocess.Popen(
            [sys.executable, "-c", _CHILD, str(path)],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        try:
            # SIGKILL the whole batch once roughly half the jobs are done.
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                if child.poll() is not None:  # pragma: no cover - too fast
                    break
                if len(replay_journal(path).done) >= 3:
                    break
                time.sleep(0.05)
        finally:
            try:
                os.killpg(child.pid, 9)
            except ProcessLookupError:  # pragma: no cover - already gone
                pass
            child.wait(timeout=30)

        done_before = set(replay_journal(path).done)
        assert done_before, "child was killed before finishing any job"
        with BatchServer(
            workers=2, runner=sleepy_runner, journal=path, resume=True,
            coalesce=False,
        ) as server:
            resumed = server.run_batch(jobs)
        assert resumed.counts == {"ok": len(jobs)}
        assert _det(resumed) == _det(reference)
        # Zero completed jobs re-executed.
        executed = {
            job.spec_key()
            for job, result in zip(jobs, resumed.results)
            if not result.replayed
        }
        assert executed.isdisjoint(done_before)
        assert resumed.n_replayed >= len(done_before)


# ---------------------------------------------------------------------------
# Partitioned server: SIGTERM drain under saturation with an ejected shard
# ---------------------------------------------------------------------------


class TestShardedDrain:
    def test_sigterm_drains_saturated_tier_with_ejected_shard(
        self, tmp_path, monkeypatch
    ):
        """The worst-case graceful drain: a SIGTERM lands while the
        admission backlog and both partition queues are saturated AND one
        partition is breaker-ejected mid-reroute.  Every job must resolve
        to a typed outcome, every partition journal must reach its final
        checkpoint, and a resume from the merged journal must complete the
        batch bit-identically with zero done work re-executed."""
        import signal
        import threading

        from repro.serve import Admission
        from repro.serve import server as server_module
        from repro.serve.job import REJECTION_REASONS

        jobs = [
            Job(job_id=f"j{i:02d}", subject_seed=100 + i,
                fault_args={"sleep_s": 0.15})
            for i in range(24)
        ]
        # Reference: the uninterrupted run (sleepy_runner's payload is a
        # pure function of the spec, so any schedule must reproduce it).
        with BatchServer(
            workers=2, runner=sleepy_runner, coalesce=False
        ) as server:
            reference = {
                r.job_id: r.deterministic()
                for r in server.run_batch(jobs).results
            }

        base = tmp_path / "sharded.journal"
        received = threading.Event()
        monkeypatch.setattr(server_module, "PROBE_BACKOFF_S", 3600.0)
        server = BatchServer(
            workers=1, shards=2, queue_size=4, runner=sleepy_runner,
            coalesce=False, journal=base,
            admission=Admission(backlog_limit=8, shed=True),
        )

        def _on_sigterm(signum, frame):  # noqa: ARG001 - signal signature
            received.set()
            server.interrupt()

        previous = signal.signal(signal.SIGTERM, _on_sigterm)
        try:
            with server:
                for job in jobs:
                    server.submit(job, now=0.0)
                # One partition dies while its queue is full; its jobs
                # reroute into the other partition's already-full queue.
                server.inject_shard_failure(0)
                os.kill(os.getpid(), signal.SIGTERM)
                assert received.wait(5.0)
                server.drain()
                server.checkpoint()
                results = {r.job_id: r for r in server.results()}
        finally:
            signal.signal(signal.SIGTERM, previous)

        # Every submitted job resolved to a typed outcome — nothing lost,
        # nothing still pending.
        assert set(results) == {job.job_id for job in jobs}
        for result in results.values():
            assert result.status in ("ok", "interrupted", "rejected")
            if result.status == "rejected":
                assert result.reason in REJECTION_REASONS
        done_ids = {j for j, r in results.items() if r.ok}

        # Both shard journals were checkpointed (compacted under a fresh
        # checkpoint header) and merged back into the base artifact.
        for k in range(2):
            shard_path = tmp_path / f"sharded.journal.shard{k}"
            assert shard_path.exists()
            with open(shard_path) as handle:
                assert json.loads(handle.readline())["event"] == "checkpoint"
        assert base.exists()
        merged_done = set(replay_journal(base).done)

        # Resume from the merged journal: the batch completes, done work
        # replays rather than re-executing, and the deterministic fields
        # match the uninterrupted reference bit for bit.
        with BatchServer(
            workers=1, shards=2, runner=sleepy_runner, coalesce=False,
            journal=base, resume=True,
        ) as resumed_server:
            resumed = resumed_server.run_batch(jobs)
        assert resumed.counts == {"ok": len(jobs)}
        assert {
            r.job_id: r.deterministic() for r in resumed.results
        } == reference
        replayed_ids = {r.job_id for r in resumed.results if r.replayed}
        assert done_ids <= replayed_ids
        executed_keys = {
            job.spec_key()
            for job, result in zip(jobs, resumed.results)
            if not result.replayed
        }
        assert executed_keys.isdisjoint(merged_done)


# ---------------------------------------------------------------------------
# Real pipeline: table digests survive an interrupted-and-resumed batch
# ---------------------------------------------------------------------------


class TestRealRunnerResume:
    def test_partial_journal_resume_matches_uninterrupted_digests(self, tmp_path):
        jobs = [
            Job(job_id="u1", subject_seed=1, **FAST),
            Job(job_id="u2", subject_seed=7, session_seed=3, **FAST),
        ]
        full_path = tmp_path / "full.journal"
        with BatchServer(workers=2, runner=execute_job, journal=full_path) as server:
            reference = server.run_batch(jobs)
        assert reference.counts == {"ok": 2}

        # Rebuild a journal that witnessed only u1 finishing — byte-for-byte
        # the crash-at-50% artifact — and resume from it.
        partial_path = tmp_path / "partial.journal"
        u1_key = jobs[0].spec_key()
        state = replay_journal(full_path)
        with Journal(partial_path, fsync=False) as journal:
            for key, ids in state.submitted.items():
                for job_id in ids:
                    journal.append("submitted", spec_key=key, job_id=job_id)
            done = {
                k: v for k, v in state.done[u1_key].items()
                if k not in ("seq", "event")
            }
            journal.append("done", **done)

        with BatchServer(
            workers=2, runner=execute_job, journal=partial_path, resume=True
        ) as server:
            resumed = server.run_batch(jobs)
        assert resumed.counts == {"ok": 2}
        assert resumed.results[0].replayed
        assert not resumed.results[1].replayed
        assert _det(resumed) == _det(reference)
        for got, want in zip(resumed.results, reference.results):
            assert got.payload["table_digest"] == want.payload["table_digest"]


# ---------------------------------------------------------------------------
# CLI exit codes
# ---------------------------------------------------------------------------


class TestCliExitCodes:
    def test_resume_without_journal_is_a_usage_error(self, tmp_path, capsys):
        from repro.cli import main_batch

        jobs_file = tmp_path / "jobs.jsonl"
        jobs_file.write_text('{"job_id": "a", "subject_seed": 1}\n')
        assert main_batch(["--jobs", str(jobs_file), "--resume"]) == 2
        assert "--resume requires --journal" in capsys.readouterr().err

    def test_stale_journal_without_resume_is_refused(self, tmp_path, capsys):
        from repro.cli import main_batch

        path = tmp_path / "j"
        with BatchServer(workers=1, runner=digest_runner, journal=path) as server:
            server.run_batch(_jobs(1))
        jobs_file = tmp_path / "jobs.jsonl"
        jobs_file.write_text('{"job_id": "a", "subject_seed": 1}\n')
        rc = main_batch(
            ["--jobs", str(jobs_file), "--journal", str(path), "--workers", "1"]
        )
        assert rc == 2
        assert "resume" in capsys.readouterr().err

    def test_dead_letters_exit_3(self, tmp_path, capsys):
        from repro.cli import main_batch

        jobs_file = tmp_path / "jobs.jsonl"
        jobs_file.write_text(
            json.dumps(
                {
                    "job_id": "poison",
                    "subject_seed": 1,
                    "fault": "synthetic-failure",
                    **FAST,
                }
            )
            + "\n"
        )
        report_path = tmp_path / "report.json"
        rc = main_batch(
            [
                "--jobs", str(jobs_file),
                "--journal", str(tmp_path / "j"),
                "--report", str(report_path),
                "--workers", "1",
            ]
        )
        assert rc == 3
        assert "dead letters" in capsys.readouterr().err
        report = json.loads(report_path.read_text())
        assert report["dead_letters"] == ["poison"]
