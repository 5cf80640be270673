"""Batch service tests: jobs, pool, server semantics, and the real pipeline.

Service *semantics* (coalescing, backpressure at the worker slots, crash
retry, timeouts) are exercised with the millisecond runners from
:mod:`repro.testing.workloads`; the real :func:`repro.serve.worker
.execute_job` pipeline appears only in the small end-to-end tests at the
bottom (determinism vs serial, fault isolation), which reuse the golden-case
configuration so the delay-map caches stay warm across the suite.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time

import pytest

from repro.errors import ReproError, SignalError
from repro.obs import metrics as obs_metrics
from repro.serve import (
    BatchServer,
    Job,
    JobResult,
    RetryPolicy,
    WorkerPool,
    dump_jobs,
    execute_job,
    load_jobs,
)
from repro.testing.workloads import FAILING_FAULT, digest_runner, sleepy_runner

#: The golden-case pipeline configuration — small grid, sparse probes — so
#: real-runner tests share warm caches with tests/test_golden_regression.py.
FAST = {"probe_interval_s": 0.6, "angle_step_deg": 15.0}


def _job(job_id: str, seed: int = 1, **kw) -> Job:
    return Job(job_id=job_id, subject_seed=seed, **kw)


class TestJobSpec:
    def test_requires_exactly_one_source(self):
        with pytest.raises(ReproError):
            Job(job_id="x")
        with pytest.raises(ReproError):
            Job(job_id="x", subject_seed=1, session_path="a.npz")
        Job(job_id="x", subject_seed=1)
        Job(job_id="x", session_path="a.npz")

    def test_spec_key_ignores_service_knobs(self):
        base = _job("a")
        assert base.spec_key() == _job("b", timeout_s=3.0).spec_key()
        assert base.spec_key() != _job("c", seed=2).spec_key()
        assert base.spec_key() != _job("d", angle_step_deg=10.0).spec_key()

    def test_round_trip_through_dict(self):
        job = _job("a", seed=5, fault="clipped",
                   fault_args={"level": 0.2}, timeout_s=1.5)
        again = Job.from_dict(json.loads(json.dumps(job.to_dict())))
        assert again == job

    def test_to_dict_omits_defaults(self):
        assert _job("a").to_dict() == {"job_id": "a", "subject_seed": 1}

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ReproError, match="unknown fields"):
            Job.from_dict({"job_id": "a", "subject_seed": 1, "speed": 11})
        # Jobs have no priority: submission order is dispatch order.
        with pytest.raises(ReproError, match="unknown fields"):
            Job.from_dict({"job_id": "a", "subject_seed": 1, "priority": 1})

    def test_jsonl_round_trip(self, tmp_path):
        jobs = [_job("a"), _job("b", seed=2, timeout_s=1.5)]
        path = tmp_path / "jobs.jsonl"
        dump_jobs(jobs, path)
        assert list(load_jobs(path)) == jobs

    def test_load_jobs_skips_comments_and_blanks(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        path.write_text(
            '# a comment\n\n{"job_id": "a", "subject_seed": 1}\n'
        )
        assert [j.job_id for j in load_jobs(path)] == ["a"]

    def test_load_jobs_rejects_duplicates_and_empties(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        path.write_text(
            '{"job_id": "a", "subject_seed": 1}\n'
            '{"job_id": "a", "subject_seed": 2}\n'
        )
        with pytest.raises(ReproError, match="duplicate"):
            load_jobs(path)
        path.write_text("# only comments\n")
        with pytest.raises(ReproError, match="no jobs"):
            load_jobs(path)


class TestJobResult:
    def test_rejects_unknown_status(self):
        with pytest.raises(ReproError, match="unknown job status"):
            JobResult(job_id="a", status="exploded")

    def test_deterministic_strips_operational_stats(self):
        result = JobResult(
            job_id="a",
            status="ok",
            payload={"digest": "d", "_telemetry": {"worker_pid": 123}},
            attempts=2,
            run_s=1.0,
        )
        det = result.deterministic()
        assert det["payload"] == {"digest": "d"}
        assert "attempts" not in det and "run_s" not in det


class TestWorkerPool:
    def test_map_preserves_order(self):
        specs = [{"job_id": f"j{i}", "subject_seed": i} for i in range(5)]
        with WorkerPool(1) as pool:
            values = pool.map(digest_runner, specs)
        assert [v["subject_seed"] for v in values] == list(range(5))
        assert values == [digest_runner(spec) for spec in specs]

    def test_map_reraises_the_original_exception(self):
        spec = {"job_id": "bad", "fault": FAILING_FAULT}
        with pytest.raises(ReproError, match="synthetic failure"):
            digest_runner(spec)
        with WorkerPool(1) as pool:
            with pytest.raises(ReproError, match="synthetic failure"):
                pool.map(digest_runner, [spec])

    def test_subprocess_matches_serial_calls(self):
        specs = [{"job_id": f"j{i}", "subject_seed": i} for i in range(4)]
        with WorkerPool(2) as pool:
            forked = pool.map(digest_runner, specs)
        assert forked == [digest_runner(spec) for spec in specs]

    def test_crash_retry_recovers(self, tmp_path):
        marker = tmp_path / "boom"
        spec = {"job_id": "j", "subject_seed": 3, "crash_marker": str(marker)}
        with WorkerPool(1) as pool:
            outcomes = pool.outcomes(digest_runner, [spec])
        assert marker.exists()
        assert outcomes[0].status == "ok"
        assert outcomes[0].attempts == 2

    def test_crash_without_retry_budget_reports_crashed(self, tmp_path):
        # Two markers: the job crashes on the first attempt *and* on its
        # single retry, so the pool must give up and say so.
        first = tmp_path / "boom"
        spec = {"job_id": "j", "subject_seed": 3, "crash_marker": str(first)}

        policy = RetryPolicy(max_transient_retries=0)
        with WorkerPool(1, retry_policy=policy) as pool:
            outcomes = pool.outcomes(digest_runner, [spec])
        assert outcomes[0].status == "crashed"
        assert outcomes[0].attempts == 1

    def test_timeout_resolves_without_blocking(self):
        # Shutdown waits for the busy worker, so the sleep bounds the test.
        spec = {"job_id": "slow", "subject_seed": 1,
                "fault_args": {"sleep_s": 1.5}}
        with WorkerPool(1) as pool:
            outcomes = pool.outcomes(sleepy_runner, [spec], timeout_s=0.3)
        assert outcomes[0].status == "timeout"
        assert "0.300" in (outcomes[0].error or "")


class TestBatchServerSemantics:
    def test_run_batch_reports_every_job_in_input_order(self):
        jobs = [_job(f"j{i}", seed=i) for i in range(6)]
        with BatchServer(workers=2, runner=digest_runner) as server:
            report = server.run_batch(jobs)
        assert [r.job_id for r in report.results] == [j.job_id for j in jobs]
        assert report.counts == {"ok": 6}
        assert report.n_ok == 6

    def test_failure_is_isolated_to_its_job(self):
        jobs = [_job("good-1", seed=1),
                _job("bad", seed=2, fault=FAILING_FAULT),
                _job("good-2", seed=3)]
        with BatchServer(workers=2, runner=digest_runner) as server:
            report = server.run_batch(jobs)
        by_id = {r.job_id: r for r in report.results}
        assert by_id["good-1"].ok and by_id["good-2"].ok
        assert by_id["bad"].status == "failed"
        assert "synthetic failure" in by_id["bad"].error

    def test_coalescing_shares_one_execution(self):
        jobs = [_job(f"j{i}", seed=7) for i in range(5)]
        with BatchServer(workers=2, runner=digest_runner) as server:
            report = server.run_batch(jobs)
        executed = [r for r in report.results if not r.coalesced]
        coalesced = [r for r in report.results if r.coalesced]
        assert len(executed) >= 1
        assert len(coalesced) == 5 - len(executed)
        digests = {r.payload["digest"] for r in report.results}
        assert len(digests) == 1

    def test_coalesced_counter_counts_each_follower_once(self):
        counter = obs_metrics.counter("serve.jobs_coalesced")
        before = counter.value
        # One worker busy for 0.3 s: the four twins join the running
        # leader (in-flight followers) ...
        twins = [_job(f"t{i}", seed=5, fault_args={"sleep_s": 0.3})
                 for i in range(5)]
        with BatchServer(workers=1, runner=sleepy_runner) as server:
            first = server.run_batch(twins)
            # ... and a later twin reuses the finished result (done cache).
            late = server.run_batch(
                [_job("late", seed=5, fault_args={"sleep_s": 0.3})]
            )
        results = first.results + late.results
        assert sum(r.coalesced for r in first.results) == 4
        assert late.results[0].coalesced
        assert counter.value - before == sum(r.coalesced for r in results)

    def test_coalescing_shares_failures_too(self):
        jobs = [_job(f"j{i}", seed=7, fault=FAILING_FAULT) for i in range(3)]
        with BatchServer(workers=1, runner=digest_runner) as server:
            report = server.run_batch(jobs)
        assert report.counts == {"failed": 3}
        assert sum(r.attempts for r in report.results) <= 2

    def test_no_coalesce_runs_every_job(self):
        jobs = [_job(f"j{i}", seed=7) for i in range(4)]
        with BatchServer(workers=2, runner=digest_runner, coalesce=False) as server:
            report = server.run_batch(jobs)
        assert all(not r.coalesced for r in report.results)
        assert all(r.attempts >= 1 for r in report.results)

    def test_duplicate_job_id_rejected_loudly(self):
        with BatchServer(workers=1, runner=digest_runner) as server:
            server.submit(_job("a"))
            with pytest.raises(ReproError, match="duplicate job_id"):
                server.submit(_job("a", seed=2))
            server.drain()

    def test_submit_after_close_raises(self):
        server = BatchServer(workers=1, runner=digest_runner)
        server.close()
        with pytest.raises(ReproError, match="closed"):
            server.submit(_job("late"))

    def test_rejects_bad_configuration(self):
        with pytest.raises(ReproError, match="resume"):
            BatchServer(workers=1, resume=True, runner=digest_runner)

    def test_submit_after_interrupt_is_interrupted_not_lost(self):
        with BatchServer(workers=1, runner=digest_runner) as server:
            server.interrupt()
            assert not server.submit(_job("late"))
            server.drain()
            results = {r.job_id: r for r in server.results()}
        assert results["late"].status == "interrupted"
        assert results["late"].attempts == 0

    def test_concurrent_submitters_account_exactly(self):
        # More submitting threads than cores and a shortened switch
        # interval: every job must land in the ledger exactly once, either
        # executed or coalesced onto an execution of its spec.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with BatchServer(workers=1, runner=digest_runner) as server:

                def submit_all(t: int) -> None:
                    for i in range(50):
                        server.submit(_job(f"t{t}-{i}", seed=i % 7 + 1))

                threads = [
                    threading.Thread(target=submit_all, args=(t,))
                    for t in range(4)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30.0)
                assert not any(thread.is_alive() for thread in threads)
                drained = threading.Event()
                waiter = threading.Thread(
                    target=lambda: (server.drain(), drained.set())
                )
                waiter.start()
                assert drained.wait(30.0)
                results = server.results()
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 200
        assert len({r.job_id for r in results}) == 200
        assert all(r.ok for r in results)
        # Seven distinct specs: each executes once, every twin coalesces.
        executed = [r for r in results if not r.coalesced]
        assert len(executed) == 7
        assert all(r.attempts >= 1 for r in executed)
        assert len({r.payload["digest"] for r in results}) == 7

    def test_backpressure_is_the_worker_slots(self, tmp_path):
        # One worker busy with A: submit(B) waits inside the call until A's
        # outcome is journaled, B's queue wait covers that wait, and the
        # journal never shows more jobs in flight than there are workers.
        from repro.serve import Journal
        from repro.serve.journal import read_records

        path = tmp_path / "j"
        a = _job("a", seed=1, fault_args={"sleep_s": 0.5})
        b = _job("b", seed=2)
        c = _job("c", seed=3)
        with BatchServer(workers=1, runner=sleepy_runner,
                         journal=Journal(path, fsync=False)) as server:
            assert server.submit(a)
            since = time.perf_counter()
            assert server.submit(b)
            blocked_s = time.perf_counter() - since
            records, _ = read_records(path)
            assert server.submit(c)
            server.drain()
            results = {r.job_id: r for r in server.results()}
        assert blocked_s >= 0.4
        assert [r["job_id"] for r in records if r["event"] == "done"] == ["a"]
        assert 0.4 <= results["b"].queue_wait_s <= blocked_s
        assert all(r.ok for r in results.values())
        records, _ = read_records(path)
        in_flight: set[str] = set()
        for record in records:
            if record["event"] == "started":
                in_flight.add(record["spec_key"])
            elif record["event"] in ("done", "failed"):
                in_flight.discard(record["spec_key"])
            assert len(in_flight) <= server.workers
        assert [r["event"] for r in records].count("started") == 3

    def test_crash_retry_completes_the_batch(self, tmp_path):
        marker = tmp_path / "boom"
        jobs = [_job("victim", seed=1, crash_marker=str(marker)),
                _job("bystander", seed=2)]
        with BatchServer(workers=1, runner=digest_runner) as server:
            report = server.run_batch(jobs)
        assert marker.exists()
        assert report.counts == {"ok": 2}
        victim = next(r for r in report.results if r.job_id == "victim")
        assert victim.attempts == 2

    def test_timeout_status_and_no_spec_caching(self):
        # A timed-out execution must not poison the coalescing cache: the
        # same spec with a saner budget afterwards succeeds.
        slow = {"fault_args": {"sleep_s": 0.6}}
        with BatchServer(workers=1, runner=sleepy_runner) as server:
            server.submit(_job("t1", seed=9, timeout_s=0.1, **slow))
            server.drain()
            server.submit(_job("t2", seed=9, timeout_s=10.0, **slow))
            server.drain()
            results = {r.job_id: r for r in server.results()}
        assert results["t1"].status == "timeout"
        assert results["t2"].ok and not results["t2"].coalesced

    def test_report_serializes(self, tmp_path):
        jobs = [_job(f"j{i}", seed=i) for i in range(3)]
        with BatchServer(workers=1, runner=digest_runner) as server:
            report = server.run_batch(jobs)
        path = tmp_path / "report.json"
        report.save(path)
        record = json.loads(path.read_text())
        assert record["n_jobs"] == 3
        assert record["counts"] == {"ok": 3}
        assert set(record["latency"]) == {
            "run_p50_s", "run_p95_s", "queue_wait_p50_s", "queue_wait_p95_s"
        }
        assert len(record["results"]) == 3

    def test_serve_metrics_flow(self):
        from repro.obs import metrics as obs_metrics

        submitted = obs_metrics.counter("serve.jobs_submitted").value
        ok = obs_metrics.counter("serve.jobs_ok").value
        with BatchServer(workers=1, runner=digest_runner) as server:
            server.run_batch([_job(f"m{i}", seed=i) for i in range(3)])
        assert obs_metrics.counter("serve.jobs_submitted").value == submitted + 3
        assert obs_metrics.counter("serve.jobs_ok").value >= ok + 1
        assert obs_metrics.histogram("serve.run_s").count > 0


@pytest.mark.slow
class TestRealPipelineService:
    """End-to-end: the real personalize runner through the service."""

    def test_parallel_batch_is_bit_identical_to_serial(self):
        jobs = [
            Job(job_id=f"u{i}", subject_seed=(i % 2) + 1, **FAST)
            for i in range(6)
        ]
        with BatchServer(workers=1, runner=execute_job) as server:
            serial = server.run_batch(jobs)
        with BatchServer(workers=2, runner=execute_job) as server:
            parallel = server.run_batch(jobs)
        assert [r.deterministic() for r in serial.results] == [
            r.deterministic() for r in parallel.results
        ]
        assert serial.counts == {"ok": 6}

    def test_corrupted_capture_fails_only_that_job(self):
        jobs = [
            Job(job_id="healthy-1", subject_seed=1, **FAST),
            Job(job_id="zeroed", subject_seed=1, fault="zeroed", **FAST),
            Job(job_id="healthy-2", subject_seed=7, session_seed=3, **FAST),
        ]
        with BatchServer(workers=2, runner=execute_job) as server:
            report = server.run_batch(jobs)
        by_id = {r.job_id: r for r in report.results}
        assert by_id["healthy-1"].ok
        assert by_id["healthy-2"].ok
        assert by_id["zeroed"].status == "failed"
        assert "SignalError" in by_id["zeroed"].error
        payload = by_id["healthy-1"].payload
        assert len(payload["head_parameters"]) == 3
        assert payload["n_angles"] == 13
        assert len(payload["table_digest"]) == 64

    def test_session_path_jobs_match_seeded_jobs(self, tmp_path):
        # A job naming an on-disk capture must produce the same payload as
        # the seeded job that generated that capture.
        from repro.datasets import save_session
        from repro.simulation.person import VirtualSubject
        from repro.simulation.session import MeasurementSession

        subject = VirtualSubject.random(1)
        session = MeasurementSession(
            subject, seed=0, probe_interval_s=FAST["probe_interval_s"]
        ).run()
        path = tmp_path / "capture.npz"
        save_session(session, path)

        seeded = Job(job_id="seeded", subject_seed=1, **FAST)
        from_disk = Job(
            job_id="disk",
            session_path=str(path),
            angle_step_deg=FAST["angle_step_deg"],
        )
        with BatchServer(workers=1, runner=execute_job) as server:
            report = server.run_batch([seeded, from_disk])
        first, second = (r.deterministic()["payload"] for r in report.results)
        assert first == second


class TestRetriedJobTrace:
    def test_crashed_then_retried_trace_holds_both_attempts(self, tmp_path):
        # The telemetry acceptance scenario: a job whose worker dies on the
        # first attempt must produce a cross-process trace holding both
        # attempts with the retry (and its backoff delay) between them.
        jobs = [
            _job("crashy", crash_marker=str(tmp_path / "crash.marker")),
        ]
        policy = RetryPolicy(
            max_transient_retries=2, base_backoff_s=0.05,
            backoff_factor=1.0, jitter_frac=0.0,
        )
        with BatchServer(
            workers=1, runner=digest_runner, retry_policy=policy,
            telemetry=True,
        ) as server:
            report = server.run_batch(jobs)
        result = report.results[0]
        assert result.ok and result.attempts == 2
        names = [c["name"] for c in result.trace["children"]]
        assert names == [
            "serve.queue", "serve.attempt", "serve.retry", "serve.attempt",
        ]
        first, second = (
            c for c in result.trace["children"] if c["name"] == "serve.attempt"
        )
        assert first["attributes"]["status"] == "crashed"
        assert second["attributes"]["status"] == "ok"
        retry = next(
            c for c in result.trace["children"] if c["name"] == "serve.retry"
        )
        assert retry["attributes"]["backoff_s"] == pytest.approx(0.05)

    def test_retried_job_journals_its_attempts(self, tmp_path):
        # The journal's terminal record keeps the pool's attempt log when a
        # job ran more than once: the crashed attempt, the backoff slept
        # after it, and the attempt that finished.
        from repro.serve import Journal
        from repro.serve.journal import read_records

        path = tmp_path / "batch.journal"
        policy = RetryPolicy(
            max_transient_retries=2, base_backoff_s=0.05,
            backoff_factor=1.0, jitter_frac=0.0,
        )
        with BatchServer(
            workers=1, runner=digest_runner, retry_policy=policy,
            journal=Journal(path, fsync=False),
        ) as server:
            server.run_batch(
                [_job("crashy", crash_marker=str(tmp_path / "crash.marker"))]
            )
        done = [r for r in read_records(path)[0] if r["event"] == "done"]
        assert len(done) == 1 and done[0]["attempts"] == 2
        first, second = done[0]["attempt_log"]
        assert first["status"] == "crashed"
        assert first["backoff_s"] == pytest.approx(0.05)
        assert second["status"] == "ok" and "backoff_s" not in second
        assert first["end_t"] <= second["start_t"] <= second["end_t"]
        assert done[0]["t"] >= second["end_t"]
        assert done[0]["run_s"] > 0
