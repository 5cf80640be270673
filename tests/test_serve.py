"""Batch service tests: jobs, pool, server semantics, and the real pipeline.

Service *semantics* (queueing, coalescing, backpressure, priorities, crash
retry, timeouts) are exercised with the millisecond runners from
:mod:`repro.testing.workloads`; the real :func:`repro.serve.worker
.execute_job` pipeline appears only in the small end-to-end tests at the
bottom (determinism vs serial, fault isolation), which reuse the golden-case
configuration so the delay-map caches stay warm across the suite.
"""

from __future__ import annotations

import json
import os

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
    read_events,
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
        base = _job("a", priority=0)
        assert base.spec_key() == _job("b", priority=9, timeout_s=3.0).spec_key()
        assert base.spec_key() != _job("c", seed=2).spec_key()
        assert base.spec_key() != _job("d", angle_step_deg=10.0).spec_key()

    def test_round_trip_through_dict(self):
        job = _job("a", seed=5, priority=2, fault="clipped",
                   fault_args={"level": 0.2}, timeout_s=1.5)
        again = Job.from_dict(json.loads(json.dumps(job.to_dict())))
        assert again == job

    def test_to_dict_omits_defaults(self):
        assert _job("a").to_dict() == {"job_id": "a", "subject_seed": 1}

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ReproError, match="unknown fields"):
            Job.from_dict({"job_id": "a", "subject_seed": 1, "speed": 11})

    def test_jsonl_round_trip(self, tmp_path):
        jobs = [_job("a"), _job("b", seed=2, priority=1)]
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
            payload={"digest": "d", "_stats": {"worker_pid": 123}},
            attempts=2,
            run_s=1.0,
        )
        det = result.deterministic()
        assert det["payload"] == {"digest": "d"}
        assert "attempts" not in det and "run_s" not in det


class TestWorkerPool:
    def test_inline_map_preserves_order(self):
        with WorkerPool(1, inline=True) as pool:
            specs = [{"job_id": f"j{i}", "subject_seed": i} for i in range(5)]
            values = pool.map(digest_runner, specs)
        assert [v["subject_seed"] for v in values] == list(range(5))

    def test_inline_map_reraises_the_original_exception(self):
        with WorkerPool(1, inline=True) as pool:
            with pytest.raises(ReproError, match="synthetic failure"):
                pool.map(digest_runner, [{"job_id": "bad", "fault": FAILING_FAULT}])

    def test_subprocess_matches_inline(self):
        specs = [{"job_id": f"j{i}", "subject_seed": i} for i in range(4)]
        with WorkerPool(1, inline=True) as pool:
            inline = pool.map(digest_runner, specs)
        with WorkerPool(2, inline=False) as pool:
            forked = pool.map(digest_runner, specs)
        assert forked == inline

    def test_crash_retry_recovers(self, tmp_path):
        marker = tmp_path / "boom"
        spec = {"job_id": "j", "subject_seed": 3, "crash_marker": str(marker)}
        with WorkerPool(1, inline=False) as pool:
            outcomes = pool.outcomes(digest_runner, [spec])
        assert marker.exists()
        assert outcomes[0].status == "ok"
        assert outcomes[0].attempts == 2

    def test_crash_without_retry_budget_reports_crashed(self, tmp_path):
        # Two markers: the job crashes on the first attempt *and* on its
        # single retry, so the pool must give up and say so.
        first = tmp_path / "boom"
        spec = {"job_id": "j", "subject_seed": 3, "crash_marker": str(first)}

        with WorkerPool(1, inline=False, max_crash_retries=0) as pool:
            outcomes = pool.outcomes(digest_runner, [spec])
        assert outcomes[0].status == "crashed"
        assert outcomes[0].attempts == 1

    def test_timeout_resolves_without_blocking(self):
        # Shutdown waits for the busy worker, so the sleep bounds the test.
        spec = {"job_id": "slow", "subject_seed": 1,
                "fault_args": {"sleep_s": 1.5}}
        with WorkerPool(1, inline=False) as pool:
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

    def test_nonblocking_submit_rejects_when_full(self):
        # One worker pinned on a slow job; a tiny queue behind it must
        # reject (not drop, not block) the overflow.
        blocker = _job("blocker", seed=0, fault_args={"sleep_s": 0.8})
        burst = [_job(f"b{i}", seed=100 + i) for i in range(6)]
        with BatchServer(workers=1, queue_size=2, runner=sleepy_runner,
                         coalesce=False) as server:
            assert server.submit(blocker, block=True)
            accepted = [server.submit(job, block=False) for job in burst]
            server.drain()
            results = {r.job_id: r for r in server.results()}
        assert not all(accepted), "a 2-slot queue cannot absorb a 6-job burst"
        for job, was_accepted in zip(burst, accepted):
            result = results[job.job_id]
            if was_accepted:
                assert result.ok
            else:
                assert result.status == "rejected"
                assert result.attempts == 0
                assert "queue full" in result.error

    def test_rejections_are_visible_everywhere(self, tmp_path):
        # A non-blocking rejection must be observable in all three planes:
        # the metrics counter, the telemetry event stream, and the batch
        # report — silent admission drops read as lost load.
        from repro.obs import metrics as obs_metrics
        from repro.serve import BatchReport

        before = obs_metrics.counter("serve.rejected").value
        telemetry = tmp_path / "events.jsonl"
        blocker = _job("blocker", seed=0, fault_args={"sleep_s": 0.8})
        burst = [_job(f"b{i}", seed=100 + i, tenant="burst") for i in range(6)]
        with BatchServer(workers=1, queue_size=1, runner=sleepy_runner,
                         coalesce=False, telemetry=telemetry) as server:
            assert server.submit(blocker, block=True)
            accepted = [server.submit(job, block=False) for job in burst]
            server.drain()
            results = server.results()
            wall_s = 0.0
        n_rejected = accepted.count(False)
        assert n_rejected > 0

        # Metrics plane: the dedicated rejection counter moved in lockstep.
        assert obs_metrics.counter("serve.rejected").value == before + n_rejected

        # Telemetry plane: one typed "rejected" event per rejection, each
        # carrying the reason, tenant, and observed queue depth.
        events = [e for e in read_events(telemetry) if e.get("event") == "rejected"]
        assert len(events) == n_rejected
        for event in events:
            assert event["reason"] == "queue_full"
            assert event["tenant"] == "burst"
            assert event["queue_depth"] >= 0

        # Report plane: rejections surface in counts, typed reasons, and
        # the serialized record (only when rejections actually happened).
        report = BatchReport(results=results, wall_s=wall_s, workers=1,
                             queue_size=1, coalesce=False)
        assert report.n_rejected == n_rejected
        assert report.rejection_reasons() == {"queue_full": n_rejected}
        record = report.to_dict()
        assert record["rejected_jobs"] == n_rejected
        assert record["rejection_reasons"] == {"queue_full": n_rejected}

    def test_priority_orders_the_pending_queue(self):
        # While the single worker is pinned, a later high-priority job must
        # be dispatched before an earlier low-priority one; queue_wait_s
        # (enqueue -> dispatch) observes the order.
        blocker = _job("blocker", seed=0, fault_args={"sleep_s": 0.6})
        low = _job("low", seed=1, priority=0, fault_args={"sleep_s": 0.2})
        high = _job("high", seed=2, priority=5, fault_args={"sleep_s": 0.2})
        with BatchServer(workers=1, runner=sleepy_runner,
                         coalesce=False) as server:
            server.submit(blocker)
            server.submit(low)
            server.submit(high)
            server.drain()
            results = {r.job_id: r for r in server.results()}
        assert results["high"].queue_wait_s < results["low"].queue_wait_s

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
        # attempts with the retry (and its backoff delay) between them,
        # plus matching retry/attempt events in the flight-recorder stream.
        path = tmp_path / "telemetry.jsonl"
        jobs = [
            _job("crashy", crash_marker=str(tmp_path / "crash.marker")),
        ]
        policy = RetryPolicy(
            max_transient_retries=2, base_backoff_s=0.05,
            backoff_factor=1.0, jitter_frac=0.0,
        )
        with BatchServer(
            workers=1, runner=digest_runner, retry_policy=policy,
            telemetry=path,
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
        events = read_events(path)
        assert [e["event"] for e in events if e["event"] == "retry"] == ["retry"]
        ends = [e for e in events if e["event"] == "attempt_end"]
        assert [e["status"] for e in ends] == ["crashed", "ok"]
