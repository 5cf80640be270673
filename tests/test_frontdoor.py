"""Admission-control tests: quotas, fair dequeue, value-based shedding.

A :class:`~repro.serve.server.BatchServer` with an
:class:`~repro.serve.admission.Admission` policy makes its decisions
against explicit admission time, so everything here is deterministic:
token buckets replay byte-identically, the stride release order is
pinned, and the shed property tests prove lowest-value-first against the
same offline verifier CI's overload gate uses.
"""

from __future__ import annotations

import random
import threading
import time

import pytest

from repro.errors import ReproError
from repro.serve import (
    Admission,
    BatchServer,
    Job,
    TenantQuota,
    TokenBucket,
    estimate_confidence,
    job_value,
    read_events,
    verify_shed_ordering,
)
from repro.serve import admission as admission_module
from repro.serve.telemetry import ServeTelemetry
from repro.testing.workloads import digest_runner


def _job(job_id: str, seed: int = 1, **kw) -> Job:
    return Job(job_id=job_id, subject_seed=seed, **kw)


def _server(
    gate: threading.Semaphore | None = None,
    telemetry: ServeTelemetry | None = None,
    **admission,
) -> BatchServer:
    """An admission-fronted server whose backlog releases are observable.

    Every job the feeder releases from the backlog is appended to
    ``server.released``; with a ``gate``, each release first waits on it,
    so the feeder blocks inside its first handoff and the backlog holds
    exactly what a test submits next — no races.
    """
    server = BatchServer(
        workers=1, runner=digest_runner, telemetry=telemetry,
        admission=Admission(**admission),
    )
    server.released = []
    handoff = server._enqueue

    def gated(job: Job, block: bool) -> bool:
        if gate is not None:
            gate.acquire()
        server.released.append(job.job_id)
        return handoff(job, block)

    server._enqueue = gated
    return server


def _wait_backlog_empty(server: BatchServer, timeout_s: float = 5.0) -> None:
    """Wait for the feeder to pop what it is going to pop."""
    deadline = time.monotonic() + timeout_s
    while server.admission.depth > 0:
        if time.monotonic() > deadline:
            raise AssertionError("feeder never picked up the lead job")
        time.sleep(0.002)


class TestTokenBucket:
    def test_starts_full_and_refills_at_rate(self):
        bucket = TokenBucket(rate_per_s=2.0, burst=3.0)
        assert [bucket.take(0.0) for _ in range(4)] == [True, True, True, False]
        # 0.5 s at 2/s refills exactly one token.
        assert bucket.take(0.5)
        assert not bucket.take(0.5)

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate_per_s=100.0, burst=2.0)
        assert bucket.take(0.0)
        assert bucket.take(1000.0)
        assert bucket.take(1000.0)
        assert not bucket.take(1000.0)

    def test_time_going_backwards_does_not_mint_tokens(self):
        bucket = TokenBucket(rate_per_s=1.0, burst=1.0)
        assert bucket.take(10.0)
        assert not bucket.take(5.0)
        assert not bucket.take(10.5)
        # Refill resumes from the latest timestamp seen.
        assert bucket.take(11.0)

    def test_two_replays_admit_identically(self):
        times = [i * 0.173 for i in range(50)]
        first = TokenBucket(rate_per_s=3.0, burst=4.0)
        second = TokenBucket(rate_per_s=3.0, burst=4.0)
        assert [first.take(t) for t in times] == [second.take(t) for t in times]

    def test_validation(self):
        with pytest.raises(ReproError):
            TokenBucket(rate_per_s=0.0, burst=1.0)
        with pytest.raises(ReproError):
            TokenBucket(rate_per_s=1.0, burst=0.5)


class TestTenantQuota:
    def test_round_trip(self):
        quota = TenantQuota(rate_per_s=4.0, burst=8.0, weight=2.0)
        assert TenantQuota.from_dict(quota.to_dict()) == quota

    def test_rejects_nonpositive_weight(self):
        with pytest.raises(ReproError):
            TenantQuota(rate_per_s=1.0, burst=1.0, weight=0.0)


class TestPassthrough:
    def test_unconfigured_door_is_transparent(self):
        # No admission policy: submissions queue directly and no feeder
        # thread runs beside the scheduler.
        with BatchServer(workers=1, runner=digest_runner) as server:
            assert server.admission is None
            assert server._feeder is None
            assert server.submit(_job("a"))
            server.drain()
            assert server.results()[0].ok

    def test_passthrough_results_bit_identical_to_bare_server(self):
        jobs = [_job(f"j{i}", seed=10 + i) for i in range(6)]
        with BatchServer(workers=2, runner=digest_runner) as server:
            report = server.run_batch(jobs)
        bare = [r.deterministic() for r in report.results]

        with BatchServer(
            workers=2, runner=digest_runner, admission=Admission()
        ) as server:
            for job in jobs:
                server.submit(job)
            server.drain()
            fronted = [r.deterministic() for r in server.results()]
        assert fronted == bare


class TestQuotas:
    def test_over_quota_is_a_typed_rejection(self):
        quota = TenantQuota(rate_per_s=1.0, burst=2.0)
        with _server(quotas={"acme": quota}) as server:
            outcomes = [
                server.submit(_job(f"a{i}", seed=i + 1, tenant="acme"), now=0.0)
                for i in range(4)
            ]
            server.drain()
            results = {r.job_id: r for r in server.results()}
        assert outcomes == [True, True, False, False]
        assert server.admission.n_over_quota == 2
        for job_id in ("a2", "a3"):
            result = results[job_id]
            assert result.status == "rejected"
            assert result.reason == "over_quota"
            assert result.attempts == 0
        assert sorted(server.released) == ["a0", "a1"]
        assert results["a0"].ok and results["a1"].ok

    def test_bucket_refills_between_arrivals(self):
        quota = TenantQuota(rate_per_s=2.0, burst=1.0)
        with _server(quotas={"acme": quota}) as server:
            assert server.submit(_job("a", tenant="acme"), now=0.0)
            assert not server.submit(_job("b", seed=2, tenant="acme"), now=0.0)
            assert server.submit(_job("c", seed=3, tenant="acme"), now=0.5)
            server.drain()

    def test_default_quota_covers_unlisted_tenants(self, monkeypatch):
        default = TenantQuota(rate_per_s=1.0, burst=1.0)
        monkeypatch.setattr(admission_module, "DEFAULT_QUOTA", default)
        with _server() as server:
            assert server.submit(_job("a", tenant="x"), now=0.0)
            assert not server.submit(_job("b", seed=2, tenant="x"), now=0.0)
            # A fresh tenant gets its own bucket, not x's empty one.
            assert server.submit(_job("c", seed=3, tenant="y"), now=0.0)
            server.drain()

    def test_one_tenants_burst_cannot_starve_another(self):
        quotas = {
            "greedy": TenantQuota(rate_per_s=100.0, burst=100.0),
            "modest": TenantQuota(rate_per_s=1.0, burst=2.0),
        }
        with _server(quotas=quotas) as server:
            for i in range(50):
                assert server.submit(
                    _job(f"g{i}", seed=i + 1, tenant="greedy"), now=0.0
                )
            assert server.submit(_job("m0", seed=200, tenant="modest"), now=0.0)
            assert server.submit(_job("m1", seed=201, tenant="modest"), now=0.0)
            server.drain()

    def test_unmetered_tenant_when_no_quota_matches(self):
        quotas = {"acme": TenantQuota(rate_per_s=1.0, burst=1.0)}
        with _server(quotas=quotas) as server:
            for i in range(20):
                assert server.submit(
                    _job(f"f{i}", seed=i + 1, tenant="free"), now=0.0
                )
            server.drain()


class TestWeightedFairDequeue:
    def test_stride_order_converges_to_weight_ratio(self):
        # Gate the handoff so the feeder blocks after its first pop; the
        # full two-tenant backlog then drains in pure stride order.
        gate = threading.Semaphore(0)
        quotas = {
            "a": TenantQuota(rate_per_s=1e9, burst=1e9, weight=1.0),
            "b": TenantQuota(rate_per_s=1e9, burst=1e9, weight=3.0),
        }
        with _server(gate, quotas=quotas) as server:
            for i in range(12):
                server.submit(_job(f"a{i}", seed=i + 1, tenant="a"), now=0.0)
                server.submit(_job(f"b{i}", seed=100 + i, tenant="b"), now=0.0)
            gate.release(100)
            server.drain()
        tenants = [job_id[0] for job_id in server.released]
        # The first pop is 'a' (pass tie breaks on name); thereafter the
        # stride keeps every prefix within a constant of the 3:1 weight
        # ratio while both backlogs are non-empty (bounded unfairness —
        # exact boundaries wobble with float pass accumulation).
        assert tenants[0] == "a"
        for n in range(2, 15):
            a_count = tenants[:n].count("a")
            b_count = n - a_count
            assert abs(b_count - 3 * a_count) <= 4, (
                f"prefix {n}: {a_count} a vs {b_count} b drifted from 3:1"
            )
        assert tenants.count("a") == tenants.count("b") == 12

    def test_equal_weights_alternate(self):
        gate = threading.Semaphore(0)
        quotas = {
            "a": TenantQuota(rate_per_s=1e9, burst=1e9),
            "b": TenantQuota(rate_per_s=1e9, burst=1e9),
        }
        with _server(gate, quotas=quotas) as server:
            for i in range(8):
                server.submit(_job(f"a{i}", seed=i + 1, tenant="a"), now=0.0)
                server.submit(_job(f"b{i}", seed=100 + i, tenant="b"), now=0.0)
            gate.release(100)
            server.drain()
        tenants = [job_id[0] for job_id in server.released]
        assert tenants[:8] == ["a", "b"] * 4


class TestShedding:
    def _door(self, tmp_path, limit: int, shed: bool = True):
        telemetry = ServeTelemetry(tmp_path / "events.jsonl", fsync=False)
        gate = threading.Semaphore(0)
        server = _server(
            gate, telemetry, backlog_limit=limit, shed=shed,
        )
        return server, gate, telemetry

    def test_queue_full_without_shedding(self, tmp_path):
        server, gate, telemetry = self._door(tmp_path, limit=2, shed=False)
        with server:
            # The feeder pops the first job and blocks at the gate; the
            # next two fill the backlog; the rest find it full.
            assert server.submit(_job("a", seed=1), now=0.0)
            _wait_backlog_empty(server)
            assert server.submit(_job("b", seed=2), now=0.0)
            assert server.submit(_job("c", seed=3), now=0.0)
            accepted = [
                server.submit(_job(f"d{i}", seed=10 + i), now=0.0)
                for i in range(3)
            ]
            gate.release(100)
            server.drain()
            results = {r.job_id: r for r in server.results()}
        telemetry.close()
        assert not any(accepted)
        for i in range(3):
            assert results[f"d{i}"].reason == "queue_full"
        assert all(results[j].ok for j in ("a", "b", "c"))

    def test_sheds_exactly_the_lowest_values(self, tmp_path):
        server, gate, telemetry = self._door(tmp_path, limit=8)
        values = {}
        with server:
            # Highest-value job first: the feeder pops it and blocks, so
            # the backlog contents are exactly what we submit next.
            lead = _job("lead", seed=99, priority=10)
            assert server.submit(lead, now=0.0)
            _wait_backlog_empty(server)
            jobs = []
            for i in range(20):
                job = _job(
                    f"j{i:02d}", seed=i + 1, priority=i % 3,
                    params={"expected_confidence": round(0.05 * i, 2)},
                )
                jobs.append(job)
                values[job.job_id] = job_value(job)
                server.submit(job, now=0.0)
            gate.release(100)
            server.drain()
            results = {r.job_id: r for r in server.results()}
        telemetry.close()

        shed = {j for j, r in results.items() if r.status == "rejected"}
        assert all(results[j].reason == "shed_overload" for j in shed)
        # 21 submitted, 1 in flight, 8 backlog slots: 12 must shed, and
        # they must be precisely the 12 lowest-valued.
        ranked = sorted(jobs, key=lambda job: values[job.job_id])
        assert shed == {job.job_id for job in ranked[:12]}
        events = read_events(telemetry.path)
        assert sum(1 for e in events if e.get("event") == "shed") == 12
        assert verify_shed_ordering(events) == []

    def test_incoming_job_can_be_the_victim(self, tmp_path):
        server, gate, telemetry = self._door(tmp_path, limit=2)
        with server:
            assert server.submit(_job("lead", seed=1, priority=9), now=0.0)
            _wait_backlog_empty(server)
            assert server.submit(_job("keep0", seed=2, priority=5), now=0.0)
            assert server.submit(_job("keep1", seed=3, priority=5), now=0.0)
            assert not server.submit(_job("low", seed=4, priority=-1), now=0.0)
            gate.release(100)
            server.drain()
            results = {r.job_id: r for r in server.results()}
        telemetry.close()
        assert results["low"].reason == "shed_overload"
        assert results["keep0"].ok and results["keep1"].ok

    def test_ties_evict_the_newest_admission(self, tmp_path):
        server, gate, telemetry = self._door(tmp_path, limit=2)
        with server:
            assert server.submit(_job("lead", seed=1, priority=9), now=0.0)
            _wait_backlog_empty(server)
            assert server.submit(_job("old", seed=2), now=0.0)
            assert server.submit(_job("mid", seed=3), now=0.0)
            # Same value as the waiting jobs: the newcomer is the victim.
            assert not server.submit(_job("new", seed=4), now=0.0)
            gate.release(100)
            server.drain()
            results = {r.job_id: r for r in server.results()}
        telemetry.close()
        assert results["new"].reason == "shed_overload"
        assert "old" in server.released and "mid" in server.released

    def test_random_workloads_shed_lowest_value_first(self, tmp_path):
        rng = random.Random(7)
        for round_no in range(3):
            telemetry = ServeTelemetry(
                tmp_path / f"events{round_no}.jsonl", fsync=False
            )
            gate = threading.Semaphore(0)
            server = _server(gate, telemetry, backlog_limit=6, shed=True)
            with server:
                server.submit(_job("lead", seed=999, priority=10), now=0.0)
                _wait_backlog_empty(server)
                for i in range(25):
                    server.submit(
                        _job(
                            f"j{round_no}-{i:02d}", seed=i + 1,
                            priority=rng.randint(-2, 2),
                            params={
                                "expected_confidence": round(rng.random(), 6)
                            },
                        ),
                        now=0.0,
                    )
                gate.release(200)
                server.drain()
            telemetry.close()
            events = read_events(telemetry.path)
            assert verify_shed_ordering(events) == [], (
                f"round {round_no} broke the shed-ordering invariant"
            )


class TestVerifyShedOrdering:
    def test_flags_a_victim_worth_more_than_the_floor(self):
        events = [
            {"event": "shed", "job_id": "x", "value": 2.0,
             "backlog_min_value": 1.0, "seq": 4},
            {"event": "shed", "job_id": "y", "value": 1.0,
             "backlog_min_value": 1.0, "seq": 5},
        ]
        violations = verify_shed_ordering(events)
        assert [v["job_id"] for v in violations] == ["x"]

    def test_ignores_other_events_and_empty_backlogs(self):
        events = [
            {"event": "done", "job_id": "a"},
            {"event": "shed", "job_id": "b", "value": 3.0},
        ]
        assert verify_shed_ordering(events) == []


class TestConfidenceModel:
    def test_explicit_estimate_wins_and_clamps(self):
        job = _job("a", params={"expected_confidence": 1.7})
        assert estimate_confidence(job) == 1.0
        job = _job("b", params={"expected_confidence": -0.3})
        assert estimate_confidence(job) == 0.0

    def test_faulted_specs_degrade_and_clean_specs_trust(self):
        faulted = _job("a", fault="clipped", fault_args={"level": 0.2})
        assert estimate_confidence(faulted) == 0.5
        assert estimate_confidence(_job("b")) == 1.0

    def test_priority_dominates_confidence(self):
        low_conf_high_pri = _job(
            "a", priority=1, params={"expected_confidence": 0.0}
        )
        high_conf_low_pri = _job(
            "b", priority=0, params={"expected_confidence": 1.0}
        )
        assert job_value(low_conf_high_pri) == job_value(high_conf_low_pri)
        assert job_value(_job("c", priority=1)) > job_value(
            _job("d", priority=0)
        )


class TestLifecycle:
    def test_interrupt_resolves_backlog_as_interrupted(self):
        gate = threading.Semaphore(0)
        with _server(gate, backlog_limit=10) as server:
            server.submit(_job("j0", seed=1), now=0.0)
            _wait_backlog_empty(server)
            for i in range(1, 4):
                server.submit(_job(f"j{i}", seed=i + 1), now=0.0)
            server.interrupt()
            gate.release(10)
            server.drain()
            results = server.results()
        # j0 was mid-handoff and reaches a draining partition; the three
        # waiting jobs resolve interrupted rather than vanishing.
        assert server.released == ["j0"]
        assert [r.job_id for r in results] == ["j0", "j1", "j2", "j3"]
        assert {r.status for r in results} == {"interrupted"}

    def test_submit_after_interrupt_is_interrupted_not_lost(self):
        with _server(backlog_limit=4) as server:
            server.interrupt()
            assert not server.submit(_job("late"), now=0.0)
            results = {r.job_id: r for r in server.results()}
        assert results["late"].status == "interrupted"

    def test_duplicate_and_closed_submissions_raise(self):
        server = _server(backlog_limit=4)
        server.submit(_job("a"), now=0.0)
        with pytest.raises(ReproError, match="duplicate"):
            server.submit(_job("a", seed=2), now=0.0)
        server.drain()
        server.close()
        with pytest.raises(ReproError, match="closed"):
            server.submit(_job("b"), now=0.0)

    def test_stats_surface(self):
        with _server(
            quotas={"acme": TenantQuota(rate_per_s=1.0, burst=1.0)},
        ) as server:
            server.submit(_job("a", tenant="acme"), now=0.0)
            server.submit(_job("b", seed=2, tenant="acme"), now=0.0)
            server.drain()
            stats = server.admission.stats()
        assert stats["backlog_limit"] is None
        assert stats["n_over_quota"] == 1
        assert stats["tenants"] == ["acme"]
