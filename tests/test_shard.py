"""Partitioned-server tests: routing, brownouts, and journal merging.

The contract under test: partitioning is an *operational* choice — any
``shards`` count of :class:`~repro.serve.server.BatchServer` produces the
same deterministic results as one partition — and a partition is a
*failure domain* — ejecting one reroutes its work, probing brings it
back, and the per-partition journals always fold into one resumable
artifact.
"""

from __future__ import annotations

import json
import sys
import threading
import zlib

import pytest

from repro.errors import ReproError
from repro.serve import (
    BatchServer,
    Job,
    RetryPolicy,
    merge_journals,
    replay_journal,
    shard_journal_path,
    shard_of,
)
from repro.serve import server as server_module
from repro.serve.journal import Journal
from repro.serve.server import _namespaced_policy
from repro.testing.workloads import digest_runner

#: Retry knobs that keep crash-path tests fast.
QUICK_RETRY = dict(max_transient_retries=1, base_backoff_s=0.01,
                   max_backoff_s=0.02)


def _job(job_id: str, seed: int = 1, **kw) -> Job:
    return Job(job_id=job_id, subject_seed=seed, **kw)


def _det(results) -> list:
    return [r.deterministic() for r in results]


def _jobs_homed_on(shard: int, shards: int, count: int, **kw) -> list[Job]:
    """Clean jobs whose spec keys all route to ``shard`` of ``shards``."""
    jobs = []
    seed = 0
    while len(jobs) < count:
        seed += 1
        job = _job(f"h{shard}-{seed}", seed=seed, **kw)
        if shard_of(job.spec_key(), shards) == shard:
            jobs.append(job)
    return jobs


class TestRouting:
    def test_shard_of_is_crc32_mod(self):
        key = _job("a", seed=3).spec_key()
        assert shard_of(key, 4) == zlib.crc32(key.encode()) % 4
        assert all(0 <= shard_of(key, n) < n for n in (1, 2, 3, 7))

    def test_shard_of_is_stable_across_calls(self):
        keys = [_job(f"j{i}", seed=i + 1).spec_key() for i in range(20)]
        first = [shard_of(k, 3) for k in keys]
        assert [shard_of(k, 3) for k in keys] == first

    def test_shard_journal_path(self, tmp_path):
        base = tmp_path / "b.journal"
        assert shard_journal_path(base, 0, 1) == str(base)
        assert shard_journal_path(base, 2, 4) == f"{base}.shard2"

    def test_namespaced_policy(self):
        policy = RetryPolicy(seed=5)
        assert _namespaced_policy(policy, 3, 1) is policy
        assert _namespaced_policy(None, 3, 4) is None
        shard3 = _namespaced_policy(policy, 3, 4)
        assert shard3.namespace == "shard3"
        assert shard3.seed == policy.seed


class TestDeterminism:
    def test_single_shard_is_bit_identical_to_bare_server(self, tmp_path):
        # One partition adds nothing to the computation: every result is
        # exactly the runner applied to the spec in this process.
        jobs = [_job(f"j{i}", seed=20 + i) for i in range(8)]
        bare = [
            {"job_id": job.job_id, "status": "ok",
             "payload": digest_runner(job.to_dict()), "error": None}
            for job in jobs
        ]
        with BatchServer(workers=2, shards=1, runner=digest_runner) as server:
            sharded = _det(server.run_batch(jobs).results)
        assert sharded == bare

    def test_single_shard_journals_at_the_plain_base_path(self, tmp_path):
        base = tmp_path / "one.journal"
        jobs = [_job(f"j{i}", seed=i + 1) for i in range(4)]
        with BatchServer(
            workers=1, runner=digest_runner, journal=base
        ) as server:
            server.run_batch(jobs)
        assert base.exists()
        assert not (tmp_path / "one.journal.shard0").exists()

    def test_any_shard_count_same_results(self):
        jobs = [_job(f"j{i}", seed=40 + i) for i in range(9)]
        outcomes = []
        for shards in (1, 2, 3):
            with BatchServer(
                workers=1, shards=shards, runner=digest_runner
            ) as server:
                outcomes.append(_det(server.run_batch(jobs).results))
        assert outcomes[0] == outcomes[1] == outcomes[2]

    def test_coalescing_survives_sharding_even_across_tenants(self):
        twins = [
            _job("first", seed=77, tenant="acme"),
            _job("second", seed=77, tenant="globex"),
        ]
        with BatchServer(
            workers=1, shards=3, runner=digest_runner
        ) as server:
            report = server.run_batch(twins)
        by_id = {r.job_id: r for r in report.results}
        assert by_id["first"].ok and by_id["second"].ok
        assert by_id["second"].coalesced
        assert (
            by_id["first"].deterministic()["payload"]
            == by_id["second"].deterministic()["payload"]
        )

    def test_report_counts_all_shards(self):
        with BatchServer(
            workers=2, shards=2, runner=digest_runner
        ) as server:
            report = server.run_batch([_job("a", seed=1)])
        assert report.workers == 4


class TestJournalMerge:
    def test_merged_journal_resumes_on_a_bare_server(self, tmp_path):
        base = tmp_path / "b.journal"
        jobs = [_job(f"j{i}", seed=60 + i) for i in range(9)]
        with BatchServer(
            workers=1, shards=3, runner=digest_runner, journal=base
        ) as server:
            first = _det(server.run_batch(jobs).results)
        for k in range(3):
            assert (tmp_path / f"b.journal.shard{k}").exists()
        assert base.exists()

        with BatchServer(
            workers=1, runner=digest_runner, journal=base, resume=True
        ) as server:
            report = server.run_batch(jobs)
        assert all(r.replayed for r in report.results)
        assert _det(report.results) == first

    def test_sharded_resume_replays_done_work(self, tmp_path):
        base = tmp_path / "b.journal"
        jobs = [_job(f"j{i}", seed=80 + i) for i in range(6)]
        with BatchServer(
            workers=1, shards=2, runner=digest_runner, journal=base
        ) as server:
            first = _det(server.run_batch(jobs).results)
        with BatchServer(
            workers=1, shards=2, runner=digest_runner, journal=base,
            resume=True,
        ) as server:
            report = server.run_batch(jobs)
        assert all(r.replayed for r in report.results)
        assert _det(report.results) == first

    def test_resume_survives_a_shard_count_change(self, tmp_path):
        # The merged base journal is the portable artifact: a 3-shard
        # resume of a 2-shard run still replays every done record.
        base = tmp_path / "b.journal"
        jobs = [_job(f"j{i}", seed=90 + i) for i in range(6)]
        with BatchServer(
            workers=1, shards=2, runner=digest_runner, journal=base
        ) as server:
            first = _det(server.run_batch(jobs).results)
        with BatchServer(
            workers=1, shards=3, runner=digest_runner, journal=base,
            resume=True,
        ) as server:
            report = server.run_batch(jobs)
        assert all(r.replayed for r in report.results)
        assert _det(report.results) == first

    def test_merge_journals_prefers_ok_over_dead_letter(self, tmp_path):
        from repro.serve.journal import Journal

        left = tmp_path / "left.journal"
        right = tmp_path / "right.journal"
        with Journal(left, fsync=False) as journal:
            journal.append("submitted", spec_key="k", job_id="a")
            journal.append(
                "failed", spec_key="k", job_id="a", status="crashed",
                error="worker died",
            )
        with Journal(right, fsync=False) as journal:
            journal.append("submitted", spec_key="k", job_id="a")
            journal.append(
                "done", spec_key="k", job_id="a", status="ok",
                payload={"digest": "d"},
            )
        merged = tmp_path / "merged.journal"
        state = merge_journals([left, right], merged)
        assert state.done["k"]["status"] == "ok"
        again = replay_journal(merged)
        assert again.done["k"]["status"] == "ok"
        assert not again.pending()

    def test_merge_tolerates_missing_inputs(self, tmp_path):
        from repro.serve.journal import Journal

        only = tmp_path / "only.journal"
        with Journal(only, fsync=False) as journal:
            journal.append("submitted", spec_key="k", job_id="a")
            journal.append(
                "done", spec_key="k", job_id="a", status="ok", payload={}
            )
        merged = tmp_path / "merged.journal"
        state = merge_journals(
            [only, tmp_path / "never-written.journal"], merged
        )
        assert set(state.done) == {"k"}

    def test_merged_header_names_its_sources(self, tmp_path):
        from repro.serve.journal import Journal

        paths = []
        for k in range(2):
            path = tmp_path / f"s{k}.journal"
            with Journal(path, fsync=False) as journal:
                journal.append("submitted", spec_key=f"k{k}", job_id=f"j{k}")
            paths.append(path)
        merged = tmp_path / "merged.journal"
        merge_journals(paths, merged)
        with open(merged) as handle:
            header = json.loads(handle.readline())
        assert header["event"] == "checkpoint"
        assert header["merged_from"] == 2


class TestBrownout:
    def test_consecutive_transients_eject_and_reroute(self, monkeypatch):
        # Markerless worker_kill poison: every attempt dies, the result is
        # transient "crashed", and two of them trip the shard-0 breaker.
        poison = []
        seed = 200
        while len(poison) < 2:
            seed += 1
            job = _job(f"p{seed}", seed=seed, fault="worker_kill")
            if shard_of(job.spec_key(), 2) == 0:
                poison.append(job)
        clean = _jobs_homed_on(0, 2, 4)
        monkeypatch.setattr(server_module, "BREAKER_THRESHOLD", 2)
        monkeypatch.setattr(server_module, "PROBE_BACKOFF_S", 60.0)
        with BatchServer(
            workers=1, shards=2, runner=digest_runner,
            retry_policy=RetryPolicy(**QUICK_RETRY),
        ) as server:
            for job in poison:
                server.submit(job)
            server.drain()
            states = {s["shard"]: s for s in server.shard_states()}
            assert states[0]["state"] == "open"
            assert states[0]["ejections"] == 1
            # Shard 0's home traffic now routes around the open breaker.
            for job in clean:
                server.submit(job)
            server.drain()
            results = {r.job_id: r for r in server.results()}
        for job in poison:
            assert results[job.job_id].status == "crashed"
        for job in clean:
            assert results[job.job_id].ok

    def test_forced_eject_probes_back_and_recovers(self, monkeypatch):
        clock_now = [0.0]
        clean = _jobs_homed_on(0, 2, 2)
        monkeypatch.setattr(server_module, "BREAKER_THRESHOLD", 2)
        monkeypatch.setattr(server_module, "PROBE_BACKOFF_S", 0.5)
        monkeypatch.setattr(server_module, "clock", lambda: clock_now[0])
        with BatchServer(
            workers=1, shards=2, runner=digest_runner,
        ) as server:
            server.inject_shard_failure(0)
            states = {s["shard"]: s for s in server.shard_states()}
            assert states[0]["state"] == "open"
            # Before the backoff elapses the shard stays ejected ...
            server.submit(clean[0])
            server.drain()
            assert server.shard_states()[0]["state"] == "open"
            # ... after it, the next home job probes the shard half-open
            # and its success closes the breaker.
            clock_now[0] = 1.0
            server.submit(clean[1])
            server.drain()
            states = {s["shard"]: s for s in server.shard_states()}
            results = {r.job_id: r for r in server.results()}
        assert states[0]["state"] == "closed"
        assert states[0]["ejections"] == 0
        assert all(r.ok for r in results.values())

    def test_every_shard_down_is_a_typed_rejection(self, monkeypatch):
        monkeypatch.setattr(server_module, "PROBE_BACKOFF_S", 3600.0)
        with BatchServer(
            workers=1, shards=2, runner=digest_runner,
        ) as server:
            server.inject_shard_failure(0)
            server.inject_shard_failure(1)
            server.submit(_job("stranded", seed=5))
            server.drain()
            results = {r.job_id: r for r in server.results()}
        stranded = results["stranded"]
        assert stranded.status == "rejected"
        assert stranded.reason == "shard_down"

    def test_inject_shard_failure_validation(self):
        with BatchServer(workers=1, runner=digest_runner) as server:
            with pytest.raises(ReproError, match="only shard"):
                server.inject_shard_failure(0)
        with BatchServer(
            workers=1, shards=2, runner=digest_runner
        ) as server:
            with pytest.raises(ReproError, match="no shard"):
                server.inject_shard_failure(9)

    def test_single_shard_never_arms_the_breaker(self, monkeypatch):
        # Even a hair-trigger threshold cannot eject the only partition:
        # a transient failure stays that job's outcome, the next job runs.
        monkeypatch.setattr(server_module, "BREAKER_THRESHOLD", 1)
        with BatchServer(
            workers=1, runner=digest_runner,
            retry_policy=RetryPolicy(**QUICK_RETRY),
        ) as server:
            server.submit(_job("poison", seed=3, fault="worker_kill"))
            server.drain()
            server.submit(_job("clean", seed=4))
            server.drain()
            states = server.shard_states()
            results = {r.job_id: r for r in server.results()}
        assert results["poison"].status == "crashed"
        assert results["clean"].ok
        assert states == [{"shard": 0, "state": "closed", "ejections": 0,
                           "consecutive_transients": 0}]


class TestValidation:
    def test_rejects_bad_configuration(self, tmp_path):
        with pytest.raises(ReproError, match="shards"):
            BatchServer(workers=1, shards=0, runner=digest_runner)
        with pytest.raises(ReproError, match="resume"):
            BatchServer(workers=1, resume=True, runner=digest_runner)
        with pytest.raises(ReproError, match="queue_size"):
            BatchServer(workers=1, queue_size=0, runner=digest_runner)
        journal = Journal(tmp_path / "one.journal", fsync=False)
        with pytest.raises(ReproError, match="base path"):
            BatchServer(
                workers=1, shards=2, runner=digest_runner, journal=journal,
            )
        journal.close()

    def test_duplicate_and_closed_submissions_raise(self):
        server = BatchServer(workers=1, shards=2, runner=digest_runner)
        with server:
            server.submit(_job("a", seed=1))
            with pytest.raises(ReproError, match="duplicate"):
                server.submit(_job("a", seed=2))
            server.drain()
        with pytest.raises(ReproError, match="closed"):
            server.submit(_job("b", seed=3))


class TestConcurrency:
    def test_concurrent_submitters_account_exactly(self):
        # More submitting threads than cores, a shortened switch interval,
        # two partitions and a shedding backlog: every job must land in the
        # one ledger exactly once, executed, coalesced or shed.
        from repro.serve import Admission

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with BatchServer(
                workers=1, shards=2, runner=digest_runner,
                admission=Admission(backlog_limit=16, shed=True),
            ) as server:

                def submit_all(t: int) -> None:
                    for i in range(50):
                        server.submit(
                            _job(f"t{t}-{i}", seed=i % 7 + 1, tenant=f"x{t}"),
                            now=0.0,
                        )

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
        assert all(r.ok or r.reason == "shed_overload" for r in results)
