"""Serve telemetry tests: span export, SLO gate, journal-fed timeline.

The cross-process path is exercised end to end with the millisecond
runners from :mod:`repro.testing.workloads`: a telemetry-enabled batch must
produce a causally-complete trace per job (server-side queue → attempt
spans with the worker-captured tree grafted under the final attempt) and
merged worker metrics; its journal must carry what the timeline draws;
SLO statistics come from the batch report alone — while a telemetry-off
batch stays bit-identical on its deterministic fields.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import threading

import pytest
from hypothesis import given, strategies as st

from repro.errors import ReproError, SignalError
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import Counter, MetricsRegistry, diff_snapshots
from repro.obs.report import self_durations
from repro.obs.trace import Span
from repro.serve import BatchReport, BatchServer, Job, JobResult, Journal
from repro.serve.journal import read_records, replay_journal
from repro.serve.telemetry import (
    SLO_STATS,
    ServeTelemetry,
    SloPolicy,
    slo_stats,
)
from repro.serve.worker import execute_job
from repro.testing.golden import CASE_CONFIG
from repro.testing.workloads import FAILING_FAULT, digest_runner
from repro.textplot import gantt


def _jobs(n: int, **kw) -> list[Job]:
    return [Job(job_id=f"j{i}", subject_seed=i, **kw) for i in range(n)]


# ---------------------------------------------------------------------------
# Span serialization
# ---------------------------------------------------------------------------

_names = st.text(
    alphabet="abcdefghij.", min_size=1, max_size=12
).filter(lambda s: s.strip())
_finite = st.floats(allow_nan=False, allow_infinity=False, width=32)
_attr_values = st.one_of(
    st.integers(-1000, 1000), _finite, st.booleans(),
    st.text(max_size=8), st.none(),
)
_attrs = st.dictionaries(
    st.text(alphabet="abcxyz_", min_size=1, max_size=6),
    _attr_values,
    max_size=3,
)


def _make_span(name, attributes, start_s, duration_s, children) -> Span:
    span = Span(name, attributes)
    span.start_s = start_s
    span.duration_s = duration_s
    span.children = list(children)
    return span


_span_args = (_names, _attrs, _finite, st.one_of(st.none(), _finite))
_spans = st.recursive(
    st.builds(_make_span, *_span_args, st.just(())),
    lambda inner: st.builds(_make_span, *_span_args, st.lists(inner, max_size=3)),
    max_leaves=12,
)


class TestSpanSerialization:
    @given(_spans)
    def test_round_trip_is_bit_identical(self, root):
        # Arbitrary nested trees must survive to_dict → JSON → from_dict →
        # to_dict with a byte-for-byte identical serialization — the
        # contract the cross-process graft (worker → server) rests on.
        first = root.to_dict()
        rebuilt = Span.from_dict(json.loads(json.dumps(first)))
        assert json.dumps(rebuilt.to_dict(), sort_keys=True) == json.dumps(
            first, sort_keys=True
        )

    @given(_spans)
    def test_span_ids_are_stable_and_unique_per_tree(self, root):
        ids: list[str] = []

        def collect(data):
            ids.append(data["span_id"])
            for child in data["children"]:
                collect(child)

        first = root.to_dict()
        collect(first)
        assert all(isinstance(i, str) and len(i) == 12 for i in ids)
        assert len(set(ids)) == len(ids)
        # Ids are cached on the spans: serializing again changes nothing.
        assert root.to_dict() == first

    def test_same_shape_same_ids_across_processes(self):
        # Ids derive from tree structure, not object identity — two
        # processes serializing the same logical trace agree on ids.
        def build():
            root = Span("a")
            root.duration_s = 1.0
            child = Span("b")
            child.duration_s = 0.5
            root.children = [child]
            return root.to_dict()

        assert build() == build()


# ---------------------------------------------------------------------------
# Metrics: thread safety (regression) and snapshot deltas
# ---------------------------------------------------------------------------

class TestMetricsThreadSafety:
    def test_counter_inc_hammered_from_threads_is_exact(self):
        # Regression: serve pool callbacks bump counters from several
        # threads at once; the unsynchronized `value += 1` read-modify-
        # write used to lose increments under that interleaving.
        counter = Counter("hammer")
        per_thread, n_threads = 5000, 8

        def work():
            for _ in range(per_thread):
                counter.inc()

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == per_thread * n_threads


class TestSnapshotDeltas:
    def test_diff_then_merge_reconstructs_the_movement(self):
        source = MetricsRegistry()
        source.counter("jobs").inc(3)
        source.histogram("lat", (1.0, 2.0)).observe(0.5)
        before = source.snapshot()
        source.counter("jobs").inc(4)
        source.counter("idle").inc()  # appears only after `before`
        source.gauge("depth").set(7.0)
        source.histogram("lat", (1.0, 2.0)).observe(1.5)
        delta = diff_snapshots(before, source.snapshot())
        assert delta["counters"] == {"jobs": 4.0, "idle": 1.0}
        assert delta["gauges"] == {"depth": 7.0}
        assert delta["histograms"]["lat"]["count"] == 1

        target = MetricsRegistry()
        target.counter("jobs").inc(10)
        target.merge_delta(delta)
        assert target.counter("jobs").value == 14.0
        assert target.gauge("depth").value == 7.0
        assert target.histogram("lat", (1.0, 2.0)).count == 1

    def test_unmoved_metrics_drop_out_of_the_delta(self):
        registry = MetricsRegistry()
        registry.counter("still").inc(5)
        snap = registry.snapshot()
        delta = diff_snapshots(snap, snap)
        assert delta == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_bucket_mismatch_is_counted_not_merged(self):
        target = MetricsRegistry()
        target.histogram("lat", (1.0, 2.0)).observe(0.5)
        target.merge_delta(
            {"histograms": {"lat": {
                "buckets": [5.0, 10.0], "counts": [1, 0, 0],
                "sum": 3.0, "count": 1, "non_finite": 0,
            }}}
        )
        assert target.histogram("lat", (1.0, 2.0)).count == 1  # unchanged
        assert target.counter("obs.merge.bucket_mismatch").value == 1.0


# ---------------------------------------------------------------------------
# SLO statistics and policy
# ---------------------------------------------------------------------------

def _result(job_id: str, status: str = "ok", **kw) -> JobResult:
    return JobResult(job_id=job_id, status=status, **kw)


def _report(results, wall_s: float = 1.0) -> BatchReport:
    return BatchReport(results=tuple(results), wall_s=wall_s, workers=2,
                       coalesce=True)


class TestSloStats:
    def test_stats_over_a_synthetic_report(self):
        report = _report([
            _result("a", run_s=0.5, queue_wait_s=0.2,
                    payload={"_telemetry": {"cold_start": True}}),
            _result("b", run_s=1.5, attempts=3, queue_wait_s=0.4,
                    payload={"_telemetry": {"cold_start": False}}),
            _result("c", "failed", run_s=0.1),
            _result("d", attempts=0, coalesced=True, queue_wait_s=9.0),
        ], wall_s=2.0)
        stats = slo_stats(report)
        assert stats["n_jobs"] == 4
        assert stats["n_executed"] == 3
        assert stats["counts"] == {"failed": 1, "ok": 3}
        assert stats["total_attempts"] == 5
        # Latency over executed ok jobs, queue wait over executed jobs:
        # the coalesced follower's long wait is the leader's run.
        assert stats["job_p50_s"] == pytest.approx(1.0)
        assert stats["queue_wait_p50_s"] == pytest.approx(0.2)
        assert stats["retry_rate"] == pytest.approx(1 / 3)
        assert stats["dead_letter_rate"] == pytest.approx(1 / 3)
        assert stats["cold_start_fraction"] == pytest.approx(0.5)
        # Throughput: jobs with an outcome over the report's wall time.
        assert stats["throughput_jobs_per_s"] == pytest.approx(4 / 2.0)
        assert set(stats) >= set(SLO_STATS)

    def test_replayed_jobs_do_not_pollute_latency(self):
        stats = slo_stats(
            _report([_result("replayed", attempts=0, replayed=True)])
        )
        assert stats["n_jobs"] == 1
        assert stats["n_executed"] == 0
        assert math.isnan(stats["job_p50_s"])
        assert math.isnan(stats["cold_start_fraction"])

    def test_report_latency_is_the_slo_latency(self):
        """The batch report and ``--slo`` quote one set of percentiles."""
        jobs = [Job(job_id=f"j{i}", subject_seed=i % 3) for i in range(12)]
        with BatchServer(workers=2, runner=digest_runner) as server:
            report = server.run_batch(jobs)
        # Synthetic followers whose waits only the leader's run explains.
        report = dataclasses.replace(report, results=report.results + (
            _result("follower", attempts=0, coalesced=True, queue_wait_s=9.0),
            _result("replayed", attempts=0, replayed=True, queue_wait_s=7.0),
        ))
        assert sum(r.attempts == 0 for r in report.results) > 2
        stats = slo_stats(report)
        assert report.latency_summary() == {
            "run_p50_s": stats["job_p50_s"],
            "run_p95_s": stats["job_p95_s"],
            "queue_wait_p50_s": stats["queue_wait_p50_s"],
            "queue_wait_p95_s": stats["queue_wait_p95_s"],
        }
        assert report.to_dict()["latency"] == report.latency_summary()


class TestSloPolicy:
    def test_violations_fire_in_both_directions(self):
        policy = SloPolicy({
            "max_job_p95_s": 1.0,
            "min_throughput_jobs_per_s": 10.0,
            "max_dead_letter_rate": 0.5,
        })
        violations = policy.evaluate({
            "job_p95_s": 2.0,
            "throughput_jobs_per_s": 1.0,
            "dead_letter_rate": 0.0,
        })
        assert {v["threshold"] for v in violations} == {
            "max_job_p95_s", "min_throughput_jobs_per_s"
        }
        worst = next(v for v in violations if v["stat"] == "job_p95_s")
        assert worst["limit"] == 1.0 and worst["actual"] == 2.0

    def test_nan_stats_violate_nothing(self):
        policy = SloPolicy({"min_throughput_jobs_per_s": 1.0})
        assert policy.evaluate({"throughput_jobs_per_s": float("nan")}) == []

    def test_unknown_stat_and_bad_prefix_are_rejected(self):
        with pytest.raises(ReproError, match="unknown statistic"):
            SloPolicy({"max_job_p42_s": 1.0})
        with pytest.raises(ReproError, match="max_ or min_"):
            SloPolicy({"job_p95_s": 1.0})
        # Nothing samples the queue depth, so no statistic describes it.
        with pytest.raises(ReproError, match="unknown statistic"):
            SloPolicy({"max_queue_depth_peak": 1})
        # submit never turns a job away, so nothing counts rejections.
        with pytest.raises(ReproError, match="unknown statistic"):
            SloPolicy({"max_n_rejected": 0})

    @pytest.mark.parametrize(
        "limit",
        [None, "nan", "1.0", True, False, float("nan"), float("inf"), [1]],
        ids=repr,
    )
    def test_limits_must_be_finite_numbers(self, limit):
        # A null limit cannot be compared, a NaN one never fires and a
        # boolean is not a limit: each is a typo to reject, not to run.
        with pytest.raises(ReproError, match="finite number"):
            SloPolicy({"max_job_p95_s": limit})

    def test_json_file_round_trip(self, tmp_path):
        path = tmp_path / "slo.json"
        path.write_text('{"max_retry_rate": 0.25, "max_dead_letter_rate": 0}\n')
        policy = SloPolicy.from_json_file(path)
        assert policy.thresholds == {"max_retry_rate": 0.25,
                                     "max_dead_letter_rate": 0.0}


class TestSloCli:
    @pytest.mark.parametrize(
        "body", ['{"max_job_p95_s": null}', '{"max_job_p95_s": "nan"}',
                 '{"max_job_p95_s": true}', '[1]'],
    )
    def test_bad_policy_is_a_usage_error(self, tmp_path, capsys, body):
        from repro.cli import main_batch

        jobs = tmp_path / "jobs.jsonl"
        jobs.write_text('{"job_id": "a", "subject_seed": 1}\n')
        slo = tmp_path / "slo.json"
        slo.write_text(body)
        assert main_batch(["--jobs", str(jobs), "--slo", str(slo)]) == 2
        assert "cannot load SLO policy" in capsys.readouterr().err

    @pytest.mark.slow
    def test_batch_writes_one_jsonl_file_and_exits_5(self, tmp_path, capsys):
        # The whole serve CLI surface at once: journal, telemetry, SLO and
        # report.  The journal is the only file the batch appends to.
        from repro.cli import main_batch

        jobs = tmp_path / "jobs.jsonl"
        jobs.write_text(json.dumps({"job_id": "a", "subject_seed": 1,
                                    **CASE_CONFIG}) + "\n")
        slo = tmp_path / "slo.json"
        slo.write_text('{"max_job_p50_s": 0.0}')
        report_path = tmp_path / "report.json"
        journal = tmp_path / "batch.journal"
        rc = main_batch([
            "--jobs", str(jobs), "--workers", "1", "--journal", str(journal),
            "--telemetry", "--slo", str(slo), "--report", str(report_path),
        ])
        assert rc == 5
        assert "SLO violated" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == [
            "batch.journal", "jobs.jsonl", "report.json", "slo.json",
        ]
        record = json.loads(report_path.read_text())
        assert record["slo_thresholds"] == {"max_job_p50_s": 0.0}
        assert [v["stat"] for v in record["slo_violations"]] == ["job_p50_s"]
        assert record["slo_summary"]["n_executed"] == 1
        done = [r for r in read_records(journal)[0] if r["event"] == "done"]
        assert done[0]["payload"]["_telemetry"]["trace"]["name"] == (
            "serve.worker.job"
        )


# ---------------------------------------------------------------------------
# End-to-end: telemetry-enabled batch
# ---------------------------------------------------------------------------

class TestBatchTelemetry:
    @pytest.fixture()
    def run(self):
        with BatchServer(
            workers=2, runner=digest_runner, telemetry=True,
        ) as server:
            return server.run_batch(_jobs(5))

    def test_stream_holds_the_whole_job_lifecycle(self, tmp_path):
        # The journal is the one durable serve stream.  Before its
        # checkpoint compaction it holds every job's submission, dispatch
        # (with a wall-clock t) and outcome (with t, run time and pid).
        path = tmp_path / "batch.journal"
        with BatchServer(workers=2, runner=digest_runner, telemetry=True,
                         journal=Journal(path, fsync=False)) as server:
            for job in _jobs(5):
                server.submit(job)
            server.drain()
            records, corrupt = read_records(path)
        assert corrupt == []
        by_event: dict[str, list[dict]] = {}
        for record in records:
            by_event.setdefault(record["event"], []).append(record)
        assert sorted(by_event) == ["done", "started", "submitted"]
        assert {r["job_id"] for r in by_event["done"]} == {
            f"j{i}" for i in range(5)
        }
        assert len(by_event["started"]) == 5
        assert all(r["t"] > 0 for r in by_event["started"])
        for done in by_event["done"]:
            assert done["t"] >= min(r["t"] for r in by_event["started"])
            assert done["run_s"] > 0
            assert done["worker_pid"] > 0
            assert "attempt_log" not in done  # only retried jobs carry one
        assert [r["seq"] for r in records] == list(range(1, 16))

    def test_results_carry_cross_process_traces(self, run):
        report = run
        for result in report.results:
            names = [child["name"] for child in result.trace["children"]]
            assert names[0] == "serve.queue"
            assert "serve.attempt" in names
            attempt = next(
                c for c in result.trace["children"]
                if c["name"] == "serve.attempt"
            )
            # The worker-captured tree is grafted under the final attempt.
            grafted = [c["name"] for c in attempt["children"]]
            assert grafted == ["serve.worker.job"]
            assert attempt["attributes"]["worker_pid"] > 0

    def test_worker_metrics_merge_into_the_parent_registry(self):
        registry = obs_metrics.registry()
        before = registry.snapshot()
        with BatchServer(
            workers=2, runner=digest_runner, telemetry=True,
        ) as server:
            server.run_batch(_jobs(3))
        delta = diff_snapshots(before, registry.snapshot())
        # The counter only workers bump reached this process via the
        # payload's metrics delta — the cross-process export path.
        assert delta["counters"].get("workload.digest_jobs") == 3.0

    def test_slo_report_lands_in_the_batch_report(self, run):
        report = dataclasses.replace(
            run, slo=SloPolicy({"max_dead_letter_rate": 0.0}).judge(run)
        )
        assert report.slo is not None
        assert report.slo_violations == []
        record = report.to_dict()
        assert record["slo_violations"] == []
        assert record["slo_thresholds"] == {"max_dead_letter_rate": 0.0}
        assert record["slo_summary"]["n_jobs"] == 5
        assert record["slo_summary"]["cold_start_fraction"] > 0

    @pytest.mark.slow
    def test_telemetry_off_outputs_are_bit_identical(self):
        # The millisecond runner, then the real pipeline on short captures.
        for runner, jobs in (
            (digest_runner, _jobs(4)),
            (execute_job, _jobs(2, **CASE_CONFIG)),
        ):
            with BatchServer(workers=2, runner=runner) as server:
                plain = server.run_batch(jobs)
            with BatchServer(workers=2, runner=runner,
                             telemetry=True) as server:
                traced = server.run_batch(jobs)
            # Same deterministic results either way...
            assert plain.counts == {"ok": len(jobs)}
            assert [r.deterministic() for r in plain.results] == [
                r.deterministic() for r in traced.results
            ]
            # ...and the telemetry-off report exposes none of the new keys.
            record = json.dumps(plain.to_dict(), sort_keys=True, default=str)
            assert "slo_" not in record
            assert '"trace"' not in record
            assert plain.slo is None and plain.slo_violations == []

    def test_slo_without_telemetry_path_still_judges(self):
        # SLO statistics come from the report: no telemetry needed.
        with BatchServer(workers=1, runner=digest_runner) as server:
            report = server.run_batch(_jobs(2))
        verdict = SloPolicy({"max_job_p50_s": -1.0}).judge(report)
        assert [v["stat"] for v in verdict["violations"]] == ["job_p50_s"]
        assert math.isnan(verdict["summary"]["cold_start_fraction"])

    @pytest.mark.parametrize("telemetry", [False, True])
    def test_journal_appends_per_job_are_pinned(self, tmp_path, telemetry):
        # A retry-free batch appends submitted + started + one terminal
        # record per job; the checkpoint rewrites rather than appends.
        # Timing fields ride on those records, adding none.
        appends = obs_metrics.counter("serve.journal.appends")
        checkpoints = obs_metrics.counter("serve.journal.checkpoints")
        before = appends.value, checkpoints.value
        with BatchServer(workers=2, runner=digest_runner, telemetry=telemetry,
                         journal=Journal(tmp_path / "j", fsync=False)) as server:
            report = server.run_batch(_jobs(6))
        assert report.counts == {"ok": 6}
        assert appends.value - before[0] == 3 * 6
        assert checkpoints.value - before[1] == 1
        assert os.listdir(tmp_path) == ["j"]

    def test_a_path_is_refused_and_none_turns_capture_on(self, tmp_path):
        # perfbench passes ServeTelemetry(None): capture on, no stream.
        with pytest.raises(ReproError, match="--journal"):
            ServeTelemetry(tmp_path / "t.jsonl")
        with pytest.raises(ReproError, match="--journal"):
            BatchServer(workers=1, runner=digest_runner,
                        telemetry=str(tmp_path / "t.jsonl"))
        with BatchServer(workers=1, runner=digest_runner,
                         telemetry=ServeTelemetry(None)) as server:
            report = server.run_batch(_jobs(1))
        assert report.results[0].trace["name"] == "serve.job"
        assert os.listdir(tmp_path) == []


# ---------------------------------------------------------------------------
# Timeline rendering
# ---------------------------------------------------------------------------

class TestGantt:
    def test_bars_marks_and_axis(self):
        text = gantt(
            [("pid 1", [(0.0, 4.0, "█")], [(2.0, "K")]),
             ("pid 2", [(4.0, 8.0, "░")], [])],
            0.0, 8.0, width=20,
        )
        lines = text.splitlines()
        assert lines[0].startswith("pid 1 |")
        assert "K" in lines[0]
        assert "░" in lines[1]
        assert "+8.00s" in lines[-1]

    def test_open_bar_extends_to_the_window_edge(self):
        text = gantt([("w", [(5.0, None, "─")], [])], 0.0, 8.0, width=20)
        assert text.splitlines()[0].rstrip("|").endswith("─")

    def test_rejects_degenerate_input(self):
        with pytest.raises(SignalError):
            gantt([], 0.0, 1.0)
        with pytest.raises(SignalError):
            gantt([("w", [], [])], 1.0, 1.0)
        with pytest.raises(SignalError):
            gantt([("w", [], [])], 0.0, 1.0, width=4)


def _timeline(capsys, *argv) -> tuple[int, str]:
    from repro.cli import main

    rc = main(["timeline", *map(str, argv)])
    return rc, capsys.readouterr().out


def _lane_rows(text: str) -> list[str]:
    """The Gantt's lane rows (the legend also shows every glyph)."""
    return [line for line in text.splitlines() if " |" in line]


class TestJournalTimeline:
    def test_pairs_started_with_outcomes_and_flags_open(self, tmp_path, capsys):
        # A started record with no terminal record is a job the journal
        # stopped on: it draws as an open bar in the unknown-pid lane.
        path = tmp_path / "victim.journal"
        with Journal(path, fsync=False) as journal:
            journal.append("started", spec_key="a", t=100.0)
            journal.append("done", spec_key="a", job_id="a", status="ok",
                           payload={}, attempts=1, t=101.0, run_s=0.8,
                           worker_pid=11)
            journal.append("started", spec_key="b", t=101.5)
        rc, text = _timeline(capsys, path, "--width", 20)
        assert rc == 0
        assert "1 jobs, 1 attempts, 1 open" in text
        rows = {row.split("|")[0].strip(): row for row in _lane_rows(text)}
        assert "█" in rows["pid 11"] and "─" not in rows["pid 11"]
        assert rows["pid ?"].rstrip("|").endswith("─")

    def test_checkpoint_keeps_the_open_bar_start(self, tmp_path, capsys):
        # Compaction rewrites an unfinished job's started record with its
        # t, so the open bar still starts where the job was dispatched.
        path = tmp_path / "j.journal"
        with Journal(path, fsync=False) as journal:
            journal.append("submitted", spec_key="a", job_id="a")
            journal.append("submitted", spec_key="b", job_id="b")
            journal.append("started", spec_key="b", t=100.0)
            journal.append("done", spec_key="a", job_id="a", status="ok",
                           payload={}, attempts=1, t=101.0, run_s=0.5,
                           worker_pid=11)
            journal.checkpoint()
        assert replay_journal(path).started == {"b": 100.0}
        rc, text = _timeline(capsys, path)
        assert rc == 0
        assert "1 jobs, 1 attempts, 1 open, 1.00 s window" in text

    def test_retried_job_draws_every_attempt(self, tmp_path, capsys):
        path = tmp_path / "j.journal"
        log = [
            {"start_t": 0.0, "end_t": 1.0, "status": "crashed",
             "worker_pid": None, "backoff_s": 0.5},
            {"start_t": 1.5, "end_t": 3.0, "status": "ok", "worker_pid": 7},
        ]
        with Journal(path, fsync=False) as journal:
            journal.append("started", spec_key="a", t=0.0)
            journal.append("done", spec_key="a", job_id="a", status="ok",
                           payload={}, attempts=2, t=3.0, run_s=1.5,
                           worker_pid=7, attempt_log=log)
            journal.append("failed", spec_key="p", job_id="p",
                           status="failed", classification="permanent",
                           error="boom", attempts=1, t=3.0, run_s=0.1,
                           worker_pid=7)
        rc, text = _timeline(capsys, path, "--width", 30)
        assert rc == 0
        assert "2 jobs, 3 attempts, 0 open" in text
        rows = {row.split("|")[0].strip(): row for row in _lane_rows(text)}
        assert "░" in rows["pid ?"]
        assert "█" in rows["pid 7"] and "▓" in rows["pid 7"]
        assert "r" in rows["server"] and "D" in rows["server"]

    def test_torn_final_line_is_tolerated(self, tmp_path, capsys):
        # A SIGKILL mid-append leaves a torn line: skipped and counted,
        # never quarantined by a read-only render.
        path = tmp_path / "j.journal"
        with Journal(path, fsync=False) as journal:
            journal.append("started", spec_key="a", t=5.0)
        with open(path, "a") as handle:
            handle.write('{"event": "do')
        rc, text = _timeline(capsys, path)
        assert rc == 0
        assert "1 open" in text and "1 corrupt lines skipped" in text
        assert sorted(os.listdir(tmp_path)) == ["j.journal"]


class TestTimelineCli:
    def test_renders_gantt_and_critical_path(self, tmp_path, capsys):
        # A real batch (compacted by its checkpoint) renders: its done
        # records alone carry the bars, its payloads the worker trees.
        path = tmp_path / "batch.journal"
        with BatchServer(workers=2, runner=digest_runner, telemetry=True,
                         journal=Journal(path, fsync=False)) as server:
            server.run_batch(_jobs(4))
        out_path = tmp_path / "timeline.txt"
        rc, text = _timeline(capsys, path, "--output", out_path)
        assert rc == 0
        assert "4 jobs, 4 attempts, 0 open" in text
        assert "legend:" in text
        assert "pid ?" not in text  # worker pids come home with telemetry
        assert "critical path (span self-time over 4 traces)" in text
        assert "serve.worker.job" in text
        assert out_path.read_text().strip() in text

    def test_telemetry_off_batch_names_every_worker(self, tmp_path, capsys):
        # Without telemetry or a watchdog the pool's worker shim still
        # reports the pid of every attempt, a failing one included.
        path = tmp_path / "batch.journal"
        jobs = _jobs(3) + [Job(job_id="bad", subject_seed=9, fault=FAILING_FAULT)]
        with BatchServer(workers=2, runner=digest_runner,
                         journal=Journal(path, fsync=False)) as server:
            report = server.run_batch(jobs)
        assert report.counts == {"ok": 3, "failed": 1}
        records, _ = read_records(path)
        terminal = [r for r in records if r["event"] in ("done", "failed")]
        assert len(terminal) == 4
        assert all(r["worker_pid"] > 0 for r in terminal)
        rc, text = _timeline(capsys, path)
        assert rc == 0
        assert "pid ?" not in text

    def test_empty_or_missing_stream_is_a_usage_error(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["timeline", str(tmp_path / "nope.journal")]) == 2
        empty = tmp_path / "empty.journal"
        empty.write_text("")
        assert main(["timeline", str(empty)]) == 2
        # A journal without timestamps (a checkpoint header only) too.
        with Journal(tmp_path / "old.journal", fsync=False) as journal:
            journal.checkpoint()
        assert main(["timeline", str(tmp_path / "old.journal")]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags", [("--width", "7"), ("--width", "0"), ("--top", "0"),
                  ("--width", "x")],
    )
    def test_out_of_range_arguments_exit_2(self, tmp_path, capsys, flags):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["timeline", str(tmp_path / "j.journal"), *flags])
        assert exit_info.value.code == 2
        assert flags[0] in capsys.readouterr().err


class TestSelfDurations:
    def test_self_time_subtracts_children(self):
        root = Span("root")
        root.duration_s = 10.0
        child = Span("child")
        child.duration_s = 4.0
        grand = Span("grand")
        grand.duration_s = 6.0  # longer than parent: clamps to zero
        child.children = [grand]
        root.children = [child]
        totals = self_durations(root)
        assert totals["root"] == pytest.approx(6.0)
        assert totals["child"] == pytest.approx(0.0)
        assert totals["grand"] == pytest.approx(6.0)


def _emitted_serve_metrics() -> set[str]:
    """Every ``serve.*`` metric name the serve package emits.

    Each ``obs_metrics.counter/gauge/histogram("serve....")`` literal; an
    f-string family comes back as its pattern, e.g. ``serve.jobs_<status>``.
    """
    import ast
    import pathlib

    import repro.serve

    def names(node):
        if isinstance(node, ast.JoinedStr):
            yield "".join(
                part.value if isinstance(part, ast.Constant)
                else f"<{ast.unparse(part.value)}>"
                for part in node.values
            )
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value
        else:
            for child in ast.iter_child_nodes(node):
                yield from names(child)

    emitted: set[str] = set()
    package = pathlib.Path(repro.serve.__file__).parent
    for source in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(source.read_text())):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("counter", "gauge", "histogram")
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "obs_metrics"
                and node.args
            ):
                emitted.update(
                    name for name in names(node.args[0])
                    if name.startswith("serve.")
                )
    return emitted


def _observability_doc() -> str:
    import pathlib

    return (
        pathlib.Path(__file__).resolve().parents[1]
        / "docs" / "OBSERVABILITY.md"
    ).read_text()


class TestServeMetricDocs:
    def test_every_serve_metric_is_documented(self):
        # Every serve metric the code emits appears in docs/OBSERVABILITY.md;
        # an f-string family appears as its pattern, e.g. serve.jobs_<status>.
        emitted = _emitted_serve_metrics()
        assert len(emitted) > 30  # the scan found the serve metrics
        assert "serve.rejected" not in emitted  # submit turns no job away
        docs = _observability_doc()
        missing = sorted(name for name in emitted if f"`{name}`" not in docs)
        assert missing == []

    def test_every_documented_serve_metric_is_emitted(self):
        # The other direction: every `serve.*` name in the doc's metric
        # table rows is emitted, or is an instance of an emitted family
        # listed in that family's own row (serve.jobs_ok in the
        # serve.jobs_<status> row).  A name with a row of its own must be
        # emitted as written.  Span names live in prose, not in these rows.
        import re

        emitted = _emitted_serve_metrics()

        def family(name: str) -> re.Pattern:
            parts = re.split(r"(<[^>]*>)", name)
            return re.compile("".join(
                r"\w+" if part.startswith("<") else re.escape(part)
                for part in parts
            ) + "$")

        rows = [
            re.findall(r"`(serve\.[^`]+)`", line)
            for line in _observability_doc().splitlines()
            if line.startswith("| `serve.")
        ]
        assert sum(map(len, rows)) > 30  # the scan found the metric rows
        stale = []
        for names in rows:
            families = [family(n) for n in names if "<" in n and n in emitted]
            stale.extend(
                name for name in names
                if name not in emitted
                and not any(f.match(name) for f in families)
            )
        assert sorted(stale) == []
