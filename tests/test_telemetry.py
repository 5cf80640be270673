"""Serve telemetry tests: span export, flight recorder, SLO gate, timeline.

The cross-process tentpole is exercised end to end with the millisecond
runners from :mod:`repro.testing.workloads`: a telemetry-enabled batch must
produce a causally-complete trace per job (server-side submit → queue →
attempt spans with the worker-captured tree grafted under the final
attempt), a replayable flight-recorder stream, merged worker metrics, and
an SLO verdict — while a telemetry-off batch stays bit-identical to the
pre-telemetry outputs.
"""

from __future__ import annotations

import json
import os
import threading

import pytest
from hypothesis import given, strategies as st

from repro.errors import ReproError, SignalError
from repro.ioutil import JsonlAppender
from repro.obs import metrics as obs_metrics
from repro.obs.metrics import Counter, MetricsRegistry, diff_snapshots
from repro.obs.report import self_durations
from repro.obs.trace import Span
from repro.serve import BatchServer, Job
from repro.serve.telemetry import (
    FlightRecorder,
    ServeTelemetry,
    SloPolicy,
    SloTracker,
    iter_attempt_bars,
    read_events,
)
from repro.serve.worker import execute_job
from repro.testing.golden import CASE_CONFIG
from repro.testing.workloads import digest_runner
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
# Flight recorder
# ---------------------------------------------------------------------------

class TestFlightRecorder:
    def test_events_round_trip_with_seq_and_t(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with FlightRecorder(path) as recorder:
            recorder.record("enqueue", job_id="a", queue_depth=1)
            recorder.record("dispatch", job_id="a")
        events = read_events(path)
        assert [e["event"] for e in events] == ["enqueue", "dispatch"]
        assert [e["seq"] for e in events] == [1, 2]
        assert all(e["t"] > 0 for e in events)

    def test_torn_final_line_is_tolerated(self, tmp_path):
        path = tmp_path / "t.jsonl"
        with FlightRecorder(path) as recorder:
            recorder.record("enqueue", job_id="a")
        with open(path, "a") as handle:
            handle.write('{"event": "dispa')  # crash mid-append
        assert [e["event"] for e in read_events(path)] == ["enqueue"]

    def test_rollup_snapshot_is_written(self, tmp_path):
        path = tmp_path / "t.jsonl"
        recorder = FlightRecorder(path, rollup_every=2)
        recorder.record("enqueue")
        assert not recorder.due_for_rollup()
        recorder.record("dispatch")
        assert recorder.due_for_rollup()
        recorder.close({"extra": 1})
        rollup = json.loads((tmp_path / "t.jsonl.rollup.json").read_text())
        assert rollup["n_events"] == 2
        assert rollup["by_event"] == {"dispatch": 1, "enqueue": 1}
        assert rollup["summary"] == {"extra": 1}

    def test_appender_refuses_after_close(self, tmp_path):
        appender = JsonlAppender(tmp_path / "a.jsonl")
        appender.append({"x": 1})
        appender.close()
        with pytest.raises(ValueError):
            appender.append({"x": 2})


# ---------------------------------------------------------------------------
# SLO tracker and policy
# ---------------------------------------------------------------------------

def _done(job_id: str, t: float, run_s: float = 0.1, **kw) -> dict:
    record = {"event": "done", "job_id": job_id, "t": t, "status": "ok",
              "attempts": 1, "queue_wait_s": 0.01, "run_s": run_s}
    record.update(kw)
    return record


class TestSloTracker:
    def test_stats_over_a_synthetic_stream(self):
        tracker = SloTracker()
        tracker.observe({"event": "enqueue", "t": 0.0, "queue_depth": 2})
        tracker.observe({"event": "enqueue", "t": 0.1, "queue_depth": 4})
        tracker.observe({"event": "dispatch", "t": 0.2, "queue_wait_s": 0.2})
        tracker.observe(_done("a", 1.0, run_s=0.5, cold_start=True))
        tracker.observe(_done("b", 2.0, run_s=1.5, attempts=3,
                              cold_start=False))
        tracker.observe({"event": "done", "job_id": "c", "t": 2.5,
                         "status": "failed", "attempts": 1, "run_s": 0.1})
        tracker.observe({"event": "dead_letter", "job_id": "c", "t": 2.5})
        stats = tracker.stats()
        assert stats["n_jobs"] == 3
        assert stats["counts"] == {"failed": 1, "ok": 2}
        assert stats["queue_depth_peak"] == 4
        assert stats["job_p50_s"] == pytest.approx(1.0)
        assert stats["retry_rate"] == pytest.approx(1 / 3)
        assert stats["dead_letter_rate"] == pytest.approx(1 / 3)
        assert stats["cold_start_fraction"] == pytest.approx(0.5)
        assert stats["throughput_jobs_per_s"] == pytest.approx(3 / 2.5)

    def test_replayed_jobs_do_not_pollute_latency(self):
        tracker = SloTracker()
        tracker.observe(_done("replayed", 1.0, attempts=0, run_s=0.0))
        stats = tracker.stats()
        assert stats["n_jobs"] == 1
        assert stats["n_executed"] == 0


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

    def test_json_file_round_trip(self, tmp_path):
        path = tmp_path / "slo.json"
        path.write_text('{"max_retry_rate": 0.25}\n')
        policy = SloPolicy.from_json_file(path)
        assert policy.thresholds == {"max_retry_rate": 0.25}


# ---------------------------------------------------------------------------
# End-to-end: telemetry-enabled batch
# ---------------------------------------------------------------------------

class TestBatchTelemetry:
    @pytest.fixture()
    def run(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        with BatchServer(
            workers=2, runner=digest_runner, telemetry=path,
            slo={"max_dead_letter_rate": 0.0},
        ) as server:
            report = server.run_batch(_jobs(5))
        return report, path

    def test_stream_holds_the_whole_job_lifecycle(self, run):
        report, path = run
        events = read_events(path)
        kinds = {e["event"] for e in events}
        assert {"batch_start", "enqueue", "dispatch", "attempt_start",
                "attempt_end", "done", "batch_done"} <= kinds
        done = [e for e in events if e["event"] == "done"]
        assert {e["job_id"] for e in done} == {f"j{i}" for i in range(5)}
        assert report.counts == {"ok": 5}

    def test_results_carry_cross_process_traces(self, run):
        report, _ = run
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

    def test_worker_metrics_merge_into_the_parent_registry(self, tmp_path):
        registry = obs_metrics.registry()
        before = registry.snapshot()
        with BatchServer(
            workers=2, runner=digest_runner,
            telemetry=tmp_path / "t.jsonl",
        ) as server:
            server.run_batch(_jobs(3))
        delta = diff_snapshots(before, registry.snapshot())
        # The counter only workers bump reached this process via the
        # payload's metrics delta — the cross-process export path.
        assert delta["counters"].get("workload.digest_jobs") == 3.0

    def test_slo_report_lands_in_the_batch_report(self, run):
        report, _ = run
        assert report.slo is not None
        assert report.slo_violations == []
        record = report.to_dict()
        assert record["slo_violations"] == []
        assert record["slo_summary"]["n_jobs"] == 5

    @pytest.mark.slow
    def test_telemetry_off_outputs_are_bit_identical(self, tmp_path):
        # The millisecond runner, then the real pipeline on short captures.
        for runner, jobs in (
            (digest_runner, _jobs(4)),
            (execute_job, _jobs(2, **CASE_CONFIG)),
        ):
            with BatchServer(workers=2, runner=runner) as server:
                plain = server.run_batch(jobs)
            with BatchServer(
                workers=2, runner=runner,
                telemetry=tmp_path / f"{runner.__name__}.jsonl",
            ) as server:
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
        with BatchServer(
            workers=1, runner=digest_runner,
            slo={"max_queue_depth_peak": -1.0},
        ) as server:
            report = server.run_batch(_jobs(2))
        assert report.slo_violations  # depth >= 0 > -1 by construction


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


class TestIterAttemptBars:
    def test_pairs_starts_with_ends_and_flags_open(self):
        events = [
            {"event": "attempt_start", "event_key": "a", "attempt": 1, "t": 0.0},
            {"event": "attempt_end", "event_key": "a", "attempt": 1, "t": 1.0,
             "status": "crashed", "worker_pid": 11},
            {"event": "attempt_start", "event_key": "a", "attempt": 2, "t": 2.0},
        ]
        bars = list(iter_attempt_bars(events))
        assert bars[0]["status"] == "crashed" and bars[0]["end_t"] == 1.0
        assert bars[1]["status"] == "open" and bars[1]["end_t"] is None


class TestTimelineCli:
    def test_renders_gantt_critical_path_and_slo(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "telemetry.jsonl"
        with BatchServer(
            workers=2, runner=digest_runner, telemetry=path
        ) as server:
            server.run_batch(_jobs(4))
        out_path = tmp_path / "timeline.txt"
        rc = main(["timeline", str(path), "--output", str(out_path)])
        printed = capsys.readouterr().out
        assert rc == 0
        assert "legend:" in printed
        assert "pid " in printed
        assert "critical path" in printed
        assert "slo stats" in printed
        assert out_path.read_text().strip() in printed

    def test_empty_or_missing_stream_is_a_usage_error(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["timeline", str(tmp_path / "nope.jsonl")]) == 2
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["timeline", str(empty)]) == 2
        assert "error" in capsys.readouterr().err


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
