"""Quality-gating tests: preflight, sentinels, salvage, confidence, serve.

The contract under test (docs/ROBUSTNESS.md): a clean capture scores
confidence 1.0 with zero flags; every registered fault either lowers
confidence below that baseline with at least one stage-attributed
:class:`QualityFlag`, or raises a typed :class:`ReproError` — never silent
garbage.  The fault matrix below is asserted to cover the *whole*
``repro.testing.faults.FAULTS`` registry, so adding a fault without a
matrix entry fails this suite.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError, SignalError
from repro.quality import (
    STAGES,
    QualityCollector,
    QualityFlag,
    QualityReport,
    combine_components,
    degradation_score,
    fitness_score,
    preflight,
)
from repro.core.pipeline import personalize_capture
from repro.simulation.person import VirtualSubject
from repro.simulation.session import MeasurementSession, ProbeMeasurement
from repro.testing.faults import (
    FAULTS,
    PROCESS_FAULTS,
    apply_fault,
    clipped,
    zeroed,
)

#: The golden-case configuration — small grid, sparse probes — shared with
#: tests/test_serve.py so the delay-map caches stay warm across the suite.
FAST = {"probe_interval_s": 0.6, "angle_step_deg": 15.0}

#: Fault name -> kwargs builder (given the peak probe amplitude).  The
#: severities are calibrated so each fault clearly leaves the clean-capture
#: envelope on the base session: either confidence drops with flags, or the
#: pipeline raises a typed error.
FAULT_MATRIX = {
    "clipped": lambda peak: {"level": 0.2 * peak},
    "dropout": lambda peak: {"keep_every": 3},
    "mic_noise": lambda peak: {"std": 0.6},
    "reverberant_room": lambda peak: {"rt60_s": 0.9, "wet_level": 1.6},
    "noisy_reverberant": lambda peak: {"rt60_s": 0.9, "std": 0.3},
    "zeroed": lambda peak: {},
    "gyro_saturation": lambda peak: {"limit_dps": 6.0},
    "gyro_dropout": lambda peak: {"start_frac": 0.25, "duration_frac": 0.3},
    "gyro_bias_drift": lambda peak: {"drift_dps_per_s": 1.0},
    "clock_skew": lambda peak: {"skew": 0.2},
    "synthetic-failure": lambda peak: {},
}


@pytest.fixture(scope="module")
def base_session():
    """The golden-case capture: subject 1, session 0, sparse probes."""
    subject = VirtualSubject.random(1)
    return MeasurementSession(
        subject, seed=0, probe_interval_s=FAST["probe_interval_s"]
    ).run()


@pytest.fixture(scope="module")
def clean_result(base_session):
    _, result = personalize_capture(
        1, 0, angle_step_deg=FAST["angle_step_deg"], session=base_session
    )
    return result


def _peak(session) -> float:
    return max(float(np.max(np.abs(p.left))) for p in session.probes)


def _personalize(session):
    _, result = personalize_capture(
        1, 0, angle_step_deg=FAST["angle_step_deg"], session=session
    )
    return result


class TestScoreMaps:
    def test_degradation_score_shape(self):
        assert degradation_score(0.0, 1.0, 2.0) == 1.0
        assert degradation_score(1.0, 1.0, 2.0) == 1.0
        assert degradation_score(1.5, 1.0, 2.0) == pytest.approx(0.5)
        assert degradation_score(2.0, 1.0, 2.0) == 0.0
        assert degradation_score(99.0, 1.0, 2.0) == 0.0

    def test_fitness_score_shape(self):
        assert fitness_score(10.0, 2.0, 8.0) == 1.0
        assert fitness_score(8.0, 2.0, 8.0) == 1.0
        assert fitness_score(5.0, 2.0, 8.0) == pytest.approx(0.5)
        assert fitness_score(2.0, 2.0, 8.0) == 0.0
        assert fitness_score(-10.0, 2.0, 8.0) == 0.0

    def test_score_maps_reject_inverted_thresholds(self):
        with pytest.raises(ValueError):
            degradation_score(0.5, 2.0, 1.0)
        with pytest.raises(ValueError):
            fitness_score(0.5, 8.0, 2.0)

    def test_combine_is_product_and_clamped(self):
        assert combine_components({}) == 1.0
        assert combine_components({"a.x": 0.5, "a.y": 0.5}) == pytest.approx(0.25)
        assert combine_components({"a.x": 0.0, "a.y": 1.0}) == 0.0
        assert combine_components({"a.x": 7.0}) == 1.0  # clamped


class TestFlagsAndCollector:
    def test_flag_validates_stage_and_severity(self):
        with pytest.raises(ReproError, match="unknown quality stage"):
            QualityFlag("warp-core", "breach", "warn", "boom")
        with pytest.raises(ReproError, match="unknown severity"):
            QualityFlag("fusion", "residual_high", "catastrophic", "boom")

    def test_flag_round_trips_through_dict(self):
        flag = QualityFlag(
            "preflight", "clipping", "warn", "clip ratio 0.3",
            probe_index=4, value=0.3, threshold=0.005,
        )
        assert QualityFlag.from_dict(flag.to_dict()) == flag
        assert flag.key == "preflight.clipping"

    def test_collector_worst_report_wins(self):
        collector = QualityCollector()
        assert collector.component("fusion.residual", 0.8) == 0.8
        assert collector.component("fusion.residual", 0.95) == 0.8
        assert collector.component("fusion.residual", 0.3) == 0.3

    def test_collector_rejects_unnamespaced_component(self):
        with pytest.raises(ReproError, match="namespaced"):
            QualityCollector().component("residual", 0.5)

    def test_collector_extend_merges_min_wise(self):
        left, right = QualityCollector(), QualityCollector()
        left.component("fusion.residual", 0.9)
        right.component("fusion.residual", 0.4)
        right.flag("fusion", "residual_high", "warn", "high")
        left.extend(right)
        assert left.components["fusion.residual"] == 0.4
        assert [f.key for f in left.flags] == ["fusion.residual_high"]

    def test_report_round_trip_and_stage_table(self):
        collector = QualityCollector()
        collector.component("preflight.snr", 0.5)
        collector.component("fusion.residual", 0.8)
        collector.flag("preflight", "low_snr", "warn", "quiet")
        report = QualityReport(
            confidence=combine_components(collector.components),
            components=collector.components,
            flags=collector.flags,
            salvage={"retried": False},
        )
        again = QualityReport.from_dict(report.to_dict())
        assert again.confidence == report.confidence
        assert again.flags == report.flags
        assert report.worst_component == ("preflight.snr", 0.5)
        rows = {stage: (score, flags) for stage, score, flags in report.stage_table()}
        assert rows["preflight"] == (0.5, "low_snr(warn)")
        assert rows["fusion"] == (0.8, "-")


class TestPreflight:
    def test_clean_capture_scores_one_with_no_flags(self, base_session):
        collector = QualityCollector()
        health = preflight(base_session, collector=collector)
        assert health.score() == 1.0
        assert not collector.flags
        assert bool(np.all(health.weights == 1.0))

    def test_zeroed_capture_is_all_dead(self, small_session):
        health = preflight(zeroed(small_session))
        assert health.n_dead == small_session.n_probes
        assert health.n_usable == 0
        assert bool(np.all(health.weights == 0.0))

    def test_heavy_clipping_downweights_probes(self, small_session):
        session = clipped(small_session, 0.05 * _peak(small_session))
        health = preflight(session)
        assert health.n_suspect > 0
        assert set(np.unique(health.weights)) <= {0.0, 0.25, 1.0}
        assert health.score() < 1.0

    def test_empty_capture_rejected(self, small_session):
        with pytest.raises(SignalError, match="no probe recordings"):
            preflight(replace(small_session, probes=()))


class TestFaultMatrix:
    def test_matrix_covers_the_whole_registry(self):
        # Process-level faults (worker kill/hang/slow start) degrade the
        # executing worker, not the capture; they are covered on a real
        # pool by tests/test_durability.py instead.
        assert set(FAULT_MATRIX) == set(FAULTS) - PROCESS_FAULTS

    @pytest.mark.parametrize("name", sorted(FAULT_MATRIX))
    def test_every_fault_degrades_or_raises(self, name, base_session, clean_result):
        kwargs = FAULT_MATRIX[name](_peak(base_session))
        try:
            result = _personalize(apply_fault(base_session, name, **kwargs))
        except ReproError:
            return  # a typed rejection is an accepted outcome
        assert result.confidence < clean_result.confidence
        assert result.quality.flags, f"{name} degraded without any flag"
        assert all(flag.stage in STAGES for flag in result.quality.flags)
        assert 0.0 <= result.confidence <= 1.0

    def test_clean_baseline_is_perfect(self, clean_result):
        assert clean_result.confidence == 1.0
        assert clean_result.quality.n_flags == 0
        assert clean_result.quality.salvage["retried"] is False

    def test_flags_iff_confidence_below_one(self, base_session, clean_result):
        degraded = _personalize(apply_fault(base_session, "dropout", keep_every=3))
        for result in (clean_result, degraded):
            assert (result.confidence < 1.0) == bool(result.quality.flags)


class TestMonotoneConfidence:
    @given(
        fracs=st.lists(
            st.floats(min_value=0.02, max_value=1.0),
            min_size=2,
            max_size=4,
            unique=True,
        )
    )
    def test_confidence_never_rises_with_clip_severity(self, small_session, fracs):
        """Harder clipping can only lower the capture confidence."""
        peak = _peak(small_session)
        scores = [
            preflight(clipped(small_session, frac * peak)).score()
            for frac in sorted(fracs, reverse=True)
        ]
        for milder, harsher in zip(scores, scores[1:]):
            assert harsher <= milder + 1e-9

    @settings(max_examples=10, deadline=None)
    @given(
        rt60s=st.lists(
            st.floats(min_value=0.2, max_value=1.5),
            min_size=2,
            max_size=3,
            unique=True,
        )
    )
    def test_confidence_never_rises_with_rt60(self, small_session, rt60s):
        """A longer reverberation tail can only lower the capture confidence."""
        scores = [
            preflight(
                apply_fault(
                    small_session, "reverberant_room", rt60_s=rt, wet_level=1.6
                )
            ).score()
            for rt in sorted(rt60s)
        ]
        for milder, harsher in zip(scores, scores[1:]):
            assert harsher <= milder + 1e-9

    @settings(max_examples=10, deadline=None)
    @given(
        stds=st.lists(
            st.floats(min_value=0.01, max_value=0.6),
            min_size=2,
            max_size=3,
            unique=True,
        )
    )
    def test_confidence_never_rises_with_noise_level(self, small_session, stds):
        """A higher broadband noise floor can only lower the confidence."""
        scores = [
            preflight(apply_fault(small_session, "mic_noise", std=std)).score()
            for std in sorted(stds)
        ]
        for milder, harsher in zip(scores, scores[1:]):
            assert harsher <= milder + 1e-9


def _clip_probe_subset(session, count: int, level: float):
    """Clip the first ``count`` probes hard, leave the rest untouched."""
    probes = list(session.probes)
    for i in range(count):
        p = probes[i]
        probes[i] = ProbeMeasurement(
            time=p.time,
            left=np.clip(p.left, -level, level),
            right=np.clip(p.right, -level, level),
        )
    return replace(session, probes=tuple(probes))


class TestProbeSalvage:
    def test_salvage_retry_recovers_a_rejected_solve(self, base_session):
        session = _clip_probe_subset(
            base_session, base_session.n_probes // 2, 0.03 * _peak(base_session)
        )
        result = _personalize(session)
        salvage = result.quality.salvage
        assert salvage["retried"] is True
        assert salvage["downweighted"] is True
        assert salvage["dropped_probes"]
        assert any(
            flag.key == "pipeline.salvage_retry" for flag in result.quality.flags
        )
        assert result.confidence < 1.0


class TestImuFaultHelpers:
    def test_gyro_faults_never_mutate_the_original(self, small_session):
        times = small_session.imu.times.copy()
        rate = small_session.imu.rate_dps.copy()
        apply_fault(small_session, "gyro_saturation", limit_dps=5.0)
        apply_fault(small_session, "gyro_dropout")
        apply_fault(small_session, "gyro_bias_drift", drift_dps_per_s=0.5)
        apply_fault(small_session, "clock_skew", skew=0.1)
        np.testing.assert_array_equal(small_session.imu.times, times)
        np.testing.assert_array_equal(small_session.imu.rate_dps, rate)

    def test_gyro_faults_are_deterministic(self, small_session):
        one = apply_fault(small_session, "gyro_bias_drift", drift_dps_per_s=0.5)
        two = apply_fault(small_session, "gyro_bias_drift", drift_dps_per_s=0.5)
        np.testing.assert_array_equal(one.imu.rate_dps, two.imu.rate_dps)

    def test_gyro_dropout_keeps_timestamps_increasing(self, small_session):
        session = apply_fault(
            small_session, "gyro_dropout", start_frac=0.3, duration_frac=0.2
        )
        assert len(session.imu) < len(small_session.imu)
        assert bool(np.all(np.diff(session.imu.times) > 0))

    def test_invalid_fault_parameters_rejected(self, small_session):
        with pytest.raises(ReproError):
            apply_fault(small_session, "gyro_saturation", limit_dps=-1.0)
        with pytest.raises(ReproError):
            apply_fault(small_session, "clock_skew", skew=-1.5)
        with pytest.raises(ReproError):
            apply_fault(small_session, "gyro_dropout", start_frac=2.0)

    def test_synthetic_failure_always_raises(self, small_session):
        with pytest.raises(ReproError, match="synthetic failure"):
            apply_fault(small_session, "synthetic-failure")


class TestJobFaultValidation:
    """A bad JSONL job must fail at load time, not inside a worker."""

    def test_unknown_fault_rejected_at_construction(self):
        from repro.serve import Job

        with pytest.raises(ReproError, match="unknown fault"):
            Job(job_id="x", subject_seed=1, fault="gremlins")

    def test_misspelled_fault_args_rejected(self):
        from repro.serve import Job

        with pytest.raises(ReproError, match="fault_args"):
            Job(
                job_id="x", subject_seed=1, fault="clipped",
                fault_args={"lvel": 0.2},
            )

    def test_missing_required_fault_args_rejected(self):
        from repro.serve import Job

        with pytest.raises(ReproError, match="fault_args"):
            Job(job_id="x", subject_seed=1, fault="clipped")

    def test_valid_fault_specs_accepted(self):
        from repro.serve import Job

        Job(job_id="a", subject_seed=1, fault="dropout",
            fault_args={"keep_every": 2})
        Job(job_id="b", subject_seed=1, fault="zeroed")
        Job(job_id="c", subject_seed=1, fault="synthetic-failure")

    def test_bad_jsonl_fails_the_whole_file(self, tmp_path):
        from repro.serve import load_jobs

        path = tmp_path / "jobs.jsonl"
        path.write_text(
            '{"job_id": "good", "subject_seed": 1}\n'
            '{"job_id": "bad", "subject_seed": 1, "fault": "gremlins"}\n'
        )
        with pytest.raises(ReproError, match="unknown fault"):
            load_jobs(path)


@pytest.mark.slow
class TestServeQuality:
    """Quality reports flow through the batch service untouched."""

    def test_degraded_job_reports_flags_without_touching_siblings(self):
        from repro.serve import BatchServer, Job, execute_job

        jobs = [
            Job(job_id="healthy-1", subject_seed=1, **FAST),
            Job(job_id="degraded", subject_seed=1, fault="dropout",
                fault_args={"keep_every": 3}, **FAST),
            Job(job_id="healthy-2", subject_seed=7, session_seed=3, **FAST),
        ]
        with BatchServer(workers=2, runner=execute_job) as server:
            report = server.run_batch(jobs)
        by_id = {r.job_id: r for r in report.results}
        assert all(r.ok for r in report.results)

        degraded = by_id["degraded"].payload
        assert degraded["confidence"] < 1.0
        assert degraded["quality"]["flags"]
        assert all(f["stage"] in STAGES for f in degraded["quality"]["flags"])

        # Siblings are bit-identical to running the same spec directly,
        # and their quality is untouched by the corrupted neighbour.
        for job_id, job in (("healthy-1", jobs[0]), ("healthy-2", jobs[2])):
            direct = {
                key: value
                for key, value in execute_job(job.to_dict()).items()
                if not key.startswith("_")
            }
            assert by_id[job_id].deterministic()["payload"] == direct
            assert by_id[job_id].payload["confidence"] == 1.0
            assert by_id[job_id].payload["quality"]["flags"] == []

        summary = report.quality_summary()
        assert summary["graded_jobs"] == 3
        assert summary["flagged_jobs"] == ["degraded"]
        assert summary["min_confidence"] == degraded["confidence"]
        assert (
            summary["min_confidence"]
            <= summary["mean_confidence"]
            <= 1.0
        )
        assert all("." in key for key in summary["flag_counts"])
