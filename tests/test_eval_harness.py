"""Light-configuration smoke tests of the experiment harnesses.

tests/test_paper_claims.py runs the full paper-scale experiments; these tests
run scaled-down configurations to validate harness structure and invariants
quickly.
"""

import numpy as np
import pytest

from repro.eval.common import (
    _cohort_workers,
    cdf_points,
    format_table,
    get_cohort,
    measured_ground_truth_table,
)
from repro.eval.groundwork import fig2_pinna_correlation, fig5_diffraction_evidence
from repro.eval.channels import fig9_channel_response, fig14_relative_channel
from repro.eval.hardware import fig16_frequency_response
from repro.hrtf.metrics import mean_table_correlation
from repro.hrtf.reference import ground_truth_table


class TestCommonHelpers:
    def test_cdf_points(self):
        values, probs = cdf_points(np.array([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(values, [1.0, 2.0, 3.0])
        np.testing.assert_allclose(probs, [1 / 3, 2 / 3, 1.0])

    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1.0], ["bb", 2.5]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "value" in lines[0]
        assert all(len(line) == len(lines[0]) for line in lines[1:])

    def test_measured_ground_truth_close_to_exact(self, subject):
        angles = np.array([30.0, 60.0, 90.0])
        exact = ground_truth_table(subject, angles)
        remeasured = measured_ground_truth_table(subject, angles, seed=3)
        c_left, c_right = mean_table_correlation(remeasured, exact)
        assert c_left > 0.8
        assert c_right > 0.8

    def test_measured_ground_truth_not_exact(self, subject):
        """Noise keeps the re-measurement below a perfect correlation."""
        angles = np.array([30.0, 60.0])
        exact = ground_truth_table(subject, angles)
        remeasured = measured_ground_truth_table(
            subject, angles, seed=3, noise_std=0.05
        )
        c_left, _ = mean_table_correlation(remeasured, exact)
        assert c_left < 0.999


class TestCohortWorkers:
    def test_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_COHORT_WORKERS", "8")
        assert _cohort_workers(2, n=5) == 2

    def test_env_opt_out_forces_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_COHORT_WORKERS", "1")
        assert _cohort_workers(None, n=5) == 1
        monkeypatch.setenv("REPRO_COHORT_WORKERS", "0")
        assert _cohort_workers(None, n=5) == 1

    def test_capped_by_cohort_size(self, monkeypatch):
        monkeypatch.delenv("REPRO_COHORT_WORKERS", raising=False)
        assert _cohort_workers(64, n=3) == 3

    def test_non_integer_env_warns_and_falls_back(self, monkeypatch, caplog):
        """``REPRO_COHORT_WORKERS=auto`` (or any typo) must not crash the
        evaluation: warn, count, fall back to the cpu-count default."""
        import logging
        import os

        from repro.obs import metrics as obs_metrics

        monkeypatch.setenv("REPRO_COHORT_WORKERS", "auto")
        counter = obs_metrics.counter("cohort.workers_env_invalid")
        before = counter.value
        with caplog.at_level(logging.WARNING, logger="repro.eval.common"):
            resolved = _cohort_workers(None, n=64)
        assert resolved == max(1, min(os.cpu_count() or 1, 64))
        assert counter.value - before == 1
        assert any(
            "cohort.workers_env_invalid" in r.message for r in caplog.records
        )


class TestParallelCohort:
    def test_parallel_bit_identical_to_serial(self):
        """Worker processes must not change a single bit of any member."""
        serial = get_cohort(2, 1.1, workers=1)
        parallel = get_cohort(2, 1.1, workers=2)
        assert len(serial) == len(parallel) == 2
        for ms, mp_ in zip(serial.members, parallel.members):
            assert ms.subject.name == mp_.subject.name
            fs_, fp = ms.personalization.fusion, mp_.personalization.fusion
            assert fs_.head.parameters == fp.head.parameters
            assert fs_.gyro_bias_dps == fp.gyro_bias_dps
            np.testing.assert_array_equal(fs_.radii_m, fp.radii_m)
            np.testing.assert_array_equal(
                fs_.fused_angles_deg, fp.fused_angles_deg
            )
            for table_s, table_p in (
                (ms.personalization.table, mp_.personalization.table),
                (ms.ground_truth, mp_.ground_truth),
            ):
                for es, ep in zip(table_s.far, table_p.far):
                    np.testing.assert_array_equal(es.left, ep.left)
                    np.testing.assert_array_equal(es.right, ep.right)
                for es, ep in zip(table_s.near, table_p.near):
                    np.testing.assert_array_equal(es.left, ep.left)
                    np.testing.assert_array_equal(es.right, ep.right)


class TestGroundworkHarness:
    def test_fig2_small_grid(self):
        result = fig2_pinna_correlation(angle_step_deg=45.0)
        n = result.angles_deg.shape[0]
        assert result.same_user.shape == (n, n)
        assert result.cross_user.shape == (n, n)
        # Self-measurement repeats correlate near 1 on the diagonal.
        assert result.same_user.diagonal().mean() > 0.85
        # Cross-user diagonal is clearly lower.
        assert result.cross_user_diagonal_mean < 0.8

    def test_fig5_diffraction_wins(self):
        result = fig5_diffraction_evidence(n_mic_positions=4)
        assert result.rms_error_diffracted_cm < result.rms_error_euclidean_cm
        # The measured curve grows with mic position (deeper shadow).
        assert np.all(np.diff(result.measured_delta_d_cm) > 0)


class TestChannelHarness:
    def test_fig9_taps_on_truth(self):
        result = fig9_channel_response()
        err_left, err_right = result.first_tap_error_samples
        assert err_left < 3.0 and err_right < 3.0
        assert result.tap_count_left >= 2

    def test_fig14_multiple_peaks(self):
        result = fig14_relative_channel()
        assert result.n_peaks >= 2
        assert abs(result.strongest_peak_ms - result.true_itd_ms) < 0.2


class TestHardwareHarness:
    def test_fig16_shape(self):
        result = fig16_frequency_response()
        assert result.low_band_std_db > result.mid_band_std_db
        assert result.measurement_rms_error_db < 3.0
