"""Integration tests for the end-to-end UNIQ pipeline."""

import numpy as np
import pytest

from repro.errors import CalibrationError
from repro.core.pipeline import PersonalizationResult, Uniq, UniqConfig
from repro.core.compensation import estimate_system_response
from repro.hrtf.metrics import mean_table_correlation
from repro.hrtf.reference import global_template_table, ground_truth_table
from repro.simulation.hardware import SpeakerMicResponse
from repro.simulation.session import MeasurementSession
from repro.signals.waveforms import chirp

GRID = tuple(float(a) for a in range(0, 181, 15))


@pytest.fixture(scope="module")
def result(small_session) -> PersonalizationResult:
    return Uniq(UniqConfig(angle_grid_deg=GRID)).personalize(small_session)


class TestPipelineOutput:
    def test_table_covers_grid(self, result):
        np.testing.assert_array_equal(result.table.angles_deg, GRID)
        assert len(result.table.near) == len(GRID)
        assert len(result.table.far) == len(GRID)

    def test_head_parameters_near_truth(self, result, small_session):
        truth = np.asarray(small_session.truth.subject.head.parameters)
        estimate = np.asarray(result.head_parameters)
        assert np.all(np.abs(estimate - truth) < 0.04)

    def test_measurements_match_probes(self, result, small_session):
        assert len(result.measurements) == small_session.n_probes

    def test_personalization_beats_global(self, result, small_session):
        """The paper's headline: UNIQ closer to truth than the template."""
        subject = small_session.truth.subject
        truth = ground_truth_table(subject, np.asarray(GRID), small_session.fs)
        template = global_template_table(np.asarray(GRID), small_session.fs)
        own = mean_table_correlation(result.table, truth)
        other = mean_table_correlation(template, truth)
        assert sum(own) > sum(other)

    def test_table_is_renderable(self, result):
        left, right = result.table.binauralize(np.ones(256), 47.0)
        assert np.max(np.abs(left)) > 0
        assert np.max(np.abs(right)) > 0


class TestSessionChannelBank:
    def test_deconvolution_happens_once_per_probe_ear(self, small_session):
        """Preflight, fusion and interpolation share the bank: 2*n_probes
        deconvolutions per run; fusion hits the six preflight sentinel reads
        (first, middle, last probe x 2 ears) and interpolation is all hits."""
        from repro.obs import metrics as obs_metrics

        deconv = obs_metrics.counter("channel.bank_deconvolutions")
        hits = obs_metrics.counter("channel.bank_hits")
        d0, h0 = deconv.value, hits.value
        Uniq(UniqConfig(angle_grid_deg=GRID)).personalize(small_session)
        assert deconv.value - d0 == 2 * small_session.n_probes
        assert hits.value - h0 == 2 * small_session.n_probes + 6

    def test_cached_run_numerically_identical(self, small_session):
        """Cold (empty DelayMap cache) and warm runs agree bit-for-bit."""
        from repro.obs import metrics as obs_metrics
        from repro.core.localize import clear_delay_map_cache

        misses = obs_metrics.counter("localize.delay_map_cache_misses")
        hits = obs_metrics.counter("localize.delay_map_cache_hits")
        clear_delay_map_cache()
        uniq = Uniq(UniqConfig(angle_grid_deg=GRID))
        m0 = misses.value
        cold = uniq.personalize(small_session)
        cold_misses = misses.value - m0
        assert cold_misses > 0

        # No store is active, so the warm run searches again, now against
        # the DelayMap cache.
        m0, h0 = misses.value, hits.value
        warm = uniq.personalize(small_session)
        warm_misses = misses.value - m0
        # The warm run replays the same optimizer trajectory out of cache.
        assert hits.value - h0 > 0
        assert warm_misses < cold_misses / 4

        assert cold.fusion.head.parameters == warm.fusion.head.parameters
        assert cold.fusion.gyro_bias_dps == warm.fusion.gyro_bias_dps
        np.testing.assert_array_equal(cold.fusion.radii_m, warm.fusion.radii_m)
        np.testing.assert_array_equal(
            cold.fusion.fused_angles_deg, warm.fusion.fused_angles_deg
        )
        for cold_entry, warm_entry in zip(cold.table.near, warm.table.near):
            np.testing.assert_array_equal(cold_entry.left, warm_entry.left)
            np.testing.assert_array_equal(cold_entry.right, warm_entry.right)
        for cold_entry, warm_entry in zip(cold.table.far, warm.table.far):
            np.testing.assert_array_equal(cold_entry.left, warm_entry.left)
            np.testing.assert_array_equal(cold_entry.right, warm_entry.right)


class TestGestureEnforcement:
    def test_bad_sweep_raises(self, subject):
        """An arm-drop sweep close to the head must be rejected."""
        from repro.geometry.trajectory import hand_motion_trajectory

        rng = np.random.default_rng(31)
        trajectory = hand_motion_trajectory(
            rng,
            radius_mean=0.17,
            radius_wobble=0.02,
            arm_drop_probability=1.0,
            arm_drop_depth=0.4,
        )
        session = MeasurementSession(
            subject, seed=31, trajectory=trajectory, probe_interval_s=0.6
        ).run()
        with pytest.raises(CalibrationError):
            Uniq(UniqConfig(angle_grid_deg=GRID)).personalize(session)

    def test_check_can_be_disabled(self, subject):
        from repro.geometry.trajectory import hand_motion_trajectory

        rng = np.random.default_rng(31)
        trajectory = hand_motion_trajectory(
            rng,
            radius_mean=0.17,
            radius_wobble=0.02,
            arm_drop_probability=1.0,
            arm_drop_depth=0.4,
        )
        session = MeasurementSession(
            subject, seed=31, trajectory=trajectory, probe_interval_s=0.6
        ).run()
        config = UniqConfig(angle_grid_deg=GRID, enforce_gesture_check=False)
        result = Uniq(config).personalize(session)
        assert result.table.n_angles == len(GRID)


class TestCompensatedPipeline:
    def test_hardware_coloration_compensated(self, subject):
        """With a colored chain plus calibration, results stay close to the
        ideal-hardware run (Section 4.6 compensation)."""
        fs = 48_000
        hardware = SpeakerMicResponse.typical(np.random.default_rng(77))
        session = MeasurementSession(
            subject, seed=77, probe_interval_s=0.6, hardware=hardware
        ).run()
        probe = chirp(30.0, 21_000.0, 0.5, fs)
        calibration = hardware.apply(probe, fs)
        response = estimate_system_response(calibration, probe, fs)

        result = Uniq(UniqConfig(angle_grid_deg=GRID)).personalize(
            session, system_response=response
        )
        truth = ground_truth_table(subject, np.asarray(GRID), fs)
        own = mean_table_correlation(result.table, truth)
        template = global_template_table(np.asarray(GRID), fs)
        other = mean_table_correlation(template, truth)
        assert sum(own) > sum(other)
