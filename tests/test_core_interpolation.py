"""Tests for near-field HRIR extraction, model correction, interpolation."""

import numpy as np
import pytest

from repro.errors import SignalError
from repro.core.fusion import DiffractionAwareSensorFusion
from repro.core.interpolation import NearFieldInterpolator, NearFieldMeasurement
from repro.geometry.head import Ear
from repro.geometry.paths import propagation_path
from repro.geometry.vec import polar_to_cartesian
from repro.hrtf.hrir import BinauralIR
from repro.hrtf.metrics import hrir_correlation
from repro.simulation.propagation import render_near_field_hrir

FS = 48_000


@pytest.fixture(scope="module")
def fusion_result(clean_session):
    return DiffractionAwareSensorFusion().run(clean_session)


@pytest.fixture(scope="module")
def measurements(clean_session, fusion_result):
    interpolator = NearFieldInterpolator(clean_session.fs)
    return interpolator.extract_measurements(clean_session, fusion_result)


class TestExtraction:
    def test_one_measurement_per_probe(self, clean_session, measurements):
        assert len(measurements) == clean_session.n_probes

    def test_extracted_hrir_matches_rendered_truth(
        self, clean_session, measurements
    ):
        """The windowed channel estimate IS the near-field HRIR."""
        subject = clean_session.truth.subject
        positions = clean_session.truth.probe_positions()
        scores = []
        for i in range(0, len(measurements), 5):
            truth_l, truth_r = render_near_field_hrir(subject, positions[i], FS)
            truth = BinauralIR(left=truth_l, right=truth_r, fs=FS)
            c_left, c_right = hrir_correlation(measurements[i].hrir, truth)
            scores.append(0.5 * (c_left + c_right))
        assert np.mean(scores) > 0.7

    def test_interaural_delay_preserved_in_window(
        self, clean_session, measurements, fusion_result
    ):
        subject = clean_session.truth.subject
        positions = clean_session.truth.probe_positions()
        i = len(measurements) // 3
        expected = (
            propagation_path(subject.head, positions[i], Ear.LEFT).length
            - propagation_path(subject.head, positions[i], Ear.RIGHT).length
        ) / 343.0
        assert measurements[i].hrir.interaural_delay_s() == pytest.approx(
            expected, abs=5e-5
        )


def _corrected_at_measurement(measurements, head, index, radius_m=0.45):
    """One-angle grid on measurement ``index``: its HRIR, model-corrected there."""
    m = measurements[index]
    (corrected,) = NearFieldInterpolator(FS).build_grid(
        measurements, head, np.array([m.angle_deg]), reference_radius_m=radius_m
    )
    return m, corrected


class TestModelCorrection:
    def test_correct_to_model_sets_itd(self, fusion_result, measurements):
        head = fusion_result.head
        m, corrected = _corrected_at_measurement(
            measurements, head, len(measurements) // 4
        )
        expected = (
            propagation_path(head, polar_to_cartesian(0.45, m.angle_deg), Ear.LEFT).length
            - propagation_path(head, polar_to_cartesian(0.45, m.angle_deg), Ear.RIGHT).length
        ) / 343.0
        assert corrected.interaural_delay_s() == pytest.approx(expected, abs=4e-5)

    def test_correction_preserves_shape(self, fusion_result, measurements):
        m, corrected = _corrected_at_measurement(
            measurements, fusion_result.head, len(measurements) // 4
        )
        c_left, c_right = hrir_correlation(corrected, m.hrir)
        assert c_left > 0.95
        assert c_right > 0.9

    def test_zero_amplitude_raises(self, fusion_result):
        interpolator = NearFieldInterpolator(FS)
        silent = BinauralIR(left=np.zeros(144), right=np.zeros(144), fs=FS)
        measurements = [
            NearFieldMeasurement(angle_deg=angle, radius_m=0.45, hrir=silent)
            for angle in (40.0, 50.0)
        ]
        with pytest.raises(SignalError):
            interpolator.build_grid(
                measurements, fusion_result.head, np.array([45.0]), 0.45
            )


class TestGridBuilding:
    def test_grid_covers_requested_angles(self, fusion_result, measurements):
        interpolator = NearFieldInterpolator(FS)
        grid = np.arange(0.0, 181.0, 15.0)
        entries = interpolator.build_grid(measurements, fusion_result.head, grid)
        assert len(entries) == grid.shape[0]
        for entry in entries:
            assert np.max(np.abs(entry.left)) > 0

    def test_grid_entries_match_truth(
        self, clean_session, fusion_result, measurements
    ):
        """Interpolated near-field table correlates with rendered truth."""
        subject = clean_session.truth.subject
        interpolator = NearFieldInterpolator(FS)
        grid = np.arange(10.0, 171.0, 20.0)
        entries = interpolator.build_grid(measurements, fusion_result.head, grid)
        scores = []
        for angle, entry in zip(grid, entries):
            truth_l, truth_r = render_near_field_hrir(
                subject, polar_to_cartesian(0.45, float(angle)), FS
            )
            truth = BinauralIR(left=truth_l, right=truth_r, fs=FS)
            scores.append(np.mean(hrir_correlation(entry, truth)))
        assert np.mean(scores) > 0.6

    def test_needs_two_measurements(self, fusion_result, measurements):
        interpolator = NearFieldInterpolator(FS)
        with pytest.raises(SignalError):
            interpolator.build_grid(
                measurements[:1], fusion_result.head, np.array([0.0, 10.0])
            )

    def test_invalid_config(self):
        with pytest.raises(SignalError):
            NearFieldInterpolator(0)
        with pytest.raises(SignalError):
            NearFieldInterpolator(FS, hrir_duration_s=1e-5)
