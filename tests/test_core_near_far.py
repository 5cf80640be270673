"""Tests for near-to-far HRTF conversion."""

import tracemalloc

import numpy as np
import pytest

from repro.errors import GeometryError, SignalError
from repro.core.fusion import DiffractionAwareSensorFusion
from repro.core.interpolation import NearFieldInterpolator
from repro.core.near_far import (
    NearFarConverter,
    _backtrack_angles,
    _critical_angles,
    ray_decomposition_attempt,
)
from repro.core.pipeline import grid_from_step
from repro.geometry.batch import plane_wave_arrivals
from repro.geometry.plane_wave import interaural_delay
from repro.geometry.vec import unit_from_angle_deg
from repro.hrtf.hrir import BinauralIR
from repro.hrtf.metrics import hrir_correlation
from repro.simulation.propagation import render_far_field_hrir

FS = 48_000


@pytest.fixture(scope="module")
def near_measurements(clean_session):
    fusion = DiffractionAwareSensorFusion().run(clean_session)
    interpolator = NearFieldInterpolator(clean_session.fs)
    return fusion, interpolator.extract_measurements(clean_session, fusion)


def _critical_angles_at(head, theta_deg, radius_m):
    """``(phi_B, phi_C, phi_D)`` of a one-angle grid, as ``convert`` finds them."""
    grid = np.array([theta_deg])
    _, _, anchors = plane_wave_arrivals(head, grid)
    phis = _critical_angles(head, grid, radius_m, anchors)
    return tuple(float(phi[0]) for phi in phis)


class TestCriticalAngles:
    def test_ordering_around_target(self, average_head):
        phi_b, phi_c, phi_d = _critical_angles_at(average_head, 45.0, 0.45)
        # C sits near the target direction; B (left ear) beyond it; D before.
        assert phi_d < phi_c < phi_b
        assert abs(phi_c - 45.0) < 20.0

    def test_frontal_target_symmetric(self, average_head):
        phi_b, phi_c, phi_d = _critical_angles_at(average_head, 0.0, 0.45)
        assert phi_c == pytest.approx(0.0, abs=3.0)
        assert phi_b == pytest.approx(-phi_d, abs=3.0)

    def test_blocked_facing_search_matches_per_angle_argmax(self, average_head):
        # 600 angles span three blocks of the facing search for Q.
        grid = np.linspace(0.0, 180.0, 600)
        _, _, anchors = plane_wave_arrivals(average_head, grid)
        _, phi_c, _ = _critical_angles(average_head, grid, 0.45, anchors)
        normals = average_head.boundary.normals
        for theta, phi in zip(grid, phi_c):
            u = -unit_from_angle_deg(np.array([theta]))
            facing = -(normals[:, 0] * u[0, 0] + normals[:, 1] * u[0, 1])
            q = average_head.boundary.points[np.argmax(facing)][None, :]
            assert phi == _backtrack_angles(q, u, 0.45)[0]

    def test_fine_grid_memory_is_bounded(self, average_head):
        # 18,001 angles: an unblocked (angles, n_boundary) facing array
        # would hold about 104 MB per temporary.
        grid = np.asarray(grid_from_step(0.01))
        _, _, anchors = plane_wave_arrivals(average_head, grid)
        tracemalloc.start()
        try:
            _critical_angles(average_head, grid, 0.45, anchors)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 12e6

    def test_radius_too_small_raises(self, near_measurements):
        fusion, measurements = near_measurements
        with pytest.raises(GeometryError):
            NearFarConverter(fs=FS).convert(
                measurements, fusion.head, [45.0], trajectory_radius_m=0.05
            )


class TestConversion:
    def test_far_itd_matches_model(self, near_measurements):
        fusion, measurements = near_measurements
        converter = NearFarConverter(fs=FS)
        for theta in (20.0, 60.0, 140.0):
            (far,) = converter.convert(measurements, fusion.head, [theta], 0.45)
            expected = interaural_delay(fusion.head, theta)
            assert far.interaural_delay_s() == pytest.approx(expected, abs=4e-5)

    def test_far_entries_correlate_with_truth(self, clean_session, near_measurements):
        fusion, measurements = near_measurements
        subject = clean_session.truth.subject
        converter = NearFarConverter(fs=FS)
        grid = np.arange(15.0, 166.0, 30.0)
        entries = converter.convert(measurements, fusion.head, grid)
        scores = []
        for angle, entry in zip(grid, entries):
            truth_l, truth_r = render_far_field_hrir(subject, float(angle), FS)
            truth = BinauralIR(left=truth_l, right=truth_r, fs=FS)
            scores.append(np.mean(hrir_correlation(entry, truth)))
        assert np.mean(scores) > 0.55

    def test_conversion_beats_raw_near_itd(self, clean_session, near_measurements):
        """The module's purpose: far ITDs are wrong if near HRIRs are reused."""
        fusion, measurements = near_measurements
        converter = NearFarConverter(fs=FS)
        theta = 45.0
        (far,) = converter.convert(measurements, fusion.head, [theta], 0.45)
        true_itd = interaural_delay(clean_session.truth.subject.head, theta)
        nearest = min(measurements, key=lambda m: abs(m.angle_deg - theta))
        near_itd_error = abs(nearest.hrir.interaural_delay_s() - true_itd)
        far_itd_error = abs(far.interaural_delay_s() - true_itd)
        assert far_itd_error < near_itd_error

    def test_empty_measurements_raise(self, near_measurements):
        fusion, _ = near_measurements
        converter = NearFarConverter(fs=FS)
        with pytest.raises(SignalError):
            converter.convert([], fusion.head, [45.0], 0.45)

    @pytest.mark.filterwarnings("error")
    def test_empty_measurements_raise_whatever_the_grid(self, average_head):
        # An empty grid used to take the median of no radii (a "Mean of
        # empty slice" RuntimeWarning) and return no entries.
        converter = NearFarConverter(fs=FS)
        for grid in ([], [45.0]):
            with pytest.raises(SignalError, match="no near-field measurements"):
                converter.convert([], average_head, grid)


class TestRayDecomposition:
    def test_attempt_is_ill_conditioned(self):
        """The paper's Attempt 1 fails: two speakers cannot form narrow
        beams, so the decomposition system is catastrophically conditioned."""
        condition = ray_decomposition_attempt()
        # Solving a system conditioned worse than ~1e3 amplifies measurement
        # noise thousands-fold — unusable, exactly as the paper reports.
        assert condition > 1e3

    def test_rejects_degenerate_setup(self):
        with pytest.raises(SignalError):
            ray_decomposition_attempt(n_rays=1)
