"""Tests for repro.geometry.vec: angle conventions and vector helpers."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.geometry.vec import (
    angle_deg_of,
    norm,
    normalize,
    polar_to_cartesian,
    unit_from_angle_deg,
    wrap_angle_deg,
)


class TestUnitFromAngle:
    def test_zero_is_nose_direction(self):
        np.testing.assert_allclose(unit_from_angle_deg(0.0), [0.0, 1.0], atol=1e-12)

    def test_ninety_is_left_ear_direction(self):
        np.testing.assert_allclose(unit_from_angle_deg(90.0), [1.0, 0.0], atol=1e-12)

    def test_180_is_behind(self):
        np.testing.assert_allclose(unit_from_angle_deg(180.0), [0.0, -1.0], atol=1e-12)

    def test_negative_angle_is_right_side(self):
        v = unit_from_angle_deg(-90.0)
        np.testing.assert_allclose(v, [-1.0, 0.0], atol=1e-12)

    def test_vectorized(self):
        vs = unit_from_angle_deg(np.array([0.0, 90.0]))
        assert vs.shape == (2, 2)

    @given(st.floats(-720, 720))
    def test_always_unit_length(self, angle):
        assert np.linalg.norm(unit_from_angle_deg(angle)) == pytest.approx(1.0)


class TestAngleOf:
    @given(st.floats(-179.9, 180.0), st.floats(0.01, 100.0))
    def test_roundtrip_with_polar(self, angle, radius):
        point = polar_to_cartesian(radius, angle)
        assert angle_deg_of(point) == pytest.approx(angle, abs=1e-9)

    def test_array_input(self):
        points = polar_to_cartesian(np.ones(3), np.array([0.0, 45.0, 90.0]))
        np.testing.assert_allclose(angle_deg_of(points), [0.0, 45.0, 90.0], atol=1e-9)


class TestWrap:
    @pytest.mark.parametrize(
        "raw, wrapped",
        [(0.0, 0.0), (180.0, 180.0), (181.0, -179.0), (-180.0, 180.0), (540.0, 180.0)],
    )
    def test_known_values(self, raw, wrapped):
        assert wrap_angle_deg(raw) == pytest.approx(wrapped)

    @given(st.floats(-10_000, 10_000))
    def test_range(self, angle):
        w = wrap_angle_deg(angle)
        assert -180.0 < w <= 180.0


class TestNormalize:
    def test_normalize_unit(self):
        v = normalize(np.array([3.0, 4.0]))
        np.testing.assert_allclose(v, [0.6, 0.8])

    def test_zero_vector_raises(self):
        with pytest.raises(ValueError):
            normalize(np.zeros(2))

    def test_norm_scalar(self):
        assert norm(np.array([3.0, 4.0])) == pytest.approx(5.0)
        assert isinstance(norm(np.array([3.0, 4.0])), float)
