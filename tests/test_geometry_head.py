"""Tests for the two-half-ellipse head model."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.fusion import MAP_RADII, MAP_THETAS
from repro.core.localize import DelayMap, _polar_grid
from repro.errors import GeometryError
from repro.geometry.head import Ear, HeadGeometry, _vertex_trig

head_axes = st.floats(0.06, 0.15)


class TestConstruction:
    def test_average_head_parameters(self, average_head):
        a, b, c = average_head.parameters
        assert a == pytest.approx(0.0875)
        assert b == pytest.approx(0.110)
        assert c == pytest.approx(0.095)

    @pytest.mark.parametrize("bad", [0.0, -0.1, 0.5, float("nan"), float("inf")])
    def test_rejects_bad_axes(self, bad):
        with pytest.raises(GeometryError):
            HeadGeometry(a=bad, b=0.11, c=0.095)

    @pytest.mark.parametrize("n", [0, 7, 15, 18])
    def test_rejects_bad_boundary_count(self, n):
        with pytest.raises(GeometryError):
            HeadGeometry(a=0.09, b=0.11, c=0.095, n_boundary=n)

    def test_with_parameters_keeps_resolution(self, average_head):
        other = average_head.with_parameters(0.09, 0.12, 0.10)
        assert other.n_boundary == average_head.n_boundary
        assert other.parameters == (0.09, 0.12, 0.10)


class TestEars:
    def test_ear_positions_on_x_axis(self, average_head):
        np.testing.assert_allclose(
            average_head.ear_position(Ear.LEFT), [average_head.a, 0.0]
        )
        np.testing.assert_allclose(
            average_head.ear_position(Ear.RIGHT), [-average_head.a, 0.0]
        )

    def test_ear_vertices_match_positions(self, average_head):
        for ear in Ear:
            vertex = average_head.boundary.points[average_head.ear_index(ear)]
            np.testing.assert_allclose(
                vertex, average_head.ear_position(ear), atol=1e-12
            )

    def test_ear_sign_and_opposite(self):
        assert Ear.LEFT.sign == 1
        assert Ear.RIGHT.sign == -1
        assert Ear.LEFT.opposite is Ear.RIGHT


class TestBoundary:
    def test_radius_at_cardinal_angles(self, average_head):
        assert average_head.radius_at(0.0) == pytest.approx(average_head.b)
        assert average_head.radius_at(90.0) == pytest.approx(average_head.a)
        assert average_head.radius_at(180.0) == pytest.approx(average_head.c)
        assert average_head.radius_at(270.0) == pytest.approx(average_head.a)

    def test_boundary_points_satisfy_ellipse_equation(self, average_head):
        pts = average_head.boundary.points
        front = pts[pts[:, 1] >= 0]
        level = (front[:, 0] / average_head.a) ** 2 + (front[:, 1] / average_head.b) ** 2
        np.testing.assert_allclose(level, 1.0, atol=1e-9)

    def test_perimeter_plausible(self, average_head):
        # Between the inscribed and circumscribed circles.
        r_min = min(average_head.parameters)
        r_max = max(average_head.parameters)
        perimeter = average_head.boundary.perimeter
        assert 2 * np.pi * r_min < perimeter < 2 * np.pi * r_max + 0.01

    def test_normals_are_outward_units(self, average_head):
        boundary = average_head.boundary
        lengths = np.linalg.norm(boundary.normals, axis=1)
        np.testing.assert_allclose(lengths, 1.0, atol=1e-12)
        outward = np.einsum("ij,ij->i", boundary.normals, boundary.points)
        assert np.all(outward > 0)

    def test_arc_between_directions_sum_to_perimeter(self, average_head):
        boundary = average_head.boundary
        i, j = 10, 300
        forward = boundary.arc_between(i, j, +1)
        backward = boundary.arc_between(i, j, -1)
        assert forward + backward == pytest.approx(boundary.perimeter)

    @given(psi=st.floats(0, 360))
    def test_boundary_point_radius_consistency(self, psi):
        head = HeadGeometry.average()
        point = head.boundary_point(psi)
        assert np.linalg.norm(point) == pytest.approx(
            float(head.radius_at(psi)), rel=1e-9
        )


class TestContains:
    def test_center_inside(self, average_head):
        assert average_head.contains(np.zeros(2))

    def test_far_point_outside(self, average_head):
        assert not average_head.contains(np.array([1.0, 1.0]))

    def test_boundary_not_strictly_inside(self, average_head):
        nose = average_head.boundary_point(0.0)
        assert not average_head.contains(nose * 1.0001)

    def test_margin_shrinks(self, average_head):
        just_inside = average_head.boundary_point(0.0) * 0.995
        assert average_head.contains(just_inside)
        assert not average_head.contains(just_inside, margin=0.02)

    @given(psi=st.floats(0, 360), scale=st.floats(0.1, 0.95))
    def test_scaled_boundary_points_inside(self, psi, scale):
        head = HeadGeometry.average()
        assert head.contains(head.boundary_point(psi) * scale)


class TestSharedBoundaryData:
    """Head-independent arrays come from caches, and change nothing."""

    @pytest.mark.parametrize("n", [16, 240, 720])
    @pytest.mark.parametrize("axes", [(0.0875, 0.11, 0.095), (0.07, 0.08, 0.14)])
    def test_boundary_equals_formula(self, n, axes):
        head = HeadGeometry(*axes, n_boundary=n)
        points = head.boundary_point(np.arange(n) * (360.0 / n))
        closed = np.vstack([points, points[:1]])
        seglen = np.linalg.norm(np.diff(closed, axis=0), axis=1)
        boundary = head.boundary
        np.testing.assert_array_equal(boundary.points, points)
        np.testing.assert_array_equal(boundary.normals, head.outward_normal(points))
        np.testing.assert_array_equal(
            boundary.cumulative_arc, np.concatenate([[0.0], np.cumsum(seglen)])
        )

    def test_cached_arrays_are_read_only(self):
        delay_map = DelayMap(HeadGeometry.average(240), MAP_RADII, MAP_THETAS)
        shared = (
            *_vertex_trig(240),
            *_polar_grid(MAP_RADII, MAP_THETAS),
            delay_map.radii,
            delay_map.thetas_deg,
        )
        for values in shared:
            assert not values.flags.writeable
            with pytest.raises(ValueError):
                values[0] = 0.0
