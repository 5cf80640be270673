"""Tests for the vectorized batch path solver (must match the scalar one)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.fusion import _BOUNDS
from repro.errors import GeometryError
from repro.geometry.batch import (
    _faces,
    _horizon_indices,
    _path_lengths,
    _vertex_table,
    binaural_delays_batch,
    near_field_paths,
    plane_wave_arrivals,
)
from repro.geometry.head import Ear, HeadGeometry
from repro.geometry.paths import binaural_delays, propagation_path
from repro.geometry.plane_wave import plane_wave_arrival
from repro.geometry.vec import polar_to_cartesian
from repro.simulation.person import VirtualSubject

# The fusion optimizer's head search box: it contains every head it builds
# a DelayMap for and VirtualSubject's population (mean +- 4 sigma per axis).
_heads = st.builds(
    HeadGeometry,
    a=st.floats(*_BOUNDS["a"]),
    b=st.floats(*_BOUNDS["b"]),
    c=st.floats(*_BOUNDS["c"]),
    n_boundary=st.sampled_from([240, 720]),
)


def _dense_horizons(head, sources):
    """The horizon scan as a full ``(m, n)`` visibility matrix (the oracle)."""
    boundary = head.boundary
    diff = sources[:, None, :] - boundary.points[None, :, :]
    visible = np.einsum("nk,mnk->mn", boundary.normals, diff) > 0.0
    enters = visible & ~np.roll(visible, 1, axis=1)
    exits = visible & ~np.roll(visible, -1, axis=1)
    return visible, np.argmax(enters, axis=1), np.argmax(exits, axis=1)


def _external_sources(head, rng, m):
    """Near-field, just-outside-the-boundary and grazing-zone sources."""
    k = m // 3
    near = polar_to_cartesian(rng.uniform(0.12, 1.5, k), rng.uniform(-180, 180, k))
    psi = rng.uniform(-180, 180, k)
    shell = head.boundary_point(psi) * (1.0 + rng.uniform(1e-3, 0.05, k))[:, None]
    grazing_angle = rng.choice([-1.0, 1.0], m - 2 * k) * rng.uniform(80, 100, m - 2 * k)
    grazing = polar_to_cartesian(rng.uniform(0.11, 0.5, m - 2 * k), grazing_angle)
    sources = np.vstack([near, shell, grazing])
    return sources[~head.contains(sources)]


class TestAgreementWithScalar:
    def test_matches_scalar_on_grid(self, average_head):
        rng = np.random.default_rng(3)
        sources = polar_to_cartesian(
            rng.uniform(0.2, 1.2, 40), rng.uniform(-180, 180, 40)
        )
        t_left, t_right = binaural_delays_batch(average_head, sources)
        for i, source in enumerate(sources):
            expect_l, expect_r = binaural_delays(average_head, source)
            assert t_left[i] == pytest.approx(expect_l, abs=1e-12)
            assert t_right[i] == pytest.approx(expect_r, abs=1e-12)

    @given(
        head=_heads,
        placement=st.one_of(
            # anywhere in the near field
            st.tuples(st.just("polar"), st.floats(0.2, 1.5), st.floats(-180, 180)),
            # just outside the boundary: radius_at(psi) * (1 + eps)
            st.tuples(st.just("shell"), st.floats(1e-3, 1e-2), st.floats(-180, 180)),
            # the grazing zones around either ear
            st.tuples(
                st.just("polar"),
                st.floats(0.12, 1.5),
                st.one_of(st.floats(80, 100), st.floats(-100, -80)),
            ),
        ),
        ear=st.sampled_from(Ear),
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_scalar_property(self, head, placement, ear):
        kind, size, angle = placement
        if kind == "shell":
            source = head.boundary_point(angle) * (1.0 + size)
        else:
            source = polar_to_cartesian(size, angle)
        assert not head.contains(source)
        (lengths,) = _path_lengths(head, source[None, :], (ear,))
        expected = propagation_path(head, source, ear).length
        assert lengths[0] == pytest.approx(expected, abs=1e-12)


class TestBatchSemantics:
    def test_inside_points_are_nan(self, average_head):
        sources = np.array([[0.0, 0.0], [0.5, 0.5]])
        (lengths,) = _path_lengths(average_head, sources, (Ear.LEFT,))
        assert np.isnan(lengths[0])
        assert np.isfinite(lengths[1])

    def test_wrong_shape_raises(self, average_head):
        with pytest.raises(GeometryError):
            _path_lengths(average_head, np.zeros((3,)), (Ear.LEFT,))
        with pytest.raises(GeometryError):
            binaural_delays_batch(average_head, np.zeros((2, 3)))

    def test_empty_batch(self, average_head):
        (lengths,) = _path_lengths(average_head, np.zeros((0, 2)), (Ear.LEFT,))
        assert lengths.shape == (0,)

    def test_large_batch_consistent_between_ears(self, average_head):
        """On the nose axis, both ears are equidistant (symmetry check)."""
        sources = np.stack([np.zeros(20), np.linspace(0.3, 2.0, 20)], axis=1)
        t_left, t_right = binaural_delays_batch(average_head, sources)
        np.testing.assert_allclose(t_left, t_right, atol=1e-7)


class TestHorizonSearch:
    """The bisection's horizons equal the dense ``(m, n)`` scan's, exactly."""

    @pytest.mark.parametrize("n_boundary", [240, 720])
    def test_equals_dense_scan(self, n_boundary):
        rng = np.random.default_rng(n_boundary)
        for _ in range(4):
            a, b, c = (rng.uniform(lo, hi) for lo, hi in _BOUNDS.values())
            head = HeadGeometry(a, b, c, n_boundary=n_boundary)
            sources = _external_sources(head, rng, 3000)
            visible, first_dense, last_dense = _dense_horizons(head, sources)
            first, last = _horizon_indices(head, sources)
            np.testing.assert_array_equal(first, first_dense)
            np.testing.assert_array_equal(last, last_dense)
            table = _vertex_table(head)
            for ear in Ear:
                index = head.ear_index(ear)
                ear_visible = _faces(table[:, index], sources[:, 0], sources[:, 1])
                np.testing.assert_array_equal(ear_visible, visible[:, index])

    def test_inside_points_are_nan_without_raising(self):
        head = HeadGeometry(0.07, 0.14, 0.08, n_boundary=240)
        rng = np.random.default_rng(5)
        psi = rng.uniform(-180, 180, 500)
        inside = head.boundary_point(psi) * rng.uniform(0.0, 0.999, 500)[:, None]
        inside = np.vstack([inside, [[0.0, 0.0]]])
        assert head.contains(inside).all()
        t_left, t_right = binaural_delays_batch(head, inside)
        assert np.isnan(t_left).all() and np.isnan(t_right).all()


#: Render's grid: 0-180 degrees in 0.25-degree steps.
_RENDER_THETA = np.arange(0.0, 180.0 + 1e-9, 0.25)


def _render_heads():
    # Front-back symmetric heads put exact ties between the two wrap
    # candidates of a source at 90 degrees.
    symmetric = [HeadGeometry(0.08, 0.1, 0.1), HeadGeometry(0.08, 0.09, 0.09)]
    return (
        [HeadGeometry.average()]
        + [VirtualSubject.random(seed).head for seed in range(5)]
        + symmetric
    )


class TestRenderKernelsExact:
    """The render kernels equal the scalar solvers bit for bit, not to 1e-12."""

    @pytest.mark.parametrize("radius", [0.3, 0.45, 0.6])
    def test_near_field_paths_equal_propagation_path(self, radius):
        for head in _render_heads():
            lengths, wrap_arcs = near_field_paths(
                head, polar_to_cartesian(radius, _RENDER_THETA)
            )
            for i, theta in enumerate(_RENDER_THETA):
                source = polar_to_cartesian(radius, float(theta))
                for row, ear in enumerate((Ear.LEFT, Ear.RIGHT)):
                    path = propagation_path(head, source, ear)
                    assert lengths[row, i] == path.length
                    assert wrap_arcs[row, i] == path.wrap_arc

    def test_plane_wave_arrivals_equal_scalar(self):
        for head in _render_heads():
            delays, wrap_arcs, anchors = plane_wave_arrivals(head, _RENDER_THETA)
            for i, theta in enumerate(_RENDER_THETA):
                for row, ear in enumerate((Ear.LEFT, Ear.RIGHT)):
                    arrival = plane_wave_arrival(head, float(theta), ear)
                    assert delays[row, i] == arrival.delay
                    assert wrap_arcs[row, i] == arrival.wrap_arc
                    grazing = (
                        head.ear_position(ear)
                        if arrival.grazing_point is None
                        else arrival.grazing_point
                    )
                    assert np.array_equal(anchors[row, i], grazing)

    def test_near_field_paths_reject_inside_sources(self, average_head):
        with pytest.raises(GeometryError):
            near_field_paths(average_head, np.array([[0.5, 0.0], [0.0, 0.01]]))

    def test_plane_wave_arrivals_reject_non_finite_angles(self, average_head):
        with pytest.raises(GeometryError):
            plane_wave_arrivals(average_head, np.array([10.0, np.nan]))
