"""Tests for the vectorized batch path solver (must match the scalar one)."""

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.fusion import (
    _BOUNDS,
    FINAL_MAP_RADII,
    FINAL_MAP_THETAS,
    FUSION_BOUNDARY_SAMPLES,
    MAP_RADII,
    MAP_THETAS,
)
from repro.core.localize import DelayMap
from repro.constants import SPEED_OF_SOUND
from repro.errors import GeometryError
from repro.geometry import batch
from repro.geometry.batch import (
    _EARS,
    _arc_ends,
    _faces,
    _horizon_indices,
    _path_lengths,
    _vertex_table,
    binaural_delays_batch,
    near_field_paths,
    plane_wave_arrivals,
)
from repro.geometry.head import DEFAULT_BOUNDARY_SAMPLES, Ear, HeadGeometry
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


def _reference_delays(head, sources):
    """``binaural_delays_batch`` as a per-ear loop (the reference oracle).

    The kernel's original form: the vertex table rebuilt per use, horizons
    wrapped with ``%``, each ear's visibility, direct leg and wrap
    candidates as separate ``(m,)`` passes, ``np.linalg.norm`` legs and
    ``arc_between``'s float ``% perimeter``.  The kernel must equal it bit
    for bit.
    """
    boundary = head.boundary
    n = head.n_boundary
    half = n // 2

    def table():
        return np.concatenate([boundary.normals.T, boundary.points.T])

    def faces(vertex, xs, ys):
        nx, ny, px, py = vertex
        return nx * (xs - px) + ny * (ys - py) > 0.0

    xs, ys = np.ascontiguousarray(sources.T)
    psi = np.arctan2(sources[:, 0], sources[:, 1])
    anchor = np.rint(psi * (n / (2.0 * np.pi))).astype(np.intp) % n
    direction = np.array([[1], [-1]], dtype=np.intp)
    reach = np.zeros((2, psi.shape[0]), dtype=np.intp)
    step = 1 << ((half - 1).bit_length() - 1)
    while step:
        offset = reach + step
        index = (anchor + direction * offset) % n
        seen = (offset < half) & faces(np.take(table(), index, axis=1), xs, ys)
        reach = np.where(seen, offset, reach)
        step >>= 1
    first_visible, last_visible = (anchor - reach[1]) % n, (anchor + reach[0]) % n
    tangents = [
        (
            np.linalg.norm(sources - boundary.points[index], axis=1),
            boundary.cumulative_arc[index],
            travel_sign,
        )
        for index, travel_sign in ((last_visible, +1), (first_visible, -1))
    ]
    inside = head.contains(sources)
    perimeter = boundary.perimeter
    delays = []
    for ear in (Ear.LEFT, Ear.RIGHT):
        ear_index = head.ear_index(ear)
        ear_visible = faces(table()[:, ear_index], sources[:, 0], sources[:, 1])
        direct = np.linalg.norm(sources - head.ear_position(ear)[None, :], axis=1)
        totals = []
        for straight, tangent_arc, travel_sign in tangents:
            forward = (boundary.cumulative_arc[ear_index] - tangent_arc) % perimeter
            arc = forward if travel_sign >= 0 else (perimeter - forward) % perimeter
            totals.append(straight + arc)
        lengths = np.where(ear_visible, direct, np.minimum(*totals))
        delays.append(np.where(inside, np.nan, lengths) / SPEED_OF_SOUND)
    return tuple(delays)


def _grid_sources(radii, thetas):
    grid_r, grid_t = np.meshgrid(
        np.linspace(*radii), np.linspace(*thetas), indexing="ij"
    )
    return polar_to_cartesian(grid_r.ravel(), grid_t.ravel())


_box_heads = st.tuples(*(st.floats(*bounds) for bounds in _BOUNDS.values()))


class TestDelayTablesExact:
    """DelayMap tables and raw batch delays equal the reference oracle exactly."""

    @given(params=_box_heads)
    @settings(max_examples=25, deadline=None)
    def test_coarse_tables(self, params):
        head = HeadGeometry(*params, n_boundary=FUSION_BOUNDARY_SAMPLES)
        delay_map = DelayMap(head, MAP_RADII, MAP_THETAS, refine=False)
        left, right = _reference_delays(head, _grid_sources(MAP_RADII, MAP_THETAS))
        np.testing.assert_array_equal(delay_map.t_left.ravel(), left)
        np.testing.assert_array_equal(delay_map.t_right.ravel(), right)

    @given(params=_box_heads)
    @settings(max_examples=5, deadline=None)
    def test_final_tables(self, params):
        head = HeadGeometry(*params, n_boundary=DEFAULT_BOUNDARY_SAMPLES)
        delay_map = DelayMap(head, FINAL_MAP_RADII, FINAL_MAP_THETAS)
        left, right = _reference_delays(
            head, _grid_sources(FINAL_MAP_RADII, FINAL_MAP_THETAS)
        )
        np.testing.assert_array_equal(delay_map.t_left.ravel(), left)
        np.testing.assert_array_equal(delay_map.t_right.ravel(), right)

    @pytest.mark.parametrize("n_boundary", [240, 720])
    def test_external_and_inside_sources(self, n_boundary):
        rng = np.random.default_rng(n_boundary + 1)
        for _ in range(4):
            a, b, c = (rng.uniform(lo, hi) for lo, hi in _BOUNDS.values())
            head = HeadGeometry(a, b, c, n_boundary=n_boundary)
            psi = rng.uniform(-180, 180, 200)
            inside = head.boundary_point(psi) * rng.uniform(0.0, 0.999, 200)[:, None]
            sources = np.vstack([_external_sources(head, rng, 1500), inside])
            for got, expected in zip(
                binaural_delays_batch(head, sources), _reference_delays(head, sources)
            ):
                assert np.array_equal(got, expected, equal_nan=True)


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
        lengths = _path_lengths(head, source[None, :])[_EARS.index(ear)]
        expected = propagation_path(head, source, ear).length
        assert lengths[0] == pytest.approx(expected, abs=1e-12)


class TestBatchSemantics:
    def test_inside_points_are_nan(self, average_head):
        sources = np.array([[0.0, 0.0], [0.5, 0.5]])
        lengths = _path_lengths(average_head, sources)
        assert np.isnan(lengths[:, 0]).all()
        assert np.isfinite(lengths[:, 1]).all()

    def test_wrong_shape_raises(self, average_head):
        with pytest.raises(GeometryError):
            _path_lengths(average_head, np.zeros((3,)))
        with pytest.raises(GeometryError):
            binaural_delays_batch(average_head, np.zeros((2, 3)))

    def test_empty_batch(self, average_head):
        lengths = _path_lengths(average_head, np.zeros((0, 2)))
        assert lengths.shape == (2, 0)

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
            table = _vertex_table(head)
            first, last = _horizon_indices(head, table, *sources.T)
            np.testing.assert_array_equal(first, first_dense)
            np.testing.assert_array_equal(last, last_dense)
            for ear in Ear:
                index = head.ear_index(ear)
                ear_visible = _faces(table[:, index], sources[:, 0], sources[:, 1])
                np.testing.assert_array_equal(ear_visible, visible[:, index])

    def test_inside_points_are_nan_without_raising(self):
        rng = np.random.default_rng(5)
        for b, c in [(0.14, 0.08), (0.08, 0.14)]:
            head = HeadGeometry(0.07, b, c, n_boundary=240)
            psi = rng.uniform(-180, 180, 500)
            inside = head.boundary_point(psi) * rng.uniform(0.0, 0.999, 500)[:, None]
            # Inside the deeper half, outside the other half's full ellipse:
            # that ellipse has finite tangent points, which the seed must reject.
            deep = np.array([[0.0, 0.11], [0.0, -0.11], [0.01, 0.12], [-0.01, -0.12]])
            inside = np.vstack([inside, deep[head.contains(deep)], [[0.0, 0.0]]])
            assert head.contains(inside).all()
            with (
                warnings.catch_warnings(),
                mock.patch.object(batch, "_arc_ends", wraps=_arc_ends) as lifting,
            ):
                warnings.simplefilter("error")
                t_left, t_right = binaural_delays_batch(head, inside)
            assert np.isnan(t_left).all() and np.isnan(t_right).all()
            # Every row inside the head goes to the lifting.
            assert lifting.call_args.args[1].shape == (inside.shape[0],)


def _lifted_horizons(table, xs, ys):
    """``(first, last)`` by the binary lifting alone (the seed's oracle)."""
    return _arc_ends(table, np.arctan2(xs, ys), lambda vertex: _faces(vertex, xs, ys))


class TestSeededHorizons:
    """Tangent-seeded horizons equal the lifting's exactly, and skip it on the maps."""

    @given(head=_heads, seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_equals_lifting(self, head, seed):
        rng = np.random.default_rng(seed)
        ear_axis = polar_to_cartesian(
            rng.uniform(0.11, 1.5, 300),
            rng.choice([-1.0, 1.0], 300) * rng.uniform(88.0, 92.0, 300),
        )
        psi = rng.uniform(-180, 180, 300)
        scale = 1.0 + 10.0 ** rng.uniform(-7, -2, 300)
        just_outside = head.boundary_point(psi) * scale[:, None]
        table = _vertex_table(head)
        for sources in (
            _grid_sources(MAP_RADII, MAP_THETAS),
            _grid_sources(FINAL_MAP_RADII, FINAL_MAP_THETAS),
            _external_sources(head, rng, 900),
            ear_axis,
            just_outside,
        ):
            sources = sources[~head.contains(sources)]
            xs, ys = np.ascontiguousarray(sources.T)
            first, last = _horizon_indices(head, table, xs, ys)
            expected_first, expected_last = _lifted_horizons(table, xs, ys)
            np.testing.assert_array_equal(first, expected_first)
            np.testing.assert_array_equal(last, expected_last)

    @given(params=_box_heads)
    @settings(max_examples=10, deadline=None)
    def test_map_grids_never_fall_back(self, params):
        """A seed that stops certifying would cost time, not correctness."""
        coarse = HeadGeometry(*params, n_boundary=FUSION_BOUNDARY_SAMPLES)
        final = HeadGeometry(*params, n_boundary=DEFAULT_BOUNDARY_SAMPLES)
        with mock.patch.object(batch, "_arc_ends", wraps=_arc_ends) as lifting:
            DelayMap(coarse, MAP_RADII, MAP_THETAS, refine=False)
            DelayMap(final, FINAL_MAP_RADII, FINAL_MAP_THETAS)
        lifting.assert_not_called()

    @pytest.mark.parametrize(
        "axes, source",
        [
            (
                (0.07279721067052418, 0.14456099070618794, 0.11588107648943165),
                (-0.05929123018863392, 0.08389596082833803),
            ),
            (
                (0.09779679231731919, 0.12035599591149079, 0.07604868322496224),
                (0.020951617567974413, -0.07428725352814741),
            ),
            (
                (0.11324219986166503, 0.12227673639898086, 0.07249507076784277),
                (0.08296256316948523, -0.04935535582915868),
            ),
        ],
    )
    def test_blind_anchor_falls_back(self, axes, source):
        """Microns off the boundary, the vertex at the source's polar angle
        can miss a visible arc whose ends certify; the lifting walks from
        that vertex, so such a row must take the lifting too."""
        head = HeadGeometry(*axes, n_boundary=240)
        xs, ys = np.array([source[0]]), np.array([source[1]])
        table = _vertex_table(head)
        first, last = _horizon_indices(head, table, xs, ys)
        expected_first, expected_last = _lifted_horizons(table, xs, ys)
        np.testing.assert_array_equal(first, expected_first)
        np.testing.assert_array_equal(last, expected_last)

    def test_sampling_gap_sources_fall_back(self):
        """A source too close to see any vertex gets the lifting's answer."""
        head = HeadGeometry(0.08, 0.11, 0.095, n_boundary=240)
        # Midway between two vertices, a hair outside the boundary.
        psi = (np.arange(0, 240, 7) + 0.5) * (360.0 / 240)
        sources = head.boundary_point(psi) * (1.0 + 1e-9)
        sources = sources[~head.contains(sources)]
        xs, ys = np.ascontiguousarray(sources.T)
        table = _vertex_table(head)
        with mock.patch.object(batch, "_arc_ends", wraps=_arc_ends) as lifting:
            first, last = _horizon_indices(head, table, xs, ys)
        assert lifting.call_args.args[1].shape == (xs.shape[0],)
        expected_first, expected_last = _lifted_horizons(table, xs, ys)
        np.testing.assert_array_equal(first, expected_first)
        np.testing.assert_array_equal(last, expected_last)


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
