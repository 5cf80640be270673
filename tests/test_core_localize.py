"""Tests for delay-map localization (the fusion inner loop)."""

import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import GeometryError
from repro.geometry.head import HeadGeometry
from repro.geometry.paths import binaural_delays, euclidean_delay
from repro.geometry.head import Ear
from repro.geometry.vec import polar_to_cartesian
from repro.core.pipeline import Uniq
from repro.obs import metrics as obs_metrics
from repro.simulation.person import VirtualSubject
from repro.simulation.session import MeasurementSession
from repro.core.fusion import MAP_RADII, MAP_THETAS
from repro.core.localize import (
    DelayMap,
    LocalizationCandidate,
    cached_delay_map,
    clear_delay_map_cache,
    delay_map_cache_size,
)


@pytest.fixture(scope="module")
def delay_map(average_head):
    return DelayMap(average_head)


class TestInversion:
    @pytest.mark.parametrize(
        "radius, theta",
        [(0.45, 30.0), (0.45, 90.0), (0.3, 150.0), (0.7, 10.0), (0.5, 170.0)],
    )
    def test_recovers_true_location(self, average_head, delay_map, radius, theta):
        t_left, t_right = binaural_delays(
            average_head, polar_to_cartesian(radius, theta)
        )
        candidate = delay_map.locate(t_left, t_right, imu_angle_deg=theta + 4.0)
        assert candidate is not None
        assert candidate.theta_deg == pytest.approx(theta, abs=0.5)
        assert candidate.radius_m == pytest.approx(radius, abs=0.01)

    def test_two_candidates_front_back(self, average_head, delay_map):
        t_left, t_right = binaural_delays(average_head, polar_to_cartesian(0.45, 40.0))
        candidates = delay_map.invert(t_left, t_right)
        assert len(candidates) == 2
        thetas = sorted(c.theta_deg for c in candidates)
        assert thetas[0] == pytest.approx(40.0, abs=1.0)
        # The ambiguous twin is roughly the front-back mirror.
        assert 120.0 < thetas[1] < 180.0

    def test_imu_disambiguates_to_back(self, average_head, delay_map):
        t_left, t_right = binaural_delays(average_head, polar_to_cartesian(0.45, 40.0))
        candidates = delay_map.invert(t_left, t_right)
        back = max(c.theta_deg for c in candidates)
        chosen = delay_map.locate(t_left, t_right, imu_angle_deg=back + 3.0)
        assert chosen.theta_deg == pytest.approx(back, abs=0.5)

    def test_impossible_delays_return_empty(self, delay_map):
        assert delay_map.invert(1e-5, 1e-5) == []
        assert delay_map.locate(1e-5, 1e-5, 0.0) is None

    def test_nan_delays_return_empty(self, delay_map):
        assert delay_map.invert(float("nan"), 1e-3) == []

    def test_candidate_position_property(self, average_head, delay_map):
        t_left, t_right = binaural_delays(average_head, polar_to_cartesian(0.5, 60.0))
        candidate = delay_map.locate(t_left, t_right, 60.0)
        np.testing.assert_allclose(
            candidate.position,
            polar_to_cartesian(candidate.radius_m, candidate.theta_deg),
        )

    @given(radius=st.floats(0.3, 1.0), theta=st.floats(5.0, 175.0))
    @settings(max_examples=25, deadline=None)
    def test_inversion_property(self, radius, theta):
        head = HeadGeometry.average()
        dm = DelayMap(head)
        t_left, t_right = binaural_delays(head, polar_to_cartesian(radius, theta))
        candidate = dm.locate(t_left, t_right, theta)
        assert candidate is not None
        assert abs(candidate.theta_deg - theta) < 1.5
        assert abs(candidate.radius_m - radius) < 0.02


class TestEuclideanModel:
    def test_euclidean_map_differs_from_diffraction(self, average_head):
        euclid = DelayMap(average_head, model="euclidean")
        source = polar_to_cartesian(0.45, 60.0)
        t_left, t_right = binaural_delays(average_head, source)  # physical
        candidate = euclid.locate(t_left, t_right, 60.0)
        # The straight-line model misinterprets the wrapped delay.
        assert candidate is None or abs(candidate.theta_deg - 60.0) > 2.0

    def test_euclidean_inverts_euclidean(self, average_head):
        euclid = DelayMap(average_head, model="euclidean")
        source = polar_to_cartesian(0.45, 60.0)
        t_left = euclidean_delay(average_head, source, Ear.LEFT)
        t_right = euclidean_delay(average_head, source, Ear.RIGHT)
        candidate = euclid.locate(t_left, t_right, 60.0)
        assert candidate is not None
        assert candidate.theta_deg == pytest.approx(60.0, abs=1.0)


class TestValidation:
    def test_invalid_grid_raises(self, average_head):
        with pytest.raises(GeometryError):
            DelayMap(average_head, radii=(0.5, 0.2, 10))
        with pytest.raises(GeometryError):
            DelayMap(average_head, thetas=(0.0, 10.0, 4))

    def test_invalid_model_raises(self, average_head):
        with pytest.raises(GeometryError):
            DelayMap(average_head, model="psychic")

    def test_radial_grid_clears_head(self, average_head):
        dm = DelayMap(average_head, radii=(0.01, 1.0, 10))
        assert dm.radii[0] > max(average_head.parameters)

    def test_radial_grid_inside_head_raises(self):
        """A grid ending before the first radius outside the head has no
        increasing radius axis to tabulate, so it is refused, not reversed."""
        head = HeadGeometry(0.09, 0.145, 0.1)
        with pytest.raises(GeometryError):
            DelayMap(head, radii=(0.1, 0.15, 10))
        with pytest.raises(GeometryError):
            DelayMap(head, radii=(0.1, 0.12, 10))


class TestRadialGridAdjustmentWarning:
    def test_adjustment_warns_and_counts(self, average_head, caplog):
        """An in-head r_min is no longer silent: warning + counter fire."""
        counter = obs_metrics.counter("localize.radial_grid_adjusted")
        before = counter.value
        with caplog.at_level(logging.WARNING, logger="repro.core.localize"):
            dm = DelayMap(average_head, radii=(0.05, 1.0, 10))
        assert counter.value - before == 1
        assert dm.radii[0] == pytest.approx(max(average_head.parameters) + 0.01)
        messages = [
            r.message for r in caplog.records if "radial_grid_adjusted" in r.message
        ]
        assert len(messages) == 1
        assert "requested_r_min_m=0.05" in messages[0]
        assert "adjusted_r_min_m=" in messages[0]

    def test_valid_grid_stays_silent(self, average_head, caplog):
        counter = obs_metrics.counter("localize.radial_grid_adjusted")
        before = counter.value
        with caplog.at_level(logging.WARNING, logger="repro.core.localize"):
            dm = DelayMap(average_head, radii=(0.2, 1.0, 10))
        assert counter.value == before
        assert not any(
            "radial_grid_adjusted" in r.message for r in caplog.records
        )
        assert dm.radii[0] == pytest.approx(0.2)


class TestCachedDelayMap:
    PARAMS = (0.0901, 0.1153, 0.0987)

    def test_repeat_parameters_hit(self):
        clear_delay_map_cache()
        hits = obs_metrics.counter("localize.delay_map_cache_hits")
        misses = obs_metrics.counter("localize.delay_map_cache_misses")
        h0, m0 = hits.value, misses.value
        first = cached_delay_map(self.PARAMS, radii=(0.2, 1.0, 10))
        again = cached_delay_map(self.PARAMS, radii=(0.2, 1.0, 10))
        assert again is first
        assert misses.value - m0 == 1
        assert hits.value - h0 == 1
        assert delay_map_cache_size() == 1

    def test_distinct_parameters_do_not_collapse(self):
        clear_delay_map_cache()
        a, b, c = self.PARAMS
        # 1e-5 m apart: far above the quantize_key_component tolerance
        # (1e-9), well below anything the optimizer treats as equal.
        first = cached_delay_map((a, b, c), radii=(0.2, 1.0, 10))
        other = cached_delay_map((a + 1e-5, b, c), radii=(0.2, 1.0, 10))
        assert other is not first
        assert delay_map_cache_size() == 2

    def test_grid_and_mode_are_part_of_the_key(self):
        clear_delay_map_cache()
        base = cached_delay_map(self.PARAMS, radii=(0.2, 1.0, 10))
        assert cached_delay_map(self.PARAMS, radii=(0.2, 1.0, 12)) is not base
        assert (
            cached_delay_map(self.PARAMS, radii=(0.2, 1.0, 10), refine=False)
            is not base
        )
        assert (
            cached_delay_map(
                self.PARAMS, radii=(0.2, 1.0, 10), model="euclidean"
            )
            is not base
        )
        assert delay_map_cache_size() == 4

    def test_matches_direct_construction(self):
        clear_delay_map_cache()
        cached = cached_delay_map(self.PARAMS, radii=(0.2, 1.0, 10))
        a, b, c = self.PARAMS
        direct = DelayMap(HeadGeometry(a=a, b=b, c=c), radii=(0.2, 1.0, 10))
        np.testing.assert_array_equal(cached.t_left, direct.t_left)
        np.testing.assert_array_equal(cached.t_right, direct.t_right)

    def test_clear_empties_the_store(self):
        cached_delay_map(self.PARAMS, radii=(0.2, 1.0, 10))
        assert delay_map_cache_size() >= 1
        clear_delay_map_cache()
        assert delay_map_cache_size() == 0

    def test_invert_memoized_per_map(self, average_head):
        dm = DelayMap(average_head)
        t_left, t_right = binaural_delays(
            average_head, polar_to_cartesian(0.45, 40.0)
        )
        hits = obs_metrics.counter("localize.invert_cache_hits")
        first = dm.invert(t_left, t_right)
        h0 = hits.value
        again = dm.invert(t_left, t_right)
        assert hits.value - h0 == 1
        assert again == first


def _reference_radius(dm, t1):
    """Per-angle radius for one ``t1`` (the original scalar solve)."""
    table = dm.t_left
    idx = (table < t1).sum(axis=0)
    n_r = dm.radii.shape[0]
    valid = (idx > 0) & (idx < n_r)
    idx_c = np.clip(idx, 1, n_r - 1)
    t_lo = np.take_along_axis(table, (idx_c - 1)[None, :], axis=0)[0]
    t_hi = np.take_along_axis(table, idx_c[None, :], axis=0)[0]
    with np.errstate(invalid="ignore", divide="ignore"):
        frac = np.where(t_hi > t_lo, (t1 - t_lo) / (t_hi - t_lo), np.nan)
    radius = dm.radii[idx_c - 1] + frac * (dm.radii[idx_c] - dm.radii[idx_c - 1])
    return np.where(valid, radius, np.nan)


def _reference_right_delay(dm, radius):
    idx = np.searchsorted(dm.radii, radius)
    n_r = dm.radii.shape[0]
    idx_c = np.clip(idx, 1, n_r - 1)
    r_lo = dm.radii[idx_c - 1]
    r_hi = dm.radii[idx_c]
    frac = (radius - r_lo) / (r_hi - r_lo)
    t_lo = np.take_along_axis(dm.t_right, (idx_c - 1)[None, :], axis=0)[0]
    t_hi = np.take_along_axis(dm.t_right, idx_c[None, :], axis=0)[0]
    return t_lo + frac * (t_hi - t_lo)


def _reference_vertices(dm, g, radius, finite, found):
    """Grazing vertices of one ``g`` row, node by node."""
    step = float(dm.thetas_deg[1] - dm.thetas_deg[0])
    vertices = []
    for i in range(g.shape[0] - 2):
        g_prev, g_mid, g_next = g[i], g[i + 1], g[i + 2]
        if not (finite[i] and finite[i + 1] and finite[i + 2]):
            continue
        if not ((g_prev < 0) == (g_mid < 0) == (g_next < 0)):
            continue
        a = 0.5 * (g_next + g_prev - 2.0 * g_mid)
        b = 0.5 * (g_next - g_prev)
        if a == 0.0:
            continue
        x = float(-b / (2.0 * a))
        g_vertex = g_mid - b * b / (4.0 * a)
        tolerance = 2.0 * abs(a) + 1e-6
        grazes = (a < 0 and g_mid < 0 and g_vertex >= -tolerance) or (
            a > 0 and not g_mid < 0 and g_vertex <= tolerance
        )
        if abs(x) > 1.0 or not grazes:
            continue
        theta = float(dm.thetas_deg[i + 1] + x * step)
        neighbour = i + 2 if x >= 0 else i
        r_here = float(radius[i + 1] + abs(x) * (radius[neighbour] - radius[i + 1]))
        if not np.isfinite(r_here):
            continue
        if any(abs(c.theta_deg - theta) <= step for c in found):
            continue
        if any(abs(theta_v - theta) <= step for theta_v, _ in vertices):
            continue
        vertices.append((theta, r_here))
    return vertices


def _reference_invert(dm, t_left, t_right):
    """``DelayMap.invert`` as a per-probe scalar loop (the reference oracle).

    The table scan is the original scalar code; a refined map hands its
    crossings and vertices to the map's own exact zone re-solve.
    """
    if not np.isfinite(t_left) or not np.isfinite(t_right):
        return []
    radius = _reference_radius(dm, t_left)
    g = _reference_right_delay(dm, radius) - t_right
    finite = np.isfinite(g)
    candidates = []
    for i in range(g.shape[0] - 1):
        if not (finite[i] and finite[i + 1]):
            continue
        if g[i] == 0.0 or (g[i] < 0) != (g[i + 1] < 0):
            span = g[i + 1] - g[i]
            frac = 0.0 if span == 0 else float(-g[i] / span)
            theta = float(
                dm.thetas_deg[i] + frac * (dm.thetas_deg[i + 1] - dm.thetas_deg[i])
            )
            r_here = float(radius[i] + frac * (radius[i + 1] - radius[i]))
            if np.isfinite(r_here):
                candidates.append(LocalizationCandidate(r_here, theta))
    ordered = sorted(candidates, key=lambda c: c.theta_deg)
    vertices = _reference_vertices(dm, g, radius, finite, ordered)
    if dm.refine:
        return dm._refine_grazing(float(t_left), float(t_right), ordered, vertices)
    return ordered + [LocalizationCandidate(r, theta) for theta, r in vertices]


def _reference_locate(dm, t_left, t_right, alpha):
    candidates = _reference_invert(dm, t_left, t_right)
    if not candidates:
        return None
    return min(candidates, key=lambda c: abs(c.theta_deg - alpha))


class TestBatchInversion:
    """The array kernels reproduce the scalar reference oracle bit for bit."""

    @pytest.fixture(scope="class")
    def refined_map(self, average_head):
        return DelayMap(average_head)

    @pytest.fixture(scope="class")
    def coarse_map(self, average_head):
        return DelayMap(average_head, MAP_RADII, MAP_THETAS, refine=False)

    @staticmethod
    def _delay_arrays(head, pairs):
        t1, t2 = [], []
        for radius, theta in pairs:
            a, b = binaural_delays(head, polar_to_cartesian(radius, theta))
            t1.append(a)
            t2.append(b)
        # Pathological rows every batch must handle: non-finite probes, an
        # impossible delay pair, and an in-batch duplicate of row 0.
        t1 += [np.nan, 1e-3, np.inf, 1e-5, t1[0]]
        t2 += [1e-3, np.nan, 1e-3, 1e-5, t2[0]]
        return np.asarray(t1), np.asarray(t2)

    # Mix ordinary geometry with the grazing zone around +/-90 degrees,
    # where the grazing vertices and _refine_grazing fire.
    pair_lists = st.lists(
        st.tuples(
            st.floats(0.25, 1.1),
            st.one_of(
                st.floats(-160.0, 160.0),
                st.floats(80.0, 100.0),
                st.floats(-100.0, -80.0),
            ),
        ),
        min_size=1,
        max_size=6,
    )

    @given(pairs=pair_lists)
    @settings(max_examples=20, deadline=None)
    def test_invert_batch_matches_scalar_refined(
        self, average_head, refined_map, pairs
    ):
        t1, t2 = self._delay_arrays(average_head, pairs)
        expected = [_reference_invert(refined_map, a, b) for a, b in zip(t1, t2)]
        assert refined_map.invert_batch(t1, t2) == expected

    @given(pairs=pair_lists)
    @settings(max_examples=20, deadline=None)
    def test_invert_batch_matches_scalar_coarse(self, average_head, coarse_map, pairs):
        t1, t2 = self._delay_arrays(average_head, pairs)
        expected = [_reference_invert(coarse_map, a, b) for a, b in zip(t1, t2)]
        assert coarse_map.invert_batch(t1, t2) == expected

    @staticmethod
    def _assert_locates_like_reference(dm, t1, t2, alphas):
        thetas, radii, solved = dm.locate_batch(t1, t2, alphas)
        for i in range(t1.shape[0]):
            candidate = _reference_locate(dm, t1[i], t2[i], alphas[i])
            if candidate is None:
                assert not solved[i]
                assert np.isnan(thetas[i]) and np.isnan(radii[i])
            else:
                assert solved[i]
                assert thetas[i] == candidate.theta_deg
                assert radii[i] == candidate.radius_m

    def test_locate_batch_matches_scalar_locate(self, average_head, refined_map):
        pairs = [(0.45, 30.0), (0.45, 90.0), (0.3, 150.0), (0.7, 10.0)]
        t1, t2 = self._delay_arrays(average_head, pairs)
        alphas = np.array([34.0, 88.0, 147.0, 12.0, 0.0, 0.0, 0.0, 0.0, 34.0])
        self._assert_locates_like_reference(refined_map, t1, t2, alphas)

    @given(pairs=pair_lists, seed=st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_coarse_locate_batch_matches_reference(
        self, average_head, coarse_map, pairs, seed
    ):
        t1, t2 = self._delay_arrays(average_head, pairs)
        alphas = np.random.default_rng(seed).uniform(-60.0, 240.0, t1.shape[0])
        self._assert_locates_like_reference(coarse_map, t1, t2, alphas)

    def test_coarse_locate_on_exact_zero_nodes(self, average_head, coarse_map):
        """Rows whose mismatch ``g`` is exactly zero on a grid node.

        The crossing that ends on the zero node and the one that starts
        there share their angle; ties go to the first candidate.
        """
        t_left, _ = binaural_delays(average_head, polar_to_cartesian(0.45, 40.0))
        radius = _reference_radius(coarse_map, t_left)
        right = _reference_right_delay(coarse_map, radius)
        nodes = np.flatnonzero(np.isfinite(right))
        t1 = np.full(nodes.shape, t_left)
        t2 = right[nodes]  # g(nodes[k]) == 0.0 on row k
        for alpha in (-40.0, 40.0, 90.0, 140.0, 220.0):
            alphas = np.full(t1.shape, alpha)
            self._assert_locates_like_reference(coarse_map, t1, t2, alphas)
        assert coarse_map.invert_batch(t1, t2) == [
            _reference_invert(coarse_map, a, b) for a, b in zip(t1, t2)
        ]

    def test_vertex_next_to_a_crossing_is_dropped(self, average_head):
        """A grazing vertex within a grid step of its row's crossing is not
        another candidate."""
        dm = DelayMap(average_head, MAP_RADII, MAP_THETAS, refine=False)
        step = dm.thetas_deg[1] - dm.thetas_deg[0]
        j = 40
        g = np.full(dm.thetas_deg.shape, 1e-5)
        g[j:] = -1e-5
        # A crossing just before node j, then a near-zero maximum whose
        # parabola vertex sits 0.3 steps before node j + 1.
        g[j : j + 3] = (-1.5e-7, -1e-7, -3e-7)
        # t_R constant along each column: g reads these values at any radius.
        dm.t_right[:] = 1e-3 + g
        t1, t2 = np.array([dm.t_left[10, j]]), np.array([1e-3])
        (got,) = dm.invert_batch(t1, t2)
        assert got == _reference_invert(dm, t1[0], t2[0])
        crossing, *vertices = got
        assert vertices
        assert all(abs(v.theta_deg - crossing.theta_deg) > step for v in vertices)

    def test_coarse_maps_keep_no_memo(self, average_head, coarse_map):
        t1, t2 = self._delay_arrays(average_head, [(0.5, 60.0)])
        hits = obs_metrics.counter("localize.invert_cache_hits")
        h0 = hits.value
        first = coarse_map.locate_batch(t1, t2, np.zeros(t1.shape))
        again = coarse_map.locate_batch(t1, t2, np.zeros(t1.shape))
        assert hits.value == h0
        for a, b in zip(first, again):
            np.testing.assert_array_equal(a, b)

    def test_batch_hits_scalar_memo_and_back(self, average_head):
        """Scalar and batch calls share one memo with consistent counters."""
        dm = DelayMap(average_head)
        t1, t2 = binaural_delays(average_head, polar_to_cartesian(0.5, 60.0))
        first = dm.invert(t1, t2)
        hits = obs_metrics.counter("localize.invert_cache_hits")
        h0 = hits.value
        batch = dm.invert_batch(np.array([t1, t1]), np.array([t2, t2]))
        assert batch == [first, first]
        assert hits.value - h0 == 2  # one cached hit + one in-batch alias
        h1 = hits.value
        assert dm.invert(t1, t2) == first
        assert hits.value - h1 == 1


class TestDegenerateColumns:
    def test_degenerate_bracket_yields_nan_not_zero(self, average_head):
        """A non-monotonic t_left column (t_hi <= t_lo at the bracket) must
        produce NaN for that angle — not a silently wrong radius at frac=0 —
        and increment the degenerate-column counter."""
        dm = DelayMap(average_head, radii=(0.2, 1.0, 10), thetas=(-180.0, 180.0, 31))
        col = 7
        # Manufacture a dip: row 5 falls back to the row-3 value, so a t1
        # between rows 3 and 4 brackets a decreasing (t_lo > t_hi) pair.
        dm.t_left[5, col] = dm.t_left[3, col]
        t1 = 0.5 * (float(dm.t_left[3, col]) + float(dm.t_left[4, col]))
        counter = obs_metrics.counter("localize.degenerate_columns")

        c0 = counter.value
        # Beside the degenerate row: delays equal to table nodes, the first
        # of which brackets nothing (NaN on its column).
        rows = np.array([t1, dm.t_left[2, col], dm.t_left[0, col]])
        radius = dm._radius_for_left_delay(rows)
        assert np.isnan(radius[0, col])
        assert np.isnan(radius[2, col])
        assert counter.value - c0 == 1
        # The row-by-row count agrees with the scalar reference, NaNs included.
        for row, t in enumerate(rows):
            np.testing.assert_array_equal(radius[row], _reference_radius(dm, t))


class TestSolveWork:
    def test_cold_solve_keeps_its_work_counts(self, monkeypatch):
        """A seeded cold solve builds and evaluates exactly what it always did."""
        monkeypatch.delenv("REPRO_MAP_STORE", raising=False)
        session = MeasurementSession(
            VirtualSubject.random(1), seed=0, probe_interval_s=0.6
        ).run()
        clear_delay_map_cache()
        names = ("fusion.cost_evaluations", "localize.delay_map_builds")
        before = [obs_metrics.counter(name).value for name in names]
        Uniq().solve(session)
        work = [obs_metrics.counter(name).value - b for name, b in zip(names, before)]
        assert work == [190, 185]
