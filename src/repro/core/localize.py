"""Acoustic phone localization given candidate head parameters.

Paper Section 4.1, "Estimating Polar Angle theta_i(E) in Step 2": assume head
parameters ``E = (a, b, c)`` and let ``t1, t2`` be the measured first-tap
delays at the left/right ears.  The phone must lie on the intersection of two
iso-delay trajectories — the locus of points whose diffraction delay to the
left ear is ``t1``, and likewise for the right ear — which generically
intersect in **two** points (front/back ambiguity, the paper's Figure 10b).
The IMU angle picks the right one.

:class:`DelayMap` implements this inversion on a polar grid:

1. tabulate ``t_L(r, theta)`` and ``t_R(r, theta)`` over a grid using the
   vectorized batch path solver (delay is strictly increasing in ``r`` along
   each angle ray, so each column is invertible);
2. for a measurement ``(t1, t2)``, solve ``t_L(r, theta) = t1`` for ``r``
   per angle column, evaluate ``g(theta) = t_R(r(theta), theta) - t2``, and
   return the sign-change roots of ``g`` — the candidate phone locations.

The map is rebuilt once per candidate ``E`` inside the fusion optimizer, so
all the heavy lifting is in vectorized numpy.
"""

from __future__ import annotations

import functools
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, TypeVar

import numpy as np

from repro.constants import SPEED_OF_SOUND
from repro.errors import GeometryError
from repro.geometry.batch import binaural_delays_batch
from repro.geometry.head import DEFAULT_BOUNDARY_SAMPLES, Ear, HeadGeometry
from repro.geometry.vec import polar_to_cartesian
from repro.obs import metrics as obs_metrics
from repro.obs.logging import get_logger, kv

#: Default radial grid span (m): from just outside any plausible head to
#: beyond any plausible arm reach.
DEFAULT_RADII = (0.16, 1.4, 40)

#: Default angular grid (deg): full circle so both ambiguous intersections
#: are always found, at ~3 degree resolution before sub-grid refinement.
DEFAULT_THETAS = (-180.0, 180.0, 121)

#: Per-map inversion memo size bound (refined maps only); the memo is cleared
#: (not LRU evicted) past this, which is far above any per-session probe count.
_INVERT_CACHE_MAX = 4096

_log = get_logger("core.localize")

#: Candidate points of many probes at once: ``(rows, thetas_deg, radii_m)``.
_Points = tuple[np.ndarray, np.ndarray, np.ndarray]
_T = TypeVar("_T")


@dataclass(frozen=True)
class LocalizationCandidate:
    """One solution of the two-trajectory intersection."""

    radius_m: float
    theta_deg: float

    @property
    def position(self) -> np.ndarray:
        return polar_to_cartesian(self.radius_m, self.theta_deg)


def _candidate(theta: float, radius: float) -> LocalizationCandidate:
    return LocalizationCandidate(radius, theta)


def _per_row(
    n: int, points: _Points, make: Callable[[float, float], _T]
) -> list[list[_T]]:
    """``make(theta, radius)`` of each of ``points``, grouped into ``n`` row lists."""
    out: list[list[_T]] = [[] for _ in range(n)]
    for row, theta, radius in zip(*(part.tolist() for part in points)):
        out[row].append(make(theta, radius))
    return out


@functools.lru_cache(maxsize=8)
def _polar_grid(
    radii: tuple[float, float, int], thetas: tuple[float, float, int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only ``(radii, thetas_deg, sources)`` of a polar grid spec.

    ``sources`` are the ``(r, theta)`` nodes in Cartesian form, radius-major.
    No head enters them, so every :class:`DelayMap` over one spec (each
    candidate head of a fusion search) shares one copy.
    """
    r = np.linspace(*radii)
    theta = np.linspace(*thetas)
    grid_r, grid_t = np.meshgrid(r, theta, indexing="ij")
    grid = (r, theta, polar_to_cartesian(grid_r.ravel(), grid_t.ravel()))
    for values in grid:
        values.flags.writeable = False
    return grid


class DelayMap:
    """Tabulated binaural delay field for one head parameter vector.

    Parameters
    ----------
    head:
        Candidate head geometry ``E``.
    radii:
        ``(min, max, count)`` radial grid specification in meters.
    thetas:
        ``(min, max, count)`` angular grid specification in degrees.
    refine:
        Whether grazing-zone roots (near the ear axis) are re-solved
        against the exact delay model.  Accurate but ~850 extra path
        evaluations per affected probe; the fusion optimizer turns it off
        in its inner loop, where the coarse candidates rank heads just as
        well, and back on for the final localization pass.
    """


    def __init__(
        self,
        head: HeadGeometry,
        radii: tuple[float, float, int] = DEFAULT_RADII,
        thetas: tuple[float, float, int] = DEFAULT_THETAS,
        model: str = "diffraction",
        refine: bool = True,
    ) -> None:
        r_min, r_max, n_r = radii
        t_min, t_max, n_t = thetas
        if r_min <= 0 or r_max <= r_min or n_r < 4:
            raise GeometryError(f"invalid radial grid {radii}")
        if t_max <= t_min or n_t < 8:
            raise GeometryError(f"invalid angular grid {thetas}")
        if model not in ("diffraction", "euclidean"):
            raise GeometryError(
                f"model must be 'diffraction' or 'euclidean', got {model!r}"
            )
        max_axis = max(head.parameters)
        if r_min <= max_axis:
            # The caller's radial grid starts inside the head; the map can
            # only honor radii outside the boundary, so self.radii will not
            # match the requested spec — say so instead of adjusting silently.
            adjusted = max_axis + 0.01
            if adjusted >= r_max:
                raise GeometryError(
                    f"radial grid {radii} ends before {adjusted:.3f} m, the "
                    f"first radius outside the head (max axis {max_axis} m)"
                )
            obs_metrics.counter("localize.radial_grid_adjusted").inc()
            _log.warning(
                kv(
                    "localize.radial_grid_adjusted",
                    requested_r_min_m=r_min,
                    adjusted_r_min_m=adjusted,
                    head_max_axis_m=max_axis,
                )
            )
            r_min = adjusted

        self.head = head
        self.model = model
        self.refine = refine
        self.radii, self.thetas_deg, sources = _polar_grid(
            (r_min, r_max, n_r), (t_min, t_max, n_t)
        )
        t_left, t_right = self._delays_for(sources)
        self.t_left = t_left.reshape(n_r, n_t)  # (r, theta)
        self.t_right = t_right.reshape(n_r, n_t)
        obs_metrics.counter("localize.delay_map_builds").inc()
        #: A refined map's candidates keyed by the exact (t1, t2) pair — the
        #: tables are immutable after construction, so a repeated delay pair
        #: is a pure replay of its exact zone re-solves.  Coarse maps keep
        #: none: their inversion is one array pass.
        self._invert_cache: dict[
            tuple[float, float], tuple[LocalizationCandidate, ...]
        ] = {}

    def _delays_for(self, sources: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Exact (un-tabulated) per-source binaural delays under the model."""
        if self.model == "diffraction":
            return binaural_delays_batch(self.head, sources)
        # The through-the-head straight-line baseline (ablation only).
        t_left = (
            np.linalg.norm(sources - self.head.ear_position(Ear.LEFT), axis=1)
            / SPEED_OF_SOUND
        )
        t_right = (
            np.linalg.norm(sources - self.head.ear_position(Ear.RIGHT), axis=1)
            / SPEED_OF_SOUND
        )
        return t_left, t_right

    def _radius_for_left_delay(self, t1: np.ndarray) -> np.ndarray:
        """Per-row, per-angle radius solving ``t_L(r, theta) = t1`` (nan out of range).

        ``t1`` is ``(m,)`` and finite; the result is ``(m, n_theta)``.  A
        column where the bracketing nodes are not strictly increasing
        (``t_hi <= t_lo``: a flat or non-monotonic table column) has no
        well-defined inverse; it yields NaN — never a candidate snapped to a
        grid radius — and is counted under ``localize.degenerate_columns``
        so the fusion sentinels see inversions degraded by a bad table.
        """
        table = self.t_left  # increasing along axis 0
        n_r, n_t = table.shape
        m = t1.shape[0]
        # idx[k, j] counts column j's entries below t1[k] (the first row with
        # t_L >= t1 on a monotonic column).  An entry lies below t1[k]
        # exactly when fewer than rank(k) + 1 of the sorted t1 lie at or
        # below it, so one histogram per column counts every row at once.
        order = np.argsort(t1, kind="stable")
        rank = np.empty(m, dtype=np.intp)
        rank[order] = np.arange(m)
        at_or_below = np.searchsorted(t1[order], table, side="right")
        bins = (at_or_below + (m + 1) * np.arange(n_t)).ravel()
        hist = np.bincount(bins, minlength=n_t * (m + 1)).reshape(n_t, m + 1)
        idx = np.cumsum(hist, axis=1)[:, rank].T
        valid = (idx > 0) & (idx < n_r)
        upper = np.clip(idx, 1, n_r - 1)
        flat = upper * n_t + np.arange(n_t)
        t_lo = table.take(flat - n_t)
        t_hi = table.take(flat)
        with np.errstate(invalid="ignore", divide="ignore"):
            frac = np.where(t_hi > t_lo, (t1[:, None] - t_lo) / (t_hi - t_lo), np.nan)
        degenerate = valid & ~(t_hi > t_lo)
        if degenerate.any():
            obs_metrics.counter("localize.degenerate_columns").inc(
                int(degenerate.sum())
            )
        r_lo = self.radii[upper - 1]
        radius = r_lo + frac * (self.radii[upper] - r_lo)
        return np.where(valid, radius, np.nan)

    def _right_delay_at(self, radius: np.ndarray) -> np.ndarray:
        """``t_R`` interpolated at ``(m, n_theta)`` per-angle radii (nan propagates)."""
        n_r, n_t = self.t_right.shape
        upper = np.clip(np.searchsorted(self.radii, radius), 1, n_r - 1)
        r_lo = self.radii[upper - 1]
        frac = (radius - r_lo) / (self.radii[upper] - r_lo)
        flat = upper * n_t + np.arange(n_t)
        t_lo = self.t_right.take(flat - n_t)
        return t_lo + frac * (self.t_right.take(flat) - t_lo)

    def _scan(
        self, t1: np.ndarray, t2: np.ndarray
    ) -> tuple[_Points, _Points]:
        """Sign-change crossings and grazing vertices of every row's mismatch.

        Per row, solve ``t_L(r, theta) = t1`` for ``r`` on every angle
        column, evaluate ``g(theta) = t_R(r(theta), theta) - t2`` and take
        the linearly interpolated roots of ``g``.  Returns ``(crossings,
        vertices)``, each ``(rows, thetas, radii)`` arrays: crossings sorted
        by row, then angle, and the :meth:`_grazes` vertices in row-major
        node order.  The sort is stable, as ``sorted`` is: a crossing that
        ends on an exact-zero node and the one that starts there share
        their angle, and stay in node order.
        """
        radius = self._radius_for_left_delay(t1)
        g = self._right_delay_at(radius) - t2[:, None]
        finite = np.isfinite(g)
        gl, gr = g[:, :-1], g[:, 1:]
        cross = finite[:, :-1] & finite[:, 1:] & (
            (gl == 0.0) | ((gl < 0) != (gr < 0))
        )
        rows, nodes = np.nonzero(cross)
        gl_s = g[rows, nodes]
        span = g[rows, nodes + 1] - gl_s
        with np.errstate(invalid="ignore", divide="ignore"):
            frac = np.where(span == 0.0, 0.0, -gl_s / span)
        thetas = self.thetas_deg[nodes] + frac * (
            self.thetas_deg[nodes + 1] - self.thetas_deg[nodes]
        )
        lower = radius[rows, nodes]
        radii = lower + frac * (radius[rows, nodes + 1] - lower)
        keep = np.isfinite(radii)
        rows, thetas, radii = rows[keep], thetas[keep], radii[keep]
        order = np.lexsort((thetas, rows))
        crossings = rows[order], thetas[order], radii[order]
        return crossings, self._grazes(g, radius, crossings)

    def _grazes(
        self,
        g: np.ndarray,
        radius: np.ndarray,
        crossings: _Points,
    ) -> _Points:
        """``(rows, thetas, radii)`` of extrema of each row's ``g`` that may graze zero.

        Fit a parabola through each no-sign-change local extremum's three
        nodes and flag its vertex when the fitted peak comes within a
        generous margin of zero.  The margin is deliberately loose: near a
        tangency the true peak of ``g`` is a narrow cusp that a parabola
        through 3-degree-spaced nodes badly underestimates (observed: a
        real zero fitted as -5e-6 s), so the tolerance combines a
        curvature term with an absolute floor for the delay tables' own
        bilinear noise.  False flags are harmless — the exact re-solve in
        :meth:`_solve_zone` discards zones with no actual root.

        A vertex within a grid step of one of its row's ``crossings`` or of
        an earlier vertex of its row is dropped; only the (rare) flagged
        nodes reach that last check's loop, in row-major node order.
        """
        step = float(self.thetas_deg[1] - self.thetas_deg[0])
        g_prev, g_mid, g_next = g[:, :-2], g[:, 1:-1], g[:, 2:]
        with np.errstate(invalid="ignore", divide="ignore"):
            a = 0.5 * (g_next + g_prev - 2.0 * g_mid)
            b = 0.5 * (g_next - g_prev)
            # |x_star| = |b| / |2a| rounds to at most 1 only below
            # 1 + 2**-53, and a double above |2a| already exceeds that ratio,
            # so nodes with |b| <= |2a| (the extrema of g) hold every node
            # the full test below can flag.
            rows, nodes = np.nonzero(np.abs(b) <= 2.0 * np.abs(a))
            a, b = a[rows, nodes], b[rows, nodes]
            g_prev, g_mid, g_next = (g[rows, nodes + k] for k in range(3))
            neg_prev, neg_mid, neg_next = g_prev < 0, g_mid < 0, g_next < 0
            x_star = np.where(a != 0.0, -b / (2.0 * a), np.nan)
            g_vertex = g_mid - np.where(a != 0.0, b * b / (4.0 * a), np.nan)
            tolerance = 2.0 * np.abs(a) + 1e-6
            mask = (
                np.isfinite(g_prev) & np.isfinite(g_mid) & np.isfinite(g_next)
                # Sign changes at the neighbouring nodes were already found.
                & (neg_prev == neg_mid) & (neg_mid == neg_next)
                & (a != 0.0)
                & (np.abs(x_star) <= 1.0)
                & (
                    ((a < 0) & neg_mid & (g_vertex >= -tolerance))
                    | ((a > 0) & ~neg_mid & (g_vertex <= tolerance))
                )
            )
        rows, nodes, x = rows[mask], nodes[mask], x_star[mask]  # row-major
        thetas = self.thetas_deg[nodes + 1] + x * step
        neighbour = np.where(x >= 0, nodes + 2, nodes)
        centre = radius[rows, nodes + 1]
        radii = centre + np.abs(x) * (radius[rows, neighbour] - centre)
        cross_rows, cross_thetas, _ = crossings
        near_crossing = (
            (rows[:, None] == cross_rows[None, :])
            & (np.abs(cross_thetas[None, :] - thetas[:, None]) <= step)
        ).any(axis=1)
        keep = np.flatnonzero(np.isfinite(radii) & ~near_crossing)
        kept: dict[int, list[float]] = {}
        accepted = []
        for k, row, theta in zip(
            keep.tolist(), rows[keep].tolist(), thetas[keep].tolist()
        ):
            earlier = kept.setdefault(row, [])
            if not any(abs(theta_v - theta) <= step for theta_v in earlier):
                earlier.append(theta)
                accepted.append(k)
        return rows[accepted], thetas[accepted], radii[accepted]

    def _refine_grazing(
        self,
        t_left: float,
        t_right: float,
        ordered: list[LocalizationCandidate],
        vertices: list[tuple[float, float]],
    ) -> list[LocalizationCandidate]:
        """Re-solve grazing-zone roots against the *exact* delay model.

        ``ordered`` are one probe's table crossings sorted by angle and
        ``vertices`` its ``(theta, radius)`` grazing vertices, as
        :meth:`_scan` finds them.

        Near the ear axis (theta ~ 90 deg) the two iso-delay trajectories
        meet almost tangentially, so ``g(theta)`` hugs zero over several
        grid steps.  The linear scan then fails in two ways:

        * **tangential touch** — ``g`` grazes zero between nodes with no
          sign change at all, so the root is missed entirely;
        * **close root pairs** — ``g`` dips through zero and back within
          a couple of grid steps; the crossings exist but the strong
          curvature makes linear interpolation mislocate them by up to
          half a step.

        Both cases are cheap to detect on the tabulated ``g`` and rare in
        practice, so each detected zone is re-solved *without* tables:
        per fine angle, bisect the radius where the exact left-ear delay
        equals ``t_left`` (delay is strictly increasing in radius), then
        read the sign-change roots of the exact right-ear mismatch.  Well
        separated roots — the generic front/back pair — pass through
        untouched.
        """
        step = float(self.thetas_deg[1] - self.thetas_deg[0])
        #: Each zone is (theta_lo, theta_hi, r_center, fallback candidates).
        zones: list[tuple[float, float, float, list[LocalizationCandidate]]] = []
        out: list[LocalizationCandidate] = []

        i = 0
        while i < len(ordered):
            j = i
            while (
                j + 1 < len(ordered)
                and ordered[j + 1].theta_deg - ordered[j].theta_deg <= 1.2 * step
            ):
                j += 1
            if j > i:
                cluster = ordered[i : j + 1]
                zones.append((
                    cluster[0].theta_deg - 1.5 * step,
                    cluster[-1].theta_deg + 1.5 * step,
                    cluster[0].radius_m,
                    cluster,
                ))
            else:
                out.append(ordered[i])
            i = j + 1

        for theta, r_here in vertices:
            zones.append((
                theta - 1.5 * step,
                theta + 1.5 * step,
                r_here,
                [LocalizationCandidate(r_here, theta)],
            ))

        for theta_lo, theta_hi, r_center, fallback in zones:
            theta_lo = max(theta_lo, float(self.thetas_deg[0]))
            theta_hi = min(theta_hi, float(self.thetas_deg[-1]))
            refined = self._solve_zone(t_left, t_right, theta_lo, theta_hi, r_center)
            # None means the zone could not be re-solved (keep the coarse
            # fallback); an empty list means the exact model confidently
            # found no root there (a false flag — drop it).
            for candidate in fallback if refined is None else refined:
                if not any(
                    abs(candidate.theta_deg - kept.theta_deg) <= 0.5 * step
                    for kept in out
                ):
                    out.append(candidate)
        return out

    def _solve_zone(
        self,
        t_left: float,
        t_right: float,
        theta_lo: float,
        theta_hi: float,
        r_center: float,
    ) -> list[LocalizationCandidate] | None:
        """Exact (table-free) roots of the delay mismatch over one zone.

        Per fine angle, bisect the radius where the exact left-ear delay
        equals ``t_left``, evaluate the exact right-ear mismatch ``g``, and
        return its linearly interpolated sign-change roots.  When ``g``
        only touches zero (a true tangency) the grazing extremum's parabola
        vertex is the root.  An empty list is an authoritative "no root in
        this zone"; ``None`` means the zone could not be solved (bisection
        never bracketed ``t_left``).  Costs ~850 vectorized path
        evaluations, only on the rare ear-axis probes.
        """
        thetas = np.linspace(theta_lo, theta_hi, 33)
        floor = max(r_center - 0.04, max(self.head.parameters) + 0.005, self.radii[0])
        lo = np.full(thetas.shape, floor)
        hi = np.full(thetas.shape, r_center + 0.04)
        t_l = t_r = None
        for _ in range(26):
            mid = 0.5 * (lo + hi)
            t_l, t_r = self._delays_for(polar_to_cartesian(mid, thetas))
            go_up = t_l < t_left
            lo = np.where(go_up, mid, lo)
            hi = np.where(go_up, hi, mid)
        mid = 0.5 * (lo + hi)
        # Columns whose bisection never bracketed t_left sit pinned at a
        # bound with a delay mismatch far above the solver's resolution.
        valid = np.abs(t_l - t_left) < 1e-7
        if valid.sum() < 3:
            return None
        g = np.where(valid, t_r - t_right, np.nan)

        roots: list[LocalizationCandidate] = []
        for i in range(thetas.shape[0] - 1):
            if not (valid[i] and valid[i + 1]):
                continue
            if g[i] == 0.0 or (g[i] < 0) != (g[i + 1] < 0):
                span = g[i + 1] - g[i]
                frac = 0.0 if span == 0 else float(-g[i] / span)
                roots.append(LocalizationCandidate(
                    float(mid[i] + frac * (mid[i + 1] - mid[i])),
                    float(thetas[i] + frac * (thetas[i + 1] - thetas[i])),
                ))
        if roots:
            return roots

        # No crossing: a true tangency, if the extremum reaches zero.
        if np.nanmax(g) < 0.0:
            pivot = int(np.nanargmax(g))
        elif np.nanmin(g) > 0.0:
            pivot = int(np.nanargmin(g))
        else:
            return []
        pivot = min(max(pivot, 1), thetas.shape[0] - 2)
        window = g[pivot - 1 : pivot + 2]
        if not np.all(np.isfinite(window)):
            return []
        a = 0.5 * (window[2] + window[0] - 2.0 * window[1])
        b = 0.5 * (window[2] - window[0])
        if a == 0.0:
            return []
        x_star = float(np.clip(-b / (2.0 * a), -1.0, 1.0))
        g_vertex = window[1] - b * b / (4.0 * a)
        # A cusp-shaped peak straddling a node fits a vertex as low as
        # ~0.75|a| even when the true peak is exactly zero, hence the
        # full-|a| margin.
        if abs(g_vertex) > abs(a) + 1e-8:
            return []
        fine_step = float(thetas[1] - thetas[0])
        theta_star = float(thetas[pivot] + x_star * fine_step)
        neighbour = pivot + 1 if x_star >= 0 else pivot - 1
        r_star = float(mid[pivot] + abs(x_star) * (mid[neighbour] - mid[pivot]))
        return [LocalizationCandidate(r_star, theta_star)]

    def _candidates(self, t_left: np.ndarray, t_right: np.ndarray) -> _Points:
        """``(rows, thetas, radii)`` of every probe's candidates, in list order.

        One array pass over the probes whose delays are both finite.  A
        coarse map returns each row's crossings, sorted by angle, then its
        grazing vertices.  A refined map re-solves grazing zones per probe
        (:meth:`_refine_grazing`) and memoizes each delay pair's candidates
        (``localize.invert_cache_hits`` counts repeats, in-batch ones
        included).
        """
        t1 = np.asarray(t_left, dtype=float)
        t2 = np.asarray(t_right, dtype=float)
        probes = np.flatnonzero(np.isfinite(t1) & np.isfinite(t2))
        if not self.refine:
            crossings, vertices = self._scan(t1[probes], t2[probes])
            rows, thetas, radii = (
                np.concatenate(parts) for parts in zip(crossings, vertices)
            )
            return probes[rows], thetas, radii
        keys = list(zip(t1[probes].tolist(), t2[probes].tolist()))
        found = {key: self._invert_cache.get(key) for key in keys}
        todo = [key for key, cands in found.items() if cands is None]
        if len(keys) > len(todo):  # memo hits and in-batch repeats
            hits = len(keys) - len(todo)
            obs_metrics.counter("localize.invert_cache_hits").inc(hits)
        if todo:
            crossings, vertices = self._scan(*np.array(todo).T)
            ordered = _per_row(len(todo), crossings, _candidate)
            grazes = _per_row(len(todo), vertices, lambda theta, r: (theta, r))
            for row, key in enumerate(todo):
                refined = self._refine_grazing(*key, ordered[row], grazes[row])
                found[key] = tuple(refined)
                if len(self._invert_cache) >= _INVERT_CACHE_MAX:
                    self._invert_cache.clear()
                self._invert_cache[key] = found[key]
        per_probe = [found[key] for key in keys]
        flat = [c for cands in per_probe for c in cands]
        return (
            np.repeat(probes, [len(cands) for cands in per_probe]),
            np.array([c.theta_deg for c in flat], dtype=float),
            np.array([c.radius_m for c in flat], dtype=float),
        )

    def invert_batch(
        self, t_left: np.ndarray, t_right: np.ndarray
    ) -> list[list[LocalizationCandidate]]:
        """All phone locations consistent with each measured delay pair.

        Per probe, up to a handful of candidates (generically two: one in
        front, one behind — the paper's A and B in Figure 10b).  Empty when
        the delays are non-finite or inconsistent with any grid location,
        which the fusion stage penalizes.
        """
        points = self._candidates(t_left, t_right)
        return _per_row(np.shape(t_left)[0], points, _candidate)

    def invert(self, t_left: float, t_right: float) -> list[LocalizationCandidate]:
        """:meth:`invert_batch` for one delay pair."""
        return self.invert_batch(np.array([t_left]), np.array([t_right]))[0]

    def locate_batch(
        self,
        t_left: np.ndarray,
        t_right: np.ndarray,
        imu_angles_deg: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each probe's candidate closest to its IMU angle (paper's disambiguation).

        Returns ``(theta_deg, radius_m, solved)`` arrays; unsolved probes
        (non-finite delays or no consistent grid location) carry NaN angles
        and radii with ``solved`` False — the layout fusion consumes.  Ties
        go to the probe's first candidate in :meth:`invert_batch` order.
        """
        rows, thetas, radii = self._candidates(t_left, t_right)
        alphas = np.asarray(imu_angles_deg, dtype=float)
        distance = np.abs(thetas - alphas[rows])
        order = np.lexsort((np.arange(rows.size), distance, rows))
        best = order[np.flatnonzero(np.diff(rows[order], prepend=-1))]
        n = alphas.shape[0]
        out_thetas = np.full(n, np.nan)
        out_radii = np.full(n, np.nan)
        solved = np.zeros(n, dtype=bool)
        out_thetas[rows[best]] = thetas[best]
        out_radii[rows[best]] = radii[best]
        solved[rows[best]] = True
        return out_thetas, out_radii, solved

    def locate(
        self, t_left: float, t_right: float, imu_angle_deg: float
    ) -> LocalizationCandidate | None:
        """:meth:`locate_batch` for one probe; ``None`` when it is unsolved."""
        thetas, radii, solved = self.locate_batch(
            np.array([t_left]), np.array([t_right]), np.array([imu_angle_deg])
        )
        if not solved[0]:
            return None
        return LocalizationCandidate(float(radii[0]), float(thetas[0]))


#: LRU store of built maps.  ~34 KB per coarse fusion map, so the default
#: capacity comfortably holds every unique vertex of one optimizer run plus
#: the full-resolution final maps of several recent sessions.
_MAP_CACHE: OrderedDict[tuple, DelayMap] = OrderedDict()
_MAP_CACHE_MAX = 256
_MAP_CACHE_LOCK = threading.Lock()


#: Decimal places for quantizing continuous cache-key components: 1e-9 m
#: (a nanometer) absorbs ulp-level arithmetic noise from callers that pass
#: geometry through algebra (salvage retries, online refinement) while
#: staying five orders of magnitude below the optimizer's xatol (2e-4 m),
#: so numerically distinct candidate heads never collapse onto one entry.
MAP_KEY_DECIMALS = 9


def quantize_key_component(value: float) -> float:
    """Deterministic quantization for continuous delay-map key components.

    Two values within the quantization tolerance always address the same
    :func:`cached_delay_map` entry.
    """
    return round(float(value), MAP_KEY_DECIMALS)


def _map_cache_key(
    parameters: tuple[float, float, float],
    n_boundary: int,
    radii: tuple[float, float, int],
    thetas: tuple[float, float, int],
    model: str,
    refine: bool,
) -> tuple:
    a, b, c = (quantize_key_component(v) for v in parameters)
    return (
        a,
        b,
        c,
        int(n_boundary),
        tuple(radii),
        tuple(thetas),
        model,
        bool(refine),
    )


def cached_delay_map(
    parameters: tuple[float, float, float],
    n_boundary: int = DEFAULT_BOUNDARY_SAMPLES,
    radii: tuple[float, float, int] = DEFAULT_RADII,
    thetas: tuple[float, float, int] = DEFAULT_THETAS,
    model: str = "diffraction",
    refine: bool = True,
) -> DelayMap:
    """A :class:`DelayMap` for ``E = (a, b, c)``, memoized process-wide.

    The fusion optimizer, repeated personalizations of one session, and the
    evaluation cohort all rebuild maps for head parameter vectors they have
    already seen; a hit skips both the :class:`HeadGeometry` boundary build
    and the full batch diffraction solve.  Maps are immutable after
    construction (a refined map memoizes its ``invert`` results), so
    sharing one instance across callers cannot change any numeric output.

    Hits/misses are counted under ``localize.delay_map_cache_hits`` /
    ``_misses``; :func:`clear_delay_map_cache` empties the store (tests,
    memory-pressure escape hatch).  Nothing is persisted: a process builds
    its own maps (a miss costs ~0.35 ms for the fusion's coarse grid and
    ~2.4 ms for its final grid on a 2-core x86 VM), and the on-disk
    :mod:`repro.core.mapstore` keeps head-search outcomes instead.
    """
    key = _map_cache_key(parameters, n_boundary, radii, thetas, model, refine)
    with _MAP_CACHE_LOCK:
        cached = _MAP_CACHE.get(key)
        if cached is not None:
            _MAP_CACHE.move_to_end(key)
            obs_metrics.counter("localize.delay_map_cache_hits").inc()
            return cached
    # Build outside the lock: a concurrent duplicate build wastes one solve
    # but never blocks other threads behind a construction (~0.35 ms for the
    # fusion's coarse grid, ~2.4 ms for its final grid).
    obs_metrics.counter("localize.delay_map_cache_misses").inc()
    a, b, c = (float(v) for v in parameters)
    head = HeadGeometry(a=a, b=b, c=c, n_boundary=int(n_boundary))
    built = DelayMap(head, radii, thetas, model=model, refine=refine)
    with _MAP_CACHE_LOCK:
        existing = _MAP_CACHE.get(key)
        if existing is not None:
            return existing
        _MAP_CACHE[key] = built
        while len(_MAP_CACHE) > _MAP_CACHE_MAX:
            _MAP_CACHE.popitem(last=False)
    return built


def delay_map_cache_size() -> int:
    """Number of maps currently held by :func:`cached_delay_map`."""
    with _MAP_CACHE_LOCK:
        return len(_MAP_CACHE)


def clear_delay_map_cache() -> None:
    """Drop every memoized map (the hit/miss counters are left untouched)."""
    with _MAP_CACHE_LOCK:
        _MAP_CACHE.clear()
