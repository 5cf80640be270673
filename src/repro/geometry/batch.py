"""Vectorized diffraction-path lengths for many sources at once.

UNIQ's sensor-fusion stage re-localizes every probe for every candidate head
parameter vector the optimizer tries, which needs *tens of thousands* of
source-to-ear path evaluations per personalization.  This module reimplements
the wrap-around shortest-path logic of :mod:`repro.geometry.paths` as pure
array operations over a whole batch of source points.  A path needs only
three visibility facts per source: whether the ear vertex faces it, and the
two endpoints of its contiguous visible arc.  The ear test is one dot
product per source; the arc endpoints come from a bisection over the sampled
boundary, vectorized across sources, in ``ceil(log2(n_boundary / 2))``
steps.  No ``(m_sources, n_boundary)`` array is ever built.

Each visibility test is the scalar solver's sign test, term for term, so
the horizons equal the scalar solver's and every wrapped path length equals
it exactly.  Only the direct leg differs: :func:`binaural_delays_batch`
measures it from :meth:`HeadGeometry.ear_position` ``(+-a, 0)``, while
:func:`repro.geometry.paths.propagation_path` measures it from the ear's
boundary vertex, whose ``y`` is a rounding residue (about ``5e-18`` m), so a
few direct lengths differ in the last bit (about ``6e-17`` m).

Rendering a table needs the scalar solvers' values bit for bit, so its two
kernels reproduce them exactly: :func:`near_field_paths` (the direct leg
from the vertex, the wrap arc of the chosen candidate) and
:func:`plane_wave_arrivals` (the far-field counterpart of
:func:`repro.geometry.plane_wave.plane_wave_arrival`).  Wherever the scalar
solvers take a value from ``np.dot`` on 2-vectors, which runs through BLAS
and may fuse the multiply-add, these kernels use ``np.vecdot``, which rounds
the same way; ``a * b + c * d`` does not.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.constants import SPEED_OF_SOUND
from repro.errors import GeometryError
from repro.geometry.head import Ear, HeadGeometry
from repro.geometry.vec import unit_from_angle_deg


def _vertex_table(head: HeadGeometry) -> np.ndarray:
    """``(4, n)`` rows ``nx, ny, px, py``: one gather fetches a sign test."""
    boundary = head.boundary
    return np.concatenate([boundary.normals.T, boundary.points.T])


def _faces(vertex: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Whether gathered vertices ``(nx, ny, px, py)`` face sources ``(xs, ys)``.

    The sign test ``n·(s - p) > 0``, term for term as the scalar solver
    computes it.
    """
    nx, ny, px, py = vertex
    return nx * (xs - px) + ny * (ys - py) > 0.0


def _horizon_indices(
    head: HeadGeometry, sources: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-source visibility horizons over the sampled boundary.

    Returns ``(first_visible, last_visible)``, the vertex indices at the two
    ends of each source's contiguous visible arc.  Computed once and shared
    between both ears.

    The search starts from each source's *anchor*: the vertex at the
    source's own polar angle, which every source that sees any vertex sees
    (one that sees none sits within a sampling gap of the boundary, and the
    scalar solver rejects it).  The vertex half a turn on never faces the
    source, because the origin lies inside the head.  Sources inside the
    head return arbitrary valid indices; callers mask them.
    """
    xs, ys = np.ascontiguousarray(sources.T)
    psi = np.arctan2(sources[:, 0], sources[:, 1])
    return _arc_ends(head, psi, lambda vertex: _faces(vertex, xs, ys))


def _arc_ends(
    head: HeadGeometry, psi: np.ndarray, faces: Callable[[np.ndarray], np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Ends ``(first, last)`` of each row's contiguous arc of ``faces`` vertices.

    ``faces`` maps gathered vertex rows ``(nx, ny, px, py)`` to one boolean
    per row.  The vertex nearest polar angle ``psi`` must pass and the one
    half a turn on must fail.  By convexity the passing vertices form one arc
    around that anchor, so walking forward (backward) from the anchor the
    vertices pass up to the last (first) one and fail after it.  Binary
    lifting finds that offset for all rows at once in ``ceil(log2(n / 2))``
    steps of ``O(m)`` each.
    """
    table = _vertex_table(head)
    n = head.n_boundary
    half = n // 2
    # boundary_point samples uniform psi with x = r sin(psi), y = r cos(psi).
    anchor = np.rint(psi * (n / (2.0 * np.pi))).astype(np.intp) % n
    # Row 0 walks forward to the last passing vertex, row 1 backward to the
    # first; ``reach`` is each row's largest offset known to pass.
    direction = np.array([[1], [-1]], dtype=np.intp)
    reach = np.zeros((2, psi.shape[0]), dtype=np.intp)
    step = 1 << ((half - 1).bit_length() - 1)  # highest bit of any offset
    while step:
        offset = reach + step
        index = (anchor + direction * offset) % n
        seen = (offset < half) & faces(np.take(table, index, axis=1))
        reach = np.where(seen, offset, reach)
        step >>= 1
    return (anchor - reach[1]) % n, (anchor + reach[0]) % n


def _wrap_candidates(
    head: HeadGeometry,
    ear_index: int,
    tangents: list[tuple[np.ndarray, np.ndarray, int]],
) -> list[tuple[np.ndarray, np.ndarray]]:
    """``(total, arc)`` of each tangent candidate, as ``arc_between`` sums it."""
    cum = head.boundary.cumulative_arc
    perimeter = head.boundary.perimeter
    candidates = []
    for straight, tangent_arc, travel_sign in tangents:
        forward = (cum[ear_index] - tangent_arc) % perimeter
        arc = forward if travel_sign >= 0 else (perimeter - forward) % perimeter
        candidates.append((straight + arc, arc))
    return candidates


def _ear_lengths(
    head: HeadGeometry,
    sources: np.ndarray,
    ear: Ear,
    tangents: list[tuple[np.ndarray, np.ndarray, int]],
    inside: np.ndarray,
) -> np.ndarray:
    ear_index = head.ear_index(ear)
    ear_visible = _faces(
        _vertex_table(head)[:, ear_index], sources[:, 0], sources[:, 1]
    )
    direct_length = np.linalg.norm(
        sources - head.ear_position(ear)[None, :], axis=1
    )
    (first, _), (second, _) = _wrap_candidates(head, ear_index, tangents)
    lengths = np.where(ear_visible, direct_length, np.minimum(first, second))
    return np.where(inside, np.nan, lengths)


def _path_lengths(
    head: HeadGeometry, sources: np.ndarray, ears: tuple[Ear, ...]
) -> list[np.ndarray]:
    """Path lengths from each source row to each of ``ears``."""
    sources = _as_sources(sources)
    inside = head.contains(sources)
    tangents = _tangent_legs(head, sources, *_horizon_indices(head, sources))
    return [_ear_lengths(head, sources, ear, tangents, inside) for ear in ears]


def _as_sources(sources: np.ndarray) -> np.ndarray:
    sources = np.asarray(sources, dtype=float)
    if sources.ndim != 2 or sources.shape[1] != 2:
        raise GeometryError(f"sources must have shape (m, 2), got {sources.shape}")
    return sources


def _tangent_legs(
    head: HeadGeometry,
    sources: np.ndarray,
    first_visible: np.ndarray,
    last_visible: np.ndarray,
) -> list[tuple[np.ndarray, np.ndarray, int]]:
    """``(straight leg, tangent vertex arc, travel sign)`` of both candidates.

    Wrapping from the last visible vertex continues counter-clockwise
    (increasing index) through the shadow, from the first one clockwise.
    The straight legs to both tangent points are shared by the two ears.
    """
    boundary = head.boundary
    return [
        (
            np.linalg.norm(sources - boundary.points[index], axis=1),
            boundary.cumulative_arc[index],
            travel_sign,
        )
        for index, travel_sign in ((last_visible, +1), (first_visible, -1))
    ]


def binaural_delays_batch(
    head: HeadGeometry,
    sources: np.ndarray,
    speed_of_sound: float = SPEED_OF_SOUND,
) -> tuple[np.ndarray, np.ndarray]:
    """(left, right) first-tap delays in seconds for each source row.

    The horizon search and the straight legs to the tangent points are
    computed once and shared between the two ears.
    """
    left, right = _path_lengths(head, sources, (Ear.LEFT, Ear.RIGHT))
    return left / speed_of_sound, right / speed_of_sound


def near_field_paths(
    head: HeadGeometry, sources: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``propagation_path`` length and wrap arc for each source row, exactly.

    Returns ``(lengths, wrap_arcs)``, each ``(2, m)``: row 0 is the left
    ear, row 1 the right.  As in the scalar solver, the direct leg starts at
    the ear's boundary vertex, and the first tangent candidate wins unless
    the second is strictly shorter; the wrap arc follows that choice.

    Raises
    ------
    GeometryError
        If a source lies inside the head or sees no boundary vertex.
    """
    sources = _as_sources(sources)
    inside = head.contains(sources)
    if np.any(inside):
        raise GeometryError(f"source {sources[inside][0]} lies inside the head")
    table = _vertex_table(head)
    xs, ys = sources[:, 0], sources[:, 1]
    first_visible, last_visible = _horizon_indices(head, sources)
    # A source that sees any vertex sees its arc's ends (see _arc_ends).
    blind = ~_faces(np.take(table, first_visible, axis=1), xs, ys)
    if np.any(blind):
        raise GeometryError(f"no boundary point visible from {sources[blind][0]}")
    tangents = _tangent_legs(head, sources, first_visible, last_visible)
    boundary = head.boundary
    lengths = np.empty((2, sources.shape[0]))
    wrap_arcs = np.empty_like(lengths)
    for row, ear in enumerate((Ear.LEFT, Ear.RIGHT)):
        ear_index = head.ear_index(ear)
        to_source = sources - boundary.points[ear_index]
        direct = np.vecdot(boundary.normals[ear_index], to_source) > 0.0
        (first, first_arc), (second, second_arc) = _wrap_candidates(
            head, ear_index, tangents
        )
        shorter = second < first
        lengths[row] = np.where(
            direct,
            np.linalg.norm(to_source, axis=1),
            np.where(shorter, second, first),
        )
        wrap_arcs[row] = np.where(direct, 0.0, np.where(shorter, second_arc, first_arc))
    return lengths, wrap_arcs


def plane_wave_arrivals(
    head: HeadGeometry,
    theta_deg: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``plane_wave_arrival`` for each angle of ``theta_deg`` and both ears, exactly.

    Returns ``(delays, wrap_arcs, anchors)``: ``delays`` and ``wrap_arcs``
    are ``(2, m)``, row 0 the left ear and row 1 the right; ``anchors`` is
    ``(2, m, 2)``, the grazing point of a shadowed ear and the ear position
    of an illuminated one.  Ties between the two grazing candidates go to
    the first, as in the scalar solver.
    """
    theta = np.asarray(theta_deg, dtype=float)
    if theta.ndim != 1 or not np.all(np.isfinite(theta)):
        raise GeometryError("theta_deg must be a 1D array of finite angles")
    u = -unit_from_angle_deg(theta)  # propagation directions, (m, 2)
    ux, uy = np.ascontiguousarray(u.T)
    boundary = head.boundary

    def lit(vertex: np.ndarray) -> np.ndarray:
        # The scalar ``einsum`` test, term for term.
        nx, ny, _, _ = vertex
        return nx * ux + ny * uy < 0.0

    # The vertex at a source direction's polar angle faces that direction.
    first_lit, last_lit = _arc_ends(head, np.deg2rad(theta), lit)
    tangents = [
        (np.vecdot(boundary.points[index], u), boundary.cumulative_arc[index], sign)
        for index, sign in ((last_lit, +1), (first_lit, -1))
    ]
    delays = np.empty((2, theta.shape[0]))
    wrap_arcs = np.empty_like(delays)
    anchors = np.empty((2, theta.shape[0], 2))
    for row, ear in enumerate((Ear.LEFT, Ear.RIGHT)):
        ear_pos = head.ear_position(ear)
        ear_index = head.ear_index(ear)
        illuminated = np.vecdot(head.outward_normal(ear_pos), u) < 0.0
        candidates = [
            (total / SPEED_OF_SOUND, arc, boundary.points[index])
            for (total, arc), index in zip(
                _wrap_candidates(head, ear_index, tangents), (last_lit, first_lit)
            )
        ]
        (first, first_arc, first_at), (second, second_arc, second_at) = candidates
        shorter = second < first
        delays[row] = np.where(
            illuminated,
            np.vecdot(ear_pos, u) / SPEED_OF_SOUND,
            np.where(shorter, second, first),
        )
        wrap_arcs[row] = np.where(
            illuminated, 0.0, np.where(shorter, second_arc, first_arc)
        )
        anchors[row] = np.where(
            illuminated[:, None],
            ear_pos,
            np.where(shorter[:, None], second_at, first_at),
        )
    return delays, wrap_arcs, anchors
