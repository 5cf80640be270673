"""Vectorized diffraction-path lengths for many sources at once.

UNIQ's sensor-fusion stage re-localizes every probe for every candidate head
parameter vector the optimizer tries, which needs *tens of thousands* of
source-to-ear path evaluations per personalization.  This module reimplements
the wrap-around shortest-path logic of :mod:`repro.geometry.paths` as pure
array operations over a whole batch of source points.  A path needs only
three visibility facts per source: whether the ear vertex faces it, and the
two endpoints of its contiguous visible arc.  The ear test is one dot
product per source.  The arc endpoints are read off the closed-form tangent
points from the source to the head's two half-ellipses, and five sign tests
per source certify them; the few sources they cannot certify (inside the
head, between two boundary samples, on a tangent) take a binary lifting
over the sampled boundary, in ``ceil(log2(n_boundary / 2))`` vectorized
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


#: Ear order of every ``(2, m)`` result: row 0 the left ear, row 1 the right.
_EARS = (Ear.LEFT, Ear.RIGHT)


def _vertex_table(head: HeadGeometry) -> np.ndarray:
    """``(4, n)`` rows ``nx, ny, px, py``: one gather fetches a sign test."""
    boundary = head.boundary
    return np.concatenate([boundary.normals.T, boundary.points.T])


def _facing(vertex: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """``n·(s - p)`` of gathered vertices ``(nx, ny, px, py)`` and sources ``(xs, ys)``.

    Term for term as the scalar solver computes it; a vertex faces a source
    where this is positive.
    """
    nx, ny, px, py = vertex
    return nx * (xs - px) + ny * (ys - py)


def _faces(vertex: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Whether gathered vertices ``(nx, ny, px, py)`` face sources ``(xs, ys)``."""
    return _facing(vertex, xs, ys) > 0.0


#: How far the sign tests of a seeded horizon must clear zero.  One test
#: rounds by about ``1e-17`` on sub-metre coordinates, so a margin this size
#: leaves no doubt about any certified sign.
_SEED_MARGIN = 1e-12

#: Signs the seed's five certificate tests must have, in the order of
#: :func:`_horizon_indices`'s probes ``(last, last + 1, first, first - 1,
#: anchor)``: the ends and the anchor face the source, the vertices just
#: past the ends do not.
_SEED_SIGNS = np.array([[1.0], [-1.0], [1.0], [-1.0], [1.0]])

#: ``±`` of the forward and backward tangent points in :func:`_seed_angles`.
_TANGENT_SIGNS = np.array([[[1.0]], [[-1.0]]])


def _seed_angles(head: HeadGeometry, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """``(3, m)`` polar angles: each source's forward and backward tangent point, itself.

    Row 0 is the tangent point reached walking forward (increasing vertex
    index) from the source's polar angle, row 1 the one reached walking
    backward, row 2 the source's own angle; all in ``[-pi, pi]``.  On the
    ellipse of depth ``d`` the source is ``(u, v) = (x / a, y / d)`` in the
    frame where the ellipse is the unit circle, whose tangent points from it
    are ``((u ± k v) / r2, (v ∓ k u) / r2)`` with ``r2 = u² + v²`` and
    ``k = sqrt(r2 - 1)``; back in the head's frame, and scaled by ``r2``
    (which no polar angle sees), they are ``(x ± k (a/d) y, y ∓ k (d/a) x)``.
    The head's tangent point lies on the front half exactly when the front
    ellipse's one does (the halves share their tangents at the ears).  A
    source inside an ellipse gets NaN for its tangents.
    """
    a = head.a
    depth = np.array([[head.b], [head.c]])  # front half, back half
    xa = xs / a
    yd = ys / depth
    with np.errstate(invalid="ignore"):
        k = np.sqrt(xa * xa + yd * yd - 1.0)
    # (tangent, half, m): the forward tangent first, then the backward one.
    along = xs + _TANGENT_SIGNS * (k * (a * yd))
    up = ys - _TANGENT_SIGNS * (k * (depth * xa))
    front = up[:, 0] >= 0.0
    tangents = np.arctan2(
        np.where(front, along[:, 0], along[:, 1]),
        np.where(front, up[:, 0], up[:, 1]),
    )
    return np.concatenate([tangents, np.arctan2(xs, ys)[None]])


def _horizon_indices(
    head: HeadGeometry, table: np.ndarray, xs: np.ndarray, ys: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-source visibility horizons over the sampled boundary.

    ``table`` is the head's :func:`_vertex_table`.  Returns
    ``(first_visible, last_visible)``, the vertex indices at the two ends of
    each source's contiguous visible arc, exactly as :func:`_arc_ends`
    finds them.  Computed once and shared between both ears.

    Each source's ends are seeded from its analytic tangent points
    (:func:`_seed_angles`): the last visible vertex is the one at or before
    the forward tangent, the first the one at or after the backward
    tangent.  A seed is kept only when its certificate holds, each sign
    test clearing zero by :data:`_SEED_MARGIN`: both ends face the source,
    the vertices just past them do not, and the anchor :func:`_arc_ends`
    starts from faces it.  By convexity the visible vertices then run from
    one end to the other through the anchor, the arc :func:`_arc_ends`
    walks.  Every other row (inside the head, in a sampling gap, near a
    tangent) goes through :func:`_arc_ends`, whose rows for sources inside
    the head are arbitrary valid indices that callers mask.
    """
    n = table.shape[1]
    angles = _seed_angles(head, xs, ys)
    positions = angles * (n / (2.0 * np.pi))
    with np.errstate(invalid="ignore"):  # NaN tangents cast to any index
        seeds = np.stack([
            np.floor(positions[0]), np.ceil(positions[1]), np.rint(positions[2])
        ]).astype(np.intp)
    # Seeds lie in [-n/2, n/2], so they and the probes one vertex past the
    # ends index a doubled table from offset n without wrapping; ``clip``
    # keeps the arbitrary indices of NaN rows, which fail, in range.
    probes = seeds[[0, 0, 1, 1, 2]] + np.array([[n], [n + 1], [n], [n - 1], [n]])
    vertices = [row.take(probes, mode="clip") for row in np.tile(table, 2)]
    seeded = (_facing(vertices, xs, ys) * _SEED_SIGNS > _SEED_MARGIN).all(axis=0)
    ends = probes[[2, 0]]
    first, last = np.where(ends >= n, ends - n, ends)
    rest = np.flatnonzero(~seeded)
    if rest.size:
        rest_xs, rest_ys = xs[rest], ys[rest]
        first[rest], last[rest] = _arc_ends(
            table, angles[2, rest], lambda vertex: _faces(vertex, rest_xs, rest_ys)
        )
    return first, last


def _arc_ends(
    table: np.ndarray, psi: np.ndarray, faces: Callable[[np.ndarray], np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Ends ``(first, last)`` of each row's contiguous arc of ``faces`` vertices.

    ``faces`` maps gathered rows ``(nx, ny, px, py)`` of the ``(4, n)``
    vertex ``table`` to one boolean per row.  The vertex nearest polar angle
    ``psi`` must pass and the one half a turn on must fail.  By convexity the
    passing vertices form one arc around that anchor, so walking forward
    (backward) from the anchor the vertices pass up to the last (first) one
    and fail after it.  Binary lifting finds that offset for all rows at
    once in ``ceil(log2(n / 2))`` steps of ``O(m)`` each.
    """
    n = table.shape[1]
    half = n // 2
    # boundary_point samples uniform psi with x = r sin(psi), y = r cos(psi);
    # psi lies in [-pi, pi], so the anchor needs at most one turn added.
    anchor = np.rint(psi * (n / (2.0 * np.pi))).astype(np.intp)
    anchor = np.where(anchor < 0, anchor + n, anchor)
    # Every tried offset is below n, so the walk stays inside three copies
    # of the table around the anchor's middle copy and needs no wrapping.
    tiled = np.tile(table, 3)
    start = anchor + n
    # Row 0 walks forward to the last passing vertex, row 1 backward to the
    # first; ``reach`` is each row's largest offset known to pass.
    direction = np.array([[1], [-1]], dtype=np.intp)
    reach = np.zeros((2, psi.shape[0]), dtype=np.intp)
    step = 1 << ((half - 1).bit_length() - 1)  # highest bit of any offset
    while step:
        offset = reach + step
        seen = (offset < half) & faces(
            np.take(tiled, start + direction * offset, axis=1)
        )
        reach = np.where(seen, offset, reach)
        step >>= 1
    first = anchor - reach[1]
    last = anchor + reach[0]
    return np.where(first < 0, first + n, first), np.where(last >= n, last - n, last)


def _wrap_arcs(
    head: HeadGeometry, last: np.ndarray, first: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(2, m)`` arcs from the two tangent vertices to each ear, as ``arc_between``.

    Wrapping from the ``last`` visible vertex continues counter-clockwise
    (increasing index) through the shadow, from the ``first`` one
    clockwise.  ``arc_between``'s float ``% perimeter`` is a conditional
    ``+ perimeter`` on ``(-P, P)`` and a conditional ``- perimeter`` on
    ``(0, P]``, where it rounds the same.
    """
    boundary_arc = head.boundary.cumulative_arc
    perimeter = head.boundary.perimeter
    ear_arc = boundary_arc[[head.ear_index(ear) for ear in _EARS], None]
    forward = ear_arc - boundary_arc[last]
    after_last = np.where(forward < 0.0, forward + perimeter, forward)
    forward = ear_arc - boundary_arc[first]
    forward = np.where(forward < 0.0, forward + perimeter, forward)
    back = perimeter - forward
    return after_last, np.where(back >= perimeter, back - perimeter, back)


def _path_lengths(head: HeadGeometry, sources: np.ndarray) -> np.ndarray:
    """``(2, m)`` path lengths from each source row to the left and right ear.

    Ear visibility, the direct legs and both wrap candidates are ``(2, m)``
    passes, one row per ear; the straight legs to the two tangent vertices
    are one ``(2, m)`` pass shared by both ears.  Norms are
    ``sqrt(dx*dx + dy*dy)``, which rounds as ``np.linalg.norm`` on 2-vectors.
    """
    sources = _as_sources(sources)
    xs, ys = np.ascontiguousarray(sources.T)
    table = _vertex_table(head)
    first, last = _horizon_indices(head, table, xs, ys)
    ear_index = [head.ear_index(ear) for ear in _EARS]
    ear_visible = _faces(table[:, ear_index, None], xs, ys)
    ear_x, ear_y = np.array([head.ear_position(ear) for ear in _EARS]).T[:, :, None]
    dx, dy = xs - ear_x, ys - ear_y
    direct = np.sqrt(dx * dx + dy * dy)
    tangent = np.stack([last, first])
    dx, dy = xs - table[2].take(tangent), ys - table[3].take(tangent)
    straight = np.sqrt(dx * dx + dy * dy)
    after_last, after_first = _wrap_arcs(head, last, first)
    wrapped = np.minimum(straight[0] + after_last, straight[1] + after_first)
    lengths = np.where(ear_visible, direct, wrapped)
    return np.where(head.contains(sources), np.nan, lengths)


def _as_sources(sources: np.ndarray) -> np.ndarray:
    sources = np.asarray(sources, dtype=float)
    if sources.ndim != 2 or sources.shape[1] != 2:
        raise GeometryError(f"sources must have shape (m, 2), got {sources.shape}")
    return sources


def binaural_delays_batch(
    head: HeadGeometry,
    sources: np.ndarray,
    speed_of_sound: float = SPEED_OF_SOUND,
) -> tuple[np.ndarray, np.ndarray]:
    """(left, right) first-tap delays in seconds for each source row.

    The horizon search and the straight legs to the tangent points are
    computed once and shared between the two ears.
    """
    left, right = _path_lengths(head, sources) / speed_of_sound
    return left, right


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
    xs, ys = np.ascontiguousarray(sources.T)
    table = _vertex_table(head)
    first_visible, last_visible = _horizon_indices(head, table, xs, ys)
    # A source that sees any vertex sees its arc's ends (see _arc_ends).
    blind = ~_faces(table[:, first_visible], xs, ys)
    if np.any(blind):
        raise GeometryError(f"no boundary point visible from {sources[blind][0]}")
    tangent = np.stack([last_visible, first_visible])
    dx, dy = xs - table[2].take(tangent), ys - table[3].take(tangent)
    straight = np.sqrt(dx * dx + dy * dy)
    after_last, after_first = _wrap_arcs(head, last_visible, first_visible)
    first = straight[0] + after_last
    second = straight[1] + after_first
    shorter = second < first
    wrapped = np.where(shorter, second, first)
    wrap_arc = np.where(shorter, after_first, after_last)
    lengths = np.empty((2, sources.shape[0]))
    wrap_arcs = np.empty_like(lengths)
    boundary = head.boundary
    for row, ear in enumerate(_EARS):
        index = head.ear_index(ear)
        to_source = sources - boundary.points[index]
        direct = np.vecdot(boundary.normals[index], to_source) > 0.0
        lengths[row] = np.where(direct, np.linalg.norm(to_source, axis=1), wrapped[row])
        wrap_arcs[row] = np.where(direct, 0.0, wrap_arc[row])
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
    first_lit, last_lit = _arc_ends(_vertex_table(head), np.deg2rad(theta), lit)
    after_last, after_first = _wrap_arcs(head, last_lit, first_lit)
    first = (np.vecdot(boundary.points[last_lit], u) + after_last) / SPEED_OF_SOUND
    second = (np.vecdot(boundary.points[first_lit], u) + after_first) / SPEED_OF_SOUND
    shorter = second < first
    grazing = np.where(
        shorter[:, :, None], boundary.points[first_lit], boundary.points[last_lit]
    )
    delays = np.empty((2, theta.shape[0]))
    wrap_arcs = np.empty_like(delays)
    anchors = np.empty((2, theta.shape[0], 2))
    for row, ear in enumerate(_EARS):
        ear_pos = head.ear_position(ear)
        illuminated = np.vecdot(head.outward_normal(ear_pos), u) < 0.0
        delays[row] = np.where(
            illuminated,
            np.vecdot(ear_pos, u) / SPEED_OF_SOUND,
            np.where(shorter[row], second[row], first[row]),
        )
        wrap_arcs[row] = np.where(
            illuminated, 0.0, np.where(shorter[row], after_first[row], after_last[row])
        )
        anchors[row] = np.where(illuminated[:, None], ear_pos, grazing[row])
    return delays, wrap_arcs, anchors
