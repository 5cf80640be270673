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
the horizons equal the scalar solver's and path lengths agree with it to
floating-point rounding of the final sums (the test suite asserts
< 1e-12 m).
"""

from __future__ import annotations

import numpy as np

from repro.constants import SPEED_OF_SOUND
from repro.errors import GeometryError
from repro.geometry.head import Ear, HeadGeometry


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
    source, because the origin lies inside the head.  By convexity the
    visible vertices form one arc around the anchor, so walking forward
    (backward) from the anchor the vertices stay visible up to the last
    (first) visible vertex and are hidden after it.  Binary lifting finds
    that offset for all sources at once in ``ceil(log2(n / 2))`` steps of
    ``O(m)`` each.  Sources inside the head return arbitrary valid indices;
    callers mask them.
    """
    table = _vertex_table(head)
    xs, ys = np.ascontiguousarray(sources.T)
    n = head.n_boundary
    half = n // 2
    # boundary_point samples uniform psi with x = r sin(psi), y = r cos(psi).
    psi = np.arctan2(sources[:, 0], sources[:, 1])
    anchor = np.rint(psi * (n / (2.0 * np.pi))).astype(np.intp) % n
    # Row 0 walks forward to the last visible vertex, row 1 backward to the
    # first; ``reach`` is each row's largest offset known to stay visible.
    direction = np.array([[1], [-1]], dtype=np.intp)
    reach = np.zeros((2, sources.shape[0]), dtype=np.intp)
    step = 1 << ((half - 1).bit_length() - 1)  # highest bit of any offset
    while step:
        offset = reach + step
        index = (anchor + direction * offset) % n
        seen = (offset < half) & _faces(np.take(table, index, axis=1), xs, ys)
        reach = np.where(seen, offset, reach)
        step >>= 1
    return (anchor - reach[1]) % n, (anchor + reach[0]) % n


def _ear_lengths(
    head: HeadGeometry,
    sources: np.ndarray,
    ear: Ear,
    tangents: list[tuple[np.ndarray, np.ndarray, int]],
    inside: np.ndarray,
) -> np.ndarray:
    boundary = head.boundary
    ear_index = head.ear_index(ear)
    ear_visible = _faces(
        _vertex_table(head)[:, ear_index], sources[:, 0], sources[:, 1]
    )
    direct_length = np.linalg.norm(
        sources - head.ear_position(ear)[None, :], axis=1
    )

    cum = boundary.cumulative_arc
    perimeter = boundary.perimeter
    wrapped = []
    for straight, tangent_arc, travel_sign in tangents:
        forward = (cum[ear_index] - tangent_arc) % perimeter
        arc = forward if travel_sign >= 0 else (perimeter - forward) % perimeter
        wrapped.append(straight + arc)
    lengths = np.where(ear_visible, direct_length, np.minimum(*wrapped))
    return np.where(inside, np.nan, lengths)


def _path_lengths(
    head: HeadGeometry, sources: np.ndarray, ears: tuple[Ear, ...]
) -> list[np.ndarray]:
    """Path lengths from each source row to each of ``ears``."""
    sources = np.asarray(sources, dtype=float)
    if sources.ndim != 2 or sources.shape[1] != 2:
        raise GeometryError(f"sources must have shape (m, 2), got {sources.shape}")
    inside = head.contains(sources)
    boundary = head.boundary
    first_visible, last_visible = _horizon_indices(head, sources)
    # Wrapping from the last visible vertex continues counter-clockwise
    # (increasing index) through the shadow, from the first one clockwise.
    # The straight legs to both tangent points are shared by the two ears.
    tangents = [
        (
            np.linalg.norm(sources - boundary.points[index], axis=1),
            boundary.cumulative_arc[index],
            travel_sign,
        )
        for index, travel_sign in ((last_visible, +1), (first_visible, -1))
    ]
    return [_ear_lengths(head, sources, ear, tangents, inside) for ear in ears]


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
