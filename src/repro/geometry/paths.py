"""Shortest acoustic path from a source to an ear around the head.

Section 2 of the paper establishes experimentally (its Figure 5) that audible
sound does **not** penetrate the head: the signal reaching the far ear travels
a *diffracted* path that leaves the source, grazes the head tangentially, and
then hugs the boundary until it reaches the ear.  For a convex obstacle this
wrap-around geodesic is the physically shortest path, so its length divided by
the speed of sound is the first-tap delay the earbud microphone observes —
the quantity Equation (1) of the paper writes as ``dt = f(a, b, c, P)``.

This module computes that path exactly (to boundary-sampling resolution) for
the composite ellipse head of :class:`repro.geometry.head.HeadGeometry`:

- if the ear is *visible* from the source, the path is the straight segment;
- otherwise the path is ``|source -> tangent point| + arc(tangent point ->
  ear)`` where the tangent point is one of the two visibility horizons of the
  source, choosing the shorter total wrap.

For a convex body a boundary point ``q`` is visible from an external point
``P`` exactly when the outward normal at ``q`` faces ``P``
(``dot(n(q), P - q) > 0``), which makes the horizon search a vectorized scan
over the pre-sampled boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.constants import SPEED_OF_SOUND
from repro.errors import GeometryError
from repro.geometry.head import Ear, HeadGeometry
from repro.geometry.vec import norm, normalize


@dataclass(frozen=True)
class PathResult:
    """Geometry of one source-to-ear propagation path.

    Attributes
    ----------
    length:
        Total path length in meters (straight segment plus wrap arc).
    direct:
        ``True`` when the ear has line of sight to the source.
    wrap_arc:
        Length of the boundary-hugging portion (0 for direct paths).
    tangent_point:
        Where the path first touches the head (``None`` for direct paths).
    arrival_direction:
        Unit vector of the propagation direction at the ear.  For direct
        paths this points from the source to the ear; for wrapped paths it is
        the boundary tangent oriented along the direction of travel.  The
        pinna multipath model keys on this direction.
    """

    length: float
    direct: bool
    wrap_arc: float
    tangent_point: Optional[np.ndarray]
    arrival_direction: np.ndarray


def _visibility_mask(head: HeadGeometry, source: np.ndarray) -> np.ndarray:
    """Boolean mask over boundary vertices visible from ``source``."""
    boundary = head.boundary
    to_source = source[None, :] - boundary.points
    return np.einsum("ij,ij->i", boundary.normals, to_source) > 0.0


def _boundary_tangent_at(head: HeadGeometry, index: int, travel_sign: int) -> np.ndarray:
    """Unit boundary tangent at vertex ``index`` oriented with ``travel_sign``.

    ``travel_sign`` is +1 when the wave travels in the direction of
    increasing vertex index (counter-clockwise), -1 otherwise.
    """
    pts = head.boundary.points
    n = pts.shape[0]
    tangent = pts[(index + 1) % n] - pts[(index - 1) % n]
    return normalize(travel_sign * tangent)


def path_to_boundary_point(
    head: HeadGeometry, source: np.ndarray, boundary_index: int
) -> PathResult:
    """Shortest acoustic path from ``source`` to any boundary vertex.

    The target can be an ear or any point "pasted on the face" — the setup
    of the paper's Section 2 diffraction experiment, where a test microphone
    is moved along the cheek.

    Raises
    ------
    GeometryError
        If the source lies inside the head.
    """
    source = np.asarray(source, dtype=float)
    if source.shape != (2,):
        raise GeometryError(f"source must be a 2D point, got shape {source.shape}")
    if head.contains(source):
        raise GeometryError(f"source {source} lies inside the head")
    boundary = head.boundary
    if not 0 <= boundary_index < boundary.n:
        raise GeometryError(
            f"boundary index {boundary_index} outside [0, {boundary.n})"
        )

    target = boundary.points[boundary_index]
    to_source = source - target
    distance = norm(to_source)
    if distance < 1e-9:
        # Source sits on the target itself (degenerate but well-defined).
        return PathResult(0.0, True, 0.0, None, np.array([0.0, 1.0]))

    if float(np.dot(boundary.normals[boundary_index], to_source)) > 0.0:
        return PathResult(
            length=float(distance),
            direct=True,
            wrap_arc=0.0,
            tangent_point=None,
            arrival_direction=normalize(target - source),
        )

    visible = _visibility_mask(head, source)
    if not visible.any():
        raise GeometryError(f"no boundary point visible from {source}")

    # The visible set of a convex body is one contiguous circular arc; its
    # two endpoints are the visibility horizons (tangent points).
    enters = visible & ~np.roll(visible, 1)  # first visible vertex (ccw)
    exits = visible & ~np.roll(visible, -1)  # last visible vertex (ccw)
    first_visible = int(np.flatnonzero(enters)[0])
    last_visible = int(np.flatnonzero(exits)[0])

    candidates = []
    # Wrapping from the *last* visible vertex continues counter-clockwise
    # (increasing index) through the shadow; from the *first* visible vertex
    # it goes clockwise.  Both eventually reach the shadowed target; the
    # physical path is the shorter.
    for tangent_index, travel_sign in ((last_visible, +1), (first_visible, -1)):
        tangent_point = boundary.points[tangent_index]
        arc = boundary.arc_between(tangent_index, boundary_index, travel_sign)
        total = float(norm(source - tangent_point)) + arc
        candidates.append((total, arc, tangent_index, travel_sign))

    total, arc, tangent_index, travel_sign = min(candidates, key=lambda c: c[0])
    return PathResult(
        length=total,
        direct=False,
        wrap_arc=arc,
        tangent_point=boundary.points[tangent_index].copy(),
        arrival_direction=_boundary_tangent_at(head, boundary_index, travel_sign),
    )


def propagation_path(head: HeadGeometry, source: np.ndarray, ear: Ear) -> PathResult:
    """Shortest acoustic path from an external ``source`` to ``ear``.

    Raises
    ------
    GeometryError
        If the source lies inside the head.
    """
    return path_to_boundary_point(head, source, head.ear_index(ear))


def path_delay(
    head: HeadGeometry,
    source: np.ndarray,
    ear: Ear,
    speed_of_sound: float = SPEED_OF_SOUND,
) -> float:
    """First-tap arrival delay (seconds) from ``source`` to ``ear``."""
    return propagation_path(head, source, ear).length / speed_of_sound


def binaural_delays(
    head: HeadGeometry,
    source: np.ndarray,
    speed_of_sound: float = SPEED_OF_SOUND,
) -> tuple[float, float]:
    """(left, right) first-tap delays in seconds for one source position."""
    return (
        path_delay(head, source, Ear.LEFT, speed_of_sound),
        path_delay(head, source, Ear.RIGHT, speed_of_sound),
    )


def euclidean_delay(
    head: HeadGeometry,
    source: np.ndarray,
    ear: Ear,
    speed_of_sound: float = SPEED_OF_SOUND,
) -> float:
    """Straight-line delay ignoring diffraction (ablation baseline).

    This is the "through the head" model the paper's Section 2 experiment
    rules out; localization built on it is the diffraction ablation,
    ``repro.eval.ablation_diffraction_model``.
    """
    source = np.asarray(source, dtype=float)
    return float(norm(source - head.ear_position(ear))) / speed_of_sound
