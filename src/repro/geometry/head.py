"""The paper's two-half-ellipse head model (Section 4.1, Figure 8).

The head cross-section (the horizontal plane through both ears) is modeled as
two half-ellipses joined at the ear line:

- the *front* half (nose side, ``y >= 0``) is half of an ellipse with
  semi-axes ``(a, b)``,
- the *back* half (``y <= 0``) is half of an ellipse with semi-axes
  ``(a, c)``.

``a`` is the half-width of the head, so both ears lie exactly on the boundary
at ``(+a, 0)`` (left) and ``(-a, 0)`` (right).  The composite is convex and
C0-continuous, with matching vertical tangents at the ears, which is exactly
what the wrap-around diffraction path computation in
:mod:`repro.geometry.paths` relies on.

The paper avoids spherical models because heads are not front/back symmetric;
the three scalars ``E = (a, b, c)`` are the "head parameters" that UNIQ's
sensor-fusion stage estimates per user.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass, field

import numpy as np

from repro import constants
from repro.errors import GeometryError

#: Number of boundary samples used for wrap-path computation.  720 samples on
#: a ~60 cm circumference is <1 mm spacing — far below a 48 kHz sample period
#: (~7 mm of travel), so discretization never moves a channel tap.
DEFAULT_BOUNDARY_SAMPLES = 720

_MIN_AXIS_M = 0.02
_MAX_AXIS_M = 0.30


@functools.lru_cache(maxsize=16)
def _vertex_trig(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Read-only ``sin``/``cos`` of ``n`` uniform boundary angles, as :meth:`HeadGeometry.boundary_point` takes them.

    Returns ``(sin, cos)`` of the angles that place the points, then
    ``(sin, cos)`` of the ones :meth:`HeadGeometry.radius_at` sees after
    the degree round trip.  No head axis enters them, so every head with
    ``n`` boundary samples shares one copy.
    """
    psi = np.deg2rad(np.arange(n) * (360.0 / n))
    radial = np.deg2rad(np.rad2deg(psi))
    trig = (np.sin(psi), np.cos(psi), np.sin(radial), np.cos(radial))
    for values in trig:
        values.flags.writeable = False
    return trig


class Ear(enum.Enum):
    """Which ear a path or channel refers to."""

    LEFT = "left"
    RIGHT = "right"

    @property
    def sign(self) -> int:
        """+1 for the left ear (at ``(+a, 0)``), -1 for the right."""
        return 1 if self is Ear.LEFT else -1

    @property
    def opposite(self) -> "Ear":
        return Ear.RIGHT if self is Ear.LEFT else Ear.LEFT


@dataclass(frozen=True)
class _Boundary:
    """Densely sampled head boundary with cached per-vertex data.

    Vertices run counter-clockwise in the library frame starting at the nose
    (``psi = 0``), i.e. in order of increasing polar angle psi: nose ->
    left ear (index ``n/4``) -> back (``n/2``) -> right ear (``3n/4``).
    """

    points: np.ndarray  # (n, 2) vertices
    normals: np.ndarray  # (n, 2) outward unit normals
    cumulative_arc: np.ndarray  # (n + 1,) arc length from vertex 0, closed
    left_ear_index: int
    right_ear_index: int

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def perimeter(self) -> float:
        return float(self.cumulative_arc[-1])

    def arc_between(self, i: int, j: int, direction: int) -> float:
        """Arc length walking from vertex ``i`` to vertex ``j``.

        ``direction`` is +1 to walk in order of increasing index (counter-
        clockwise) and -1 for the other way.  The result is in
        ``[0, perimeter)``.
        """
        forward = (self.cumulative_arc[j] - self.cumulative_arc[i]) % self.perimeter
        if direction >= 0:
            return float(forward)
        return float((self.perimeter - forward) % self.perimeter)


@dataclass(frozen=True)
class HeadGeometry:
    """Composite two-half-ellipse head with parameters ``E = (a, b, c)``.

    Parameters
    ----------
    a:
        Head half-width (m); the ears sit at ``(+-a, 0)``.
    b:
        Front half-ellipse depth (m): head center to nose-tip plane.
    c:
        Back half-ellipse depth (m): head center to the back of the head.
    n_boundary:
        Number of boundary samples (must be a multiple of 4 so both ears
        fall exactly on sample vertices).
    """

    a: float
    b: float
    c: float
    n_boundary: int = DEFAULT_BOUNDARY_SAMPLES
    _boundary: _Boundary = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name, value in (("a", self.a), ("b", self.b), ("c", self.c)):
            if not np.isfinite(value) or not _MIN_AXIS_M <= value <= _MAX_AXIS_M:
                raise GeometryError(
                    f"head axis {name}={value!r} outside plausible range "
                    f"[{_MIN_AXIS_M}, {_MAX_AXIS_M}] m"
                )
        if self.n_boundary < 16 or self.n_boundary % 4 != 0:
            raise GeometryError(
                f"n_boundary must be a multiple of 4 and >= 16, got {self.n_boundary}"
            )
        object.__setattr__(self, "_boundary", self._build_boundary())

    @classmethod
    def average(cls, n_boundary: int = DEFAULT_BOUNDARY_SAMPLES) -> "HeadGeometry":
        """The population-average head used for the global HRTF template."""
        return cls(
            a=constants.AVERAGE_HEAD_HALF_WIDTH_M,
            b=constants.AVERAGE_HEAD_FRONT_DEPTH_M,
            c=constants.AVERAGE_HEAD_BACK_DEPTH_M,
            n_boundary=n_boundary,
        )

    @property
    def parameters(self) -> tuple[float, float, float]:
        """The head parameter vector ``E = (a, b, c)``."""
        return (self.a, self.b, self.c)

    def with_parameters(self, a: float, b: float, c: float) -> "HeadGeometry":
        """A new geometry with the same resolution and new axes."""
        return HeadGeometry(a=a, b=b, c=c, n_boundary=self.n_boundary)

    def ear_position(self, ear: Ear) -> np.ndarray:
        """Cartesian position of an ear on the boundary."""
        return np.array([ear.sign * self.a, 0.0])

    def radius_at(self, psi_deg: float | np.ndarray) -> np.ndarray:
        """Boundary radius at polar angle(s) ``psi`` (degrees, nose = 0)."""
        psi = np.deg2rad(np.asarray(psi_deg, dtype=float))
        return self._radius(np.sin(psi), np.cos(psi))

    def _radius(self, s: np.ndarray, co: np.ndarray) -> np.ndarray:
        """Boundary radius at the polar angle(s) with sine ``s`` and cosine ``co``."""
        depth = np.where(co >= 0.0, self.b, self.c)
        return 1.0 / np.sqrt((s / self.a) ** 2 + (co / depth) ** 2)

    def boundary_point(self, psi_deg: float | np.ndarray) -> np.ndarray:
        """Boundary point(s) at polar angle(s) ``psi`` (degrees)."""
        psi = np.deg2rad(np.asarray(psi_deg, dtype=float))
        r = self.radius_at(np.rad2deg(psi))
        return np.stack([r * np.sin(psi), r * np.cos(psi)], axis=-1)

    def outward_normal(self, point: np.ndarray) -> np.ndarray:
        """Outward unit normal of the boundary at/near ``point``.

        Uses the analytic ellipse gradient of whichever half contains the
        point's ``y`` sign; at the ear line both halves agree.
        """
        p = np.asarray(point, dtype=float)
        depth = np.where(p[..., 1] >= 0.0, self.b, self.c)
        grad = np.stack([p[..., 0] / self.a**2, p[..., 1] / depth**2], axis=-1)
        length = np.linalg.norm(grad, axis=-1, keepdims=True)
        return grad / length

    def contains(self, point: np.ndarray, margin: float = 0.0) -> bool | np.ndarray:
        """Whether point(s) lie strictly inside the head (shrunk by ``margin``).

        ``margin`` > 0 treats a thin shell inside the boundary as outside,
        which the path solver uses to keep grazing rays numerically stable.
        """
        p = np.asarray(point, dtype=float)
        depth = np.where(p[..., 1] >= 0.0, self.b, self.c)
        level = (p[..., 0] / self.a) ** 2 + (p[..., 1] / depth) ** 2
        inside = level < (1.0 - margin) ** 2
        return bool(inside) if np.ndim(inside) == 0 else inside

    @property
    def boundary(self) -> _Boundary:
        """The cached dense boundary sampling."""
        return self._boundary

    def _build_boundary(self) -> _Boundary:
        n = self.n_boundary
        # boundary_point at n uniform angles, its trig taken from the cache.
        sin_psi, cos_psi, sin_radial, cos_radial = _vertex_trig(n)
        r = self._radius(sin_radial, cos_radial)
        points = np.stack([r * sin_psi, r * cos_psi], axis=-1)
        normals = self.outward_normal(points)
        closed = np.vstack([points, points[:1]])
        seglen = np.linalg.norm(np.diff(closed, axis=0), axis=1)
        cumulative = np.concatenate([[0.0], np.cumsum(seglen)])
        return _Boundary(
            points=points,
            normals=normals,
            cumulative_arc=cumulative,
            left_ear_index=n // 4,
            right_ear_index=3 * n // 4,
        )

    def ear_index(self, ear: Ear) -> int:
        """Boundary vertex index of an ear."""
        b = self.boundary
        return b.left_ear_index if ear is Ear.LEFT else b.right_ear_index
