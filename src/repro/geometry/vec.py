"""Small 2D vector helpers shared across the geometry package.

Points are ``numpy`` arrays of shape ``(2,)`` (or ``(n, 2)`` for batches).
Angles follow the library convention: ``theta`` in degrees, measured from the
nose direction (+y) toward the left ear (+x), so

- ``theta = 0``   -> straight ahead of the nose,
- ``theta = 90``  -> the left-ear direction,
- ``theta = 180`` -> directly behind the head.

This matches the paper's measurement sweep (sources on the user's left,
0 at the nose, 180 at the back of the head).
"""

from __future__ import annotations

import numpy as np


def unit_from_angle_deg(theta_deg: float | np.ndarray) -> np.ndarray:
    """Unit vector(s) pointing *away from the head center* at ``theta_deg``.

    >>> unit_from_angle_deg(0.0)          # nose direction
    array([0., 1.])
    >>> np.round(unit_from_angle_deg(90.0), 12)  # left-ear direction
    array([1., 0.])
    """
    theta = np.deg2rad(np.asarray(theta_deg, dtype=float))
    return np.stack([np.sin(theta), np.cos(theta)], axis=-1)


def angle_deg_of(point: np.ndarray) -> float | np.ndarray:
    """Polar angle (degrees, library convention) of point(s) about the origin.

    The result lies in ``(-180, 180]``; the left semicircle used by the paper
    maps to ``[0, 180]`` and the right semicircle to negative angles.
    """
    p = np.asarray(point, dtype=float)
    ang = np.rad2deg(np.arctan2(p[..., 0], p[..., 1]))
    return float(ang) if np.ndim(ang) == 0 else ang


def polar_to_cartesian(r: float | np.ndarray, theta_deg: float | np.ndarray) -> np.ndarray:
    """Convert polar ``(r, theta)`` to Cartesian ``(x, y)``."""
    return np.asarray(r, dtype=float)[..., None] * unit_from_angle_deg(theta_deg)


def norm(v: np.ndarray) -> float | np.ndarray:
    """Euclidean length of vector(s) along the last axis."""
    n = np.linalg.norm(np.asarray(v, dtype=float), axis=-1)
    return float(n) if np.ndim(n) == 0 else n


def normalize(v: np.ndarray) -> np.ndarray:
    """Unit vector(s) along ``v``; raises on zero vectors."""
    v = np.asarray(v, dtype=float)
    length = np.linalg.norm(v, axis=-1, keepdims=True)
    if np.any(length == 0.0):
        raise ValueError("cannot normalize a zero vector")
    return v / length


def wrap_angle_deg(angle: float | np.ndarray) -> float | np.ndarray:
    """Wrap angle(s) to ``(-180, 180]`` degrees."""
    a = np.asarray(angle, dtype=float)
    wrapped = -((-a + 180.0) % 360.0 - 180.0)
    return float(wrapped) if np.ndim(wrapped) == 0 else wrapped

