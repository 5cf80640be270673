"""3D personalization: multi-ring capture and the elevation HRTF field.

Implements the paper's Section 7 sketch of the 3D extension: "the user
would now need to move the phone on a sphere around the head, and the
motion tracking equations need to be extended to 3D."

The capture protocol generalizes the 2D sweep to several **rings**: arcs
swept in planes containing the ear axis, tilted by known angles (e.g. eye
level, tilted up 30 degrees, tilted down 30 degrees — the tilt comes from
the 3-axis gyroscope in a real device).  Every ring is exactly a 2D UNIQ
problem inside its section plane, so the whole existing pipeline runs per
ring unchanged.  The 3D pieces on top are:

1. **Head-parameter fusion across rings** — each ring's 2D fusion recovers
   the section's effective depths ``(b_eff(t), c_eff(t))``; since
   ``1/b_eff^2 = cos^2 t / b^2 + sin^2 t / d^2`` (and likewise for the
   back), a least-squares fit across >= 2 distinct tilts recovers the full
   ``E3 = (a, b, c, d)`` including the vertical axis the 2D system cannot
   see.
2. **The HRTF field** — per-ring personal tables combined into a structure
   queryable by (azimuth, elevation): a direction maps to its unique
   ear-axis great circle (tilt, in-plane angle), and the bracketing rings'
   HRIRs are interpolated.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import GeometryError, SignalError
from repro.geometry.head3d import HeadGeometry3D, direction_to_section
from repro.hrtf.hrir import BinauralIR
from repro.hrtf.table import HRTFTable, interpolate_hrir_pair
from repro.simulation.person3d import VirtualSubject3D
from repro.simulation.session import MeasurementSession, SessionData
from repro.core.pipeline import PersonalizationResult, Uniq, UniqConfig

#: Default capture rings: eye level plus one tilted up and one down.
DEFAULT_RING_TILTS_DEG = (-30.0, 0.0, 30.0)


@dataclass(frozen=True)
class HRTFField:
    """Personal HRTFs over both azimuth and elevation.

    One 2D table per capture ring; queries interpolate across rings.
    Directions whose great-circle tilt falls outside the captured ring
    range clamp to the nearest ring.
    """

    ring_tilts_deg: np.ndarray
    ring_tables: tuple[HRTFTable, ...]

    def __post_init__(self) -> None:
        tilts = np.asarray(self.ring_tilts_deg, dtype=float)
        if tilts.ndim != 1 or tilts.shape[0] < 1:
            raise GeometryError("need at least one ring")
        if not np.all(np.diff(tilts) > 0):
            raise GeometryError("ring tilts must be strictly increasing")
        if len(self.ring_tables) != tilts.shape[0]:
            raise GeometryError("one table per ring required")

    @property
    def fs(self) -> int:
        return self.ring_tables[0].fs

    def lookup(self, azimuth_deg: float, elevation_deg: float) -> BinauralIR:
        """HRIR pair for an arbitrary (azimuth, elevation) direction."""
        tilt, in_plane = direction_to_section(azimuth_deg, elevation_deg)
        tilts = self.ring_tilts_deg

        def ring_entry(index: int) -> BinauralIR:
            table = self.ring_tables[index]
            angle = float(np.clip(in_plane, *table.angle_span()))
            return table.lookup(angle, "far")

        nearest = int(np.argmin(np.abs(tilts - tilt)))
        if abs(tilts[nearest] - tilt) < 1e-6:
            return ring_entry(nearest)
        if tilt <= tilts[0]:
            return ring_entry(0)
        if tilt >= tilts[-1]:
            return ring_entry(len(self.ring_tables) - 1)
        upper = int(np.searchsorted(tilts, tilt))
        lower = upper - 1
        span = tilts[upper] - tilts[lower]
        weight = float((tilt - tilts[lower]) / span)
        return interpolate_hrir_pair(ring_entry(lower), ring_entry(upper), weight)

    def binauralize(
        self, signal: np.ndarray, azimuth_deg: float, elevation_deg: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Render a mono signal from a 3D direction."""
        return self.lookup(azimuth_deg, elevation_deg).apply(signal)


@dataclass(frozen=True)
class Personalization3DResult:
    """Output of a multi-ring 3D personalization."""

    field: HRTFField
    head: HeadGeometry3D
    ring_results: dict

    @property
    def head_parameters(self) -> tuple[float, float, float, float]:
        """The learned 3D head vector ``E3 = (a, b, c, d)``."""
        return self.head.parameters


def capture_rings(
    subject: VirtualSubject3D,
    tilts_deg: tuple[float, ...] = DEFAULT_RING_TILTS_DEG,
    seed: int = 0,
    probe_interval_s: float = 0.4,
) -> dict[float, SessionData]:
    """Simulate the spherical capture: one 2D sweep per tilted ring."""
    sessions = {}
    for i, tilt in enumerate(tilts_deg):
        effective = subject.effective_subject(float(tilt))
        sessions[float(tilt)] = MeasurementSession(
            effective, seed=seed + 101 * i, probe_interval_s=probe_interval_s
        ).run()
    return sessions


def _fit_head3d(
    ring_fusions: dict[float, PersonalizationResult]
) -> HeadGeometry3D:
    """Least-squares fit of (a, b, c, d) from per-ring effective sections.

    Each ring contributes ``a`` directly and two linear equations in
    ``X = (1/b^2, 1/c^2, 1/d^2)``.
    """
    tilts = sorted(ring_fusions)
    if len({round(abs(t), 3) for t in tilts}) < 2:
        raise GeometryError(
            "need rings at >= 2 distinct |tilts| to observe the vertical axis"
        )
    a_values = []
    rows = []
    targets = []
    for tilt in tilts:
        a_eff, b_eff, c_eff = ring_fusions[tilt].fusion.head.parameters
        a_values.append(a_eff)
        cos2 = float(np.cos(np.deg2rad(tilt)) ** 2)
        sin2 = float(np.sin(np.deg2rad(tilt)) ** 2)
        rows.append([cos2, 0.0, sin2])
        targets.append(1.0 / b_eff**2)
        rows.append([0.0, cos2, sin2])
        targets.append(1.0 / c_eff**2)
    solution, *_ = np.linalg.lstsq(np.asarray(rows), np.asarray(targets), rcond=None)
    solution = np.clip(solution, 1.0 / 0.3**2, 1.0 / 0.02**2)
    b, c, d = (float(1.0 / np.sqrt(value)) for value in solution)
    return HeadGeometry3D(a=float(np.mean(a_values)), b=b, c=c, d=d)


@dataclass
class SphericalPersonalizer:
    """Runs UNIQ per ring and assembles the 3D result.

    Parameters
    ----------
    config:
        The per-ring pipeline configuration (shared across rings).
    """

    config: UniqConfig = field(default_factory=UniqConfig)

    def personalize(
        self, ring_sessions: dict[float, SessionData]
    ) -> Personalization3DResult:
        """Personalize from one session per ring tilt.

        Raises
        ------
        GeometryError
            If fewer than two distinct |tilts| are provided (the vertical
            head axis would be unobservable).
        SignalError
            If ``ring_sessions`` is empty.
        """
        if not ring_sessions:
            raise SignalError("no ring sessions provided")
        uniq = Uniq(self.config)
        ring_results = {
            float(tilt): uniq.personalize(session)
            for tilt, session in sorted(ring_sessions.items())
        }
        head = _fit_head3d(ring_results)
        tilts = np.array(sorted(ring_results))
        tables = tuple(ring_results[float(t)].table for t in tilts)
        return Personalization3DResult(
            field=HRTFField(tilts, tables),
            head=head,
            ring_results=ring_results,
        )
