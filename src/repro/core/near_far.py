"""Near-to-far HRTF conversion (Section 4.3, Figure 12).

A far-field source at angle theta sends *parallel* rays that intersect the
near-field measurement trajectory at many points.  Three critical rays
organize the conversion:

- ray ``B -> L`` that ends at the left ear,
- ray ``D -> R`` that ends at the right ear,
- ray ``C -> Q`` that hits the head where the surface is perpendicular to
  the incoming direction.

Rays crossing the trajectory on the arc ``[C, B]`` diffract toward the left
ear; rays on ``[C, D]`` go right; rays outside ``[B, D]`` miss both.  UNIQ
therefore synthesizes the far-field left-ear HRTF as the (first-tap aligned)
average of the near-field left-ear HRTFs measured on ``[C, B]``, and
similarly for the right — then fine-tunes the interaural delay and the
amplitudes using the plane-wave diffraction model with the learned head
parameters.

The module also contains :func:`ray_decomposition_attempt`, a working
implementation of the paper's "Attempt 1" (speaker-beamforming
decomposition), kept to demonstrate *why* it fails: the two-speaker
beamforming matrix is numerically ill-conditioned, exactly as the paper
reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import GeometryError, SignalError
from repro.geometry.head import Ear, HeadGeometry
from repro.geometry.plane_wave import plane_wave_arrival
from repro.geometry.vec import angle_deg_of, unit_from_angle_deg
from repro.hrtf.hrir import BinauralIR
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.physics import far_field_first_tap_gain
from repro.quality.flags import QualityCollector
from repro.quality.report import degradation_score
from repro.signals.correlation import align_to_first_tap
from repro.signals.delays import apply_fractional_delay
from repro.core.interpolation import NearFieldMeasurement

_PRE_SAMPLES = 12

#: Sentinel thresholds (docs/ROBUSTNESS.md).  Every target angle needs two
#: trajectory arcs populated with measurements; empty arcs fall back to the
#: nearest measurements, which is fine at the sweep edges (grazing arcs are
#: geometrically tiny) but means the conversion is extrapolating when it
#: happens across a large fraction of the grid.
_FALLBACK_GOOD = 0.35
_FALLBACK_BAD = 0.9


def _backtrack_to_radius(anchor: np.ndarray, u: np.ndarray, radius: float) -> np.ndarray:
    """The point ``anchor - s*u`` (s > 0) lying on the circle of ``radius``.

    ``u`` is the propagation direction, so walking ``-u`` from the anchor
    retraces the incoming ray toward the source side of the trajectory.
    """
    b = float(np.dot(anchor, u))
    disc = b * b - float(np.dot(anchor, anchor)) + radius * radius
    if disc < 0:
        raise GeometryError(
            f"trajectory radius {radius} too small to intersect ray at {anchor}"
        )
    s = b + np.sqrt(disc)
    return anchor - s * u


def critical_trajectory_angles(
    head: HeadGeometry,
    theta_deg: float,
    trajectory_radius_m: float,
    arrivals: dict | None = None,
) -> tuple[float, float, float]:
    """The Figure 12 anchor angles ``(phi_B, phi_C, phi_D)`` on the trajectory.

    ``phi_B`` bounds the arc feeding the left ear, ``phi_D`` the right,
    ``phi_C`` is the normal-incidence divider.  ``arrivals`` maps each ear
    to its :func:`plane_wave_arrival` at ``theta_deg`` when the caller has
    already solved them.
    """
    if arrivals is None:
        arrivals = {ear: plane_wave_arrival(head, theta_deg, ear) for ear in Ear}
    u = -unit_from_angle_deg(theta_deg)  # propagation direction
    boundary = head.boundary
    # Q: boundary point most squarely facing the incoming wave.
    facing = -np.einsum("ij,j->i", boundary.normals, u)
    q_point = boundary.points[int(np.argmax(facing))]
    phi_c = float(angle_deg_of(_backtrack_to_radius(q_point, u, trajectory_radius_m)))

    anchors = {}
    for ear, arrival in arrivals.items():
        anchor = (
            head.ear_position(ear)
            if arrival.grazing_point is None
            else arrival.grazing_point
        )
        anchors[ear] = float(
            angle_deg_of(_backtrack_to_radius(anchor, u, trajectory_radius_m))
        )
    return anchors[Ear.LEFT], phi_c, anchors[Ear.RIGHT]


def _arc_interval(phi_from: float, phi_to: float) -> tuple[float, float]:
    """Normalized (lo, hi) interval between two trajectory angles."""
    return (phi_from, phi_to) if phi_from <= phi_to else (phi_to, phi_from)


@dataclass
class NearFarConverter:
    """Synthesizes far-field HRIRs from near-field measurements.

    Parameters
    ----------
    fs:
        Sample rate.
    min_arc_measurements:
        If an arc contains fewer measurements than this, the nearest
        measurements to the arc midpoint are used instead (sparse sweeps).
    """

    fs: int
    min_arc_measurements: int = 1

    def convert_angle(
        self,
        measurements: list[NearFieldMeasurement],
        head: HeadGeometry,
        theta_deg: float,
        trajectory_radius_m: float,
        fallbacks: list[int] | None = None,
        aligned: dict | None = None,
    ) -> BinauralIR:
        """Far-field HRIR pair for one target angle.

        When ``fallbacks`` is given, the number of arcs (0–2) that had no
        in-arc measurements and fell back to nearest-measurement selection
        is appended to it — :meth:`convert` aggregates these counts into
        the stage's arc-support sentinel.  ``aligned`` memoizes the
        first-tap aligned HRIR per ``(measurement index, ear)`` across the
        angles of one :meth:`convert` call.
        """
        if not measurements:
            raise SignalError("no near-field measurements to convert")
        n = measurements[0].hrir.n_samples
        angles = np.array([m.angle_deg for m in measurements])

        arrivals = {ear: plane_wave_arrival(head, theta_deg, ear) for ear in Ear}
        phi_b, phi_c, phi_d = critical_trajectory_angles(
            head, theta_deg, trajectory_radius_m, arrivals
        )
        arcs = {Ear.LEFT: _arc_interval(phi_c, phi_b), Ear.RIGHT: _arc_interval(phi_c, phi_d)}

        aligned = {} if aligned is None else aligned
        averaged = {}
        n_fallback = 0
        for ear, (lo, hi) in arcs.items():
            in_arc = np.flatnonzero((angles >= lo) & (angles <= hi))
            if in_arc.shape[0] < self.min_arc_measurements:
                n_fallback += 1
                midpoint = 0.5 * (lo + hi)
                order = np.argsort(np.abs(angles - midpoint))
                in_arc = order[: max(self.min_arc_measurements, 1)]
            for i in in_arc:
                if (i, ear) not in aligned:
                    aligned[i, ear] = align_to_first_tap(
                        measurements[i].hrir.ear(ear), n, _PRE_SAMPLES
                    )
            averaged[ear] = np.mean([aligned[i, ear] for i in in_arc], axis=0)

        # Fine-tune interaural delay and amplitudes from the plane-wave
        # model with the learned head parameters.  Scaling anchors on the
        # *first tap* (which the model predicts), not the strongest tap —
        # a pinna echo can exceed the first tap, and normalizing by it
        # would corrupt the interaural level difference.
        reference = min(a.delay for a in arrivals.values())
        tuned = {}
        for ear in Ear:
            signal = averaged[ear]
            first_tap = float(
                np.max(np.abs(signal[_PRE_SAMPLES - 1 : _PRE_SAMPLES + 2]))
            )
            if first_tap == 0.0:
                raise SignalError("averaged near-field HRIR has no first tap")
            gain = float(far_field_first_tap_gain(arrivals[ear].wrap_arc)) / first_tap
            shift = (arrivals[ear].delay - reference) * self.fs
            tuned[ear] = apply_fractional_delay(signal * gain, shift, output_length=n)
        if fallbacks is not None:
            fallbacks.append(n_fallback)
        return BinauralIR(left=tuned[Ear.LEFT], right=tuned[Ear.RIGHT], fs=self.fs)

    def convert(
        self,
        measurements: list[NearFieldMeasurement],
        head: HeadGeometry,
        angle_grid_deg: np.ndarray,
        trajectory_radius_m: float | None = None,
        quality: QualityCollector | None = None,
    ) -> list[BinauralIR]:
        """Far-field HRIRs for every angle in ``angle_grid_deg``.

        ``quality`` collects the arc-support sentinel: the fraction of
        (angle, ear) arcs that were empty and fell back to
        nearest-measurement averaging.
        """
        radius = (
            trajectory_radius_m
            if trajectory_radius_m is not None
            else float(np.median([m.radius_m for m in measurements]))
        )
        grid = np.asarray(angle_grid_deg, dtype=float)
        fallbacks: list[int] = []
        aligned: dict = {}
        with obs_trace.span(
            "near_far.convert",
            n_angles=int(grid.shape[0]),
            n_measurements=len(measurements),
            trajectory_radius_m=radius,
        ) as convert_span:
            converted = [
                self.convert_angle(
                    measurements, head, float(theta), radius, fallbacks, aligned
                )
                for theta in grid
            ]
            obs_metrics.counter("near_far.angles_converted").inc(len(converted))
            fallback_fraction = (
                float(sum(fallbacks)) / (2.0 * grid.shape[0]) if grid.shape[0] else 0.0
            )
            obs_metrics.counter("near_far.arc_fallbacks").inc(int(sum(fallbacks)))
            convert_span.update(fallback_fraction=fallback_fraction)
            if quality is not None:
                quality.component(
                    "near_far.arc_support",
                    degradation_score(
                        fallback_fraction, _FALLBACK_GOOD, _FALLBACK_BAD
                    ),
                )
                if fallback_fraction > _FALLBACK_GOOD:
                    quality.flag(
                        "near_far",
                        "arc_fallback",
                        "warn",
                        f"{fallback_fraction:.0%} of conversion arcs had no "
                        "in-arc measurements and fell back to the nearest "
                        "measurement",
                        value=fallback_fraction,
                        threshold=_FALLBACK_GOOD,
                    )
        return converted


def ray_decomposition_attempt(
    n_rays: int = 19,
    n_patterns: int = 24,
    speaker_spacing_m: float = 0.14,
    frequency_hz: float = 2000.0,
) -> float:
    """Condition number of the paper's "Attempt 1" beamforming system.

    The paper tried to decompose each near-field measurement into per-ray
    components by sweeping time-varying two-speaker beamforming patterns
    ``w_t(theta)`` (its Eq. 6) and solving the linear system for
    ``H(X_k, theta_i)``.  With only two speakers the achievable patterns are
    cosine-shaped and the system matrix is catastrophically rank-deficient.
    This function builds that matrix for a phone-sized speaker pair and
    returns its condition number — typically >> 1e6, documenting the
    failure mode the paper describes.
    """
    if n_rays < 2 or n_patterns < 2:
        raise SignalError("need at least 2 rays and 2 patterns")
    wavelength = 343.0 / frequency_hz
    ray_angles = np.deg2rad(np.linspace(0.0, 180.0, n_rays))
    rows = []
    for k in range(n_patterns):
        phase = 2 * np.pi * k / n_patterns
        # Two-element array factor: |1 + e^{j(kd cos(theta) + phase)}|.
        array_phase = (
            2 * np.pi * speaker_spacing_m / wavelength * np.cos(ray_angles) + phase
        )
        rows.append(np.abs(1.0 + np.exp(1j * array_phase)))
    matrix = np.vstack(rows)
    singular = np.linalg.svd(matrix, compute_uv=False)
    smallest = float(singular.min())
    return float(singular.max() / max(smallest, 1e-300))
