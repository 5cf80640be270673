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
from repro.geometry.batch import plane_wave_arrivals
from repro.geometry.head import Ear, HeadGeometry
from repro.geometry.vec import angle_deg_of, unit_from_angle_deg
from repro.hrtf.hrir import BinauralIR
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.physics import far_field_first_tap_gain
from repro.quality.flags import QualityCollector
from repro.quality.report import degradation_score
from repro.signals.correlation import align_to_first_tap_batch
from repro.signals.delays import apply_fractional_delay_batch
from repro.core.interpolation import NearFieldMeasurement, hrir_length

_PRE_SAMPLES = 12

#: Sentinel thresholds (docs/ROBUSTNESS.md).  Every target angle needs two
#: trajectory arcs populated with measurements; empty arcs fall back to the
#: nearest measurements, which is fine at the sweep edges (grazing arcs are
#: geometrically tiny) but means the conversion is extrapolating when it
#: happens across a large fraction of the grid.
_FALLBACK_GOOD = 0.35
_FALLBACK_BAD = 0.9

#: Grid angles per block of the facing search for Q.
_FACING_BLOCK = 256


def _backtrack_angles(anchors: np.ndarray, u: np.ndarray, radius: float) -> np.ndarray:
    """Trajectory angle of ``anchor - s*u`` (s > 0) on the circle of ``radius``.

    One row per target angle.  ``u`` is the propagation direction, so
    walking ``-u`` from the anchor retraces the incoming ray toward the
    source side of the trajectory.
    """
    b = np.vecdot(anchors, u)
    disc = b * b - np.vecdot(anchors, anchors) + radius * radius
    short = disc < 0
    if np.any(short):
        raise GeometryError(
            f"trajectory radius {radius} too small to intersect ray at "
            f"{anchors[short][0]}"
        )
    s = b + np.sqrt(disc)
    return angle_deg_of(anchors - s[:, None] * u)


def _critical_angles(
    head: HeadGeometry,
    theta_deg: np.ndarray,
    trajectory_radius_m: float,
    anchors: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Figure 12 anchor angles ``(phi_B, phi_C, phi_D)`` per target angle.

    ``phi_B`` bounds the arc feeding the left ear, ``phi_D`` the right,
    ``phi_C`` is the normal-incidence divider.  ``anchors`` are the
    per-ear plane-wave anchors of
    :func:`repro.geometry.batch.plane_wave_arrivals`.
    """
    u = -unit_from_angle_deg(theta_deg)  # propagation directions
    boundary = head.boundary
    # Q: boundary point most squarely facing the incoming wave.  Blocks of
    # angles bound the (angles, n_boundary) temporaries on fine grids.
    nx, ny = boundary.normals.T
    q_index = np.empty(u.shape[0], dtype=np.intp)
    for start in range(0, u.shape[0], _FACING_BLOCK):
        ub = u[start : start + _FACING_BLOCK]
        facing = -(nx[None, :] * ub[:, :1] + ny[None, :] * ub[:, 1:])
        q_index[start : start + ub.shape[0]] = np.argmax(facing, axis=1)
    q_points = boundary.points[q_index]
    phi_c = _backtrack_angles(q_points, u, trajectory_radius_m)
    phi_b, phi_d = (
        _backtrack_angles(anchor, u, trajectory_radius_m) for anchor in anchors
    )
    return phi_b, phi_c, phi_d


@dataclass
class NearFarConverter:
    """Synthesizes far-field HRIRs from near-field measurements.

    Parameters
    ----------
    fs:
        Sample rate.
    """

    fs: int

    def convert(
        self,
        measurements: list[NearFieldMeasurement],
        head: HeadGeometry,
        angle_grid_deg: np.ndarray,
        trajectory_radius_m: float | None = None,
        quality: QualityCollector | None = None,
    ) -> list[BinauralIR]:
        """Far-field HRIRs for every angle in ``angle_grid_deg``.

        Every grid angle is computed at once, as array kernels over the
        grid.  ``quality`` collects the arc-support sentinel: the fraction
        of (angle, ear) arcs that were empty and fell back to
        nearest-measurement averaging.
        """
        if not measurements:
            raise SignalError("no near-field measurements to convert")
        radius = (
            trajectory_radius_m
            if trajectory_radius_m is not None
            else float(np.median([m.radius_m for m in measurements]))
        )
        grid = np.asarray(angle_grid_deg, dtype=float)
        with obs_trace.span(
            "near_far.convert",
            n_angles=int(grid.shape[0]),
            n_measurements=len(measurements),
            trajectory_radius_m=radius,
        ) as convert_span:
            left, right, n_fallback = self._convert_grid(
                measurements, head, grid, radius
            )
            converted = [
                BinauralIR(left=l, right=r, fs=self.fs) for l, r in zip(left, right)
            ]
            obs_metrics.counter("near_far.angles_converted").inc(len(converted))
            fallback_fraction = (
                float(n_fallback) / (2.0 * grid.shape[0]) if grid.shape[0] else 0.0
            )
            obs_metrics.counter("near_far.arc_fallbacks").inc(n_fallback)
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

    def _convert_grid(
        self,
        measurements: list[NearFieldMeasurement],
        head: HeadGeometry,
        grid: np.ndarray,
        radius: float,
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Far-field ``(left, right)`` rows per grid angle, and the arc fallbacks."""
        n = hrir_length(measurements)
        angles = np.array([m.angle_deg for m in measurements])
        delays, wrap_arcs, anchors = plane_wave_arrivals(head, grid)
        phi_b, phi_c, phi_d = _critical_angles(head, grid, radius, anchors)
        # Fine-tune interaural delay and amplitudes from the plane-wave
        # model with the learned head parameters.  Scaling anchors on the
        # *first tap* (which the model predicts), not the strongest tap —
        # a pinna echo can exceed the first tap, and normalizing by it
        # would corrupt the interaural level difference.
        reference = np.where(delays[1] < delays[0], delays[1], delays[0])
        n_fallback = 0
        tuned = []
        for ear, phi, delay, wrap_arc in zip(Ear, (phi_b, phi_d), delays, wrap_arcs):
            aligned = align_to_first_tap_batch(
                np.stack([m.hrir.ear(ear) for m in measurements]), n, _PRE_SAMPLES
            )
            averaged, fallbacks = self._arc_means(aligned, angles, phi_c, phi)
            n_fallback += fallbacks
            first_tap = np.max(
                np.abs(averaged[:, _PRE_SAMPLES - 1 : _PRE_SAMPLES + 2]), axis=1
            )
            if np.any(first_tap == 0.0):
                raise SignalError("averaged near-field HRIR has no first tap")
            gain = far_field_first_tap_gain(wrap_arc) / first_tap
            tuned.append(
                apply_fractional_delay_batch(
                    averaged * gain[:, None],
                    (delay - reference) * self.fs,
                    output_length=n,
                )
            )
        return tuned[0], tuned[1], n_fallback

    def _arc_means(
        self,
        aligned: np.ndarray,
        angles: np.ndarray,
        phi_from: np.ndarray,
        phi_to: np.ndarray,
    ) -> tuple[np.ndarray, int]:
        """Per grid angle, the mean of the aligned rows measured on its arc.

        Rows are averaged in measurement order.  An arc with no
        measurement on it (a sparse sweep) uses the one nearest its
        midpoint instead and counts as a fallback.
        """
        ordered = phi_from <= phi_to
        lo = np.where(ordered, phi_from, phi_to)
        hi = np.where(ordered, phi_to, phi_from)
        inside = (angles[None, :] >= lo[:, None]) & (angles[None, :] <= hi[:, None])
        averaged = np.empty((lo.shape[0], aligned.shape[1]))
        n_fallback = 0
        for i, in_arc in enumerate(inside):
            rows = np.flatnonzero(in_arc)
            if rows.shape[0] == 0:
                n_fallback += 1
                midpoint = 0.5 * (lo[i] + hi[i])
                rows = np.argsort(np.abs(angles - midpoint))[:1]
            averaged[i] = np.mean(aligned[rows], axis=0)
        return averaged, n_fallback


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
