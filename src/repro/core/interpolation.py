"""Near-field HRTF measurement extraction and interpolation (Section 4.2).

A user cannot hold the phone at every angle, so UNIQ measures the near-field
HRTF at the discrete angles the fused trajectory visited and *interpolates*
to a continuous angle grid.  Two details from the paper matter:

- HRIRs must be **aligned along their first taps** before linear blending,
  or interpolation injects spurious echoes;
- the interpolated result is **checked against the diffraction model** built
  from the learned head parameters, and the first-tap time difference and
  amplitudes are adjusted to match the model's expectation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import (
    DEFAULT_HRIR_DURATION_S,
    ROOM_REFLECTION_CUTOFF_S,
    SPEED_OF_SOUND,
)
from repro.errors import SignalError
from repro.geometry.batch import near_field_paths
from repro.geometry.head import Ear, HeadGeometry
from repro.geometry.vec import polar_to_cartesian
from repro.hrtf.hrir import BinauralIR
from repro.hrtf.table import blend_aligned_batch
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.physics import near_field_first_tap_gain
from repro.quality.flags import QualityCollector
from repro.quality.report import degradation_score
from repro.signals.channel import (
    ProbeChannelBank,
    first_tap_index,
    first_tap_index_batch,
    refine_tap_position_batch,
    truncate_after,
)
from repro.signals.correlation import align_to_first_tap_batch
from repro.signals.delays import apply_fractional_delay_batch, shift_rows
from repro.simulation.session import SessionData
from repro.core.fusion import FusionResult

#: Samples of headroom before the earliest first tap in an extracted HRIR.
_PRE_SAMPLES = 12

#: Sentinel thresholds (docs/ROBUSTNESS.md): clean sweeps land measurements
#: every few degrees, so neighbouring-measurement gaps beyond ~18 deg mean
#: the blend is bridging real holes; past ~60 deg it is guesswork.  Grid
#: angles outside the measured span clamp to the nearest measurement — a
#: small fraction at the sweep edges is normal, a large one is not.
_GAP_GOOD_DEG = 18.0
_GAP_BAD_DEG = 60.0
_EXTRAPOLATION_GOOD = 0.2
_EXTRAPOLATION_BAD = 0.7


@dataclass(frozen=True)
class NearFieldMeasurement:
    """One measured near-field HRIR pair with its fused phone location."""

    angle_deg: float
    radius_m: float
    hrir: BinauralIR


def hrir_length(measurements: list[NearFieldMeasurement]) -> int:
    """The HRIR length every measurement shares; the grid kernels stack them."""
    lengths = {m.hrir.n_samples for m in measurements}
    if len(lengths) != 1:
        raise SignalError(
            f"near-field measurements must share one HRIR length, got {sorted(lengths)}"
        )
    return lengths.pop()


class NearFieldInterpolator:
    """Extracts per-probe near-field HRIRs and interpolates them to a grid.

    Parameters
    ----------
    fs:
        Sample rate of the session recordings.
    hrir_duration_s:
        Length of the extracted HRIR window.
    channel_window_s:
        Deconvolution window (must cover the longest probe delay).
    room_cutoff_s:
        Taps later than this after the first tap are room reflections and
        are truncated (Section 4.6).
    """

    def __init__(
        self,
        fs: int,
        hrir_duration_s: float = DEFAULT_HRIR_DURATION_S,
        channel_window_s: float = 0.012,
        room_cutoff_s: float = ROOM_REFLECTION_CUTOFF_S,
    ) -> None:
        if fs <= 0:
            raise SignalError(f"fs must be positive, got {fs}")
        self.fs = fs
        self.n_hrir = int(round(hrir_duration_s * fs))
        self.n_channel = int(round(channel_window_s * fs))
        self.room_cutoff = int(round(room_cutoff_s * fs))
        if self.n_hrir < 4 * _PRE_SAMPLES:
            raise SignalError("hrir_duration_s too short for the tap layout")

    def extract_measurements(
        self,
        session: SessionData,
        fusion: FusionResult,
        bank: ProbeChannelBank | None = None,
        probe_weights: np.ndarray | None = None,
    ) -> list[NearFieldMeasurement]:
        """Per-probe near-field HRIRs, windowed around the binaural first taps.

        The window starts just before the *earlier* ear's first tap so the
        interaural delay is preserved inside the pair; room reflections are
        truncated per ear relative to its own first tap.  When the pipeline
        passes the session ``bank``, the deconvolutions already done by the
        fusion stage are reused instead of recomputed.

        Probes the fusion solve excluded (``fusion.active``) — or that
        ``probe_weights`` zeroes out — carry no usable HRIR and are skipped,
        so a salvaged run interpolates only over the surviving captures.
        """
        if bank is None:
            bank = ProbeChannelBank(session.probe_signal)
        skip = np.zeros(session.n_probes, dtype=bool)
        if fusion.active is not None:
            skip |= ~fusion.active
        if probe_weights is not None:
            skip |= np.asarray(probe_weights, dtype=float) <= 0.0
        measurements = []
        with obs_trace.span(
            "interpolation.extract_measurements",
            n_probes=session.n_probes,
            n_skipped=int(skip.sum()),
        ):
            for i, probe in enumerate(session.probes):
                if skip[i]:
                    continue
                channels = {}
                taps = {}
                for ear, recording in (
                    (Ear.LEFT, probe.left),
                    (Ear.RIGHT, probe.right),
                ):
                    channel = bank.channel((i, ear.value), recording, self.n_channel)
                    tap = first_tap_index(channel)
                    channels[ear] = truncate_after(channel, tap + self.room_cutoff)
                    taps[ear] = tap
                start = max(0, min(taps.values()) - _PRE_SAMPLES)
                windows = {}
                for ear in Ear:
                    segment = channels[ear][start : start + self.n_hrir]
                    if segment.shape[0] < self.n_hrir:
                        segment = np.concatenate(
                            [segment, np.zeros(self.n_hrir - segment.shape[0])]
                        )
                    windows[ear] = segment
                measurements.append(
                    NearFieldMeasurement(
                        angle_deg=float(fusion.fused_angles_deg[i]),
                        radius_m=float(fusion.radii_m[i]),
                        hrir=BinauralIR(
                            left=windows[Ear.LEFT],
                            right=windows[Ear.RIGHT],
                            fs=self.fs,
                        ),
                    )
                )
            obs_metrics.counter("interpolation.measurements_extracted").inc(
                len(measurements)
            )
        return measurements

    def build_grid(
        self,
        measurements: list[NearFieldMeasurement],
        head: HeadGeometry,
        angle_grid_deg: np.ndarray,
        reference_radius_m: float | None = None,
        quality: QualityCollector | None = None,
    ) -> list[BinauralIR]:
        """Interpolate measurements onto ``angle_grid_deg`` with model correction.

        Grid angles outside the measured span clamp to the nearest
        measurement (then get model-corrected for their own angle).
        ``quality`` collects the stage sentinels: the largest gap between
        neighbouring measurement angles and the fraction of the grid the
        measurements do not span.  Every grid angle is computed at once, as
        array kernels over the grid.
        """
        if len(measurements) < 2:
            raise SignalError("need >= 2 near-field measurements to interpolate")
        ordered = sorted(measurements, key=lambda m: m.angle_deg)
        angles = np.array([m.angle_deg for m in ordered])
        if quality is not None:
            self._sentinels(quality, angles, np.asarray(angle_grid_deg, float))
        radius = (
            reference_radius_m
            if reference_radius_m is not None
            else float(np.median([m.radius_m for m in ordered]))
        )
        grid = np.asarray(angle_grid_deg, dtype=float)
        with obs_trace.span(
            "interpolation.build_grid",
            n_measurements=len(ordered),
            n_grid=int(grid.shape[0]),
            reference_radius_m=radius,
        ):
            ears = self._blend(ordered, angles, grid)
            left, right = self._match_model(ears, head, radius, grid)
            grid_entries = [
                BinauralIR(left=l, right=r, fs=self.fs) for l, r in zip(left, right)
            ]
            obs_metrics.counter("interpolation.grid_entries").inc(len(grid_entries))
        return grid_entries

    def _blend(
        self,
        ordered: list[NearFieldMeasurement],
        angles: np.ndarray,
        grid: np.ndarray,
    ) -> list[np.ndarray]:
        """Per ear, ``(g, n)`` first-tap-aligned blends of each grid angle's neighbours.

        :func:`repro.hrtf.table.interpolate_hrir_pair` row by row: a grid
        angle outside the measured span, or with weight <= 0 or >= 1,
        copies one measurement.
        """
        n = hrir_length(ordered)
        k = angles.shape[0]
        idx = np.searchsorted(angles, grid)
        low = np.maximum(idx - 1, 0)
        high = np.minimum(idx, k - 1)
        between = (idx > 0) & (idx < k)
        # searchsorted puts each interior grid angle strictly above its lower
        # neighbour, so the span is positive even where angles repeat.
        weight = np.divide(
            grid - angles[low],
            angles[high] - angles[low],
            out=np.zeros(grid.shape),
            where=between,
        )
        blend = np.flatnonzero(between & ~(weight <= 0.0) & ~(weight >= 1.0))
        copy = np.where(between & (weight <= 0.0), low, high)
        ears = []
        for ear in Ear:
            rows = np.stack([m.hrir.ear(ear) for m in ordered])
            taps = refine_tap_position_batch(rows, first_tap_index_batch(rows))
            aligned = align_to_first_tap_batch(rows, n, _PRE_SAMPLES)
            out = rows[copy]
            out[blend] = blend_aligned_batch(
                aligned[low[blend]],
                aligned[high[blend]],
                taps[low[blend]],
                taps[high[blend]],
                weight[blend],
                _PRE_SAMPLES,
            )
            ears.append(out)
        return ears

    def _match_model(
        self,
        ears: list[np.ndarray],
        head: HeadGeometry,
        radius_m: float,
        grid: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Adjust each row pair's first-tap timing/levels to the diffraction model.

        The paper's quality step: given the learned head parameters and the
        (interpolated) location, the expected interaural time difference and
        first-tap amplitudes are computable; the measured/interpolated taps
        are nudged to match while the pinna multipath pattern is preserved.
        """
        lengths, wrap_arcs = near_field_paths(head, polar_to_cartesian(radius_m, grid))
        gains = near_field_first_tap_gain(lengths, wrap_arcs)
        # Model ITD (right minus left, in samples).
        model_itd = (lengths[1] - lengths[0]) / SPEED_OF_SOUND * self.fs
        scaled = []
        taps = []
        for signal, gain in zip(ears, gains):
            idx = first_tap_index_batch(signal)
            taps.append(refine_tap_position_batch(signal, idx))
            # Rescale each ear so its first-tap amplitude matches the model.
            amplitude = np.abs(signal[np.arange(signal.shape[0]), idx])
            scaled.append(signal * (gain / amplitude)[:, None])
        left, right = scaled
        # Re-time the right ear so the measured ITD equals the model ITD.
        shift = model_itd - (taps[1] - taps[0])
        late = shift >= 0
        advance = np.where(late, 0.0, np.ceil(-shift)).astype(np.intp)
        n = right.shape[1]
        right = apply_fractional_delay_batch(
            shift_rows(right, advance, n),
            np.where(late, shift, shift + advance),
            output_length=n,
        )
        return left, right

    def _sentinels(
        self,
        quality: QualityCollector,
        angles: np.ndarray,
        grid: np.ndarray,
    ) -> None:
        """Flag sparse or under-spanning measurement sets before blending."""
        max_gap = float(np.max(np.diff(angles))) if angles.shape[0] > 1 else 360.0
        quality.component(
            "interpolation.coverage",
            degradation_score(max_gap, _GAP_GOOD_DEG, _GAP_BAD_DEG),
        )
        if max_gap > _GAP_GOOD_DEG:
            quality.flag(
                "interpolation",
                "sparse_measurements",
                "warn",
                f"largest gap between measurement angles is {max_gap:.1f} deg "
                f"(> {_GAP_GOOD_DEG:.0f} deg); blends bridge unmeasured arcs",
                value=max_gap,
                threshold=_GAP_GOOD_DEG,
            )
        if grid.shape[0]:
            outside = (grid < float(angles.min())) | (grid > float(angles.max()))
            extrapolated = float(np.mean(outside))
        else:
            extrapolated = 0.0
        quality.component(
            "interpolation.extrapolation",
            degradation_score(
                extrapolated, _EXTRAPOLATION_GOOD, _EXTRAPOLATION_BAD
            ),
        )
        if extrapolated > _EXTRAPOLATION_GOOD:
            quality.flag(
                "interpolation",
                "extrapolated_grid",
                "warn",
                f"{extrapolated:.0%} of grid angles fall outside the measured "
                f"span [{angles.min():.1f}, {angles.max():.1f}] deg and clamp "
                "to the nearest measurement",
                value=extrapolated,
                threshold=_EXTRAPOLATION_GOOD,
            )
