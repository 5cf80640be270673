"""Engineering details of Section 4.6: compensation and sanity checks.

- **System frequency-response compensation**: before personalization, the
  speaker/microphone chain response is measured by playing a flat chirp
  with the microphone co-located with the speaker; every later recording is
  equalized by that response so the estimated channels contain only the
  head, not the hardware.
- **Room-reflection removal** lives in the channel toolbox
  (:func:`repro.signals.channel.truncate_after`), applied per probe inside
  :meth:`repro.core.interpolation.NearFieldInterpolator.extract_measurements`.
- **Automatic gesture correction**: a capture is rejected (the user is asked
  to redo the sweep) when the estimated phone radius collapses toward the
  head or when the fusion residual is too large.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CalibrationError, SignalError
from repro.signals.channel import estimate_channel
from repro.core.fusion import FusionResult

#: Smoothing width (bins) for the measured system magnitude response.
_SMOOTH_BINS = 9


def estimate_system_response(
    recording: np.ndarray,
    played: np.ndarray,
    fs: int,
    n_fft: int = 4096,
) -> tuple[np.ndarray, np.ndarray]:
    """Measure the transducer-chain magnitude response from a calibration.

    ``recording`` is the microphone capture of ``played`` with the mic
    co-located with the speaker (no head in the path).  Returns
    ``(freqs, gains)`` — a smoothed linear magnitude response suitable for
    :func:`compensate_recording`.
    """
    channel = estimate_channel(recording, played, min(n_fft, recording.shape[0]))
    spectrum = np.abs(np.fft.rfft(channel, n_fft))
    kernel = np.ones(_SMOOTH_BINS) / _SMOOTH_BINS
    padded = np.concatenate(
        [spectrum[: _SMOOTH_BINS // 2][::-1], spectrum, spectrum[-(_SMOOTH_BINS // 2):][::-1]]
    )
    smoothed = np.convolve(padded, kernel, mode="valid")
    freqs = np.fft.rfftfreq(n_fft, d=1.0 / fs)
    return freqs, smoothed


def compensate_recording(
    recording: np.ndarray,
    fs: int,
    response_freqs: np.ndarray,
    response_gains: np.ndarray,
    regularization: float = 0.05,
) -> np.ndarray:
    """Equalize a recording by a measured magnitude response.

    Divides the spectrum by the response, floored at ``regularization``
    times its maximum so dead bands are not amplified into noise.
    """
    recording = np.asarray(recording, dtype=float)
    if recording.ndim != 1 or recording.shape[0] < 2:
        raise SignalError("recording must be a 1D array of >= 2 samples")
    gains = np.asarray(response_gains, dtype=float)
    if gains.shape != np.asarray(response_freqs).shape:
        raise SignalError("response arrays must match")
    spectrum = np.fft.rfft(recording)
    grid = np.fft.rfftfreq(recording.shape[0], d=1.0 / fs)
    interpolated = np.interp(grid, response_freqs, gains)
    floor = regularization * interpolated.max()
    if floor == 0.0:
        raise SignalError("system response is identically zero")
    return np.fft.irfft(spectrum / np.maximum(interpolated, floor), recording.shape[0])


def check_gesture_quality(
    fusion: FusionResult,
    min_radius_m: float = 0.22,
    max_residual_deg: float = 12.0,
    min_solved_fraction: float = 0.6,
) -> None:
    """Raise :class:`CalibrationError` if the sweep must be redone.

    The paper's triggers: the estimated phone distance to the head center is
    too small (arm dropped / phone drifted toward the head), or the overall
    optimization error is too large (gesture deviated from instructions).

    When the fusion ran on a salvaged subset (``fusion.active``), the solved
    fraction is judged over the probes that actually participated — probes
    the preflight dropped should not double-count as gesture failures.
    """
    if fusion.active is not None:
        solved_fraction = (
            float(np.mean(fusion.solved[fusion.active]))
            if fusion.active.any()
            else 0.0
        )
    else:
        solved_fraction = float(np.mean(fusion.solved)) if fusion.n_probes else 0.0
    if solved_fraction < min_solved_fraction:
        raise CalibrationError(
            f"only {solved_fraction:.0%} of probes localized; redo the sweep"
        )
    if fusion.median_radius_m < min_radius_m:
        raise CalibrationError(
            f"estimated phone radius {fusion.median_radius_m:.2f} m is too "
            f"close to the head (< {min_radius_m} m); redo the sweep"
        )
    if fusion.residual_deg > max_residual_deg:
        raise CalibrationError(
            f"fusion residual {fusion.residual_deg:.1f} deg exceeds "
            f"{max_residual_deg} deg; redo the sweep"
        )
