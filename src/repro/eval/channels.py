"""Channel-structure figures (paper Figures 9 and 14).

- **Figure 9**: the binaural channel impulse response of one probe: the
  first tap per ear sits exactly at the diffraction-path delay, followed by
  pinna/face multipath taps.
- **Figure 14**: the *relative* channel between the two ear recordings of an
  unknown source has multiple peaks (pinna multipath autocorrelates badly),
  which is why unknown-source AoA must disambiguate candidates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import DEFAULT_SAMPLE_RATE, SPEED_OF_SOUND
from repro.geometry.head import Ear
from repro.geometry.paths import propagation_path
from repro.geometry.plane_wave import interaural_delay
from repro.geometry.vec import polar_to_cartesian
from repro.simulation.person import VirtualSubject
from repro.simulation.propagation import record_far_field, record_near_field
from repro.signals.channel import estimate_channel, find_taps, first_tap_index
from repro.signals.waveforms import probe_chirp, white_noise
from repro.core.aoa import UnknownSourceAoAEstimator
from repro.hrtf.reference import ground_truth_table


@dataclass(frozen=True)
class ChannelResponseResult:
    """Figure 9 output: one probe's binaural channel and its tap structure."""

    fs: int
    channel_left: np.ndarray
    channel_right: np.ndarray
    first_tap_left: int
    first_tap_right: int
    true_delay_left_samples: float
    true_delay_right_samples: float
    tap_count_left: int
    tap_count_right: int

    @property
    def first_tap_error_samples(self) -> tuple[float, float]:
        """|detected - true| first-tap positions, per ear."""
        return (
            abs(self.first_tap_left - self.true_delay_left_samples),
            abs(self.first_tap_right - self.true_delay_right_samples),
        )


def fig9_channel_response(
    fs: int = DEFAULT_SAMPLE_RATE,
    theta_deg: float = 45.0,
    radius_m: float = 0.45,
    subject_seed: int = 21,
) -> ChannelResponseResult:
    """Reproduce Figure 9: deconvolved binaural channel of one probe."""
    subject = VirtualSubject.random(subject_seed)
    rng = np.random.default_rng(3)
    chirp = probe_chirp(fs)
    position = polar_to_cartesian(radius_m, theta_deg)
    left, right = record_near_field(
        subject, position, chirp, fs=fs, rng=rng, noise_std=0.003
    )
    n_window = int(0.008 * fs)
    channel_left = estimate_channel(left, chirp, n_window)
    channel_right = estimate_channel(right, chirp, n_window)
    taps_left, _ = find_taps(channel_left)
    taps_right, _ = find_taps(channel_right)
    return ChannelResponseResult(
        fs=fs,
        channel_left=channel_left,
        channel_right=channel_right,
        first_tap_left=first_tap_index(channel_left),
        first_tap_right=first_tap_index(channel_right),
        true_delay_left_samples=propagation_path(subject.head, position, Ear.LEFT).length
        / SPEED_OF_SOUND
        * fs,
        true_delay_right_samples=propagation_path(
            subject.head, position, Ear.RIGHT
        ).length
        / SPEED_OF_SOUND
        * fs,
        tap_count_left=int(taps_left.shape[0]),
        tap_count_right=int(taps_right.shape[0]),
    )


@dataclass(frozen=True)
class RelativeChannelResult:
    """Figure 14 output: the L/R relative channel of an unknown source."""

    lags_ms: np.ndarray
    relative_channel: np.ndarray
    n_peaks: int
    true_itd_ms: float
    strongest_peak_ms: float


def fig14_relative_channel(
    fs: int = DEFAULT_SAMPLE_RATE,
    theta_deg: float = 60.0,
    subject_seed: int = 21,
) -> RelativeChannelResult:
    """Reproduce Figure 14: multiple peaks in the binaural relative channel."""
    subject = VirtualSubject.random(subject_seed)
    rng = np.random.default_rng(4)
    source = white_noise(0.6, fs, rng=np.random.default_rng(11))
    left, right = record_far_field(
        subject, theta_deg, source, fs=fs, rng=rng, noise_std=0.003
    )
    table = ground_truth_table(subject, np.array([0.0, 180.0]), fs)
    estimator = UnknownSourceAoAEstimator(table)
    lags_s, xcorr = estimator.relative_channel(left, right, fs)
    peaks, _ = find_taps(xcorr, max_taps=8, threshold_ratio=0.35, min_separation=3)
    true_itd = interaural_delay(subject.head, theta_deg)
    strongest = float(lags_s[int(np.argmax(np.abs(xcorr)))])
    return RelativeChannelResult(
        lags_ms=lags_s * 1e3,
        relative_channel=xcorr,
        n_peaks=int(peaks.shape[0]),
        true_itd_ms=true_itd * 1e3,
        strongest_peak_ms=strongest * 1e3,
    )
