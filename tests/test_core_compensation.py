"""Tests for Section 4.6 compensation and gesture checks."""

import numpy as np
import pytest

from repro.errors import CalibrationError, SignalError
from repro.core.compensation import (
    check_gesture_quality,
    compensate_recording,
    estimate_system_response,
)
from repro.core.fusion import FusionResult
from repro.core.interpolation import NearFieldInterpolator
from repro.geometry.head import HeadGeometry
from repro.signals.channel import first_tap_index, truncate_after
from repro.signals.delays import add_tap
from repro.signals.spectrum import amplitude_spectrum
from repro.signals.waveforms import chirp
from repro.simulation.hardware import SpeakerMicResponse

FS = 48_000


class TestSystemResponse:
    def test_measures_known_chain(self):
        hardware = SpeakerMicResponse.typical(np.random.default_rng(0))
        probe = chirp(30.0, 21_000.0, 0.5, FS)
        recording = hardware.apply(probe, FS)
        freqs, gains = estimate_system_response(recording, probe, FS)
        for f_test in (200.0, 1000.0, 5000.0):
            measured = np.interp(f_test, freqs, gains)
            true = float(hardware.gain_at(f_test))
            assert measured == pytest.approx(true, rel=0.3)

    def test_compensation_flattens_chain(self):
        hardware = SpeakerMicResponse.typical(np.random.default_rng(1))
        probe = chirp(30.0, 21_000.0, 0.5, FS)
        calibration = hardware.apply(probe, FS)
        freqs, gains = estimate_system_response(calibration, probe, FS)

        # A wideband test signal that actually exercises the colored ends of
        # the chain (LF instability and HF rolloff).
        test_signal = chirp(60.0, 20_000.0, 0.3, FS)
        colored = hardware.apply(test_signal, FS)
        flattened = compensate_recording(colored, FS, freqs, gains)
        grid, amps_orig = amplitude_spectrum(test_signal, FS)
        _, amps_flat = amplitude_spectrum(flattened, FS)
        _, amps_colored = amplitude_spectrum(colored, FS)
        band = (grid >= 80.0) & (grid <= 18_000.0) & (amps_orig > 0.05 * amps_orig.max())

        def db_error(amps):
            return np.mean(np.abs(20 * np.log10(amps[band] / amps_orig[band])))

        assert db_error(amps_flat) < db_error(amps_colored) / 2

    def test_zero_response_raises(self):
        with pytest.raises(SignalError):
            compensate_recording(
                np.ones(64), FS, np.array([10.0, 100.0]), np.array([0.0, 0.0])
            )


class TestRoomRemoval:
    """The per-probe room cut inside ``NearFieldInterpolator.extract_measurements``."""

    @staticmethod
    def _cut(channel):
        cutoff = NearFieldInterpolator(FS).room_cutoff
        return truncate_after(channel, first_tap_index(channel) + cutoff)

    def test_keeps_head_taps_drops_room(self):
        channel = np.zeros(1000)
        add_tap(channel, 60.0, 1.0)  # first tap
        add_tap(channel, 100.0, 0.5)  # pinna echo (~0.8 ms later)
        add_tap(channel, 500.0, 0.4)  # room echo (~9 ms later)
        cleaned = self._cut(channel)
        assert abs(cleaned[100]) > 0.4
        assert np.all(np.abs(cleaned[400:]) < 1e-9)

    def test_first_tap_untouched(self):
        channel = np.zeros(1000)
        add_tap(channel, 60.0, 1.0)
        cleaned = self._cut(channel)
        assert first_tap_index(cleaned) == 60


def _fusion_result(radius: float, residual: float, solved_fraction: float = 1.0):
    n = 10
    solved = np.arange(n) < int(solved_fraction * n)
    return FusionResult(
        head=HeadGeometry.average(),
        t_left=np.full(n, 1e-3),
        t_right=np.full(n, 1.2e-3),
        imu_angles_deg=np.linspace(0, 180, n),
        acoustic_angles_deg=np.linspace(0, 180, n),
        fused_angles_deg=np.linspace(0, 180, n),
        radii_m=np.full(n, radius),
        residual_deg=residual,
        solved=solved,
    )


class TestGestureCheck:
    def test_good_gesture_passes(self):
        check_gesture_quality(_fusion_result(radius=0.45, residual=3.0))

    def test_arm_drop_rejected(self):
        with pytest.raises(CalibrationError, match="too\\s+close"):
            check_gesture_quality(_fusion_result(radius=0.12, residual=3.0))

    def test_large_residual_rejected(self):
        with pytest.raises(CalibrationError, match="residual"):
            check_gesture_quality(_fusion_result(radius=0.45, residual=30.0))

    def test_unsolved_probes_rejected(self):
        with pytest.raises(CalibrationError, match="probes localized"):
            check_gesture_quality(
                _fusion_result(radius=0.45, residual=3.0, solved_fraction=0.2)
            )
