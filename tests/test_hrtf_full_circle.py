"""Tests for side-aware (signed) AoA."""

import numpy as np
import pytest

from repro.hrtf.full_circle import signed_aoa
from repro.hrtf.reference import ground_truth_table
from repro.simulation.propagation import record_far_field
from repro.signals.waveforms import probe_chirp, white_noise
from repro.core.aoa import KnownSourceAoAEstimator, UnknownSourceAoAEstimator

FS = 48_000


@pytest.fixture(scope="module")
def table(subject):
    return ground_truth_table(subject, np.arange(0.0, 181.0, 5.0), FS)


class TestSignedAoA:
    @pytest.mark.parametrize("true_angle", [50.0, -50.0, 120.0, -120.0])
    def test_known_source_sides(self, subject, table, true_angle):
        estimator = KnownSourceAoAEstimator(table)
        chirp = probe_chirp(FS, duration_s=0.05)
        left, right = record_far_field(
            subject, abs(true_angle), chirp, FS,
            rng=np.random.default_rng(int(abs(true_angle))), noise_std=0.003,
        )
        if true_angle < 0:
            left, right = right, left
        estimate = signed_aoa(estimator, left, right, FS, source=chirp)
        assert estimate == pytest.approx(true_angle, abs=15.0)
        assert np.sign(estimate) == np.sign(true_angle)

    @pytest.mark.parametrize("true_angle", [45.0, -45.0])
    def test_unknown_source_sides(self, subject, table, true_angle):
        estimator = UnknownSourceAoAEstimator(table)
        signal = white_noise(0.5, FS, rng=np.random.default_rng(9))
        left, right = record_far_field(
            subject, abs(true_angle), signal, FS,
            rng=np.random.default_rng(10), noise_std=0.003,
        )
        if true_angle < 0:
            left, right = right, left
        estimate = signed_aoa(estimator, left, right, FS)
        # This test verifies the side-resolution wrapper; magnitude accuracy
        # (including the occasional front-back miss) is benchmarked in
        # bench_fig22_aoa_unknown.py.
        assert np.sign(estimate) == np.sign(true_angle)
        assert abs(estimate) <= 180.0
