"""Binaural AoA evaluation (paper Figures 21 and 22).

Far-field sources are played from angles across the semicircle at each
cohort member; the AoA estimators run twice per recording — once with the
member's personalized table, once with the global template — reproducing the
paper's comparison:

- Figure 21 (known source): personalized median ~7.8 deg vs global ~45.3
  deg, with 29% front-back confusion for the global template.
- Figure 22 (unknown sources): CDFs for white noise / music / speech plus
  front-back accuracy (~82.8% personalized vs ~59.8% global on average).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import DEFAULT_SAMPLE_RATE
from repro.simulation.propagation import record_far_field
from repro.signals.waveforms import music_like, probe_chirp, speech_like, white_noise
from repro.core.aoa import (
    KnownSourceAoAEstimator,
    UnknownSourceAoAEstimator,
    front_back_consistent,
)
from repro.eval.common import get_cohort

#: Test angles: off-grid (not multiples of 5) to avoid gifting the
#: estimators exact template matches.
DEFAULT_TEST_ANGLES = tuple(np.arange(7.0, 180.0, 12.0))


@dataclass(frozen=True)
class AoAComparisonResult:
    """Errors of the personalized vs global estimator on one workload."""

    label: str
    truth_deg: np.ndarray
    personalized_deg: np.ndarray
    global_deg: np.ndarray

    @property
    def personalized_errors(self) -> np.ndarray:
        return np.abs(self.personalized_deg - self.truth_deg)

    @property
    def global_errors(self) -> np.ndarray:
        return np.abs(self.global_deg - self.truth_deg)

    @property
    def median_errors(self) -> tuple[float, float]:
        """(personalized, global) median error in degrees."""
        return (
            float(np.median(self.personalized_errors)),
            float(np.median(self.global_errors)),
        )

    @property
    def p80_errors(self) -> tuple[float, float]:
        return (
            float(np.percentile(self.personalized_errors, 80)),
            float(np.percentile(self.global_errors, 80)),
        )

    @property
    def front_back_accuracy(self) -> tuple[float, float]:
        """(personalized, global) fraction of front/back-correct estimates."""
        personal = np.mean(
            [
                front_back_consistent(est, truth)
                for est, truth in zip(self.personalized_deg, self.truth_deg)
            ]
        )
        template = np.mean(
            [
                front_back_consistent(est, truth)
                for est, truth in zip(self.global_deg, self.truth_deg)
            ]
        )
        return float(personal), float(template)


def fig21_aoa_known_source(
    cohort_size: int = 5,
    test_angles_deg: tuple[float, ...] = DEFAULT_TEST_ANGLES,
    fs: int = DEFAULT_SAMPLE_RATE,
) -> AoAComparisonResult:
    """Reproduce Figure 21: known-source AoA, personalized vs global HRTF."""
    cohort = get_cohort(cohort_size)
    chirp = probe_chirp(fs, duration_s=0.05)
    truth, personal, template = [], [], []
    for m_idx, member in enumerate(cohort):
        est_personal = KnownSourceAoAEstimator(member.personalization.table)
        est_global = KnownSourceAoAEstimator(cohort.global_template)
        rng = np.random.default_rng(7_000 + m_idx)
        for theta in test_angles_deg:
            left, right = record_far_field(
                member.subject, float(theta), chirp, fs=fs, rng=rng, noise_std=0.003
            )
            truth.append(float(theta))
            personal.append(est_personal.estimate(left, right, chirp, fs))
            template.append(est_global.estimate(left, right, chirp, fs))
    return AoAComparisonResult(
        label="known source",
        truth_deg=np.asarray(truth),
        personalized_deg=np.asarray(personal),
        global_deg=np.asarray(template),
    )


@dataclass(frozen=True)
class UnknownSourceResult:
    """Figure 22 output: one comparison per signal category."""

    white_noise: AoAComparisonResult
    music: AoAComparisonResult
    speech: AoAComparisonResult

    def categories(self) -> tuple[AoAComparisonResult, ...]:
        return (self.white_noise, self.music, self.speech)

    @property
    def mean_front_back_accuracy(self) -> tuple[float, float]:
        """(personalized, global) front-back accuracy over all categories."""
        pairs = [c.front_back_accuracy for c in self.categories()]
        return (
            float(np.mean([p for p, _ in pairs])),
            float(np.mean([g for _, g in pairs])),
        )


def fig22_aoa_unknown_source(
    cohort_size: int = 5,
    test_angles_deg: tuple[float, ...] = DEFAULT_TEST_ANGLES,
    fs: int = DEFAULT_SAMPLE_RATE,
    signal_duration_s: float = 0.7,
) -> UnknownSourceResult:
    """Reproduce Figure 22: unknown-source AoA for three signal categories."""
    cohort = get_cohort(cohort_size)
    generators = {
        "white noise": white_noise,
        "music": music_like,
        "speech": speech_like,
    }
    results = {}
    for label, generator in generators.items():
        truth, personal, template = [], [], []
        for m_idx, member in enumerate(cohort):
            est_personal = UnknownSourceAoAEstimator(member.personalization.table)
            est_global = UnknownSourceAoAEstimator(cohort.global_template)
            rng = np.random.default_rng(8_000 + m_idx)
            for t_idx, theta in enumerate(test_angles_deg):
                signal = generator(
                    signal_duration_s,
                    fs,
                    rng=np.random.default_rng(97 * t_idx + m_idx),
                )
                left, right = record_far_field(
                    member.subject, float(theta), signal, fs=fs, rng=rng,
                    noise_std=0.003,
                )
                truth.append(float(theta))
                personal.append(est_personal.estimate(left, right, fs))
                template.append(est_global.estimate(left, right, fs))
        results[label] = AoAComparisonResult(
            label=label,
            truth_deg=np.asarray(truth),
            personalized_deg=np.asarray(personal),
            global_deg=np.asarray(template),
        )
    return UnknownSourceResult(
        white_noise=results["white noise"],
        music=results["music"],
        speech=results["speech"],
    )
