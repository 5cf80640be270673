"""Phone localization accuracy (paper Figure 17).

Runs the diffraction-aware sensor fusion on each cohort member's session and
compares the fused polar angles against the simulator's ground truth (the
paper's overhead camera).  The paper's single-digit median and bounded
tail sit next to the measured ones in ``EXPERIMENTS.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.eval.common import cdf_points, get_cohort


@dataclass(frozen=True)
class LocalizationResult:
    """Figure 17 output: per-probe truth/estimate pairs and the error CDF."""

    truth_angles_deg: np.ndarray
    estimated_angles_deg: np.ndarray
    errors_deg: np.ndarray
    cdf_values_deg: np.ndarray
    cdf_probabilities: np.ndarray

    @property
    def median_error_deg(self) -> float:
        return float(np.median(self.errors_deg))

    @property
    def p90_error_deg(self) -> float:
        return float(np.percentile(self.errors_deg, 90))

    @property
    def max_error_deg(self) -> float:
        return float(self.errors_deg.max())


def fig17_localization(cohort_size: int = 5) -> LocalizationResult:
    """Reproduce Figure 17: phone angular error during hand rotation."""
    cohort = get_cohort(cohort_size)
    truth = []
    estimate = []
    for member in cohort:
        truth.append(member.session.truth.probe_angles_deg())
        estimate.append(member.personalization.fusion.fused_angles_deg)
    truth_arr = np.concatenate(truth)
    est_arr = np.concatenate(estimate)
    errors = np.abs(est_arr - truth_arr)
    values, probs = cdf_points(errors)
    return LocalizationResult(
        truth_angles_deg=truth_arr,
        estimated_angles_deg=est_arr,
        errors_deg=errors,
        cdf_values_deg=values,
        cdf_probabilities=probs,
    )
