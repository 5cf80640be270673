"""Experiment harnesses: one entry point per paper table/figure.

Each ``fig*`` function runs the full experiment behind the corresponding
figure of the paper and returns a structured result.
:mod:`repro.eval.report` runs them all once and renders ``EXPERIMENTS.md``,
the one record of paper versus measured numbers;
``tests/test_paper_claims.py`` checks that record and asserts each figure's
shape claim over the same run.  The cohort (5 virtual volunteers, their
measurement sessions, and their personalization results) is computed once
per process and shared across experiments via :mod:`repro.eval.common`.
"""

from repro.eval.common import CohortMember, get_cohort, measured_ground_truth_table
from repro.eval.groundwork import fig2_pinna_correlation, fig5_diffraction_evidence
from repro.eval.channels import fig9_channel_response, fig14_relative_channel
from repro.eval.hardware import fig16_frequency_response
from repro.eval.localization import fig17_localization
from repro.eval.hrtf_quality import (
    fig18_hrir_correlation,
    fig19_volunteers,
    fig20_sample_hrirs,
)
from repro.eval.aoa import fig21_aoa_known_source, fig22_aoa_unknown_source
from repro.eval.ablations import (
    ablation_sensor_fusion,
    ablation_diffraction_model,
    ablation_near_far_conversion,
    ablation_measurement_density,
)
from repro.eval.drift import (
    DriftFinding,
    classify_drift,
    compare_digests,
    render_drift_table,
)
from repro.eval.fleet import (
    DEFAULT_STRATA,
    FleetReport,
    Stratum,
    compare_reports,
    generate_population,
    run_fleet,
    score_job,
)

__all__ = [
    "CohortMember",
    "get_cohort",
    "measured_ground_truth_table",
    "fig2_pinna_correlation",
    "fig5_diffraction_evidence",
    "fig9_channel_response",
    "fig14_relative_channel",
    "fig16_frequency_response",
    "fig17_localization",
    "fig18_hrir_correlation",
    "fig19_volunteers",
    "fig20_sample_hrirs",
    "fig21_aoa_known_source",
    "fig22_aoa_unknown_source",
    "ablation_sensor_fusion",
    "ablation_diffraction_model",
    "ablation_near_far_conversion",
    "ablation_measurement_density",
    "DriftFinding",
    "classify_drift",
    "compare_digests",
    "render_drift_table",
    "DEFAULT_STRATA",
    "FleetReport",
    "Stratum",
    "compare_reports",
    "generate_population",
    "run_fleet",
    "score_job",
]
