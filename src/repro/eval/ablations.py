"""Ablation studies for the design choices the paper argues for.

Each ablation removes one ingredient of UNIQ and measures the damage:

- **Sensor fusion** (Section 4.1's motivation): IMU-only and
  acoustic-with-assumed-average-head localization vs the full joint fusion.
- **Diffraction modeling** (Section 2's motivation): the same fusion built
  on straight-line (Euclidean) delays instead of wrap-around diffraction.
- **Near-far conversion** (Section 4.3's motivation): using near-field
  HRTFs directly for far-field rendering vs converting them.
- **Measurement density**: "With larger N ... E_opt converges better".
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.hrtf.metrics import table_correlations
from repro.hrtf.table import HRTFTable
from repro.simulation.session import SessionData
from repro.core.fusion import DiffractionAwareSensorFusion
from repro.core.localize import DelayMap
from repro.geometry.head import HeadGeometry
from repro.eval.common import DEFAULT_COHORT_SIZE, get_cohort


def _session_truth_angles(session: SessionData) -> np.ndarray:
    return session.truth.probe_angles_deg()


@dataclass(frozen=True)
class FusionAblationResult:
    """Median localization error (deg) of each strategy."""

    imu_only_deg: float
    acoustic_average_head_deg: float
    fused_deg: float


def ablation_sensor_fusion(
    n_members: int = 2, cohort_size: int = DEFAULT_COHORT_SIZE
) -> FusionAblationResult:
    """Why fuse?  Compare IMU-only, acoustic-only, and fused localization.

    Uses the first ``n_members`` volunteers of the ``cohort_size`` cohort.
    """
    members = list(get_cohort(cohort_size))[:n_members]
    fusion = DiffractionAwareSensorFusion()
    errors = {"imu": [], "acoustic": [], "fused": []}
    for member in members:
        session = member.session
        truth = _session_truth_angles(session)
        result = member.personalization.fusion

        errors["imu"].append(np.abs(fusion.imu_angles(session) - truth))
        errors["fused"].append(np.abs(result.fused_angles_deg - truth))

        # Acoustic-only: assume the average head (no joint optimization),
        # disambiguate front/back with the IMU (pure acoustics cannot).
        average_map = DelayMap(HeadGeometry.average())
        alphas = fusion.imu_angles(session)
        acoustic = []
        for t_l, t_r, alpha, true_angle in zip(
            result.t_left, result.t_right, alphas, truth
        ):
            candidate = average_map.locate(t_l, t_r, alpha)
            acoustic.append(
                abs(candidate.theta_deg - true_angle) if candidate else 45.0
            )
        errors["acoustic"].append(np.asarray(acoustic))
    return FusionAblationResult(
        imu_only_deg=float(np.median(np.concatenate(errors["imu"]))),
        acoustic_average_head_deg=float(np.median(np.concatenate(errors["acoustic"]))),
        fused_deg=float(np.median(np.concatenate(errors["fused"]))),
    )


@dataclass(frozen=True)
class DiffractionAblationResult:
    """Fusion quality with and without the diffraction delay model."""

    diffraction_median_deg: float
    euclidean_median_deg: float
    diffraction_residual_deg: float
    euclidean_residual_deg: float


def ablation_diffraction_model(
    n_members: int = 2, cohort_size: int = DEFAULT_COHORT_SIZE
) -> DiffractionAblationResult:
    """Why model diffraction?  Localize with straight-line delays instead.

    Uses the first ``n_members`` volunteers of the ``cohort_size`` cohort.
    """
    members = list(get_cohort(cohort_size))[:n_members]
    euclid_fusion = DiffractionAwareSensorFusion(delay_model="euclidean")
    diff_err, euc_err, diff_res, euc_res = [], [], [], []
    for member in members:
        truth = _session_truth_angles(member.session)
        fused = member.personalization.fusion
        diff_err.append(np.abs(fused.fused_angles_deg - truth))
        diff_res.append(fused.residual_deg)
        euclid = euclid_fusion.run(member.session)
        euc_err.append(np.abs(euclid.fused_angles_deg - truth))
        euc_res.append(euclid.residual_deg)
    return DiffractionAblationResult(
        diffraction_median_deg=float(np.median(np.concatenate(diff_err))),
        euclidean_median_deg=float(np.median(np.concatenate(euc_err))),
        diffraction_residual_deg=float(np.mean(diff_res)),
        euclidean_residual_deg=float(np.mean(euc_res)),
    )


@dataclass(frozen=True)
class NearFarAblationResult:
    """Far-field fidelity: converted far table vs raw near table."""

    converted_correlation: float
    near_as_far_correlation: float
    converted_itd_error_ms: float
    near_as_far_itd_error_ms: float


def ablation_near_far_conversion(
    n_members: int = 3, cohort_size: int = DEFAULT_COHORT_SIZE
) -> NearFarAblationResult:
    """Why convert?  Compare near-used-as-far against the converted far field.

    Uses the first ``n_members`` volunteers of the ``cohort_size`` cohort.
    """
    members = list(get_cohort(cohort_size))[:n_members]
    conv_corr, near_corr, conv_itd, near_itd = [], [], [], []
    for member in members:
        table = member.personalization.table
        truth = member.ground_truth
        near_as_far = HRTFTable(
            angles_deg=table.angles_deg, near=table.near, far=table.near
        )
        _, c_left, c_right = table_correlations(table, truth, "far")
        conv_corr.append(0.5 * (c_left.mean() + c_right.mean()))
        _, n_left, n_right = table_correlations(near_as_far, truth, "far")
        near_corr.append(0.5 * (n_left.mean() + n_right.mean()))

        truth_itd = np.array([ir.interaural_delay_s() for ir in truth.far])
        conv = np.array([ir.interaural_delay_s() for ir in table.far])
        raw = np.array([ir.interaural_delay_s() for ir in table.near])
        conv_itd.append(np.mean(np.abs(conv - truth_itd)) * 1e3)
        near_itd.append(np.mean(np.abs(raw - truth_itd)) * 1e3)
    return NearFarAblationResult(
        converted_correlation=float(np.mean(conv_corr)),
        near_as_far_correlation=float(np.mean(near_corr)),
        converted_itd_error_ms=float(np.mean(conv_itd)),
        near_as_far_itd_error_ms=float(np.mean(near_itd)),
    )


@dataclass(frozen=True)
class DensityAblationResult:
    """Localization quality and head-parameter error vs probe count N."""

    probe_counts: tuple[int, ...]
    head_param_error_mm: tuple[float, ...]
    localization_median_deg: tuple[float, ...]
    residual_deg: tuple[float, ...]


def _subsampled_session(session: SessionData, n_probes: int) -> SessionData:
    indices = np.linspace(0, session.n_probes - 1, n_probes).astype(int)
    probes = tuple(session.probes[i] for i in indices)
    truth = replace(
        session.truth,
        probe_sample_indices=session.truth.probe_sample_indices[indices],
    )
    return replace(session, probes=probes, truth=truth)


def ablation_measurement_density(
    probe_counts: tuple[int, ...] = (6, 12, 25, 50),
    cohort_size: int = DEFAULT_COHORT_SIZE,
) -> DensityAblationResult:
    """"With larger N, E_opt converges better" — measure exactly that.

    Reports the head-parameter error, the per-probe localization error
    against ground truth, and the optimizer residual, each as a function of
    how many probes the sweep contained, on the first volunteer of the
    ``cohort_size`` cohort.
    """
    member = list(get_cohort(cohort_size))[0]
    true_params = np.asarray(member.subject.head.parameters)
    fusion = DiffractionAwareSensorFusion()
    errors = []
    residuals = []
    localization = []
    for count in probe_counts:
        session = _subsampled_session(member.session, count)
        result = fusion.run(session)
        estimated = np.asarray(result.head.parameters)
        errors.append(float(np.linalg.norm(estimated - true_params) * 1e3))
        residuals.append(result.residual_deg)
        truth_angles = session.truth.probe_angles_deg()
        localization.append(
            float(np.median(np.abs(result.fused_angles_deg - truth_angles)))
        )
    return DensityAblationResult(
        probe_counts=tuple(int(c) for c in probe_counts),
        head_param_error_mm=tuple(errors),
        localization_median_deg=tuple(localization),
        residual_deg=tuple(residuals),
    )
