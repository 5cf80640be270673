"""The experiments record: run every paper experiment, render ``EXPERIMENTS.md``.

This module is the one place that runs the paper's evaluation and the one
place that holds the paper's numbers (:data:`PAPER`).  Its output *is*
``EXPERIMENTS.md``; to update the record after a change that moves a
number, run::

    python -m repro.eval.report EXPERIMENTS.md        # the record (5 volunteers)
    python -m repro.eval.report report.md --quick    # 2 volunteers, faster

Every harness is seeded, so the record is byte-reproducible on any
machine.  :func:`run_experiments` runs the harnesses once and
:func:`render` turns their results into markdown without running
anything, so a test can compare the record with the committed file and
assert the paper's shape claims over the same run.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

import numpy as np

from repro.core.pipeline import personalize_capture
from repro.testing.faults import apply_fault
from repro.eval import (
    ablations,
    aoa,
    channels,
    groundwork,
    hardware,
    hrtf_quality,
    localization,
)
from repro.eval.common import DEFAULT_COHORT_SIZE
from repro.quality.report import QualityReport

#: The paper's value for each quantity the record measures, by figure.
PAPER: dict[str, dict[str, str]] = {
    "Figure 2": {
        "same-user matrix": "strongly diagonal (~20° resolution)",
        "cross-user same-angle correlation":
            "low, off-diagonal structure (~0.3-0.7 range)",
    },
    "Figure 5": {
        "acoustic `v*dt` vs diffracted path": "matches",
        "acoustic `v*dt` vs Euclidean path": "diverges, growing with shadow depth",
    },
    "Figure 9": {
        "first tap, left ear": "on the diffraction path",
        "first tap, right ear": "on the diffraction path",
        "taps per ear": "multiple",
    },
    "Figure 14": {
        "peaks above 35% of max": "multiple",
        "strongest peak vs true ITD": "ambiguous",
    },
    "Figure 16": {
        "below 50 Hz": "unstable",
        "100 Hz - 10 kHz": "reasonably stable",
        "calibration measurement": "usable for compensation",
    },
    "Figure 17": {
        "median angular error": "4.8°",
        "tail": "~15° max",
        "estimate-vs-truth scatter": "on the diagonal",
    },
    "Figure 18": {
        "UNIQ vs ground truth (mean L/R)": "0.74 / 0.71",
        "global template vs ground truth (mean L/R)": "0.41 / 0.41",
        "re-measured ground truth, the ceiling (mean L/R)": "~0.9",
        "improvement factor": "~1.75×",
        "right-ear dip": "near 90° (contralateral SNR loss)",
    },
    "Figure 19": {
        "volunteers improving, both ears": "all 5",
        "per-volunteer gain": "varies by volunteer",
    },
    "Figure 20": {
        "best case corr (UNIQ / global)": "0.96",
        "average case corr (UNIQ / global)": "0.85",
        "worst case corr (UNIQ / global)": "0.43",
    },
    "Figure 21": {
        "personalized median error": "7.8°",
        "global median error": "45.3°",
        "personalized max error": "60°",
        "global front-back confusion": "29% of trials",
    },
    "Figure 22": {
        "p80 error, white noise (personalized)": "< 20°",
        "p80 error, music (personalized)": "< 20°",
        "speech hardest for the personalized estimator": "yes (72.8% fb)",
        "front-back accuracy, personalized mean": "82.8%",
        "front-back accuracy, global mean": "59.8%",
        "white noise best (wideband)": "87.2%",
    },
}


@dataclass(frozen=True)
class ExperimentResults:
    """Every harness's result from one seeded run: all the record renders."""

    cohort_size: int
    fig2: groundwork.PinnaCorrelationResult
    fig5: groundwork.DiffractionEvidenceResult
    fig9: channels.ChannelResponseResult
    fig14: channels.RelativeChannelResult
    fig16: hardware.FrequencyResponseResult
    fig17: localization.LocalizationResult
    fig18: hrtf_quality.HrirCorrelationResult
    fig19: hrtf_quality.VolunteerResult
    fig20: hrtf_quality.SampleHrirsResult
    fig21: aoa.AoAComparisonResult
    fig22: aoa.UnknownSourceResult
    fusion: ablations.FusionAblationResult
    diffraction: ablations.DiffractionAblationResult
    near_far: ablations.NearFarAblationResult
    density: ablations.DensityAblationResult
    clean_quality: QualityReport
    dropout_quality: QualityReport


def run_experiments(cohort_size: int = DEFAULT_COHORT_SIZE) -> ExperimentResults:
    """Run every figure harness, ablation and the quality demo once.

    The figures and the ablations share one ``cohort_size`` cohort.
    """
    session, clean = personalize_capture(
        1, 0, probe_interval_s=0.6, angle_step_deg=15.0
    )
    _, dropout = personalize_capture(
        1, 0, angle_step_deg=15.0,
        session=apply_fault(session, "dropout", keep_every=3),
    )
    return ExperimentResults(
        cohort_size=cohort_size,
        fig2=groundwork.fig2_pinna_correlation(),
        fig5=groundwork.fig5_diffraction_evidence(),
        fig9=channels.fig9_channel_response(),
        fig14=channels.fig14_relative_channel(),
        fig16=hardware.fig16_frequency_response(),
        fig17=localization.fig17_localization(cohort_size),
        fig18=hrtf_quality.fig18_hrir_correlation(cohort_size),
        fig19=hrtf_quality.fig19_volunteers(cohort_size),
        fig20=hrtf_quality.fig20_sample_hrirs(cohort_size),
        fig21=aoa.fig21_aoa_known_source(cohort_size),
        fig22=aoa.fig22_aoa_unknown_source(cohort_size),
        fusion=ablations.ablation_sensor_fusion(cohort_size=cohort_size),
        diffraction=ablations.ablation_diffraction_model(cohort_size=cohort_size),
        near_far=ablations.ablation_near_far_conversion(cohort_size=cohort_size),
        density=ablations.ablation_measurement_density(cohort_size=cohort_size),
        clean_quality=clean.quality,
        dropout_quality=dropout.quality,
    )


def _table(rows: list[tuple[str, str]], paper: dict[str, str]) -> list[str]:
    """``| quantity | paper | measured |`` rows; "—" where the paper is silent."""
    return [
        "| quantity | paper | measured |",
        "|---|---|---|",
        *[f"| {q} | {paper.get(q, '—')} | {m} |" for q, m in rows],
    ]


def _figure(
    figure: str, title: str, source: str, rows: list[tuple[str, str]],
    note: str = "",
) -> list[str]:
    """One figure's section: heading, harness, the paper/measured table."""
    lines = [f"### {figure} — {title}", source, "", *_table(rows, PAPER[figure])]
    if note:
        lines += ["", note]
    return lines + [""]


def _pair(values: tuple[float, float]) -> str:
    return f"{values[0]:.2f} / {values[1]:.2f}"


def _groundwork(r: ExperimentResults) -> list[str]:
    same = r.fig2.same_user
    cross_diag = r.fig2.cross_user.diagonal()
    off_diagonal = same[~np.eye(same.shape[0], dtype=bool)].mean()
    fig5 = r.fig5
    deepest = abs(fig5.measured_delta_d_cm[-1] - fig5.euclidean_delta_d_cm[-1])
    return [
        "## Groundwork (Section 2)",
        "",
        *_figure(
            "Figure 2", "pinna correlation matrices",
            "`repro.eval.fig2_pinna_correlation`",
            [
                ("same-user matrix",
                 f"diagonal mean {same.diagonal().mean():.2f}, off-diagonal "
                 f"mean {off_diagonal:.2f} (dominance "
                 f"{r.fig2.diagonal_dominance:.2f})"),
                ("cross-user same-angle correlation",
                 f"mean {r.fig2.cross_user_diagonal_mean:.2f} (range "
                 f"{cross_diag.min():.2f}-{cross_diag.max():.2f})"),
            ],
        ),
        *_figure(
            "Figure 5", "diffraction evidence",
            "`repro.eval.fig5_diffraction_evidence`",
            [
                ("acoustic `v*dt` vs diffracted path",
                 f"RMS error {fig5.rms_error_diffracted_cm:.2f} cm"),
                ("acoustic `v*dt` vs Euclidean path",
                 f"RMS error {fig5.rms_error_euclidean_cm:.2f} cm "
                 f"({deepest:.1f} cm at the deepest mic)"),
            ],
        ),
    ]


def _system(r: ExperimentResults) -> list[str]:
    fig9, fig14, fig16 = r.fig9, r.fig14, r.fig16
    return [
        "## System behaviour",
        "",
        *_figure(
            "Figure 9", "binaural channel impulse response",
            "`repro.eval.fig9_channel_response` (one probe at 45°)",
            [
                ("first tap, left ear",
                 f"detected {fig9.first_tap_left} vs true "
                 f"{fig9.true_delay_left_samples:.1f} samples"),
                ("first tap, right ear",
                 f"detected {fig9.first_tap_right} vs true "
                 f"{fig9.true_delay_right_samples:.1f} samples"),
                ("taps per ear",
                 f"left {fig9.tap_count_left}, right {fig9.tap_count_right}"),
            ],
        ),
        *_figure(
            "Figure 14", "relative channel of an unknown source",
            "`repro.eval.fig14_relative_channel`",
            [
                ("peaks above 35% of max", f"{fig14.n_peaks}"),
                ("strongest peak vs true ITD",
                 f"{fig14.strongest_peak_ms:.3f} ms vs {fig14.true_itd_ms:.3f} ms"),
            ],
            "Several candidate lags, hence several candidate AoAs: the Eq. 11 "
            "disambiguation is needed.",
        ),
        *_figure(
            "Figure 16", "speaker/microphone frequency response",
            "`repro.eval.fig16_frequency_response`",
            [
                ("below 50 Hz", f"std {fig16.low_band_std_db:.1f} dB"),
                ("100 Hz - 10 kHz", f"std {fig16.mid_band_std_db:.1f} dB"),
                ("calibration measurement",
                 f"{fig16.measurement_rms_error_db:.2f} dB RMS error in the "
                 "mid band"),
            ],
        ),
    ]


def _localization_and_hrtf(r: ExperimentResults) -> list[str]:
    fig17, fig18, fig19, fig20 = r.fig17, r.fig18, r.fig19, r.fig20
    scatter_r = np.corrcoef(fig17.truth_angles_deg, fig17.estimated_angles_deg)[0, 1]
    ordered = [
        int(np.sum((g < u) & (u < c)))
        for g, u, c in (
            (fig18.global_left, fig18.uniq_left, fig18.remeasured_left),
            (fig18.global_right, fig18.uniq_right, fig18.remeasured_right),
        )
    ]
    n_angles = fig18.angles_deg.shape[0]
    dip = np.sort(fig18.angles_deg[np.argsort(fig18.uniq_right)[:3]])
    gains = fig19.per_volunteer_gain
    improving = int(np.sum(
        (fig19.uniq_left > fig19.global_left)
        & (fig19.uniq_right > fig19.global_right)
    ))

    def case(c) -> str:
        return f"{c.uniq_correlation:.2f} / {c.global_correlation:.2f}"

    return [
        *_figure(
            "Figure 17", "phone localization accuracy",
            f"`repro.eval.fig17_localization` ({fig17.errors_deg.shape[0]} "
            f"probes, {r.cohort_size} volunteers)",
            [
                ("median angular error", f"{fig17.median_error_deg:.1f}°"),
                ("90th percentile", f"{fig17.p90_error_deg:.1f}°"),
                ("tail", f"{fig17.max_error_deg:.1f}° max"),
                ("estimate-vs-truth scatter", f"r = {scatter_r:.3f}"),
            ],
            "The simulated gesture is milder than real human arms; the error "
            "*structure* (single-digit median, bounded tail from gesture "
            "deviations) is the claim.",
        ),
        *_figure(
            "Figure 18", "HRIR correlation vs angle",
            "`repro.eval.fig18_hrir_correlation`",
            [
                ("UNIQ vs ground truth (mean L/R)", _pair(fig18.mean_uniq)),
                ("global template vs ground truth (mean L/R)",
                 _pair(fig18.mean_global)),
                ("re-measured ground truth, the ceiling (mean L/R)",
                 _pair(fig18.mean_remeasured)),
                ("improvement factor", f"{fig18.improvement_factor:.2f}×"),
                ("angles with global < UNIQ < ceiling (L / R)",
                 f"{ordered[0]} / {ordered[1]} of {n_angles}"),
                ("right-ear dip",
                 "lowest UNIQ R at " + ", ".join(f"{a:.0f}°" for a in dip)),
            ],
        ),
        *_figure(
            "Figure 19", "per-volunteer gains",
            "`repro.eval.fig19_volunteers`",
            [
                ("volunteers improving, both ears",
                 f"{improving} of {len(fig19.names)}"),
                ("per-volunteer gain", f"{gains.min():.2f}×-{gains.max():.2f}×"),
            ],
        ),
        *_figure(
            "Figure 20", "example HRIRs",
            "`repro.eval.fig20_sample_hrirs`",
            [
                ("best case corr (UNIQ / global)", case(fig20.best)),
                ("average case corr (UNIQ / global)", case(fig20.average)),
                ("worst case corr (UNIQ / global)", case(fig20.worst)),
            ],
        ),
    ]


def _aoa(r: ExperimentResults) -> list[str]:
    fig21, fig22 = r.fig21, r.fig22
    med_p, med_g = fig21.median_errors
    fb_p, fb_g = fig21.front_back_accuracy
    p80_g, p95_g = np.percentile(fig21.global_errors, [80, 95])
    p95_p = np.percentile(fig21.personalized_errors, 95)
    fb_personal, fb_global = fig22.mean_front_back_accuracy
    accuracy = {c.label: c.front_back_accuracy[0] for c in fig22.categories()}
    hardest = min(accuracy, key=accuracy.get)
    best = max(accuracy, key=accuracy.get)
    per_signal = " / ".join(
        f"{label.split()[-1]} {fb:.0%}" for label, fb in accuracy.items()
    )
    trials = fig22.speech.truth_deg.shape[0]
    return [
        *_figure(
            "Figure 21", "known-source AoA",
            f"`repro.eval.fig21_aoa_known_source` ({fig21.truth_deg.shape[0]} "
            "trials)",
            [
                ("personalized median error", f"{med_p:.1f}°"),
                ("global median error",
                 f"{med_g:.1f}° (p80 = {p80_g:.0f}°, p95 = {p95_g:.0f}°)"),
                ("personalized max error", f"{p95_p:.1f}° at p95"),
                ("personalized front-back confusion", f"{1 - fb_p:.0%} of trials"),
                ("global front-back confusion", f"{1 - fb_g:.0%} of trials"),
            ],
            "The global template fails the paper's way: front-back "
            "confusions make its tail.",
        ),
        *_figure(
            "Figure 22", "unknown-source AoA",
            f"`repro.eval.fig22_aoa_unknown_source` ({trials} trials per "
            "signal type)",
            [
                ("p80 error, white noise (personalized)",
                 f"{fig22.white_noise.p80_errors[0]:.1f}°"),
                ("p80 error, music (personalized)",
                 f"{fig22.music.p80_errors[0]:.1f}°"),
                ("p80 error, speech (personalized)",
                 f"{fig22.speech.p80_errors[0]:.1f}°"),
                ("speech hardest for the personalized estimator",
                 f"{'yes' if hardest == 'speech' else 'no'} "
                 f"({accuracy['speech']:.0%} fb)"),
                ("front-back accuracy, personalized mean",
                 f"{fb_personal:.0%} ({per_signal})"),
                ("front-back accuracy, global mean", f"{fb_global:.0%}"),
                ("white noise best (wideband)",
                 f"{accuracy['white noise']:.0%} "
                 f"({'best' if best == 'white noise' else 'not best'})"),
            ],
        ),
    ]


def _ablations(r: ExperimentResults) -> list[str]:
    fusion, diffraction, near_far, density = (
        r.fusion, r.diffraction, r.near_far, r.density
    )
    converted_us = near_far.converted_itd_error_ms * 1e3
    near_us = near_far.near_as_far_itd_error_ms * 1e3
    rows = [
        ("IMU only, median error", f"{fusion.imu_only_deg:.1f}°"),
        ("acoustic with an average head, median error",
         f"{fusion.acoustic_average_head_deg:.1f}°"),
        ("diffraction-aware fusion, median error", f"{fusion.fused_deg:.1f}°"),
        ("diffraction vs Euclidean delays, median error",
         f"{diffraction.diffraction_median_deg:.1f}° vs "
         f"{diffraction.euclidean_median_deg:.1f}°"),
        ("diffraction vs Euclidean delays, optimizer residual",
         f"{diffraction.diffraction_residual_deg:.1f}° vs "
         f"{diffraction.euclidean_residual_deg:.1f}°"),
        ("far-field correlation, converted vs near used as far",
         f"{near_far.converted_correlation:.2f} vs "
         f"{near_far.near_as_far_correlation:.2f}"),
        ("ITD error, converted vs near used as far",
         f"{converted_us:.1f} µs vs {near_us:.1f} µs "
         f"({1 - converted_us / near_us:.0%} less)"),
    ]
    rows += [
        (f"N = {n} probes: localization median / head error / residual",
         f"{loc:.1f}° / {err:.0f} mm / {res:.1f}°")
        for n, err, loc, res in zip(
            density.probe_counts,
            density.head_param_error_mm,
            density.localization_median_deg,
            density.residual_deg,
        )
    ]
    return [
        "## Ablations (design choices, not paper figures)",
        "",
        "`repro.eval.ablation_sensor_fusion` (Section 4.1: why fuse), "
        "`ablation_diffraction_model` (Section 2: why model diffraction), "
        "`ablation_near_far_conversion` (Section 4.3: why convert) and "
        "`ablation_measurement_density` (\"with larger N, E_opt converges "
        "better\").  Each removes one ingredient of UNIQ from the first "
        f"members of this run's {r.cohort_size}-volunteer cohort and "
        "measures the damage.",
        "",
        *_table(rows, {}),
        "",
        "The average-head acoustic strategy still borrows the IMU for "
        "front/back, so it can match fusion on *angle*; fusion's further win "
        "is the personal head parameters that the later stages consume.  The "
        "near-as-far table keeps the correlation because the metric aligns "
        "first taps, which hides timing.  On interaural delay the converted "
        "table is closer to the true far field only by the margin in the ITD "
        "row.  E is weakly identified from the angle residual alone, "
        "consistent with the paper reporting no E accuracy.",
        "",
    ]


_EXTENSIONS = """\
## Extensions (paper Section 4.5 motivation / Section 7 future work)

Each extension keeps its experiment and its asserted claim in its own
benchmark (`pytest benchmarks/ --benchmark-disable
--ignore=benchmarks/bench_perf_kernels.py -s` prints the numbers); this
record names the claim and quotes no numbers.

- **Hearing-aid beamforming** (`benchmarks/bench_app_beamforming.py`):
  the exact personal table nulls the interferer below -20 dB and loses
  under 3 dB of the target; UNIQ's null lands deeper on the true
  interferer than the global template's; the phase-robust matched mode
  gains SIR for every table.
- **Perceptual cue errors** (`benchmarks/bench_perceptual_distance.py`):
  UNIQ beats the global template on ITD error, spectral distortion and
  the composite JND score; on broadband ILD, which is head-size-generic,
  UNIQ's error is at most 1 dB above the template's.
- **3D HRTF** (`benchmarks/bench_ext_3d_elevation.py`, Section 7 future
  work): three tilted capture rings and a cross-ring fit of
  E3 = (a, b, c, d); off the horizontal plane the elevation field beats
  the flat 2D table on correlation and ITD error, and on the plane its
  correlation is within 0.02 of the flat table's.
- **Attempt 2, blind decoupling**
  (`benchmarks/bench_ablation_blind_decoupling.py`, the paper's negative
  result): the bilinear ray-train x pinna-kernel model fits a measured
  channel to a relative error under 0.25, but independent restarts
  recover kernels that agree below 0.7 correlation, so the factorization
  cannot drive an exact near-far conversion.
- **Speaker triangulation** (Section 4.5, `examples/mall_navigation.py`
  and `tests/test_core_triangulation.py`): signed bearings from a mix of
  four known speakers locate the listener and the facing direction.
"""


def _quality(r: ExperimentResults) -> list[str]:
    def table(report: QualityReport) -> list[str]:
        rows = ["| stage | score | flags |", "|---|---|---|"]
        for stage, score, flags in report.stage_table():
            rows.append(f"| {stage} | {score:.3f} | {flags} |")
        return rows

    return [
        "## Quality gating",
        "",
        "Every personalization carries a `QualityReport` (docs/ROBUSTNESS.md):",
        "per-stage sentinel scores multiplied into one confidence scalar.",
        "A clean seeded capture and the same capture with 2/3 of its probes",
        "dropped:",
        "",
        f"Clean capture — confidence {r.clean_quality.confidence:.3f}:",
        "",
        *table(r.clean_quality),
        "",
        f"Probe dropout — confidence {r.dropout_quality.confidence:.3f}:",
        "",
        *table(r.dropout_quality),
        "",
    ]


def render(results: ExperimentResults) -> str:
    """The markdown record of ``results``; pure, so it runs no harness."""
    lines = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        "Generated by `python -m repro.eval.report EXPERIMENTS.md`; do not "
        "edit by hand.",
        f"Cohort of {results.cohort_size} virtual volunteers; every harness is "
        "seeded, so the record is byte-reproducible.",
        "`tests/test_paper_claims.py` checks this file against a fresh run "
        "and asserts each shape claim.",
        "",
        "Absolute numbers are not expected to match the paper: the substrate "
        "is a seeded acoustic simulation, not the authors' testbed (see the "
        "substitution table in DESIGN.md).  The claim per figure is the "
        "*shape*: who wins, by roughly what factor, and where the method "
        "degrades.",
        "",
        *_groundwork(results),
        *_system(results),
        "## Main results (Section 5)",
        "",
        *_localization_and_hrtf(results),
        *_aoa(results),
        *_ablations(results),
        _EXTENSIONS,
        *_quality(results),
    ]
    return "\n".join(lines)


def generate_report(cohort_size: int = DEFAULT_COHORT_SIZE) -> str:
    """Run every harness and return the markdown record."""
    return render(run_experiments(cohort_size))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval.report",
        description="Run every experiment harness and write the markdown "
        "record (EXPERIMENTS.md).",
    )
    parser.add_argument("output", help="output markdown path")
    parser.add_argument(
        "--quick", action="store_true",
        help="use a 2-volunteer cohort for the figures (faster, noisier numbers)",
    )
    args = parser.parse_args(argv)
    report = generate_report(2 if args.quick else DEFAULT_COHORT_SIZE)
    with open(args.output, "w", encoding="utf-8") as handle:
        handle.write(report)
    print(f"wrote {args.output} ({len(report.splitlines())} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
