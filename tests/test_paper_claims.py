"""The paper's claims, asserted over one seeded run of every experiment.

``EXPERIMENTS.md`` is :func:`repro.eval.report.render` of that same run, so
``TestRecord`` fails whenever a change moves a recorded number without the
record being regenerated (``python -m repro.eval.report EXPERIMENTS.md``).
The other classes assert each figure's and ablation's shape claim: who
wins, and by roughly what bound.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.eval.report import PAPER, render

RECORD = Path(__file__).resolve().parent.parent / "EXPERIMENTS.md"

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def r(experiment_results):
    return experiment_results


class TestRecord:
    def test_record_is_experiments_md(self, r):
        assert render(r) == RECORD.read_text(encoding="utf-8")

    def test_every_paper_value_is_rendered(self, r):
        text = render(r)
        for figure, quantities in PAPER.items():
            section = text.split(f"### {figure} — ")[1].split("\n### ")[0]
            for quantity, value in quantities.items():
                assert f"| {quantity} | {value} | " in section


class TestGroundwork:
    def test_fig02_same_user_diagonal_cross_user_not(self, r):
        fig2 = r.fig2
        same_diag = float(fig2.same_user.diagonal().mean())
        assert fig2.diagonal_dominance > 0.15
        assert same_diag > 0.85
        assert fig2.cross_user_diagonal_mean < same_diag - 0.2
        assert np.all(fig2.same_user <= 1.0 + 1e-9)

    def test_fig05_delay_follows_the_diffracted_path(self, r):
        fig5 = r.fig5
        assert fig5.rms_error_diffracted_cm < 0.5
        assert fig5.rms_error_euclidean_cm > 3 * fig5.rms_error_diffracted_cm


class TestSystem:
    def test_fig09_first_taps_on_the_diffraction_delays(self, r):
        fig9 = r.fig9
        err_left, err_right = fig9.first_tap_error_samples
        assert err_left < 3.0
        assert err_right < 3.0
        assert fig9.tap_count_left >= 2
        assert fig9.tap_count_right >= 2
        # The source is on the left, so the left tap is earlier.
        assert fig9.first_tap_left < fig9.first_tap_right

    def test_fig14_relative_channel_has_several_peaks(self, r):
        fig14 = r.fig14
        assert fig14.n_peaks >= 2
        assert abs(fig14.strongest_peak_ms - fig14.true_itd_ms) < 0.15

    def test_fig16_wild_low_end_stable_mid_band(self, r):
        fig16 = r.fig16
        assert fig16.low_band_std_db > 3 * fig16.mid_band_std_db
        assert fig16.mid_band_std_db < 3.0
        assert fig16.measurement_rms_error_db < 2.0


class TestMainResults:
    def test_fig17_single_digit_median_bounded_tail(self, r):
        fig17 = r.fig17
        assert fig17.median_error_deg < 8.0
        assert fig17.max_error_deg < 25.0
        scatter = np.corrcoef(fig17.truth_angles_deg, fig17.estimated_angles_deg)
        assert scatter[0, 1] > 0.99

    def test_fig18_uniq_between_global_and_ceiling(self, r):
        fig18 = r.fig18
        for uniq, template, ceiling in zip(
            fig18.mean_uniq, fig18.mean_global, fig18.mean_remeasured
        ):
            assert template < uniq < ceiling
        assert fig18.improvement_factor > 1.3

    def test_fig18_ordering_holds_at_every_angle(self, r):
        fig18 = r.fig18
        assert fig18.angles_deg.shape == (37,)
        for template, uniq, ceiling in (
            (fig18.global_left, fig18.uniq_left, fig18.remeasured_left),
            (fig18.global_right, fig18.uniq_right, fig18.remeasured_right),
        ):
            assert np.all(template < uniq)
            assert np.all(uniq < ceiling)

    def test_fig19_every_volunteer_improves(self, r):
        fig19 = r.fig19
        assert np.all(fig19.uniq_left > fig19.global_left)
        assert np.all(fig19.uniq_right > fig19.global_right)
        assert np.all(fig19.per_volunteer_gain > 1.1)

    def test_fig20_sample_hrirs(self, r):
        fig20 = r.fig20
        assert fig20.best.uniq_correlation > 0.8
        assert fig20.average.uniq_correlation > 0.6
        assert fig20.worst.uniq_correlation > 0.2
        assert fig20.best.uniq_correlation > fig20.best.global_correlation
        assert fig20.average.uniq_correlation > fig20.average.global_correlation

    def test_fig21_personalized_beats_global(self, r):
        med_personal, med_global = r.fig21.median_errors
        fb_personal, fb_global = r.fig21.front_back_accuracy
        assert med_personal < 12.0
        assert med_global > 2.5 * med_personal
        assert fb_personal > fb_global
        assert fb_personal > 0.9

    def test_fig22_personalized_wins_every_signal(self, r):
        for comparison in r.fig22.categories():
            med_p, med_g = comparison.median_errors
            fb_p, fb_g = comparison.front_back_accuracy
            assert med_p <= med_g
            assert fb_p >= fb_g
        fb_personal, fb_global = r.fig22.mean_front_back_accuracy
        assert fb_personal > 0.75
        assert fb_personal - fb_global > 0.1


class TestAblations:
    def test_fusion_beats_dead_reckoning(self, r):
        # The average-head acoustic strategy can match fusion on angle (it
        # borrows the IMU for front/back); fusion only has to stay close.
        assert r.fusion.fused_deg < r.fusion.imu_only_deg
        assert r.fusion.fused_deg < r.fusion.acoustic_average_head_deg + 1.5

    def test_diffraction_model_beats_straight_lines(self, r):
        d = r.diffraction
        assert d.diffraction_median_deg < d.euclidean_median_deg
        assert d.diffraction_residual_deg < d.euclidean_residual_deg

    def test_near_far_conversion_improves_timing(self, r):
        nf = r.near_far
        assert nf.converted_itd_error_ms < nf.near_as_far_itd_error_ms
        assert nf.converted_correlation >= nf.near_as_far_correlation - 0.05

    def test_density_localization_does_not_degrade(self, r):
        loc = r.density.localization_median_deg
        assert loc[-1] <= loc[0] + 1.0
        assert loc[-1] < 6.0
