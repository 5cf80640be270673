"""Tests for the markdown report generator."""

from types import SimpleNamespace

import pytest

from repro.eval import ablations, report
from repro.eval.report import main, render

_ABLATIONS = (
    "ablation_sensor_fusion",
    "ablation_diffraction_model",
    "ablation_near_far_conversion",
    "ablation_measurement_density",
)


class TestReport:
    def test_contains_every_figure(self, experiment_results):
        text = render(experiment_results)
        for figure in (2, 5, 9, 14, 16, 17, 18, 19, 20, 21, 22):
            assert f"### Figure {figure} — " in text
        assert "## Ablations" in text
        assert "## Extensions" in text

    def test_cli_writes_file(self, experiment_results, tmp_path, capsys,
                             monkeypatch):
        cohorts = []

        def run(cohort_size):
            cohorts.append(cohort_size)
            return experiment_results

        monkeypatch.setattr(report, "run_experiments", run)
        path = tmp_path / "report.md"
        assert main([str(path), "--quick"]) == 0
        assert "wrote" in capsys.readouterr().out
        assert cohorts == [2]
        assert path.read_text(encoding="utf-8") == render(experiment_results)


class TestOneCohort:
    """The figures and the ablations of a run share one cohort."""

    def test_every_ablation_builds_the_cohort_it_is_given(self, monkeypatch):
        sizes = []

        class Built(Exception):
            pass

        def get_cohort(n):
            sizes.append(n)
            raise Built

        monkeypatch.setattr(ablations, "get_cohort", get_cohort)
        for name in _ABLATIONS:
            with pytest.raises(Built):
                getattr(ablations, name)(cohort_size=2)
        assert sizes == [2] * len(_ABLATIONS)

    def test_run_passes_its_cohort_size_to_every_ablation(self, monkeypatch):
        sizes = {}

        def harness(*args, **kwargs):
            return None

        for module in (
            report.groundwork,
            report.channels,
            report.hardware,
            report.localization,
            report.hrtf_quality,
            report.aoa,
        ):
            for name in dir(module):
                if name.startswith("fig"):
                    monkeypatch.setattr(module, name, harness)
        monkeypatch.setattr(
            report,
            "personalize_capture",
            lambda *args, **kwargs: (None, SimpleNamespace(quality=None)),
        )
        monkeypatch.setattr(report, "apply_fault", harness)
        for name in _ABLATIONS:
            monkeypatch.setattr(
                ablations,
                name,
                lambda name=name, **kwargs: sizes.setdefault(name, kwargs["cohort_size"]),
            )
        assert report.run_experiments(2).cohort_size == 2
        assert sizes == {name: 2 for name in _ABLATIONS}
