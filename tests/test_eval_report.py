"""Tests for the markdown report generator."""

from repro.eval import report
from repro.eval.report import main, render


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
