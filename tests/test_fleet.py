"""Fleet-evaluation tier tests: drift classes, population, digests, CLI.

The load-bearing properties, in suite order: the drift detector classifies
deviations the documented way, the pinned population is a pure function of
the module constants, the digests are exact statistics of the scores in
submission order, a fleet run through the real pipeline and
:class:`BatchServer` is bit-identical for any worker count and compares
clean against the pinned baseline, a one-sample delay regression in fusion
reads as a ``shift`` in head error, and the ``fleet`` CLI's exit codes
separate drift, unusable inputs and unmeasured subjects.

The real pipeline runs the pinned population once per session (the
``fleet_run`` module fixture); every other real-pipeline test runs a subset
of strata.
"""

from __future__ import annotations

import copy
import json
import os

import numpy as np
import pytest

from repro import cli
from repro.core.fusion import DiffractionAwareSensorFusion
from repro.core.mapstore import MAP_STORE_ENV
from repro.errors import ReproError
from repro.eval import fleet
from repro.eval.drift import (
    DEFAULT_TOLERANCES,
    classify_drift,
    compare_digests,
    render_drift_table,
)
from repro.eval.fleet import (
    DEFAULT_STRATA,
    METRICS,
    OVERALL,
    RATE_METRICS,
    SUBJECTS_PER_STRATUM,
    FleetReport,
    Stratum,
    aggregate,
    compare_reports,
    generate_population,
    run_fleet,
)
from repro.serve.job import Job, JobResult
from repro.testing.golden import golden_dir

BASELINE = os.path.join(golden_dir(), "fleet_baseline.json")


# -- drift classification -----------------------------------------------------


def _digest(**overrides):
    base = {
        "count": 100, "mean": 2.0, "std": 0.5,
        "p5": 1.0, "p25": 1.5, "p50": 2.0, "p75": 2.5, "p95": 3.0,
    }
    base.update(overrides)
    return base


class TestDriftClassification:
    def test_in_band_returns_none(self):
        assert classify_drift(_digest(), _digest(mean=2.1), "error_deg") is None

    def test_sign_consistent_mean_violation_is_shift(self):
        finding = classify_drift(
            _digest(), _digest(mean=2.4, p95=3.8), "error_deg"
        )
        assert finding.classification == "shift"
        assert set(finding.violations) == {"mean", "p95"}

    def test_std_without_mean_is_spread(self):
        finding = classify_drift(
            _digest(), _digest(std=0.9, p5=0.4, p95=3.6), "error_deg"
        )
        assert finding.classification == "spread"

    def test_extreme_quantiles_only_is_tail(self):
        finding = classify_drift(_digest(), _digest(p95=3.8), "error_deg")
        assert finding.classification == "tail"

    def test_interior_quantile_only_is_mixed(self):
        finding = classify_drift(_digest(), _digest(p25=2.3), "error_deg")
        assert finding.classification == "mixed"

    def test_unknown_metric_has_no_tolerance_hence_no_finding(self):
        assert (
            classify_drift(_digest(), _digest(mean=99.0), "no_such_metric")
            is None
        )

    def test_compare_digests_flags_structural_mismatches(self):
        expected = {"clean": {"error_deg": _digest(), "confidence": _digest()}}
        actual = {
            "clean": {"error_deg": _digest()},
            "extra_stratum": {"error_deg": _digest()},
        }
        violations, findings = compare_digests(expected, actual)
        assert findings == []
        assert any("confidence" in v and "missing" in v for v in violations)
        assert any("extra_stratum" in v for v in violations)

    def test_compare_digests_flags_count_mismatch(self):
        violations, _ = compare_digests(
            {"clean": {"error_deg": _digest()}},
            {"clean": {"error_deg": _digest(count=99)}},
        )
        assert any("count" in v for v in violations)

    def test_render_drift_table(self):
        finding = classify_drift(
            _digest(), _digest(mean=2.4, p95=3.8), "error_deg",
            stratum="clean",
        )
        table = render_drift_table([finding])
        assert "stratum" in table and "clean" in table
        assert "shift" in table and "error_deg" in table
        assert render_drift_table([]) == "no drift findings"

    def test_default_tolerances_cover_every_fleet_metric(self):
        assert set(DEFAULT_TOLERANCES) == set(METRICS) | set(RATE_METRICS)


# -- the pinned population ----------------------------------------------------


class TestPopulation:
    def test_generation_is_deterministic(self):
        a, b = generate_population(), generate_population()
        assert [job.spec_key() for job in a] == [job.spec_key() for job in b]

    def test_every_stratum_is_populated(self):
        jobs = generate_population()
        assert len(jobs) == SUBJECTS_PER_STRATUM * len(DEFAULT_STRATA)
        for stratum in DEFAULT_STRATA:
            members = [j for j in jobs if j.params["stratum"] == stratum.name]
            assert len(members) == SUBJECTS_PER_STRATUM
            assert all(j.fault == stratum.fault for j in members)
            assert all(dict(j.fault_args) == dict(stratum.fault_args)
                       for j in members)

    def test_subject_seeds_are_distinct(self):
        # Seeded by population index, so no two jobs coalesce.
        jobs = generate_population()
        assert [j.subject_seed for j in jobs] == [
            1_000_000 + fleet.SEED * 100_000 + i for i in range(len(jobs))
        ]

    def test_leading_subset_keeps_its_subjects(self):
        subset = generate_population(DEFAULT_STRATA[:2])
        full = generate_population()
        assert [j.spec_key() for j in subset] == [
            j.spec_key() for j in full[: len(subset)]
        ]

    def test_validation(self):
        with pytest.raises(ReproError):
            generate_population([])
        with pytest.raises(ReproError):
            generate_population([Stratum("a"), Stratum("a")])
        with pytest.raises(ReproError):
            generate_population([Stratum(OVERALL)])


class TestJobParams:
    def test_empty_params_keep_legacy_spec_key(self):
        job = Job(job_id="a", subject_seed=1)
        assert "params" not in job.spec_key()
        assert "params" not in job.to_dict()

    def test_params_distinguish_computations(self):
        plain = Job(job_id="a", subject_seed=1)
        tagged = Job(job_id="a", subject_seed=1, params={"stratum": "clean"})
        assert plain.spec_key() != tagged.spec_key()

    def test_params_round_trip_through_dict(self):
        job = Job(
            job_id="a", subject_seed=1,
            params={"stratum": "clean", "cohort": 2},
        )
        clone = Job.from_dict(json.loads(json.dumps(job.to_dict())))
        assert clone.spec_key() == job.spec_key()
        assert dict(clone.params) == dict(job.params)


# -- digests over scored results ----------------------------------------------


def _scored(job, error_deg, head_error_mm, confidence, salvaged=False,
            attempts=1):
    return JobResult(
        job_id=job.job_id,
        status="ok",
        payload={
            "error_deg": error_deg,
            "head_error_mm": head_error_mm,
            "confidence": [confidence],
            "salvaged": salvaged,
        },
        attempts=attempts,
    )


class TestAggregate:
    STRATA = (Stratum("clean"), Stratum("noisy", "mic_noise", {"std": 0.01}))

    def _results(self):
        jobs = generate_population(self.STRATA)
        c0, c1, c2, n0, n1, n2 = jobs
        results = [
            _scored(c0, [1.0, 2.0], [3.0, 4.0, 5.0], 1.0),
            _scored(c1, [0.5], [1.0, 1.0, 1.0], 0.9, salvaged=True),
            _scored(c2, [4.0, 3.0], [2.0, 6.0, 0.0], 0.8, attempts=2),
            _scored(n0, [7.0], [9.0, 9.0, 9.0], 0.5),
            JobResult(job_id=n1.job_id, status="failed", error="boom"),
            JobResult(job_id=n2.job_id, status="crashed", error="died",
                      attempts=3),
        ]
        return jobs, results

    def test_digest_is_exact_over_submission_order(self):
        jobs, results = self._results()
        digest = aggregate({}, jobs, results).digest
        errors = np.array([1.0, 2.0, 0.5, 4.0, 3.0])
        want = digest["clean"]["error_deg"]
        assert want["count"] == 5
        assert want["mean"] == round(float(errors.mean()), 6)
        assert want["std"] == round(float(errors.std()), 6)
        for name, q in zip(("p5", "p25", "p50", "p75", "p95"),
                           np.percentile(errors, [5, 25, 50, 75, 95])):
            assert want[name] == round(float(q), 6)
        assert digest["clean"]["head_error_mm"]["count"] == 9
        assert digest["clean"]["confidence"]["mean"] == 0.9
        assert digest[OVERALL]["error_deg"]["count"] == 6

    def test_rates_and_statuses(self):
        jobs, results = self._results()
        report = aggregate({}, jobs, results)
        clean, noisy = report.digest["clean"], report.digest["noisy"]
        assert clean["failure_rate"] == {"count": 3, "mean": 0.0}
        assert clean["salvage_rate"]["mean"] == round(1 / 3, 6)
        assert clean["retry_rate"]["mean"] == round(1 / 3, 6)
        # failed and crashed both fail; only attempts > 1 is a retry.
        assert noisy["failure_rate"]["mean"] == round(2 / 3, 6)
        assert noisy["retry_rate"]["mean"] == round(1 / 3, 6)
        assert noisy["error_deg"]["count"] == 1
        assert report.digest[OVERALL]["failure_rate"] == {
            "count": 6, "mean": round(2 / 6, 6)
        }
        assert report.statuses == {"ok": 4, "failed": 1, "crashed": 1}
        assert report.n_unmeasured == 1

    def test_unknown_result_is_rejected(self):
        jobs, results = self._results()
        stray = JobResult(job_id="stray", status="failed", error="x")
        with pytest.raises(ReproError):
            aggregate({}, jobs, [*results, stray])


class TestBaselineCompare:
    def test_report_matches_itself(self):
        baseline = json.load(open(BASELINE))
        assert compare_reports(baseline, copy.deepcopy(baseline)) == ([], [])

    def test_config_mismatch_is_a_violation(self):
        baseline = json.load(open(BASELINE))
        other = copy.deepcopy(baseline)
        other["config"]["subjects_per_stratum"] = 4
        violations, _ = compare_reports(baseline, other)
        assert any(v.startswith("config/subjects_per_stratum")
                   for v in violations)


# -- the real pipeline through the serve layer --------------------------------


@pytest.fixture(scope="module")
def fleet_run():
    """The pinned population, personalized once: ``(report, ops)``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(MAP_STORE_ENV, "")
        return run_fleet(workers=2)


@pytest.mark.slow
class TestFleetRun:
    def test_failed_subjects_feed_the_failure_rate(self, fleet_run):
        # clipped_audio (level 0.02) raises CalibrationError on every
        # pinned subject: a measured outcome, not an unmeasured one.
        report, _ = fleet_run
        clipped = report.digest["clipped_audio"]
        assert clipped["failure_rate"]["mean"] == 1.0
        assert not set(METRICS) & set(clipped)
        assert report.digest["clean"]["failure_rate"]["mean"] == 0.0
        assert report.statuses.get("failed", 0) >= SUBJECTS_PER_STRATUM
        assert report.n_unmeasured == 0

    def test_scores_are_real_measurements(self, fleet_run):
        clean = fleet_run[0].digest["clean"]
        # Fig. 17: every probe of every clean subject is scored, single-digit
        # median error; three head parameters per subject.
        assert clean["error_deg"]["count"] >= 10 * SUBJECTS_PER_STRATUM
        assert clean["error_deg"]["p50"] < 8.0
        assert clean["head_error_mm"]["count"] == 3 * SUBJECTS_PER_STRATUM

    def test_overall_row_equals_merged_strata(self, fleet_run):
        digest = fleet_run[0].digest
        strata = [s for s in digest if s != OVERALL]
        for metric in ("error_deg", "head_error_mm", "failure_rate"):
            assert digest[OVERALL][metric]["count"] == sum(
                digest[s][metric]["count"]
                for s in strata
                if metric in digest[s]
            )

    def test_report_save_is_canonical(self, fleet_run, tmp_path):
        report, _ = fleet_run
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        report.save(a)
        report.save(b)
        assert a.read_bytes() == b.read_bytes()
        assert json.loads(a.read_text())["digest"] == report.digest

    def test_bit_identical_across_worker_counts(self, fleet_run):
        # A leading subset keeps its subjects, so one worker must reproduce
        # the two-worker run's rows for those strata to the bit.
        two, _ = fleet_run
        subset = DEFAULT_STRATA[:2]
        one, _ = run_fleet(workers=1, strata=subset)
        for stratum in (s.name for s in subset):
            assert one.digest[stratum] == two.digest[stratum]
            assert one.counters[stratum] == two.counters[stratum]


# -- the fleet CLI ------------------------------------------------------------


def _stub_run(monkeypatch, report):
    calls = []

    def run(*, workers=2, strata=None):
        calls.append(workers)
        return report, {
            "wall_s": 1.0, "subjects_per_s": 21.0, "workers": workers,
            "statuses": dict(report.statuses), "serve_latency": {},
        }

    monkeypatch.setattr(fleet, "run_fleet", run)
    return calls


def _pinned_report():
    record = json.load(open(BASELINE))
    return FleetReport(
        config=record["config"],
        statuses=record["statuses"],
        counters=record["counters"],
        digest=record["digest"],
    )


class TestFleetCli:
    @pytest.mark.slow
    def test_compare_against_pinned_baseline_is_clean(
        self, fleet_run, tmp_path
    ):
        path = tmp_path / "report.json"
        fleet_run[0].save(path)
        assert cli.main(["fleet", "compare", "--report", str(path)]) == 0

    @pytest.mark.slow
    def test_shift_classification_via_api(self, monkeypatch):
        # A real pipeline regression that Fig. 17 error alone misses: every
        # left-ear delay one sample late.  Patched before the server forks,
        # so the workers inherit it.
        original = DiffractionAwareSensorFusion.extract_probe_delays

        def late_left(self, session, bank=None, active=None):
            t_left, t_right = original(self, session, bank, active)
            return t_left + 1.0 / session.fs, t_right

        monkeypatch.setattr(
            DiffractionAwareSensorFusion, "extract_probe_delays", late_left
        )
        report, _ = run_fleet(strata=DEFAULT_STRATA[:1])
        baseline = json.load(open(BASELINE))
        _, findings = compare_reports(baseline, report.to_dict())
        by_key = {(f.stratum, f.metric): f.classification for f in findings}
        assert by_key[("clean", "head_error_mm")] == "shift"

    def test_run_writes_the_report_and_passes_workers(
        self, monkeypatch, tmp_path
    ):
        calls = _stub_run(monkeypatch, _pinned_report())
        path = tmp_path / "report.json"
        # The pinned population has failed subjects; they do not fail the run.
        assert cli.main([
            "fleet", "run", "--workers", "1", "--output", str(path),
        ]) == 0
        assert calls == [1]
        with open(BASELINE, "rb") as handle:
            assert path.read_bytes() == handle.read()

    def test_regen_baseline_round_trips(self, monkeypatch, tmp_path):
        _stub_run(monkeypatch, _pinned_report())
        pinned = tmp_path / "baseline.json"
        assert cli.main([
            "fleet", "regen-baseline", "--output", str(pinned),
        ]) == 0
        with open(BASELINE, "rb") as handle:
            assert pinned.read_bytes() == handle.read()

    @pytest.mark.parametrize(
        "status", ["crashed", "timeout", "interrupted", "rejected"]
    )
    def test_unmeasured_subjects_exit_3(self, monkeypatch, tmp_path, status):
        report = _pinned_report()
        report.statuses = dict(report.statuses, **{status: 1})
        _stub_run(monkeypatch, report)
        assert cli.main([
            "fleet", "run", "--output", str(tmp_path / "r.json"),
        ]) == 3
        pinned = tmp_path / "baseline.json"
        assert cli.main([
            "fleet", "regen-baseline", "--output", str(pinned),
        ]) == 3
        assert not pinned.exists()

    def test_drifted_report_trips_the_detector(self, monkeypatch, capsys):
        report = _pinned_report()
        drifted = copy.deepcopy(report.digest)
        cell = drifted["clean"]["head_error_mm"]
        cell["mean"] += 2.7
        cell["p50"] += 3.0
        report.digest = drifted
        _stub_run(monkeypatch, report)
        assert cli.main(["fleet", "compare"]) == 1
        err = capsys.readouterr().err
        assert "shift" in err and "head_error_mm" in err
        assert "stratum" in err and "baseline" in err  # the diff table

    def test_unusable_inputs_exit_2(self, tmp_path):
        missing = tmp_path / "nope.json"
        assert cli.main(["fleet", "compare", "--report", str(missing)]) == 2
        assert cli.main([
            "fleet", "compare", "--report", BASELINE,
            "--baseline", str(missing),
        ]) == 2
