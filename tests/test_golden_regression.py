"""Golden-trace regression suite: seeded pipelines vs committed fixtures.

Each case in ``tests/golden/`` pins a fully seeded personalization (head
parameters, per-angle HRTF magnitudes, AoA errors, table digest).  These
tests recompute each case and compare within the documented tolerances —
see ``docs/TESTING.md`` for how the tolerances were chosen and for the
regeneration workflow (``python -m repro.testing.regen_golden``).
"""

from __future__ import annotations

import copy
import os
from dataclasses import replace

import numpy as np
import pytest

from repro.core.pipeline import Uniq, UniqConfig, grid_from_step
from repro.hrtf.io import table_digest
from repro.simulation.person import VirtualSubject
from repro.simulation.session import MeasurementSession, ProbeMeasurement
from repro.testing.faults import apply_fault
from repro.testing.golden import (
    ADVERSE_CASES,
    CASE_CONFIG,
    DEFAULT_CASES,
    DEFAULT_TOLERANCES,
    adverse_fixture_path,
    compare_summaries,
    fixture_path,
    load_summary,
    summarize_adverse_case,
    summarize_case,
)

pytestmark = pytest.mark.golden


@pytest.fixture(scope="module", params=DEFAULT_CASES, ids=lambda c: f"s{c[0]}r{c[1]}")
def case(request):
    subject_seed, session_seed = request.param
    path = fixture_path(subject_seed, session_seed)
    assert os.path.exists(path), (
        f"missing golden fixture {path} — run "
        "`python -m repro.testing.regen_golden`"
    )
    expected = load_summary(path)
    actual = summarize_case(subject_seed, session_seed)
    return expected, actual


class TestGoldenCases:
    def test_pipeline_matches_committed_fixture(self, case):
        expected, actual = case
        violations = compare_summaries(expected, actual)
        assert not violations, "golden regression:\n" + "\n".join(
            f"  - {v}" for v in violations
        )

    def test_exact_digest_matches_on_this_platform(self, case):
        # The float summaries passing but the digest moving would mean a
        # bit-level change below every tolerance; on the machine that
        # generated the fixtures that still deserves a look.  Opt-in via
        # REPRO_GOLDEN_EXACT=1 so cross-platform runs are not flaky.
        if os.environ.get("REPRO_GOLDEN_EXACT", "") != "1":
            pytest.skip("exact-digest check is opt-in (REPRO_GOLDEN_EXACT=1)")
        expected, actual = case
        assert actual["table_digest"] == expected["table_digest"]


@pytest.fixture(scope="module", params=sorted(ADVERSE_CASES))
def adverse_case(request):
    path = adverse_fixture_path(request.param)
    assert os.path.exists(path), (
        f"missing golden fixture {path} — run "
        "`python -m repro.testing.regen_golden`"
    )
    expected = load_summary(path)
    actual = summarize_adverse_case(request.param)
    return expected, actual


class TestAdverseGoldenCases:
    """Faulted captures must keep producing the *same* degraded result.

    The ladder handling of an adverse capture is pinned end to end: which
    rung it settled on, which flags it raised, the reduced confidence, and
    the digest of the robust-rung table.  A refactor that silently changes
    any of those — e.g. a sentinel threshold drift that stops escalation —
    fails here even though the clean cases stay bit-identical.
    """

    def test_ladder_handling_matches_committed_fixture(self, adverse_case):
        expected, actual = adverse_case
        violations = compare_summaries(expected, actual)
        assert not violations, "adverse golden regression:\n" + "\n".join(
            f"  - {v}" for v in violations
        )

    def test_adverse_cases_escalate_with_reduced_confidence(self, adverse_case):
        # Not just "matches the fixture": the fixtures themselves must keep
        # describing rescued captures, not captures the ladder stopped
        # noticing were adverse.
        _, actual = adverse_case
        assert actual["deconv_rung"] > 0
        assert actual["deconv_method"] != "inverse"
        assert 0.0 < actual["confidence"] < 1.0
        assert actual["quality_flags"]

    def test_exact_digest_matches_on_this_platform(self, adverse_case):
        if os.environ.get("REPRO_GOLDEN_EXACT", "") != "1":
            pytest.skip("exact-digest check is opt-in (REPRO_GOLDEN_EXACT=1)")
        expected, actual = adverse_case
        assert actual["table_digest"] == expected["table_digest"]


#: ``table_digest`` of ``Uniq.render`` at fine grids, recorded with the
#: per-angle render loop before the array kernels replaced it.  The golden
#: fixtures pin 15-degree tables only; these pin the 0.5- and 2-degree grids
#: too, for a clean case, an adverse case on rung 1 and a salvaged solve.
FINE_GRID_DIGESTS = {
    "case_subject1_session0": {
        0.5: "54fa8ce35250f68cf724ad79d44f9b5eaaf001b73b0268f6ee7cc3d5cc18ba2e",
        2.0: "5e1843af4fc17c9b1433efec8a4b0465bd5b3c2947905216880275b85588323c",
        15.0: "607752efc5f61bcbe564d108e0c2132fb3c5443a004009f68f8b52884bb4bf1f",
    },
    "adverse_noisy_reverberant": {
        0.5: "21ccb4674766c7eac927570ee7d0c25ac5fa3b444f20b45c86c6947272d183b8",
        2.0: "07741e5a24a64c53b17c7a55565a87713b2918e7032cec154cdaf6541790e629",
        15.0: "8f38358c6e17e375ffebb7eecdc8b4a2f7642f7b639d211fd909c550d287df09",
    },
    "salvaged_subject1_session0": {
        0.5: "a942ad89599b062ccb915af1a5ce6142b999389c4dfafd49e53ecda6d0770022",
        2.0: "209f6213a43353b4ec41965fcbd9e0e9f676479e19b79d53eaeb4d55e55e0fbe",
        15.0: "3b7afa5bc931a0011437bd21d7198da44dece64abc46e7d14d68c93a2b086f87",
    },
}


def _fine_grid_capture(name: str):
    """The capture behind one :data:`FINE_GRID_DIGESTS` entry."""
    session = MeasurementSession(
        VirtualSubject.random(1),
        seed=0,
        probe_interval_s=float(CASE_CONFIG["probe_interval_s"]),
    ).run()
    if name == "adverse_noisy_reverberant":
        spec = ADVERSE_CASES["noisy_reverberant"]
        return apply_fault(session, spec["fault"], **dict(spec["fault_args"]))
    if name == "salvaged_subject1_session0":
        # Hard-clip the first half of the probes: the solve drops them and
        # retries (tests/test_quality.py, TestProbeSalvage).
        level = 0.03 * max(float(np.max(np.abs(p.left))) for p in session.probes)
        probes = list(session.probes)
        for i in range(session.n_probes // 2):
            p = probes[i]
            probes[i] = ProbeMeasurement(
                time=p.time,
                left=np.clip(p.left, -level, level),
                right=np.clip(p.right, -level, level),
            )
        return replace(session, probes=tuple(probes))
    return session


@pytest.fixture(scope="module", params=sorted(FINE_GRID_DIGESTS))
def fine_grid_case(request):
    if os.environ.get("REPRO_GOLDEN_EXACT", "") != "1":
        pytest.skip("exact-digest check is opt-in (REPRO_GOLDEN_EXACT=1)")
    solution = Uniq(UniqConfig()).solve(_fine_grid_capture(request.param))
    return request.param, solution


class TestFineGridRenderDigests:
    def test_render_digests_match_at_fine_grids(self, fine_grid_case):
        name, solution = fine_grid_case
        if name == "adverse_noisy_reverberant":
            assert dict(solution.salvage)["deconv_rung"] >= 1
        if name == "salvaged_subject1_session0":
            assert dict(solution.salvage)["retried"] is True
        for step, digest in FINE_GRID_DIGESTS[name].items():
            config = UniqConfig(angle_grid_deg=grid_from_step(step))
            assert table_digest(Uniq(config).render(solution).table) == digest, step


class TestComparatorSensitivity:
    """The comparator itself must catch the regressions it exists for."""

    @pytest.fixture(scope="class")
    def expected(self):
        return load_summary(fixture_path(*DEFAULT_CASES[0]))

    def test_identical_summaries_agree(self, expected):
        assert compare_summaries(expected, copy.deepcopy(expected)) == []

    def test_one_millimeter_head_shift_fails(self, expected):
        # The ISSUE's litmus test: +1 mm on the head half-width must trip
        # the 0.5 mm tolerance (verified end-to-end once against a real
        # perturbed run; see docs/TESTING.md).
        actual = copy.deepcopy(expected)
        actual["head_parameters_m"][0] += 1e-3
        violations = compare_summaries(expected, actual)
        assert any("head_parameters_m" in v for v in violations)

    def test_sub_tolerance_float_drift_passes(self, expected):
        actual = copy.deepcopy(expected)
        actual["head_parameters_m"][0] += 1e-7
        actual["residual_deg"] += 1e-6
        for values in actual["magnitude_rms_db"].values():
            values[0] += 1e-6
        assert compare_summaries(expected, actual) == []

    def test_magnitude_regression_fails(self, expected):
        actual = copy.deepcopy(expected)
        actual["magnitude_rms_db"]["far_left"][2] += 0.5
        violations = compare_summaries(expected, actual)
        assert any("magnitude_rms_db[far_left]" in v for v in violations)

    def test_aoa_regression_fails(self, expected):
        actual = copy.deepcopy(expected)
        actual["aoa_error_deg"][1] += 5.0
        violations = compare_summaries(expected, actual)
        assert any("aoa_error_deg" in v for v in violations)

    def test_digest_only_checked_when_exact(self, expected):
        actual = copy.deepcopy(expected)
        actual["table_digest"] = "0" * 64
        assert compare_summaries(expected, actual, exact_digest=False) == []
        violations = compare_summaries(expected, actual, exact_digest=True)
        assert any("table_digest" in v for v in violations)

    def test_config_drift_is_reported_as_fixture_staleness(self, expected):
        actual = copy.deepcopy(expected)
        actual["case"]["angle_step_deg"] = 5.0
        violations = compare_summaries(expected, actual)
        assert any("regenerate" in v for v in violations)

    def test_tolerances_documented_fields_exist(self, expected):
        for field in DEFAULT_TOLERANCES:
            assert field in expected

    def test_field_missing_from_actual_fails(self, expected):
        # The latent gap this guards against: a summary losing a field
        # (e.g. confidence disappearing from the pipeline output) used to
        # pass silently because comparisons were keyed off `expected`.
        actual = copy.deepcopy(expected)
        del actual["confidence"]
        violations = compare_summaries(expected, actual)
        assert any(
            "confidence" in v and "missing" in v for v in violations
        )

    def test_field_missing_from_fixture_fails(self, expected):
        # ...and the dual: a stale fixture missing a field the summary now
        # computes must demand regeneration, not shrink the comparison.
        stale = copy.deepcopy(expected)
        del stale["confidence"]
        violations = compare_summaries(stale, expected)
        assert any(
            "confidence" in v and "regenerate" in v for v in violations
        )

    def test_unknown_field_in_actual_fails(self, expected):
        actual = copy.deepcopy(expected)
        actual["brand_new_metric"] = 1.0
        violations = compare_summaries(expected, actual)
        assert any("brand_new_metric" in v for v in violations)

    def test_deconv_outcome_drift_fails(self):
        expected = load_summary(adverse_fixture_path(sorted(ADVERSE_CASES)[0]))
        actual = copy.deepcopy(expected)
        actual["deconv_rung"] = 0
        actual["deconv_method"] = "inverse"
        violations = compare_summaries(expected, actual)
        assert any("deconv_rung" in v for v in violations)
        assert any("deconv_method" in v for v in violations)

    def test_missing_magnitude_bank_fails(self, expected):
        actual = copy.deepcopy(expected)
        del actual["magnitude_rms_db"]["far_left"]
        violations = compare_summaries(expected, actual)
        assert any(
            "magnitude_rms_db[far_left]" in v and "missing" in v
            for v in violations
        )
