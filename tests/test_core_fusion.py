"""Tests for diffraction-aware sensor fusion."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from repro.errors import SignalError
from repro.core import fusion as fusion_module
from repro.core.fusion import (
    MAX_GYRO_BIAS_DPS,
    DiffractionAwareSensorFusion,
)
from repro.signals.channel import ProbeChannelBank

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


@pytest.fixture(scope="module")
def fusion():
    return DiffractionAwareSensorFusion()


@pytest.fixture(scope="module")
def fusion_result(fusion, small_session):
    return fusion.run(small_session)


class TestDelayExtraction:
    def test_delays_match_truth(self, fusion, small_session):
        t_left, t_right = fusion.extract_probe_delays(small_session)
        from repro.geometry.paths import binaural_delays

        positions = small_session.truth.probe_positions()
        head = small_session.truth.subject.head
        for i in (0, len(positions) // 2, len(positions) - 1):
            expect_l, expect_r = binaural_delays(head, positions[i])
            assert t_left[i] == pytest.approx(expect_l, abs=6e-5)
            assert t_right[i] == pytest.approx(expect_r, abs=6e-5)

    def test_imu_angles_track_truth(self, fusion, small_session):
        alphas = fusion.imu_angles(small_session)
        truth = small_session.truth.probe_angles_deg()
        # Gyro drift allows several degrees, but the sweep shape must hold.
        assert np.corrcoef(alphas, truth)[0, 1] > 0.995
        assert np.max(np.abs(alphas - truth)) < 25.0


class TestFusionRun:
    def test_localization_accuracy(self, fusion_result, small_session):
        truth = small_session.truth.probe_angles_deg()
        errors = np.abs(fusion_result.fused_angles_deg - truth)
        assert np.median(errors) < 6.0

    def test_head_parameters_plausible(self, fusion_result, small_session):
        true_params = np.asarray(small_session.truth.subject.head.parameters)
        estimated = np.asarray(fusion_result.head.parameters)
        assert np.all(np.abs(estimated - true_params) < 0.04)

    def test_radii_close_to_truth(self, fusion_result, small_session):
        true_radii = small_session.truth.probe_radii()
        solved = fusion_result.solved
        error = np.abs(fusion_result.radii_m[solved] - true_radii[solved])
        assert np.median(error) < 0.05

    def test_most_probes_solved(self, fusion_result):
        assert np.mean(fusion_result.solved) > 0.8

    def test_residual_finite_and_small(self, fusion_result):
        assert fusion_result.residual_deg < 12.0

    def test_gyro_bias_recovered(self, fusion_result):
        """The session gyro has ~0.3 dps bias; fusion should see O(that)."""
        assert abs(fusion_result.gyro_bias_dps) < 2.0

    def test_acoustic_angles_near_imu(self, fusion_result):
        solved = fusion_result.solved
        gap = np.abs(
            fusion_result.acoustic_angles_deg[solved]
            - fusion_result.imu_angles_deg[solved]
        )
        assert np.median(gap) < 10.0


class TestCleanSession:
    def test_near_perfect_on_clean_capture(self, clean_session):
        fusion = DiffractionAwareSensorFusion()
        result = fusion.run(clean_session)
        truth = clean_session.truth.probe_angles_deg()
        errors = np.abs(result.fused_angles_deg - truth)
        assert np.median(errors) < 3.0


def _fake_minimize(x_final):
    """A stand-in for ``optimize.minimize`` returning a fixed solution."""

    def runner(fun, x0, **kwargs):
        return SimpleNamespace(
            x=np.asarray(x_final, dtype=float), fun=4.0, success=True, nit=1
        )

    return runner


class TestGyroBiasClip:
    @pytest.mark.parametrize("raw_bias", [10.0, -10.0])
    def test_reported_bias_clipped(self, small_session, monkeypatch, raw_bias):
        """A runaway optimizer bias estimate must not leave ``run`` unclipped.

        The cost function rejects |bias| > MAX_GYRO_BIAS_DPS, but
        Nelder-Mead can still *terminate* on such a vertex; the reported
        estimate (and the angles debiased with it) must stay inside the
        physical gyro spec.
        """
        monkeypatch.setattr(
            "repro.core.fusion.optimize.minimize",
            _fake_minimize([0.09, 0.115, 0.0985, raw_bias]),
        )
        result = DiffractionAwareSensorFusion().run(small_session)
        assert abs(result.gyro_bias_dps) <= MAX_GYRO_BIAS_DPS
        assert result.gyro_bias_dps == np.sign(raw_bias) * MAX_GYRO_BIAS_DPS

    def test_in_range_bias_untouched(self, small_session, monkeypatch):
        monkeypatch.setattr(
            "repro.core.fusion.optimize.minimize",
            _fake_minimize([0.09, 0.115, 0.0985, 0.7]),
        )
        result = DiffractionAwareSensorFusion().run(small_session)
        assert result.gyro_bias_dps == pytest.approx(0.7)


class TestNoProbeSolvedFallback:
    def test_radii_finite_when_nothing_localizes(self, small_session, monkeypatch):
        """All-unsolved sessions must not hand out all-NaN radii."""
        monkeypatch.setattr(
            "repro.core.fusion.optimize.minimize",
            _fake_minimize([0.09, 0.115, 0.0985, 0.0]),
        )

        def nothing_solved(self, delay_map, t_left, t_right, alphas):
            n = t_left.shape[0]
            return np.full(n, np.nan), np.full(n, np.nan), np.zeros(n, dtype=bool)

        monkeypatch.setattr(
            DiffractionAwareSensorFusion, "_localize_all", nothing_solved
        )
        fusion = DiffractionAwareSensorFusion()
        result = fusion.run(small_session)
        assert not result.solved.any()
        assert result.residual_deg == float("inf")
        assert np.isfinite(result.radii_m).all()
        # The fallback is the final map's mid-radius.
        lo, hi, _ = fusion_module.FINAL_MAP_RADII
        assert np.all(result.radii_m >= lo) and np.all(result.radii_m <= hi)
        # Fused angles fall back to the (debiased) IMU angles.
        np.testing.assert_array_equal(
            result.fused_angles_deg, result.imu_angles_deg
        )


class TestValidation:
    def test_too_few_probes_raises(self, fusion, small_session):
        from dataclasses import replace

        crippled = replace(small_session, probes=small_session.probes[:3])
        with pytest.raises(SignalError):
            fusion.run(crippled)


def _assert_fusion_equal(expected, actual):
    for field in dataclasses.fields(expected):
        np.testing.assert_array_equal(
            getattr(actual, field.name), getattr(expected, field.name),
            err_msg=field.name,
        )


class _CountingSearch:
    """Stand-in for ``optimize.minimize`` recording each search it runs."""

    def __init__(self):
        self.starts = []

    def __call__(self, fun, x0, **kwargs):
        self.starts.append(np.array(x0))
        return SimpleNamespace(x=np.array(x0), fun=4.0, success=True, nit=1)

    @property
    def calls(self):
        return len(self.starts)


class _KeyRecorder:
    """Stand-in map store that holds nothing and records each key asked
    for, so every run searches and reports the key it would be stored
    under."""

    def __init__(self):
        self.keys = []

    def load(self, key, size):
        self.keys.append(key)
        return None

    def save(self, key, x, nit, fun, success):
        pass

    @property
    def distinct(self):
        return len(set(self.keys))


#: One changed value per search setting the store key names: the
#: ``delay_model`` field, and each module constant by its lower-case name.
_KEYED_CHANGES = {
    "delay_model": "euclidean",
    "fusion_boundary_samples": 200,
    "map_radii": (0.16, 1.2, 20),
    "map_thetas": (-40.0, 220.0, 80),
    "max_iterations": 100,
    "speed_of_sound": 340.0,
}


class TestSearchMemoKey:
    """``_search_key`` keys the map store: equal inputs must give one key
    (a store hit), and any change to what the search reads a new one."""

    @pytest.fixture
    def search(self, monkeypatch):
        fake = _CountingSearch()
        monkeypatch.setattr("repro.core.fusion.optimize.minimize", fake)
        return fake

    @pytest.fixture
    def store(self, monkeypatch):
        recorder = _KeyRecorder()
        monkeypatch.setattr(fusion_module.mapstore, "active_store", lambda: recorder)
        return recorder

    @pytest.fixture(scope="class")
    def bank(self, small_session):
        return ProbeChannelBank(small_session.probe_signal)

    def test_same_inputs_hit(self, search, store, small_session, bank):
        first = DiffractionAwareSensorFusion().run(small_session, bank)
        again = DiffractionAwareSensorFusion().run(small_session, bank)
        assert search.calls == 2
        assert len(store.keys) == 2 and store.distinct == 1
        _assert_fusion_equal(first, again)

    def test_key_names_the_class(self, search, store, small_session, bank):
        """The key reads the same in every process: no class objects."""
        DiffractionAwareSensorFusion().run(small_session, bank)
        [key] = store.keys
        assert key[0] == "repro.core.fusion.DiffractionAwareSensorFusion"

    def test_final_grid_is_not_keyed(
        self, search, store, small_session, bank, monkeypatch
    ):
        """The final localization grid enters after the search."""
        DiffractionAwareSensorFusion().run(small_session, bank)
        monkeypatch.setattr(fusion_module, "FINAL_MAP_RADII", (0.16, 1.2, 40))
        monkeypatch.setattr(fusion_module, "FINAL_MAP_THETAS", (-40.0, 220.0, 200))
        DiffractionAwareSensorFusion().run(small_session, bank)
        assert store.distinct == 1

    @pytest.mark.parametrize("name", sorted(_KEYED_CHANGES))
    def test_keyed_field_change_misses(
        self, search, store, small_session, bank, monkeypatch, name
    ):
        value = _KEYED_CHANGES[name]
        DiffractionAwareSensorFusion().run(small_session, bank)
        if name == "delay_model":
            DiffractionAwareSensorFusion(delay_model=value).run(small_session, bank)
        else:
            assert getattr(fusion_module, name.upper()) != value
            monkeypatch.setattr(fusion_module, name.upper(), value)
            DiffractionAwareSensorFusion().run(small_session, bank)
        assert store.distinct == 2

    @pytest.mark.parametrize(
        "name, value",
        [
            # Same midpoint, so the start simplex is unchanged and only the
            # bounds themselves can tell the two searches apart.
            ("_BOUNDS", {**fusion_module._BOUNDS, "a": (0.064, 0.116)}),
            ("MAX_GYRO_BIAS_DPS", 2.5),
            ("_UNSOLVED_PENALTY_DEG", 40.0),
        ],
    )
    def test_module_constant_change_misses(
        self, search, store, small_session, bank, monkeypatch, name, value
    ):
        DiffractionAwareSensorFusion().run(small_session, bank)
        monkeypatch.setattr(fusion_module, name, value)
        DiffractionAwareSensorFusion().run(small_session, bank)
        assert store.distinct == 2
        np.testing.assert_array_equal(search.starts[0], search.starts[1])

    def test_one_ulp_delay_nudge_misses(
        self, search, store, small_session, bank, monkeypatch
    ):
        fusion = DiffractionAwareSensorFusion()
        fusion.run(small_session, bank)
        extract = DiffractionAwareSensorFusion.extract_probe_delays

        def nudged(self, *args, **kwargs):
            t_left, t_right = extract(self, *args, **kwargs)
            t_left[3] = np.nextafter(t_left[3], np.inf)
            return t_left, t_right

        monkeypatch.setattr(
            DiffractionAwareSensorFusion, "extract_probe_delays", nudged
        )
        fusion.run(small_session, bank)
        assert store.distinct == 2

    def test_probe_weights_change_misses(self, search, store, small_session, bank):
        fusion = DiffractionAwareSensorFusion()
        weights = np.ones(small_session.n_probes)
        fusion.run(small_session, bank, probe_weights=weights)
        # All-ones weights run the unweighted path: the same search.
        fusion.run(small_session, bank)
        assert store.distinct == 1
        weights[2] = 0.5
        fusion.run(small_session, bank, probe_weights=weights)
        assert store.distinct == 2
        weights[2] = 0.25
        fusion.run(small_session, bank, probe_weights=weights)
        assert store.distinct == 3

    def test_no_store_computes_no_key(self, search, small_session, bank, monkeypatch):
        """Without a store a run searches and never builds the key."""
        def fail(*args):
            raise AssertionError("search key built without a store")

        monkeypatch.setattr(DiffractionAwareSensorFusion, "_search_key", fail)
        DiffractionAwareSensorFusion().run(small_session, bank)
        assert search.calls == 1

    def test_every_field_is_keyed_or_declared_unread(self):
        """A new fusion field must be added to the store key, and to the
        changes the key test makes, before it can ship."""
        fields = {f.name for f in dataclasses.fields(DiffractionAwareSensorFusion)}
        assert fields <= set(_KEYED_CHANGES)
