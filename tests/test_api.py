"""Public API surface tests."""

import dataclasses
import importlib
import inspect

import pytest

import repro
from repro.core import (
    DiffractionAwareSensorFusion,
    NearFarConverter,
    NearFieldInterpolator,
    UniqConfig,
)
from repro.quality import preflight


PACKAGES = (
    "repro",
    "repro.core",
    "repro.hrtf",
    "repro.obs",
    "repro.serve",
    "repro.signals",
    "repro.geometry",
    "repro.simulation",
    "repro.quality",
    "repro.eval",
    "repro.room_acoustics",
)


class TestPublicApi:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_names_resolve(self, package):
        module = importlib.import_module(package)
        for name in module.__all__:
            assert hasattr(module, name), f"{package}.__all__ lists missing {name}"

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_subpackages_importable(self):
        for module in (
            "repro.geometry",
            "repro.signals",
            "repro.simulation",
            "repro.hrtf",
            "repro.core",
            "repro.eval",
            "repro.cli",
            "repro.physics",
        ):
            importlib.import_module(module)

    def test_errors_hierarchy(self):
        for error in (
            repro.GeometryError,
            repro.SignalError,
            repro.CalibrationError,
            repro.ConvergenceError,
            repro.TableError,
        ):
            assert issubclass(error, repro.ReproError)

    def test_personalization_option_surface(self):
        """Personalization is configured by four values; a new knob must
        change this test on purpose."""

        def names(cls):
            return [f.name for f in dataclasses.fields(cls)]

        assert names(UniqConfig) == [
            "angle_grid_deg", "enforce_gesture_check", "deconv",
        ]
        assert names(DiffractionAwareSensorFusion) == ["delay_model"]
        for stage in (NearFieldInterpolator, NearFarConverter):
            assert list(inspect.signature(stage).parameters) == ["fs"]
        assert list(inspect.signature(preflight).parameters) == [
            "session", "collector", "bank",
        ]

    def test_constants_sane(self):
        assert repro.SPEED_OF_SOUND == pytest.approx(343.0)
        assert repro.DEFAULT_SAMPLE_RATE == 48_000
        assert repro.NEAR_FIELD_THRESHOLD_M == 1.0


class TestPhysics:
    def test_shadow_attenuation_decays(self):
        from repro.physics import shadow_attenuation

        assert shadow_attenuation(0.0) == pytest.approx(1.0)
        assert shadow_attenuation(0.08) == pytest.approx(1 / 2.718281828, rel=1e-6)
        assert shadow_attenuation(0.2) < shadow_attenuation(0.1)

    def test_spreading_gain(self):
        from repro.physics import spreading_gain

        assert spreading_gain(1.0) == pytest.approx(1.0)
        assert spreading_gain(2.0) == pytest.approx(0.5)
        assert spreading_gain(0.0) > 0  # clamped, never infinite

    def test_combined_gains(self):
        from repro.physics import (
            far_field_first_tap_gain,
            near_field_first_tap_gain,
        )

        assert near_field_first_tap_gain(0.5, 0.0) == pytest.approx(2.0)
        assert far_field_first_tap_gain(0.0) == pytest.approx(1.0)
        assert near_field_first_tap_gain(0.5, 0.1) < 2.0
