"""Shared fixtures for the test suite.

Expensive objects (sessions, personalization results) are session-scoped so
the whole suite pays for them once.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from repro.core.mapstore import MAP_STORE_ENV
from repro.geometry.head import HeadGeometry
from repro.serve.worker import clear_capture_memo
from repro.geometry.trajectory import circular_trajectory
from repro.simulation.person import VirtualSubject
from repro.simulation.session import MeasurementSession

# Pinned hypothesis profiles: property tests must be reproducible in CI and
# cheap by default.  `derandomize=True` fixes the example sequence (a failure
# reproduces from the seed printed by hypothesis), `deadline=None` because
# the serve property tests spawn worker pools whose first example pays the
# pool start-up cost.  Select with HYPOTHESIS_PROFILE=thorough for a longer
# local soak.
settings.register_profile(
    "default",
    derandomize=True,
    deadline=None,
    max_examples=12,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "thorough",
    derandomize=False,
    deadline=None,
    max_examples=100,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(autouse=True)
def _fresh_capture_memo():
    """An empty capture memo for every test and the fixtures built for it.

    Capture files written by one test would otherwise be rendered from a
    solution another test computed (or faked through a monkeypatch).
    Clearing after the test as well keeps class- and module-scoped
    fixtures, which are built before this one runs, from replaying the
    previous test's solves.
    """
    clear_capture_memo()
    yield
    clear_capture_memo()


@pytest.fixture(autouse=True)
def _no_map_store(monkeypatch):
    """No test replays a head search from a store it did not set up itself.

    ``setenv`` (not ``delenv``) so that teardown restores the variable
    even when code under test wrote it into ``os.environ`` directly; an
    empty value means no store.
    """
    monkeypatch.setenv(MAP_STORE_ENV, "")


@pytest.fixture(scope="session")
def average_head() -> HeadGeometry:
    return HeadGeometry.average()


@pytest.fixture(scope="session")
def subject() -> VirtualSubject:
    return VirtualSubject.random(42, name="test-subject")


@pytest.fixture(scope="session")
def other_subject() -> VirtualSubject:
    return VirtualSubject.random(43, name="other-subject")


@pytest.fixture(scope="session")
def small_session(subject):
    """A compact but realistic capture: 16 s sweep, ~32 probes at 48 kHz."""
    return MeasurementSession(
        subject,
        seed=7,
        probe_interval_s=0.5,
        trajectory=None,
    ).run()


@pytest.fixture(scope="session")
def clean_session(subject):
    """An idealized capture: perfect circle, no room echo, low noise."""
    return MeasurementSession(
        subject,
        seed=8,
        probe_interval_s=0.5,
        trajectory=circular_trajectory(radius=0.45, duration_s=15.0),
        room=None,
        noise_std=0.001,
    ).run()


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def experiment_results():
    """One seeded run of every paper experiment: what EXPERIMENTS.md renders.

    The 5-volunteer cohort and every harness on it cost about 15 s, so the
    record check, the claim tests and the report tests share this run.
    """
    from repro.eval.report import run_experiments

    return run_experiments()
