"""Tests for the on-disk DelayMap artifact store (repro.core.mapstore)."""

import logging
import os

import numpy as np
import pytest

from repro.constants import SPEED_OF_SOUND
from repro.core import mapstore
from repro.core.localize import (
    _map_cache_key,
    cached_delay_map,
    clear_delay_map_cache,
    delay_map_cache_size,
)
from repro.obs import metrics as obs_metrics

PARAMS = (0.0901, 0.1153, 0.0987)
GRID = {"radii": (0.2, 1.0, 10), "thetas": (-180.0, 180.0, 31)}


def _counter(name):
    return obs_metrics.counter(name)


@pytest.fixture
def store_path(tmp_path, monkeypatch):
    """A fresh activated store; both memory caches cleared around the test."""
    path = str(tmp_path / "maps")
    monkeypatch.setenv(mapstore.MAP_STORE_ENV, path)
    clear_delay_map_cache()
    yield path
    clear_delay_map_cache()


def _the_key():
    return _map_cache_key(
        PARAMS, 240, GRID["radii"], GRID["thetas"], SPEED_OF_SOUND,
        "diffraction", True,
    )


class TestRoundTrip:
    def test_build_persists_and_reload_is_bit_identical(self, store_path):
        saved = _counter("mapstore.saved")
        hits = _counter("mapstore.hits")
        loads = _counter("localize.delay_map_loads")
        builds = _counter("localize.delay_map_builds")
        s0, h0, l0, b0 = saved.value, hits.value, loads.value, builds.value

        built = cached_delay_map(PARAMS, 240, **GRID)
        assert saved.value - s0 == 1
        assert os.path.exists(mapstore.MapStore(store_path).path_for(_the_key()))

        clear_delay_map_cache()
        loaded = cached_delay_map(PARAMS, 240, **GRID)
        assert hits.value - h0 == 1
        assert loads.value - l0 == 1
        assert builds.value - b0 == 1  # only the original build
        assert isinstance(loaded.t_left, np.memmap)
        np.testing.assert_array_equal(
            np.asarray(loaded.t_left), np.asarray(built.t_left)
        )
        np.testing.assert_array_equal(
            np.asarray(loaded.t_right), np.asarray(built.t_right)
        )

    def test_inversion_identical_from_store(self, store_path):
        from repro.geometry.paths import binaural_delays
        from repro.geometry.vec import polar_to_cartesian

        built = cached_delay_map(PARAMS, 240, **GRID)
        t1, t2 = binaural_delays(built.head, polar_to_cartesian(0.45, 40.0))
        clear_delay_map_cache()
        loaded = cached_delay_map(PARAMS, 240, **GRID)
        assert loaded is not built
        assert loaded.invert(t1, t2) == built.invert(t1, t2)

    def test_corrupt_artifact_is_rebuilt_not_fatal(self, store_path):
        built = cached_delay_map(PARAMS, 240, **GRID)
        artifact = mapstore.MapStore(store_path).path_for(_the_key())
        with open(artifact, "wb") as handle:
            handle.write(b"these are not the tables you are looking for")
        clear_delay_map_cache()
        corrupt = _counter("mapstore.corrupt")
        c0 = corrupt.value
        rebuilt = cached_delay_map(PARAMS, 240, **GRID)
        assert corrupt.value - c0 == 1
        np.testing.assert_array_equal(
            np.asarray(rebuilt.t_left), np.asarray(built.t_left)
        )
        # The rebuild re-persisted a valid artifact.
        clear_delay_map_cache()
        reloaded = cached_delay_map(PARAMS, 240, **GRID)
        assert isinstance(reloaded.t_left, np.memmap)

    def test_truncated_artifact_is_rebuilt_not_fatal(self, store_path):
        built = cached_delay_map(PARAMS, 240, **GRID)
        artifact = mapstore.MapStore(store_path).path_for(_the_key())
        size = os.path.getsize(artifact)
        with open(artifact, "rb+") as handle:
            handle.truncate(size // 2)
        clear_delay_map_cache()
        corrupt = _counter("mapstore.corrupt")
        c0 = corrupt.value
        rebuilt = cached_delay_map(PARAMS, 240, **GRID)
        assert corrupt.value - c0 == 1
        np.testing.assert_array_equal(
            np.asarray(rebuilt.t_left), np.asarray(built.t_left)
        )

    def test_wrong_shape_artifact_counts_as_corrupt(self, store_path):
        store = mapstore.MapStore(store_path)
        key = _the_key()
        store.save(key, np.zeros((3, 4)), np.zeros((3, 4)))
        corrupt = _counter("mapstore.corrupt")
        c0 = corrupt.value
        assert store.load(key) is None
        assert corrupt.value - c0 == 1
        assert not os.path.exists(store.path_for(key))


class TestActivation:
    def test_unusable_path_warns_and_disables(self, tmp_path, monkeypatch, caplog):
        """A bad REPRO_MAP_STORE must degrade to storeless, never raise."""
        blocker = tmp_path / "a-regular-file"
        blocker.write_text("not a directory")
        monkeypatch.setenv(mapstore.MAP_STORE_ENV, str(blocker))
        disabled = _counter("mapstore.disabled")
        d0 = disabled.value
        with caplog.at_level(logging.WARNING, logger="repro.core.mapstore"):
            assert mapstore.active_store() is None
        assert disabled.value - d0 == 1
        assert any("mapstore.invalid_path" in r.message for r in caplog.records)
        # The personalization path still works without a store.
        clear_delay_map_cache()
        assert cached_delay_map(PARAMS, 240, **GRID) is not None
        clear_delay_map_cache()

    def test_unset_env_means_no_store(self, monkeypatch):
        monkeypatch.delenv(mapstore.MAP_STORE_ENV, raising=False)
        assert mapstore.active_store() is None

    def test_resolution_follows_env_changes(self, tmp_path, monkeypatch):
        first = tmp_path / "one"
        second = tmp_path / "two"
        monkeypatch.setenv(mapstore.MAP_STORE_ENV, str(first))
        assert mapstore.active_store().root == str(first)
        monkeypatch.setenv(mapstore.MAP_STORE_ENV, str(second))
        assert mapstore.active_store().root == str(second)
        monkeypatch.delenv(mapstore.MAP_STORE_ENV)
        assert mapstore.active_store() is None


class TestKeyQuantization:
    def test_nudged_parameters_share_key_and_artifact(self, store_path):
        """Satellite regression: two keys within the quantization tolerance
        (1-ulp-ish arithmetic noise) address the same memory entry AND the
        same on-disk artifact."""
        a, b, c = PARAMS
        nudged = (a + 1e-10, b - 1e-10, c + 1e-10)
        key = _the_key()
        key_nudged = _map_cache_key(
            nudged, 240, GRID["radii"], GRID["thetas"], SPEED_OF_SOUND,
            "diffraction", True,
        )
        assert key_nudged == key
        store = mapstore.MapStore(store_path)
        assert store.path_for(key_nudged) == store.path_for(key)

        first = cached_delay_map(PARAMS, 240, **GRID)
        assert cached_delay_map(nudged, 240, **GRID) is first
        assert delay_map_cache_size() == 1

    def test_distinct_parameters_get_distinct_artifacts(self, store_path):
        a, b, c = PARAMS
        key = _the_key()
        other = _map_cache_key(
            (a + 1e-5, b, c), 240, GRID["radii"], GRID["thetas"],
            SPEED_OF_SOUND, "diffraction", True,
        )
        store = mapstore.MapStore(store_path)
        assert store.path_for(other) != store.path_for(key)


class TestKillTheCache:
    """Store-loaded tables must change no bit of a PersonalizationResult."""

    SPEC = {"probe_interval_s": 1.1, "angle_step_deg": 30.0}

    def test_store_loaded_run_is_bit_identical(self, tmp_path, monkeypatch):
        from repro.core.pipeline import personalize_capture
        from repro.testing.golden import table_digest

        monkeypatch.delenv(mapstore.MAP_STORE_ENV, raising=False)
        clear_delay_map_cache()
        _, baseline = personalize_capture(subject_seed=3, **self.SPEC)

        monkeypatch.setenv(mapstore.MAP_STORE_ENV, str(tmp_path / "maps"))
        clear_delay_map_cache()
        _, persisted = personalize_capture(subject_seed=3, **self.SPEC)

        clear_delay_map_cache()
        builds = _counter("localize.delay_map_builds")
        misses = _counter("mapstore.misses")
        b0, m0 = builds.value, misses.value
        _, loaded = personalize_capture(subject_seed=3, **self.SPEC)
        assert builds.value - b0 == 0  # everything came off the store
        assert misses.value - m0 == 0

        digests = {
            table_digest(r.table) for r in (baseline, persisted, loaded)
        }
        assert len(digests) == 1
        assert baseline.head_parameters == loaded.head_parameters
        assert (
            baseline.fusion.residual_deg == loaded.fusion.residual_deg
        )
        clear_delay_map_cache()


@pytest.mark.slow
class TestServedColdStart:
    """A fresh worker over a baked store serves its jobs without a build."""

    def test_baked_store_replaces_every_build(self, tmp_path):
        from repro.core.fusion import clear_search_memo
        from repro.serve import BatchServer, Job
        from repro.testing.golden import CASE_CONFIG

        jobs = [Job(job_id=f"cold-{seed}", subject_seed=seed, **CASE_CONFIG)
                for seed in (1, 2)]
        store = str(tmp_path / "maps")
        reports = []
        for run in ("empty", "baked"):
            # Workers fork from this process: cold memory caches, so the
            # store's contents are the only difference between the runs.
            clear_delay_map_cache()
            clear_search_memo()
            with BatchServer(
                workers=1, map_store=store, telemetry=tmp_path / f"{run}.jsonl"
            ) as server:
                reports.append(server.run_batch(jobs))
        empty, baked = reports

        def per_job(report, name):
            return [
                r.payload["_telemetry"]["metrics_delta"]["counters"].get(name, 0)
                for r in report.results
            ]

        builds = per_job(empty, "localize.delay_map_builds")
        assert all(n > 0 for n in builds)
        assert per_job(baked, "localize.delay_map_builds") == [0, 0]
        assert per_job(baked, "mapstore.misses") == [0, 0]
        assert per_job(baked, "localize.delay_map_loads") == builds
        assert [r.deterministic() for r in baked.results] == [
            r.deterministic() for r in empty.results
        ]


class TestServePlumbing:
    def test_inline_pool_activates_store(self, tmp_path, monkeypatch):
        from repro.serve.pool import WorkerPool

        monkeypatch.delenv(mapstore.MAP_STORE_ENV, raising=False)
        path = str(tmp_path / "maps")
        with WorkerPool(1, inline=True, map_store=path):
            assert os.environ.get(mapstore.MAP_STORE_ENV) == path
        monkeypatch.delenv(mapstore.MAP_STORE_ENV, raising=False)

    def test_server_rejects_unusable_store_leniently(self, tmp_path):
        from repro.serve import BatchServer

        blocker = tmp_path / "a-regular-file"
        blocker.write_text("not a directory")
        with BatchServer(workers=1, map_store=str(blocker)) as server:
            assert server.map_store is None

    def test_server_normalizes_store_path(self, tmp_path):
        from repro.serve import BatchServer

        path = tmp_path / "maps"
        with BatchServer(workers=1, map_store=path) as server:
            assert server.map_store == str(path)
            assert os.path.isdir(path)


class TestWarmupCli:
    def test_warmup_requires_a_store(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.delenv(mapstore.MAP_STORE_ENV, raising=False)
        assert main(["warmup", "--jobs", str(tmp_path / "jobs.jsonl")]) == 2
        assert "no store" in capsys.readouterr().err

    def test_warmup_requires_jobs(self, tmp_path, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["warmup", "--store", str(tmp_path / "maps")])
        assert exit_info.value.code == 2
        assert "--jobs" in capsys.readouterr().err
        assert not (tmp_path / "maps").exists()
