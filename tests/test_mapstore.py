"""Tests for the on-disk head-search outcome store (repro.core.mapstore)."""

import dataclasses
import glob
import json
import logging
import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.core import mapstore
from repro.core.fusion import DiffractionAwareSensorFusion
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
    """A fresh activated store; the DelayMap cache cleared around the test."""
    path = str(tmp_path / "searches")
    monkeypatch.setenv(mapstore.MAP_STORE_ENV, path)
    clear_delay_map_cache()
    yield path
    clear_delay_map_cache()


def _artifacts(path):
    return sorted(glob.glob(os.path.join(path, "*.json")))


def _counted_run(session):
    """One fusion run and the store/search counter deltas it made."""
    names = ("mapstore.hits", "mapstore.misses", "mapstore.saved",
             "mapstore.corrupt", "fusion.cost_evaluations")
    before = [_counter(n).value for n in names]
    result = DiffractionAwareSensorFusion().run(session)
    deltas = {
        n.split(".")[1]: _counter(n).value - b for n, b in zip(names, before)
    }
    return result, deltas


def _assert_fusion_equal(expected, actual):
    for field in dataclasses.fields(expected):
        np.testing.assert_array_equal(
            getattr(actual, field.name), getattr(expected, field.name),
            err_msg=field.name,
        )


class TestRoundTrip:
    def test_build_persists_and_reload_is_bit_identical(
        self, store_path, small_session
    ):
        """A search persists its outcome; the next run replays it exactly."""
        searched, first = _counted_run(small_session)
        assert first["saved"] == 1 and first["misses"] == 1
        assert first["cost_evaluations"] > 0
        [artifact] = _artifacts(store_path)
        with open(artifact) as handle:
            record = json.load(handle)
        assert sorted(record) == ["fun", "nit", "success", "x"]
        assert len(record["x"]) == 4  # (a, b, c, gyro bias)

        replayed, second = _counted_run(small_session)
        assert second == {"hits": 1, "misses": 0, "saved": 0, "corrupt": 0,
                          "cost_evaluations": 0}
        assert replayed.head.parameters == searched.head.parameters
        assert replayed.residual_deg == searched.residual_deg
        assert replayed.gyro_bias_dps == searched.gyro_bias_dps

    def test_inversion_identical_from_store(self, store_path, small_session):
        """Everything after the search (final localization included) is the
        same from a stored outcome as from the search."""
        searched, _ = _counted_run(small_session)
        replayed, deltas = _counted_run(small_session)
        assert deltas["hits"] == 1
        _assert_fusion_equal(searched, replayed)

    def _searched_again_after(self, store_path, session, damage):
        """Damage the one stored outcome; the next run must search again."""
        searched, _ = _counted_run(session)
        [artifact] = _artifacts(store_path)
        damage(artifact)
        again, deltas = _counted_run(session)
        assert deltas["corrupt"] == 1 and deltas["hits"] == 0
        assert deltas["cost_evaluations"] > 0  # searched again
        assert deltas["saved"] == 1  # and re-persisted a valid outcome
        _assert_fusion_equal(searched, again)
        _, replay = _counted_run(session)
        assert replay["hits"] == 1 and replay["cost_evaluations"] == 0

    def test_corrupt_artifact_is_rebuilt_not_fatal(self, store_path, small_session):
        def garbage(path):
            with open(path, "wb") as handle:
                handle.write(b"\x93NUMPY these are not the outcomes you seek")

        self._searched_again_after(store_path, small_session, garbage)

    def test_truncated_artifact_is_rebuilt_not_fatal(self, store_path, small_session):
        def truncate(path):
            with open(path, "rb+") as handle:
                handle.truncate(os.path.getsize(path) // 2)

        self._searched_again_after(store_path, small_session, truncate)

    def test_wrong_shape_artifact_counts_as_corrupt(self, store_path):
        """Well-formed JSON that is not a 3-float outcome is corrupt too."""
        store = mapstore.MapStore(store_path)
        key = ("wrong-shape",)
        good = {"x": [0.1, 0.2, 0.3], "nit": 7, "fun": 1.5, "success": True}
        records = [
            [0.1, 0.2, 0.3],
            dict(good, x=[0.1, 0.2]),
            dict(good, x=[0.1, 0.2, "0.3"]),
            dict(good, nit=7.0),
            dict(good, success=1),
            {k: v for k, v in good.items() if k != "fun"},
        ]
        corrupt = _counter("mapstore.corrupt")
        for record in records:
            with open(store.path_for(key), "w") as handle:
                json.dump(record, handle)
            c0 = corrupt.value
            assert store.load(key, 3) is None, record
            assert corrupt.value - c0 == 1
            assert not os.path.exists(store.path_for(key))
        with open(store.path_for(key), "w") as handle:
            json.dump(good, handle)
        assert store.load(key, 3) == ([0.1, 0.2, 0.3], 7, 1.5, True)

    def test_every_float_round_trips_exactly(self, store_path):
        store = mapstore.MapStore(store_path)
        x = np.array([0.1 + 2e-17, np.nextafter(0.0905, 1.0), -0.0, 1e-300])
        fun = float(np.nextafter(3.5, 0.0))
        store.save(("exact",), x, 42, fun, False)
        loaded_x, nit, loaded_fun, success = store.load(("exact",), 4)
        assert np.array(loaded_x).tobytes() == x.tobytes()
        assert (nit, loaded_fun, success) == (42, fun, False)
        assert len(store) == 1 and store.size_bytes() < 200


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
    """The disk key is exact: only bit-identical search inputs share it.

    (``quantize_key_component`` now keys only the in-memory DelayMap LRU.)
    """

    def test_equal_inputs_share_an_artifact(self, store_path, small_session):
        """Fresh copies of the same inputs name the same file; nudged map
        parameters still share one LRU map (no artifact involved)."""
        _counted_run(small_session)
        _counted_run(small_session)
        assert len(_artifacts(store_path)) == 1

        a, b, c = PARAMS
        nudged = (a + 1e-10, b - 1e-10, c + 1e-10)
        clear_delay_map_cache()
        first = cached_delay_map(PARAMS, 240, **GRID)
        assert cached_delay_map(nudged, 240, **GRID) is first
        assert delay_map_cache_size() == 1
        assert _map_cache_key(
            nudged, 240, GRID["radii"], GRID["thetas"], "diffraction", True,
        ) == _map_cache_key(
            PARAMS, 240, GRID["radii"], GRID["thetas"], "diffraction", True,
        )

    def test_distinct_parameters_get_distinct_artifacts(
        self, store_path, small_session, monkeypatch
    ):
        """A one-ulp nudge of one probe delay is a new search and file."""
        _counted_run(small_session)
        original = DiffractionAwareSensorFusion.extract_probe_delays

        def nudged(self, *args, **kwargs):
            t_left, t_right = original(self, *args, **kwargs)
            t_left = t_left.copy()
            t_left[0] = np.nextafter(t_left[0], 1.0)
            return t_left, t_right

        monkeypatch.setattr(
            DiffractionAwareSensorFusion, "extract_probe_delays", nudged
        )
        _, deltas = _counted_run(small_session)
        assert deltas["misses"] == 1 and deltas["saved"] == 1
        assert len(_artifacts(store_path)) == 2


class TestKeyAcrossProcessesAndVersions:
    JOB = {"job_id": "k", "subject_seed": 3, "probe_interval_s": 1.1,
           "angle_step_deg": 30.0}

    def test_warmup_under_another_hash_seed_adds_nothing(self, tmp_path):
        """The key's repr holds no hash-ordered or address-bearing part."""
        jobs = tmp_path / "jobs.jsonl"
        jobs.write_text(json.dumps(self.JOB) + "\n")
        store = str(tmp_path / "searches")
        src = os.path.dirname(os.path.dirname(repro.__file__))
        counts = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (src, env.get("PYTHONPATH")) if p
            )
            env.pop(mapstore.MAP_STORE_ENV, None)
            subprocess.run(
                [sys.executable, "-m", "repro.cli", "warmup", "--store", store,
                 "--jobs", str(jobs)],
                env=env, check=True, capture_output=True, timeout=300,
            )
            counts.append(len(mapstore.MapStore(store)))
        assert counts[0] >= 1
        assert counts[1] == counts[0]

    def test_code_salt_change_misses(self, store_path, small_session, monkeypatch):
        """A store baked by other code (or numpy/scipy) is not replayed."""
        _counted_run(small_session)
        monkeypatch.setattr(mapstore, "code_salt", lambda: "another release")
        _, deltas = _counted_run(small_session)
        assert deltas["hits"] == 0 and deltas["misses"] == 1
        assert deltas["cost_evaluations"] > 0
        assert len(_artifacts(store_path)) == 2

    def test_code_salt_covers_library_versions(self, monkeypatch):
        salt = mapstore.code_salt()
        assert mapstore.code_salt() is salt  # computed once per process
        monkeypatch.setattr(np, "__version__", "0.0.other")
        assert mapstore.code_salt.__wrapped__() != salt


class TestKillTheCache:
    """Store-replayed searches must change no bit of a PersonalizationResult."""

    SPEC = {"probe_interval_s": 1.1, "angle_step_deg": 30.0}

    def test_store_loaded_run_is_bit_identical(self, tmp_path, monkeypatch):
        from repro.core.pipeline import personalize_capture
        from repro.testing.golden import table_digest

        monkeypatch.delenv(mapstore.MAP_STORE_ENV, raising=False)
        clear_delay_map_cache()
        _, baseline = personalize_capture(subject_seed=3, **self.SPEC)

        monkeypatch.setenv(mapstore.MAP_STORE_ENV, str(tmp_path / "searches"))
        clear_delay_map_cache()
        _, persisted = personalize_capture(subject_seed=3, **self.SPEC)

        clear_delay_map_cache()
        names = ("fusion.cost_evaluations", "mapstore.misses", "mapstore.hits",
                 "localize.delay_map_builds")
        before = [_counter(n).value for n in names]
        _, loaded = personalize_capture(subject_seed=3, **self.SPEC)
        evals, misses, hits, builds = (
            _counter(n).value - b for n, b in zip(names, before)
        )
        assert (evals, misses, hits) == (0, 0, 1)  # the search came off disk
        assert builds == 1  # only the final map

        digests = {
            table_digest(r.table) for r in (baseline, persisted, loaded)
        }
        assert len(digests) == 1
        assert baseline.head_parameters == loaded.head_parameters
        assert (
            baseline.fusion.residual_deg == loaded.fusion.residual_deg
        )
        clear_delay_map_cache()


def _served_twice(tmp_path, jobs):
    """Serve ``jobs`` from fresh forked workers over an empty, then the
    same now-baked store; the two batch reports."""
    from repro.serve import BatchServer

    store = str(tmp_path / "searches")
    reports = []
    for run in ("empty", "baked"):
        # Workers fork from this process: cold memory caches, so the
        # store's contents are the only difference between the runs.
        clear_delay_map_cache()
        with BatchServer(workers=1, map_store=store, telemetry=True) as server:
            reports.append(server.run_batch(jobs))
    return reports, store


def _per_job(report, name):
    return [
        r.payload["_telemetry"]["metrics_delta"]["counters"].get(name, 0)
        for r in report.results
    ]


@pytest.mark.slow
class TestServedColdStart:
    """A fresh worker over a baked store serves its jobs without a search."""

    def test_baked_store_replaces_every_search(self, tmp_path):
        from repro.serve import Job
        from repro.testing.golden import CASE_CONFIG

        jobs = [Job(job_id=f"cold-{seed}", subject_seed=seed, **CASE_CONFIG)
                for seed in (1, 2)]
        (empty, baked), _ = _served_twice(tmp_path, jobs)

        assert all(n > 0 for n in _per_job(empty, "fusion.cost_evaluations"))
        assert _per_job(empty, "mapstore.saved") == [1, 1]
        assert _per_job(baked, "fusion.cost_evaluations") == [0, 0]
        assert _per_job(baked, "mapstore.hits") == [1, 1]
        assert _per_job(baked, "mapstore.misses") == [0, 0]
        # Each cold worker builds only its own final map per capture.
        assert _per_job(baked, "localize.delay_map_builds") == [1, 1]
        assert [r.deterministic() for r in baked.results] == [
            r.deterministic() for r in empty.results
        ]

    def test_multi_search_capture_replays_exactly(self, tmp_path):
        """A capture that climbs the deconvolution ladder runs one search
        per rung; every one of them is stored and replayed."""
        from repro.serve import Job

        job = Job(job_id="climb", subject_seed=2, probe_interval_s=0.6,
                  angle_step_deg=30.0, fault="mic_noise",
                  fault_args={"std": 0.5})
        (empty, baked), store = _served_twice(tmp_path, [job])

        [searches] = _per_job(empty, "fusion.runs")
        assert searches > 1
        assert empty.results[0].payload["quality"]["salvage"]["deconv_path"] == [
            "wiener", "tdls"
        ]
        assert _per_job(empty, "mapstore.saved") == [searches]
        assert len(mapstore.MapStore(store)) == searches
        assert _per_job(baked, "fusion.cost_evaluations") == [0]
        assert _per_job(baked, "mapstore.hits") == [searches]
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

    def test_bad_capture_fails_its_job_and_the_rest_bake(
        self, tmp_path, capsys
    ):
        """One unreadable capture fails only its own job: the good capture
        is baked and the exit code says a job failed."""
        from repro.cli import main
        from repro.datasets import save_session
        from repro.simulation.person import VirtualSubject
        from repro.simulation.session import MeasurementSession

        good = tmp_path / "good.npz"
        save_session(
            MeasurementSession(
                VirtualSubject.random(1), seed=0, probe_interval_s=0.6
            ).run(),
            good,
        )
        bad = tmp_path / "bad.npz"
        bad.write_bytes(b"not a capture")
        jobs = tmp_path / "jobs.jsonl"
        jobs.write_text(
            "".join(
                json.dumps(
                    {"job_id": name, "session_path": str(path),
                     "angle_step_deg": 15.0}
                ) + "\n"
                for name, path in (("bad", bad), ("good", good))
            )
        )
        store = tmp_path / "maps"
        assert main(["warmup", "--store", str(store), "--jobs", str(jobs)]) == 1
        err = capsys.readouterr().err
        assert "bad: failed" in err and str(bad) in err
        assert "good: failed" not in err
        assert len(mapstore.MapStore(str(store))) == 1
