"""The solve/render split of ``Uniq`` and the serve worker's capture memo.

``Uniq.personalize`` is ``render(solve(session))``: everything the capture
determines is solved once into a :class:`CaptureSolution`, and the angle
grid enters only at the render.  A serve worker keeps the solutions of the
capture files it has solved, keyed on the file's SHA-256 and the spec
fields the solve reads, so a re-render at another grid only renders.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import sys
import threading
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.pipeline import CaptureSolution, Uniq, UniqConfig
from repro.datasets import save_session
from repro.errors import CalibrationError
from repro.hrtf.io import table_digest
from repro.obs import metrics as obs_metrics
from repro.serve import BatchServer, Job
from repro.serve import worker as worker_module
from repro.serve.worker import clear_capture_memo, execute_job, personalize_spec
from repro.simulation.person import VirtualSubject
from repro.simulation.session import MeasurementSession, ProbeMeasurement
from repro.testing.faults import apply_fault

#: Two output grids; the solve must not depend on either.
GRIDS = (tuple(np.arange(0.0, 180.1, 15.0)), tuple(np.arange(0.0, 180.1, 10.0)))

MEMO_COUNTERS = ("serve.capture_memo_hits", "serve.capture_memo_misses")


@pytest.fixture(scope="module")
def base_session():
    """The golden-case capture: subject 1, session 0, sparse probes."""
    return MeasurementSession(
        VirtualSubject.random(1), seed=0, probe_interval_s=0.6
    ).run()


def _clip_first_half(session):
    """Clip half the probes hard: the solve is rejected, then salvaged."""
    level = 0.03 * max(
        float(np.max(np.abs(p.left))) for p in session.probes
    )
    probes = list(session.probes)
    for i in range(len(probes) // 2):
        p = probes[i]
        probes[i] = ProbeMeasurement(
            time=p.time,
            left=np.clip(p.left, -level, level),
            right=np.clip(p.right, -level, level),
        )
    return replace(session, probes=tuple(probes))


@pytest.fixture(scope="module")
def captures(base_session):
    return {
        "clean": base_session,
        "mic_noise": apply_fault(base_session, "mic_noise", std=0.2),
        "salvaged": _clip_first_half(base_session),
    }


@pytest.fixture(scope="module")
def capture_path(base_session, tmp_path_factory):
    path = tmp_path_factory.mktemp("captures") / "capture.npz"
    save_session(base_session, path)
    return path


@pytest.fixture(scope="module")
def clean_solution(base_session):
    return Uniq(UniqConfig(angle_grid_deg=GRIDS[0])).solve(base_session)


def _counts(names=MEMO_COUNTERS):
    return {name: obs_metrics.counter(name).value for name in names}


def _moved(before):
    return {name: _counts((name,))[name] - value for name, value in before.items()}


def _assert_results_equal(expected, actual):
    assert table_digest(actual.table) == table_digest(expected.table)
    for want, got in zip(
        expected.table.near + expected.table.far, actual.table.near + actual.table.far
    ):
        np.testing.assert_array_equal(got.left, want.left)
        np.testing.assert_array_equal(got.right, want.right)
    for field in dataclasses.fields(expected.fusion):
        np.testing.assert_array_equal(
            getattr(actual.fusion, field.name),
            getattr(expected.fusion, field.name),
            err_msg=field.name,
        )
    assert len(actual.measurements) == len(expected.measurements)
    for want, got in zip(expected.measurements, actual.measurements):
        assert (got.angle_deg, got.radius_m) == (want.angle_deg, want.radius_m)
        np.testing.assert_array_equal(got.hrir.left, want.hrir.left)
        np.testing.assert_array_equal(got.hrir.right, want.hrir.right)
    assert actual.quality == expected.quality


class TestSolveRenderSplit:
    @pytest.mark.parametrize("kind", ["clean", "mic_noise", "salvaged"])
    def test_personalize_is_render_of_solve(self, captures, kind):
        """One solve renders bit for bit what a full run gives, at any grid."""
        session = captures[kind]
        solution = Uniq(UniqConfig(angle_grid_deg=GRIDS[0])).solve(session)
        salvage = solution.salvage_record()
        if kind == "clean":
            assert salvage["deconv_rung"] == 0 and not salvage["retried"]
        elif kind == "mic_noise":
            assert salvage["deconv_rung"] >= 1
        else:
            assert salvage["retried"] and salvage["dropped_probes"]
        for grid in GRIDS:
            uniq = Uniq(UniqConfig(angle_grid_deg=grid))
            rendered = uniq.render(solution)
            assert rendered.table.n_angles == len(grid)
            _assert_results_equal(uniq.personalize(session), rendered)

    def test_solution_arrays_are_owned_and_read_only(self, clean_solution):
        assert isinstance(clean_solution, CaptureSolution)
        arrays = [
            getattr(clean_solution.fusion, f.name)
            for f in dataclasses.fields(clean_solution.fusion)
            if isinstance(getattr(clean_solution.fusion, f.name), np.ndarray)
        ]
        for m in clean_solution.measurements:
            arrays += [m.hrir.left, m.hrir.right]
        assert len(arrays) > 2 * len(clean_solution.measurements)
        for array in arrays:
            assert array.flags.owndata
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            clean_solution.fusion = None

    def test_each_report_owns_its_salvage(self, clean_solution):
        uniq = Uniq(UniqConfig(angle_grid_deg=GRIDS[0]))
        first, second = uniq.render(clean_solution), uniq.render(clean_solution)
        first.quality.salvage["dropped_probes"].append(99)
        first.quality.salvage["retried"] = True
        assert second.quality.salvage["dropped_probes"] == []
        assert second.quality.salvage["retried"] is False
        assert clean_solution.salvage_record() == second.quality.salvage

    def test_render_does_not_meter_the_solve_again(self, captures):
        """Flags the solve raised are counted once, not once per render."""
        solution = Uniq(UniqConfig(angle_grid_deg=GRIDS[0])).solve(
            captures["salvaged"]
        )
        assert solution.flags
        before = _counts(("quality.flags",))
        rendered = Uniq(UniqConfig(angle_grid_deg=GRIDS[1])).render(solution)
        render_flags = len(rendered.quality.flags) - len(solution.flags)
        assert _moved(before) == {"quality.flags": render_flags}
        assert rendered.quality.flags[: len(solution.flags)] == solution.flags


class TestServedRerender:
    def test_one_worker_solves_a_capture_once(self, capture_path, base_session, tmp_path):
        """Three grids of one capture on one worker: one solve, two renders,
        and the payloads of a fresh worker per job."""
        jobs = [
            Job(job_id=f"step-{step}", session_path=str(capture_path),
                angle_step_deg=step)
            for step in (15.0, 10.0, 30.0)
        ]
        with BatchServer(workers=1, telemetry=True) as server:
            report = server.run_batch(jobs)
        assert report.counts == {"ok": 3}
        names = ("fusion.runs", "channel.bank_deconvolutions", *MEMO_COUNTERS)
        totals = {
            name: sum(
                r.payload["_telemetry"]["metrics_delta"]["counters"].get(name, 0)
                for r in report.results
            )
            for name in names
        }
        assert totals == {
            "fusion.runs": 1,
            "channel.bank_deconvolutions": 2 * base_session.n_probes,
            "serve.capture_memo_hits": 2,
            "serve.capture_memo_misses": 1,
        }

        fresh = []
        for job in jobs:
            clear_capture_memo()
            fresh.append(execute_job(job.to_dict()))
        served = [r.deterministic()["payload"] for r in report.results]
        assert served == fresh
        assert len({p["table_digest"] for p in fresh}) == 3


class TestCaptureMemoKey:
    @pytest.fixture
    def spec(self, capture_path):
        return {"session_path": str(capture_path), "angle_step_deg": 15.0}

    def test_grid_is_render_only(self, spec):
        before = _counts()
        first_session, first = personalize_spec(spec)
        again_session, again = personalize_spec(spec)
        coarse_session, coarse = personalize_spec({**spec, "angle_step_deg": 30.0})
        assert _moved(before) == {
            "serve.capture_memo_hits": 2, "serve.capture_memo_misses": 1
        }
        # A replayed solve parses no capture.
        assert first_session is not None
        assert again_session is None and coarse_session is None
        _assert_results_equal(first, again)
        assert coarse.table.n_angles == 7

    def test_same_bytes_hit_and_one_changed_sample_misses(
        self, spec, base_session, tmp_path
    ):
        personalize_spec(spec)
        resaved = tmp_path / "resaved.npz"
        save_session(base_session, resaved)
        probes = list(base_session.probes)
        left = probes[5].left.copy()
        left[100] = np.nextafter(left[100], np.inf)
        probes[5] = replace(probes[5], left=left)
        changed = tmp_path / "changed.npz"
        save_session(replace(base_session, probes=tuple(probes)), changed)

        before = _counts()
        personalize_spec({**spec, "session_path": str(resaved)})
        assert _moved(before) == {
            "serve.capture_memo_hits": 1, "serve.capture_memo_misses": 0
        }
        before = _counts()
        personalize_spec({**spec, "session_path": str(changed)})
        assert _moved(before) == {
            "serve.capture_memo_hits": 0, "serve.capture_memo_misses": 1
        }

    @pytest.mark.parametrize(
        "extra, changes",
        [
            ({}, {"deconv": "wiener"}),
            ({}, {"enforce_gesture_check": False}),
            (
                {"fault": "mic_noise", "fault_args": {"std": 0.01}},
                {"fault_args": {"std": 0.02}},
            ),
        ],
        ids=["deconv", "enforce_gesture_check", "fault_args"],
    )
    def test_solve_field_change_misses(self, spec, extra, changes):
        base = {**spec, **extra}
        personalize_spec(base)
        before = _counts()
        personalize_spec({**base, **changes})
        assert _moved(before) == {
            "serve.capture_memo_hits": 0, "serve.capture_memo_misses": 1
        }
        before = _counts()
        personalize_spec(base)
        assert _moved(before) == {
            "serve.capture_memo_hits": 1, "serve.capture_memo_misses": 0
        }

    def test_simulated_captures_are_not_memoized(self):
        spec = {"subject_seed": 1, "probe_interval_s": 1.5, "angle_step_deg": 30.0}
        before = _counts(("fusion.runs", *MEMO_COUNTERS))
        personalize_spec(spec)
        personalize_spec(spec)
        assert _moved(before) == {
            "fusion.runs": 2,
            "serve.capture_memo_hits": 0,
            "serve.capture_memo_misses": 0,
        }
        assert not worker_module._CAPTURE_MEMO

    def test_failed_solve_is_not_stored(self, spec, monkeypatch):
        calls = []

        def failing(self, session, system_response=None):
            calls.append(session)
            raise CalibrationError("gesture rejected")

        monkeypatch.setattr(Uniq, "solve", failing)
        for _ in range(2):
            with pytest.raises(CalibrationError):
                execute_job(spec)
        assert len(calls) == 2
        assert not worker_module._CAPTURE_MEMO

    def test_every_spec_field_read_is_keyed_or_declared(self, capture_path, monkeypatch):
        """A spec field ``personalize_spec`` reads must key the memo or be
        declared as not read by the solve."""
        read = set()

        class Recording(dict):
            def get(self, key, default=None):
                read.add(key)
                return super().get(key, default)

            def __getitem__(self, key):
                read.add(key)
                return super().__getitem__(key)

            def __contains__(self, key):
                read.add(key)
                return super().__contains__(key)

        class StubUniq:
            def __init__(self, config):
                pass

            def personalize_span(self, n_probes, fs):
                return contextlib.nullcontext()

            def solve(self, session):
                return SimpleNamespace(n_probes=session.n_probes, fs=session.fs)

            def render(self, solution):
                return solution

        monkeypatch.setattr(worker_module, "Uniq", StubUniq)
        common = {
            "job_id": "j", "angle_step_deg": 15.0, "deconv": "auto",
            "enforce_gesture_check": True, "crash_marker": None,
            "fault": "mic_noise", "fault_args": {"std": 0.01},
        }
        for _ in range(2):  # a miss, then a hit
            personalize_spec(Recording(common, session_path=str(capture_path)))
        personalize_spec(
            Recording(common, subject_seed=1, session_seed=0, probe_interval_s=1.5)
        )
        keyed = set(worker_module._SOLVE_FIELDS)
        unkeyed = set(worker_module._UNKEYED_SPEC_FIELDS)
        assert not keyed & unkeyed
        assert read == keyed | unkeyed


class TestCaptureMemoLru:
    def test_evicts_least_recently_used_at_its_bound(self, monkeypatch):
        monkeypatch.setattr(worker_module, "_CAPTURE_MEMO_MAX", 2)
        a, b, c = (object() for _ in range(3))
        worker_module._remember_capture(("a",), a)
        worker_module._remember_capture(("b",), b)
        assert worker_module._recall_capture(("a",)) is a  # now the newest
        worker_module._remember_capture(("c",), c)
        assert worker_module._recall_capture(("b",)) is None
        assert worker_module._recall_capture(("a",)) is a
        assert worker_module._recall_capture(("c",)) is c
        assert len(worker_module._CAPTURE_MEMO) == 2

    def test_concurrent_use_stays_bounded_and_consistent(self, monkeypatch):
        """Threads sharing the memo never read another key's solution, and
        the LRU never grows past its capacity."""
        monkeypatch.setattr(worker_module, "_CAPTURE_MEMO_MAX", 16)
        errors = []

        def worker(thread):
            for i in range(300):
                solution = (thread, i)
                worker_module._remember_capture((thread, i), solution)
                recalled = worker_module._recall_capture((thread, i))
                if recalled is not None and recalled is not solution:
                    errors.append((thread, i))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(t,)) for t in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(worker_module._CAPTURE_MEMO) == 16


def test_capture_key_is_canonical_json():
    """Dict field order does not change the key; values do."""
    data = b"capture bytes"
    one = worker_module._capture_key(data, {"fault_args": {"a": 1, "b": 2}})
    two = worker_module._capture_key(data, {"fault_args": {"b": 2, "a": 1}})
    assert one == two
    assert json.loads(one[1]) == [None, None, None, {"a": 1, "b": 2}]
    assert worker_module._capture_key(data, {"fault_args": {"a": 1.5}}) != one
    assert worker_module._capture_key(b"other bytes", {}) != worker_module._capture_key(
        data, {}
    )
