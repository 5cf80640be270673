"""Performance benchmarks for the library's hot kernels.

The figure benchmarks above time whole experiments once; these time the
individual computational kernels with proper repetition, so regressions in
the numerics (the batch path solver, channel estimation, delay-map builds,
AoA scoring, rendering) are visible.  On the paper's own terms the whole
personalization must stay interactive — "users can get their personalized
HRTF ... in a couple of minutes" — which these budgets add up to.
"""

import time

import numpy as np
import pytest

from repro.datasets import load_session, save_session
from repro.geometry.batch import _horizon_indices, _vertex_table, binaural_delays_batch
from repro.geometry.head import DEFAULT_BOUNDARY_SAMPLES, HeadGeometry
from repro.geometry.vec import polar_to_cartesian
from repro.hrtf.reference import ground_truth_table
from repro.obs import metrics as obs_metrics
from repro.simulation.person import VirtualSubject
from repro.simulation.propagation import record_far_field, record_near_field
from repro.signals.channel import estimate_channel
from repro.signals.waveforms import probe_chirp, white_noise
from repro.simulation.session import MeasurementSession
from repro.signals.channel import ProbeChannelBank
from repro.core.aoa import KnownSourceAoAEstimator, UnknownSourceAoAEstimator
from repro.core import mapstore
from repro.core.localize import DelayMap, cached_delay_map, clear_delay_map_cache
from repro.core.fusion import (
    FINAL_MAP_RADII,
    FINAL_MAP_THETAS,
    FUSION_BOUNDARY_SAMPLES,
    MAP_RADII,
    MAP_THETAS,
    DiffractionAwareSensorFusion,
)
from repro.core.pipeline import Uniq, UniqConfig, grid_from_step
from repro.serve.worker import clear_capture_memo, personalize_spec

FS = 48_000


@pytest.fixture(scope="module")
def head():
    return HeadGeometry.average()


@pytest.fixture(scope="module")
def subject():
    return VirtualSubject.random(7)


@pytest.fixture(scope="module")
def table(subject):
    return ground_truth_table(subject, np.arange(0.0, 181.0, 5.0), FS)


def test_perf_batch_delays(benchmark, head):
    """The batch delay solve of one coarse DelayMap: the fusion optimizer's
    inner loop, a 240-sample head over the MAP_RADII x MAP_THETAS grid."""
    search_head = HeadGeometry(
        a=head.a, b=head.b, c=head.c, n_boundary=FUSION_BOUNDARY_SAMPLES
    )
    grid_r, grid_t = np.meshgrid(
        np.linspace(*MAP_RADII), np.linspace(*MAP_THETAS), indexing="ij"
    )
    sources = polar_to_cartesian(grid_r.ravel(), grid_t.ravel())
    result = benchmark(binaural_delays_batch, search_head, sources)
    assert np.isfinite(result[0]).all()


def test_perf_horizon_search(benchmark, head):
    """The visibility horizons inside that batch solve: each source's two
    tangent-seeded arc ends and their sign-test certificate, over the
    MAP_RADII x MAP_THETAS grid on a 240-sample head."""
    search_head = HeadGeometry(
        a=head.a, b=head.b, c=head.c, n_boundary=FUSION_BOUNDARY_SAMPLES
    )
    grid_r, grid_t = np.meshgrid(
        np.linspace(*MAP_RADII), np.linspace(*MAP_THETAS), indexing="ij"
    )
    xs, ys = np.ascontiguousarray(polar_to_cartesian(grid_r.ravel(), grid_t.ravel()).T)
    table = _vertex_table(search_head)
    first, last = benchmark(_horizon_indices, search_head, table, xs, ys)
    arc = (last - first) % search_head.n_boundary
    assert (arc < search_head.n_boundary // 2).all()


def test_perf_delay_map_build(benchmark, head):
    """One DelayMap construction (per optimizer iteration)."""
    small_head = HeadGeometry(
        a=head.a, b=head.b, c=head.c, n_boundary=240
    )
    result = benchmark(
        DelayMap, small_head, (0.16, 1.2, 24), (-40.0, 220.0, 88)
    )
    assert result.t_left.shape == (24, 88)


def test_perf_delay_map_build_final(benchmark, head):
    """The fusion's final full-resolution DelayMap (once per personalization)."""
    final_head = HeadGeometry(
        a=head.a, b=head.b, c=head.c, n_boundary=DEFAULT_BOUNDARY_SAMPLES
    )
    result = benchmark(DelayMap, final_head, FINAL_MAP_RADII, FINAL_MAP_THETAS)
    assert result.t_left.shape == (48, 261)


def test_perf_load_session(benchmark, subject, tmp_path_factory):
    """Reading a saved 34-probe capture (once per served job)."""
    session = MeasurementSession(subject, seed=3, probe_interval_s=0.6).run()
    assert session.n_probes == 34
    path = tmp_path_factory.mktemp("capture") / "session.npz"
    save_session(session, path)
    loaded = benchmark(load_session, path)
    assert loaded.n_probes == 34


def test_perf_delay_map_invert(benchmark, head, subject):
    """One coarse locate_batch over a 34-probe capture's delays: what each
    optimizer cost evaluation spends after its map build."""
    session = MeasurementSession(subject, seed=3, probe_interval_s=0.6).run()
    assert session.n_probes == 34
    fusion = DiffractionAwareSensorFusion()
    t_left, t_right = fusion.extract_probe_delays(session)
    alphas = fusion.imu_angles(session)
    search_head = HeadGeometry(
        a=head.a, b=head.b, c=head.c, n_boundary=FUSION_BOUNDARY_SAMPLES
    )
    delay_map = DelayMap(search_head, MAP_RADII, MAP_THETAS, refine=False)
    thetas, _, solved = benchmark(delay_map.locate_batch, t_left, t_right, alphas)
    assert solved.sum() > session.n_probes // 2
    assert np.isfinite(thetas[solved]).all()


def test_perf_delay_map_cached(benchmark, head):
    """A cached_delay_map hit: what the optimizer pays on a revisited vertex."""
    clear_delay_map_cache()
    params = head.parameters
    cached_delay_map(params, 240, (0.16, 1.2, 24), (-40.0, 220.0, 88))

    def hit():
        return cached_delay_map(params, 240, (0.16, 1.2, 24), (-40.0, 220.0, 88))

    result = benchmark(hit)
    assert result.t_left.shape == (24, 88)


def test_perf_served_rerender_memo_hit(benchmark, subject, tmp_path):
    """A served re-render of a capture the worker has solved: what it pays.

    The worker reads and hashes the capture file, then renders the
    memoized solution at the new grid; loading, preflight, deconvolution
    and fusion are skipped.  One cold miss of the same spec is timed first
    for comparison.
    """
    session = MeasurementSession(subject, seed=3, probe_interval_s=0.8).run()
    path = tmp_path / "capture.npz"
    save_session(session, path)
    spec = {"session_path": str(path), "angle_step_deg": 5.0}
    hits = obs_metrics.counter("serve.capture_memo_hits")
    clear_capture_memo()
    personalize_spec({**spec, "angle_step_deg": 15.0})  # warm the DelayMaps
    clear_capture_memo()
    started = time.perf_counter()
    _, solved = personalize_spec(spec)
    miss_s = time.perf_counter() - started
    hits_before = hits.value
    _, result = benchmark(personalize_spec, spec)
    assert hits.value > hits_before
    assert result.table.n_angles == solved.table.n_angles
    if benchmark.stats is not None:
        assert benchmark.stats.stats.median < miss_s
    clear_capture_memo()


def test_perf_channel_bank_hit(benchmark, subject):
    """Serving an already-deconvolved channel out of the session bank."""
    chirp = probe_chirp(FS)
    left, _ = record_near_field(
        subject, polar_to_cartesian(0.45, 50.0), chirp, FS,
        rng=np.random.default_rng(1),
    )
    bank = ProbeChannelBank(chirp)
    bank.channel((0, "left"), left, 576)
    channel = benchmark(bank.channel, (0, "left"), left, 576)
    assert channel.shape == (576,)


def test_perf_personalize_end_to_end(benchmark, subject):
    """The whole pipeline on a short capture, cold first round.

    The first round pays the DelayMap builds; later rounds solve again on
    cached maps.
    """
    session = MeasurementSession(subject, seed=3, probe_interval_s=0.8).run()
    uniq = Uniq(UniqConfig(angle_grid_deg=tuple(np.arange(0.0, 181.0, 20.0))))
    clear_delay_map_cache()
    result = benchmark.pedantic(
        uniq.personalize, args=(session,), rounds=3, iterations=1,
        warmup_rounds=0,
    )
    assert np.isfinite(result.fusion.radii_m).all()


def test_perf_personalize_warm_solve(benchmark):
    """A warm in-process personalization that solves its head search.

    The CLI's default capture (subject seed 1, 50 probes) on a 5-degree
    grid.  The warm-up round fills the DelayMap cache; no store is active,
    so each timed round runs Nelder-Mead on cached maps.
    """
    session = MeasurementSession(
        VirtualSubject.random(1), seed=0, probe_interval_s=0.4
    ).run()
    uniq = Uniq(UniqConfig(angle_grid_deg=tuple(np.arange(0.0, 181.0, 5.0))))
    searches = obs_metrics.counter("fusion.iterations")
    searches_before = searches.value
    result = benchmark.pedantic(
        uniq.personalize, args=(session,), rounds=3, iterations=1,
        warmup_rounds=1,
    )
    assert searches.value > searches_before
    assert np.isfinite(result.fusion.radii_m).all()


def test_perf_personalize_store_replay(benchmark, tmp_path, monkeypatch):
    """A cold in-process personalization whose head search the store replays.

    The capture and grid of the warm solve.  The store is baked once; every
    round then clears the DelayMap cache, so each timed round reads the
    search outcome from disk and builds only its final map.
    """
    monkeypatch.setenv(mapstore.MAP_STORE_ENV, str(tmp_path / "searches"))
    session = MeasurementSession(
        VirtualSubject.random(1), seed=0, probe_interval_s=0.4
    ).run()
    uniq = Uniq(UniqConfig(angle_grid_deg=tuple(np.arange(0.0, 181.0, 5.0))))
    uniq.personalize(session)  # bake

    evals = obs_metrics.counter("fusion.cost_evaluations")
    evals_before = evals.value
    result = benchmark.pedantic(
        uniq.personalize, args=(session,), setup=clear_delay_map_cache,
        rounds=3, iterations=1, warmup_rounds=1,
    )
    assert evals.value == evals_before
    assert np.isfinite(result.fusion.radii_m).all()


def test_perf_render_fine_grid(benchmark):
    """One render of a solved capture at 2 degrees (91 angles).

    The re-render workload's unit of work: near-field interpolation and
    near-far conversion as array kernels over the whole grid.  The capture
    is solved once, outside the timing.
    """
    session = MeasurementSession(
        VirtualSubject.random(1), seed=0, probe_interval_s=0.6
    ).run()
    solution = Uniq(UniqConfig()).solve(session)
    uniq = Uniq(UniqConfig(angle_grid_deg=grid_from_step(2.0)))
    result = benchmark(uniq.render, solution)
    assert result.table.angles_deg.shape == (91,)
    assert len(result.table.near) == len(result.table.far) == 91


def test_perf_channel_estimation(benchmark, subject):
    """Deconvolving one probe recording (once per probe/ear and rung)."""
    chirp = probe_chirp(FS)
    left, _ = record_near_field(
        subject, polar_to_cartesian(0.45, 50.0), chirp, FS,
        rng=np.random.default_rng(1),
    )
    channel = benchmark(estimate_channel, left, chirp, 576)
    assert channel.shape == (576,)


def test_perf_known_aoa(benchmark, subject, table):
    """One known-source AoA estimate (37 template comparisons)."""
    chirp = probe_chirp(FS, duration_s=0.05)
    left, right = record_far_field(
        subject, 60.0, chirp, FS, rng=np.random.default_rng(2), noise_std=0.003
    )
    estimator = KnownSourceAoAEstimator(table)
    estimate = benchmark(estimator.estimate, left, right, chirp, FS)
    assert abs(estimate - 60.0) < 20.0


def test_perf_unknown_aoa(benchmark, subject, table):
    """One unknown-source AoA estimate on 0.5 s of audio."""
    signal = white_noise(0.5, FS, rng=np.random.default_rng(3))
    left, right = record_far_field(
        subject, 60.0, signal, FS, rng=np.random.default_rng(4), noise_std=0.003
    )
    estimator = UnknownSourceAoAEstimator(table)
    estimate = benchmark(estimator.estimate, left, right, FS)
    assert abs(estimate - 60.0) < 25.0


def test_perf_binaural_render(benchmark, table):
    """Rendering one second of audio through the table."""
    signal = white_noise(1.0, FS, rng=np.random.default_rng(5))
    left, right = benchmark(table.binauralize, signal, 60.0)
    assert left.shape == right.shape


def test_perf_table_lookup_interpolated(benchmark, table):
    """One off-grid (interpolating) table lookup."""
    entry = benchmark(table.lookup, 47.3, "far")
    assert entry.n_samples == table.far[0].n_samples
