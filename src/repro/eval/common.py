"""Shared evaluation infrastructure: the volunteer cohort and references.

Personalizing one subject takes several seconds, and most figures need the
same 5 personalized volunteers, so :func:`get_cohort` memoizes the whole
cohort (subjects, sessions, UNIQ results, reference tables) per process.
Everything is seeded; two processes produce identical cohorts.
"""

from __future__ import annotations

import functools
import os
import time
from dataclasses import dataclass

import numpy as np

from repro.constants import DEFAULT_SAMPLE_RATE
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.hrtf.hrir import BinauralIR
from repro.hrtf.reference import ground_truth_table, global_template_table
from repro.hrtf.table import HRTFTable
from repro.simulation.person import VirtualSubject
from repro.simulation.population import make_population
from repro.simulation.propagation import record_far_field
from repro.simulation.session import MeasurementSession, SessionData
from repro.serve.pool import WorkerPool
from repro.signals.channel import estimate_channel, first_tap_index, truncate_after
from repro.signals.waveforms import probe_chirp
from repro.core.pipeline import PersonalizationResult, Uniq, UniqConfig
from repro.obs.logging import get_logger, kv

_log = get_logger("eval.common")

#: The evaluation angle grid: every 5 degrees over the measured semicircle.
EVAL_ANGLES = tuple(float(a) for a in range(0, 181, 5))

#: The cohort size the paper evaluates (5 volunteers).
DEFAULT_COHORT_SIZE = 5


@dataclass(frozen=True)
class CohortMember:
    """One volunteer: subject, capture session, UNIQ result, ground truth."""

    subject: VirtualSubject
    session: SessionData
    personalization: PersonalizationResult
    ground_truth: HRTFTable

    @property
    def name(self) -> str:
        return self.subject.name


@dataclass(frozen=True)
class Cohort:
    """The shared evaluation cohort plus the global-template baseline."""

    members: tuple[CohortMember, ...]
    global_template: HRTFTable
    angles_deg: np.ndarray

    def __iter__(self):
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)


def _build_member(
    args: tuple[int, VirtualSubject, float, int],
) -> CohortMember:
    """Build one fully seeded cohort member (top-level so it pickles).

    Everything downstream of the ``(seed, subject)`` pair is deterministic,
    so the same index produces a bit-identical member in any process.
    """
    i, subject, probe_interval_s, fs = args
    angles = np.asarray(EVAL_ANGLES)
    session = MeasurementSession(
        subject, seed=9_000 + i, fs=fs, probe_interval_s=probe_interval_s
    ).run()
    uniq = Uniq(UniqConfig(angle_grid_deg=EVAL_ANGLES))
    return CohortMember(
        subject=subject,
        session=session,
        personalization=uniq.personalize(session),
        ground_truth=ground_truth_table(subject, angles, fs),
    )


def _cohort_workers(requested: int | None, n: int) -> int:
    """Resolve the worker count: argument beats env beats cpu count.

    ``REPRO_COHORT_WORKERS=1`` (or ``0``) forces the serial path — the
    opt-out for single-core CI boxes where process spawning only adds
    overhead.  A non-integer value (``auto``, a typo) warns and falls back
    to the cpu-count default instead of failing the whole evaluation over
    a tuning knob.
    """
    if requested is None:
        env = os.environ.get("REPRO_COHORT_WORKERS", "").strip()
        requested = os.cpu_count() or 1
        if env:
            try:
                requested = int(env)
            except ValueError:
                obs_metrics.counter("cohort.workers_env_invalid").inc()
                _log.warning(
                    kv(
                        "cohort.workers_env_invalid",
                        value=env,
                        fallback=requested,
                    )
                )
    return max(1, min(int(requested), n))


@functools.lru_cache(maxsize=4)
def get_cohort(
    n: int = DEFAULT_COHORT_SIZE,
    probe_interval_s: float = 0.4,
    fs: int = DEFAULT_SAMPLE_RATE,
    workers: int | None = None,
) -> Cohort:
    """Build (once per process) the personalized volunteer cohort.

    Members are independent seeded pipelines, so with ``workers > 1`` they
    are personalized in parallel processes; results are bit-identical to
    the serial path (the test suite asserts this).  ``workers=None``
    consults ``REPRO_COHORT_WORKERS`` then the machine's cpu count.
    """
    angles = np.asarray(EVAL_ANGLES)
    subjects = make_population(n)
    n_workers = _cohort_workers(workers, n)
    jobs = [
        (i, subject, probe_interval_s, fs)
        for i, subject in enumerate(subjects)
    ]
    start = time.perf_counter()
    with obs_trace.span("eval.get_cohort", n=n, workers=n_workers):
        if n_workers == 1:
            members = [_build_member(job) for job in jobs]
        else:
            # The serve-layer WorkerPool: fork context (children inherit
            # this process's warm DelayMap cache) and crash retry — one pool
            # implementation shared with repro.serve.BatchServer.
            with WorkerPool(n_workers) as pool:
                members = pool.map(_build_member, jobs)
    obs_metrics.counter("cohort.members_built").inc(len(members))
    obs_metrics.gauge("cohort.workers").set(float(n_workers))
    obs_metrics.gauge("cohort.build_s").set(time.perf_counter() - start)
    return Cohort(
        members=tuple(members),
        global_template=global_template_table(angles, fs),
        angles_deg=angles,
    )


def measured_ground_truth_table(
    subject: VirtualSubject,
    angles_deg: np.ndarray,
    fs: int = DEFAULT_SAMPLE_RATE,
    seed: int = 0,
    noise_std: float = 0.003,
) -> HRTFTable:
    """A *re-measured* ground truth: the paper's upper-bound reference.

    Figure 18 includes the cross-correlation between two separate
    measurements of the ground-truth HRIR as the achievable ceiling.  This
    simulates the anechoic-lab procedure — play a chirp from each angle in
    the far field, deconvolve, window — including measurement noise, so the
    result is high but not exactly 1.
    """
    rng = np.random.default_rng(seed)
    chirp = probe_chirp(fs, duration_s=0.05)
    angles = np.asarray(angles_deg, dtype=float)
    n_hrir = ground_truth_table(subject, angles[:2], fs).far[0].n_samples
    entries = []
    for angle in angles:
        left, right = record_far_field(
            subject, float(angle), chirp, fs=fs, rng=rng, noise_std=noise_std
        )
        pair = []
        for recording in (left, right):
            channel = estimate_channel(recording, chirp, n_hrir * 2)
            tap = first_tap_index(channel)
            channel = truncate_after(channel, tap + n_hrir)
            pair.append(channel[:n_hrir])
        entries.append(BinauralIR(left=pair[0], right=pair[1], fs=fs))
    # The lab ceiling experiment is far-field only; reuse entries for "near"
    # to satisfy the table schema (comparisons only read the far field).
    return HRTFTable(angles_deg=angles, near=tuple(entries), far=tuple(entries))


def cdf_points(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Empirical CDF ``(sorted values, cumulative probability)``."""
    values = np.sort(np.asarray(values, dtype=float))
    return values, np.arange(1, values.shape[0] + 1) / values.shape[0]


def format_table(headers: list[str], rows: list[list]) -> str:
    """Plain-text table used by the benchmark scripts' printed reports."""
    cells = [[str(h) for h in headers]] + [
        [f"{v:.3f}" if isinstance(v, float) else str(v) for v in row]
        for row in rows
    ]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = []
    for r, row in enumerate(cells):
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(row, widths)))
        if r == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)
