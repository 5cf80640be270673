"""Fleet evaluation: a pinned population through the real pipeline.

The paper judges personalization by measurement against ground truth: the
phone's localization error (Fig. 17) and the estimated head (§4.1).  This
module does the same over a small pinned population.  Each subject is a
seeded :class:`repro.simulation.person.VirtualSubject` whose capture is
degraded per its capture-quality **stratum** (a :mod:`repro.testing.faults`
spec).  The batch service personalizes every subject through
:func:`repro.serve.worker.personalize_spec`, the same spec → result path
that :func:`repro.serve.worker.execute_job` serves, and :func:`score_job`
scores the result against the simulator's truth.  Per-stratum
distributions of those scores, plus failure, salvage and retry rates, make
one :class:`FleetReport`.

Determinism is the load-bearing property.  The pipeline is a pure function
of the job spec, scores are reduced in submission order, and wall-clock
figures live in a separate ops record, so ``fleet run`` with any worker
count writes a byte-identical report: the precondition for pinning the
digests under ``tests/golden/`` and failing CI on drift
(:mod:`repro.eval.drift`).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from repro.errors import ReproError
from repro.eval.drift import QUANTILE_FIELDS, DriftFinding, compare_digests
from repro.ioutil import atomic_write_json
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.serve.job import Job, JobResult
from repro.serve.server import BatchServer
from repro.serve.worker import personalize_spec

__all__ = [
    "DEFAULT_STRATA",
    "FleetReport",
    "OVERALL",
    "SEED",
    "SUBJECTS_PER_STRATUM",
    "Stratum",
    "UNMEASURED_STATUSES",
    "aggregate",
    "compare_reports",
    "generate_population",
    "run_fleet",
    "score_job",
]

#: The pinned population: this many subjects in every stratum, seeded from
#: :data:`SEED`.  Three per stratum keeps a full run near 20 s on two
#: workers.
SUBJECTS_PER_STRATUM = 3
SEED = 7

#: Synthetic stratum name reserved for the all-subjects row.
OVERALL = "__overall__"

#: Report schema version (bumped on any change to the saved JSON shape).
REPORT_VERSION = 2

#: Per-subject score lists :func:`score_job` returns, digested per stratum.
METRICS = ("error_deg", "head_error_mm", "confidence")

#: Rates carried per stratum as ``count`` + ``mean`` digests.
RATE_METRICS = ("failure_rate", "salvage_rate", "retry_rate")

#: Statuses under which the service measured nothing about the subject.  A
#: ``failed`` subject (its job raised) is a measured outcome and only feeds
#: ``failure_rate``; these mean the run itself is broken.
UNMEASURED_STATUSES = frozenset(
    {"crashed", "timeout", "interrupted", "rejected"}
)


@dataclass(frozen=True)
class Stratum:
    """One capture-quality slice of the population.

    ``fault``/``fault_args`` are a :mod:`repro.testing.faults` spec, the
    same vocabulary the serve layer already validates on every job.
    """

    name: str
    fault: str | None = None
    fault_args: Mapping[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        record: dict[str, Any] = {"name": self.name}
        if self.fault is not None:
            record["fault"] = self.fault
        if self.fault_args:
            record["fault_args"] = dict(sorted(self.fault_args.items()))
        return record


#: The default strata: clean captures, noisy rooms, clipped speakers,
#: dropped probes, drifting IMUs, and reverberant (or noisy *and*
#: reverberant) living rooms.
DEFAULT_STRATA: tuple[Stratum, ...] = (
    Stratum("clean"),
    Stratum("noisy_room", "mic_noise", {"std": 0.01}),
    Stratum("clipped_audio", "clipped", {"level": 0.02}),
    Stratum("sparse_probes", "dropout", {"keep_every": 2}),
    Stratum("imu_drift", "gyro_bias_drift", {"drift_dps_per_s": 0.5}),
    Stratum("reverberant", "reverberant_room", {"rt60_s": 0.6}),
    Stratum(
        "noisy_reverberant",
        "noisy_reverberant",
        {"rt60_s": 0.5, "std": 0.05},
    ),
)


def score_job(spec: Mapping[str, Any]) -> dict[str, Any]:
    """The fleet runner: personalize one subject and score it against truth.

    ``error_deg`` is the per-probe ``|fused − true|`` phone angle (paper
    Fig. 17), non-finite entries dropped; ``head_error_mm`` the
    ``|â−a|``, ``|b̂−b|``, ``|ĉ−c|`` head-parameter errors;
    ``confidence`` the result's confidence; ``salvaged`` whether the
    pipeline took its salvage retry.  Job failures propagate, so the server
    records them as ``failed``.
    """
    session, result = personalize_spec(spec)
    truth = session.truth
    errors = np.abs(result.fusion.fused_angles_deg - truth.probe_angles_deg())
    head = truth.subject.head
    salvage = (result.quality.salvage or {}) if result.quality else {}
    return {
        "error_deg": [float(e) for e in errors[np.isfinite(errors)]],
        "head_error_mm": [
            abs(float(estimate) - true) * 1e3
            for estimate, true in zip(
                result.head_parameters, (head.a, head.b, head.c)
            )
        ],
        "confidence": [float(result.confidence)],
        "salvaged": bool(salvage.get("retried", False)),
    }


def _validate_strata(strata: Sequence[Stratum]) -> tuple[Stratum, ...]:
    strata = tuple(strata)
    if not strata:
        raise ReproError("fleet needs at least one stratum")
    names = [s.name for s in strata]
    if len(set(names)) != len(names):
        raise ReproError(f"duplicate stratum names in {names}")
    if OVERALL in names:
        raise ReproError(f"stratum name {OVERALL!r} is reserved")
    return strata


def generate_population(
    strata: Sequence[Stratum] | None = None,
) -> tuple[Job, ...]:
    """The pinned fleet job list, stratum by stratum.

    Subject ``i`` of the population gets seed ``1_000_000 + SEED·100_000 +
    i``, so no two jobs coalesce and a subset of strata that keeps the
    leading ones keeps their subjects.
    """
    strata = _validate_strata(DEFAULT_STRATA if strata is None else strata)
    jobs: list[Job] = []
    for stratum in strata:
        for _ in range(SUBJECTS_PER_STRATUM):
            i = len(jobs)
            jobs.append(
                Job(
                    job_id=f"fleet-{SEED}-{i:05d}",
                    subject_seed=1_000_000 + SEED * 100_000 + i,
                    fault=stratum.fault,
                    fault_args=dict(stratum.fault_args),
                    params={"stratum": stratum.name},
                )
            )
    return tuple(jobs)


def _round6(value: float) -> float:
    return round(float(value), 6)


def _digest(values: Sequence[float]) -> dict[str, float]:
    """Exact count, mean, std and pinned quantiles of ``values``."""
    array = np.asarray(values, dtype=float)
    quantiles = np.percentile(array, [5, 25, 50, 75, 95])
    return {
        "count": int(array.size),
        "mean": _round6(array.mean()),
        "std": _round6(array.std()),
        **{name: _round6(q) for name, q in zip(QUANTILE_FIELDS, quantiles)},
    }


@dataclass
class FleetReport:
    """The deterministic artifact of one fleet run.

    ``digest`` maps ``stratum -> metric -> statistics`` (with an
    :data:`OVERALL` row over every subject); ``counters`` holds the integer
    counts behind the rates.  Wall-clock figures live in the separate ops
    record :func:`run_fleet` returns, so saving the same run twice yields
    bit-identical JSON.
    """

    config: dict[str, Any]
    statuses: dict[str, int]
    counters: dict[str, dict[str, int]]
    digest: dict[str, dict[str, dict[str, float]]]

    @property
    def n_unmeasured(self) -> int:
        """Subjects whose status is in :data:`UNMEASURED_STATUSES`."""
        return sum(
            count for status, count in self.statuses.items()
            if status in UNMEASURED_STATUSES
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "version": REPORT_VERSION,
            "config": self.config,
            "statuses": dict(sorted(self.statuses.items())),
            "counters": {
                stratum: dict(sorted(counts.items()))
                for stratum, counts in sorted(self.counters.items())
            },
            "digest": self.digest,
        }

    def save(self, path: str | os.PathLike) -> None:
        """Write the report as canonical JSON (atomic, sorted keys)."""
        atomic_write_json(self.to_dict(), path)


def aggregate(
    config: Mapping[str, Any],
    jobs: Sequence[Job],
    results: Iterable[JobResult],
) -> FleetReport:
    """Fold :func:`score_job` results into a :class:`FleetReport`.

    Results must be in job submission order (what
    :meth:`BatchServer.run_batch` returns): the digests are computed over
    the values in that order, which is part of the bit-identity contract.
    A subject that did not complete ok counts in ``failure_rate`` and
    nothing else; ``retry_rate`` counts results that took more than one
    attempt.
    """
    by_id = {job.job_id: job for job in jobs}
    values: dict[str, dict[str, list[float]]] = {}
    counters: dict[str, dict[str, int]] = {}
    statuses: dict[str, int] = {}
    for result in results:
        job = by_id.get(result.job_id)
        if job is None:
            raise ReproError(f"result for unknown job {result.job_id!r}")
        statuses[result.status] = statuses.get(result.status, 0) + 1
        for group in (str(job.params["stratum"]), OVERALL):
            counts = counters.setdefault(
                group, {"count": 0, "failure": 0, "salvage": 0, "retry": 0}
            )
            counts["count"] += 1
            counts["retry"] += int(result.attempts > 1)
            if not result.ok:
                counts["failure"] += 1
                continue
            counts["salvage"] += int(bool(result.payload["salvaged"]))
            for metric in METRICS:
                values.setdefault(group, {}).setdefault(metric, []).extend(
                    result.payload[metric]
                )
    digest: dict[str, dict[str, dict[str, float]]] = {}
    for group, counts in sorted(counters.items()):
        row = {
            metric: _digest(metric_values)
            for metric, metric_values in sorted(values.get(group, {}).items())
            if metric_values
        }
        total = counts["count"]
        for rate in RATE_METRICS:
            event = counts[rate.removesuffix("_rate")]
            row[rate] = {"count": total, "mean": _round6(event / total)}
        digest[group] = row
    return FleetReport(dict(config), statuses, counters, digest)


def run_fleet(
    *, workers: int = 2, strata: Sequence[Stratum] | None = None
) -> tuple[FleetReport, dict[str, Any]]:
    """Personalize the pinned population on a :class:`BatchServer`.

    Returns ``(report, ops)``: the deterministic :class:`FleetReport` and a
    separate operational record (wall time, subjects/s, serve latency
    percentiles) that varies between runs and is never saved with it.
    """
    strata = DEFAULT_STRATA if strata is None else tuple(strata)
    jobs = generate_population(strata)
    config = {
        "seed": SEED,
        "subjects_per_stratum": SUBJECTS_PER_STRATUM,
        "strata": [s.to_dict() for s in strata],
    }
    with obs_trace.span("fleet.run", subjects=len(jobs)):
        started = time.perf_counter()
        with BatchServer(workers=workers, runner=score_job) as server:
            batch = server.run_batch(jobs)
        wall = time.perf_counter() - started
        report = aggregate(config, jobs, batch.results)
    subjects_per_s = len(jobs) / wall if wall > 0 else float("inf")
    obs_metrics.counter("fleet.subjects").inc(len(jobs))
    obs_metrics.counter("fleet.subjects_ok").inc(batch.n_ok)
    obs_metrics.counter("fleet.subjects_failed").inc(len(jobs) - batch.n_ok)
    obs_metrics.gauge("fleet.subjects_per_s").set(subjects_per_s)
    ops = {
        "wall_s": wall,
        "subjects_per_s": subjects_per_s,
        "workers": batch.workers,
        "statuses": batch.counts,
        "serve_latency": batch.latency_summary(),
    }
    return report, ops


def compare_reports(
    baseline: Mapping[str, Any],
    report: Mapping[str, Any],
    tolerances: Mapping[str, Any] | None = None,
) -> tuple[list[str], list[DriftFinding]]:
    """Compare a fresh report dict against a pinned baseline dict.

    A config mismatch (another population) is reported as a violation:
    the two are not comparable.  Digest comparison, including missing or
    unknown strata and metrics, is delegated to
    :func:`repro.eval.drift.compare_digests`.
    """
    violations: list[str] = []
    base_cfg = dict(baseline.get("config", {}))
    run_cfg = dict(report.get("config", {}))
    for key in sorted(set(base_cfg) | set(run_cfg)):
        if base_cfg.get(key) != run_cfg.get(key):
            violations.append(
                f"config/{key}: run has {run_cfg.get(key)!r}, baseline has "
                f"{base_cfg.get(key)!r} — not comparable, regenerate the "
                f"baseline if the change is intentional"
            )
    digest_violations, findings = compare_digests(
        baseline.get("digest", {}), report.get("digest", {}), tolerances
    )
    violations.extend(digest_violations)
    return violations, findings
