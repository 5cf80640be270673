"""Distribution-drift detection over pinned fleet digests.

The fleet harness (:mod:`repro.eval.fleet`) reduces every per-stratum metric
distribution of the real pipeline's scores (Fig. 17 angle error, head
parameter error, confidence) to a **digest** — ``count``, ``mean``,
``std``, and the pinned quantiles p5/p25/p50/p75/p95 — plus failure,
salvage and retry rates.  This module compares a freshly computed digest
against a committed baseline within per-metric tolerance bands and, when
something moved, classifies *how* it moved:

``shift``
    The bulk of the distribution moved: the mean is out of tolerance and
    every out-of-tolerance statistic moved in the same direction.  The
    canonical cause is a systematic bias (e.g. a delay-extraction change
    that skews every estimated head).
``spread``
    The distribution widened or narrowed: the std is out of tolerance while
    the mean stayed put (a noisier — or suspiciously quieter — pipeline).
``tail``
    Only the extreme quantiles (p5/p95) moved: the typical user is fine but
    outliers got worse (or better) — exactly the regression a mean-only
    check never sees.
``mixed``
    Out-of-tolerance movement matching none of the clean shapes (e.g.
    quantiles moving in opposite directions with a stable mean/std).

Every violation renders into a readable diff table
(:func:`render_drift_table`, built on :func:`repro.textplot.table`) so a CI
failure states which stratum, which metric, which statistic, and by how
much.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.textplot import table

__all__ = [
    "DEFAULT_TOLERANCES",
    "DriftFinding",
    "QUANTILE_FIELDS",
    "classify_drift",
    "compare_digests",
    "render_drift_table",
]

#: The pinned quantile fields every digest carries.
QUANTILE_FIELDS = ("p5", "p25", "p50", "p75", "p95")

#: Per-metric tolerance bands: ``mean``/``std``/``quantile`` are absolute
#: deltas a digest statistic may move before it counts as drift.  Rate
#: metrics carry only a mean; with three subjects per stratum one subject
#: changing outcome moves a rate by 1/3, so any such change is drift.  The
#: fleet is bit-identical on one platform, so the bands only need to absorb
#: cross-platform float noise; ``head_error_mm``'s are tight enough that a
#: one-sample left-ear delay bias reads as a ``shift`` — see
#: docs/TESTING.md, "Fleet tier & distribution digests".
DEFAULT_TOLERANCES: dict[str, dict[str, float]] = {
    "error_deg": {"mean": 0.15, "std": 0.25, "quantile": 0.5},
    "head_error_mm": {"mean": 1.0, "std": 1.5, "quantile": 2.0},
    "confidence": {"mean": 0.01, "std": 0.02, "quantile": 0.02},
    "salvage_rate": {"mean": 0.02},
    "retry_rate": {"mean": 0.02},
    "failure_rate": {"mean": 0.005},
}


@dataclass(frozen=True)
class DriftFinding:
    """One metric distribution that left its tolerance band."""

    stratum: str
    metric: str
    classification: str
    #: ``field -> (baseline, actual, delta, tolerance)`` for every
    #: out-of-tolerance statistic.
    violations: Mapping[str, tuple[float, float, float, float]] = field(
        default_factory=dict
    )

    def describe(self) -> str:
        moved = ", ".join(
            f"{name} {delta:+.3g} (tol {tol:g})"
            for name, (_, _, delta, tol) in self.violations.items()
        )
        return (
            f"{self.stratum}/{self.metric}: {self.classification} drift — {moved}"
        )


def _tolerance(metric: str, statistic: str, tolerances: Mapping[str, Any]) -> float:
    band = tolerances.get(metric, {})
    if statistic in QUANTILE_FIELDS:
        return float(band.get(statistic, band.get("quantile", float("inf"))))
    return float(band.get(statistic, float("inf")))


def classify_drift(
    expected: Mapping[str, float],
    actual: Mapping[str, float],
    metric: str,
    tolerances: Mapping[str, Any] | None = None,
    stratum: str = "",
) -> DriftFinding | None:
    """Compare one metric digest; ``None`` when everything is in band.

    Classification precedence (first match wins): a sign-consistent
    out-of-tolerance mean is a ``shift``; otherwise an out-of-tolerance std
    is a ``spread``; otherwise movement confined to p5/p95 is ``tail``;
    anything else is ``mixed``.
    """
    tol = tolerances if tolerances is not None else DEFAULT_TOLERANCES
    violations: dict[str, tuple[float, float, float, float]] = {}
    for name in ("mean", "std", *QUANTILE_FIELDS):
        if name not in expected or name not in actual:
            continue
        want, got = float(expected[name]), float(actual[name])
        limit = _tolerance(metric, name, tol)
        delta = got - want
        if abs(delta) > limit:
            violations[name] = (want, got, delta, limit)
    if not violations:
        return None
    deltas = {name: v[2] for name, v in violations.items()}
    signs = {delta > 0 for delta in deltas.values()}
    if "mean" in violations and len(signs) == 1:
        classification = "shift"
    elif "std" in violations and "mean" not in violations:
        classification = "spread"
    elif "mean" not in violations and "std" not in violations and set(
        deltas
    ) <= {"p5", "p95"}:
        classification = "tail"
    else:
        classification = "mixed"
    return DriftFinding(
        stratum=stratum,
        metric=metric,
        classification=classification,
        violations=violations,
    )


def compare_digests(
    expected: Mapping[str, Mapping[str, Mapping[str, float]]],
    actual: Mapping[str, Mapping[str, Mapping[str, float]]],
    tolerances: Mapping[str, Any] | None = None,
) -> tuple[list[str], list[DriftFinding]]:
    """Compare nested ``stratum -> metric -> digest`` mappings.

    Returns ``(violations, findings)``: human-readable violation strings
    (including structural mismatches — a stratum or metric present on one
    side only is itself a violation, never silently skipped) and the typed
    drift findings behind them.
    """
    violations: list[str] = []
    findings: list[DriftFinding] = []
    for stratum in sorted(set(expected) - set(actual)):
        violations.append(
            f"{stratum}: stratum in the baseline but missing from the run"
        )
    for stratum in sorted(set(actual) - set(expected)):
        violations.append(
            f"{stratum}: stratum not in the baseline — regenerate it "
            f"(fleet regen-baseline) to pin the new stratum"
        )
    for stratum in sorted(set(expected) & set(actual)):
        want_metrics, got_metrics = expected[stratum], actual[stratum]
        for metric in sorted(set(want_metrics) - set(got_metrics)):
            violations.append(
                f"{stratum}/{metric}: metric in the baseline but missing "
                f"from the run"
            )
        for metric in sorted(set(got_metrics) - set(want_metrics)):
            violations.append(
                f"{stratum}/{metric}: metric not in the baseline — "
                f"regenerate it to pin the new metric"
            )
        for metric in sorted(set(want_metrics) & set(got_metrics)):
            want, got = want_metrics[metric], got_metrics[metric]
            if int(want.get("count", 0)) != int(got.get("count", 0)):
                violations.append(
                    f"{stratum}/{metric}: count {got.get('count')} != "
                    f"baseline {want.get('count')} — population config drift"
                )
            finding = classify_drift(
                want, got, metric, tolerances=tolerances, stratum=stratum
            )
            if finding is not None:
                findings.append(finding)
                violations.append(finding.describe())
    return violations, findings


def render_drift_table(findings: list[DriftFinding]) -> str:
    """The readable diff table a failing ``fleet compare`` prints."""
    if not findings:
        return "no drift findings"
    rows = []
    for finding in findings:
        first = True
        for name, (want, got, delta, tol) in finding.violations.items():
            rows.append(
                [
                    finding.stratum if first else "",
                    finding.metric if first else "",
                    finding.classification if first else "",
                    name,
                    f"{want:.4g}",
                    f"{got:.4g}",
                    f"{delta:+.4g}",
                    f"{tol:g}",
                ]
            )
            first = False
    return table(
        ["stratum", "metric", "class", "stat", "baseline", "actual",
         "delta", "tol"],
        rows,
        aligns=["l", "l", "l", "l", "r", "r", "r", "r"],
    )
