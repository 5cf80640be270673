"""Typed quality flags and the collector the pipeline threads through.

A :class:`QualityFlag` is one machine-readable statement about a
personalization run — *which stage* saw *what symptom*, how bad it is, and
the measured value against the threshold that tripped it.  Stages append
flags to a shared :class:`QualityCollector` instead of silently proceeding
(or raising), so a degraded capture leaves an audit trail in the final
:class:`repro.quality.QualityReport` rather than a result indistinguishable
from a good one.

Every flag emission also bumps the ``quality.flags`` counter and a
per-code ``quality.flag.<stage>.<code>`` counter on the global metrics
registry, so a fleet of runs exposes its degradation mix without anyone
parsing reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.errors import ReproError
from repro.obs import metrics as obs_metrics

__all__ = ["QualityFlag", "QualityCollector", "SEVERITIES", "STAGES"]

#: Flag severities, mildest first.  ``info`` annotates, ``warn`` degrades
#: confidence, ``error`` marks a symptom severe enough that the stage result
#: is suspect even after salvage.
SEVERITIES = ("info", "warn", "error")

#: The pipeline stages allowed to emit flags (keeps stage attribution
#: machine-checkable — a typo'd stage name fails loudly, not silently).
STAGES = ("preflight", "fusion", "interpolation", "near_far", "pipeline")


@dataclass(frozen=True)
class QualityFlag:
    """One stage-attributed degradation symptom.

    Attributes
    ----------
    stage:
        The pipeline stage that observed the symptom (one of :data:`STAGES`).
    code:
        Short machine-readable symptom name, e.g. ``"clipping"``.
    severity:
        One of :data:`SEVERITIES`.
    message:
        Human-readable one-liner with the numbers inline.
    probe_index:
        The probe the symptom is localized to, when it is per-probe.
    value / threshold:
        The measured quantity and the calibrated threshold it crossed
        (``None`` for symptoms without a scalar measurement).
    """

    stage: str
    code: str
    severity: str
    message: str
    probe_index: int | None = None
    value: float | None = None
    threshold: float | None = None

    def __post_init__(self) -> None:
        if self.stage not in STAGES:
            raise ReproError(
                f"unknown quality stage {self.stage!r}; known: {STAGES}"
            )
        if self.severity not in SEVERITIES:
            raise ReproError(
                f"unknown severity {self.severity!r}; known: {SEVERITIES}"
            )

    @property
    def key(self) -> str:
        """``stage.code`` — the name metrics and reports group by."""
        return f"{self.stage}.{self.code}"

    def to_dict(self) -> dict[str, Any]:
        record: dict[str, Any] = {
            "stage": self.stage,
            "code": self.code,
            "severity": self.severity,
            "message": self.message,
        }
        if self.probe_index is not None:
            record["probe_index"] = int(self.probe_index)
        if self.value is not None:
            record["value"] = float(self.value)
        if self.threshold is not None:
            record["threshold"] = float(self.threshold)
        return record

    @classmethod
    def from_dict(cls, record: Mapping[str, Any]) -> "QualityFlag":
        return cls(
            stage=record["stage"],
            code=record["code"],
            severity=record["severity"],
            message=record["message"],
            probe_index=record.get("probe_index"),
            value=record.get("value"),
            threshold=record.get("threshold"),
        )


class QualityCollector:
    """Accumulates flags and per-component confidence scores for one run.

    The pipeline creates one collector per personalization and hands it to
    every stage; stages call :meth:`flag` for symptoms and :meth:`component`
    for their scalar health scores.  Components are named
    ``"<stage>.<aspect>"`` and clamped to ``[0, 1]``; re-reporting a
    component keeps the *worst* (minimum) score, so a stage that runs twice
    (salvage retry) can only lower its score, never launder it.
    """

    def __init__(self) -> None:
        self._flags: list[QualityFlag] = []
        self._components: dict[str, float] = {}

    @classmethod
    def resumed(
        cls,
        flags: tuple[QualityFlag, ...],
        components: tuple[tuple[str, float], ...],
    ) -> "QualityCollector":
        """A collector that carries on from stages that already reported.

        ``flags`` and ``components`` are kept in their order, so the
        confidence product comes out bit for bit as in one unbroken run.
        They were metered when first raised and are not metered again.
        """
        collector = cls()
        collector._flags = list(flags)
        collector._components = dict(components)
        return collector

    @property
    def flags(self) -> tuple[QualityFlag, ...]:
        return tuple(self._flags)

    @property
    def components(self) -> dict[str, float]:
        return dict(self._components)

    def flag(
        self,
        stage: str,
        code: str,
        severity: str,
        message: str,
        probe_index: int | None = None,
        value: float | None = None,
        threshold: float | None = None,
    ) -> QualityFlag:
        """Record one symptom (validated, metered) and return it."""
        flag = QualityFlag(
            stage=stage,
            code=code,
            severity=severity,
            message=message,
            probe_index=probe_index,
            value=value,
            threshold=threshold,
        )
        self._flags.append(flag)
        obs_metrics.counter("quality.flags").inc()
        obs_metrics.counter(f"quality.flag.{flag.key}").inc()
        return flag

    def component(self, name: str, score: float) -> float:
        """Record one confidence component; worst report wins."""
        stage = name.split(".", 1)[0]
        if stage not in STAGES:
            raise ReproError(
                f"component {name!r} must be namespaced by a stage {STAGES}"
            )
        score = float(min(1.0, max(0.0, score)))
        previous = self._components.get(name)
        if previous is None or score < previous:
            self._components[name] = score
        return self._components[name]

    def extend(self, other: "QualityCollector") -> None:
        """Merge another collector's flags and components into this one."""
        for flag in other._flags:
            self._flags.append(flag)
        for name, score in other._components.items():
            self.component(name, score)
