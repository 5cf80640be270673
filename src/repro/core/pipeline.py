"""End-to-end UNIQ: session data in, personal HRTF table out.

Mirrors the paper's Figure 6 pipeline: the three inputs (earbud recordings,
IMU recordings, the played probe) flow through Diffraction-Aware Sensor
Fusion, Near-Field HRTF Interpolation, and Near-Far Conversion, producing
the Section 4.4 lookup table that applications (binaural rendering, AoA)
consume.

A listener is personalized once and the result rendered at any grid:
:meth:`Uniq.solve` does everything the capture determines (preflight,
deconvolution, fusion, HRIR extraction) and :meth:`Uniq.render` does what
the angle grid shapes (interpolation, near-far conversion, the table).
:meth:`Uniq.personalize` is the two in sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any

import numpy as np

from repro.constants import DEFAULT_ANGLE_GRID_DEG
from repro.errors import CalibrationError, SignalError
from repro.hrtf.table import HRTFTable
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.logging import get_logger, kv
from repro.obs.trace import Span
from repro.quality.flags import QualityCollector, QualityFlag
from repro.quality.preflight import CaptureHealth, preflight
from repro.quality.report import QualityReport, combine_components
from repro.signals.channel import ProbeChannelBank
from repro.signals.deconvolve import (
    ladder_next,
    noise_regularization,
    rung_of,
)
from repro.simulation.person import VirtualSubject
from repro.simulation.session import MeasurementSession, SessionData
from repro.core.compensation import (
    check_gesture_quality,
    compensate_recording,
)
from repro.core.fusion import DiffractionAwareSensorFusion, FusionResult
from repro.core.interpolation import NearFieldInterpolator, NearFieldMeasurement
from repro.core.near_far import NearFarConverter

_log = get_logger("core.pipeline")

#: Gesture residual (deg) at/above which auto mode climbs the deconvolution
#: ladder even though the solve nominally succeeded — mirrors the fusion
#: residual sentinel's "bad" threshold.
_ESCALATE_RESIDUAL_DEG = 20.0

#: Confidence component applied when the run finished above rung 0: the
#: robust estimators rescue adverse captures but smooth real pinna detail,
#: so a ladder climb is never free.
_RUNG_PENALTY = {1: 0.93, 2: 0.85}


def grid_from_step(angle_step_deg: float) -> tuple[float, ...]:
    """The output angle grid for a table resolution of ``angle_step_deg``.

    Spans the paper's measured semicircle [0, 180] inclusive; the step must
    be in ``(0, 60]`` (coarser tables cannot interpolate meaningfully).
    """
    if not 0.0 < angle_step_deg <= 60.0:
        raise CalibrationError(
            f"angle_step_deg must be in (0, 60], got {angle_step_deg}"
        )
    return tuple(np.arange(0.0, 180.0 + 1e-9, float(angle_step_deg)))


@dataclass
class UniqConfig:
    """Pipeline configuration.

    Attributes
    ----------
    angle_grid_deg:
        Output table angle grid.
    enforce_gesture_check:
        When ``True`` (default), a degraded sweep raises
        :class:`repro.errors.CalibrationError` exactly like the real app
        asks the user to redo the gesture.
    deconv:
        Deconvolution strategy (see :mod:`repro.signals.deconvolve`):
        ``"auto"`` (default) starts on the rung the preflight sentinels
        recommend and climbs the ladder when the solve fails or the gesture
        residual blows up; pinning ``"inverse"``/``"wiener"``/``"tdls"``
        runs exactly that rung with no escalation.
    """

    angle_grid_deg: tuple[float, ...] = DEFAULT_ANGLE_GRID_DEG
    enforce_gesture_check: bool = True
    deconv: str = "auto"


@dataclass(frozen=True)
class PersonalizationResult:
    """Everything a personalization run produced.

    Attributes
    ----------
    table:
        The personal HRTF lookup table (near + far, left + right).
    fusion:
        The sensor-fusion output: learned head parameters, per-probe fused
        locations, residuals.
    measurements:
        The raw per-probe near-field HRIR measurements.
    trace:
        The finished ``uniq.personalize`` span tree when tracing was
        enabled during the run (see :mod:`repro.obs.trace`), else ``None``.
        Render it with :func:`repro.obs.report.render_span_tree`.
    quality:
        The run's :class:`repro.quality.QualityReport` — per-stage
        component scores, every sentinel flag raised, the salvage record,
        and the scalar confidence (see ``docs/ROBUSTNESS.md``).
    """

    table: HRTFTable
    fusion: FusionResult
    measurements: tuple[NearFieldMeasurement, ...]
    trace: Span | None = None
    quality: QualityReport | None = None

    @property
    def head_parameters(self) -> tuple[float, float, float]:
        """The learned head parameter vector ``E_opt = (a, b, c)``."""
        return self.fusion.head.parameters

    @property
    def confidence(self) -> float:
        """Scalar confidence in [0, 1]; 1.0 when no quality report exists."""
        return float(self.quality.confidence) if self.quality is not None else 1.0


def _read_only(array: np.ndarray) -> np.ndarray:
    """A read-only copy of ``array`` that owns its memory."""
    out = np.array(array)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class CaptureSolution:
    """What one capture determines, before any angle grid is chosen.

    :meth:`Uniq.solve` produces it and :meth:`Uniq.render` turns it into a
    table at any grid: a listener is personalized once and the model is
    rendered as often as needed.  Every array is a read-only copy that
    owns its memory, so a held solution pins no deconvolved channel and no
    render can change it.

    Attributes
    ----------
    fs:
        Sample rate of the capture.
    fusion:
        The kept sensor-fusion solve (head, fused probe positions).
    measurements:
        The per-probe near-field HRIR windows.
    flags / components:
        What the preflight, the deconvolution ladder and fusion reported,
        in emission order (components as ``(name, score)`` pairs).
    salvage:
        The salvage record as ``(key, value)`` pairs, list values held as
        tuples; :meth:`salvage_record` gives each report its own dict.
    """

    fs: int
    fusion: FusionResult
    measurements: tuple[NearFieldMeasurement, ...]
    flags: tuple[QualityFlag, ...]
    components: tuple[tuple[str, float], ...]
    salvage: tuple[tuple[str, Any], ...]

    @classmethod
    def of(
        cls,
        fs: int,
        fusion: FusionResult,
        measurements: list[NearFieldMeasurement],
        collector: QualityCollector,
        salvage: dict,
    ) -> CaptureSolution:
        arrays = {
            f.name: _read_only(getattr(fusion, f.name))
            for f in fields(fusion)
            if isinstance(getattr(fusion, f.name), np.ndarray)
        }
        return cls(
            fs=int(fs),
            fusion=replace(fusion, **arrays),
            measurements=tuple(
                replace(
                    m,
                    hrir=replace(
                        m.hrir,
                        left=_read_only(m.hrir.left),
                        right=_read_only(m.hrir.right),
                    ),
                )
                for m in measurements
            ),
            flags=collector.flags,
            components=tuple(collector.components.items()),
            salvage=tuple(
                (key, tuple(value) if isinstance(value, list) else value)
                for key, value in salvage.items()
            ),
        )

    @property
    def n_probes(self) -> int:
        return self.fusion.n_probes

    def salvage_record(self) -> dict:
        """A fresh copy of the salvage record, lists and all."""
        return {
            key: list(value) if isinstance(value, tuple) else value
            for key, value in self.salvage
        }


class Uniq:
    """The UNIQ personalization system.

    >>> from repro.simulation import VirtualSubject, MeasurementSession
    >>> session = MeasurementSession(VirtualSubject.random(1), seed=7).run()
    >>> result = Uniq().personalize(session)          # doctest: +SKIP
    >>> result.table.binauralize(sound, theta_deg=60)  # doctest: +SKIP
    """

    def __init__(self, config: UniqConfig | None = None) -> None:
        self.config = config if config is not None else UniqConfig()

    def _compensated(
        self,
        session: SessionData,
        system_response: tuple[np.ndarray, np.ndarray] | None,
    ) -> SessionData:
        """Equalize all probe recordings by the measured system response."""
        if system_response is None:
            return session
        freqs, gains = system_response
        probes = tuple(
            replace(
                probe,
                left=compensate_recording(probe.left, session.fs, freqs, gains),
                right=compensate_recording(probe.right, session.fs, freqs, gains),
            )
            for probe in session.probes
        )
        return replace(session, probes=probes)

    def personalize(
        self,
        session: SessionData,
        system_response: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> PersonalizationResult:
        """Run the full pipeline on one measurement session.

        Exactly ``render(solve(session, system_response))`` inside the
        ``uniq.personalize`` root span, whose tree the result carries.

        Parameters
        ----------
        session:
            The capture (recordings + IMU + probe signal).
        system_response:
            Optional ``(freqs, gains)`` from
            :func:`repro.core.compensation.estimate_system_response`; when
            given, all recordings are equalized first (Section 4.6).

        Raises
        ------
        SignalError
            If the capture preflight finds no usable probe at all.
        CalibrationError
            If fewer usable probes survive the preflight than fusion needs,
            or the gesture-quality check fails (and is enforced) even after
            the salvage retry.
        """
        root = self.personalize_span(session.n_probes, session.fs)
        with root:
            result = self.render(self.solve(session, system_response))
        return replace(result, trace=root if isinstance(root, Span) else None)

    def personalize_span(self, n_probes: int, fs: int):
        """Count one run and open its ``uniq.personalize`` root span.

        :meth:`personalize` runs inside it; a caller that solves and
        renders separately opens it around both for the same trace.
        """
        obs_metrics.counter("uniq.personalize.runs").inc()
        return obs_trace.span(
            "uniq.personalize",
            n_probes=n_probes,
            n_grid=len(self.config.angle_grid_deg),
            fs=fs,
        )

    def solve(
        self,
        session: SessionData,
        system_response: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> CaptureSolution:
        """Everything the capture determines, before any angle grid.

        Preflight, the deconvolution ladder with fusion and salvage, and
        the per-probe near-field HRIR extraction (paper Sections 4.1 and
        4.2).  The configured angle grid is not read.  Raises as
        :meth:`personalize` does.
        """
        collector = QualityCollector()
        if system_response is not None:
            with obs_trace.span("uniq.compensate", n_probes=session.n_probes):
                session = self._compensated(session, system_response)

        # One deconvolution cache for the whole run, built after
        # compensation so cached impulses reflect the equalized
        # recordings: the preflight sentinels, fusion's delay extraction
        # and the interpolator's HRIR extraction all read through it.
        bank = ProbeChannelBank(session.probe_signal)
        health = preflight(session, collector, bank)
        if health.n_usable == 0:
            raise SignalError(
                "capture preflight found no usable probe: "
                f"{health.n_dead} of {session.n_probes} recordings are "
                "dead/zeroed"
            )
        if health.n_usable < 5:
            raise CalibrationError(
                f"only {health.n_usable} of {session.n_probes} probes "
                "survived the capture preflight (need >= 5); redo the sweep"
            )
        self._start_rung(bank, session, health)
        weights = health.weights
        # All-healthy captures must stay bit-identical to pre-quality
        # runs, so the weighted solve only activates on degraded input.
        weights_arg = None if bool(np.all(weights == 1.0)) else weights
        salvage: dict = {
            "downweighted": weights_arg is not None,
            "suspect_probes": [
                p.index for p in health.probes if p.verdict == "suspect"
            ],
            "dropped_probes": [
                p.index for p in health.probes if p.verdict == "dead"
            ],
            "retried": False,
        }
        fusion, method, rung_path = self._solve_with_ladder(
            session, bank, weights_arg, health, collector, salvage
        )
        rung = rung_of(method)
        salvage["deconv_method"] = method
        salvage["deconv_rung"] = rung
        salvage["deconv_path"] = rung_path
        if rung > 0 and self.config.deconv == "auto":
            # Rung-aware confidence penalty; the sentinel/escalation
            # flags that put the run above rung 0 are already recorded.
            collector.component("pipeline.deconv_rung", _RUNG_PENALTY[rung])

        measurements = NearFieldInterpolator(session.fs).extract_measurements(
            session, fusion, bank=bank
        )
        return CaptureSolution.of(
            session.fs, fusion, measurements, collector, salvage
        )

    def render(self, solution: CaptureSolution) -> PersonalizationResult:
        """The table and quality report of a solved capture at this grid.

        Near-field interpolation onto the configured angle grid, near-far
        conversion (paper Sections 4.2 and 4.3), and the report that joins
        these stages' scores to the solve's.  Reads nothing but
        ``solution`` and the grid, so one solution renders at any number
        of grids.
        """
        collector = QualityCollector.resumed(solution.flags, solution.components)
        measurements = list(solution.measurements)
        head = solution.fusion.head
        grid = np.asarray(self.config.angle_grid_deg, dtype=float)
        near_entries = NearFieldInterpolator(solution.fs).build_grid(
            measurements, head, grid, quality=collector
        )
        far_entries = NearFarConverter(fs=solution.fs).convert(
            measurements, head, grid, quality=collector
        )
        table = HRTFTable(
            angles_deg=grid, near=tuple(near_entries), far=tuple(far_entries)
        )
        report = QualityReport(
            confidence=combine_components(collector.components),
            components=collector.components,
            flags=collector.flags,
            salvage=solution.salvage_record(),
        )
        obs_metrics.gauge("quality.confidence").set(report.confidence)
        obs_metrics.histogram("quality.confidence_dist").observe(report.confidence)
        obs_metrics.counter("uniq.personalize.completed").inc()
        _log.info(
            kv(
                "uniq.personalize.done",
                n_probes=solution.n_probes,
                n_angles=int(grid.shape[0]),
                residual_deg=solution.fusion.residual_deg,
                confidence=report.confidence,
                n_flags=report.n_flags,
            )
        )
        return PersonalizationResult(
            table=table,
            fusion=solution.fusion,
            measurements=solution.measurements,
            quality=report,
        )

    def _start_rung(
        self, bank: ProbeChannelBank, session: SessionData, health: CaptureHealth
    ) -> None:
        """Move the bank from rung 0, where preflight read, to the starting rung.

        Clean captures in ``auto`` mode (and the pinned ``"inverse"``
        strategy) stay on rung 0, so their channel estimates stay
        bit-identical and fusion reuses the preflight reads.  When the
        preflight noise sentinel fired, the regularizer is matched to the
        measured noise floor instead of the fixed clean-room default.
        """
        auto = self.config.deconv == "auto"
        method = health.recommended_method if auto else self.config.deconv
        if method == "inverse":
            return
        regularization = None
        if auto and health.components.get("preflight.noise", 1.0) < 1.0:
            regularization = noise_regularization(
                session.probe_signal,
                session.probes[0].left.shape[0],
                health.noise_floor,
            )
        bank.set_method(
            method,
            regularization=regularization,
            noise_floor=health.noise_floor or None,
        )

    def _solve_with_ladder(
        self,
        session: SessionData,
        bank: ProbeChannelBank,
        weights_arg: np.ndarray | None,
        health: CaptureHealth,
        collector: QualityCollector,
        salvage: dict,
    ) -> tuple[FusionResult, str, list[str]]:
        """Solve, climbing the deconvolution ladder on failure.

        Each rung gets the full pre-ladder treatment (solve, then one
        salvage retry with suspects dropped).  A rung whose solve raises
        :class:`repro.errors.CalibrationError` — or succeeds with a gesture
        residual past :data:`_ESCALATE_RESIDUAL_DEG` — escalates to the
        next method in ``auto`` mode until the top rung; the best successful
        fusion (smallest residual) across rungs is the one kept, so a
        climb can never make a capture worse.  The bank is left on the
        kept fusion's rung.  Raises the last rung's error when no rung
        produced a usable fusion.
        """
        method = bank.method
        rung_path = [method]
        auto = self.config.deconv == "auto"
        best: tuple[FusionResult, str] | None = None
        while True:
            fusion: FusionResult | None = None
            failure: CalibrationError | None = None
            try:
                fusion = self._solve(session, bank, weights_arg, collector)
            except CalibrationError as error:
                try:
                    fusion = self._salvage_retry(
                        session, bank, health, collector, salvage, error
                    )
                except CalibrationError as retry_error:
                    failure = retry_error
            if fusion is not None:
                if best is None or fusion.residual_deg < best[0].residual_deg:
                    best = (fusion, method)
                if fusion.residual_deg < _ESCALATE_RESIDUAL_DEG:
                    break
            next_method = ladder_next(method) if auto else None
            if next_method is None:
                if best is not None:
                    break
                assert failure is not None
                raise failure
            reason = (
                str(failure)
                if failure is not None
                else (
                    f"gesture residual {fusion.residual_deg:.1f} deg >= "
                    f"{_ESCALATE_RESIDUAL_DEG:.0f} deg"
                )
            )
            self._climb(bank, method, next_method, collector, reason, health)
            method = next_method
            rung_path.append(method)
        fusion, method = best
        # HRIRs are windowed from the kept rung's channels, which the
        # per-method cache keys still hold.
        bank.set_method(method)
        return fusion, method, rung_path

    def _climb(
        self,
        bank: ProbeChannelBank,
        method: str,
        next_method: str,
        collector: QualityCollector,
        reason: str,
        health: CaptureHealth,
    ) -> None:
        """Record and perform one ladder climb on the shared bank."""
        collector.flag(
            "pipeline",
            "deconv_escalated",
            "warn",
            f"deconvolution ladder climb {method} -> {next_method}: {reason}",
            value=float(rung_of(next_method)),
        )
        obs_metrics.counter("quality.deconv_escalations").inc()
        _log.warning(
            kv(
                "uniq.deconv_escalated",
                from_method=method,
                to_method=next_method,
                reason=reason,
            )
        )
        bank.set_method(next_method, noise_floor=health.noise_floor or None)

    def _solve(
        self,
        session: SessionData,
        bank: ProbeChannelBank,
        weights: np.ndarray | None,
        collector: QualityCollector,
    ) -> FusionResult:
        """One fusion solve + gesture check under the given probe weights."""
        fusion = DiffractionAwareSensorFusion().run(
            session, bank=bank, probe_weights=weights, quality=collector
        )
        if self.config.enforce_gesture_check:
            with obs_trace.span("uniq.gesture_check"):
                try:
                    check_gesture_quality(fusion)
                except CalibrationError as error:
                    obs_metrics.counter("uniq.gesture_rejections").inc()
                    _log.warning(kv("uniq.gesture_rejected", reason=str(error)))
                    raise
        return fusion

    def _salvage_retry(
        self,
        session: SessionData,
        bank: ProbeChannelBank,
        health: CaptureHealth,
        collector: QualityCollector,
        salvage: dict,
        error: CalibrationError,
    ) -> FusionResult:
        """Retry a rejected solve once with all suspect probes dropped.

        Down-weighted suspects can still drag the optimizer off a good
        head fit; when enough healthy probes remain, dropping the suspects
        entirely and re-solving often recovers a usable gesture.  If
        salvage is impossible (too few healthy probes) or pointless
        (nothing was suspect), the original error propagates.
        """
        weights = health.weights
        retry_weights = np.where(weights >= 1.0, 1.0, 0.0)
        n_healthy = int(np.count_nonzero(retry_weights))
        if not salvage["suspect_probes"] or n_healthy < 5:
            raise error
        collector.flag(
            "pipeline",
            "salvage_retry",
            "warn",
            f"solve rejected ({error}); retrying once with "
            f"{len(salvage['suspect_probes'])} suspect probes dropped "
            f"({n_healthy} healthy probes remain)",
            value=float(len(salvage["suspect_probes"])),
        )
        obs_metrics.counter("quality.salvage_retries").inc()
        _log.warning(
            kv(
                "uniq.salvage_retry",
                reason=str(error),
                n_dropped=len(salvage["suspect_probes"]),
                n_healthy=n_healthy,
            )
        )
        salvage["retried"] = True
        salvage["dropped_probes"] = sorted(
            set(salvage["dropped_probes"]) | set(salvage["suspect_probes"])
        )
        with obs_trace.span("uniq.salvage_retry", n_active=n_healthy):
            return self._solve(session, bank, retry_weights, collector)


def capture_config(
    angle_step_deg: float = 5.0,
    enforce_gesture_check: bool = True,
    deconv: str = "auto",
) -> UniqConfig:
    """The configuration a one-job personalization runs under."""
    return UniqConfig(
        angle_grid_deg=grid_from_step(angle_step_deg),
        enforce_gesture_check=enforce_gesture_check,
        deconv=deconv,
    )


def personalize_capture(
    subject_seed: int,
    session_seed: int = 0,
    probe_interval_s: float = 0.4,
    angle_step_deg: float = 5.0,
    enforce_gesture_check: bool = True,
    session: SessionData | None = None,
    deconv: str = "auto",
) -> tuple[SessionData, PersonalizationResult]:
    """Simulate (or take) one capture and personalize it — the one-job unit.

    This is the seeded subject→session→table path the CLI, the batch
    server's workers, and the golden-trace fixtures all share: everything
    downstream of ``(subject_seed, session_seed, probe_interval_s,
    angle_step_deg)`` is deterministic, so the same arguments produce a
    bit-identical :class:`PersonalizationResult` in any process.

    Pass ``session`` to skip the simulation and personalize an existing
    capture (e.g. one loaded via :func:`repro.datasets.load_session`);
    ``subject_seed``/``session_seed``/``probe_interval_s`` are ignored then.
    """
    if session is None:
        subject = VirtualSubject.random(int(subject_seed))
        session = MeasurementSession(
            subject,
            seed=int(session_seed),
            probe_interval_s=float(probe_interval_s),
        ).run()
    config = capture_config(angle_step_deg, enforce_gesture_check, deconv)
    return session, Uniq(config).personalize(session)
