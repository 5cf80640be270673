"""Diffraction-Aware Sensor Fusion (DSF): jointly solve head + phone location.

Paper Section 4.1.  Neither sensor solves localization alone: the gyroscope
gives the phone's polar angle (because the screen faces the user) but no
distance and with drift; the binaural first-tap delays give location *only
if* the head parameters ``E = (a, b, c)`` are known.  The fusion algorithm:

1. integrate the gyro into orientation angles ``alpha_i`` at each probe;
2. for a candidate ``E``, invert the measured delay pairs into candidate
   locations (:class:`repro.core.localize.DelayMap`), disambiguating
   front/back with ``alpha_i``, yielding acoustic angles ``theta_i(E)``;
3. find ``E_opt = argmin_E sum_i (alpha_i - theta_i(E))^2``   (Eq. 2);
4. output fused angles ``phi_i = (theta_i(E_opt) + alpha_i) / 2`` and the
   acoustically derived radii                                   (Eq. 3).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import optimize

from repro.constants import CHANNEL_WINDOW_S, SPEED_OF_SOUND
from repro.core import mapstore
from repro.errors import ConvergenceError, SignalError
from repro.geometry.head import HeadGeometry
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.logging import get_logger, kv
from repro.quality.flags import QualityCollector
from repro.quality.report import degradation_score, fitness_score
from repro.simulation.imu import IMUTrace, integrate_gyro
from repro.simulation.session import SessionData
from repro.signals.channel import (
    ProbeChannelBank,
    first_tap_index,
    refine_tap_position,
)
from repro.core.localize import DelayMap, cached_delay_map

#: Squared-error penalty (deg^2 contribution via this delta) for a probe the
#: candidate head cannot explain at all.
_UNSOLVED_PENALTY_DEG = 45.0

#: Head-axis search bounds (m): generous anthropometric range.
_BOUNDS = {"a": (0.065, 0.115), "b": (0.085, 0.145), "c": (0.072, 0.125)}

#: Co-estimated gyro bias guard (deg/s): the cost function rejects candidate
#: vertices beyond this, and the returned estimate is clipped to match.
MAX_GYRO_BIAS_DPS = 3.0

#: Sentinel thresholds (docs/ROBUSTNESS.md).  Clean simulated captures land
#: at 3–5 deg residual with every probe solved and |bias| well under
#: 1.5 deg/s; the gesture check rejects at 12 deg residual, so the ramp
#: keeps degrading past that for runs with the check disabled.
_RESIDUAL_GOOD_DEG = 6.0
_RESIDUAL_BAD_DEG = 20.0
_SOLVED_GOOD = 0.85
_SOLVED_BAD = 0.35
_BIAS_GOOD_DPS = 1.5
_BIAS_BAD_DPS = 4.5

#: Nelder-Mead convergence tolerances and iteration cap of the head search.
_SEARCH_TOLERANCES = {"xatol": 2e-4, "fatol": 0.05}
MAX_ITERATIONS = 120

#: Head boundary resolution inside the head search: coarse is fast, and the
#: final pass re-localizes at the head's full resolution.
FUSION_BOUNDARY_SAMPLES = 240

#: ``(min, max, count)`` polar grids (radii in m, angles in deg) of the
#: DelayMaps the head search inverts against, and the finer grid of the
#: final localization, which is read only after the search.
MAP_RADII = (0.16, 1.2, 24)
MAP_THETAS = (-40.0, 220.0, 88)
FINAL_MAP_RADII = (0.16, 1.2, 48)
FINAL_MAP_THETAS = (-40.0, 220.0, 261)

#: The instructed gesture start orientation (deg): the app tells the user
#: to begin at the nose.
INITIAL_ANGLE_DEG = 0.0

_log = get_logger("core.fusion")


@dataclass(frozen=True)
class _SearchOutcome:
    """What one Nelder-Mead head search returned; all the map store keeps."""

    x: np.ndarray
    nit: int
    fun: float
    success: bool

    @classmethod
    def of(cls, x, nit, fun, success) -> _SearchOutcome:
        x = np.array(x, dtype=float)
        x.flags.writeable = False
        return cls(x=x, nit=int(nit), fun=float(fun), success=bool(success))


def _exact(value) -> tuple | str:
    """A hashable form of one search input that is equal only bit for bit."""
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    # repr round-trips floats exactly (and tells 0.0 from -0.0).
    return repr(value)


@dataclass(frozen=True)
class FusionResult:
    """Output of diffraction-aware sensor fusion for one session.

    Attributes
    ----------
    head:
        The optimized head geometry ``E_opt``.
    t_left, t_right:
        Measured absolute first-tap delays per probe (s).
    imu_angles_deg:
        Gyro-integrated orientation ``alpha_i`` at each probe.
    acoustic_angles_deg:
        ``theta_i(E_opt)`` from delay inversion (nan where unsolvable).
    fused_angles_deg:
        Equation (3) angles ``(theta_i + alpha_i) / 2`` (falls back to
        ``alpha_i`` where acoustics failed).
    radii_m:
        Acoustically derived phone distances (median-filled where failed).
    residual_deg:
        RMS of ``alpha_i - theta_i(E_opt)`` over solved probes — the
        optimizer's final misfit, also used by the gesture-quality check.
    solved:
        Boolean mask of probes the delay inversion explained.
    active:
        Boolean mask of probes the solve actually used, or ``None`` when
        every probe participated.  Probes down-weighted to zero by the
        capture preflight (see :mod:`repro.quality.preflight`) are
        inactive: their delays are never extracted and downstream stages
        skip them.
    """

    head: HeadGeometry
    t_left: np.ndarray
    t_right: np.ndarray
    imu_angles_deg: np.ndarray
    acoustic_angles_deg: np.ndarray
    fused_angles_deg: np.ndarray
    radii_m: np.ndarray
    residual_deg: float
    solved: np.ndarray
    gyro_bias_dps: float = 0.0
    active: np.ndarray | None = None

    @property
    def n_probes(self) -> int:
        return int(self.fused_angles_deg.shape[0])

    @property
    def median_radius_m(self) -> float:
        return float(np.median(self.radii_m[self.solved])) if self.solved.any() else float("nan")


@dataclass
class DiffractionAwareSensorFusion:
    """Configuration + execution of the DSF stage.

    Parameters
    ----------
    delay_model:
        ``"diffraction"`` (the paper's model) or ``"euclidean"``
        (straight-line delays through the head, the ablation baseline).
    """

    delay_model: str = "diffraction"

    def extract_probe_delays(
        self,
        session: SessionData,
        bank: ProbeChannelBank | None = None,
        active: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-probe absolute first-tap delays (s) at the (left, right) ears.

        Deconvolves each probe recording with the known played signal and
        picks the first significant channel tap with sub-sample refinement.
        When the pipeline passes its session ``bank``, the deconvolutions
        are shared with the interpolation stage; standalone calls build a
        private bank (the shared ``rfft(source)`` still pays off within the
        call).

        Probes excluded by ``active`` (salvaged-out dead or corrupted
        channels) are never deconvolved; their delays come back NaN.
        """
        if bank is None:
            bank = ProbeChannelBank(session.probe_signal)
        n_window = int(CHANNEL_WINDOW_S * session.fs)
        t_left = np.zeros(session.n_probes)
        t_right = np.zeros(session.n_probes)
        for i, probe in enumerate(session.probes):
            if active is not None and not active[i]:
                t_left[i] = np.nan
                t_right[i] = np.nan
                continue
            for attr, out in (("left", t_left), ("right", t_right)):
                channel = bank.channel((i, attr), getattr(probe, attr), n_window)
                tap = refine_tap_position(channel, first_tap_index(channel))
                out[i] = tap / session.fs
        return t_left, t_right

    def imu_angles(self, session: SessionData) -> np.ndarray:
        """Gyro-integrated orientation ``alpha_i`` at each probe time."""
        trace: IMUTrace = session.imu
        angles = integrate_gyro(trace, INITIAL_ANGLE_DEG)
        probe_times = np.array([p.time for p in session.probes])
        return np.interp(probe_times, trace.times, angles)

    def _localize_all(
        self,
        delay_map: DelayMap,
        t_left: np.ndarray,
        t_right: np.ndarray,
        alphas: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(theta_i, r_i, solved) for every probe under one delay map.

        One batched inversion over the whole capture: on the search's
        coarse maps each optimizer cost evaluation is a single array pass
        over every probe (see :meth:`repro.core.localize.DelayMap.locate_batch`).
        """
        return delay_map.locate_batch(t_left, t_right, alphas)

    def _debiased(
        self, alphas: np.ndarray, elapsed: np.ndarray, bias_dps: float
    ) -> np.ndarray:
        """IMU angles with a candidate constant gyro-bias drift removed."""
        return alphas - bias_dps * elapsed

    def _cost(
        self,
        params: np.ndarray,
        t_left: np.ndarray,
        t_right: np.ndarray,
        alphas: np.ndarray,
        elapsed: np.ndarray,
        weights: np.ndarray | None = None,
    ) -> float:
        obs_metrics.counter("fusion.cost_evaluations").inc()
        a, b, c = params[:3]
        bias = float(params[3])
        for value, (lo, hi) in zip(params[:3], _BOUNDS.values()):
            if not lo <= value <= hi:
                return 1e6 * (1.0 + float(np.sum(np.abs(params))))
        if abs(bias) > MAX_GYRO_BIAS_DPS:
            return 1e6 * (1.0 + abs(bias))
        delay_map = cached_delay_map(
            (float(a), float(b), float(c)),
            FUSION_BOUNDARY_SAMPLES,
            MAP_RADII,
            MAP_THETAS,
            model=self.delay_model,
            # Coarse candidates rank candidate heads just as well; the exact
            # grazing-zone re-solve is saved for the final localization.
            refine=False,
        )
        corrected = self._debiased(alphas, elapsed, bias)
        thetas, _, solved = self._localize_all(delay_map, t_left, t_right, corrected)
        deltas = np.where(solved, corrected - thetas, _UNSOLVED_PENALTY_DEG)
        if weights is None:
            return float(np.mean(deltas**2))
        # Salvage path: suspect probes vote with reduced weight, dropped
        # probes (weight 0, delays NaN) not at all.
        keep = weights > 0.0
        return float(
            np.sum(weights[keep] * deltas[keep] ** 2) / np.sum(weights[keep])
        )

    def _search_key(
        self, search_args: tuple, x0: np.ndarray, simplex: np.ndarray
    ) -> tuple:
        """Store key of one head search: the exact bytes of all it reads.

        That is the class, by name so the key reads the same in every
        process (a subclass may override the cost), the cost arguments
        (delays, IMU angles, probe times and weights), the start simplex,
        the delay model, the module constants the search reads and the
        optimizer tolerances.  Anything else (job ids, paths, the final
        grid, the requested angle grid) cannot change the search, so it
        does not key it.
        """
        cls = type(self)
        return (
            f"{cls.__module__}.{cls.__qualname__}",
            tuple(_exact(arg) for arg in search_args),
            _exact(x0),
            _exact(simplex),
            _exact(self.delay_model),
            _exact(FUSION_BOUNDARY_SAMPLES),
            _exact(MAP_RADII),
            _exact(MAP_THETAS),
            _exact(MAX_ITERATIONS),
            _exact(SPEED_OF_SOUND),
            _exact(_BOUNDS),
            _exact(MAX_GYRO_BIAS_DPS),
            _exact(_UNSOLVED_PENALTY_DEG),
            _exact(_SEARCH_TOLERANCES),
        )

    def run(
        self,
        session: SessionData,
        bank: ProbeChannelBank | None = None,
        probe_weights: np.ndarray | None = None,
        quality: QualityCollector | None = None,
    ) -> FusionResult:
        """Execute sensor fusion on one measurement session.

        ``bank`` is the session's shared deconvolution cache; the pipeline
        passes one so the interpolation stage reuses these channels.

        ``probe_weights`` (from :func:`repro.quality.preflight.preflight`)
        down-weights suspect probes in the optimizer cost and drops
        weight-0 probes from the solve entirely.  ``None`` — or all-ones —
        runs the exact unweighted code path, so clean captures stay
        bit-identical to runs without a preflight.  ``quality`` collects
        the stage's sentinel components and flags.
        """
        weights = None
        if probe_weights is not None:
            weights = np.asarray(probe_weights, dtype=float)
            if weights.shape != (session.n_probes,):
                raise SignalError(
                    f"probe_weights must have shape ({session.n_probes},), "
                    f"got {weights.shape}"
                )
            if np.all(weights == 1.0):
                weights = None
        active = weights > 0.0 if weights is not None else None
        n_active = int(active.sum()) if active is not None else session.n_probes
        if n_active < 5:
            raise SignalError(
                f"need >= 5 active probes for fusion, got {n_active}"
                f" (of {session.n_probes})"
            )
        obs_metrics.counter("fusion.runs").inc()
        with obs_trace.span(
            "fusion.run",
            n_probes=session.n_probes,
            n_active=n_active,
            grid=f"{MAP_RADII[2]}x{MAP_THETAS[2]}",
        ) as run_span:
            with obs_trace.span("fusion.extract_delays", n_probes=session.n_probes):
                t_left, t_right = self.extract_probe_delays(session, bank, active)
            with obs_trace.span("fusion.imu_angles"):
                alphas = self.imu_angles(session)
            probe_times = np.array([p.time for p in session.probes])
            elapsed = probe_times - probe_times[0]

            # The gyro's constant rate bias shows up as a linear drift of
            # alpha against the (drift-free) acoustic angles, so it is
            # observable from the same residual and co-estimated with E.
            x0 = np.append([np.mean(bounds) for bounds in _BOUNDS.values()], 0.0)
            simplex_step = np.zeros((4, 4))
            simplex_step[:3, :3] = np.eye(3) * 0.008
            simplex_step[3, 3] = 0.5
            simplex = x0 + np.vstack([np.zeros(x0.shape[0]), simplex_step])
            search_args = (t_left, t_right, alphas, elapsed, weights)
            with obs_trace.span("fusion.optimize") as opt_span:
                result = None
                store = mapstore.active_store()
                if store is not None:
                    disk_key = self._search_key(search_args, x0, simplex)
                    stored = store.load(disk_key, x0.shape[0])
                    if stored is not None:
                        result = _SearchOutcome.of(*stored)
                # A replayed search is not counted as work: fusion.iterations
                # and fusion.cost_evaluations stay put.
                cost_evaluations = 0
                if result is None:
                    evals = obs_metrics.counter("fusion.cost_evaluations")
                    evals_before = evals.value
                    raw = optimize.minimize(
                        self._cost,
                        x0,
                        args=search_args,
                        method="Nelder-Mead",
                        options={
                            "maxiter": MAX_ITERATIONS,
                            **_SEARCH_TOLERANCES,
                            "initial_simplex": simplex,
                        },
                    )
                    result = _SearchOutcome.of(
                        raw.x, getattr(raw, "nit", 0), raw.fun, raw.success
                    )
                    if store is not None:
                        store.save(
                            disk_key, result.x, result.nit, result.fun, result.success
                        )
                    obs_metrics.counter("fusion.iterations").inc(result.nit)
                    cost_evaluations = int(evals.value - evals_before)
                iterations = result.nit
                opt_span.update(
                    iterations=iterations,
                    cost_evaluations=cost_evaluations,
                    final_cost=result.fun,
                    converged=result.success,
                )
            if not np.all(np.isfinite(result.x)):
                raise ConvergenceError(f"head parameter search diverged: {result}")
            a, b, c = np.clip(
                result.x[:3],
                [lo for lo, _ in _BOUNDS.values()],
                [hi for _, hi in _BOUNDS.values()],
            )
            bias = float(np.clip(result.x[3], -MAX_GYRO_BIAS_DPS, MAX_GYRO_BIAS_DPS))
            alphas = self._debiased(alphas, elapsed, bias)
            head = HeadGeometry(a=float(a), b=float(b), c=float(c))

            with obs_trace.span("fusion.final_localize") as final_span:
                # Final pass: full-resolution boundary and a fine inversion
                # grid.
                final_map = cached_delay_map(
                    head.parameters,
                    head.n_boundary,
                    FINAL_MAP_RADII,
                    FINAL_MAP_THETAS,
                    model=self.delay_model,
                )
                thetas, radii, solved = self._localize_all(
                    final_map, t_left, t_right, alphas
                )
                final_span.update(
                    n_solved=int(solved.sum()),
                    n_unsolved=int((~solved).sum()),
                )
            fused = np.where(solved, 0.5 * (thetas + alphas), alphas)
            if solved.any():
                radii = np.where(solved, radii, np.median(radii[solved]))
                residual = float(
                    np.sqrt(np.mean((alphas[solved] - thetas[solved]) ** 2))
                )
            else:
                # Nothing localized: radii would stay all-NaN and poison any
                # caller that ignores residual_deg=inf.  Fall back to the
                # map's mid-radius so radii_m is always finite.
                radii = np.full(
                    radii.shape,
                    float(0.5 * (final_map.radii[0] + final_map.radii[-1])),
                )
                residual = float("inf")

            obs_metrics.counter("fusion.probes_solved").inc(int(solved.sum()))
            obs_metrics.counter("fusion.probes_unsolved").inc(int((~solved).sum()))
            obs_metrics.gauge("fusion.residual_deg").set(residual)
            obs_metrics.gauge("fusion.gyro_bias_dps").set(bias)
            obs_metrics.histogram("fusion.residual_deg_dist").observe(residual)
            # Head-parameter deltas from the anthropometric prior (the
            # optimizer start), the per-run signal a drifting population
            # of sessions would show first.
            run_span.update(
                residual_deg=residual,
                head_a_m=float(a),
                head_b_m=float(b),
                head_c_m=float(c),
                head_delta_mm=[
                    float((value - np.mean(bounds)) * 1e3)
                    for value, bounds in zip((a, b, c), _BOUNDS.values())
                ],
                gyro_bias_dps=bias,
            )
            _log.info(
                kv(
                    "fusion.done",
                    residual_deg=residual,
                    iterations=iterations,
                    solved=int(solved.sum()),
                    n_probes=session.n_probes,
                    gyro_bias_dps=bias,
                )
            )
            if quality is not None:
                self._sentinels(quality, residual, solved, active, n_active, bias)
        return FusionResult(
            head=head,
            t_left=t_left,
            t_right=t_right,
            imu_angles_deg=alphas,
            acoustic_angles_deg=thetas,
            fused_angles_deg=fused,
            radii_m=radii,
            residual_deg=residual,
            solved=solved,
            gyro_bias_dps=bias,
            active=active,
        )

    def _sentinels(
        self,
        quality: QualityCollector,
        residual: float,
        solved: np.ndarray,
        active: np.ndarray | None,
        n_active: int,
        bias: float,
    ) -> None:
        """Compare the solve against its calibrated envelope and flag drift."""
        quality.component(
            "fusion.residual",
            degradation_score(residual, _RESIDUAL_GOOD_DEG, _RESIDUAL_BAD_DEG),
        )
        if residual > _RESIDUAL_GOOD_DEG:
            quality.flag(
                "fusion",
                "residual_high",
                "warn",
                f"fusion residual {residual:.1f} deg exceeds the clean "
                f"envelope ({_RESIDUAL_GOOD_DEG:.1f} deg)",
                value=residual,
                threshold=_RESIDUAL_GOOD_DEG,
            )
        n_solved = int(solved.sum()) if active is None else int(solved[active].sum())
        solved_fraction = n_solved / n_active if n_active else 0.0
        quality.component(
            "fusion.solved",
            fitness_score(solved_fraction, _SOLVED_BAD, _SOLVED_GOOD),
        )
        if solved_fraction < _SOLVED_GOOD:
            quality.flag(
                "fusion",
                "low_solved",
                "warn",
                f"delay inversion explained only {solved_fraction:.0%} of "
                f"active probes (< {_SOLVED_GOOD:.0%})",
                value=solved_fraction,
                threshold=_SOLVED_GOOD,
            )
        quality.component(
            "fusion.bias_margin",
            degradation_score(abs(bias), _BIAS_GOOD_DPS, _BIAS_BAD_DPS),
        )
        if abs(bias) >= 0.999 * MAX_GYRO_BIAS_DPS:
            quality.flag(
                "fusion",
                "gyro_bias_clipped",
                "error",
                f"co-estimated gyro bias pinned at the ±{MAX_GYRO_BIAS_DPS} "
                "deg/s guard; the true drift is likely larger",
                value=bias,
                threshold=MAX_GYRO_BIAS_DPS,
            )
        elif abs(bias) > _BIAS_GOOD_DPS:
            quality.flag(
                "fusion",
                "gyro_bias_high",
                "warn",
                f"co-estimated gyro bias {bias:.2f} deg/s exceeds the clean "
                f"envelope ({_BIAS_GOOD_DPS} deg/s)",
                value=bias,
                threshold=_BIAS_GOOD_DPS,
            )
