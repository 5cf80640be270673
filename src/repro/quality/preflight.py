"""Capture preflight: inspect a ``SessionData`` *before* any solve.

The paper's only capture defense (Section 4.6 gesture checks) runs *after*
the expensive fusion solve and is binary — redo the sweep or trust the
result.  The preflight runs first, costs milliseconds, and grades every
probe and the IMU trace individually:

- **per-probe audio**: SNR against a robust noise-floor estimate, hard-clip
  ratio, dead/zeroed channels;
- **coverage**: the gyro-integrated orientation at each usable probe — the
  only angle estimate legal before fusion — checked for span and gaps
  against the requested output grid;
- **gyro**: rail saturation (samples pinned at the extreme rate), sample
  dropout (timestamp gaps), bias jumps between windows, and mic/IMU clock
  skew (IMU span vs probe-emission span).

The result is a :class:`CaptureHealth` with a per-probe verdict and weight
vector the fusion/interpolation stages consume for probe salvage, plus
``preflight.*`` confidence components and typed flags.

Threshold calibration (see ``docs/ROBUSTNESS.md``): the ``good`` side of
every score sits outside the envelope measured over clean simulated
captures (20 seeded subjects x sessions, default hardware/room/noise
models), the ``bad`` side at the point where the downstream solve
empirically breaks; clean captures must score 1.0 on every component.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.constants import ROOM_REFLECTION_CUTOFF_S
from repro.errors import SignalError
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.quality.flags import QualityCollector
from repro.signals.channel import ProbeChannelBank, find_taps, first_tap_index
# Unused: traced perfbench runs wrap it here to count one-shot deconvolutions.
from repro.signals.channel import estimate_channel  # noqa: F401
from repro.signals.deconvolve import _MAD_SIGMA, estimate_noise_floor
from repro.signals.spectrum import band_energy_ratio
from repro.quality.report import (
    combine_components,
    degradation_score,
    fitness_score,
)
from repro.simulation.imu import integrate_gyro
from repro.simulation.session import SessionData

__all__ = ["CaptureHealth", "PreflightThresholds", "ProbeHealth", "preflight"]


@dataclass(frozen=True)
class PreflightThresholds:
    """Calibrated preflight thresholds (defaults per module docstring)."""

    #: An ear channel with RMS below this is dead (zeroed mic / lost link).
    dead_rms: float = 1e-7
    #: Probe SNR (dB): full score above ``snr_good``, zero at ``snr_bad``,
    #: probe down-weighted below ``snr_suspect``.  Clean captures span a
    #: wide range — ~28-31 dB median on the default arm trajectory, but
    #: only ~9-13 dB on a far constant-radius circular sweep (quieter
    #: signal, same mic noise) — so the flat region extends down to the
    #: quietest capture the solve is known to handle cleanly.
    snr_good: float = 8.0
    snr_suspect: float = 5.0
    snr_bad: float = 2.0
    #: Fraction of samples within 1.5 % of the peak magnitude: a hard-clipped
    #: recording piles samples onto the rails.  Clean chirp recordings sit
    #: around 1e-3.
    clip_ratio_good: float = 5e-3
    clip_ratio_suspect: float = 3e-2
    clip_ratio_bad: float = 0.25
    #: Weight assigned to suspect (clipped / low-SNR) probes on the first
    #: solve attempt; the salvage retry drops them to 0.
    suspect_weight: float = 0.25
    #: Coverage of the sweep semicircle by usable probes (IMU-estimated
    #: angles): largest angular gap tolerated before flagging, and the gap
    #: at which interpolation is considered unsupported.
    max_gap_good_deg: float = 18.0
    max_gap_bad_deg: float = 60.0
    #: Minimum usable probes: fusion needs 5; below ``count_good`` the
    #: coverage score starts dropping.
    min_probes: int = 5
    count_good: int = 12
    #: Gyro rail saturation: fraction of samples pinned within 0.1 % of the
    #: extreme measured rate.
    saturation_good: float = 5e-3
    saturation_bad: float = 0.2
    #: Gyro sample dropout: max inter-sample gap as a multiple of the median.
    dropout_ratio_good: float = 4.0
    dropout_ratio_bad: float = 40.0
    #: Gyro bias jump/drift: spread of windowed median rates beyond what the
    #: sweep's own dynamics produce (deg/s).
    bias_jump_good_dps: float = 8.0
    bias_jump_bad_dps: float = 30.0
    #: Mic/IMU clock skew: |IMU span / probe span - 1| beyond the slack one
    #: probe interval legitimately produces.
    clock_skew_good: float = 0.08
    clock_skew_bad: float = 0.5
    #: Reverberation: late-to-early energy ratio of the deconvolved channel
    #: (50 ms window; "early" = the paper's 2.5 ms head/pinna window after
    #: the first tap), worst case over the sampled probes.  The default
    #: living-room simulation tops out around 0.31; real failure starts
    #: when the tail carries multiples of the early energy.
    reverb_ratio_good: float = 0.45
    reverb_ratio_bad: float = 2.5
    #: Broadband noise: out-of-band energy fraction of the recording
    #: relative to the played probe's 99 % energy band.  Clean captures sit
    #: below 0.04 (the HRIR only filters, never adds, out-of-band energy);
    #: by 0.45 the white floor rivals the probe and even the robust rungs
    #: start losing the first tap.
    oob_noise_good: float = 0.06
    oob_noise_bad: float = 0.45


#: The calibrated envelope every preflight grades against.
DEFAULT_THRESHOLDS = PreflightThresholds()


@dataclass(frozen=True)
class ProbeHealth:
    """Preflight verdict for one probe recording."""

    index: int
    snr_db: float
    clipping_ratio: float
    dead: bool
    weight: float

    @property
    def verdict(self) -> str:
        if self.dead:
            return "dead"
        return "ok" if self.weight >= 1.0 else "suspect"


@dataclass(frozen=True)
class CaptureHealth:
    """The structured preflight output for one capture."""

    probes: tuple[ProbeHealth, ...]
    components: dict[str, float] = field(default_factory=dict)
    collector: QualityCollector | None = None
    #: Adverse-capture sentinel readings (defaults = clean capture): the
    #: robust noise amplitude of the worst alive probe, the worst
    #: late-to-early channel energy ratio, the worst out-of-band energy
    #: fraction, and the deconvolution rung they recommend starting on.
    noise_floor: float = 0.0
    reverb_ratio: float = 0.0
    oob_noise: float = 0.0
    recommended_method: str = "inverse"

    @property
    def weights(self) -> np.ndarray:
        """Per-probe solve weights in ``[0, 1]`` (0 = drop)."""
        return np.array([p.weight for p in self.probes], dtype=float)

    @property
    def n_usable(self) -> int:
        return int(sum(1 for p in self.probes if p.weight > 0.0))

    @property
    def n_suspect(self) -> int:
        return int(sum(1 for p in self.probes if p.verdict == "suspect"))

    @property
    def n_dead(self) -> int:
        return int(sum(1 for p in self.probes if p.dead))

    def score(self) -> float:
        """Preflight-only confidence (product of capture components)."""
        return combine_components(self.components)


def _ear_stats(signal: np.ndarray, thresholds: PreflightThresholds):
    """(snr_db, clip_ratio, dead, noise_floor) for one ear recording."""
    signal = np.asarray(signal, dtype=float)
    if signal.size == 0:
        return float("-inf"), 0.0, True, 0.0
    magnitude = np.abs(signal)
    peak = float(magnitude.max())
    rms = float(np.sqrt(np.mean(np.square(signal))))
    if peak == 0.0 or rms <= thresholds.dead_rms:
        return float("-inf"), 0.0, True, 0.0
    clip_ratio = float(np.mean(magnitude >= 0.985 * peak))
    noise = max(estimate_noise_floor(signal), 1e-12)
    snr_db = float(20.0 * np.log10(peak / noise))
    return snr_db, clip_ratio, False, noise


def _grade(
    quality: QualityCollector,
    code: str,
    value: float,
    good: float,
    bad: float,
    message: str,
) -> float:
    """Degradation score of ``value``; flags it past ``good`` (``warn``,
    or ``error`` from ``bad`` on) as ``preflight.<code>``."""
    if value > good:
        quality.flag(
            "preflight",
            code,
            "warn" if value < bad else "error",
            message,
            value=value,
            threshold=good,
        )
    return degradation_score(value, good, bad)


def preflight(
    session: SessionData,
    collector: QualityCollector | None = None,
    bank: ProbeChannelBank | None = None,
) -> CaptureHealth:
    """Grade a capture before any solve against :data:`DEFAULT_THRESHOLDS`.

    The reverberation sentinel reads its sampled channels through ``bank``
    — the pipeline passes the session bank, still on rung 0, so fusion
    later reuses those deconvolutions; standalone calls build a private
    bank.

    Raises
    ------
    SignalError
        If there are no probes at all (nothing to grade).
    """
    t = DEFAULT_THRESHOLDS
    quality = collector if collector is not None else QualityCollector()
    if session.n_probes == 0:
        raise SignalError("capture has no probe recordings")

    with obs_trace.span("quality.preflight", n_probes=session.n_probes):
        probes = []
        noise_floors = []
        for i, probe in enumerate(session.probes):
            snr_l, clip_l, dead_l, noise_l = _ear_stats(probe.left, t)
            snr_r, clip_r, dead_r, noise_r = _ear_stats(probe.right, t)
            dead = bool(dead_l or dead_r)
            snr_db = float(min(snr_l, snr_r))
            clip_ratio = float(max(clip_l, clip_r))
            if not dead:
                noise_floors.append(max(noise_l, noise_r))
            if dead:
                weight = 0.0
            elif snr_db <= t.snr_suspect or clip_ratio >= t.clip_ratio_suspect:
                weight = t.suspect_weight
            else:
                weight = 1.0
            probes.append(
                ProbeHealth(
                    index=i,
                    snr_db=snr_db,
                    clipping_ratio=clip_ratio,
                    dead=dead,
                    weight=weight,
                )
            )

        alive = [p for p in probes if not p.dead]
        n_dead = len(probes) - len(alive)
        if n_dead:
            quality.flag(
                "preflight",
                "dead_channels",
                "error" if not alive else "warn",
                f"{n_dead}/{len(probes)} probes have dead/zeroed channels",
                value=float(n_dead) / len(probes),
                threshold=0.0,
            )
        quality.component(
            "preflight.channels", 1.0 - float(n_dead) / len(probes)
        )

        if alive:
            median_snr = float(np.median([p.snr_db for p in alive]))
            worst_clip = float(max(p.clipping_ratio for p in alive))
        else:
            median_snr, worst_clip = float("-inf"), 1.0
        quality.component(
            "preflight.snr", fitness_score(median_snr, t.snr_bad, t.snr_good)
        )
        if alive and median_snr < t.snr_good:
            quality.flag(
                "preflight",
                "low_snr",
                "warn" if median_snr > t.snr_bad else "error",
                f"median probe SNR {median_snr:.1f} dB below the clean "
                f"envelope ({t.snr_good:.0f} dB)",
                value=median_snr,
                threshold=t.snr_good,
            )
        quality.component(
            "preflight.clipping",
            degradation_score(worst_clip, t.clip_ratio_good, t.clip_ratio_bad),
        )
        if alive and worst_clip > t.clip_ratio_good:
            worst_probe = max(alive, key=lambda p: p.clipping_ratio)
            quality.flag(
                "preflight",
                "clipping",
                "warn" if worst_clip < t.clip_ratio_bad else "error",
                f"clip ratio {worst_clip:.3f} exceeds {t.clip_ratio_good}",
                probe_index=worst_probe.index,
                value=worst_clip,
                threshold=t.clip_ratio_good,
            )

        _coverage_checks(session, probes, t, quality)
        _gyro_checks(session, t, quality)
        reverb_ratio, oob_noise = _adverse_checks(
            session, probes, t, quality, bank
        )

        components = {
            name: score
            for name, score in quality.components.items()
            if name.startswith("preflight.")
        }
        health = CaptureHealth(
            probes=tuple(probes),
            components=components,
            collector=quality,
            noise_floor=float(max(noise_floors)) if noise_floors else 0.0,
            reverb_ratio=reverb_ratio,
            oob_noise=oob_noise,
            recommended_method=_recommend_method(components),
        )
        obs_metrics.counter("quality.preflight_runs").inc()
        obs_metrics.gauge("quality.preflight_score").set(health.score())
        obs_metrics.counter("quality.probes_dead").inc(health.n_dead)
        obs_metrics.counter("quality.probes_suspect").inc(health.n_suspect)
    return health


def _coverage_checks(
    session: SessionData,
    probes: list[ProbeHealth],
    t: PreflightThresholds,
    quality: QualityCollector,
) -> None:
    """Angle-grid coverage by usable probes, from the IMU estimate alone."""
    usable = [p.index for p in probes if p.weight > 0.0]
    n_usable = len(usable)
    quality.component(
        "preflight.count",
        fitness_score(float(n_usable), float(t.min_probes - 1), float(t.count_good)),
    )
    if n_usable < t.count_good:
        quality.flag(
            "preflight",
            "few_probes",
            "warn" if n_usable >= t.min_probes else "error",
            f"only {n_usable} usable probes (grid wants >= {t.count_good})",
            value=float(n_usable),
            threshold=float(t.count_good),
        )
    if n_usable < 2 or len(session.imu) < 2:
        quality.component("preflight.coverage", 0.0)
        return
    # The only pre-fusion angle estimate: gyro integration (drifty but
    # plenty for coverage book-keeping).
    angles = integrate_gyro(session.imu)
    probe_times = np.array([session.probes[i].time for i in usable])
    probe_angles = np.sort(
        np.interp(probe_times, session.imu.times, angles)
    )
    gaps = np.diff(probe_angles)
    max_gap = float(gaps.max()) if gaps.size else 180.0
    coverage_score = _grade(
        quality, "coverage_gap", max_gap, t.max_gap_good_deg, t.max_gap_bad_deg,
        f"largest angular gap between usable probes is {max_gap:.1f} deg "
        f"(IMU estimate; tolerated {t.max_gap_good_deg:.0f})",
    )
    quality.component("preflight.coverage", coverage_score)


def _gyro_checks(
    session: SessionData,
    t: PreflightThresholds,
    quality: QualityCollector,
) -> None:
    """Gyro saturation / dropout / bias-jump / clock-skew heuristics."""
    rate = np.asarray(session.imu.rate_dps, dtype=float)
    times = np.asarray(session.imu.times, dtype=float)
    if rate.size < 4:
        quality.component("preflight.gyro", 0.0)
        quality.flag(
            "preflight", "gyro_dropout", "error",
            f"IMU trace has only {rate.size} samples",
            value=float(rate.size), threshold=4.0,
        )
        return

    # Rail saturation: samples pinned at the extreme measured rate.  A
    # healthy MEMS trace is noisy enough that ties with the extreme are rare.
    extreme = float(np.max(np.abs(rate)))
    pinned = (
        float(np.mean(np.abs(rate) >= 0.999 * extreme)) if extreme > 0 else 1.0
    )
    saturation_score = _grade(
        quality, "gyro_saturation", pinned, t.saturation_good, t.saturation_bad,
        f"{pinned:.1%} of gyro samples pinned at ±{extreme:.1f} deg/s",
    )

    # Sample dropout: timestamp gaps far beyond the median sample interval.
    dts = np.diff(times)
    median_dt = float(np.median(dts))
    gap_ratio = float(dts.max() / median_dt) if median_dt > 0 else float("inf")
    dropout_score = _grade(
        quality, "gyro_dropout", gap_ratio,
        t.dropout_ratio_good, t.dropout_ratio_bad,
        f"largest IMU timestamp gap is {gap_ratio:.1f}x the median "
        f"sample interval",
    )

    # Bias jump / drift: windowed median rates should agree to within the
    # sweep's own dynamics; a drifting or stepping bias spreads them out.
    n_windows = 6
    edges = np.linspace(0, rate.size, n_windows + 1).astype(int)
    medians = [
        float(np.median(rate[lo:hi]))
        for lo, hi in zip(edges[:-1], edges[1:])
        if hi > lo
    ]
    bias_spread = float(np.max(medians) - np.min(medians)) if medians else 0.0
    bias_score = _grade(
        quality, "gyro_bias_jump", bias_spread,
        t.bias_jump_good_dps, t.bias_jump_bad_dps,
        f"windowed gyro medians spread over {bias_spread:.1f} deg/s "
        f"(bias drift/jump)",
    )

    # Clock skew: the IMU trace and the probe emissions ride the same sweep,
    # so their spans must agree to within one probe interval of slack.
    clock_score = 1.0
    probe_times = np.array([p.time for p in session.probes], dtype=float)
    if probe_times.size >= 2:
        probe_span = float(probe_times[-1] - probe_times[0])
        imu_span = float(times[-1] - times[0])
        if probe_span > 0:
            interval = float(np.median(np.diff(probe_times)))
            slack = interval / probe_span
            deviation = max(0.0, abs(imu_span / probe_span - 1.0) - slack)
            clock_score = _grade(
                quality, "clock_skew", deviation,
                t.clock_skew_good, t.clock_skew_bad,
                f"IMU span deviates from probe span by {deviation:.1%} "
                f"beyond slack (mic/IMU clock skew)",
            )

    quality.component(
        "preflight.gyro",
        min(saturation_score, dropout_score, bias_score, clock_score),
    )


#: Channel window (seconds) for the reverberation sentinel: long enough to
#: expose the late tail of a reverberant room, far past the head/pinna window.
_REVERB_WINDOW_S = 0.05

#: Cumulative-energy percentile bounding the probe's occupied band for the
#: out-of-band noise sentinel (band = central 99 % of source energy).
_BAND_PERCENTILE = 0.005


def _source_band(source: np.ndarray, fs: int) -> tuple[float, float] | None:
    """The frequency band holding the central 99 % of source energy."""
    energy = np.abs(np.fft.rfft(source)) ** 2
    total = float(energy.sum())
    if total <= 0.0:
        return None
    freqs = np.fft.rfftfreq(source.shape[0], 1.0 / fs)
    cumulative = np.cumsum(energy) / total
    f_low = float(freqs[np.searchsorted(cumulative, _BAND_PERCENTILE)])
    f_high = float(
        freqs[min(np.searchsorted(cumulative, 1.0 - _BAND_PERCENTILE), freqs.size - 1)]
    )
    if f_high <= f_low:
        return None
    return f_low, f_high


def _adverse_checks(
    session: SessionData,
    probes: list[ProbeHealth],
    t: PreflightThresholds,
    quality: QualityCollector,
    bank: ProbeChannelBank | None,
) -> tuple[float, float]:
    """Reverberation and broadband-noise sentinels over sampled probes.

    Reads a 50 ms channel window from ``bank`` (a private one when
    ``None``) for (up to) three alive probes — first, middle, last of the
    sweep — and grades the worst case of:

    - the late-to-early energy ratio (energy beyond the 2.5 ms room window
      after the first tap vs energy within it) — reverberant rooms smear
      energy into the tail that the head/pinna never produces;
    - the out-of-band energy fraction of the raw recording vs the band the
      probe chirp actually occupies — a linear room cannot create energy
      outside the band that was played, so any excess is additive noise.

    Returns ``(reverb_ratio, oob_noise)`` and emits the
    ``preflight.reverb`` / ``preflight.noise`` components plus
    ``reverberation`` / ``broadband_noise`` flags.
    """
    source = np.asarray(session.probe_signal, dtype=float)
    alive = [p.index for p in probes if not p.dead]
    if not alive or source.size == 0:
        return 0.0, 0.0
    sample = sorted({alive[0], alive[len(alive) // 2], alive[-1]})
    fs = int(session.fs)
    n_window = int(round(_REVERB_WINDOW_S * fs))
    cutoff = int(round(ROOM_REFLECTION_CUTOFF_S * fs))
    band = _source_band(source, fs)
    reverb_ratio = 0.0
    oob_noise = 0.0
    n_late_taps = 0
    graded = False
    for index in sample:
        probe = session.probes[index]
        for ear in ("left", "right"):
            recording = np.asarray(getattr(probe, ear), dtype=float)
            # Out-of-band noise first: it needs no channel estimate, so a
            # capture too noisy to even locate the first tap still gets a
            # (maximally damning) noise reading.
            if band is not None:
                try:
                    in_band = band_energy_ratio(recording, fs, band[0], band[1])
                    oob_noise = max(oob_noise, 1.0 - in_band)
                    graded = True
                except SignalError:
                    pass
            try:
                if bank is None:  # a degenerate source raises here, too
                    bank = ProbeChannelBank(source)
                impulse = bank.channel(
                    (index, ear), recording, min(n_window, recording.shape[0])
                )
                first = first_tap_index(impulse)
            except SignalError:
                continue
            cut = first + cutoff
            if cut >= impulse.shape[0]:
                continue
            # Noise-compensated energies: additive mic noise floods the
            # whole impulse estimate uniformly, so subtract the per-sample
            # noise energy (robust MAD estimate — the real taps are sparse
            # and leave the median untouched) from both windows.  Without
            # this, broadband noise masquerades as reverberation.
            med = float(np.median(impulse))
            noise_energy = (
                _MAD_SIGMA * float(np.median(np.abs(impulse - med)))
            ) ** 2
            n_late = impulse.shape[0] - cut
            early = float(np.sum(impulse[first:cut] ** 2))
            early -= (cut - first) * noise_energy
            # Only grade reverberation when the early tap rises far enough
            # above the late window's chi-square fluctuation
            # (~sqrt(2 N) sigma^2) that the ratio is meaningful; a tap
            # drowned in noise is the *noise* sentinel's problem.
            late_fluctuation = float(np.sqrt(2.0 * n_late)) * noise_energy
            if early <= max(20.0 * late_fluctuation, 0.0):
                continue
            late = float(np.sum(impulse[cut:] ** 2))
            late = max(late - n_late * noise_energy, 0.0)
            ratio = late / early
            if ratio > reverb_ratio:
                reverb_ratio = ratio
                try:
                    tap_indices, _ = find_taps(impulse, max_taps=16)
                    n_late_taps = int(np.sum(tap_indices >= cut))
                except SignalError:
                    n_late_taps = 0
            graded = True
    if not graded:
        return 0.0, 0.0

    reverb_score = _grade(
        quality, "reverberation", reverb_ratio,
        t.reverb_ratio_good, t.reverb_ratio_bad,
        f"late/early channel energy ratio {reverb_ratio:.2f} "
        f"({n_late_taps} significant taps beyond the "
        f"{1e3 * ROOM_REFLECTION_CUTOFF_S:.1f} ms room window)",
    )
    quality.component("preflight.reverb", reverb_score)
    noise_score = _grade(
        quality, "broadband_noise", oob_noise, t.oob_noise_good, t.oob_noise_bad,
        f"{oob_noise:.1%} of recording energy lies outside the probe "
        f"band — additive broadband noise",
    )
    quality.component("preflight.noise", noise_score)
    return reverb_ratio, oob_noise


def _recommend_method(components: dict[str, float]) -> str:
    """Starting deconvolution rung implied by the adverse sentinels.

    Clean (both sentinel scores 1.0) starts on the inverse filter so clean
    captures stay bit-identical; any degradation starts on the Wiener rung;
    a sentinel driven to zero (past its ``bad`` threshold) starts on the
    windowed time-domain LS rung directly.
    """
    worst = min(
        components.get("preflight.reverb", 1.0),
        components.get("preflight.noise", 1.0),
    )
    if worst <= 0.0:
        return "tdls"
    if worst < 1.0:
        return "wiener"
    return "inverse"
