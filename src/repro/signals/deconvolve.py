"""Deconvolution strategies: the robustness ladder behind channel estimation.

The paper's capture protocol assumes a quiet room, where the plain
regularized inverse filter recovers the channel cleanly.  A fleet of home
captures does not get that luxury: broadband noise floods the bands the
chirp sweeps through quickly, and reverberant rooms smear energy far past
the head/pinna window.  This module keeps one registry of deconvolution
*strategies*, ordered as an escalation ladder from cheapest/most-exact to
most robust:

===== ========= ===================================================
rung  method    estimator
===== ========= ===================================================
0     inverse   regularized inverse filter :func:`estimate_channel`
                ``H = Y conj(S) / (|S|^2 + reg * max|S|^2)`` —
                the clean-capture default.
1     wiener    Wiener deconvolution ``H = Syx / (Sxx + floor)``:
                the same spectral division with the floor matched
                to the *measured* noise level of the recording
                instead of a fixed fraction of the source peak, so
                noise-dominated bins are suppressed instead of
                amplified.
2     tdls      windowed time-domain least squares: solve the
                Toeplitz normal equations for the first
                ``n_taps`` taps only.  Energy arriving later than
                the modeled window (late reverberation) falls
                outside the cross-correlation lags used, so the
                early-tap estimate is shielded from it.
===== ========= ===================================================

Rungs 0 and 1 differ only in the denominator floor, so both run through
one spectral-division kernel; the session cache
:class:`repro.signals.channel.ProbeChannelBank` serves every rung through
the same code, bit-identical to the one-shot estimators registered in
:data:`DECONVOLVERS`.

The ``wiener``/``tdls`` estimators follow the classic dereverberation
toolkit shapes (cross-/auto-spectral division and Toeplitz LS channel
identification); the pipeline climbs this ladder per capture — see
``docs/ROBUSTNESS.md`` ("Adverse captures & the deconvolution ladder").
"""

from __future__ import annotations

import numpy as np

from repro.errors import SignalError

__all__ = [
    "DECONVOLVERS",
    "LADDER",
    "estimate_channel",
    "estimate_noise_floor",
    "fft_size",
    "ladder_next",
    "noise_regularization",
    "rung_of",
    "tdls_deconvolve",
    "wiener_deconvolve",
]

#: Robust sigma from the median absolute deviation of a zero-mean signal.
_MAD_SIGMA = 1.4826

#: Rung order of the escalation ladder (index = rung number).
LADDER: tuple[str, ...] = ("inverse", "wiener", "tdls")

#: Default time-domain LS window: 16 ms at 48 kHz — comfortably covers the
#: fusion delay window (12 ms) and the interpolator's HRIR window while
#: excluding late room reverberation from the modeled taps.
_TDLS_DEFAULT_TAPS = 768

#: Relative Tikhonov floor bounds for :func:`noise_regularization`: never
#: below the clean-capture default, never so high the channel is flattened.
_REG_FLOOR = 1e-3
_REG_CEILING = 0.5


def rung_of(method: str) -> int:
    """Ladder rung (0-based) of a method name; raises on unknown names."""
    try:
        return LADDER.index(method)
    except ValueError:
        raise SignalError(
            f"unknown deconvolution method {method!r}; known: {list(LADDER)}"
        ) from None


def ladder_next(method: str) -> str | None:
    """The next (more robust) method above ``method``, or ``None`` at the top."""
    rung = rung_of(method)
    return LADDER[rung + 1] if rung + 1 < len(LADDER) else None


def fft_size(recording_length: int, source_length: int) -> int:
    """The FFT size every frequency-domain rung uses (next power of two)."""
    return int(2 ** np.ceil(np.log2(recording_length + source_length)))


def _as_source(source: np.ndarray) -> np.ndarray:
    """``source`` as a float array, checked to be a deconvolvable probe."""
    source = np.asarray(source, dtype=float)
    if source.ndim != 1:
        raise SignalError("estimate_channel expects 1D arrays")
    if source.shape[0] < 8:
        raise SignalError("source too short to deconvolve")
    return source


def _as_inputs(
    recording: np.ndarray, source: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(recording, source)`` as float arrays, checked for deconvolution."""
    recording = np.asarray(recording, dtype=float)
    source = _as_source(source)
    if recording.ndim != 1:
        raise SignalError("estimate_channel expects 1D arrays")
    if recording.shape[0] < source.shape[0]:
        raise SignalError(
            f"recording ({recording.shape[0]}) shorter than source "
            f"({source.shape[0]})"
        )
    return recording, source


def _window_impulse(impulse: np.ndarray, length: int) -> np.ndarray:
    if length < 1:
        raise SignalError(f"length must be >= 1, got {length}")
    if length > impulse.shape[0]:
        padded = np.zeros(length)
        padded[: impulse.shape[0]] = impulse
        return padded
    return impulse[:length].copy()


def estimate_noise_floor(recording: np.ndarray) -> float:
    """Robust noise amplitude (sigma) of a probe recording.

    MAD of the quieter half of the recording — the probe chirp occupies a
    contiguous region, so the half with the least energy is dominated by
    mic/ambient noise.  The preflight SNR estimate uses it too.
    """
    recording = np.asarray(recording, dtype=float)
    if recording.size < 2:
        return 0.0
    magnitude = np.abs(recording)
    half = recording.size // 2
    tail = (
        recording[half:]
        if np.sum(magnitude[half:]) < np.sum(magnitude[:half])
        else recording[:half]
    )
    return _MAD_SIGMA * float(np.median(np.abs(tail - np.median(tail))))


def noise_regularization(
    source: np.ndarray,
    recording_length: int,
    noise_floor: float,
    floor: float = _REG_FLOOR,
    ceiling: float = _REG_CEILING,
) -> float:
    """Relative Tikhonov floor matched to a measured noise level.

    The white-noise power per FFT bin is ``n_fft * sigma^2``; dividing by
    the peak source power gives the *relative* floor at which
    noise-dominated bins stop being amplified.  Clamped to
    ``[floor, ceiling]`` so a silent capture still uses the clean default
    and a hopeless one is not flattened into nothing.
    """
    source = np.asarray(source, dtype=float)
    n_fft = fft_size(int(recording_length), source.shape[0])
    power_max = float(np.max(np.abs(np.fft.rfft(source, n_fft)) ** 2))
    if power_max == 0.0:
        raise SignalError("source signal is all zeros")
    relative = n_fft * float(noise_floor) ** 2 / power_max
    return float(np.clip(relative, floor, ceiling))


def _spectral_deconvolve(
    recording: np.ndarray,
    source: np.ndarray,
    method: str,
    regularization: float,
    noise_floor: float | None,
    spectra: dict[int, tuple[np.ndarray, np.ndarray]] | None = None,
) -> np.ndarray:
    """Rungs 0 and 1: the full-length ``Y conj(S) / (|S|^2 + floor)``.

    Rung 0 (``inverse``) floors the denominator at ``reg * max|S|^2``.
    Rung 1 (``wiener``) raises it to the measured white-noise power per
    bin, ``max(n_fft * sigma^2, reg * max|S|^2)``, with ``sigma``
    estimated from the recording when not supplied.  ``spectra`` caches
    ``(conj(S), |S|^2)`` per FFT size across calls (the session bank's).
    """
    n_fft = fft_size(recording.shape[0], source.shape[0])
    spectra = {} if spectra is None else spectra
    if n_fft not in spectra:
        spectrum_s = np.fft.rfft(source, n_fft)
        spectra[n_fft] = (np.conj(spectrum_s), np.abs(spectrum_s) ** 2)
    conj_s, power = spectra[n_fft]
    power_max = float(power.max())
    if power_max == 0.0:
        raise SignalError("source signal is all zeros")
    floor = regularization * power_max
    if method == "wiener":
        if noise_floor is None:
            noise_floor = estimate_noise_floor(recording)
        # Kept at or above the rung-0 safety floor so a quiet capture
        # degenerates to the inverse filter rather than below it.
        floor = max(n_fft * float(noise_floor) ** 2, floor)
    spectrum_y = np.fft.rfft(recording, n_fft)
    return np.fft.irfft(spectrum_y * conj_s / (power + floor), n_fft)


def estimate_channel(
    recording: np.ndarray,
    source: np.ndarray,
    length: int,
    regularization: float = 1e-3,
    noise_floor: float | None = None,
) -> np.ndarray:
    """Rung 0: the impulse response mapping ``source`` to ``recording``.

    Regularized frequency-domain deconvolution (Wiener-style):
    ``H = Y * conj(S) / (|S|^2 + reg * max|S|^2)``.  The returned impulse
    response contains the first ``length`` samples of the estimate.

    Parameters
    ----------
    recording, source:
        1D arrays at the same sample rate; the recording must be at least as
        long as the source.
    length:
        Number of impulse-response samples to return.
    regularization:
        Relative Tikhonov floor applied to the source spectrum; guards the
        bands where the probe carries no energy.
    noise_floor:
        Accepted and ignored, so every :data:`DECONVOLVERS` entry shares
        one signature.
    """
    recording, source = _as_inputs(recording, source)
    impulse = _spectral_deconvolve(
        recording, source, "inverse", regularization, noise_floor
    )
    return _window_impulse(impulse, length)


def wiener_deconvolve(
    recording: np.ndarray,
    source: np.ndarray,
    length: int,
    regularization: float = 1e-3,
    noise_floor: float | None = None,
) -> np.ndarray:
    """Rung 1: Wiener deconvolution ``H = Syx / (Sxx + floor)``.

    ``Syx = Y conj(S)`` and ``Sxx = |S|^2`` are the cross- and auto-power
    spectra of the capture; the floor is the measured white-noise power per
    bin (``n_fft * sigma^2``), estimated from the recording itself when not
    supplied.  Where the probe carries energy the estimate matches the
    inverse filter; where noise dominates, the bin is attenuated toward
    zero instead of amplified — which is exactly the failure mode of the
    fixed-floor inverse filter on noisy captures.
    """
    recording, source = _as_inputs(recording, source)
    impulse = _spectral_deconvolve(
        recording, source, "wiener", regularization, noise_floor
    )
    return _window_impulse(impulse, length)


def tdls_deconvolve(
    recording: np.ndarray,
    source: np.ndarray,
    length: int,
    regularization: float = 1e-2,
    noise_floor: float | None = None,
    n_taps: int | None = None,
) -> np.ndarray:
    """Rung 2: windowed time-domain least squares over the first taps.

    Solves ``min_h ||y - s * h||^2 + delta ||h||^2`` for ``h`` restricted
    to ``n_taps`` samples via the Toeplitz normal equations
    ``(R + delta I) h = g`` (``R`` = source autocorrelation, ``g`` =
    recording/source cross-correlation).  Restricting the modeled window is
    the robustness mechanism: reverberant energy arriving after the window
    only shows up at cross-correlation lags beyond ``n_taps`` and never
    biases the early-tap estimate the way it does through a full-band
    spectral division.
    """
    recording, source = _as_inputs(recording, source)
    if length < 1:
        raise SignalError(f"length must be >= 1, got {length}")
    if n_taps is None:
        n_taps = _TDLS_DEFAULT_TAPS
    n_taps = int(min(n_taps, recording.shape[0]))
    if n_taps < 1:
        raise SignalError(f"n_taps must be >= 1, got {n_taps}")

    from scipy.linalg import solve_toeplitz
    from scipy.signal import fftconvolve

    # First column of the Toeplitz matrix: source autocorrelation lags
    # 0 .. n_taps-1; right-hand side: cross-correlation of the recording
    # with the source at the same lags.
    autocorr = fftconvolve(source, source[::-1])[
        source.shape[0] - 1 : source.shape[0] - 1 + n_taps
    ]
    if autocorr.shape[0] < n_taps:
        autocorr = np.pad(autocorr, (0, n_taps - autocorr.shape[0]))
    if autocorr[0] <= 0.0:
        raise SignalError("source signal is all zeros")
    crosscorr = fftconvolve(recording, source[::-1])[
        source.shape[0] - 1 : source.shape[0] - 1 + n_taps
    ]
    if crosscorr.shape[0] < n_taps:
        crosscorr = np.pad(crosscorr, (0, n_taps - crosscorr.shape[0]))

    # Tikhonov diagonal: the larger of the relative default and the
    # measured noise energy over the modeled window keeps the Levinson
    # recursion well-conditioned on noisy captures.
    delta = float(regularization) * float(autocorr[0])
    if noise_floor is not None and noise_floor > 0.0:
        delta = max(delta, recording.shape[0] * float(noise_floor) ** 2)
    column = autocorr.copy()
    column[0] += delta
    try:
        impulse = solve_toeplitz((column, column.copy()), crosscorr)
    except np.linalg.LinAlgError:  # pragma: no cover - pathological inputs
        impulse = np.linalg.lstsq(
            _toeplitz_dense(column), crosscorr, rcond=None
        )[0]
    return _window_impulse(impulse, length)


def _toeplitz_dense(column: np.ndarray) -> np.ndarray:
    """Dense symmetric Toeplitz matrix (fallback when Levinson fails)."""
    n = column.shape[0]
    idx = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    return column[idx]


#: Method name -> deconvolver registry.  All entries share the signature
#: ``(recording, source, length, regularization=..., noise_floor=...)``.
DECONVOLVERS = {
    "inverse": estimate_channel,
    "wiener": wiener_deconvolve,
    "tdls": tdls_deconvolve,
}
