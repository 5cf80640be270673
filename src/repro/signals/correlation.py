"""Normalized cross-correlation and impulse-response alignment.

The paper's groundwork (Section 2) and its headline metric (Figures 18-20)
both use the *maximum normalized cross-correlation* between two signals,

    c = max_tau sum_t A(t) B(t + tau) / (||A|| ||B||),

which is 1 for identical-up-to-delay-and-scale signals.  Alignment to the
first tap is what makes HRIR interpolation meaningful (Section 4.2: "the
HRTFs ... need to be aligned carefully along their first taps before the
interpolation; otherwise spurious echoes will get injected").
"""

from __future__ import annotations

import numpy as np

from repro.errors import SignalError
from repro.signals.channel import first_tap_index_batch
from repro.signals.delays import shift_rows


#: Above this many samples, cross-correlation switches to the FFT algorithm
#: (O(n log n) instead of O(n^2)).
_FFT_THRESHOLD = 2048


def cross_correlate_full(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Full cross-correlation ``sum_t a(t) b(t - lag)``, FFT-backed when long.

    Identical to ``np.correlate(a, b, mode="full")`` (index 0 is lag
    ``-(len(b) - 1)``) but O(n log n) for second-scale recordings.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or b.ndim != 1 or a.shape[0] == 0 or b.shape[0] == 0:
        raise SignalError("correlation expects two non-empty 1D arrays")
    if max(a.shape[0], b.shape[0]) <= _FFT_THRESHOLD:
        return np.correlate(a, b, mode="full")
    n = a.shape[0] + b.shape[0] - 1
    n_fft = int(2 ** np.ceil(np.log2(n)))
    spectrum = np.fft.rfft(a, n_fft) * np.conj(np.fft.rfft(b, n_fft))
    circular = np.fft.irfft(spectrum, n_fft)
    # Circular index (i - (len(b) - 1)) mod n_fft maps to full-mode index i.
    return np.roll(circular, b.shape[0] - 1)[:n]


def correlation_and_lag(a: np.ndarray, b: np.ndarray) -> tuple[float, int]:
    """Maximum normalized cross-correlation of two signals and its lag.

    Returns ``(c, lag)`` where ``c`` is in ``[-1, 1]`` and ``lag`` is the
    shift (in samples) to apply to ``b`` so it best matches ``a``: positive
    lags mean ``b`` happens *earlier* than ``a``.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or b.ndim != 1 or a.shape[0] == 0 or b.shape[0] == 0:
        raise SignalError("correlation expects two non-empty 1D arrays")
    norm = float(np.linalg.norm(a) * np.linalg.norm(b))
    if norm == 0.0:
        raise SignalError("cannot correlate an all-zero signal")
    xcorr = cross_correlate_full(a, b)
    best = int(np.argmax(xcorr))
    lag = best - (b.shape[0] - 1)
    return float(xcorr[best] / norm), lag


def max_normalized_correlation(a: np.ndarray, b: np.ndarray) -> float:
    """The paper's similarity metric: peak normalized cross-correlation."""
    value, _ = correlation_and_lag(a, b)
    return value


def align_to_first_tap(
    impulse: np.ndarray,
    length: int,
    pre_samples: int = 4,
    threshold_ratio: float = 0.25,
) -> np.ndarray:
    """Shift an impulse response so its first tap lands at ``pre_samples``.

    Returns a new array of ``length`` samples.  Content shifted before the
    start is dropped (there should be none: the first tap is by definition
    the earliest significant content).  The one-row case of
    :func:`align_to_first_tap_batch`.
    """
    impulse = np.asarray(impulse, dtype=float)
    if impulse.ndim != 1:
        raise SignalError("align_to_first_tap expects a 1D impulse response")
    return align_to_first_tap_batch(
        impulse[None, :], length, pre_samples, threshold_ratio
    )[0]


def align_to_first_tap_batch(
    impulses: np.ndarray,
    length: int,
    pre_samples: int = 4,
    threshold_ratio: float = 0.25,
) -> np.ndarray:
    """:func:`align_to_first_tap` of each row of an ``(m, n)`` array."""
    impulses = np.asarray(impulses, dtype=float)
    if length < 1:
        raise SignalError(f"length must be >= 1, got {length}")
    if pre_samples < 0 or pre_samples >= length:
        raise SignalError(f"pre_samples must be in [0, {length}), got {pre_samples}")
    taps = first_tap_index_batch(impulses, threshold_ratio=threshold_ratio)
    return shift_rows(impulses, taps - pre_samples, length)
