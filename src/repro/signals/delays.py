"""Sub-sample (fractional) delays via windowed-sinc interpolation.

Physical tap delays almost never land on integer sample positions — at
48 kHz one sample is ~7 mm of travel, while the localization pipeline cares
about millimeter-scale path differences.  All impulse-response construction
in the simulator therefore places taps with a short windowed-sinc kernel
centered at the exact fractional position, and the channel analysis refines
tap positions to sub-sample precision by parabolic interpolation (see
:func:`repro.signals.channel.refine_tap_position`).
"""

from __future__ import annotations

import numpy as np

from repro.errors import SignalError

#: Half-width of the sinc kernel in samples.  16 taps keeps interpolation
#: error below -60 dB across the audio band.
DEFAULT_KERNEL_HALF_WIDTH = 16


def fractional_delay_kernel(
    fraction: float, half_width: int = DEFAULT_KERNEL_HALF_WIDTH
) -> np.ndarray:
    """Windowed-sinc kernel realizing a delay of ``fraction`` samples.

    ``fraction`` must be in ``[0, 1)``; integer parts of a delay are handled
    by placement, not by the kernel.  The returned kernel has length
    ``2 * half_width + 1`` and is centered so that index ``half_width``
    corresponds to zero delay.  The one-row case of
    :func:`fractional_delay_kernel_batch`.
    """
    fractions = np.array([fraction], dtype=float)
    return fractional_delay_kernel_batch(fractions, half_width)[0]


def fractional_delay_kernel_batch(
    fractions: np.ndarray, half_width: int = DEFAULT_KERNEL_HALF_WIDTH
) -> np.ndarray:
    """``(m, 2 * half_width + 1)`` kernels, one row per entry of ``fractions``."""
    fractions = np.asarray(fractions, dtype=float)
    bad = ~((0.0 <= fractions) & (fractions < 1.0))
    if bad.any():
        raise SignalError(f"fraction must be in [0, 1), got {fractions[bad][0]}")
    if half_width < 1:
        raise SignalError(f"half_width must be >= 1, got {half_width}")
    positions = np.arange(-half_width, half_width + 1)[None, :] - fractions[:, None]
    kernels = np.sinc(positions)
    kernels *= np.blackman(2 * half_width + 1)
    return kernels / kernels.sum(axis=1, keepdims=True)


def add_tap(
    buffer: np.ndarray,
    delay_samples: float,
    amplitude: float,
    half_width: int = DEFAULT_KERNEL_HALF_WIDTH,
) -> None:
    """Add an impulse of ``amplitude`` at fractional ``delay_samples`` in place.

    Kernel samples falling outside the buffer are clipped (energy loss only
    matters for taps within ``half_width`` samples of the edges, which the
    simulator's buffers are sized to avoid).
    """
    if delay_samples < 0:
        raise SignalError(f"delay_samples must be >= 0, got {delay_samples}")
    integer = int(np.floor(delay_samples))
    fraction = float(delay_samples - integer)
    kernel = amplitude * fractional_delay_kernel(fraction, half_width)
    start = integer - half_width
    for offset, value in enumerate(kernel):
        idx = start + offset
        if 0 <= idx < buffer.shape[0]:
            buffer[idx] += value


def shift_rows(signals: np.ndarray, offsets: np.ndarray, length: int) -> np.ndarray:
    """``(m, length)`` copies with ``out[i, d] = signals[i, d + offsets[i]]``.

    A positive offset advances row ``i`` by whole samples, a negative one
    delays it; samples from outside the input are zero.
    """
    signals = np.asarray(signals, dtype=float)
    source = np.arange(length)[None, :] + np.asarray(offsets, dtype=np.intp)[:, None]
    inside = (source >= 0) & (source < signals.shape[1])
    copied = np.take_along_axis(
        signals, np.clip(source, 0, signals.shape[1] - 1), axis=1
    )
    return np.where(inside, copied, 0.0)


def apply_fractional_delay(
    signal: np.ndarray,
    delay_samples: float,
    output_length: int | None = None,
    half_width: int = DEFAULT_KERNEL_HALF_WIDTH,
) -> np.ndarray:
    """Return ``signal`` delayed by ``delay_samples`` (may be fractional).

    The output has ``output_length`` samples (default: input length plus the
    integer delay plus kernel support, i.e. lossless).  The one-row case of
    :func:`apply_fractional_delay_batch`.
    """
    signal = np.asarray(signal, dtype=float)
    if signal.ndim != 1:
        raise SignalError("apply_fractional_delay expects a 1D signal")
    delays = np.array([delay_samples], dtype=float)
    return apply_fractional_delay_batch(
        signal[None, :], delays, output_length, half_width
    )[0]


def apply_fractional_delay_batch(
    signals: np.ndarray,
    delays: np.ndarray,
    output_length: int | None = None,
    half_width: int = DEFAULT_KERNEL_HALF_WIDTH,
) -> np.ndarray:
    """Row ``i`` of ``signals`` delayed by ``delays[i]`` samples.

    The default ``output_length`` is lossless for the longest delay.  Each
    row is one ``np.convolve``: it takes a BLAS dot product per output
    sample, so a strided or matrix convolution would round differently.
    """
    signals = np.asarray(signals, dtype=float)
    delays = np.asarray(delays, dtype=float)
    if signals.ndim != 2 or delays.shape != signals.shape[:1]:
        raise SignalError(
            "apply_fractional_delay_batch expects (m, n) signals and m delays"
        )
    bad = ~(np.isfinite(delays) & (delays >= 0))
    if bad.any():
        raise SignalError(f"delay_samples must be >= 0, got {delays[bad][0]}")
    integers = np.floor(delays)
    kernels = fractional_delay_kernel_batch(delays - integers, half_width)
    integers = integers.astype(np.intp)
    n_out = (
        output_length
        if output_length is not None
        else signals.shape[1] + int(integers.max(initial=0)) + half_width
    )
    out = np.zeros((signals.shape[0], n_out))
    for row, signal, kernel, integer in zip(out, signals, kernels, integers):
        # Kernel center sits at index half_width: compensate, then shift.
        usable = np.convolve(signal, kernel)[half_width:]
        stop = min(n_out, integer + usable.shape[0])
        if stop > integer:
            row[integer:stop] = usable[: stop - integer]
    return out
