"""DSP toolkit: waveforms, fractional delays, channel estimation, correlation.

Everything UNIQ does acoustically reduces to a handful of signal-processing
primitives: playing known probe sounds (chirps), estimating the acoustic
channel by deconvolution, finding the first tap of that channel, measuring
normalized cross-correlations between impulse responses, and constructing /
applying impulse responses with sub-sample (fractional) tap positions.  This
package implements those primitives on plain ``numpy`` arrays.
"""

from repro.signals.waveforms import (
    chirp,
    probe_chirp,
    white_noise,
    music_like,
    speech_like,
    tone,
)
from repro.signals.delays import (
    fractional_delay_kernel,
    apply_fractional_delay,
    add_tap,
)
from repro.signals.channel import (
    ProbeChannelBank,
    estimate_channel,
    first_tap_index,
    refine_tap_position,
    find_taps,
    truncate_after,
)
from repro.signals.deconvolve import (
    DECONVOLVERS,
    LADDER,
    estimate_noise_floor,
    ladder_next,
    noise_regularization,
    rung_of,
    tdls_deconvolve,
    wiener_deconvolve,
)
from repro.signals.correlation import (
    max_normalized_correlation,
    correlation_and_lag,
    align_to_first_tap,
)
from repro.signals.spectrum import (
    amplitude_spectrum,
    apply_frequency_response,
    band_energy_ratio,
)

__all__ = [
    "chirp",
    "probe_chirp",
    "white_noise",
    "music_like",
    "speech_like",
    "tone",
    "fractional_delay_kernel",
    "apply_fractional_delay",
    "add_tap",
    "ProbeChannelBank",
    "estimate_channel",
    "DECONVOLVERS",
    "LADDER",
    "estimate_noise_floor",
    "ladder_next",
    "noise_regularization",
    "rung_of",
    "tdls_deconvolve",
    "wiener_deconvolve",
    "first_tap_index",
    "refine_tap_position",
    "find_taps",
    "truncate_after",
    "max_normalized_correlation",
    "correlation_and_lag",
    "align_to_first_tap",
    "amplitude_spectrum",
    "apply_frequency_response",
    "band_energy_ratio",
]
