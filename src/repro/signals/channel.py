"""Acoustic channel estimation and tap analysis.

The earbud records ``y = h * s + noise`` where ``s`` is the known probe the
phone played and ``h`` is the acoustic channel (the near-field HRIR plus
room effects).  The paper recovers ``h`` by deconvolving the recording with
the source (Section 4.1, Figure 9; the estimators live in
:mod:`repro.signals.deconvolve`, the per-session cache here) and then works
with the channel's *taps*:

- the **first tap** is the diffraction path and anchors localization;
- later taps are pinna/face multipath (kept — they are the personal HRIR);
- taps later than ~2.5 ms are room reflections and are truncated away
  (Section 4.6).
"""

from __future__ import annotations

from typing import Hashable

import numpy as np

from repro.errors import SignalError
from repro.obs import metrics as obs_metrics
from repro.signals.deconvolve import (
    _as_inputs,
    _as_source,
    _spectral_deconvolve,
    _window_impulse,
    estimate_channel,  # noqa: F401  (re-exported: callers import it from here)
    rung_of,
    tdls_deconvolve,
)


class ProbeChannelBank:
    """Session-scoped deconvolution cache: each probe/ear estimated once.

    One personalization deconvolves the *same* probe recordings in three
    stages — the preflight sentinels (sampled probes), sensor fusion
    (first-tap delays) and near-field interpolation (HRIR windows) — and
    every deconvolution re-transforms the *same* played source.  The bank
    removes both redundancies while staying bit-identical to the one-shot
    estimators in :data:`repro.signals.deconvolve.DECONVOLVERS`:

    - ``rfft(source)`` is computed once per FFT size and shared by every
      probe, ear and spectral rung;
    - the full-length impulse estimate is computed once per cache ``key``
      and served as a window of any requested ``length`` afterwards.

    The cache key is caller-chosen (the pipeline uses ``(probe_index,
    "left"|"right")``) so the bank never needs to hash recording arrays.
    A new bank starts on rung 0 (``inverse``, regularization ``1e-3``);
    :meth:`set_method` is the one way to move it to another rung.  Every
    cache entry is additionally keyed by the active method and regularizer
    (see :mod:`repro.signals.deconvolve`): when the pipeline moves to its
    starting rung after preflight, or climbs the ladder mid-run, a probe is
    re-deconvolved under the new method instead of silently reusing the
    rung-0 estimate.  A bank belongs to one session's ``probe_signal``;
    build a new bank per session.  Instances are not thread-safe; share
    per-thread or guard externally.
    """

    def __init__(self, source: np.ndarray) -> None:
        self._source = _as_source(source)
        self._method = "inverse"
        self._regularization = 1e-3
        self._noise_floor: float | None = None
        #: n_fft -> (conj(rfft(source)), |S|^2)
        self._source_spectra: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        #: (method, regularization, key) -> full-length impulse estimate
        self._impulses: dict[Hashable, np.ndarray] = {}

    @property
    def method(self) -> str:
        """The active deconvolution method (``repro.signals.deconvolve``)."""
        return self._method

    @property
    def regularization(self) -> float:
        """The active relative Tikhonov floor."""
        return self._regularization

    def set_method(
        self,
        method: str,
        regularization: float | None = None,
        noise_floor: float | None = None,
    ) -> None:
        """Switch the active deconvolution method (starting rung or climb).

        Cached impulses from other methods are kept but never served while
        this method is active — the cache key includes the method and
        regularizer, so climbing back down (or re-requesting an old key)
        stays correct.
        """
        rung_of(method)
        self._method = str(method)
        if regularization is not None:
            self._regularization = float(regularization)
        if noise_floor is not None:
            self._noise_floor = float(noise_floor)

    @property
    def n_cached(self) -> int:
        """Number of distinct (method, probe/ear) impulse responses held."""
        return len(self._impulses)

    def channel(
        self, key: Hashable, recording: np.ndarray, length: int
    ) -> np.ndarray:
        """The cached impulse response for ``key``, windowed to ``length``.

        The first call for a ``key`` (under the active method) deconvolves
        ``recording``; later calls ignore ``recording`` and reslice the
        stored full-length estimate, so differing window lengths across
        pipeline stages still share one deconvolution.  Results are
        bit-identical to ``DECONVOLVERS[method]`` with the same inputs,
        regularization and noise floor.
        """
        full_key = (self._method, self._regularization, key)
        impulse = self._impulses.get(full_key)
        if impulse is None:
            recording, source = _as_inputs(recording, self._source)
            if self._method == "tdls":
                impulse = tdls_deconvolve(
                    recording,
                    source,
                    length=recording.shape[0],
                    regularization=self._regularization,
                    noise_floor=self._noise_floor,
                )
            else:
                impulse = _spectral_deconvolve(
                    recording,
                    source,
                    self._method,
                    self._regularization,
                    self._noise_floor,
                    self._source_spectra,
                )
            self._impulses[full_key] = impulse
            obs_metrics.counter("channel.bank_deconvolutions").inc()
        else:
            obs_metrics.counter("channel.bank_hits").inc()
        return _window_impulse(impulse, length)


def first_tap_index(
    impulse: np.ndarray,
    threshold_ratio: float = 0.25,
    search_ahead: int = 3,
) -> int:
    """Index of the first significant tap of an impulse response.

    Finds the first sample whose magnitude reaches ``threshold_ratio`` of
    the global peak, then climbs to the *first local* magnitude maximum
    (bounded by ``search_ahead`` samples).  Climbing to the first local max
    — not the strongest within a window — matters when a strong pinna echo
    follows the first tap within a few samples: the first tap, not the
    echo, is the diffraction-path arrival that localization needs.
    """
    impulse = np.asarray(impulse, dtype=float)
    if impulse.ndim != 1 or impulse.shape[0] == 0:
        raise SignalError("first_tap_index expects a non-empty 1D array")
    magnitude = np.abs(impulse)
    peak = magnitude.max()
    if peak == 0.0:
        raise SignalError("impulse response is all zeros; no tap to find")
    above = np.flatnonzero(magnitude >= threshold_ratio * peak)
    index = int(above[0])
    stop = min(index + max(1, search_ahead), magnitude.shape[0] - 1)
    while index < stop and magnitude[index + 1] > magnitude[index]:
        index += 1
    return index


def refine_tap_position(impulse: np.ndarray, index: int) -> float:
    """Sub-sample tap position via parabolic interpolation of the magnitude.

    Returns a fractional index; falls back to ``index`` at the array edges.
    """
    magnitude = np.abs(np.asarray(impulse, dtype=float))
    if not 0 <= index < magnitude.shape[0]:
        raise SignalError(f"index {index} outside impulse response")
    if index == 0 or index == magnitude.shape[0] - 1:
        return float(index)
    left, center, right = magnitude[index - 1 : index + 2]
    denom = left - 2 * center + right
    if denom >= 0:  # not a local max / flat: no refinement possible
        return float(index)
    shift = 0.5 * (left - right) / denom
    return float(index + np.clip(shift, -0.5, 0.5))


def find_taps(
    impulse: np.ndarray,
    max_taps: int = 8,
    threshold_ratio: float = 0.15,
    min_separation: int = 4,
) -> tuple[np.ndarray, np.ndarray]:
    """Locate the significant taps of an impulse response.

    Returns ``(indices, amplitudes)`` sorted by time.  A tap is a local
    magnitude maximum at least ``threshold_ratio`` of the global peak and at
    least ``min_separation`` samples away from a stronger tap.
    """
    impulse = np.asarray(impulse, dtype=float)
    if impulse.ndim != 1 or impulse.shape[0] < 3:
        raise SignalError("find_taps expects a 1D array with >= 3 samples")
    magnitude = np.abs(impulse)
    peak = magnitude.max()
    if peak == 0.0:
        return np.zeros(0, dtype=int), np.zeros(0)
    is_local_max = np.zeros_like(magnitude, dtype=bool)
    is_local_max[1:-1] = (magnitude[1:-1] >= magnitude[:-2]) & (
        magnitude[1:-1] >= magnitude[2:]
    )
    candidates = np.flatnonzero(is_local_max & (magnitude >= threshold_ratio * peak))
    # Greedy non-maximum suppression, strongest first.
    order = candidates[np.argsort(magnitude[candidates])[::-1]]
    kept: list[int] = []
    for idx in order:
        if all(abs(idx - other) >= min_separation for other in kept):
            kept.append(int(idx))
        if len(kept) >= max_taps:
            break
    kept.sort()
    kept_arr = np.asarray(kept, dtype=int)
    return kept_arr, impulse[kept_arr]


def truncate_after(
    impulse: np.ndarray,
    cutoff_index: int,
    taper: int = 8,
) -> np.ndarray:
    """Zero the impulse response after ``cutoff_index`` with a cosine taper.

    This is the paper's room-reflection removal: taps arriving later than
    the head/pinna multipath window are environmental echoes, not HRTF.
    """
    impulse = np.asarray(impulse, dtype=float)
    out = impulse.copy()
    if cutoff_index < 0:
        raise SignalError(f"cutoff_index must be >= 0, got {cutoff_index}")
    if cutoff_index >= out.shape[0]:
        return out
    taper = max(0, min(taper, out.shape[0] - cutoff_index))
    if taper > 0:
        ramp = 0.5 * (1 + np.cos(np.pi * np.arange(taper) / taper))
        out[cutoff_index : cutoff_index + taper] *= ramp
    out[cutoff_index + taper :] = 0.0
    return out
