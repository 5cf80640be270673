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
    _CLEAN_REGULARIZATION,
    _as_source,
    _impulse,
    _window_impulse,
    estimate_channel,  # noqa: F401  (re-exported: callers import it from here)
    rung_of,
)


class ProbeChannelBank:
    """Session-scoped deconvolution cache: each probe/ear estimated once.

    One personalization deconvolves the *same* probe recordings in three
    stages — the preflight sentinels (sampled probes), sensor fusion
    (first-tap delays) and near-field interpolation (HRIR windows) — and
    every deconvolution re-transforms the *same* played source.  The bank
    removes both redundancies, running every rung through the same
    deconvolution kernel as :func:`estimate_channel`:

    - ``rfft(source)`` is computed once per FFT size and shared by every
      probe, ear and spectral rung;
    - the unwindowed impulse estimate is computed once per cache ``key``
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
        self._regularization = _CLEAN_REGULARIZATION
        self._noise_floor: float | None = None
        #: n_fft -> (conj(rfft(source)), |S|^2)
        self._source_spectra: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        #: (method, regularization, key) -> unwindowed impulse estimate
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
        stored unwindowed estimate, so differing window lengths across
        pipeline stages still share one deconvolution.  A window longer
        than the estimate is zero-padded, as :func:`estimate_channel`
        pads.
        """
        full_key = (self._method, self._regularization, key)
        impulse = self._impulses.get(full_key)
        if impulse is None:
            impulse = _impulse(
                recording,
                self._source,
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
    echo, is the diffraction-path arrival that localization needs.  The
    one-row case of :func:`first_tap_index_batch`.
    """
    impulse = np.asarray(impulse, dtype=float)
    if impulse.ndim != 1 or impulse.shape[0] == 0:
        raise SignalError("first_tap_index expects a non-empty 1D array")
    taps = first_tap_index_batch(impulse[None, :], threshold_ratio, search_ahead)
    return int(taps[0])


def first_tap_index_batch(
    impulses: np.ndarray,
    threshold_ratio: float = 0.25,
    search_ahead: int = 3,
) -> np.ndarray:
    """:func:`first_tap_index` of each row of an ``(m, n)`` array."""
    impulses = np.asarray(impulses, dtype=float)
    if impulses.ndim != 2 or impulses.shape[1] == 0:
        raise SignalError("first_tap_index_batch expects a non-empty (m, n) array")
    magnitude = np.abs(impulses)
    peak = magnitude.max(axis=1)
    if np.any(peak == 0.0):
        raise SignalError("impulse response is all zeros; no tap to find")
    above = magnitude >= threshold_ratio * peak[:, None]
    if not above.any(axis=1).all():
        # A NaN peak, or a threshold ratio above 1.
        raise SignalError("no sample reaches the tap threshold; no tap to find")
    index = np.argmax(above, axis=1)
    rows = np.arange(impulses.shape[0])
    last = magnitude.shape[1] - 1
    stop = np.minimum(index + max(1, search_ahead), last)
    # A row that stops climbing never resumes: its index and test stay put.
    for _ in range(max(1, search_ahead)):
        climb = (index < stop) & (
            magnitude[rows, np.minimum(index + 1, last)] > magnitude[rows, index]
        )
        if not climb.any():
            break
        index = index + climb
    return index


def refine_tap_position(impulse: np.ndarray, index: int) -> float:
    """Sub-sample tap position via parabolic interpolation of the magnitude.

    Returns a fractional index; falls back to ``index`` at the array edges.
    The one-row case of :func:`refine_tap_position_batch`.
    """
    impulse = np.asarray(impulse, dtype=float)
    return float(refine_tap_position_batch(impulse[None, :], np.array([index]))[0])


def refine_tap_position_batch(impulses: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """:func:`refine_tap_position` of each row at its own tap index."""
    impulses = np.asarray(impulses, dtype=float)
    indices = np.asarray(indices)
    n = impulses.shape[1]
    outside = (indices < 0) | (indices >= n)
    if outside.any():
        raise SignalError(f"index {indices[outside][0]} outside impulse response")
    rows = np.arange(impulses.shape[0])
    neighbours = np.clip(indices[:, None] + np.array([-1, 0, 1]), 0, n - 1)
    left, center, right = np.abs(impulses[rows[:, None], neighbours]).T
    denom = left - 2 * center + right
    # Edges and non-maxima (denom >= 0: flat or not a local max) keep the
    # integer index; no refinement is possible there.
    refine = (indices > 0) & (indices < n - 1) & ~(denom >= 0)
    shift = np.divide(
        0.5 * (left - right), denom, out=np.zeros(rows.shape), where=refine
    )
    return np.where(refine, indices + np.clip(shift, -0.5, 0.5), indices.astype(float))


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
