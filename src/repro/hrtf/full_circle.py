"""Side-aware AoA over the full circle from a left-semicircle table.

The paper's measurement sweep covers the left semicircle ``[0, 180]`` —
the arm cannot comfortably cross the body.  Real applications need sources
anywhere in ``(-180, 180]``.  The standard completion is **mirror
symmetry**: a source at ``-theta`` looks like one at ``+theta`` with the two
ear feeds swapped.

Mirroring is an approximation — the user's left and right pinnae differ —
but it preserves the dominant cues exactly (the head is left/right
symmetric in the model, so ITD/ILD mirror perfectly; only the fine pinna
texture is approximated).  :func:`signed_aoa` wraps the AoA estimators with
that convention, returning angles in ``(-180, 180]``; the triangulation
application (:mod:`repro.core.triangulation`) uses it for signed bearings.
"""

from __future__ import annotations

import numpy as np


def signed_aoa(
    estimator,
    left: np.ndarray,
    right: np.ndarray,
    fs: int,
    source: np.ndarray | None = None,
) -> float:
    """Side-aware AoA in ``(-180, 180]`` from a semicircle estimator.

    Works with both estimator kinds:

    - pass ``source`` for a :class:`~repro.core.aoa.KnownSourceAoAEstimator`
      (the side comes from the interaural first-tap order);
    - omit it for an
      :class:`~repro.core.aoa.UnknownSourceAoAEstimator` (the side comes
      from the relative-channel peak sign).

    A source on the listener's right is estimated by mirroring the ear
    feeds and negating the result.
    """
    if source is not None:
        _, _, t0 = estimator._measure_channels(left, right, source, fs)
        if t0 <= 0:
            return float(estimator.estimate(left, right, source, fs))
        return -float(estimator.estimate(right, left, source, fs))

    lags, values = estimator.relative_channel(left, right, fs)
    left_side = lags[int(np.argmax(np.abs(values)))] <= 0
    if left_side:
        return float(estimator.estimate(left, right, fs))
    return -float(estimator.estimate(right, left, fs))
