"""The angle-indexed HRTF lookup table exported to applications.

Paper Section 4.4: "The near and far-field HRTFs estimated by UNIQ can now
be exported to earphone applications as a lookup table.  The table is indexed
by theta, and for each theta_i, there are 4 vector entries" — left/right
near-field and left/right far-field.  :class:`HRTFTable` stores exactly that,
with interpolated queries at arbitrary angles (first-tap-aligned linear HRIR
interpolation plus interaural-delay interpolation, the same technique as the
near-field interpolation module of Section 4.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import TableError
from repro.hrtf.hrir import BinauralIR
from repro.signals.channel import first_tap_index, refine_tap_position
from repro.signals.delays import apply_fractional_delay_batch, shift_rows
from repro.signals.correlation import align_to_first_tap

#: The two distance regimes the table distinguishes.
FIELDS = ("near", "far")


def interpolate_hrir_pair(
    low: BinauralIR, high: BinauralIR, weight: float, pre_samples: int = 8
) -> BinauralIR:
    """First-tap-aligned linear interpolation between two HRIR pairs.

    Each ear's responses are aligned to their first taps, blended linearly,
    and the blended response is re-delayed to the linearly interpolated
    first-tap time — preventing the "spurious echoes" the paper warns about
    when misaligned impulse responses are averaged.  The one-row case of
    :func:`blend_aligned_batch`.
    """
    if low.fs != high.fs:
        raise TableError("cannot interpolate HRIRs with different sample rates")
    if weight <= 0.0:
        return BinauralIR(low.left.copy(), low.right.copy(), low.fs)
    if weight >= 1.0:
        return BinauralIR(high.left.copy(), high.right.copy(), high.fs)
    n = max(low.n_samples, high.n_samples)
    ears = []
    for a, b in ((low.left, high.left), (low.right, high.right)):
        tap_a = refine_tap_position(a, first_tap_index(a))
        tap_b = refine_tap_position(b, first_tap_index(b))
        blended = blend_aligned_batch(
            align_to_first_tap(a, n, pre_samples)[None, :],
            align_to_first_tap(b, n, pre_samples)[None, :],
            np.array([tap_a]),
            np.array([tap_b]),
            np.array([float(weight)]),
            pre_samples,
        )
        ears.append(blended[0])
    return BinauralIR(left=ears[0], right=ears[1], fs=low.fs)


def blend_aligned_batch(
    aligned_low: np.ndarray,
    aligned_high: np.ndarray,
    taps_low: np.ndarray,
    taps_high: np.ndarray,
    weights: np.ndarray,
    pre_samples: int,
) -> np.ndarray:
    """Row-wise blends of first-tap-aligned responses, re-delayed to the blended tap.

    ``aligned_*`` are ``(m, n)`` responses whose first taps sit at
    ``pre_samples``; ``taps_*`` are their sub-sample first-tap positions
    before alignment, and ``weights`` lie in ``(0, 1)``.
    """
    w = weights[:, None]
    blended = (1.0 - w) * aligned_low + w * aligned_high
    # Alignment shifts by the *integer* tap position, so each aligned
    # response keeps its sub-sample residue; account for the blended
    # residue when re-delaying or the fraction would be counted twice.
    residue = (1.0 - weights) * (taps_low % 1.0) + weights * (taps_high % 1.0)
    target_tap = (1.0 - weights) * taps_low + weights * taps_high
    shift = target_tap - pre_samples - residue
    # Target tap earlier than the alignment point: trim leading zeros.
    early = shift < 0
    lead = np.where(early, np.ceil(-shift), 0.0).astype(np.intp)
    blended = shift_rows(blended, lead, blended.shape[1])
    return apply_fractional_delay_batch(
        blended, np.where(early, shift + lead, shift), output_length=blended.shape[1]
    )


@dataclass(frozen=True)
class HRTFTable:
    """Personal HRTF lookup table over a grid of source angles.

    Attributes
    ----------
    angles_deg:
        Sorted, strictly increasing angle grid (degrees, 0 = front,
        90 = left, 180 = back — the paper's measurement span).
    near, far:
        One :class:`BinauralIR` per grid angle for each distance regime.
    """

    angles_deg: np.ndarray
    near: tuple[BinauralIR, ...]
    far: tuple[BinauralIR, ...]

    def __post_init__(self) -> None:
        angles = np.asarray(self.angles_deg, dtype=float)
        if angles.ndim != 1 or angles.shape[0] < 2:
            raise TableError("table needs at least 2 angles")
        if not np.all(np.diff(angles) > 0):
            raise TableError("angles_deg must be strictly increasing")
        for name, entries in (("near", self.near), ("far", self.far)):
            if len(entries) != angles.shape[0]:
                raise TableError(
                    f"{name} has {len(entries)} entries for {angles.shape[0]} angles"
                )
        rates = {ir.fs for ir in self.near} | {ir.fs for ir in self.far}
        if len(rates) != 1:
            raise TableError(f"mixed sample rates in table: {sorted(rates)}")

    @property
    def fs(self) -> int:
        return self.near[0].fs

    @property
    def n_angles(self) -> int:
        return int(self.angles_deg.shape[0])

    def __iter__(self) -> Iterator[tuple[float, BinauralIR, BinauralIR]]:
        """Iterate ``(angle, near_ir, far_ir)`` rows."""
        for i, angle in enumerate(self.angles_deg):
            yield float(angle), self.near[i], self.far[i]

    def _entries(self, field: str) -> tuple[BinauralIR, ...]:
        if field not in FIELDS:
            raise TableError(f"field must be one of {FIELDS}, got {field!r}")
        return self.near if field == "near" else self.far

    def angle_span(self) -> tuple[float, float]:
        """(min, max) angle covered by the table."""
        return float(self.angles_deg[0]), float(self.angles_deg[-1])

    def nearest(self, theta_deg: float, field: str = "far") -> BinauralIR:
        """The stored entry at the grid angle closest to ``theta_deg``."""
        entries = self._entries(field)
        index = int(np.argmin(np.abs(self.angles_deg - theta_deg)))
        return entries[index]

    def lookup(self, theta_deg: float, field: str = "far") -> BinauralIR:
        """HRIR pair at an arbitrary angle, interpolating between grid points.

        Raises
        ------
        TableError
            If ``theta_deg`` falls outside the table's angular span.
        """
        lo, hi = self.angle_span()
        if not lo <= theta_deg <= hi:
            raise TableError(
                f"angle {theta_deg} outside table span [{lo}, {hi}]"
            )
        entries = self._entries(field)
        idx = int(np.searchsorted(self.angles_deg, theta_deg))
        if idx < self.n_angles and self.angles_deg[idx] == theta_deg:
            return entries[idx]
        low, high = entries[idx - 1], entries[idx]
        span = self.angles_deg[idx] - self.angles_deg[idx - 1]
        weight = float((theta_deg - self.angles_deg[idx - 1]) / span)
        return interpolate_hrir_pair(low, high, weight)

    def binauralize(
        self, signal: np.ndarray, theta_deg: float, far: bool = True
    ) -> tuple[np.ndarray, np.ndarray]:
        """Filter a mono signal to a binaural pair from direction ``theta_deg``.

        The Section 4.4 application step: pick near/far by the emulated
        distance, look up (interpolating if needed), convolve.
        """
        ir = self.lookup(theta_deg, "far" if far else "near")
        return ir.apply(signal)
