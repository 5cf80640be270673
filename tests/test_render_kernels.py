"""The array kernels behind ``Uniq.render`` equal their per-row loops exactly.

Each reference below is the per-row loop the kernel replaced, written with
plain numpy and the scalar geometry solvers.  Every assertion is ``==`` or
``np.array_equal``: rendering has to stay bit-identical, so a tolerance
would hide exactly the drift these tests exist to catch.  Each edge case
also asserts that its reference branch was actually taken.
"""

from collections import Counter

import numpy as np
import pytest

from repro.constants import SPEED_OF_SOUND
from repro.core.fusion import DiffractionAwareSensorFusion
from repro.core.interpolation import NearFieldInterpolator, NearFieldMeasurement
from repro.core.near_far import NearFarConverter
from repro.errors import SignalError
from repro.geometry.head import Ear
from repro.geometry.paths import propagation_path
from repro.geometry.plane_wave import plane_wave_arrival
from repro.geometry.vec import angle_deg_of, polar_to_cartesian, unit_from_angle_deg
from repro.hrtf.hrir import BinauralIR
from repro.hrtf.table import interpolate_hrir_pair
from repro.obs import metrics as obs_metrics
from repro.physics import far_field_first_tap_gain, near_field_first_tap_gain
from repro.signals.channel import (
    first_tap_index,
    first_tap_index_batch,
    refine_tap_position,
    refine_tap_position_batch,
)
from repro.signals.correlation import align_to_first_tap, align_to_first_tap_batch
from repro.signals.delays import (
    apply_fractional_delay,
    apply_fractional_delay_batch,
    fractional_delay_kernel,
    fractional_delay_kernel_batch,
)

FS = 48_000
PRE = 12

#: Reference branches taken, keyed by name; tests assert on their counts.
branches: Counter = Counter()


# --- per-row references ----------------------------------------------------


def ref_first_tap_index(impulse, threshold_ratio=0.25, search_ahead=3):
    magnitude = np.abs(impulse)
    peak = magnitude.max()
    if peak == 0.0:
        raise SignalError("impulse response is all zeros; no tap to find")
    index = int(np.flatnonzero(magnitude >= threshold_ratio * peak)[0])
    stop = min(index + max(1, search_ahead), magnitude.shape[0] - 1)
    while index < stop and magnitude[index + 1] > magnitude[index]:
        index += 1
    if index == 0:
        branches["tap_at_start"] += 1
    elif index == magnitude.shape[0] - 1:
        branches["tap_at_end"] += 1
    return index


def ref_refine_tap_position(impulse, index):
    magnitude = np.abs(impulse)
    if index == 0 or index == magnitude.shape[0] - 1:
        branches["refine_edge"] += 1
        return float(index)
    left, center, right = magnitude[index - 1 : index + 2]
    denom = left - 2 * center + right
    if denom >= 0:
        branches["refine_flat"] += 1
        return float(index)
    shift = 0.5 * (left - right) / denom
    return float(index + np.clip(shift, -0.5, 0.5))


def ref_align_to_first_tap(impulse, length, pre_samples=4):
    tap = ref_first_tap_index(impulse)
    out = np.zeros(length)
    source_start = max(0, tap - pre_samples)
    dest_start = pre_samples - (tap - source_start)
    n_copy = min(impulse.shape[0] - source_start, length - dest_start)
    if n_copy > 0:
        out[dest_start : dest_start + n_copy] = impulse[
            source_start : source_start + n_copy
        ]
    return out


def ref_fractional_delay_kernel(fraction, half_width=16):
    positions = np.arange(-half_width, half_width + 1) - fraction
    kernel = np.sinc(positions)
    kernel *= np.blackman(2 * half_width + 1)
    return kernel / kernel.sum()


def ref_apply_fractional_delay(signal, delay_samples, output_length=None, half_width=16):
    integer = int(np.floor(delay_samples))
    kernel = ref_fractional_delay_kernel(float(delay_samples - integer), half_width)
    delayed = np.convolve(signal, kernel)
    n_out = (
        output_length
        if output_length is not None
        else signal.shape[0] + integer + half_width
    )
    out = np.zeros(n_out)
    usable = delayed[half_width:]
    stop = min(n_out, integer + usable.shape[0])
    if stop > integer:
        out[integer:stop] = usable[: stop - integer]
    else:
        branches["delay_past_output"] += 1
    return out


def ref_interpolate_hrir_pair(low, high, weight, pre_samples):
    if weight <= 0.0:
        branches["weight_low"] += 1
        return BinauralIR(low.left.copy(), low.right.copy(), low.fs)
    if weight >= 1.0:
        branches["weight_high"] += 1
        return BinauralIR(high.left.copy(), high.right.copy(), high.fs)
    n = max(low.n_samples, high.n_samples)
    ears = []
    for a, b in ((low.left, high.left), (low.right, high.right)):
        tap_a = ref_refine_tap_position(a, ref_first_tap_index(a))
        tap_b = ref_refine_tap_position(b, ref_first_tap_index(b))
        aligned_a = ref_align_to_first_tap(a, n, pre_samples)
        aligned_b = ref_align_to_first_tap(b, n, pre_samples)
        blended = (1.0 - weight) * aligned_a + weight * aligned_b
        residue = (1.0 - weight) * (tap_a % 1.0) + weight * (tap_b % 1.0)
        target_tap = (1.0 - weight) * tap_a + weight * tap_b
        shift = target_tap - pre_samples - residue
        if shift < 0:
            branches["blend_lead"] += 1
            lead = int(np.ceil(-shift))
            blended = np.concatenate([blended[lead:], np.zeros(lead)])
            shift += lead
        ears.append(ref_apply_fractional_delay(blended, shift, output_length=n))
    return BinauralIR(left=ears[0], right=ears[1], fs=low.fs)


def ref_correct_to_model(hrir, head, radius_m, angle_deg):
    position = polar_to_cartesian(radius_m, angle_deg)
    expected = {}
    for ear in Ear:
        path = propagation_path(head, position, ear)
        expected[ear] = (
            path.length,
            float(near_field_first_tap_gain(path.length, path.wrap_arc)),
        )
    model_itd = (expected[Ear.RIGHT][0] - expected[Ear.LEFT][0]) / SPEED_OF_SOUND * FS
    taps, amps = {}, {}
    for ear, signal in ((Ear.LEFT, hrir.left), (Ear.RIGHT, hrir.right)):
        idx = ref_first_tap_index(signal)
        taps[ear] = ref_refine_tap_position(signal, idx)
        amps[ear] = float(np.abs(signal[idx]))
    left = hrir.left * (expected[Ear.LEFT][1] / amps[Ear.LEFT])
    right = hrir.right * (expected[Ear.RIGHT][1] / amps[Ear.RIGHT])
    shift = float(model_itd - (taps[Ear.RIGHT] - taps[Ear.LEFT]))
    n = hrir.n_samples
    if shift >= 0:
        right = ref_apply_fractional_delay(right, shift, output_length=n)
    else:
        branches["correction_advance"] += 1
        advance = int(np.ceil(-shift))
        right = np.concatenate([right[advance:], np.zeros(advance)])
        right = ref_apply_fractional_delay(right, shift + advance, output_length=n)
    return BinauralIR(left=left, right=right, fs=FS)


def ref_build_grid(measurements, head, grid, radius_m):
    ordered = sorted(measurements, key=lambda m: m.angle_deg)
    angles = np.array([m.angle_deg for m in ordered])
    entries = []
    for target in np.asarray(grid, dtype=float):
        idx = int(np.searchsorted(angles, target))
        if idx == 0:
            branches["clamp_low"] += 1
            blended = ordered[0].hrir
        elif idx >= angles.shape[0]:
            branches["clamp_high"] += 1
            blended = ordered[-1].hrir
        else:
            span = angles[idx] - angles[idx - 1]
            if span <= 0:
                branches["span_not_positive"] += 1
            weight = 0.5 if span <= 0 else float((target - angles[idx - 1]) / span)
            blended = ref_interpolate_hrir_pair(
                ordered[idx - 1].hrir, ordered[idx].hrir, weight, PRE
            )
        entries.append(ref_correct_to_model(blended, head, radius_m, float(target)))
    return entries


def _backtrack(anchor, u, radius):
    b = float(np.dot(anchor, u))
    disc = b * b - float(np.dot(anchor, anchor)) + radius * radius
    return float(angle_deg_of(anchor - (b + np.sqrt(disc)) * u))


def ref_convert(measurements, head, grid, radius, min_arc_measurements=1):
    n = measurements[0].hrir.n_samples
    angles = np.array([m.angle_deg for m in measurements])
    entries, n_fallback = [], 0
    for theta in np.asarray(grid, dtype=float):
        arrivals = {ear: plane_wave_arrival(head, float(theta), ear) for ear in Ear}
        u = -unit_from_angle_deg(float(theta))
        facing = -np.einsum("ij,j->i", head.boundary.normals, u)
        phi_c = _backtrack(head.boundary.points[int(np.argmax(facing))], u, radius)
        averaged = {}
        for ear, arrival in arrivals.items():
            anchor = (
                head.ear_position(ear)
                if arrival.grazing_point is None
                else arrival.grazing_point
            )
            phi = _backtrack(anchor, u, radius)
            lo, hi = (phi_c, phi) if phi_c <= phi else (phi, phi_c)
            in_arc = np.flatnonzero((angles >= lo) & (angles <= hi))
            if in_arc.shape[0] < min_arc_measurements:
                n_fallback += 1
                order = np.argsort(np.abs(angles - 0.5 * (lo + hi)))
                in_arc = order[: max(min_arc_measurements, 1)]
            averaged[ear] = np.mean(
                [
                    ref_align_to_first_tap(measurements[i].hrir.ear(ear), n, PRE)
                    for i in in_arc
                ],
                axis=0,
            )
        reference = min(a.delay for a in arrivals.values())
        tuned = {}
        for ear in Ear:
            signal = averaged[ear]
            first_tap = float(np.max(np.abs(signal[PRE - 1 : PRE + 2])))
            gain = float(far_field_first_tap_gain(arrivals[ear].wrap_arc)) / first_tap
            shift = (arrivals[ear].delay - reference) * FS
            tuned[ear] = ref_apply_fractional_delay(signal * gain, shift, output_length=n)
        entries.append(BinauralIR(left=tuned[Ear.LEFT], right=tuned[Ear.RIGHT], fs=FS))
    return entries, n_fallback


def assert_entries_equal(actual, expected):
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert np.array_equal(got.left, want.left)
        assert np.array_equal(got.right, want.right)


# --- signal kernels --------------------------------------------------------


def _random_rows(rng, m=400, n=64):
    rows = rng.normal(size=(m, n)) * (rng.random((m, n)) < rng.random((m, 1)))
    rows[~rows.any(axis=1), 0] = 1.0
    return rows


def _edge_rows(n=64):
    start = np.zeros(n)
    start[0] = 1.0
    end = np.zeros(n)
    end[-1] = 1.0
    flat = np.zeros(n)
    flat[10:13] = 1.0  # flat top: denom == 0 at the tap
    climb = np.zeros(n)
    climb[5:12] = np.arange(1.0, 8.0)  # climbs only search_ahead samples
    return np.vstack([start, end, flat, climb])


class TestSignalKernels:
    def test_first_tap_and_refine_match_loop(self):
        rows = np.vstack([_random_rows(np.random.default_rng(0)), _edge_rows()])
        branches.clear()
        want = np.array([ref_first_tap_index(row) for row in rows])
        got = first_tap_index_batch(rows)
        assert np.array_equal(got, want)
        assert [first_tap_index(row) for row in rows] == list(want)
        refined_want = np.array(
            [ref_refine_tap_position(row, i) for row, i in zip(rows, want)]
        )
        assert np.array_equal(refine_tap_position_batch(rows, got), refined_want)
        assert [refine_tap_position(r, i) for r, i in zip(rows, want)] == list(
            refined_want
        )
        for branch in ("tap_at_start", "tap_at_end", "refine_edge", "refine_flat"):
            assert branches[branch] > 0, branch

    def test_all_zero_row_raises(self):
        rows = _random_rows(np.random.default_rng(1), m=5)
        rows[3] = 0.0
        with pytest.raises(SignalError):
            first_tap_index_batch(rows)
        with pytest.raises(SignalError):
            ref_first_tap_index(rows[3])
        with pytest.raises(SignalError):
            first_tap_index(rows[3])
        with pytest.raises(SignalError):
            align_to_first_tap_batch(rows, 64, PRE)

    def test_nan_row_raises(self):
        # The per-row loop indexed an empty array here (IndexError).
        row = np.full(16, np.nan)
        with pytest.raises(SignalError):
            first_tap_index(row)
        with pytest.raises(SignalError):
            first_tap_index_batch(np.vstack([np.ones(16), row]))

    @pytest.mark.parametrize("length", [20, 64, 150])
    def test_align_matches_loop(self, length):
        rows = np.vstack([_random_rows(np.random.default_rng(2)), _edge_rows()])
        want = np.array([ref_align_to_first_tap(row, length, PRE) for row in rows])
        assert np.array_equal(align_to_first_tap_batch(rows, length, PRE), want)
        for row, expected in zip(rows, want):
            assert np.array_equal(align_to_first_tap(row, length, PRE), expected)

    def test_kernels_match_loop(self):
        fractions = np.random.default_rng(3).random(5000)
        got = fractional_delay_kernel_batch(fractions)
        for fraction, kernel in zip(fractions, got):
            assert np.array_equal(kernel, ref_fractional_delay_kernel(fraction))
            assert np.array_equal(fractional_delay_kernel(fraction), kernel)

    @pytest.mark.parametrize("output_length", [None, 64, 100])
    def test_apply_fractional_delay_matches_loop(self, output_length):
        rng = np.random.default_rng(4)
        rows = _random_rows(rng, m=300)
        delays = np.concatenate([rng.uniform(0, 40, 296), [0.0, 3.0, 80.0, 200.0]])
        branches.clear()
        want = [
            ref_apply_fractional_delay(row, d, output_length)
            for row, d in zip(rows, delays)
        ]
        got = apply_fractional_delay_batch(rows, delays, output_length)
        if output_length is None:
            # The batch is lossless for its longest delay; shorter rows pad.
            for row, expected in zip(got, want):
                assert np.array_equal(row[: expected.shape[0]], expected)
                assert not row[expected.shape[0] :].any()
        else:
            assert np.array_equal(got, np.array(want))
            assert branches["delay_past_output"] > 0
        for row, d, expected in zip(rows, delays, want):
            assert np.array_equal(apply_fractional_delay(row, d, output_length), expected)

    @pytest.mark.parametrize("bad", [-0.5, np.nan, np.inf])
    def test_bad_delay_raises(self, bad):
        with pytest.raises(SignalError):
            apply_fractional_delay_batch(np.ones((2, 8)), np.array([1.0, bad]))
        with pytest.raises(SignalError):
            apply_fractional_delay(np.ones(8), bad)


# --- near-field grid and near-far conversion -------------------------------


@pytest.fixture(scope="module")
def solved(clean_session):
    fusion = DiffractionAwareSensorFusion().run(clean_session)
    measurements = NearFieldInterpolator(FS).extract_measurements(clean_session, fusion)
    return fusion.head, measurements


def _fine_grid(measurements):
    """0.5-degree steps past both ends, plus every measured angle exactly."""
    measured = [m.angle_deg for m in measurements]
    return np.unique(np.concatenate([np.arange(-10.0, 190.0, 0.5), measured]))


class TestInterpolateHrirPair:
    def test_matches_loop_on_every_branch(self, solved):
        _, measurements = solved
        branches.clear()
        rng = np.random.default_rng(5)
        hrirs = [m.hrir for m in measurements]
        early = BinauralIR(  # first taps before the alignment point
            np.roll(hrirs[0].left, -20), np.roll(hrirs[0].right, -20), FS
        )
        pairs = [(hrirs[i], hrirs[i + 1]) for i in range(len(hrirs) - 1)]
        pairs += [(early, hrirs[3]), (early, early)]
        for low, high in pairs:
            for weight in (-0.25, 0.0, float(rng.random()), 0.5, 1.0, 1.5):
                want = ref_interpolate_hrir_pair(low, high, weight, PRE)
                got = interpolate_hrir_pair(low, high, weight, pre_samples=PRE)
                assert_entries_equal([got], [want])
        for branch in ("weight_low", "weight_high", "blend_lead"):
            assert branches[branch] > 0, branch


class TestBuildGrid:
    def test_matches_loop_on_a_fine_grid(self, solved):
        head, measurements = solved
        grid = _fine_grid(measurements)
        branches.clear()
        want = ref_build_grid(measurements, head, grid, 0.45)
        got = NearFieldInterpolator(FS).build_grid(measurements, head, grid, 0.45)
        assert_entries_equal(got, want)
        for branch in ("clamp_low", "clamp_high", "weight_high", "correction_advance"):
            assert branches[branch] > 0, branch

    def test_duplicate_angles_match_loop(self, solved):
        head, measurements = solved
        # Repeated measurement angles: searchsorted puts every interior grid
        # angle strictly above its lower neighbour, so the scalar code's
        # "span <= 0 -> weight 0.5" branch cannot be reached even here.
        doubled = measurements + [
            NearFieldMeasurement(m.angle_deg, m.radius_m, measurements[0].hrir)
            for m in measurements[::3]
        ]
        grid = _fine_grid(measurements)
        branches.clear()
        want = ref_build_grid(doubled, head, grid, 0.45)
        got = NearFieldInterpolator(FS).build_grid(doubled, head, grid, 0.45)
        assert_entries_equal(got, want)
        assert branches["span_not_positive"] == 0

    def test_empty_grid(self, solved):
        head, measurements = solved
        assert NearFieldInterpolator(FS).build_grid(measurements, head, []) == []

    def test_unequal_lengths_raise(self, solved):
        head, measurements = solved
        hrir = measurements[0].hrir
        short = BinauralIR(hrir.left[:-1], hrir.right[:-1], FS)
        mixed = measurements + [NearFieldMeasurement(200.0, 0.45, short)]
        with pytest.raises(SignalError, match="one HRIR length"):
            NearFieldInterpolator(FS).build_grid(mixed, head, [10.0])


class TestConvert:
    # The converter's arc rule: one measurement on an arc is enough.
    @pytest.mark.parametrize("min_arc", [1])
    def test_matches_loop_on_a_fine_grid(self, solved, min_arc):
        head, measurements = solved
        grid = _fine_grid(measurements)
        want, want_fallbacks = ref_convert(measurements, head, grid, 0.45, min_arc)
        before = obs_metrics.counter("near_far.arc_fallbacks").value
        got = NearFarConverter(fs=FS).convert(measurements, head, grid, 0.45)
        assert_entries_equal(got, want)
        fallbacks = obs_metrics.counter("near_far.arc_fallbacks").value - before
        assert fallbacks == want_fallbacks > 0

    def test_empty_grid(self, solved):
        head, measurements = solved
        assert NearFarConverter(fs=FS).convert(measurements, head, []) == []
