"""The deconvolution escalation ladder: strategies, sentinels, rescue.

Three layers under test:

- ``repro.signals.deconvolve`` — the strategy registry itself (rung order,
  bit-identity of rung 0, robust-rung recovery on synthetic channels);
- the adverse-capture sentinels in ``repro.quality.preflight`` (fire on
  faulted captures, stay silent on clean ones, recommend a starting rung);
- the pipeline contract: a capture that *fails* with the deconvolution
  pinned to ``inverse`` completes under ``auto`` on a higher rung with
  flags and reduced confidence, while clean captures never leave rung 0
  and stay bit-identical to the pre-ladder pipeline.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import CalibrationError, SignalError
from repro.core.localize import clear_delay_map_cache
from repro.core.pipeline import personalize_capture
from repro.hrtf.io import table_digest
from repro.obs import metrics as obs_metrics
from repro.quality.preflight import preflight
from repro.signals.channel import (
    ProbeChannelBank,
    estimate_channel,
    first_tap_index,
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
from repro.signals.waveforms import probe_chirp
from repro.testing.faults import apply_fault
from repro.testing.golden import CASE_CONFIG

FS = 48_000


@pytest.fixture(scope="module")
def synthetic_capture():
    """A chirp through a known sparse channel, clean and adversarial."""
    source = probe_chirp(FS, duration_s=0.05)
    impulse = np.zeros(512)
    impulse[40] = 1.0
    impulse[55] = -0.45
    convolved = np.convolve(source, impulse)
    recording = np.zeros(6000)
    recording[: convolved.shape[0]] = convolved
    rng = np.random.default_rng(123)
    noisy = recording + rng.normal(0.0, 0.2, recording.shape[0])
    # Late reverberant tail: energy smeared far past the modeled window.
    tail = np.zeros_like(recording)
    decay = np.exp(-np.arange(3000) / 1200.0)
    tail[2500 : 2500 + 3000] = 0.6 * decay * rng.normal(0.0, 1.0, 3000)
    reverberant = recording + tail
    return {
        "source": source,
        "impulse": impulse,
        "clean": recording,
        "noisy": noisy,
        "reverberant": reverberant,
    }


class TestRegistry:
    def test_ladder_orders_the_registry(self):
        assert LADDER == ("inverse", "wiener", "tdls")
        assert set(DECONVOLVERS) == set(LADDER)

    def test_rung_of_is_the_ladder_index(self):
        for rung, method in enumerate(LADDER):
            assert rung_of(method) == rung

    def test_ladder_next_climbs_and_tops_out(self):
        assert ladder_next("inverse") == "wiener"
        assert ladder_next("wiener") == "tdls"
        assert ladder_next("tdls") is None

    def test_unknown_method_raises(self):
        with pytest.raises(SignalError):
            rung_of("matched_filter")
        with pytest.raises(SignalError):
            ladder_next("matched_filter")


class TestStrategies:
    def test_inverse_is_bit_identical_to_estimate_channel(self, synthetic_capture):
        recording = synthetic_capture["clean"]
        source = synthetic_capture["source"]
        via_ladder = DECONVOLVERS["inverse"](
            recording, source, 256, regularization=1e-3, noise_floor=0.5
        )
        direct = estimate_channel(recording, source, 256)
        assert np.array_equal(via_ladder, direct)

    def test_every_rung_recovers_the_first_tap_when_clean(self, synthetic_capture):
        recording = synthetic_capture["clean"]
        source = synthetic_capture["source"]
        for method in LADDER:
            impulse = DECONVOLVERS[method](recording, source, 256)
            assert first_tap_index(impulse) == 40, method

    def test_wiener_recovers_the_first_tap_under_noise(self, synthetic_capture):
        recording = synthetic_capture["noisy"]
        source = synthetic_capture["source"]
        sigma = estimate_noise_floor(recording)
        assert sigma > 0.0
        impulse = wiener_deconvolve(
            recording, source, 256, noise_floor=sigma
        )
        assert abs(first_tap_index(impulse) - 40) <= 2

    def test_tdls_recovers_the_first_tap_under_reverberation(
        self, synthetic_capture
    ):
        recording = synthetic_capture["reverberant"]
        source = synthetic_capture["source"]
        impulse = tdls_deconvolve(recording, source, 256, n_taps=512)
        assert abs(first_tap_index(impulse) - 40) <= 2

    def test_noise_regularization_is_clamped_and_monotone(self, synthetic_capture):
        source = synthetic_capture["source"]
        n = synthetic_capture["clean"].shape[0]
        regs = [noise_regularization(source, n, sigma) for sigma in (0.0, 1e-4, 0.05, 10.0)]
        assert regs[0] == pytest.approx(1e-3)  # silent capture: clean default
        assert regs[-1] == pytest.approx(0.5)  # hopeless capture: ceiling
        assert regs == sorted(regs)


class TestProbeChannelBank:
    @pytest.mark.parametrize("noise", ["measured", None])
    @pytest.mark.parametrize("capture", ["clean", "noisy", "reverberant"])
    @pytest.mark.parametrize("method", LADDER)
    def test_bank_matches_the_one_shot_estimator(
        self, synthetic_capture, method, capture, noise
    ):
        """Every rung served by the bank equals its registry estimator."""
        source = synthetic_capture["source"]
        recording = synthetic_capture[capture]
        sigma = estimate_noise_floor(recording) if noise else None
        bank = ProbeChannelBank(source)
        bank.set_method(method, regularization=5e-3, noise_floor=sigma)
        got = bank.channel((0, "left"), recording, 256)
        one_shot = DECONVOLVERS[method](
            recording, source, 256, regularization=5e-3, noise_floor=sigma
        )
        assert np.array_equal(got, one_shot)

    def test_cache_keys_are_per_method(self, synthetic_capture):
        source = synthetic_capture["source"]
        recording = synthetic_capture["noisy"]
        bank = ProbeChannelBank(source)
        rung0 = bank.channel((0, "left"), recording, 256)
        assert bank.n_cached == 1
        bank.set_method("wiener", noise_floor=estimate_noise_floor(recording))
        rung1 = bank.channel((0, "left"), recording, 256)
        assert bank.n_cached == 2  # re-deconvolved, not served from rung 0
        assert not np.array_equal(rung0, rung1)
        # Climbing back down serves the original rung-0 estimate bit-exactly.
        bank.set_method("inverse")
        assert np.array_equal(bank.channel((0, "left"), recording, 256), rung0)
        assert bank.n_cached == 2

    def test_unknown_method_rejected(self, synthetic_capture):
        bank = ProbeChannelBank(synthetic_capture["source"])
        with pytest.raises(SignalError):
            bank.set_method("matched_filter")
        with pytest.raises(SignalError):
            bank.set_method("matched_filter", regularization=0.1, noise_floor=1.0)
        assert (bank.method, bank.regularization) == ("inverse", 1e-3)


class TestSentinels:
    def test_clean_capture_reads_clean(self, small_session):
        health = preflight(small_session)
        assert health.recommended_method == "inverse"
        assert health.components.get("preflight.reverb", 1.0) == 1.0
        assert health.components.get("preflight.noise", 1.0) == 1.0

    def test_reverberant_capture_trips_the_reverb_sentinel(self, small_session):
        faulted = apply_fault(
            small_session, "reverberant_room", rt60_s=0.9, wet_level=1.6
        )
        health = preflight(faulted)
        assert health.reverb_ratio > 0.45
        assert health.components["preflight.reverb"] < 1.0
        assert health.recommended_method != "inverse"

    def test_noisy_capture_trips_the_noise_sentinel(self, small_session):
        faulted = apply_fault(small_session, "mic_noise", std=0.3)
        health = preflight(faulted)
        assert health.oob_noise > 0.06
        assert health.noise_floor > 0.0
        assert health.components["preflight.noise"] < 1.0
        assert health.recommended_method != "inverse"


@pytest.fixture(scope="module")
def rescue_session():
    """The adverse capture the ladder exists for: inverse-only fails it."""
    from repro.simulation.person import VirtualSubject
    from repro.simulation.session import MeasurementSession

    session = MeasurementSession(
        VirtualSubject.random(1),
        seed=0,
        probe_interval_s=CASE_CONFIG["probe_interval_s"],
    ).run()
    return apply_fault(session, "noisy_reverberant", rt60_s=0.9, std=0.3)


class TestLadderRescue:
    def test_pinned_inverse_fails_but_auto_completes(self, rescue_session):
        with pytest.raises(CalibrationError):
            personalize_capture(
                subject_seed=1,
                session=rescue_session,
                angle_step_deg=CASE_CONFIG["angle_step_deg"],
                deconv="inverse",
            )
        _, result = personalize_capture(
            subject_seed=1,
            session=rescue_session,
            angle_step_deg=CASE_CONFIG["angle_step_deg"],
        )
        salvage = result.quality.salvage
        assert salvage["deconv_rung"] > 0
        assert salvage["deconv_method"] != "inverse"
        assert 0.0 < result.confidence < 1.0
        assert any(
            flag.key == "preflight.broadband_noise"
            for flag in result.quality.flags
        )

    def test_pinned_robust_rung_also_completes(self, rescue_session):
        _, result = personalize_capture(
            subject_seed=1,
            session=rescue_session,
            angle_step_deg=CASE_CONFIG["angle_step_deg"],
            deconv="wiener",
        )
        assert result.quality.salvage["deconv_method"] == "wiener"


class TestCleanBitIdentity:
    """On a clean capture the ladder costs nothing: rung 0, same work."""

    COUNTED = (
        "channel.bank_deconvolutions",
        "channel.bank_hits",
        "localize.delay_map_builds",
        "fusion.cost_evaluations",
    )

    def _counted(self, deconv):
        # Cold caches on both sides, so neither reuses the other's maps.
        clear_delay_map_cache()
        counters = [obs_metrics.counter(name) for name in self.COUNTED]
        before = [c.value for c in counters]
        _, result = personalize_capture(
            subject_seed=1, session_seed=0, deconv=deconv, **CASE_CONFIG
        )
        return result, [c.value - b for c, b in zip(counters, before)]

    def test_auto_equals_pinned_inverse_on_a_clean_capture(self):
        auto, auto_work = self._counted("auto")
        pinned, pinned_work = self._counted("inverse")
        assert auto_work == pinned_work
        assert table_digest(auto.table) == table_digest(pinned.table)
        assert auto.head_parameters == pinned.head_parameters
        assert auto.confidence == 1.0
        salvage = auto.quality.salvage
        assert salvage["deconv_method"] == "inverse"
        assert salvage["deconv_rung"] == 0
        assert salvage["deconv_path"] == ["inverse"]


class TestDeconvolveOnce:
    """Every deconvolution in ``personalize`` goes through the session bank.

    The reverb sentinel reads first, middle and last probe (both ears)
    through the bank on rung 0, so no one-shot deconvolution happens and
    each probe/ear is deconvolved once per rung actually used.
    """

    SENTINEL_READS = 6

    @pytest.fixture
    def counted(self, monkeypatch):
        import importlib

        from repro.obs import metrics as obs_metrics

        # The package re-exports preflight() under the module's name.
        preflight_module = importlib.import_module("repro.quality.preflight")

        one_shot = []
        original = preflight_module.estimate_channel

        def counting(*args, **kwargs):
            one_shot.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(preflight_module, "estimate_channel", counting)
        deconv = obs_metrics.counter("channel.bank_deconvolutions")
        hits = obs_metrics.counter("channel.bank_hits")
        d0, h0 = deconv.value, hits.value
        return lambda: (len(one_shot), deconv.value - d0, hits.value - h0)

    def test_clean_capture_reuses_the_sentinel_reads(self, counted):
        session, result = personalize_capture(
            subject_seed=1, session_seed=0, **CASE_CONFIG
        )
        assert result.quality.salvage["deconv_path"] == ["inverse"]
        n = session.n_probes
        assert counted() == (0, 2 * n, 2 * n + self.SENTINEL_READS)

    def test_rescue_capture_deconvolves_once_per_rung_used(
        self, counted, rescue_session
    ):
        _, result = personalize_capture(
            subject_seed=1,
            session=rescue_session,
            angle_step_deg=CASE_CONFIG["angle_step_deg"],
        )
        assert result.quality.salvage["deconv_path"] == ["wiener"]
        one_shot, deconvolutions, _ = counted()
        n = rescue_session.n_probes
        assert (one_shot, deconvolutions) == (0, 2 * n + self.SENTINEL_READS)
