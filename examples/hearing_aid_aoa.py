"""Smart hearing aid: where did that voice come from?

The paper's Section 4.5 application: "when Alice is wearing her earphones,
and someone calls her name, the earphones estimate the direction from which
the voice signal arrived" — and the personalized HRTF makes that estimate
far more reliable than the global template, especially for front/back.

This example simulates callers at several directions around a listener and
compares AoA estimates from (a) the listener's personalized table and
(b) the one-size-fits-all global template, for both a *known* chime and an
*unknown* voice.

Run:  python examples/hearing_aid_aoa.py
"""

import numpy as np

from repro import (
    KnownSourceAoAEstimator,
    MeasurementSession,
    Uniq,
    UnknownSourceAoAEstimator,
    VirtualSubject,
    global_template_table,
)
from repro.core.aoa import is_front
from repro.simulation import record_far_field
from repro.signals import probe_chirp, white_noise


def main() -> None:
    listener = VirtualSubject.random(seed=5)
    session = MeasurementSession(listener, seed=13).run()
    personal_table = Uniq().personalize(session).table
    template = global_template_table(personal_table.angles_deg, session.fs)
    fs = session.fs

    directions = (15.0, 50.0, 85.0, 120.0, 155.0)
    rng = np.random.default_rng(29)

    # --- Known source: the hearing aid's own calibration chime. ----------
    chime = probe_chirp(fs, duration_s=0.05)
    known_personal = KnownSourceAoAEstimator(personal_table)
    known_template = KnownSourceAoAEstimator(template)
    print("Known source (calibration chime):")
    print("  true  | personalized | global template")
    for theta in directions:
        left, right = record_far_field(listener, theta, chime, fs, rng=rng,
                                       noise_std=0.003)
        own = known_personal.estimate(left, right, chime, fs)
        other = known_template.estimate(left, right, chime, fs)
        print(f"  {theta:5.0f} | {own:12.0f} | {other:15.0f}")

    # --- Unknown source: a wideband clap from around the room. -----------
    # (Speech is the hardest unknown source — its energy concentrates at low
    # frequencies, paper Fig. 22c — so a short demo uses a wideband burst;
    # the full speech/music/noise comparison is Fig. 22 in EXPERIMENTS.md,
    # from repro.eval.fig22_aoa_unknown_source.)
    unknown_personal = UnknownSourceAoAEstimator(personal_table)
    unknown_template = UnknownSourceAoAEstimator(template)
    clap_directions = tuple(np.arange(12.0, 169.0, 18.0))
    print("\nUnknown source (a clap):")
    print("  true  | personalized | global template | front/back (P vs G)")
    fb_own = fb_other = 0
    for i, theta in enumerate(clap_directions):
        clap = white_noise(0.5, fs, rng=np.random.default_rng(100 + i))
        left, right = record_far_field(listener, theta, clap, fs, rng=rng,
                                       noise_std=0.003)
        own = unknown_personal.estimate(left, right, fs)
        other = unknown_template.estimate(left, right, fs)
        own_ok = is_front(own) == is_front(theta)
        other_ok = is_front(other) == is_front(theta)
        fb_own += own_ok
        fb_other += other_ok
        print(f"  {theta:5.0f} | {own:12.0f} | {other:15.0f} | "
              f"{'ok ' if own_ok else 'MISS'} vs {'ok' if other_ok else 'MISS'}")
    print(f"\nfront/back correct: personalized {fb_own}/{len(clap_directions)}, "
          f"global {fb_other}/{len(clap_directions)}")


if __name__ == "__main__":
    main()
