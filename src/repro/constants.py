"""Physical constants and library-wide defaults.

All lengths are meters, times are seconds, frequencies are Hz, and angles in
public APIs are degrees unless a name says otherwise.  The coordinate and
angle conventions used throughout the library are documented in
:mod:`repro.geometry.head`.
"""

from __future__ import annotations

#: Speed of sound in air at ~20 C (m/s).  The paper's experiments are at room
#: temperature; all delay <-> distance conversions in the library use this.
SPEED_OF_SOUND = 343.0

#: Default sample rate for all synthesized and recorded audio (Hz).  The paper
#: records at 96 kHz; 48 kHz preserves every result shape while halving memory.
DEFAULT_SAMPLE_RATE = 48_000

#: Default IMU (gyroscope) sampling rate used by the paper's prototype (Hz).
DEFAULT_IMU_RATE = 100.0

#: Sources closer than this are "near field" (paper Section 1, footnote 1).
NEAR_FIELD_THRESHOLD_M = 1.0

#: Default far-field emulation distance used when rendering ground-truth
#: far-field HRTFs (m).  Anything beyond ~1.5 m is effectively parallel rays
#: for a ~20 cm head; 2 m matches typical lab loudspeaker placement.
DEFAULT_FAR_FIELD_DISTANCE_M = 2.0

#: Average adult head half-width (m): distance from head center to an ear.
#: Used as the population mean for the ellipse parameter ``a``.
AVERAGE_HEAD_HALF_WIDTH_M = 0.0875

#: Average front half-ellipse depth (m): head center to nose tip plane.
AVERAGE_HEAD_FRONT_DEPTH_M = 0.110

#: Average back half-ellipse depth (m): head center to the back of the head.
AVERAGE_HEAD_BACK_DEPTH_M = 0.095

#: Length of the HRIR (head related impulse response) window the library
#: estimates and stores, in seconds.  Head + pinna multipath fits well within
#: 3 ms; room reflections arrive later and are truncated away (Section 4.6).
DEFAULT_HRIR_DURATION_S = 0.003

#: Earliest plausible room-reflection arrival relative to the first tap (s).
#: Taps later than this are treated as room multipath and removed
#: (paper Section 4.6, "Tackling room reflections").
ROOM_REFLECTION_CUTOFF_S = 0.0025

#: Impulse-response window deconvolved per probe recording (s).  It covers
#: the longest plausible phone-to-ear delay (1.4 m -> ~4.1 ms) plus the
#: pinna tail; fusion's delay extraction and the near-field HRIR extraction
#: read the same window, so they share its deconvolutions.
CHANNEL_WINDOW_S = 0.012

#: Angular grid (degrees) on which HRTF tables are exported.  The paper's
#: prototype covers the left semicircle [0, 180] like its measurements.
DEFAULT_ANGLE_GRID_DEG = tuple(range(0, 181, 5))
