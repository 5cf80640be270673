"""UNIQ's core pipeline: the paper's primary contribution.

Modules map one-to-one onto the system architecture of the paper's Figure 6:

- :mod:`~repro.core.localize` — acoustic phone localization given candidate
  head parameters (the inner loop of sensor fusion, Figure 10);
- :mod:`~repro.core.fusion` — Diffraction-Aware Sensor Fusion (Section 4.1);
- :mod:`~repro.core.interpolation` — near-field HRTF interpolation
  (Section 4.2);
- :mod:`~repro.core.near_far` — near-to-far HRTF conversion (Section 4.3);
- :mod:`~repro.core.aoa` — binaural AoA estimation (Section 4.5);
- :mod:`~repro.core.compensation` — engineering details (Section 4.6);
- :mod:`~repro.core.pipeline` — the end-to-end :class:`~repro.core.pipeline.Uniq`
  orchestrator producing the Section 4.4 lookup table;
- :mod:`~repro.core.rendering` — the application-side binaural renderer.
"""

from repro.core.localize import DelayMap, LocalizationCandidate
from repro.core.fusion import DiffractionAwareSensorFusion, FusionResult
from repro.core.interpolation import NearFieldInterpolator
from repro.core.near_far import NearFarConverter
from repro.core.aoa import (
    KnownSourceAoAEstimator,
    UnknownSourceAoAEstimator,
    is_front,
    train_lambda_weight,
)
from repro.core.beamforming import (
    BinauralBeamformer,
    signal_to_interference_gain,
)
from repro.core.compensation import (
    estimate_system_response,
    compensate_recording,
    check_gesture_quality,
)
from repro.core.decomposition import (
    blind_decoupling_attempt,
    decoupling_consistency,
)
from repro.core.elevation import (
    HRTFField,
    Personalization3DResult,
    SphericalPersonalizer,
    capture_rings,
)
from repro.core.pipeline import (
    CaptureSolution,
    PersonalizationResult,
    Uniq,
    UniqConfig,
    grid_from_step,
    personalize_capture,
)
from repro.core.rendering import BinauralRenderer, SpatialSource
from repro.core.triangulation import AcousticTriangulator, PoseEstimate, Speaker

__all__ = [
    "DelayMap",
    "LocalizationCandidate",
    "DiffractionAwareSensorFusion",
    "FusionResult",
    "NearFieldInterpolator",
    "NearFarConverter",
    "KnownSourceAoAEstimator",
    "UnknownSourceAoAEstimator",
    "is_front",
    "train_lambda_weight",
    "BinauralBeamformer",
    "signal_to_interference_gain",
    "estimate_system_response",
    "compensate_recording",
    "check_gesture_quality",
    "Uniq",
    "grid_from_step",
    "personalize_capture",
    "UniqConfig",
    "CaptureSolution",
    "PersonalizationResult",
    "BinauralRenderer",
    "SpatialSource",
    "blind_decoupling_attempt",
    "decoupling_consistency",
    "HRTFField",
    "Personalization3DResult",
    "SphericalPersonalizer",
    "capture_rings",
    "AcousticTriangulator",
    "PoseEstimate",
    "Speaker",
]
