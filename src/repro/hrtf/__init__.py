"""HRIR/HRTF containers, the angle-indexed lookup table, metrics, and I/O.

The paper's application interface (Section 4.4) is a lookup table indexed by
angle theta, holding four vectors per angle: left/right near-field and
left/right far-field transfer functions.  This package provides that table
(:class:`~repro.hrtf.table.HRTFTable`), the underlying binaural
impulse-response pair container (:class:`~repro.hrtf.hrir.BinauralIR`),
the evaluation metric of Figures 18-20 (:mod:`~repro.hrtf.metrics`), npz
serialization (:mod:`~repro.hrtf.io`), and construction of the ground-truth
and global-template tables (:mod:`~repro.hrtf.reference`).
"""

from repro.hrtf.hrir import BinauralIR
from repro.hrtf.table import HRTFTable
from repro.hrtf.full_circle import signed_aoa
from repro.hrtf.metrics import hrir_correlation, table_correlations
from repro.hrtf.perceptual import perceptual_distance, table_perceptual_distance
from repro.hrtf.io import save_table, load_table, table_digest
from repro.hrtf.reference import ground_truth_table, global_template_table

__all__ = [
    "BinauralIR",
    "HRTFTable",
    "signed_aoa",
    "hrir_correlation",
    "table_correlations",
    "perceptual_distance",
    "table_perceptual_distance",
    "save_table",
    "load_table",
    "table_digest",
    "ground_truth_table",
    "global_template_table",
]
