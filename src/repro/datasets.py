"""Dataset utilities: persist capture sessions.

A real deployment separates *capture* (seconds, on-device) from
*processing* (the UNIQ pipeline, possibly elsewhere).  This module
serializes a complete :class:`~repro.simulation.session.SessionData` —
recordings, IMU trace, probe waveform, and the evaluation-only ground truth
— into a single ``.npz``.
"""

from __future__ import annotations

import os
import zipfile
import zlib
from typing import BinaryIO

import numpy as np

from repro.errors import TableError
from repro.geometry.head import HeadGeometry
from repro.geometry.trajectory import Trajectory
from repro.simulation.imu import IMUTrace
from repro.simulation.person import VirtualSubject
from repro.simulation.pinna import PinnaModel
from repro.simulation.session import (
    ProbeMeasurement,
    SessionData,
    SessionTruth,
)

_FORMAT_VERSION = 1

_PINNA_FIELDS = (
    "base_delays",
    "delay_mod_amplitude",
    "delay_mod_order",
    "delay_mod_phase",
    "levels",
    "gain_mod_order",
    "gain_mod_phase",
)


def _subject_arrays(subject: VirtualSubject) -> dict[str, np.ndarray]:
    arrays: dict[str, np.ndarray] = {
        "subject_head": np.array(subject.head.parameters),
    }
    for side, pinna in (("left", subject.left_pinna), ("right", subject.right_pinna)):
        for field in _PINNA_FIELDS:
            arrays[f"subject_{side}_{field}"] = getattr(pinna, field)
    return arrays


def _subject_from_arrays(data, name: str) -> VirtualSubject:
    a, b, c = (float(v) for v in data["subject_head"])
    pinnae = {}
    for side in ("left", "right"):
        fields = {field: data[f"subject_{side}_{field}"].copy() for field in _PINNA_FIELDS}
        pinnae[side] = PinnaModel(**fields)
    return VirtualSubject(
        name=name,
        head=HeadGeometry(a=a, b=b, c=c),
        left_pinna=pinnae["left"],
        right_pinna=pinnae["right"],
    )


def save_session(session: SessionData, path: str | os.PathLike) -> None:
    """Write a complete session (inputs + ground truth) to one npz file."""
    probes_left = [p.left for p in session.probes]
    probes_right = [p.right for p in session.probes]
    max_len = max(rec.shape[0] for rec in probes_left + probes_right)

    def padded(recordings: list[np.ndarray]) -> np.ndarray:
        out = np.zeros((len(recordings), max_len))
        for i, rec in enumerate(recordings):
            out[i, : rec.shape[0]] = rec
        return out

    trajectory = session.truth.trajectory
    arrays: dict[str, np.ndarray] = {
        "version": np.array([_FORMAT_VERSION]),
        "fs": np.array([session.fs]),
        "probe_signal": session.probe_signal,
        "probe_times": np.array([p.time for p in session.probes]),
        "probe_lengths": np.array(
            [p.left.shape[0] for p in session.probes], dtype=int
        ),
        "probes_left": padded(probes_left),
        "probes_right": padded(probes_right),
        "imu_times": session.imu.times,
        "imu_rate_dps": session.imu.rate_dps,
        "trajectory_times": trajectory.times,
        "trajectory_angles_deg": trajectory.angles_deg,
        "trajectory_radii": trajectory.radii,
        "trajectory_facing_error_deg": trajectory.facing_error_deg,
        "probe_sample_indices": session.truth.probe_sample_indices,
        "subject_name": np.array([session.truth.subject.name]),
    }
    arrays.update(_subject_arrays(session.truth.subject))
    np.savez_compressed(os.fspath(path), **arrays)


#: What numpy raises on a capture file that is missing, unreadable,
#: truncated or corrupt (a bad CRC, a broken deflate stream, or bytes that
#: are no npz at all).
_UNREADABLE = (OSError, ValueError, EOFError, zipfile.BadZipFile, zlib.error)


def load_session(source: str | os.PathLike | BinaryIO) -> SessionData:
    """Load a session previously written by :func:`save_session`.

    ``source`` is a path or a binary file object holding the file's bytes
    (for example an :class:`io.BytesIO` of bytes already read).  A missing,
    unreadable, truncated or corrupt file raises
    :class:`repro.errors.TableError` naming it: the file object's ``name``
    when it has one.
    """
    if isinstance(source, (str, os.PathLike)):
        name = source = os.fspath(source)
    else:
        name = getattr(source, "name", "<session stream>")
    try:
        with np.load(source, allow_pickle=False) as data:
            return _session_from(data)
    except _UNREADABLE as error:
        raise TableError(f"cannot read session file {name}: {error}") from error


def _session_from(data) -> SessionData:
    try:
        version = int(data["version"][0])
        if version != _FORMAT_VERSION:
            raise TableError(f"unsupported session format version {version}")
        fs = int(data["fs"][0])
        # Every NpzFile access decompresses the whole member: read each
        # once, then slice the probes out of the arrays.
        lengths = data["probe_lengths"]
        left, right = data["probes_left"], data["probes_right"]
        probes = tuple(
            ProbeMeasurement(
                time=float(t),
                left=left[i, : lengths[i]].copy(),
                right=right[i, : lengths[i]].copy(),
            )
            for i, t in enumerate(data["probe_times"])
        )
        imu = IMUTrace(
            times=data["imu_times"].copy(),
            rate_dps=data["imu_rate_dps"].copy(),
        )
        trajectory = Trajectory(
            times=data["trajectory_times"].copy(),
            angles_deg=data["trajectory_angles_deg"].copy(),
            radii=data["trajectory_radii"].copy(),
            facing_error_deg=data["trajectory_facing_error_deg"].copy(),
        )
        subject = _subject_from_arrays(data, str(data["subject_name"][0]))
        truth = SessionTruth(
            subject=subject,
            trajectory=trajectory,
            probe_sample_indices=data["probe_sample_indices"].copy(),
        )
        return SessionData(
            fs=fs,
            probe_signal=data["probe_signal"].copy(),
            probes=probes,
            imu=imu,
            truth=truth,
        )
    except KeyError as missing:
        raise TableError(f"session file missing field {missing}") from missing
