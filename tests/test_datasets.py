"""Tests for session serialization."""

import io
import json
from collections import Counter

import numpy as np
import pytest

from repro.datasets import load_session, save_session
from repro.errors import TableError
from repro.core.fusion import DiffractionAwareSensorFusion


class TestSessionRoundtrip:
    def test_roundtrip_preserves_inputs(self, small_session, tmp_path):
        path = tmp_path / "session.npz"
        save_session(small_session, path)
        loaded = load_session(path)
        assert loaded.fs == small_session.fs
        assert loaded.n_probes == small_session.n_probes
        np.testing.assert_allclose(loaded.probe_signal, small_session.probe_signal)
        np.testing.assert_allclose(
            loaded.probes[3].left, small_session.probes[3].left
        )
        np.testing.assert_allclose(loaded.imu.rate_dps, small_session.imu.rate_dps)

    def test_roundtrip_preserves_truth(self, small_session, tmp_path):
        path = tmp_path / "session.npz"
        save_session(small_session, path)
        loaded = load_session(path)
        assert (
            loaded.truth.subject.head.parameters
            == small_session.truth.subject.head.parameters
        )
        np.testing.assert_allclose(
            loaded.truth.probe_angles_deg(),
            small_session.truth.probe_angles_deg(),
        )
        np.testing.assert_allclose(
            loaded.truth.subject.left_pinna.base_delays,
            small_session.truth.subject.left_pinna.base_delays,
        )

    def test_loaded_session_is_processable(self, small_session, tmp_path):
        """The pipeline runs identically on a reloaded capture."""
        path = tmp_path / "session.npz"
        save_session(small_session, path)
        loaded = load_session(path)
        fusion = DiffractionAwareSensorFusion()
        t_orig = fusion.extract_probe_delays(small_session)
        t_load = fusion.extract_probe_delays(loaded)
        np.testing.assert_allclose(t_load[0], t_orig[0])
        np.testing.assert_allclose(t_load[1], t_orig[1])

    def test_reads_each_member_once(self, small_session, tmp_path, monkeypatch):
        """Every NpzFile access decompresses the whole member: at most one each."""
        assert len({p.left.shape[0] for p in small_session.probes}) > 1
        path = tmp_path / "session.npz"
        save_session(small_session, path)
        reads = Counter()
        read_member = np.lib.npyio.NpzFile.__getitem__

        def counting(self, key):
            reads[key] += 1
            return read_member(self, key)

        monkeypatch.setattr(np.lib.npyio.NpzFile, "__getitem__", counting)
        loaded = load_session(path)
        assert reads["probes_left"] == reads["probes_right"] == 1
        assert max(reads.values()) == 1, reads
        assert loaded.n_probes == small_session.n_probes
        for got, want in zip(loaded.probes, small_session.probes):
            assert got.time == want.time
            assert np.array_equal(got.left, want.left)
            assert np.array_equal(got.right, want.right)

    def test_missing_field_raises(self, tmp_path):
        path = tmp_path / "bad.npz"
        np.savez(path, version=np.array([1]))
        with pytest.raises(TableError):
            load_session(path)



class TestUnreadableCapture:
    """A capture that cannot be read is a job failure, not a crash."""

    @pytest.fixture(scope="class")
    def saved(self, small_session, tmp_path_factory):
        path = tmp_path_factory.mktemp("capture") / "session.npz"
        save_session(small_session, path)
        return path.read_bytes()

    def _damaged(self, tmp_path, data):
        path = tmp_path / "damaged.npz"
        path.write_bytes(data)
        return path

    def test_garbage_bytes(self, tmp_path):
        path = self._damaged(tmp_path, b"not a capture at all " * 100)
        with pytest.raises(TableError, match=str(path)):
            load_session(path)

    def test_truncated_file(self, tmp_path, saved):
        path = self._damaged(tmp_path, saved[: len(saved) // 2])
        with pytest.raises(TableError, match=str(path)):
            load_session(path)

    def test_one_flipped_byte(self, tmp_path, saved):
        data = bytearray(saved)
        data[len(data) // 2] ^= 0xFF
        path = self._damaged(tmp_path, bytes(data))
        with pytest.raises(TableError, match=str(path)):
            load_session(path)

    def test_missing_file(self, tmp_path):
        path = tmp_path / "absent.npz"
        with pytest.raises(TableError, match=str(path)):
            load_session(path)

    def test_file_object_is_named_by_its_name(self, saved):
        buffer = io.BytesIO(saved[:100])
        buffer.name = "captures/listener.npz"
        with pytest.raises(TableError, match="captures/listener.npz"):
            load_session(buffer)

    def test_file_object_loads_like_the_path(self, small_session, saved):
        loaded = load_session(io.BytesIO(saved))
        assert loaded.n_probes == small_session.n_probes
        for got, want in zip(loaded.probes, small_session.probes):
            assert np.array_equal(got.left, want.left)
            assert np.array_equal(got.right, want.right)
