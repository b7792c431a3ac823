import json
import struct

import numpy as np
import pytest

from ufnd import checkpoint
from ufnd.checkpoint import (FORMAT_VERSION, MAGIC, Checkpoint,
                             load_checkpoint, save_checkpoint)
from ufnd.errors import IntegrityError, VersionError


def sample_checkpoint():
    rng = np.random.default_rng(0)
    return Checkpoint(
        config={"d_model": 16, "blocks": [1, 2]},
        tensors={
            "model/w": rng.standard_normal((3, 4)).astype(np.float32),
            "model/b": np.zeros(3, dtype=np.float32),
            "adam/w/m": rng.standard_normal((3, 4)),
            "meta/ids": np.arange(5, dtype=np.int64),
        },
        meta={"epoch": 7, "best_val_accuracy": 0.91})


class TestRoundTrip:
    def test_exact_roundtrip(self, tmp_path):
        ckpt = sample_checkpoint()
        path = tmp_path / "c.ufnd"
        save_checkpoint(ckpt, path)
        loaded = load_checkpoint(path)
        assert loaded.config == ckpt.config
        assert loaded.meta == ckpt.meta
        assert sorted(loaded.tensors) == sorted(ckpt.tensors)
        for name, arr in ckpt.tensors.items():
            np.testing.assert_array_equal(loaded.tensors[name], arr)
            assert loaded.tensors[name].dtype == arr.dtype

    def test_loaded_tensors_are_writable_and_own_their_memory(self, tmp_path):
        # Resume updates the Adam moments in place.
        path = tmp_path / "c.ufnd"
        save_checkpoint(sample_checkpoint(), path)
        tensors = load_checkpoint(path).tensors
        for arr in tensors.values():
            assert arr.flags.writeable and arr.flags.owndata
        tensors["model/w"] += 1.0
        np.testing.assert_array_equal(tensors["model/b"], np.zeros(3))

    def test_bitwise_deterministic(self, tmp_path):
        ckpt = sample_checkpoint()
        a, b = tmp_path / "a.ufnd", tmp_path / "b.ufnd"
        save_checkpoint(ckpt, a)
        save_checkpoint(ckpt, b)
        assert a.read_bytes() == b.read_bytes()

    def test_meta_properties(self, tmp_path):
        path = tmp_path / "c.ufnd"
        save_checkpoint(sample_checkpoint(), path)
        loaded = load_checkpoint(path)
        assert loaded.meta["epoch"] == 7
        assert loaded.meta["best_val_accuracy"] == 0.91

    def test_empty_tensor_dict(self, tmp_path):
        path = tmp_path / "c.ufnd"
        save_checkpoint(Checkpoint(config={}, tensors={}, meta={}), path)
        assert load_checkpoint(path).tensors == {}


class TestFormatLayout:
    def test_magic_and_version_bytes(self, tmp_path):
        path = tmp_path / "c.ufnd"
        save_checkpoint(sample_checkpoint(), path)
        blob = path.read_bytes()
        assert blob[:4] == MAGIC == b"UFND"
        version, header_len = struct.unpack("<II", blob[4:12])
        assert version == FORMAT_VERSION == 1
        assert blob[12:12 + header_len].startswith(b"{")

    def test_payload_is_little_endian_raw(self, tmp_path):
        path = tmp_path / "c.ufnd"
        arr = np.array([1.0, 2.0], dtype=">f8")  # big-endian input
        save_checkpoint(Checkpoint(config={}, tensors={"x": arr}), path)
        loaded = load_checkpoint(path).tensors["x"]
        np.testing.assert_array_equal(loaded, [1.0, 2.0])
        assert loaded.dtype.byteorder in ("<", "=")


class TestCorruption:
    def _saved(self, tmp_path):
        path = tmp_path / "c.ufnd"
        save_checkpoint(sample_checkpoint(), path)
        return path

    def test_bad_magic(self, tmp_path):
        path = self._saved(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[0] = ord("X")
        path.write_bytes(bytes(blob))
        with pytest.raises(IntegrityError, match="magic"):
            load_checkpoint(path)

    def test_payload_bit_flip_detected(self, tmp_path):
        path = self._saved(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[-10] ^= 0x01  # inside the payload, before the CRC
        path.write_bytes(bytes(blob))
        with pytest.raises(IntegrityError, match="checksum"):
            load_checkpoint(path)

    def test_truncation_detected(self, tmp_path):
        path = self._saved(tmp_path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(IntegrityError):
            load_checkpoint(path)

    def test_tiny_file(self, tmp_path):
        path = tmp_path / "c.ufnd"
        path.write_bytes(b"UF")
        with pytest.raises(IntegrityError):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        path = self._saved(tmp_path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = struct.pack("<I", 99)
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionError):
            load_checkpoint(path)

    def test_garbage_header(self, tmp_path):
        path = tmp_path / "c.ufnd"
        header = b"\xff\xfe\xfd"
        path.write_bytes(MAGIC + struct.pack("<II", 1, len(header))
                         + header + struct.pack("<I", 0))
        with pytest.raises(IntegrityError):
            load_checkpoint(path)


class TestPrefixLoad:
    def _saved(self, tmp_path):
        path = tmp_path / "c.ufnd"
        save_checkpoint(sample_checkpoint(), path)
        return path

    def test_keeps_exactly_the_prefixed_tensors(self, tmp_path):
        path = self._saved(tmp_path)
        loaded = load_checkpoint(path, prefix="model/")
        assert sorted(loaded.tensors) == ["model/b", "model/w"]
        for name, arr in loaded.tensors.items():
            np.testing.assert_array_equal(
                arr, sample_checkpoint().tensors[name])
            assert arr.flags.owndata
        assert loaded.meta == sample_checkpoint().meta
        assert load_checkpoint(path, prefix="best/").tensors == {}

    def test_flipped_byte_outside_the_prefix_is_rejected(self, tmp_path):
        path = self._saved(tmp_path)
        blob = bytearray(path.read_bytes())
        (header_len,) = struct.unpack("<I", blob[8:12])
        blob[12 + header_len] ^= 0x01  # first byte of "adam/w/m"
        path.write_bytes(bytes(blob))
        with pytest.raises(IntegrityError, match="checksum"):
            load_checkpoint(path, prefix="model/")

    def test_range_of_a_skipped_tensor_is_checked(self, tmp_path):
        path = self._saved(tmp_path)
        blob = path.read_bytes()
        (header_len,) = struct.unpack("<I", blob[8:12])
        header = json.loads(blob[12:12 + header_len])
        header["directory"][0]["offset"] = 10 ** 6  # "adam/w/m"
        new = json.dumps(header).encode("utf-8")
        path.write_bytes(blob[:8] + struct.pack("<I", len(new)) + new
                         + blob[12 + header_len:])
        with pytest.raises(IntegrityError, match="adam/w/m.*out of range"):
            load_checkpoint(path, prefix="model/")


class TestAtomicSave:
    def test_failed_write_keeps_old_file_and_no_temp(self, tmp_path,
                                                     monkeypatch):
        path = tmp_path / "c.ufnd"
        save_checkpoint(sample_checkpoint(), path)
        before = path.read_bytes()

        class FullDisk:
            """A file that takes the first 16 bytes, then runs out of
            space."""

            def __init__(self, fh):
                self.fh, self.left = fh, 16

            def write(self, data):
                if len(data) > self.left:
                    self.fh.write(data[:self.left])
                    raise OSError(28, "No space left on device")
                self.left -= len(data)
                return self.fh.write(data)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return self.fh.__exit__(*exc)

        real_open = open
        monkeypatch.setattr(checkpoint, "open",
                            lambda *a, **k: FullDisk(real_open(*a, **k)),
                            raising=False)
        changed = Checkpoint(config={"d_model": 32}, tensors={
            "model/w": np.ones((64, 64), dtype=np.float32)})
        with pytest.raises(OSError, match="No space"):
            save_checkpoint(changed, path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.ufnd"]

    def test_overwrite_leaves_only_the_new_file(self, tmp_path):
        path = tmp_path / "c.ufnd"
        path.write_bytes(b"x" * 100_000)
        save_checkpoint(sample_checkpoint(), path)
        assert load_checkpoint(path).meta == sample_checkpoint().meta
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.ufnd"]
