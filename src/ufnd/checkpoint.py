"""Binary checkpoint format.

Layout: magic "UFND", u32 format version, u32 header length, UTF-8 JSON
header (config snapshot, scalar metadata, tensor directory with name /
dtype / shape / byte offset), raw little-endian tensor payloads, and a
trailing CRC-32 of the payload region.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import IntegrityError, VersionError

MAGIC = b"UFND"
FORMAT_VERSION = 1


@dataclass
class Checkpoint:
    config: dict
    tensors: dict[str, np.ndarray]
    meta: dict = field(default_factory=dict)


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    names = sorted(ckpt.tensors)
    directory = []
    offset = 0
    payloads = []
    for name in names:
        arr = np.ascontiguousarray(ckpt.tensors[name])
        le = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
        raw = le.tobytes()
        directory.append({"name": name, "dtype": arr.dtype.str.replace(">", "<"),
                          "shape": list(arr.shape), "offset": offset,
                          "nbytes": len(raw)})
        payloads.append(raw)
        offset += len(raw)
    header = json.dumps({"config": ckpt.config, "meta": ckpt.meta,
                         "directory": directory}).encode("utf-8")
    payload = b"".join(payloads)
    # Written beside the target and renamed over it, so a crash part-way
    # leaves the old file whole.
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<II", FORMAT_VERSION, len(header)))
            fh.write(header)
            fh.write(payload)
            fh.write(struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_checkpoint(path, prefix: str = "") -> Checkpoint:
    """Read a checkpoint, keeping only the tensors whose names start with
    `prefix`.  The whole payload's checksum and every tensor's range are
    checked whatever the prefix."""
    # The file is read once; each kept tensor is copied straight out of
    # it, with no intermediate slice of the payload or of the tensor.
    with open(path, "rb") as fh:
        blob = memoryview(fh.read())
    if len(blob) < 12 or blob[:4] != MAGIC:
        raise IntegrityError(f"{path}: not a checkpoint file (bad magic)")
    version, header_len = struct.unpack("<II", blob[4:12])
    if version != FORMAT_VERSION:
        raise VersionError(
            f"{path}: format version {version}, expected {FORMAT_VERSION}")
    header_end = 12 + header_len
    if len(blob) < header_end + 4:
        raise IntegrityError(f"{path}: truncated header")
    try:
        header = json.loads(bytes(blob[12:header_end]).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise IntegrityError(f"{path}: unreadable header: {exc}") from exc
    payload = blob[header_end:-4]
    (crc_stored,) = struct.unpack("<I", blob[-4:])
    if zlib.crc32(payload) & 0xFFFFFFFF != crc_stored:
        raise IntegrityError(f"{path}: payload checksum mismatch")
    tensors = {}
    for entry in header["directory"]:
        start, nbytes = entry["offset"], entry["nbytes"]
        if start + nbytes > len(payload):
            raise IntegrityError(f"{path}: tensor '{entry['name']}' out of range")
        if not entry["name"].startswith(prefix):
            continue
        arr = np.frombuffer(payload[start:start + nbytes],
                            dtype=np.dtype(entry["dtype"]))
        tensors[entry["name"]] = arr.reshape(entry["shape"]).copy()
    return Checkpoint(config=header["config"], tensors=tensors,
                      meta=header["meta"])
