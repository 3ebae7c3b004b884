"""Self-describing binary container for datasets and checkpoints.

Layout (little endian throughout):

    8 bytes   magic b"SQSB0001"
    u16       container kind length, then kind bytes (ascii)
    u64       metadata length, then canonical JSON bytes (utf-8)
    u32       number of array blocks
    per block:
        u16   name length, then name bytes
        u16   dtype string length, then numpy dtype str (e.g. "<c8")
        u8    ndim
        u64*  shape
        u64   payload length, then raw C-order bytes

Metadata JSON is serialized with sorted keys and fixed separators so a
load followed by a save reproduces the file byte for byte.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

MAGIC = b"SQSB0001"


class ContainerError(IOError):
    """Raised when a container file is missing, truncated, or mismatched."""


def canonical_json(meta: dict) -> bytes:
    return json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")


def save_container(path, kind: str, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write ``arrays`` (in the given order) with ``meta`` to ``path``."""
    chunks = [MAGIC]
    kind_b = kind.encode("ascii")
    chunks.append(struct.pack("<H", len(kind_b)) + kind_b)
    meta_b = canonical_json(meta)
    chunks.append(struct.pack("<Q", len(meta_b)) + meta_b)
    chunks.append(struct.pack("<I", len(arrays)))
    for name, arr in arrays.items():
        name_b = name.encode("ascii")
        arr = np.ascontiguousarray(arr)
        dtype_b = arr.dtype.str.encode("ascii")
        payload = arr.tobytes(order="C")
        chunks.append(struct.pack("<H", len(name_b)) + name_b)
        chunks.append(struct.pack("<H", len(dtype_b)) + dtype_b)
        chunks.append(struct.pack("<B", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}Q", *arr.shape) if arr.ndim else b"")
        chunks.append(struct.pack("<Q", len(payload)) + payload)
    Path(path).write_bytes(b"".join(chunks))


def load_container(path, expect_kind: str | None = None):
    """Read a container, returning ``(kind, meta, arrays)``.

    Truncation, a bad magic, or a kind mismatch raise :class:`ContainerError`.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ContainerError(f"cannot read {path}: {exc}") from exc
    view = memoryview(raw)
    pos = 0

    def take(n: int) -> memoryview:
        nonlocal pos
        if pos + n > len(view):
            raise ContainerError(f"{path}: truncated at byte {pos}")
        out = view[pos : pos + n]
        pos += n
        return out

    if bytes(take(len(MAGIC))) != MAGIC:
        raise ContainerError(f"{path}: bad magic, not a container file")
    (kind_len,) = struct.unpack("<H", take(2))
    kind = bytes(take(kind_len)).decode("ascii")
    if expect_kind is not None and kind != expect_kind:
        raise ContainerError(f"{path}: kind {kind!r}, expected {expect_kind!r}")
    (meta_len,) = struct.unpack("<Q", take(8))
    meta = json.loads(bytes(take(meta_len)).decode("utf-8"))
    (n_arrays,) = struct.unpack("<I", take(4))
    arrays: dict[str, np.ndarray] = {}
    for _ in range(n_arrays):
        (name_len,) = struct.unpack("<H", take(2))
        name = bytes(take(name_len)).decode("ascii")
        (dtype_len,) = struct.unpack("<H", take(2))
        dtype = np.dtype(bytes(take(dtype_len)).decode("ascii"))
        (ndim,) = struct.unpack("<B", take(1))
        shape = struct.unpack(f"<{ndim}Q", take(8 * ndim)) if ndim else ()
        (payload_len,) = struct.unpack("<Q", take(8))
        expected = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize if ndim else dtype.itemsize
        if payload_len != expected:
            raise ContainerError(f"{path}: array {name!r} payload length {payload_len} != {expected}")
        arr = np.frombuffer(take(payload_len), dtype=dtype).reshape(shape).copy()
        arrays[name] = arr
    if pos != len(view):
        raise ContainerError(f"{path}: {len(view) - pos} trailing bytes")
    return kind, meta, arrays
