"""Checkpoints as plain ``np.savez`` archives, which ``np.load(path, allow_pickle=False)`` opens.

One ``.npy`` member per array, in order, and a reserved ``__meta__`` member: a 0-d string of canonical JSON
``{"kind": ..., "meta": {...}}``.  Member CRC-32s catch a flipped byte; a failed read raises ContainerError.
"""

import json
import zipfile

import numpy as np

META_KEY = "__meta__"


class ContainerError(IOError):
    """Raised when a container file is missing, truncated, corrupt or mismatched."""


def canonical_json(meta: dict) -> bytes:
    return json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")


def save_container(path, kind: str, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    """Write ``arrays`` (in the given order), ``kind`` and ``meta`` to ``path``; no suffix is added."""
    if META_KEY in arrays:
        raise ValueError(f"array name {META_KEY!r} is reserved for the metadata")
    with open(path, "wb") as fh:
        np.savez(fh, **arrays, **{META_KEY: np.array(canonical_json({"kind": kind, "meta": meta}).decode())})


def load_container(path, expect_kind: str | None = None):
    """Read a container, returning ``(kind, meta, arrays)``."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise ContainerError(f"cannot read {path}: {exc}") from exc
    with fh:
        try:
            archive = np.load(fh, allow_pickle=False)
            if isinstance(archive, np.ndarray):
                raise ContainerError(f"{path}: a bare .npy array, not an .npz archive")
            if META_KEY not in archive.files:
                raise ContainerError(f"{path}: no {META_KEY!r} entry, so not a checkpoint")
            header = json.loads(str(archive[META_KEY]))
            kind, meta = header["kind"], header["meta"]
            if expect_kind is not None and kind != expect_kind:
                raise ContainerError(f"{path}: kind {kind!r}, expected {expect_kind!r}")
            return kind, meta, {name: archive[name] for name in archive.files if name != META_KEY}
        except (EOFError, ValueError, KeyError, TypeError, zipfile.BadZipFile) as exc:
            # np.load takes the former SQSB0001 container for a pickle and refuses it
            raise ContainerError(f"{path}: not a readable .npz archive ({exc}); a damaged file, or one "
                                 "written before the .npz format, must be regenerated") from exc
