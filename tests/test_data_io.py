"""The .npz container: what it stores, and every way a read can fail."""

import json
import struct

import numpy as np
import pytest

from squintsbl.config import desk_config
from squintsbl.data_io import META_KEY, ContainerError, canonical_json, load_container, save_container
from squintsbl.mstep import MStepNet, load_checkpoint, save_checkpoint

PAYLOAD = np.arange(512, dtype=np.int64)


def _save(path, kind="thing", meta=None):
    save_container(path, kind, {"n": 1} if meta is None else meta, {"a": PAYLOAD, "b": np.eye(2)})
    return path


def test_round_trip_keeps_order_dtype_and_meta(tmp_path):
    path = tmp_path / "c.npz"
    arrays = {"z": np.ones(3, np.complex64), "stage0/w1": np.zeros((2, 2)), "k": np.int16(7)}
    save_container(path, "thing", {"b": [1, 2], "a": {"x": 0.5}}, arrays)
    kind, meta, back = load_container(path, expect_kind="thing")
    assert kind == "thing" and meta == {"b": [1, 2], "a": {"x": 0.5}}
    assert list(back) == list(arrays)
    for name, arr in arrays.items():
        assert back[name].dtype == np.asarray(arr).dtype
        assert np.array_equal(back[name], arr)


def test_plain_numpy_reads_the_meta_entry(tmp_path):
    path = _save(tmp_path / "c.npz", meta={"config_hash": "abc", "seed": 3})
    with np.load(path, allow_pickle=False) as npz:
        assert npz.files == ["a", "b", META_KEY]
        text = str(npz[META_KEY])
    header = json.loads(text)
    assert header == {"kind": "thing", "meta": {"config_hash": "abc", "seed": 3}}
    assert text == canonical_json(header).decode()


def test_no_suffix_is_appended(tmp_path):
    path = _save(tmp_path / "plain")
    assert path.exists() and not (tmp_path / "plain.npz").exists()


def test_meta_name_is_reserved(tmp_path):
    with pytest.raises(ValueError, match="reserved"):
        save_container(tmp_path / "c.npz", "thing", {}, {META_KEY: np.zeros(1)})


def _old_format(path):
    """A file in the former SQSB0001 layout: magic, kind, metadata, no arrays."""
    kind, meta = b"channel-dataset", canonical_json({"n_samples": 0})
    path.write_bytes(b"SQSB0001" + struct.pack("<H", len(kind)) + kind
                     + struct.pack("<Q", len(meta)) + meta + struct.pack("<I", 0))


def _flip_payload_byte(path):
    raw = bytearray(path.read_bytes())
    at = raw.find(PAYLOAD.tobytes()[8:64])
    assert at > 0
    raw[at + 3] ^= 0x10
    path.write_bytes(bytes(raw))


def _corrupt(case, path):
    if case == "missing":
        return
    if case == "empty":
        path.write_bytes(b"")
    elif case == "truncated":
        raw = _save(path).read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
    elif case == "crc":
        _flip_payload_byte(_save(path))
    elif case == "bare-npy":
        with open(path, "wb") as fh:
            np.save(fh, PAYLOAD)
    elif case == "no-meta":
        with open(path, "wb") as fh:
            np.savez(fh, a=PAYLOAD)
    elif case == "wrong-kind":
        _save(path, kind="other")
    elif case == "old-format":
        _old_format(path)


@pytest.mark.parametrize("case, match", [
    ("missing", "cannot read"),
    ("empty", "No data left in file"),
    ("truncated", "File is not a zip file"),
    ("crc", "Bad CRC-32"),
    ("bare-npy", "bare .npy array"),
    ("no-meta", f"no '{META_KEY}' entry"),
    ("wrong-kind", "kind 'other', expected 'thing'"),
    ("old-format", r"pickled \(object\) data.*written before the .npz format, must be regenerated"),
])
def test_every_load_failure_is_a_container_error(tmp_path, case, match):
    path = tmp_path / "c.npz"
    _corrupt(case, path)
    with pytest.raises(ContainerError, match=match) as info:
        load_container(path, expect_kind="thing")
    assert isinstance(info.value, IOError)


def test_checkpoint_survives_two_round_trips(tmp_path):
    """save -> load -> save -> load leaves every array and all metadata unchanged."""
    cfg = desk_config()
    net = MStepNet.create(2, np.random.default_rng(5), cfg.config_hash())
    save_checkpoint(net, tmp_path / "n1.npz", cfg)
    save_checkpoint(load_checkpoint(tmp_path / "n1.npz"), tmp_path / "n2.npz", cfg)
    kind1, meta1, arrays1 = load_container(tmp_path / "n1.npz")
    kind2, meta2, arrays2 = load_container(tmp_path / "n2.npz")
    assert (kind1, meta1) == (kind2, meta2)
    assert list(arrays1) == list(arrays2)
    for name in arrays1:
        assert arrays1[name].dtype == arrays2[name].dtype
        assert np.array_equal(arrays1[name], arrays2[name]), name
    assert np.array_equal(arrays1["stage1/w2"], net.stages[1].w2)
