"""Snapshot format: base64 float64 payloads, corruption errors, version guard, size."""

import base64
import errno
import json
from pathlib import Path

import numpy as np
import pytest

from nppr.generator import build_generator
from nppr.models import Classifier, ClassifierConfig, DependencyMode, HeadConfig
from nppr.optim import Adam
from nppr.serialize import SnapshotError, config_record, load_snapshot, save_snapshot
from nppr.trainer import RunState, TrainConfig, save_checkpoint
from nppr.upsample import UpsamplerConfig


def _write(path, tensors, version=2):
    path.write_text(json.dumps({"format_version": version, "tensors": tensors}))


def test_extreme_values_roundtrip_bit_exact(tmp_path):
    values = np.array([[-0.0, 5e-324], [1e308, -1.0 / 3.0]])
    path = tmp_path / "s.json"
    save_snapshot(path, {"w": values})
    back, _ = load_snapshot(path)
    assert back["w"].shape == (2, 2)
    assert back["w"].tobytes() == values.tobytes()


def test_failed_write_keeps_the_previous_snapshot(tmp_path, monkeypatch):
    # The second save runs out of space half-way through its document: the
    # first snapshot still loads, and no partial file is left beside it.
    path = tmp_path / "ckpt_latest.json"
    first = np.arange(6.0).reshape(2, 3)
    save_snapshot(path, {"w": first}, extra={"epoch_next": 1})
    real = Path.write_text

    def out_of_space(self, text, *args, **kwargs):
        real(self, text[:len(text) // 2], *args, **kwargs)
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(Path, "write_text", out_of_space)
    with pytest.raises(OSError, match="No space left"):
        save_snapshot(path, {"w": first + 1.0}, extra={"epoch_next": 2})
    named, extra = load_snapshot(path)
    assert named["w"].tobytes() == first.tobytes() and extra == {"epoch_next": 1}
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def test_bad_base64_rejected(tmp_path):
    path = tmp_path / "s.json"
    _write(path, {"w": {"shape": [1], "data": "not base64!"}})
    with pytest.raises(SnapshotError, match="'w'.*base64"):
        load_snapshot(path)


def test_short_payload_rejected(tmp_path):
    path = tmp_path / "s.json"
    _write(path, {"w": {"shape": [2], "data": base64.b64encode(b"\0" * 8).decode()}})
    with pytest.raises(SnapshotError, match="'w': 8 bytes for shape"):
        load_snapshot(path)


def test_overflowing_shape_rejected(tmp_path):
    # 2**32 * 2**32 wraps to 0 in int64, which an empty payload would match.
    path = tmp_path / "s.json"
    _write(path, {"w": {"shape": [2 ** 32, 2 ** 32], "data": ""}})
    with pytest.raises(SnapshotError, match="'w': 0 bytes for shape"):
        load_snapshot(path)


_EIGHT_BYTES = base64.b64encode(b"\0" * 8).decode()


@pytest.mark.parametrize("entry", [
    [1.0], {"shape": [1]}, {"shape": [1], "data": _EIGHT_BYTES, "dtype": "f8"},
    {"shape": 1, "data": _EIGHT_BYTES}, {"shape": [1.5], "data": _EIGHT_BYTES},
    {"shape": [-1], "data": _EIGHT_BYTES}, {"shape": [True], "data": _EIGHT_BYTES},
    {"shape": [1], "data": [0.0]},
], ids=["list", "no_data", "extra_key", "scalar_shape", "float_dim", "negative_dim",
        "bool_dim", "list_data"])
def test_malformed_entry_rejected(tmp_path, entry):
    path = tmp_path / "s.json"
    _write(path, {"w": entry})
    with pytest.raises(SnapshotError, match="'w' is not a {shape, data} object"):
        load_snapshot(path)


def test_tensors_not_an_object_rejected(tmp_path):
    path = tmp_path / "s.json"
    _write(path, [{"shape": [1], "data": _EIGHT_BYTES}])
    with pytest.raises(SnapshotError, match="tensors are not an object"):
        load_snapshot(path)


def test_extra_not_an_object_rejected(tmp_path):
    path = tmp_path / "s.json"
    path.write_text(json.dumps({"format_version": 2, "tensors": {}, "extra": ["kind"]}))
    with pytest.raises(SnapshotError, match="extra is not an object"):
        load_snapshot(path)


def test_v1_decimal_document_refused(tmp_path):
    path = tmp_path / "s.json"
    _write(path, {"w": {"shape": [2], "data": [0.5, 1.5]}}, version=1)
    with pytest.raises(SnapshotError, match="format_version 1 unsupported"):
        load_snapshot(path)


def test_desk_checkpoint_stays_binary(tmp_path):
    # A joint generator at the desk shapes (K=7, D=16) with dense Adam moments.
    # Base64 float64 needs about 10.7 bytes per float, decimal text about 15.
    clf = Classifier(ClassifierConfig(input_dim=16, num_classes=10, hidden=(32,)), seed=0)
    gen = build_generator(clf, HeadConfig(mode=DependencyMode.JOINT, K=7, latent_dim=16),
                          UpsamplerConfig(mode="linear_vector"), seed=0)
    opt = Adam(gen.params(), lr=1e-3)
    rng = np.random.default_rng(0)
    for p in gen.params():
        p.grad = rng.normal(size=p.data.shape)
    opt.step()
    path = tmp_path / "ckpt_latest.json"
    save_checkpoint(gen, path, opt, RunState(config_record(TrainConfig())))
    named, _ = load_snapshot(path)
    floats = sum(arr.size for arr in named.values())
    assert floats > 100_000
    assert path.stat().st_size <= 12 * floats
