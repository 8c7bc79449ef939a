"""Versioned weight snapshots: JSON documents of named row-major arrays.

Format version 2 stores each array as {"shape": [...], "data": "<base64>"},
where the payload is the array's row-major little-endian float64 bytes, so
values round-trip bit-exactly and a document is about 10.7 bytes per float.
Version 1 documents (decimal lists) are refused by the version guard.
"""

from __future__ import annotations

import base64
import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

FORMAT_VERSION = 2


class SnapshotError(Exception):
    """Raised for version mismatches or structurally corrupt snapshot files."""


def config_record(cfg) -> dict:
    """A config dataclass as plain JSON values: tuples become lists, enums
    their values and fractions "n/d" text."""
    return json.loads(json.dumps(asdict(cfg), default=lambda r: f"{r.numerator}/{r.denominator}"))


def tensors_to_doc(named: dict[str, np.ndarray]) -> dict:
    return {
        name: {"shape": list(arr.shape),
               "data": base64.b64encode(np.asarray(arr, dtype="<f8").tobytes()).decode("ascii")}
        for name, arr in named.items()
    }


def doc_to_tensors(doc: dict) -> dict[str, np.ndarray]:
    if not isinstance(doc, dict):
        raise SnapshotError("snapshot tensors are not an object")
    out = {}
    for name, entry in doc.items():
        # {"shape": [ints >= 0], "data": text}; `type(s) is int` refuses a bool.
        if not (isinstance(entry, dict) and set(entry) == {"shape", "data"}
                and isinstance(entry["data"], str) and isinstance(entry["shape"], list)
                and all(type(s) is int and s >= 0 for s in entry["shape"])):
            raise SnapshotError(f"snapshot entry '{name}' is not a {{shape, data}} object")
        shape = tuple(entry["shape"])
        try:
            raw = base64.b64decode(entry["data"], validate=True)
        except (TypeError, ValueError):  # binascii.Error is a ValueError
            raise SnapshotError(f"snapshot entry '{name}': data is not valid base64") from None
        expected = int(np.prod(shape)) if shape else 1
        if len(raw) != 8 * expected:
            raise SnapshotError(
                f"snapshot entry '{name}': {len(raw)} bytes for shape {shape} "
                f"(expected {8 * expected})")
        out[name] = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
    return out


def save_snapshot(path, named: dict[str, np.ndarray], extra: dict | None = None) -> None:
    doc = {"format_version": FORMAT_VERSION, "tensors": tensors_to_doc(named)}
    if extra:
        doc["extra"] = extra
    Path(path).write_text(json.dumps(doc, sort_keys=True))


def load_snapshot(path) -> tuple[dict[str, np.ndarray], dict]:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as err:
        raise SnapshotError(f"corrupt snapshot file {path}: {err}") from None
    if not isinstance(doc, dict) or "format_version" not in doc:
        raise SnapshotError(f"snapshot file {path} has no format_version field")
    if doc["format_version"] != FORMAT_VERSION:
        raise SnapshotError(
            f"snapshot file {path}: format_version {doc['format_version']} unsupported "
            f"(expected {FORMAT_VERSION})")
    extra = doc.get("extra", {})
    if not isinstance(extra, dict):
        raise SnapshotError(f"snapshot file {path}: extra is not an object")
    return doc_to_tensors(doc.get("tensors", {})), extra
