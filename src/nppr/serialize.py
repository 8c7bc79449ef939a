"""Versioned weight snapshots: JSON documents of named row-major arrays.

Format version 2 stores each array as {"shape": [...], "data": "<base64>"},
where the payload is the array's row-major little-endian float64 bytes, so
values round-trip bit-exactly and a document is about 10.7 bytes per float.
Version 1 documents (decimal lists) are refused by the version guard.

Every record read from disk (the configs, `RobustnessReport`, `RunState`) is
held to field rules that live here: a kind (the default's type unless
`checked` names one) and an optional check, applied by `value_error` to a
document key and by `check_fields` in a `__post_init__`.
"""

from __future__ import annotations

import base64
import json
import math
import os
from dataclasses import MISSING, asdict, field, fields
from pathlib import Path

import numpy as np

FORMAT_VERSION = 2


class SnapshotError(Exception):
    """Raised for version mismatches or structurally corrupt snapshot files."""


def config_record(cfg) -> dict:
    """A config dataclass as plain JSON values: tuples become lists, enums
    their values and fractions "n/d" text."""
    return json.loads(json.dumps(asdict(cfg), default=lambda r: f"{r.numerator}/{r.denominator}"))


def checked(default=MISSING, check=None, kind=None):
    """A dataclass field of `kind` (named if it has no default) whose values
    pass `check`, which returns the reason a value of that kind fails, or None."""
    return field(default=default, metadata={"kind": kind, "check": check})


def field_rule(f) -> tuple:
    """(kind, check) of a dataclass field; one whose default is None also accepts None."""
    kind, check = f.metadata.get("kind"), f.metadata.get("check")
    if f.default is None:
        return None, lambda v: None if v is None else value_error(v, kind, check)
    return kind or (None if f.default is MISSING else type(f.default)), check


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def value_error(value, kind=None, check=None) -> str | None:
    """Why `value` breaks the rule, or None. An int counts as a float, a bool
    is not an int, a float must be finite (an int, fit in a float) and a
    tuple is given as a list."""
    if kind is tuple:
        kind, ok = list, isinstance(value, (list, tuple))
    elif kind is int:
        ok = _is_int(value)
    elif kind is float:
        ok = _is_int(value) or isinstance(value, float)
    else:
        ok = kind is None or isinstance(value, kind)
    if not ok:
        return f"expected {kind.__name__}, got {type(value).__name__}"
    if kind is float and not finite(value):
        return f"must be finite, got {value}" if isinstance(value, float) else "must fit in a float"
    return check(value) if check is not None else None


def finite(value) -> bool:
    """Whether a number is finite as a float; an int beyond its range is not."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def check_fields(cfg) -> None:
    """Raise ValueError naming the first field of `cfg` that breaks its rule."""
    for f in fields(cfg):
        err = value_error(getattr(cfg, f.name), *field_rule(f))
        if err:
            raise ValueError(f"{type(cfg).__name__}.{f.name}: {err}")


def positive(value):
    return None if value > 0 else "must be > 0"


def at_least(minimum):
    return lambda v: None if v >= minimum else f"must be >= {minimum}"


def rate(value):
    """A probability, up to 1e-9 of round-off."""
    return None if -1e-9 <= value <= 1.0 + 1e-9 else f"{value} outside [0, 1]"


def one_of(options):
    return lambda v: None if v in options else f"must be one of {sorted(options)}"


def positive_int(value) -> bool:
    return _is_int(value) and value >= 1


def grid(form: str):
    def check(value):
        if not (isinstance(value, (list, tuple)) and len(value) == 3):
            return f"must be {form}"
        return None if all(positive_int(v) for v in value) else f"must be {form} of positive ints"
    return check


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
        expected = math.prod(shape)
        if len(raw) != 8 * expected:
            raise SnapshotError(
                f"snapshot entry '{name}': {len(raw)} bytes for shape {shape} "
                f"(expected {8 * expected})")
        out[name] = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
    return out


def save_snapshot(path, named: dict[str, np.ndarray], extra: dict | None = None) -> None:
    """Written to a sibling temporary file, then moved onto `path`: a failed
    write leaves the previous snapshot whole and no temporary file."""
    doc = {"format_version": FORMAT_VERSION, "tensors": tensors_to_doc(named)}
    if extra:
        doc["extra"] = extra
    tmp = Path(f"{path}.tmp")
    try:
        tmp.write_text(json.dumps(doc, sort_keys=True))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_snapshot(path) -> tuple[dict[str, np.ndarray], dict]:
    try:
        doc = json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
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
