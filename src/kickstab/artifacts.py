"""Deterministic artifact I/O: canonical JSON, full-precision CSV, checksums."""

from __future__ import annotations

import hashlib
import json

import numpy as np

__all__ = [
    "hash_arrays",
    "canonical_json",
    "write_json",
    "emit_series",
    "file_checksum",
]


def hash_arrays(*arrays_or_values) -> str:
    """sha256 over the raw bytes of arrays/scalars, order-sensitive."""
    h = hashlib.sha256()
    for item in arrays_or_values:
        if isinstance(item, np.ndarray):
            h.update(np.ascontiguousarray(item).tobytes())
            h.update(str(item.shape).encode())
        else:
            h.update(repr(item).encode())
    return h.hexdigest()


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def canonical_json(doc) -> str:
    """Stable serialization: sorted keys, no whitespace drift."""
    return json.dumps(_jsonable(doc), sort_keys=True, separators=(",", ":"))


def write_json(path, doc) -> str:
    text = canonical_json(doc)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
        fh.write("\n")
    return path


def _format_cell(v):
    if isinstance(v, (float, np.floating)):
        return repr(float(v))  # shortest round-trip decimal
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def emit_series(path, columns, rows) -> str:
    """Write a rectangular CSV with header, UTF-8, LF endings, exact floats."""
    columns = list(columns)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            row = list(row)
            if len(row) != len(columns):
                raise ValueError(f"row length {len(row)} != {len(columns)} columns")
            fh.write(",".join(_format_cell(v) for v in row) + "\n")
    return path


def file_checksum(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
