"""Flat binary container for named float64 arrays.

Layout: a 4-byte little-endian header length, a compact JSON header
listing array names and shapes (sorted by name), then each array's
C-order float64 little-endian payload in header order, and nothing
after it.  Writing the same mapping twice produces byte-identical files;
reading anything else (another version, a malformed entry, a repeated
name, a short or overlong payload) raises ``DataFormatError``.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import DataFormatError
from .linalg import checked

FORMAT_NAME = "orthojac-arrays"
FORMAT_VERSION = 1


def dump_arrays(arrays: dict, meta: dict | None = None) -> bytes:
    entries = []
    payload = bytearray()
    for name in sorted(arrays):
        arr = np.ascontiguousarray(np.asarray(arrays[name], dtype=np.float64))
        entries.append({"name": name, "shape": list(arr.shape)})
        payload += arr.astype("<f8").tobytes()
    header = {"format": FORMAT_NAME, "version": FORMAT_VERSION, "arrays": entries}
    if meta:
        header["meta"] = meta
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return len(blob).to_bytes(4, "little") + blob + bytes(payload)


def save_arrays(path, arrays: dict, meta: dict | None = None) -> None:
    with open(path, "wb") as fh:
        fh.write(dump_arrays(arrays, meta))


def parse_arrays(raw: bytes):
    """Decode a container; returns (arrays, meta)."""
    if len(raw) < 4:
        raise DataFormatError(f"missing header length at byte offset 0 (file has {len(raw)} bytes)")
    header_len = int.from_bytes(raw[:4], "little")
    if len(raw) < 4 + header_len:
        raise DataFormatError(f"truncated header at byte offset 4 (expected {header_len} bytes)")
    try:
        header = json.loads(raw[4 : 4 + header_len].decode("utf-8"))
    # ValueError covers bad UTF-8, bad JSON and integers over the digit limit;
    # deeply nested JSON exhausts the recursion limit
    except (ValueError, RecursionError) as exc:
        raise DataFormatError(f"bad JSON header at byte offset 4: {exc}") from exc
    checked(header, "header at byte offset 4", "a JSON object", DataFormatError)
    if header.get("format") != FORMAT_NAME:
        raise DataFormatError(f"unknown container format {header.get('format')!r} at byte offset 4")
    if header.get("version") != FORMAT_VERSION:
        raise DataFormatError(f"unknown container version {header.get('version')!r} at byte offset 4")
    entries = header.get("arrays", [])
    if not isinstance(entries, list):
        raise DataFormatError("header 'arrays' at byte offset 4 is not a list")
    arrays = {}
    offset = 4 + header_len
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str) \
                or not isinstance(entry.get("shape"), list):
            raise DataFormatError(f"header array entry {i} needs a string 'name' and a list 'shape'")
        name, shape = entry["name"], tuple(entry["shape"])
        if not all(type(s) is int and s >= 0 for s in shape):
            raise DataFormatError(f"array {name!r} has invalid shape {list(shape)}")
        if name in arrays:
            raise DataFormatError(f"duplicate array name {name!r} in header")
        nbytes = math.prod(shape) * 8
        chunk = raw[offset : offset + nbytes]
        if len(chunk) != nbytes:
            raise DataFormatError(
                f"truncated payload for array {name!r} at byte offset {offset}"
                f" (expected {nbytes} bytes, found {len(chunk)})"
            )
        try:
            arrays[name] = np.frombuffer(chunk, dtype="<f8").astype(np.float64).reshape(shape)
        except ValueError as exc:
            # an empty array can name a dimension, or more dimensions, than numpy holds
            raise DataFormatError(
                f"array {name!r} has unsupported shape {list(shape)}: {exc}"
            ) from exc
        offset += nbytes
    if offset != len(raw):
        raise DataFormatError(
            f"{len(raw) - offset} trailing bytes after the last array at byte offset {offset}"
        )
    return arrays, checked(header.get("meta", {}), "header 'meta' at byte offset 4",
                           "a JSON object", DataFormatError)


def load_arrays(path):
    with open(path, "rb") as fh:
        raw = fh.read()
    return parse_arrays(raw)
