"""Deterministic binary container for named arrays.

Layout: one ASCII magic/version line, one JSON metadata line (free-form
``meta`` dict plus an ordered tensor index of name/dtype/shape), then the
raw little-endian array bytes concatenated in index order.  Writing the
same arrays and metadata twice produces byte-identical files, which the
feature cache and checkpoint round-trip tests rely on.  A write replaces the
target atomically: readers see the old file or the new one, never a part.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import secrets

import numpy as np

from .errors import FormatError

MAGIC = "prosoparse-tensors"
VERSION = 1

_DTYPES = {"<f4": np.dtype("<f4"), "<f8": np.dtype("<f8"), "<i8": np.dtype("<i8"), "|b1": np.dtype("|b1")}


def _wire_dtype(arr):
    kind = arr.dtype.kind
    if kind == "f":
        return "<f8" if arr.dtype.itemsize == 8 else "<f4"
    if kind in "iu":
        return "<i8"
    if kind == "b":
        return "|b1"
    raise FormatError(f"unsupported dtype {arr.dtype} for tensor file")


def write_tensors(path, tensors, meta=None):
    """Write ``{name: array}`` in sorted-name order with optional metadata."""
    index = []
    blobs = []
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name])
        wire = _wire_dtype(arr)
        index.append({"name": name, "dtype": wire, "shape": list(arr.shape)})
        blobs.append(arr.astype(_DTYPES[wire], copy=False).tobytes())
    header = json.dumps(
        {"meta": meta or {}, "tensors": index},
        sort_keys=True,
        separators=(",", ":"),
    )
    # written beside the target and renamed over it, so a crash mid-write
    # leaves the previous file intact
    tmp = f"{os.fspath(path)}.{secrets.token_hex(4)}.tmp"
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(f"{MAGIC} {VERSION}\n".encode("ascii"))
            fh.write(header.encode("utf-8"))
            fh.write(b"\n")
            for blob in blobs:
                fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def _check_index(path, header):
    """(meta, tensor index) of a decoded metadata line; FormatError if malformed."""
    if not isinstance(header, dict) or not isinstance(header.get("meta", {}), dict):
        raise FormatError(f"{path}: metadata line is not an object with a meta object")
    index = header.get("tensors")
    if not isinstance(index, list):
        raise FormatError(f"{path}: metadata line lacks the 'tensors' list")
    names = set()
    for entry in index:
        ok = (
            isinstance(entry, dict)
            and isinstance(entry.get("name"), str)
            and entry["name"] not in names
            and isinstance(entry.get("shape"), list)
            and all(type(n) is int and n >= 0 for n in entry["shape"])
        )
        if not ok:
            raise FormatError(f"{path}: bad tensor index entry {entry!r}")
        if entry.get("dtype") not in _DTYPES:
            raise FormatError(f"{path}: unknown dtype {entry.get('dtype')!r}")
        names.add(entry["name"])
    return header.get("meta", {}), index


def read_tensors(path):
    """Returns (meta, {name: array}); any malformed file, or a float tensor
    holding NaN or inf, raises FormatError."""
    with open(path, "rb") as fh:
        magic = fh.readline().decode("ascii", errors="replace").strip()
        parts = magic.split()
        if len(parts) != 2 or parts[0] != MAGIC:
            raise FormatError(f"{path}: not a {MAGIC} file (header {magic!r})")
        if parts[1] != str(VERSION):
            raise FormatError(f"{path}: unsupported format version {parts[1]!r}")
        try:
            header = json.loads(fh.readline().decode("utf-8"))
        except ValueError as exc:
            raise FormatError(f"{path}: bad metadata line: {exc}") from None
        meta, index = _check_index(path, header)
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        tensors = {}
        for entry in index:
            dtype = _DTYPES[entry["dtype"]]
            shape = tuple(entry["shape"])
            nbytes = math.prod(shape) * dtype.itemsize
            if nbytes > left:
                raise FormatError(f"{path}: truncated data for {entry['name']!r}")
            left -= nbytes
            raw = fh.read(nbytes)
            arr = np.frombuffer(raw, dtype=dtype).reshape(shape).copy()
            if dtype.kind == "f" and not np.isfinite(arr).all():
                raise FormatError(f"{path}: non-finite value in tensor {entry['name']!r}")
            tensors[entry["name"]] = arr
        if left:
            raise FormatError(f"{path}: {left} bytes after the last tensor")
        return meta, tensors
