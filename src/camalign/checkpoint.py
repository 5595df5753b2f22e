"""Flat binary parameter archives.

Layout (all integers little-endian):
    magic "FTAR" | version u8 | count u32
    per record: name_len u16 | name utf-8 | ndim u8 | dims u32... | float64 data
Record order is preserved so checkpoints are byte-reproducible.
"""
from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

MAGIC = b"FTAR"
VERSION = 1


class CheckpointError(ValueError):
    """A file is not a complete, well-formed parameter archive."""


def save_params(path, params: dict) -> None:
    """``params`` maps names to float arrays (or Tensors with ``.data``); a
    float32 value widens exactly to its float64 record.

    The archive is written beside ``path`` and then renamed over it, so a
    reader sees either the previous archive or the whole new one.
    """
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<BI", VERSION, len(params)))
            for name, value in params.items():
                arr = np.asarray(getattr(value, "data", value), dtype="<f8")
                encoded = name.encode("utf-8")
                fh.write(struct.pack("<H", len(encoded)))
                fh.write(encoded)
                fh.write(struct.pack("<B", arr.ndim))
                for dim in arr.shape:
                    fh.write(struct.pack("<I", dim))
                fh.write(arr.tobytes(order="C"))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_params(path) -> dict:
    buf = Path(path).read_bytes()
    pos = 0

    def take(n: int, what: str) -> bytes:
        nonlocal pos
        if pos + n > len(buf):
            raise CheckpointError(f"{path}: truncated archive at byte {pos} (reading {what})")
        pos += n
        return buf[pos - n:pos]

    if take(4, "magic") != MAGIC:
        raise CheckpointError(f"{path}: not a parameter archive (bad magic)")
    version, count = struct.unpack("<BI", take(5, "header"))
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported archive version {version}")
    params = {}
    for index in range(count):
        (name_len,) = struct.unpack("<H", take(2, "name length"))
        try:
            name = take(name_len, "name").decode("utf-8")
        except UnicodeDecodeError as err:
            raise CheckpointError(f"{path}: record {index} name is not UTF-8 ({err.reason})") from err
        if name in params:
            raise CheckpointError(f"{path}: record {index} repeats the name {name!r}")
        (ndim,) = struct.unpack("<B", take(1, f"{name} rank"))
        shape = tuple(struct.unpack("<I", take(4, f"{name} dims"))[0] for _ in range(ndim))
        data = np.frombuffer(take(8 * math.prod(shape), f"{name} data"), dtype="<f8")
        params[name] = data.reshape(shape).astype(np.float64)
    if pos != len(buf):
        raise CheckpointError(f"{path}: {len(buf) - pos} trailing bytes after {count} records")
    return params
