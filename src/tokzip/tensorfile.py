"""Minimal binary tensor container ("TKZT").

Layout, all little-endian:

    magic   4 bytes  b"TKZT"
    version u16      currently 1
    dtype   u8       1 = float32
    ndim    u8
    dims    u32 * ndim
    payload row-major IEEE-754 float32

The format is deliberately tiny so exporters in any ML stack can emit it in
a few lines; round-trips are bitwise lossless for finite float32 payloads.
"""

import math
import os
import struct

import numpy as np

from .errors import NonFiniteValueError, ParseError

MAGIC = b"TKZT"
VERSION = 1
DTYPE_F32 = 1

_HEADER = struct.Struct("<4sHBB")


def write_tensor(path, array):
    """Write an array as a float32 TKZT file.

    A finite value beyond the float32 range raises NonFiniteValueError before
    the file is opened; NaN and inf are written as given. A C-contiguous
    little-endian float32 array is written as it is, without a copy.
    """
    with np.errstate(over="raise"):
        try:
            arr = np.ascontiguousarray(array, dtype="<f4")
        except FloatingPointError:
            raise NonFiniteValueError(f"{path}: a finite value exceeds the float32 range") from None
    with open(path, "wb") as f:
        f.write(_HEADER.pack(MAGIC, VERSION, DTYPE_F32, arr.ndim))
        f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        f.write(arr.data)


def read_tensor(path):
    """Read a TKZT file back into a float32 array.

    Raises ParseError (naming the file) for bad magic, unknown version or
    dtype, and truncated or oversized payloads.
    """
    with open(path, "rb") as f:
        header = f.read(_HEADER.size)
        if len(header) < _HEADER.size:
            raise ParseError("file shorter than the fixed header", path)
        magic, version, dtype, ndim = _HEADER.unpack(header)
        if magic != MAGIC:
            raise ParseError(f"bad magic {magic!r}, expected {MAGIC!r}", path)
        if version != VERSION:
            raise ParseError(f"unknown version {version}", path)
        if dtype != DTYPE_F32:
            raise ParseError(f"unknown dtype code {dtype}", path)
        raw_dims = f.read(4 * ndim)
        if len(raw_dims) < 4 * ndim:
            raise ParseError("truncated dims", path)
        dims = struct.unpack(f"<{ndim}I", raw_dims)
        count = math.prod(dims)  # Python ints: an int64 product can wrap to 0
        payload_len = os.fstat(f.fileno()).st_size - f.tell()
        if payload_len != 4 * count:
            raise ParseError(
                f"payload length {payload_len} does not match dims {dims} (expected {4 * count})",
                path,
            )
        arr = np.fromfile(f, dtype="<f4", count=count)
    if arr.size != count:
        raise ParseError(f"payload ended after {arr.size} of {count} values", path)
    return arr.reshape(dims)
