"""Bit-exact binary serialization (format ``BTA1``).

Layout, all little-endian, no padding or compression::

    bytes 0..3    magic b"BTA1"
    u64           n
    u64           b
    u64           a
    u8            dtype tag (0x10 = complex128)
    payload       raw blocks, row-major, each complex as (real f64, imag f64),
                  in order diag[0..n), lower[0..n-1), upper[0..n-1),
                  arrow_row[0..n), arrow_col[0..n), tip

Read errors are distinguished: a missing or wrong magic, a payload that
ends early, and a header whose declared shape is invalid or disagrees
with the payload size each raise their own exception type.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from .errors import BadMagicError, ShapeInconsistencyError, TruncatedPayloadError
from .matrix import BtaMatrix, stack_shapes

__all__ = ["read_bta", "write_bta", "read_bta_header", "MAGIC", "DTYPE_COMPLEX128"]

MAGIC = b"BTA1"
DTYPE_COMPLEX128 = 0x10
_HEADER = struct.Struct("<QQQB")
_HEADER_SIZE = len(MAGIC) + _HEADER.size


def payload_size(n: int, b: int, a: int) -> int:
    """Payload size in bytes for the given shape."""
    return 16 * sum(math.prod(shape) for shape in stack_shapes(n, b, a))


def write_bta(m: BtaMatrix, path) -> None:
    """Write a container losslessly; ``read_bta`` restores it bit-for-bit."""
    # The six stacks flattened in C order into one buffer: a single write.
    payload = np.concatenate(m.stacks, axis=None, dtype="<c16")
    with open(Path(path), "wb") as fh:
        fh.write(MAGIC + _HEADER.pack(m.n, m.b, m.a, DTYPE_COMPLEX128))
        fh.write(payload)


def read_bta_header(path) -> tuple[int, int, int]:
    """Read and validate only the header; returns ``(n, b, a)``."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER_SIZE)
    return _parse_header(head)


def _parse_header(head: bytes) -> tuple[int, int, int]:
    if len(head) < len(MAGIC) or head[: len(MAGIC)] != MAGIC:
        raise BadMagicError(f"bad magic: expected {MAGIC!r}, got {head[:4]!r}")
    if len(head) < _HEADER_SIZE:
        raise TruncatedPayloadError("file ends inside the header")
    n, b, a, tag = _HEADER.unpack(head[len(MAGIC) : _HEADER_SIZE])
    if tag != DTYPE_COMPLEX128:
        raise ShapeInconsistencyError(f"unknown dtype tag 0x{tag:02x}")
    if n < 1 or b < 1:
        raise ShapeInconsistencyError(f"invalid shape in header (n={n}, b={b}, a={a})")
    return n, b, a


def read_bta(path) -> BtaMatrix:
    """Read a ``BTA1`` file.

    Raises
    ------
    BadMagicError, TruncatedPayloadError, ShapeInconsistencyError
        For a wrong magic, a short payload, and an invalid header or
        oversized payload, respectively.
    """
    path = Path(path)
    raw = path.read_bytes()
    n, b, a = _parse_header(raw[:_HEADER_SIZE])
    expected = payload_size(n, b, a)
    size = len(raw) - _HEADER_SIZE
    if size < expected:
        raise TruncatedPayloadError(f"payload has {size} bytes, header requires {expected}")
    if size > expected:
        raise ShapeInconsistencyError(
            f"payload has {size} bytes, header requires exactly {expected}"
        )
    # One decode and one finiteness check; the fields are views of it.
    data = np.frombuffer(raw, dtype="<c16", offset=_HEADER_SIZE).astype(np.complex128)
    if not np.isfinite(data).all():
        raise ShapeInconsistencyError("payload contains non-finite entries")
    shapes = stack_shapes(n, b, a)
    parts = np.split(data, np.cumsum([math.prod(shape) for shape in shapes])[:-1])
    return BtaMatrix(n, b, a, *(p.reshape(shape) for p, shape in zip(parts, shapes)))
