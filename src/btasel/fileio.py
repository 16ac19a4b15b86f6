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

Each payload byte is copied once each way.  ``read_bta`` reads the
header, then the payload straight into one array of the size the header
declares; the stacks are views of that array.  ``write_bta`` truncates
the file, then writes the header and each stack from its own memory.
Neither calls ``fsync``: nothing is promised about durability.

Read errors are distinguished: a missing or wrong magic, a payload that
ends early, and a header whose declared shape is invalid or disagrees
with the payload size each raise their own exception type.
"""

from __future__ import annotations

import math
import os
import stat
import struct

import numpy as np

from .errors import BadMagicError, ShapeInconsistencyError, TruncatedPayloadError
from .matrix import BtaMatrix, _container, stack_shapes

__all__ = [
    "read_bta",
    "write_bta",
    "read_bta_header",
    "bta_parts",
    "encode_bta",
    "decode_bta",
    "MAGIC",
    "DTYPE_COMPLEX128",
]

MAGIC = b"BTA1"
DTYPE_COMPLEX128 = 0x10
_HEADER = struct.Struct("<QQQB")
_HEADER_SIZE = len(MAGIC) + _HEADER.size


def payload_size(n: int, b: int, a: int) -> int:
    """Payload size in bytes for the given shape."""
    return 16 * sum(math.prod(shape) for shape in stack_shapes(n, b, a))


def bta_parts(m: BtaMatrix) -> list:
    """A container's ``BTA1`` bytes as parts to send or write back to
    back: the header, then each non-empty stack as a C-ordered
    little-endian array (on a little-endian host, the stack itself)."""
    head = MAGIC + _HEADER.pack(m.n, m.b, m.a, DTYPE_COMPLEX128)
    return [head, *(np.ascontiguousarray(s, dtype="<c16") for s in m.stacks if s.size)]


def encode_bta(m: BtaMatrix) -> bytearray:
    """A container's ``BTA1`` bytes: its :func:`bta_parts` joined."""
    return bytearray().join(bta_parts(m))


def write_bta(m: BtaMatrix, path) -> None:
    """Write a container losslessly; ``read_bta`` restores it bit-for-bit."""
    with open(path, "wb") as fh:
        for part in bta_parts(m):
            fh.write(part)


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


def decode_bta(raw, offset: int = 0, copy: bool = True) -> tuple[BtaMatrix, int]:
    """Decode the ``BTA1`` container at ``offset`` of ``raw``; returns it
    and the offset just past it.  Its fields are views of one decoded
    array, or with ``copy=False`` of ``raw`` itself (read-only when
    ``raw`` is ``bytes``).  Entries are not checked for finiteness."""
    n, b, a = _parse_header(raw[offset : offset + _HEADER_SIZE])
    start = offset + _HEADER_SIZE
    end = start + payload_size(n, b, a)
    if len(raw) < end:
        raise TruncatedPayloadError(
            f"payload has {len(raw) - start} bytes, header requires {end - start}"
        )
    data = np.frombuffer(raw, dtype="<c16", count=(end - start) // 16, offset=start)
    if copy:
        data = data.astype(np.complex128)
    return _container(data, n, b, a), end


def read_bta(path) -> BtaMatrix:
    """Read a ``BTA1`` file.

    The stacks are views of one array, the payload read into it directly.

    Raises
    ------
    BadMagicError, TruncatedPayloadError, ShapeInconsistencyError
        For a wrong magic, a short payload, and an invalid header, an
        oversized payload or a non-finite entry, respectively.
    """
    with open(path, "rb") as fh:
        n, b, a = _parse_header(fh.read(_HEADER_SIZE))
        size = payload_size(n, b, a)
        found = os.fstat(fh.fileno())
        # A corrupt header may declare terabytes: a regular file too short
        # for its shape fails before the payload array is allocated, and a
        # stream whose array cannot be allocated fails as truncated too.
        if stat.S_ISREG(found.st_mode) and found.st_size - _HEADER_SIZE < size:
            got = found.st_size - _HEADER_SIZE
        else:
            try:
                data = np.empty(size // 16, dtype="<c16")
            except (MemoryError, ValueError):
                raise TruncatedPayloadError(
                    f"header requires a {size}-byte payload, more than can be held"
                ) from None
            got = fh.readinto(data)
        if got < size:
            raise TruncatedPayloadError(f"payload has {got} bytes, header requires {size}")
        if fh.read(1):
            raise ShapeInconsistencyError(
                f"payload has more than {size} bytes, header requires exactly {size}"
            )
    # One pass over the payload as (real, imag) float pairs.
    if not np.isfinite(data.view("<f8")).all():
        raise ShapeInconsistencyError("payload contains non-finite entries")
    return _container(data, n, b, a)
