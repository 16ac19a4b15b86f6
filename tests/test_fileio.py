import os

import numpy as np
import pytest

from btasel import (
    BadMagicError,
    ShapeInconsistencyError,
    TruncatedPayloadError,
    generate_dd_bta,
    read_bta,
    read_bta_header,
    write_bta,
)
from btasel import fileio
from btasel.fileio import MAGIC, encode_bta, payload_size

SHAPES = [(1, 1, 0), (1, 3, 2), (4, 2, 0), (3, 2, 1), (5, 4, 3), (2, 1, 5)]


@pytest.mark.parametrize("shape", SHAPES)
def test_roundtrip_bitwise(tmp_path, shape):
    m = generate_dd_bta(*shape, seed=sum(shape))
    path = tmp_path / "m.bta"
    write_bta(m, path)
    assert path.read_bytes() == encode_bta(m)
    again = read_bta(path)
    assert m.equals_exact(again)


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("before", [(6, 4, 3), (1, 1, 0)], ids=["longer", "shorter"])
def test_rewrite_leaves_exactly_the_container(tmp_path, shape, before):
    path = tmp_path / "m.bta"
    write_bta(generate_dd_bta(*before, seed=1), path)
    m = generate_dd_bta(*shape, seed=sum(shape))
    write_bta(m, path)
    assert path.read_bytes() == encode_bta(m)


def test_rewrite_stopped_after_the_header_is_detected(tmp_path, monkeypatch):
    # A rewrite of the same shape that stops partway leaves a short file,
    # not old blocks behind new ones.
    m = generate_dd_bta(3, 2, 1, seed=0)
    path = tmp_path / "m.bta"
    write_bta(m, path)
    parts = fileio.bta_parts
    monkeypatch.setattr(fileio, "bta_parts", lambda m: [parts(m)[0], None])
    with pytest.raises(TypeError):
        write_bta(generate_dd_bta(3, 2, 1, seed=1), path)
    with pytest.raises(TruncatedPayloadError):
        read_bta(path)


def test_new_file_mode_follows_the_umask(tmp_path):
    old = os.umask(0o027)
    try:
        write_bta(generate_dd_bta(2, 2, 0, seed=0), tmp_path / "m.bta")
    finally:
        os.umask(old)
    assert (tmp_path / "m.bta").stat().st_mode & 0o777 == 0o666 & ~0o027


def test_stacks_of_any_layout_encode_alike(tmp_path):
    # A stack in another byte order or memory layout is written as its
    # C-ordered little-endian entries.
    m = generate_dd_bta(3, 2, 1, seed=2)
    expected = encode_bta(m)
    m.diag = np.asfortranarray(m.diag.astype(">c16"))
    m.arrow_col = m.arrow_col.transpose(0, 2, 1).copy().transpose(0, 2, 1)
    write_bta(m, tmp_path / "m.bta")
    assert encode_bta(m) == expected
    assert (tmp_path / "m.bta").read_bytes() == expected


def test_read_stacks_are_plain_arrays(tmp_path):
    m = generate_dd_bta(3, 2, 2, seed=4)
    write_bta(m, tmp_path / "m.bta")
    got = read_bta(tmp_path / "m.bta")
    for stack in got.stacks:
        assert stack.dtype == np.complex128
        assert stack.flags.c_contiguous and stack.flags.aligned and stack.flags.writeable


def test_header_layout(tmp_path):
    m = generate_dd_bta(3, 2, 1, seed=0)
    path = tmp_path / "m.bta"
    write_bta(m, path)
    raw = path.read_bytes()
    assert raw[:4] == MAGIC
    assert int.from_bytes(raw[4:12], "little") == 3
    assert int.from_bytes(raw[12:20], "little") == 2
    assert int.from_bytes(raw[20:28], "little") == 1
    assert raw[28] == 0x10
    assert len(raw) == 29 + payload_size(3, 2, 1)
    assert read_bta_header(path) == (3, 2, 1)


def test_empty_file_bad_magic(tmp_path):
    path = tmp_path / "empty.bta"
    path.write_bytes(b"")
    with pytest.raises(BadMagicError):
        read_bta(path)


def test_wrong_magic(tmp_path):
    path = tmp_path / "bad.bta"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(BadMagicError):
        read_bta(path)


def test_truncated_header(tmp_path):
    path = tmp_path / "short.bta"
    path.write_bytes(MAGIC + b"\x01\x00")
    with pytest.raises(TruncatedPayloadError):
        read_bta(path)


def test_truncated_payload(tmp_path):
    # Header declares n=2 but the payload only covers n=1 worth of blocks.
    m1 = generate_dd_bta(1, 2, 0, seed=0)
    m2 = generate_dd_bta(2, 2, 0, seed=0)
    p1, p2 = tmp_path / "one.bta", tmp_path / "two.bta"
    write_bta(m1, p1)
    write_bta(m2, p2)
    header_two = p2.read_bytes()[:29]
    payload_one = p1.read_bytes()[29:]
    forged = tmp_path / "forged.bta"
    forged.write_bytes(header_two + payload_one)
    with pytest.raises(TruncatedPayloadError):
        read_bta(forged)


@pytest.mark.parametrize("n, kept", [(2, 0), (2, -1), (2**40, 0)],
                         ids=["header-only", "one-byte-short", "terabytes-declared"])
def test_short_payload_is_truncated(tmp_path, n, kept):
    raw = encode_bta(generate_dd_bta(2, 2, 0, seed=0))
    head = MAGIC + n.to_bytes(8, "little") + raw[12:29]
    path = tmp_path / "m.bta"
    path.write_bytes(head + raw[29 : len(raw) + kept if kept else 29])
    with pytest.raises(TruncatedPayloadError):
        read_bta(path)


@pytest.mark.parametrize("n", [2**40, 2**60], ids=["memory-error", "value-error"])
def test_stream_declaring_terabytes_is_truncated(n):
    # A pipe has no size to check first: the payload array the header
    # declares cannot be allocated, and that too is a truncated payload.
    raw = encode_bta(generate_dd_bta(2, 2, 0, seed=0))
    r, w = os.pipe()
    with os.fdopen(r, "rb") as reader:
        with os.fdopen(w, "wb") as writer:
            writer.write(MAGIC + n.to_bytes(8, "little") + raw[12:64])
        with pytest.raises(TruncatedPayloadError):
            read_bta(f"/dev/fd/{reader.fileno()}")


def test_oversized_payload_is_shape_inconsistency(tmp_path):
    m = generate_dd_bta(2, 2, 0, seed=0)
    path = tmp_path / "m.bta"
    write_bta(m, path)
    path.write_bytes(path.read_bytes() + b"\x00" * 16)
    with pytest.raises(ShapeInconsistencyError):
        read_bta(path)


def test_one_trailing_byte_is_shape_inconsistency(tmp_path):
    path = tmp_path / "m.bta"
    path.write_bytes(encode_bta(generate_dd_bta(2, 2, 0, seed=0)) + b"\x00")
    with pytest.raises(ShapeInconsistencyError):
        read_bta(path)


def test_unknown_dtype_tag(tmp_path):
    m = generate_dd_bta(2, 2, 0, seed=0)
    path = tmp_path / "m.bta"
    write_bta(m, path)
    raw = bytearray(path.read_bytes())
    raw[28] = 0x42
    path.write_bytes(bytes(raw))
    with pytest.raises(ShapeInconsistencyError):
        read_bta(path)


def test_invalid_header_shape(tmp_path):
    path = tmp_path / "m.bta"
    path.write_bytes(MAGIC + (0).to_bytes(8, "little") * 3 + bytes([0x10]))
    with pytest.raises(ShapeInconsistencyError):
        read_bta(path)


def test_nonfinite_payload_rejected(tmp_path):
    m = generate_dd_bta(2, 2, 0, seed=0)
    m.diag[0][0, 0] = np.nan
    path = tmp_path / "m.bta"
    write_bta(m, path)
    with pytest.raises(ShapeInconsistencyError):
        read_bta(path)


@pytest.mark.parametrize("where", ["arrow_row", "arrow_col", "tip"])
def test_nonfinite_outside_diagonal_rejected(tmp_path, where):
    m = generate_dd_bta(3, 2, 2, seed=1)
    blk = m.tip if where == "tip" else getattr(m, where)[1]
    blk[-1, -1] = np.nan  # for the tip, the last entry of the payload
    path = tmp_path / "m.bta"
    write_bta(m, path)
    with pytest.raises(ShapeInconsistencyError):
        read_bta(path)


def test_read_blocks_do_not_alias(tmp_path):
    m = generate_dd_bta(3, 2, 2, seed=4)
    path = tmp_path / "m.bta"
    write_bta(m, path)
    got = read_bta(path)
    got.diag[0][...] = 7.0
    assert np.array_equal(got.diag[1], m.diag[1])
    assert np.array_equal(got.tip, m.tip)
    assert m.equals_exact(read_bta(path))
