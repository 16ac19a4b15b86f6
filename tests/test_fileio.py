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
from btasel.fileio import MAGIC, payload_size


@pytest.mark.parametrize(
    "shape", [(1, 1, 0), (1, 3, 2), (4, 2, 0), (3, 2, 1), (5, 4, 3), (2, 1, 5)]
)
def test_roundtrip_bitwise(tmp_path, shape):
    m = generate_dd_bta(*shape, seed=sum(shape))
    path = tmp_path / "m.bta"
    write_bta(m, path)
    again = read_bta(path)
    assert m.equals_exact(again)


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


def test_oversized_payload_is_shape_inconsistency(tmp_path):
    m = generate_dd_bta(2, 2, 0, seed=0)
    path = tmp_path / "m.bta"
    write_bta(m, path)
    path.write_bytes(path.read_bytes() + b"\x00" * 16)
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
