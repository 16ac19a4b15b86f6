import hashlib

import numpy as np
import pytest

from btasel import (
    BtaMatrix,
    ShapeMismatchError,
    generate_dd_bta,
    hermitianize,
    mask_to_pattern,
    read_bta,
    solve_selected,
    to_dense,
    write_bta,
)
from btasel.matrix import stack_shapes


def _pattern_mask(n, b, a):
    total = n * b + a
    mask = np.zeros((total, total), dtype=bool)
    for i in range(n):
        mask[i * b : (i + 1) * b, i * b : (i + 1) * b] = True
        if i < n - 1:
            mask[(i + 1) * b : (i + 2) * b, i * b : (i + 1) * b] = True
            mask[i * b : (i + 1) * b, (i + 1) * b : (i + 2) * b] = True
        if a:
            mask[n * b :, i * b : (i + 1) * b] = True
            mask[i * b : (i + 1) * b, n * b :] = True
    if a:
        mask[n * b :, n * b :] = True
    return mask


class TestGenerator:
    def test_one_by_one_dominance_forces_modulus(self):
        for seed in range(5):
            m = generate_dd_bta(1, 1, 0, seed=seed)
            assert abs(m.diag[0][0, 0]) > 1.0

    def test_pattern_zeros(self):
        m = generate_dd_bta(3, 2, 1, seed=3)
        dense = to_dense(m)
        assert dense.shape == (7, 7)
        mask = _pattern_mask(3, 2, 1)
        assert np.all(dense[~mask] == 0)
        for idx in [(0, 4), (0, 5), (4, 0), (5, 0)]:
            assert dense[idx] == 0

    def test_condition_number_bounded(self):
        m = generate_dd_bta(8, 16, 4, seed=42)
        cond = np.linalg.cond(to_dense(m))
        assert cond < 1e3

    def test_determinism_bitwise(self):
        m1 = generate_dd_bta(4, 3, 2, seed=7)
        m2 = generate_dd_bta(4, 3, 2, seed=7)
        assert m1.equals_exact(m2)

    def test_seed_changes_matrix(self):
        m1 = generate_dd_bta(4, 3, 2, seed=7)
        m2 = generate_dd_bta(4, 3, 2, seed=8)
        assert not m1.equals_exact(m2)

    def test_dd_certificate_every_row(self):
        m = generate_dd_bta(5, 3, 2, seed=11)
        dense = to_dense(m)
        diag = np.abs(np.diagonal(dense))
        off = np.abs(dense).sum(axis=1) - diag
        assert np.all(diag > off)

    def test_bt_blocks_unaffected_by_arrow_stream(self):
        # Stream order fills diag/lower/upper first, so the BT blocks of
        # an arrowhead instance match the plain BT instance except for
        # the dominance shift on the diagonal entries.
        bt = generate_dd_bta(4, 3, 0, seed=5)
        bta = generate_dd_bta(4, 3, 3, seed=5)
        for x, y in zip(bt.lower, bta.lower):
            np.testing.assert_array_equal(x, y)
        for x, y in zip(bt.upper, bta.upper):
            np.testing.assert_array_equal(x, y)
        for x, y in zip(bt.diag, bta.diag):
            off = ~np.eye(3, dtype=bool)
            np.testing.assert_array_equal(x[off], y[off])

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            generate_dd_bta(0, 2, 0, seed=1)
        with pytest.raises(ValueError):
            generate_dd_bta(2, 2, 0, seed=1, dominance=0.5)


class TestDenseBridges:
    def test_identity_expansion(self):
        m = BtaMatrix.identity(3, 2, 2)
        np.testing.assert_array_equal(to_dense(m), np.eye(8))

    def test_explicit_two_block(self):
        m = BtaMatrix(2, 1, 0, [[[2.0]], [[2.0]]], [[[1.0]]], [[[1.0]]])
        np.testing.assert_array_equal(to_dense(m), [[2, 1], [1, 2]])

    @pytest.mark.parametrize("shape", [(1, 1, 0), (3, 2, 1), (5, 4, 3), (2, 3, 0)])
    def test_mask_roundtrip_identity(self, shape):
        m = generate_dd_bta(*shape, seed=13)
        again = mask_to_pattern(to_dense(m), shape)
        assert m.equals_exact(again)

    def test_mask_zero(self):
        out = mask_to_pattern(np.zeros((7, 7)), (3, 2, 1))
        assert all(np.all(blk == 0) for _, _, blk in out.pattern_blocks())

    def test_mask_discards_off_pattern(self):
        dense = np.zeros((7, 7), dtype=complex)
        dense[0, 4] = 3.14  # off-pattern for (3, 2, 1)
        out = mask_to_pattern(dense, (3, 2, 1))
        assert all(np.all(blk == 0) for _, _, blk in out.pattern_blocks())

    def test_mask_selected_inverse(self):
        m = generate_dd_bta(4, 2, 1, seed=17)
        inv = np.linalg.inv(to_dense(m))
        sel = mask_to_pattern(inv, m.shape_params)
        n, b, a = m.shape_params
        np.testing.assert_array_equal(sel.diag[1], inv[b : 2 * b, b : 2 * b])
        np.testing.assert_array_equal(sel.tip, inv[n * b :, n * b :])

    def test_mask_size_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            mask_to_pattern(np.zeros((6, 6)), (3, 2, 1))


class TestHermitianize:
    def test_fixed_point(self):
        m = generate_dd_bta(3, 2, 2, seed=23)
        h = hermitianize(m)
        again = hermitianize(h)
        assert h.equals_exact(again)

    def test_skew_diagonal_vanishes(self):
        m = BtaMatrix.zeros(2, 2, 0)
        for blk in m.diag:
            blk += 1j * np.eye(2)
        h = hermitianize(m)
        assert all(np.all(blk == 0) for _, _, blk in h.pattern_blocks())

    def test_matches_dense_hermitization(self):
        m = generate_dd_bta(4, 3, 2, seed=29)
        dense = to_dense(m)
        expected = mask_to_pattern((dense + dense.conj().T) / 2, m.shape_params)
        assert hermitianize(m).equals_exact(expected)

    def test_structure_flags(self):
        h = hermitianize(generate_dd_bta(3, 2, 2, seed=31))
        for i in range(2):
            np.testing.assert_array_equal(h.upper[i], h.lower[i].conj().T)
        for i in range(3):
            np.testing.assert_array_equal(h.arrow_col[i], h.arrow_row[i].conj().T)
        np.testing.assert_array_equal(h.tip, h.tip.conj().T)


class TestContainer:
    def test_shape_validation(self):
        with pytest.raises(ShapeMismatchError):
            BtaMatrix(2, 2, 0, [np.eye(2)], [np.eye(2)], [np.eye(2)])
        with pytest.raises(ShapeMismatchError):
            BtaMatrix(2, 2, 0, [np.eye(2), np.eye(3)], [np.eye(2)], [np.eye(2)])

    def test_copy_is_deep(self):
        m = generate_dd_bta(3, 2, 1, seed=37)
        c = m.copy()
        c.diag[0][0, 0] = 999.0
        assert m.diag[0][0, 0] != 999.0

    def test_total_size(self):
        assert generate_dd_bta(3, 2, 1, seed=1).total_size == 7


def _sha256(m, tmp_path):
    path = tmp_path / "m.bta"
    write_bta(m, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestStackedStorage:
    # SHA-256 of the BTA1 bytes.  The generator and ``hermitianize`` pins
    # were written by the list-of-blocks storage this layout replaced; the
    # solver pins by the pivot kernel that inverts with zgetrf + zgetri.
    # Neither storage nor a refactor may change a bit.
    GENERATED = {
        (1, 1, 0): "b4764d7070cd06a65263e2dc5d45d2c67a9b81a16b2b54ba3d7095c1fa8db291",
        (7, 3, 2): "da7460034a799df8886dd73ca2ac9c9d3272f30a8d28c7455bdadd6685c5ab22",
        (256, 4, 0): "f2b0a43946452ba18609acbf43e223405857c7994bfe5542ea0b67c39f91715f",
    }
    HERMITIANIZED = {
        (1, 1, 0): "f3c9e74464dff5bae8666833556eadc644b29576e56e2a232c455cd5da15b3fc",
        (7, 3, 2): "2dfa92e621ac9dba428ae4202c3eae834908195e7b6ec4a8ed00572029adeaa4",
        (256, 4, 0): "640a75868dc103e3c7d0d48d88855f96baee9f8c873139755afb54cb09b16f7b",
    }
    SOLVED = {
        "si x_a": "a7c5531fe80b5da7a6c1f1b517673240f394f5c4da6cae16afdf6cd74c9b0ddb",
        "siq x_a": "654f6752ae12831dfdf5dff7364ffe062812b1624b3a9c9103707fcbe7d4ba93",
        "siq x_b": "a2bf5ad10acedb7ce32b8be67cca677e8a98683fc27279c841cd120a775ffa08",
    }

    @pytest.mark.parametrize("shape", sorted(GENERATED))
    def test_generator_bits_pinned(self, tmp_path, shape):
        assert _sha256(generate_dd_bta(*shape, seed=11), tmp_path) == self.GENERATED[shape]
        rhs = hermitianize(generate_dd_bta(*shape, seed=12))
        assert _sha256(rhs, tmp_path) == self.HERMITIANIZED[shape]

    def test_solver_bits_pinned(self, tmp_path):
        a = generate_dd_bta(7, 3, 2, seed=11)
        rhs = hermitianize(generate_dd_bta(7, 3, 2, seed=12))
        si, siq = solve_selected(a), solve_selected(a, rhs)
        got = {
            "si x_a": _sha256(si.x_a, tmp_path),
            "siq x_a": _sha256(siq.x_a, tmp_path),
            "siq x_b": _sha256(siq.x_b, tmp_path),
        }
        assert got == self.SOLVED

    # The plain BT path (a=0) of the fused solve, pinned at the shapes of
    # a small case and of the negf-bt-small workload.
    SOLVED_BT = {
        (7, 3, 0): (
            "6713bdbf51ca2799bf1d345be6c4456a6c190da1035ad4f21c89812a1108b138",
            "32165c5c04c5ce3fa21cd23542abd86c1d2dd9f369a3761b5e9d15984adcebff",
        ),
        (256, 4, 0): (
            "d703d0d46cd5c8e7732c57ed029e4a56fb4f045bd7282928f18c78884291dca9",
            "aaf1c879f553c8fd0fba9bdda646fee966d58c62a8253f416d3a46b6f8b65565",
        ),
    }

    @pytest.mark.parametrize("shape", sorted(SOLVED_BT))
    def test_bt_solver_bits_pinned(self, tmp_path, shape):
        a = generate_dd_bta(*shape, seed=11)
        rhs = hermitianize(generate_dd_bta(*shape, seed=12))
        siq = solve_selected(a, rhs)
        got = (_sha256(siq.x_a, tmp_path), _sha256(siq.x_b, tmp_path))
        assert got == self.SOLVED_BT[shape]

    @pytest.mark.parametrize("shape", [(1, 3, 0), (1, 2, 2), (4, 3, 0), (5, 2, 3)])
    def test_fields_are_contiguous_stacks(self, tmp_path, shape):
        m = generate_dd_bta(*shape, seed=3)
        write_bta(m, tmp_path / "m.bta")
        made = [
            m,
            m.copy(),
            BtaMatrix.zeros(*shape),
            BtaMatrix.identity(*shape),
            hermitianize(m),
            mask_to_pattern(to_dense(m), shape),
            read_bta(tmp_path / "m.bta"),
            solve_selected(m, m).x_b,
        ]
        for x in made:
            for name, shape_i in zip(BtaMatrix.FIELDS, stack_shapes(*shape)):
                field = getattr(x, name)
                assert field.shape == shape_i, name
                assert field.dtype == np.complex128, name
                assert field.flags.c_contiguous, name

    def test_copy_shares_no_memory(self):
        m = generate_dd_bta(4, 3, 2, seed=5)
        c = m.copy()
        assert c.equals_exact(m)
        for name in BtaMatrix.FIELDS:
            assert not np.shares_memory(getattr(c, name), getattr(m, name)), name

    def test_copy_shares_only_the_named_fields(self):
        m = generate_dd_bta(4, 3, 2, seed=5)
        c = m.copy(share=("lower", "upper"))
        assert c.equals_exact(m)
        for name in BtaMatrix.FIELDS:
            shared = getattr(c, name) is getattr(m, name)
            assert shared == (name in ("lower", "upper")), name

    def test_mask_to_pattern_copies(self):
        # A single-entry tip or arrow strip of a 1x1-block dense array is
        # contiguous; it must still be copied out.
        dense = np.arange(4, dtype=complex).reshape(2, 2)
        m = mask_to_pattern(dense, (1, 1, 1))
        for name in BtaMatrix.FIELDS:
            assert not np.shares_memory(getattr(m, name), dense), name

    def test_blocks_and_stacks_build_equal_containers(self):
        m = generate_dd_bta(5, 3, 2, seed=9)
        from_blocks = BtaMatrix(5, 3, 2, *([blk for blk in x] for x in m.stacks[:-1]), m.tip)
        from_stacks = BtaMatrix(5, 3, 2, *m.stacks)
        assert from_blocks.equals_exact(m)
        assert from_stacks.equals_exact(m)
        # A C-contiguous complex128 stack is taken as given.
        assert all(x is y for x, y in zip(from_stacks.stacks, m.stacks))

    def test_single_block_has_empty_off_diagonal_stacks(self):
        m = BtaMatrix(1, 2, 0, [np.eye(2)], [], [])
        assert m.lower.shape == m.upper.shape == (0, 2, 2)
        assert m.arrow_row.shape == (1, 0, 2)
        assert m.equals_exact(BtaMatrix.identity(1, 2, 0))

    def test_ragged_blocks_rejected(self):
        with pytest.raises(ShapeMismatchError):
            BtaMatrix(2, 2, 0, [np.eye(2), np.eye(2)[:1]], [np.eye(2)], [np.eye(2)])
        with pytest.raises(ShapeMismatchError):
            BtaMatrix(2, 2, 1, [np.eye(2)] * 2, [np.eye(2)], [np.eye(2)], tip=np.eye(2))
