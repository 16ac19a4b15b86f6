import sys
import threading
import warnings

import numpy as np
import pytest
from scipy.linalg.lapack import zgetrf, zgetri, zgetri_lwork

import btasel.dist
import btasel.kernels
import btasel.rgf
from btasel import (
    OpCounter,
    ShapeMismatchError,
    SingularBlockError,
    block_inverse,
    bta_forward,
    dist_solve,
    hermitianize,
    solve_selected,
)
from btasel.kernels import _getrf, mm
from btasel.matrix import generate_dd_bta


def _dd_block(rng, size):
    blk = rng.uniform(-1, 1, (size, size)) + 1j * rng.uniform(-1, 1, (size, size))
    blk[np.arange(size), np.arange(size)] += 2.0 * size
    return blk


def _zero_column(size, k):
    blk = _dd_block(np.random.default_rng(size + k), size)
    blk[:, k] = 0.0
    return blk


def _getri_inverse(a):
    """inv(a) as inv(aᵀ)ᵀ: SciPy's ``zgetrf`` and ``zgetri`` on the
    F-ordered ``aᵀ``, with ``zgetri``'s optimal workspace."""
    at = np.array(a, dtype=complex, order="C").T
    lu, piv, info = zgetrf(at)
    assert info == 0
    inv, info = zgetri(lu, piv, lwork=int(zgetri_lwork(len(at))[0].real))
    assert info == 0
    return inv.T


class TestMultiplyAcc:
    # mm, the multiply-accumulate kernel: alpha·op(a)·op(b) + beta·out.
    def test_scalar_product(self):
        out = mm(np.array([[2.0 + 0j]]), np.array([[3.0 + 0j]]))
        assert out == np.array([[6.0]])

    def test_beta_only_path(self):
        # A zero product accumulated into out leaves it as it was.
        eye = np.eye(2, dtype=complex)
        out = eye.copy()
        mm(np.zeros((2, 3), dtype=complex), np.ones((3, 2), dtype=complex), out=out, beta=1)
        np.testing.assert_array_equal(out, eye)

    def test_conjugation(self):
        out = mm(np.array([[1j]]), np.array([[1j]]), tb=True)
        np.testing.assert_allclose(out, [[1.0]])

    def test_accumulator_shape_checked(self):
        x = np.ones((2, 2), complex)
        with pytest.raises(ShapeMismatchError):
            mm(x, x, out=np.ones((3, 3), complex), beta=1)

    def test_conj_transpose_involution(self, rng):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        eye = np.eye(4, dtype=complex)
        once = mm(eye, a, tb=True)
        twice = mm(eye, once, tb=True)
        np.testing.assert_array_equal(twice, a)

    def test_counter_classification(self, rng):
        counter = OpCounter(b=5, a=3)
        mm(np.ones((3, 5), complex), np.ones((5, 5), complex), counter)
        assert dict(counter.gemm_by_shape) == {"abb": 1}

    def test_zero_size_not_counted(self):
        counter = OpCounter(b=5, a=0)
        mm(np.ones((5, 0), complex), np.ones((0, 5), complex), counter)
        assert counter.total_gemms() == 0


class TestUncheckedMm:
    @pytest.mark.parametrize("strip_right", [False, True])
    @pytest.mark.parametrize("tb", [False, True])
    def test_equals_checked_kernel_bitwise(self, rng, strip_right, tb):
        def draw(*shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        # A (b x b) block times an (a x b) strip on the left, shape class
        # "abb", or on the right, "bba", as conjugate transpose 5x3 with
        # tb.  The reference is numpy's x @ op(y).
        if strip_right:
            x, y = draw(5, 5), draw(3, 5) if tb else draw(5, 3)
        else:
            x, y = draw(3, 5), draw(5, 5)
        fast = OpCounter(b=5, a=3)
        got = mm(x, y, fast, tb=tb)
        want = x @ (y.conj().T if tb else y)
        assert got.tobytes() == want.tobytes()
        assert dict(fast.gemm_by_shape) == {"bba" if strip_right else "abb": 1}

    def test_zero_size_not_counted(self):
        # The arrow strips of a BT system (a=0) are empty operands.
        counter = OpCounter(b=4, a=0)
        strip = np.zeros((0, 4), dtype=complex)
        square = np.ones((4, 4), dtype=complex)
        assert mm(strip, square, counter).shape == (0, 4)
        assert mm(square, strip, counter, tb=True).shape == (4, 0)
        assert mm(strip, strip, counter, tb=True).shape == (0, 0)
        assert np.all(mm(strip.T, strip.T, counter, tb=True) == 0)
        assert counter.total_gemms() == 0


def _draw(rng, *shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


# (m, k, n) of op(a)·op(b).  b-sized products at b=4 and b=16 take the BLAS
# path, those at b=24 and b=128 numpy's; with a-sized sides (a = 1, 2, 16)
# they fall on either side, a side of 1 always on numpy's.
_PRODUCT_SHAPES = [
    (4, 4, 4), (2, 4, 4), (4, 4, 2), (2, 4, 2), (1, 4, 4), (4, 4, 1), (4, 1, 4),
    (16, 16, 16), (2, 16, 16), (16, 16, 2), (16, 2, 16),
    (24, 24, 24), (2, 24, 24), (24, 24, 2), (16, 24, 16),
    (128, 128, 128), (16, 128, 128), (128, 128, 16), (16, 128, 16),
]


class TestMmForms:
    @pytest.mark.parametrize("shape", _PRODUCT_SHAPES, ids=str)
    def test_every_form_equals_the_numpy_expression_bitwise(self, rng, shape):
        m, k, n = shape
        for tb in (False, True):
            x = _draw(rng, m, k)
            y = _draw(rng, n, k) if tb else _draw(rng, k, n)
            prod = x @ (y.conj().T if tb else y)
            c = _draw(rng, m, n)
            want = {
                (1, 0): prod,
                (-1, 0): np.negative(prod),
                (1, 1): np.add(c, prod),
                (-1, 1): np.subtract(c, prod),
            }
            for (alpha, beta), w in want.items():
                # Without beta, out is written and never read: NaN stays out.
                out = c.copy() if beta else np.full((m, n), np.nan, dtype=complex)
                assert mm(x, y, tb=tb, out=out, alpha=alpha, beta=beta) is out
                assert out.tobytes() == w.tobytes(), (tb, alpha, beta)
                new = mm(x, y, tb=tb, alpha=alpha)
                assert new.flags.c_contiguous
                assert new.tobytes() == want[alpha, 0].tobytes(), (tb, alpha)

    @pytest.mark.parametrize("size", [4, 16])  # numpy writes any out it accepts
    def test_refuses_an_out_blas_cannot_write_in_place(self, rng, size):
        x, y = _draw(rng, size, size), _draw(rng, size, size)
        unwritable = [
            np.zeros((size, 2 * size), dtype=complex)[:, ::2],  # strided
            np.zeros((size, size), dtype=np.complex64),
            np.zeros((size, size), dtype=complex, order="F"),
            np.zeros((size, size + 1), dtype=complex),
        ]
        for out in unwritable:
            with pytest.raises(ShapeMismatchError, match="C-contiguous complex128"):
                mm(x, y, out=out, alpha=-1, beta=1)
            assert not out.any()


def _lu_parts(lu, piv):
    """``(L, U, perm)`` with ``a[perm] == L @ U`` from ``zgetrf``'s factors."""
    n = len(lu)
    perm = np.arange(n)
    for i, p in enumerate(piv):
        perm[i], perm[p] = perm[p], perm[i]
    return np.tril(lu, k=-1) + np.eye(n), np.triu(lu), perm


class TestBlockLu:
    # _getrf, the LU with partial pivoting that the dense oracles factor with.
    def test_one_by_one(self):
        lower, upper, perm = _lu_parts(*_getrf(np.array([[2.0]])))
        np.testing.assert_array_equal(lower, [[1.0]])
        np.testing.assert_array_equal(upper, [[2.0]])
        np.testing.assert_array_equal(perm, [0])

    def test_permutation_only_case(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        lower, upper, perm = _lu_parts(*_getrf(a))
        np.testing.assert_array_equal(lower, np.eye(2))
        np.testing.assert_array_equal(upper, np.eye(2))
        np.testing.assert_array_equal(a[perm], lower @ upper)

    def test_reconstruction_dd_block(self, rng):
        a = _dd_block(rng, 8)
        lower, upper, perm = _lu_parts(*_getrf(a))
        err = np.linalg.norm(a[perm] - lower @ upper) / np.linalg.norm(a)
        assert err <= 1e-13

    def test_singular_pivot_carries_index(self):
        with pytest.raises(SingularBlockError) as info:
            _getrf(np.zeros((3, 3)))
        assert info.value.index == 0

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_zero_column_reports_its_index(self, k):
        with pytest.raises(SingularBlockError) as info:
            _getrf(_zero_column(4, k))
        assert info.value.index == k

    def test_rejects_rectangular(self):
        with pytest.raises(ShapeMismatchError):
            _getrf(np.ones((2, 3)))

    def test_counts(self, rng):
        counter = OpCounter(b=4)
        _getrf(_dd_block(rng, 4), counter)
        assert counter.lu_count == 1


class TestBlockInverse:
    def test_scalar(self):
        np.testing.assert_allclose(block_inverse(np.array([[2.0]])), [[0.5]])

    def test_analytic_two_by_two(self):
        inv = block_inverse(np.array([[2.0, 1.0], [1.0, 2.0]]))
        np.testing.assert_allclose(inv, [[2 / 3, -1 / 3], [-1 / 3, 2 / 3]], atol=1e-15)

    def test_residual_dd_block(self, rng):
        a = _dd_block(rng, 64)
        inv = block_inverse(a)
        residual = np.linalg.norm(a @ inv - np.eye(64)) / np.linalg.norm(a)
        assert residual <= 1e-12

    def test_counts_both_conventions(self, rng):
        counter = OpCounter(b=4)
        block_inverse(_dd_block(rng, 4), counter)
        assert (counter.inv_count, counter.lu_count, counter.trsm_count) == (1, 1, 2)

    def test_propagates_singularity(self):
        with pytest.raises(SingularBlockError):
            block_inverse(np.zeros((2, 2)))

    @pytest.mark.parametrize("k", [0, 2, 3])
    def test_zero_column_reports_its_index(self, k):
        with pytest.raises(SingularBlockError) as info:
            block_inverse(_zero_column(4, k))
        assert info.value.index == k

    # The name predates zgetri: the reference is SciPy's zgetrf and zgetri.
    @pytest.mark.parametrize("size", [1, 4, 16, 64])
    def test_equals_scipy_lu_solve_bitwise(self, rng, size):
        a = _dd_block(rng, size)
        assert block_inverse(a).tobytes() == _getri_inverse(a).tobytes()

    def test_identity_cache_filled_from_threads(self, rng, monkeypatch):
        # Rank threads invert blocks at the same time and race to fill the
        # cache of zgetri workspace sizes; every inversion keeps its bits.
        monkeypatch.setattr(btasel.kernels, "_LWORK", {})
        sizes = [1, 2, 3, 4, 5, 8, 16]
        blocks = {n: [_dd_block(rng, n) for _ in range(3)] for n in sizes}
        want = {n: [_getri_inverse(x).tobytes() for x in xs] for n, xs in blocks.items()}
        mismatches = []

        def work(seed):
            for n in np.random.default_rng(seed).permutation(sizes * 10):
                for x, w in zip(blocks[n], want[n]):
                    if block_inverse(x).tobytes() != w:
                        mismatches.append(n)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=work, args=(seed,)) for seed in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert mismatches == []
        assert sorted(btasel.kernels._LWORK) == sizes
        for n, lwork in btasel.kernels._LWORK.items():
            assert type(lwork) is int
            assert lwork == int(zgetri_lwork(n)[0].real) >= n

    def test_real_input(self, rng):
        a = _dd_block(rng, 6).real
        inv = block_inverse(a)
        assert inv.dtype == np.complex128
        assert inv.tobytes() == _getri_inverse(a + 0j).tobytes()
        np.testing.assert_allclose(inv, np.linalg.inv(a), atol=1e-14)

    @pytest.mark.parametrize("size", [1, 4, 64])
    def test_overwrite_inverts_the_block_itself(self, rng, size):
        a = _dd_block(rng, size)
        orig = a.copy()
        copied = block_inverse(a)
        assert np.array_equal(a, orig)  # without overwrite_a, a is left alone
        got = block_inverse(a, overwrite_a=True)
        assert got is a
        assert got.tobytes() == copied.tobytes()

    def test_overwrite_refuses_a_block_it_cannot_invert_in_place(self, rng):
        # f2py would invert a copy of each of these, or write a read-only one.
        def fresh():
            return _dd_block(rng, 4)

        readonly = fresh()
        readonly.flags.writeable = False
        strided = np.zeros((4, 8), dtype=complex)[:, ::2]
        strided[...] = fresh()
        refused = [np.asfortranarray(fresh()), strided, readonly, fresh().real.copy()]
        refused.append(fresh()[None])  # 3-d
        for blk in refused:
            orig = blk.copy()
            with pytest.raises(ShapeMismatchError, match="C-contiguous, writeable complex128"):
                block_inverse(blk, overwrite_a=True)
            assert np.array_equal(blk, orig)


def test_counter_merge_and_dict():
    c1 = OpCounter(b=4, a=2)
    c1.record_gemm(4, 4, 4)
    c1.record_gemm(2, 4, 4)
    c2 = OpCounter(b=4, a=2)
    c2.record_gemm(4, 4, 4)
    c2.lu_count = 3
    c1.merge(c2)
    assert c1.gemm_by_shape["bbb"] == 2
    assert c1.gemm_by_shape["abb"] == 1
    assert c1.lu_count == 3
    assert c1.as_dict()["gemm_bbb"] == 2


def test_counter_merge_keeps_one_order():
    fine, coarse = OpCounter(b=4), OpCounter(b=8)
    fine.record_gemm(4, 4, 4)
    coarse.record_gemm(8, 8, 8)
    with pytest.raises(ValueError, match="orders"):
        coarse.merge(fine)
    assert coarse.as_dict() == {"gemm_bbb": 1, "lu": 0, "trsm": 0, "inv": 0}
    # A counter without tallies takes the orders of the one merged in;
    # an empty tally merges into any counter.
    fresh = OpCounter(b=3, a=1)
    fresh.merge(coarse)
    assert (fresh.b, fresh.a) == (8, 0) and fresh.as_dict() == coarse.as_dict()
    coarse.merge(OpCounter(b=5, a=2))
    assert (coarse.b, coarse.a) == (8, 0)


@pytest.mark.parametrize("rank_counters", [None, []])
def test_single_part_counts_at_the_solved_orders(rank_counters):
    # dist_solve with one part is the re-blocked sequential solve: its
    # tallies are at the coarse orders, with no "?" class.
    a, b = _system(n=12, b=4, a=2)
    counter = OpCounter(b=4, a=2)
    dist_solve(a, b, num_parts=1, mode="siq", counter=counter, rank_counters=rank_counters)
    for c in [counter] + (rank_counters or []):
        assert (c.b, c.a) == (16, 2)
        assert "?" not in "".join(c.gemm_by_shape)
    assert counter.inv_count == 3 + 1  # 3 blocks of order 16 and the tip


def test_counter_in_forward_pass_classifies_against_declared_shape():
    # (a x b)(b x b) products increment exactly 'abb'.
    a = generate_dd_bta(3, 4, 2, seed=9)
    counter = OpCounter(b=4, a=2)
    mm(a.arrow_row[0], a.diag[0], counter)
    assert dict(counter.gemm_by_shape) == {"abb": 1}


def _system(n=12, b=3, a=2, seed=5):
    rhs = hermitianize(generate_dd_bta(n, b, a, seed=seed + 1))
    return generate_dd_bta(n, b, a, seed=seed), rhs


def test_kernels_leave_warning_filters_alone(monkeypatch):
    # warnings.filters is process-global and catch_warnings is not
    # thread-safe, while the ranks of a threaded dist_solve invert blocks
    # at the same time.  No kernel may touch the filters, not even on the
    # singular path.
    touched = []

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            touched.append(name)
            return fn(*args, **kwargs)

        return wrapper

    for name in ("catch_warnings", "simplefilter", "filterwarnings", "resetwarnings"):
        monkeypatch.setattr(warnings, name, spy(name, getattr(warnings, name)))
    before = list(warnings.filters)
    a, b = _system()
    dist_solve(a, b, num_parts=2, mode="siq")
    for kernel in (_getrf, block_inverse):
        with pytest.raises(SingularBlockError):
            kernel(np.zeros((3, 3)))
    assert touched == []
    assert warnings.filters == before


@pytest.mark.parametrize("solver", ["rgf", "dist"])
def test_sweeps_resolve_kernels_at_call_time(monkeypatch, solver):
    # perfbench's tracer times kernels by replacing btasel.rgf.mm,
    # btasel.dist.mm and btasel.rgf.block_inverse.  Sweeps that bound them
    # to locals, or renamed them, would hide calls from it.
    gemms, invs = [], []

    def counting(calls, fn, nonempty=lambda *args: True):
        def wrapper(*args, **kwargs):
            if nonempty(*args):
                calls.append(1)
            return fn(*args, **kwargs)

        return wrapper

    def product(x, y, *rest):
        return x.size and y.size  # OpCounter skips zero-size products

    monkeypatch.setattr(btasel.rgf, "mm", counting(gemms, btasel.rgf.mm, product))
    monkeypatch.setattr(btasel.dist, "mm", counting(gemms, btasel.dist.mm, product))
    monkeypatch.setattr(btasel.rgf, "block_inverse", counting(invs, btasel.rgf.block_inverse))
    a, b = _system()
    counter = OpCounter(b=a.b, a=a.a)
    rank_counters = []
    if solver == "rgf":
        solve_selected(a, b, "siq", counter=counter)
    else:
        dist_solve(a, b, num_parts=2, mode="siq", counter=counter, rank_counters=rank_counters)
    # The counter holds the replicated reduced solve once; every rank runs it.
    extra = max(len(rank_counters) - 1, 0)
    local_gemms = sum(rc.total_gemms() for rc in rank_counters)
    local_invs = sum(rc.inv_count for rc in rank_counters)
    want_gemms = counter.total_gemms() + extra * (counter.total_gemms() - local_gemms)
    want_invs = counter.inv_count + extra * (counter.inv_count - local_invs)
    assert gemms and invs
    assert (len(gemms), len(invs)) == (want_gemms, want_invs)


@pytest.mark.parametrize("mode", ["si", "siq"])
@pytest.mark.parametrize("solver", ["rgf", "dist", "dist3"])
def test_bt_systems_do_no_empty_work(monkeypatch, solver, mode):
    # A plain BT system (a=0) has an empty arrow: no sweep may multiply a
    # zero-size operand or invert the 0x0 tip, in any partition kind: at
    # n=20, P=3 has a middle partition with interior blocks.
    empty = []

    def spy(fn, operands):
        def wrapper(*args, **kwargs):
            empty.extend(x.shape for x in args[:operands] if x.size == 0)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(btasel.rgf, "mm", spy(btasel.rgf.mm, 2))
    monkeypatch.setattr(btasel.dist, "mm", spy(btasel.dist.mm, 2))
    monkeypatch.setattr(btasel.rgf, "block_inverse", spy(btasel.rgf.block_inverse, 1))
    a, b = _system(n=20, a=0)
    counter = OpCounter(b=a.b)
    if solver == "rgf":
        solve_selected(a, b, mode, counter=counter)
    else:
        dist_solve(a, b, num_parts=2 if solver == "dist" else 3, mode=mode, counter=counter)
    assert counter.total_gemms() > 0
    assert empty == []


class TestPivotsInPlace:
    # The sweeps invert every pivot, and the tip, in its working slot.

    @pytest.mark.parametrize("a_sz", [0, 2])
    def test_factors_are_views_of_the_working_stacks(self, monkeypatch, a_sz):
        real, inverted = btasel.rgf.block_inverse, []

        def spy(x, *args, **kwargs):
            inverted.append((x, x.copy()))
            return real(x, *args, **kwargs)

        monkeypatch.setattr(btasel.rgf, "block_inverse", spy)
        a, b = _system(n=6, a=a_sz)
        work_a, work_b = a.copy(), b.copy()
        bta_forward(work_a, work_b)
        # One inversion per pivot, each of its own working slot.
        assert len(inverted) == a.n + (a_sz > 0)
        pivots = enumerate(inverted[: a.n])
        assert all(np.shares_memory(slot, work_a.diag[i]) for i, (slot, _) in pivots)
        # The first pivot takes no update: its slot holds its inverse.
        assert work_a.diag[0].tobytes() == real(a.diag[0]).tobytes()
        if a_sz:
            # The last inversion is the updated tip's, in the tip slot.
            slot, updated = inverted[-1]
            assert slot is work_a.tip
            assert work_a.tip.tobytes() == real(updated).tobytes()

    @pytest.mark.parametrize("parts", [1, 2, 3])
    @pytest.mark.parametrize("mode", ["si", "siq"])
    @pytest.mark.parametrize("a_sz", [0, 2])
    def test_inputs_left_bit_identical(self, parts, mode, a_sz):
        # n=20 gives a P=3 run a middle partition with interior pivots.
        a, b = _system(n=20, a=a_sz)
        a_ref, b_ref = a.copy(), b.copy()
        rhs = b if mode == "siq" else None
        if parts == 1:
            solve_selected(a, rhs, mode)
        else:
            dist_solve(a, rhs, num_parts=parts, mode=mode)
        assert a.equals_exact(a_ref)
        assert b.equals_exact(b_ref)
