import warnings

import numpy as np
import pytest
import scipy.linalg

import btasel.dist
import btasel.rgf
from btasel import (
    OpCounter,
    ShapeMismatchError,
    SingularBlockError,
    block_inverse,
    block_lu,
    block_multiply_acc,
    dist_solve,
    hermitianize,
    solve_selected,
    triangular_solve,
)
from btasel.kernels import mm
from btasel.matrix import generate_dd_bta


def _dd_block(rng, size):
    blk = rng.uniform(-1, 1, (size, size)) + 1j * rng.uniform(-1, 1, (size, size))
    blk[np.arange(size), np.arange(size)] += 2.0 * size
    return blk


def _zero_column(size, k):
    blk = _dd_block(np.random.default_rng(size + k), size)
    blk[:, k] = 0.0
    return blk


class TestMultiplyAcc:
    def test_scalar_product(self):
        out = block_multiply_acc(np.zeros((1, 1)), [[2.0]], [[3.0]], alpha=1.0, beta=0.0)
        assert out == np.array([[6.0]])

    def test_beta_only_path(self):
        eye = np.eye(2, dtype=complex)
        a = np.ones((2, 3), dtype=complex)
        b = np.ones((3, 2), dtype=complex)
        out = block_multiply_acc(eye, a, b, alpha=0.0, beta=1.0)
        np.testing.assert_array_equal(out, eye)

    def test_conjugation(self):
        out = block_multiply_acc(
            np.zeros((1, 1)), [[1j]], [[1j]], trans_a=True, alpha=1.0, beta=0.0
        )
        np.testing.assert_allclose(out, [[1.0]])

    def test_dimension_mismatch_names_shapes(self):
        with pytest.raises(ShapeMismatchError, match=r"\(2, 3\).*\(2, 2\)"):
            block_multiply_acc(None, np.ones((2, 3)), np.ones((2, 2)))

    def test_accumulator_shape_checked(self):
        with pytest.raises(ShapeMismatchError):
            block_multiply_acc(np.ones((3, 3)), np.ones((2, 2)), np.ones((2, 2)))

    def test_conj_transpose_involution(self, rng):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        eye = np.eye(4, dtype=complex)
        once = block_multiply_acc(None, a, eye, trans_a=True)
        twice = block_multiply_acc(None, once, eye, trans_a=True)
        np.testing.assert_array_equal(twice, a)

    def test_counter_classification(self, rng):
        counter = OpCounter(b=5, a=3)
        block_multiply_acc(None, np.ones((3, 5)), np.ones((5, 5)), counter=counter)
        assert dict(counter.gemm_by_shape) == {"abb": 1}

    def test_zero_size_not_counted(self):
        counter = OpCounter(b=5, a=0)
        block_multiply_acc(None, np.ones((5, 0)), np.ones((0, 5)), counter=counter)
        assert counter.total_gemms() == 0


class TestUncheckedMm:
    @pytest.mark.parametrize("ta", [False, True])
    @pytest.mark.parametrize("tb", [False, True])
    def test_equals_checked_kernel_bitwise(self, rng, ta, tb):
        def draw(*shape):
            return rng.normal(size=shape) + 1j * rng.normal(size=shape)

        # op(x) is (a x b) and op(y) is (b x b): shape class "abb".
        x = draw(5, 3) if ta else draw(3, 5)
        y = draw(5, 5)
        fast, checked = OpCounter(b=5, a=3), OpCounter(b=5, a=3)
        got = mm(x, y, fast, ta=ta, tb=tb)
        want = block_multiply_acc(None, x, y, trans_a=ta, trans_b=tb, counter=checked)
        assert got.tobytes() == want.tobytes()
        assert dict(fast.gemm_by_shape) == dict(checked.gemm_by_shape) == {"abb": 1}

    def test_zero_size_not_counted(self):
        # The arrow strips of a BT system (a=0) are empty operands.
        counter = OpCounter(b=4, a=0)
        strip = np.zeros((0, 4), dtype=complex)
        square = np.ones((4, 4), dtype=complex)
        assert mm(strip, square, counter).shape == (0, 4)
        assert mm(square, strip, counter, tb=True).shape == (4, 0)
        assert mm(strip, strip, counter, tb=True).shape == (0, 0)
        assert np.all(mm(strip, strip, counter, ta=True) == 0)
        assert counter.total_gemms() == 0


class TestBlockLu:
    def test_one_by_one(self):
        lower, upper, perm = block_lu(np.array([[2.0]]))
        np.testing.assert_array_equal(lower, [[1.0]])
        np.testing.assert_array_equal(upper, [[2.0]])
        np.testing.assert_array_equal(perm, [0])

    def test_permutation_only_case(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        lower, upper, perm = block_lu(a)
        np.testing.assert_array_equal(lower, np.eye(2))
        np.testing.assert_array_equal(upper, np.eye(2))
        np.testing.assert_array_equal(a[perm], lower @ upper)

    def test_reconstruction_dd_block(self, rng):
        a = _dd_block(rng, 8)
        lower, upper, perm = block_lu(a)
        err = np.linalg.norm(a[perm] - lower @ upper) / np.linalg.norm(a)
        assert err <= 1e-13

    def test_singular_pivot_carries_index(self):
        with pytest.raises(SingularBlockError) as info:
            block_lu(np.zeros((3, 3)))
        assert info.value.index == 0

    @pytest.mark.parametrize("k", [0, 1, 3])
    def test_zero_column_reports_its_index(self, k):
        with pytest.raises(SingularBlockError) as info:
            block_lu(_zero_column(4, k))
        assert info.value.index == k

    def test_rejects_rectangular(self):
        with pytest.raises(ShapeMismatchError):
            block_lu(np.ones((2, 3)))

    def test_counts(self, rng):
        counter = OpCounter(b=4)
        block_lu(_dd_block(rng, 4), counter)
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

    @pytest.mark.parametrize("size", [1, 4, 16, 64])
    def test_equals_scipy_lu_solve_bitwise(self, rng, size):
        a = _dd_block(rng, size)
        eye = np.eye(size, dtype=complex)
        want = scipy.linalg.lu_solve(scipy.linalg.lu_factor(a), eye)
        assert block_inverse(a).tobytes() == want.tobytes()

    def test_real_input(self, rng):
        a = _dd_block(rng, 6).real
        inv = block_inverse(a)
        assert inv.dtype == np.complex128
        want = scipy.linalg.lu_solve(scipy.linalg.lu_factor(a + 0j), np.eye(6, dtype=complex))
        assert inv.tobytes() == want.tobytes()
        np.testing.assert_allclose(inv, np.linalg.inv(a), atol=1e-14)


class TestTriangularSolve:
    def test_scalar_left(self):
        out = triangular_solve(np.array([[2.0]]), np.array([[4.0]]))
        np.testing.assert_array_equal(out, [[2.0]])

    def test_unit_identity(self, rng):
        b = rng.normal(size=(3, 3)) + 0j
        out = triangular_solve(np.eye(3), b, uplo="lower", unit=True)
        np.testing.assert_allclose(out, b)

    def test_unit_lower_residual(self, rng):
        t = np.tril(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)), k=-1) + np.eye(8)
        b = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        x = triangular_solve(t, b, uplo="lower", unit=True)
        assert np.linalg.norm(t @ x - b) <= 1e-13 * np.linalg.norm(b)

    def test_right_side(self, rng):
        t = np.triu(rng.normal(size=(5, 5))) + 5 * np.eye(5)
        b = rng.normal(size=(3, 5)) + 0j
        x = triangular_solve(t, b, side="right", uplo="upper")
        np.testing.assert_allclose(x @ t, b, atol=1e-12)

    def test_zero_diagonal_raises(self):
        t = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(SingularBlockError) as info:
            triangular_solve(t, np.ones((2, 1)), uplo="lower")
        assert info.value.index == 1

    def test_counts(self):
        counter = OpCounter(b=2)
        triangular_solve(np.eye(2), np.ones((2, 2)), unit=True, counter=counter)
        assert counter.trsm_count == 1


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


def test_counter_in_forward_pass_classifies_against_declared_shape():
    # (a x b)(b x b) products increment exactly 'abb'.
    a = generate_dd_bta(3, 4, 2, seed=9)
    counter = OpCounter(b=4, a=2)
    block_multiply_acc(None, a.arrow_row[0], a.diag[0], counter=counter)
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
    for kernel in (block_lu, block_inverse):
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
