"""Brute-force reference solvers used as correctness oracles.

Both baselines expand the system matrix to dense form, factor it once
with LAPACK's ``zgetrf`` (:func:`~btasel.kernels._getrf`) and solve from
those factors with ``zgetrs`` (``scipy.linalg.lu_solve``), for ``A`` or
``A^H``; they differ in how the solution is produced.  ``dense_solve``
materializes the full inverse and the full quadratic solution before
masking.  ``batched_solve`` works one column at a time, so its auxiliary
memory stays at one column vector on top of the factors and the masked
result.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
from scipy.linalg import lu_solve

from .errors import DenseGuardError
from .kernels import COMPLEX, OpCounter, _getrf, mm
from .matrix import BtaMatrix, SelectedSolution, _solve_rhs, mask_to_pattern, to_dense

__all__ = ["dense_solve", "batched_solve", "DEFAULT_DENSE_GUARD"]

DEFAULT_DENSE_GUARD = 4096


def _check_guard(a: BtaMatrix, guard: int | None) -> None:
    if guard is None:
        guard = DEFAULT_DENSE_GUARD
    if a.total_size > guard:
        raise DenseGuardError(
            f"dense path refused: total size {a.total_size} exceeds guard {guard}"
        )


def _lu_solve(factors, rhs: np.ndarray, counter: OpCounter | None, trans: int = 0):
    """``A^-1·rhs``, or with ``trans=2`` ``A^-H·rhs``, from ``factors``,
    the LU of ``A`` that :func:`~btasel.kernels._getrf` gave: counted as
    two triangular solves."""
    if counter is not None:
        counter.trsm_count += 2
    return lu_solve(factors, rhs, trans=trans, check_finite=False)


def dense_solve(
    a: BtaMatrix,
    b: BtaMatrix | None = None,
    mode: str | None = None,
    *,
    guard: int | None = None,
    counter: OpCounter | None = None,
    timings: dict | None = None,
) -> SelectedSolution:
    """Dense reference solve, masked to the pattern.

    Expands ``a`` (and ``b``), factors once, forms the full inverse by
    solving against the identity, multiplies out the quadratic
    solution, and masks both to the input pattern.  Memory is O(N^2);
    refuse inputs beyond ``guard``.  Raises :class:`ShapeMismatchError`
    if ``b``'s shape is not ``a``'s, and :class:`NonFiniteInputError` if
    ``a`` (or, in ``"siq"`` mode, ``b``) holds a NaN or infinite entry.
    """
    b = _solve_rhs(a, b, mode)
    _check_guard(a, guard)

    t0 = perf_counter()
    factors = _getrf(to_dense(a), counter)
    t1 = perf_counter()

    inv = _lu_solve(factors, np.eye(a.total_size, dtype=COMPLEX), counter)
    x_a = mask_to_pattern(inv, a.shape_params)
    x_b = None
    if b is not None:
        y = mm(inv, to_dense(b), counter)
        x_b = mask_to_pattern(mm(y, inv, counter, tb=True), a.shape_params)
    t2 = perf_counter()
    if timings is not None:
        timings["forward"] = t1 - t0
        timings["backward"] = t2 - t1
    return SelectedSolution(x_a, x_b)


def _bta_matvec(m: BtaMatrix, vec: np.ndarray) -> np.ndarray:
    """``dense(m) @ vec`` computed blockwise, without densifying ``m``."""
    n, b, a = m.shape_params
    out = np.zeros(m.total_size, dtype=COMPLEX)
    for i in range(n):
        seg = vec[i * b : (i + 1) * b]
        out[i * b : (i + 1) * b] += m.diag[i] @ seg
        if i < n - 1:
            out[(i + 1) * b : (i + 2) * b] += m.lower[i] @ seg
            out[i * b : (i + 1) * b] += m.upper[i] @ vec[(i + 1) * b : (i + 2) * b]
        if a:
            out[n * b :] += m.arrow_row[i] @ seg
            out[i * b : (i + 1) * b] += m.arrow_col[i] @ vec[n * b :]
    if a:
        out[n * b :] += m.tip @ vec[n * b :]
    return out


def _scatter_column(out: BtaMatrix, col: int, vec: np.ndarray) -> None:
    """Keep the pattern rows of column ``col`` of a dense solution."""
    n, b, a = out.shape_params
    if col >= n * b:  # tip column
        j = col - n * b
        out.arrow_col[:, :, j] = vec[: n * b].reshape(n, b)
        out.tip[:, j] = vec[n * b :]
        return
    blk, j = divmod(col, b)
    out.diag[blk][:, j] = vec[blk * b : (blk + 1) * b]
    if blk > 0:
        out.upper[blk - 1][:, j] = vec[(blk - 1) * b : blk * b]
    if blk < n - 1:
        out.lower[blk][:, j] = vec[(blk + 1) * b : (blk + 2) * b]
    if a:
        out.arrow_row[blk][:, j] = vec[n * b :]


def batched_solve(
    a: BtaMatrix,
    b: BtaMatrix,
    *,
    guard: int | None = None,
    counter: OpCounter | None = None,
    on_alloc=None,
) -> SelectedSolution:
    """Column-batched reference solve.

    One LU of the dense system; then, per column, a solve with ``A^H``
    from the same factors, a blockwise right-hand-side product, and a
    solve with ``A`` produce one column of the quadratic solution (and
    of the inverse), which is masked to the pattern immediately.  Auxiliary memory beyond
    the factors and the masked outputs is a handful of length-N vectors;
    ``on_alloc`` (tag, nbytes) observes every allocation for the memory
    contract test.  Raises ``ValueError`` without ``b``,
    :class:`ShapeMismatchError` if ``b``'s shape is not ``a``'s, and
    :class:`NonFiniteInputError` if ``a`` or ``b`` holds a NaN or infinity.
    """
    b = _solve_rhs(a, b, "siq")
    _check_guard(a, guard)
    total = a.total_size

    def note(tag: str, nbytes: int):
        if on_alloc is not None:
            on_alloc(tag, nbytes)

    dense_a = to_dense(a)
    note("dense_a", dense_a.nbytes)
    factors = _getrf(dense_a, counter)
    note("lu_factors", sum(f.nbytes for f in factors))
    del dense_a

    x_a = BtaMatrix.zeros(*a.shape_params)
    x_b = BtaMatrix.zeros(*a.shape_params)
    note("masked_output", 2 * sum(blk.nbytes for _, _, blk in x_a.pattern_blocks()))

    unit = np.zeros((total, 1), dtype=COMPLEX)
    note("column", unit.nbytes)
    for col in range(total):
        unit[:, 0] = 0.0
        unit[col, 0] = 1.0
        xa_col = _lu_solve(factors, unit, counter)
        note("column", xa_col.nbytes)
        _scatter_column(x_a, col, xa_col[:, 0])
        z = _lu_solve(factors, unit, counter, trans=2)
        note("column", z.nbytes)
        w = _bta_matvec(b, z[:, 0])[:, None]
        note("column", w.nbytes)
        xb_col = _lu_solve(factors, w, counter)
        note("column", xb_col.nbytes)
        _scatter_column(x_b, col, xb_col[:, 0])

    return SelectedSolution(x_a, x_b)
