"""Dense complex block primitives.

Every solver in this package is expressed in terms of the four kernels
defined here: multiply-accumulate with optional conjugate transposition,
LU factorization with partial pivoting, triangular solves, and explicit
block inversion.  A block is a plain two-dimensional ``numpy.ndarray`` of
``complex128``; no wrapper type is introduced.

The public kernels check their operands.  The sweeps multiply through
:func:`mm`, which does not: their blocks come from containers that
validated every shape when they were built, and at small block sizes the
checks would cost as much as the product.  LU and inversion call LAPACK
``zgetrf``/``zgetrs`` directly and read exact singularity from ``info``,
without SciPy's wrappers or any change to the process-wide warning
filters.

Operation counting happens inside the kernels: passing an
:class:`OpCounter` attributes every multiply, factorization, and solve to
the running tally, so higher-level modules get counts for free.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import zgetrf, zgetrs

from .errors import ShapeMismatchError, SingularBlockError

__all__ = [
    "OpCounter",
    "block_multiply_acc",
    "mm",
    "block_lu",
    "block_inverse",
    "triangular_solve",
]

COMPLEX = np.complex128


@dataclass
class OpCounter:
    """Tally of block operations, keyed by operand shape class.

    A matrix product ``(m x k) @ (k x n)`` is classified by mapping each
    of ``m``, ``k``, ``n`` to the letter ``b`` or ``a`` against the
    declared shape parameters (``b`` wins when the two coincide;
    dimensions matching neither map to ``?``).  Zero-sized products are
    not recorded.  Counts are monotonically non-decreasing within one
    solve.

    ``inv_count`` tracks explicit block inversions on top of the
    LU/TRSM decomposition they are built from, so both accounting
    conventions (one inverse vs. one LU plus two triangular solves) can
    be reported.
    """

    b: int
    a: int = 0
    gemm_by_shape: Counter = field(default_factory=Counter)
    lu_count: int = 0
    trsm_count: int = 0
    inv_count: int = 0

    def _classify(self, d: int) -> str:
        if d == self.b:
            return "b"
        if d == self.a:
            return "a"
        return "?"

    def record_gemm(self, m: int, k: int, n: int) -> None:
        if m == 0 or k == 0 or n == 0:
            return
        self.gemm_by_shape[self._classify(m) + self._classify(k) + self._classify(n)] += 1

    def total_gemms(self) -> int:
        return sum(self.gemm_by_shape.values())

    def copy(self) -> "OpCounter":
        return OpCounter(
            b=self.b,
            a=self.a,
            gemm_by_shape=Counter(self.gemm_by_shape),
            lu_count=self.lu_count,
            trsm_count=self.trsm_count,
            inv_count=self.inv_count,
        )

    def merge(self, other: "OpCounter") -> None:
        """Accumulate another tally into this one (shape params unchanged)."""
        self.gemm_by_shape.update(other.gemm_by_shape)
        self.lu_count += other.lu_count
        self.trsm_count += other.trsm_count
        self.inv_count += other.inv_count

    def as_dict(self) -> dict:
        d = {f"gemm_{k}": v for k, v in sorted(self.gemm_by_shape.items())}
        d.update(lu=self.lu_count, trsm=self.trsm_count, inv=self.inv_count)
        return d


def _as_block(x) -> np.ndarray:
    x = np.asarray(x, dtype=COMPLEX)
    if x.ndim != 2:
        raise ShapeMismatchError(f"expected a 2-d block, got ndim={x.ndim}")
    return x


def block_multiply_acc(
    c: np.ndarray | None,
    a: np.ndarray,
    b: np.ndarray,
    *,
    alpha: complex = 1.0,
    beta: complex = 0.0,
    trans_a: bool = False,
    trans_b: bool = False,
    counter: OpCounter | None = None,
) -> np.ndarray:
    """Return ``beta*c + alpha*op(a) @ op(b)``.

    ``op`` is the identity or the conjugate transpose, selected per
    operand by ``trans_a`` / ``trans_b``.  ``c`` may be None, in which
    case the pure product term is returned and ``beta`` is ignored.

    Raises
    ------
    ShapeMismatchError
        If the inner dimensions disagree after transposition, or if
        ``c`` does not match the result shape.
    """
    a = _as_block(a)
    b = _as_block(b)
    op_a = a.conj().T if trans_a else a
    op_b = b.conj().T if trans_b else b
    m, k = op_a.shape
    kb, n = op_b.shape
    if k != kb:
        raise ShapeMismatchError(
            f"inner dimensions disagree: op(a) is {op_a.shape}, op(b) is {op_b.shape}"
        )
    if c is not None:
        c = _as_block(c)
        if c.shape != (m, n):
            raise ShapeMismatchError(
                f"accumulator shape {c.shape} does not match product shape {(m, n)}"
            )
    if counter is not None:
        counter.record_gemm(m, k, n)
    prod = op_a @ op_b
    if alpha != 1.0:
        prod = alpha * prod
    if c is None:
        return prod
    if beta == 0.0:
        return prod
    return beta * c + prod


def mm(
    a: np.ndarray,
    b: np.ndarray,
    counter: OpCounter | None = None,
    *,
    ta: bool = False,
    tb: bool = False,
) -> np.ndarray:
    """Unchecked ``op(a) @ op(b)`` with counting; op = conj-transpose.

    The sweeps' product.  The operands must be 2-d ``complex128`` blocks
    whose shapes agree; nothing converts or checks them.  On such operands
    the result and the count equal those of the checked
    :func:`block_multiply_acc` bit for bit.
    """
    if ta:
        a = a.conj().T
    if tb:
        b = b.conj().T
    if counter is not None:
        counter.record_gemm(a.shape[0], a.shape[1], b.shape[1])
    return a @ b


def _getrf(a: np.ndarray, counter: OpCounter | None = None):
    """LAPACK ``zgetrf`` of a square block; raises on an exactly zero pivot."""
    a = _as_block(a)
    m, n = a.shape
    if m != n:
        raise ShapeMismatchError(f"LU requires a square block, got {a.shape}")
    if counter is not None:
        counter.lu_count += 1
    if n == 0:
        return np.empty((0, 0), dtype=COMPLEX), np.empty(0, dtype=np.int32)
    lu, piv, info = zgetrf(a)
    if info > 0:
        raise SingularBlockError(f"exactly singular pivot at row {info - 1}", index=info - 1)
    return lu, piv


def block_lu(
    a: np.ndarray, counter: OpCounter | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Factor ``a`` as ``a[perm] = L @ U`` with partial (row) pivoting.

    Returns
    -------
    (L, U, perm)
        ``L`` unit lower triangular, ``U`` upper triangular, and ``perm``
        an index array such that ``a[perm] == L @ U``.

    Raises
    ------
    SingularBlockError
        If a pivot column remainder is exactly zero; carries the pivot
        index.
    """
    lu, piv = _getrf(a, counter)
    n = lu.shape[0]
    lower = np.tril(lu, k=-1) + np.eye(n, dtype=COMPLEX)
    upper = np.triu(lu)
    perm = np.arange(n)
    for i, p in enumerate(piv):
        perm[i], perm[p] = perm[p], perm[i]
    return lower, upper, perm


def block_inverse(a: np.ndarray, counter: OpCounter | None = None) -> np.ndarray:
    """Invert a square block: LAPACK ``zgetrf``, then ``zgetrs`` against identity.

    ``zgetrs`` is the routine under ``scipy.linalg.lu_solve``, so the
    result equals ``lu_solve(lu_factor(a), eye)`` bit for bit; it is
    counted as one LU, two triangular solves and one inversion.

    Raises
    ------
    SingularBlockError
        If ``a`` is exactly singular; carries the pivot index.
    """
    lu, piv = _getrf(a, counter)
    n = lu.shape[0]
    if counter is not None:
        counter.inv_count += 1
        counter.trsm_count += 2
    if n == 0:
        return np.empty((0, 0), dtype=COMPLEX)
    inv, _ = zgetrs(lu, piv, np.eye(n, dtype=COMPLEX, order="F"), overwrite_b=1)
    return inv


def triangular_solve(
    t: np.ndarray,
    bp: np.ndarray,
    *,
    side: str = "left",
    uplo: str = "lower",
    unit: bool = False,
    counter: OpCounter | None = None,
) -> np.ndarray:
    """Solve ``t @ x = bp`` (side="left") or ``x @ t = bp`` (side="right").

    ``t`` must be square and triangular as declared by ``uplo``; only the
    declared triangle (plus the diagonal unless ``unit``) is referenced.

    Raises
    ------
    SingularBlockError
        If a non-unit triangular factor has a zero diagonal entry.
    """
    t = _as_block(t)
    bp = _as_block(bp)
    if t.shape[0] != t.shape[1]:
        raise ShapeMismatchError(f"triangular factor must be square, got {t.shape}")
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    if uplo not in ("lower", "upper"):
        raise ValueError(f"uplo must be 'lower' or 'upper', got {uplo!r}")
    dim = bp.shape[0] if side == "left" else bp.shape[1]
    if t.shape[0] != dim:
        raise ShapeMismatchError(
            f"factor {t.shape} incompatible with rhs {bp.shape} on side={side!r}"
        )
    if not unit:
        zero = np.flatnonzero(np.diagonal(t) == 0)
        if zero.size:
            raise SingularBlockError(
                f"zero diagonal at row {int(zero[0])} in triangular factor",
                index=int(zero[0]),
            )
    if counter is not None:
        counter.trsm_count += 1
    if t.shape[0] == 0 or bp.size == 0:
        return bp.copy()
    if side == "left":
        return scipy.linalg.solve_triangular(
            t, bp, lower=(uplo == "lower"), unit_diagonal=unit, check_finite=False
        )
    # x @ t = bp  <=>  t.T @ x.T = bp.T (plain transpose, no conjugation)
    xt = scipy.linalg.solve_triangular(
        t.T, bp.T, lower=(uplo == "upper"), unit_diagonal=unit, check_finite=False
    )
    return xt.T
