"""Dense complex block primitives.

Every solver in this package is expressed in terms of the two kernels
defined here, multiply-accumulate with an optional conjugate transpose
of the right factor (:func:`mm`) and explicit block inversion
(:func:`block_inverse`), and counts them with :class:`OpCounter`; the
dense oracles factor with :func:`_getrf`.  A block is a plain
two-dimensional ``numpy.ndarray`` of ``complex128``; no wrapper type is
introduced.

:func:`block_inverse` checks its operand.  The sweeps multiply through
:func:`mm`, which does not (their containers validated every shape) and
which picks a path by the product's size.  A product with every side
from 2 to 16 is one call of SciPy's BLAS ``zgemm``, with the conjugate
transpose and the accumulation as its flags: on 2 shared vCPUs 1.0-1.4
µs at b=4 and 2.3-2.9 µs at b=16, against 3.4 and 4.9-5.0 µs for numpy's
``@``; the gap stays 2-3 µs up to b=32 and is lost in the flops by b=48.
Larger products stay on numpy: the f2py ``zgemm`` wrapper holds the GIL
while BLAS runs and numpy releases it, so only numpy lets the rank
threads of ``dist_solve`` overlap at large blocks.  LU and inversion
call LAPACK directly and read exact singularity from ``info``, without
SciPy's wrappers or any change to the process-wide warning filters.
Inversion is ``zgetrf`` and then ``zgetri``, which forms the inverse in
place from the LU factors (Du Croz & Higham, IMA J. Numer. Anal. 1992),
with no identity right-hand side; the sweeps invert each pivot in its
working slot.  SciPy's f2py ``zgetrf`` and ``zgetri`` release the GIL
(its ``zgemm`` does not), so beside a spinning Python thread an
inversion can wait a switch interval (5 ms) to return: at order 16 on 2
shared vCPUs, lone ``zgetrf`` went from 3.5-7 µs to 5.1 ms (medians),
:func:`block_inverse` from 9-17 to 600-2,500 µs (means), ``zgemm`` stayed
at 3-6 µs.  Pivot arrays stay per call: two threads' LAPACK calls
sharing one have aborted with "double free or corruption".

Operation counting happens inside the kernels: passing an
:class:`OpCounter` attributes every multiply, factorization, and solve to
the running tally, so higher-level modules get counts for free.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg.blas import zgemm
from scipy.linalg.lapack import zgetrf, zgetri, zgetri_lwork

from .errors import ShapeMismatchError, SingularBlockError

__all__ = ["OpCounter", "mm", "block_inverse"]

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

    A counter holds tallies at one pair of orders only: one that holds
    none takes the orders of the solve or tally it is handed
    (:meth:`adopt`, :meth:`merge`), and tallies at other orders raise
    ``ValueError`` instead of being added under the wrong letters.
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
        return replace(self, gemm_by_shape=Counter(self.gemm_by_shape))

    def is_empty(self) -> bool:
        return not (self.gemm_by_shape or self.lu_count or self.trsm_count or self.inv_count)

    def adopt(self, b: int, a: int) -> None:
        """Count at orders ``(b, a)`` from now on: taken when this counter
        holds no tally, else they must be its own (``ValueError``)."""
        if self.is_empty():
            self.b, self.a = b, a
        elif (self.b, self.a) != (b, a):
            raise ValueError(
                f"counter holds tallies at orders (b={self.b}, a={self.a}), not (b={b}, a={a})"
            )

    def merge(self, other: "OpCounter") -> None:
        """Accumulate another tally into this one, which takes the other's
        orders if it holds no tally; tallies at other orders raise
        ``ValueError``."""
        if not other.is_empty() or self.is_empty():
            self.adopt(other.b, other.a)
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


_SMALL = 16  # the largest side of a product that :func:`mm` hands to BLAS


def mm(
    a: np.ndarray,
    b: np.ndarray,
    counter: OpCounter | None = None,
    *,
    tb: bool = False,
    out: np.ndarray | None = None,
    alpha: int = 1,
    beta: int = 0,
) -> np.ndarray:
    """Unchecked ``alpha·a·op(b) + beta·out`` with counting; op = conj-transpose.

    ``alpha`` is 1 or -1 and ``beta`` 0 or 1; without ``out`` a new block
    holds ``alpha·a·op(b)``.  The operands must be 2-d ``complex128``
    blocks whose shapes agree; nothing checks them.  ``out`` is written in
    place and returned.  On the BLAS path one that is not a C-contiguous
    ``complex128`` block of the product's shape raises
    :class:`ShapeMismatchError` (f2py would write a copy); numpy writes
    any ``out`` it accepts (checking it cost 2% of a b=64 forward sweep).
    Both paths give the bits of the numpy expression replaced (such as
    ``np.subtract(out, a @ op(b))``) but for the sign of an exact zero;
    BLAS with a side of 1, or of over 128, would not.
    """
    m, k = a.shape
    n = b.shape[0] if tb else b.shape[1]
    if counter is not None:
        counter.record_gemm(m, k, n)
    if 1 < m <= _SMALL and 1 < k <= _SMALL and 1 < n <= _SMALL:
        # C-ordered blocks are F-ordered transposes, so nothing is copied:
        # out.T = op(b).T·a.T.  (f2py rejects empty operands.)
        if out is None:
            return zgemm(alpha, b.T, a.T, 0, None, 2 * tb).T
        c = out.T
        try:
            # f2py returns ``c`` itself only when it wrote it in place.
            if zgemm(alpha, b.T, a.T, beta, c, 2 * tb, 0, 1) is c:
                return out
        except ValueError:  # an out of another shape
            pass
        raise ShapeMismatchError(f"out must be a C-contiguous complex128 block of shape {(m, n)}")
    b = b.conj().T if tb else b
    if alpha == 1 and not beta:
        return np.matmul(a, b, out=out)
    prod = a @ b
    if beta:
        return (np.add if alpha == 1 else np.subtract)(out, prod, out=out)
    # The float64 view negates to the same bits about 5x faster.
    res = prod if out is None else out
    np.negative(prod.view(np.float64), out=res.view(np.float64))
    return res


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


# ``zgetri``'s optimal workspace by order.  With SciPy's default, a
# minimal one, it is slower at b=128 than ``zgetrf`` plus ``zgetrs``
# against the identity.  ``setdefault`` keeps one entry per order when
# rank threads race to fill it.
_LWORK: dict[int, int] = {}


def _getri_lwork(n: int) -> int:
    lwork = _LWORK.get(n)
    if lwork is None:
        lwork = _LWORK.setdefault(n, int(zgetri_lwork(n)[0].real))
    return lwork


def block_inverse(
    a: np.ndarray, counter: OpCounter | None = None, *, overwrite_a: bool = False
) -> np.ndarray:
    """Invert a square block: LAPACK ``zgetrf``, then ``zgetri`` in place.

    A C-ordered block ``x`` is the F-ordered array ``x.T``, and
    inv(xᵀ) = inv(x)ᵀ: factoring and inverting ``x.T`` in place leaves
    inv(x) in ``x``, with no copy.  With ``overwrite_a`` that block is
    ``a`` itself, which must be a C-contiguous, writeable ``complex128``
    block (else :class:`ShapeMismatchError`: f2py would invert a copy, or
    write a read-only block); ``a`` is returned holding its inverse.
    Without it the block is a C-ordered copy of ``a``, so both modes give
    the same bits.  Counted as one LU, two triangular solves and one
    inversion.

    Raises
    ------
    SingularBlockError
        If ``a`` is exactly singular.  Without ``overwrite_a`` the index
        is ``a``'s own pivot row.  With it, ``a`` is left partly factored
        and the index is its transpose's pivot row.
    """
    if overwrite_a:
        if not (
            isinstance(a, np.ndarray)
            and a.dtype == COMPLEX
            and a.ndim == 2
            and a.flags.c_contiguous
            and a.flags.writeable
        ):
            raise ShapeMismatchError(
                "overwrite_a needs a C-contiguous, writeable complex128 block"
            )
        x = a
    else:
        x = np.array(a, dtype=COMPLEX, order="C")
        if x.ndim != 2:
            raise ShapeMismatchError(f"expected a 2-d block, got ndim={x.ndim}")
    m, n = x.shape
    if m != n:
        raise ShapeMismatchError(f"inversion requires a square block, got {x.shape}")
    if counter is not None:
        counter.lu_count += 1
    if n:
        xt = x.T
        lu, piv, info = zgetrf(xt, overwrite_a=1)
        if info > 0:
            if not overwrite_a:
                _getrf(a)  # raises with the index of ``a``'s own pivot row
            raise SingularBlockError(f"exactly singular pivot at row {info - 1}", index=info - 1)
        inv, _ = zgetri(lu, piv, lwork=_getri_lwork(n), overwrite_lu=1)
        if inv is not xt:  # f2py wrote a copy
            raise ShapeMismatchError("LAPACK did not invert the block in place")
    if counter is not None:
        counter.inv_count += 1
        counter.trsm_count += 2
    return x
