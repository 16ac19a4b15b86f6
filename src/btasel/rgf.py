"""Sequential selected inversion and fused selected quadratic solution.

The solver runs a block-sequential forward Schur-complement sweep over
the diagonal blocks (storing the inverted pivots), followed by a backward
substitution sweep that produces exactly the pattern blocks of
``X = A^-1`` and, in fused mode, of ``X = A^-1 B A^-H``.

A plain block-tridiagonal (BT) system is an arrowhead system with an
empty arrow (``a = 0``): both run the same two sweeps, and the arrow
size picks the step.  With an arrow every elimination step adds
arrow-strip and tip updates, keeping the coupling values seen at
elimination time, and every backward step has two trailing couplings,
the next block and the tip.  Without one the backward step has one
trailing coupling and is written out by hand: the generic step at one
coupling made the b=4 backward sweep 13-18% slower.  The backward
substitution at pivot ``i`` only ever reads trailing entries that lie
on the sparsity pattern, which is what keeps the selected solve linear
in the number of diagonal blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from .errors import ShapeMismatchError, SingularBlockError
from .kernels import OpCounter, block_inverse, mm
from .matrix import BtaMatrix, SelectedSolution

__all__ = [
    "RgfFactors",
    "bt_forward",
    "bt_backward",
    "bta_forward",
    "bta_backward",
    "solve_selected",
]


@dataclass
class RgfFactors:
    """Per-block Schur data retained between the forward and backward passes.

    ``s_a[i]`` is the inverse of the i-th updated pivot: a view of the
    working diagonal slot in which the pivot was formed and then
    inverted in place.  In fused mode ``s_b[i]`` holds the quadratic
    Schur block for ``i < n-1`` and ``l_sb[i]`` the forward's product
    ``lower[i]·s_b[i]``, which the backward step reuses; the last
    diagonal's quadratic block is formed at the start of the backward
    pass from the forward-updated ``b_diag_last``.  For arrowhead systems
    the arrow couplings as seen when block ``i`` was eliminated are
    retained, together with the reduced tip, inverted in its working
    slot.  Retained blocks may be views of the working copies' slots,
    which the forward pass writes no more once retained.
    """

    n: int
    b: int
    a: int
    mode: str
    s_a: list = field(default_factory=list)
    s_b: list | None = None
    l_sb: list | None = None
    b_diag_last: np.ndarray | None = None
    arrow_row_elim: list | None = None
    arrow_col_elim: list | None = None
    b_arrow_row_elim: list | None = None
    b_arrow_col_elim: list | None = None
    tip_schur_inv: np.ndarray | None = None
    b_tip: np.ndarray | None = None


def _invert_pivot(block, index, counter):
    """Invert a working diagonal slot in place and return it; a singular
    pivot is reported as diagonal block ``index``."""
    try:
        return block_inverse(block, counter, overwrite_a=True)
    except SingularBlockError as exc:
        raise SingularBlockError(
            f"singular pivot at diagonal block {index} (input not diagonally dominant?)",
            index=index,
        ) from exc


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def _new_factors(n, b, a, fused) -> RgfFactors:
    """Factors with one empty slot per block for every retained list;
    the arrow lists only when the arrow is not empty."""
    factors = RgfFactors(n=n, b=b, a=a, mode="siq" if fused else "si")
    factors.s_a = [None] * n
    if fused:
        factors.s_b = [None] * max(n - 1, 0)
        factors.l_sb = [None] * max(n - 1, 0)
    if a > 0:
        factors.arrow_row_elim = [None] * n
        factors.arrow_col_elim = [None] * n
        if fused:
            factors.b_arrow_row_elim = [None] * n
            factors.b_arrow_col_elim = [None] * n
    return factors


def _bupdate(counter, out, x1, y1, x2, y2, x3, y3):
    """A fused step's right-hand-side update ``out - x1·y1 - x2·y2^H +
    x3·y3^H``, left to right, in ``out`` (or a new block from ``-x1·y1``)."""
    out = mm(x1, y1, counter, out=out, alpha=-1, beta=0 if out is None else 1)
    mm(x2, y2, counter, tb=True, out=out, alpha=-1, beta=1)
    return mm(x3, y3, counter, tb=True, out=out, beta=1)


def _forward_sweep(a, b, factors, stop, tip_a, tip_b, counter, index):
    """Eliminate blocks ``0..stop-1`` of a BT or arrowhead system, top-down.

    ``a`` (and ``b``) are working stacks with the fields of a
    :class:`BtaMatrix` except the tip, updated in place: each step writes
    the next block's diagonal and arrow slots and subtracts its tip
    contribution from ``tip_a`` (``tip_b``).  The pivot inverses and the
    couplings as seen at elimination are retained in ``factors`` at the
    block's position.  ``index[i]`` is the number a singular pivot at
    block ``i`` is reported under.  The arrow-strip and tip updates, and
    the retained arrow couplings, are made only when the arrow is not
    empty (``factors.a > 0``).
    """
    fused = b is not None
    arrow = factors.a > 0
    for i in range(stop):
        s = _invert_pivot(a.diag[i], index[i], counter)
        factors.s_a[i] = s
        lo = a.lower[i]
        # Next-block slots, updated in place; slot i stays as retained.
        ad = a.diag[i + 1]
        if fused:
            # Left-hand elimination factors shared by all fused updates.
            w = mm(s, b.diag[i], counter)
            sb = mm(w, s, counter, tb=True)
            factors.s_b[i] = sb
            f = mm(lo, s, counter)
            mm(f, a.upper[i], counter, out=ad, alpha=-1, beta=1)
            v = mm(lo, sb, counter)
            factors.l_sb[i] = v
            bd = b.diag[i + 1]
            mm(v, lo, counter, tb=True, out=bd, beta=1)
            mm(b.lower[i], f, counter, tb=True, out=bd, alpha=-1, beta=1)
            mm(f, b.upper[i], counter, out=bd, alpha=-1, beta=1)
        else:
            # Right-hand temporaries reach the minimal mixed-shape count.
            t1 = mm(s, a.upper[i], counter)
            mm(lo, t1, counter, out=ad, alpha=-1, beta=1)
        if not arrow:
            continue
        factors.arrow_row_elim[i] = a.arrow_row[i]
        factors.arrow_col_elim[i] = a.arrow_col[i]
        ar, ac = a.arrow_row[i + 1], a.arrow_col[i + 1]
        if fused:
            factors.b_arrow_row_elim[i] = b.arrow_row[i]
            factors.b_arrow_col_elim[i] = b.arrow_col[i]
            g = mm(a.arrow_row[i], s, counter)
            p = mm(g, b.diag[i], counter)
            k = mm(b.diag[i], g, counter, tb=True)
            mm(g, a.upper[i], counter, out=ar, alpha=-1, beta=1)
            mm(f, a.arrow_col[i], counter, out=ac, alpha=-1, beta=1)
            mm(g, a.arrow_col[i], counter, out=tip_a, alpha=-1, beta=1)
            br, bc = b.arrow_row[i + 1], b.arrow_col[i + 1]
            mm(g, b.upper[i], counter, out=br, alpha=-1, beta=1)
            mm(p - b.arrow_row[i], f, counter, tb=True, out=br, beta=1)
            mm(f, b.arrow_col[i], counter, out=bc, alpha=-1, beta=1)
            mm(b.lower[i], g, counter, tb=True, out=bc, alpha=-1, beta=1)
            mm(f, k, counter, out=bc, beta=1)
            _bupdate(counter, tip_b, g, b.arrow_col[i], b.arrow_row[i], g, p, g)
        else:
            t2 = mm(s, a.arrow_col[i], counter)
            mm(a.arrow_row[i], t1, counter, out=ar, alpha=-1, beta=1)
            mm(lo, t2, counter, out=ac, alpha=-1, beta=1)
            mm(a.arrow_row[i], t2, counter, out=tip_a, alpha=-1, beta=1)


def bta_forward(
    a: BtaMatrix, b: BtaMatrix | None = None, counter: OpCounter | None = None
) -> RgfFactors:
    """Forward Schur-complement pass over a BT or arrowhead system.

    ``a`` (and ``b``) are working copies updated in place; the
    non-destructive entry point is :func:`solve_selected`.  Eliminates
    diagonal blocks top-down with :func:`_forward_sweep`, propagating
    updates into the next diagonal block and, with an arrow, the next
    arrow strips and the tip, all restricted to the a-priori nonzero
    positions.  With an arrow the final diagonal block is then
    eliminated into the tip and the updated tip is inverted; without one
    (``a = 0``) the last pivot's inverse ends the pass, so a plain BT
    system takes exactly ``n`` inversions.

    Cost per interior step: 2/1/2/1 (selected inversion) or 8/5/5/4
    (fused) products of shape classes bbb/abb/bba/aba, the last three
    absent at ``a = 0``.  Off-diagonal blocks are never modified.
    """
    if b is not None and b.shape_params != a.shape_params:
        raise ShapeMismatchError("right-hand side shape differs from system shape")
    n = a.n
    fused = b is not None
    factors = _new_factors(n, a.b, a.a, fused)
    _forward_sweep(a, b, factors, n - 1, a.tip, b.tip if fused else None, counter, range(n))

    # Epilogue: eliminate the last diagonal block into the tip, invert it.
    i = n - 1
    s = _invert_pivot(a.diag[i], i, counter)
    factors.s_a[i] = s
    if fused:
        factors.b_diag_last = b.diag[i]
    if a.a == 0:
        return factors
    factors.arrow_row_elim[i] = a.arrow_row[i]
    factors.arrow_col_elim[i] = a.arrow_col[i]
    if fused:
        factors.b_arrow_row_elim[i] = b.arrow_row[i]
        factors.b_arrow_col_elim[i] = b.arrow_col[i]
        g = mm(a.arrow_row[i], s, counter)
        p = mm(g, b.diag[i], counter)
        mm(g, a.arrow_col[i], counter, out=a.tip, alpha=-1, beta=1)
        _bupdate(counter, b.tip, g, b.arrow_col[i], b.arrow_row[i], g, p, g)
        factors.b_tip = b.tip
    else:
        t2 = mm(s, a.arrow_col[i], counter)
        mm(a.arrow_row[i], t2, counter, out=a.tip, alpha=-1, beta=1)
    try:
        factors.tip_schur_inv = block_inverse(a.tip, counter, overwrite_a=True)
    except SingularBlockError as exc:
        raise SingularBlockError(
            "singular updated arrow tip (input not diagonally dominant?)", index=n
        ) from exc
    return factors


def _sum_mm(xs, ys, counter, *, tb=False, out=None, alpha=1):
    """``alpha·sum_l xs[l]·op(ys[l])``, accumulated in ``out`` (a new block
    when None) by one :func:`mm` call per term."""
    out = mm(xs[0], ys[0], counter, tb=tb, out=out, alpha=alpha)
    for x, y in zip(xs[1:], ys[1:]):
        mm(x, y, counter, tb=tb, out=out, alpha=alpha, beta=1)
    return out


def _sum_pairs(terms, alpha, counter, out=None):
    """``sum_l (x_l·y_l + alpha·u_l·v_l^H)`` over ``terms`` (x, y, u, v), each
    term formed before it is added, the first in ``out`` (or a new block)."""
    acc = None
    for x, y, u, v in terms:
        t = mm(x, y, counter, out=out if acc is None else None)
        mm(u, v, counter, tb=True, out=t, alpha=alpha, beta=1)
        acc = t if acc is None else np.add(acc, t, out=acc)
    return acc


def _backstep(
    g, rs, qs, ya, sc=None, ss=None, ws=None, yb=None, counter=None, *, qsb=None, out=None
):
    """One backward substitution step at a pivot with trailing couplings.

    ``g`` is the pivot inverse ``S``; ``rs[l]``/``qs[l]`` are the
    pivot-to-trailing and trailing-to-pivot coupling blocks ``R_l``/``Q_l``
    as seen at elimination time; ``ya[l][m]`` (and ``yb``) are the
    already-known trailing solution blocks ``Y_lm`` (``Z_lm``).  Returns
    the pivot's solution row ``X(i,j)``, column ``X(j,i)`` and diagonal
    for the inverse and, when the quadratic data ``sc`` (``Sb``), ``ss``
    (``Ss_l``, pivot-to-trailing), ``ws`` (``W_l``, trailing-to-pivot) and
    ``yb`` is given, for the quadratic solution.  ``qsb[l]``, when not
    None, is the forward's product ``Q_l·Sb``, reused instead of formed.
    ``out``, when given, names an output slot (or None, for a new block)
    for every block of the result, in its shape; each block is written
    into its slot by its last operation.

    Each product is formed once.  With ``F1_l = S·R_l``, ``F2_l = Q_l·S``,
    ``E_l = W_l·S^H - Q_l·Sb`` and ``G_l = S·Ss_l - Sb·Q_l^H``::

        X(j,i) = -sum_l Y_jl·F2_l        X(i,j) = -sum_l F1_l·Y_lj
        X_ii   = S - sum_l F1_l·X(l,i)
        Z(j,i) = sum_l (Y_jl·E_l - Z_jl·F1_l^H)
        V_j    = sum_l G_l·Y_jl^H        Z(i,j) = V_j - sum_l F1_l·Z_lj
        Z_ii   = Sb - sum_l (F1_l·Z(l,i) + V_l·F1_l^H)

    which is ``2k^2+3k`` products for the inverse and ``4k^2+6k`` more for
    the quadratic solution at ``k`` trailing couplings, less one per
    reused ``Q_l·Sb`` (the standard RGF recursion, Svizhenko et al.,
    J. Appl. Phys. 2002).  Nothing assumes ``B = B^H``.  All products are
    pattern-restricted: the trailing blocks touched are exactly those on
    the BT(A) pattern of the (possibly permuted) system.
    """
    k = len(rs)
    c = counter
    none = [None] * k
    ra, ca, da, rb, cb, db = out or (none, none, None, none, none, None)
    # Ordered so that few temporary blocks are alive at once: at large b
    # each one shows in peak memory.  A negated sum accumulates in its
    # output slot, -x - y being -(x + y) bit for bit; a sum subtracted
    # from a base block, or a sum of differences, is formed first.
    f2 = [mm(q, g, c) for q in qs]
    xa_col = [_sum_mm(ya[j], f2, c, out=ca[j], alpha=-1) for j in range(k)]
    del f2
    f1 = [mm(g, r, c) for r in rs]
    xa_diag = np.subtract(g, _sum_mm(f1, xa_col, c), out=da)
    xa_row = [_sum_mm(f1, [y[j] for y in ya], c, out=ra[j], alpha=-1) for j in range(k)]

    if yb is None:
        return xa_row, xa_col, xa_diag, None, None, None

    es = [mm(w, g, c, tb=True) for w in ws]
    for e, q, reused in zip(es, qs, qsb or none):
        if reused is None:
            mm(q, sc, c, out=e, alpha=-1, beta=1)
        else:
            e -= reused
    gs = [_sum_pairs([(g, s, sc, q)], -1, c) for s, q in zip(ss, qs)]
    xb_col = [_sum_pairs(zip(ya[j], es, yb[j], f1), -1, c, cb[j]) for j in range(k)]
    vs = [_sum_mm(gs, ya[j], c, tb=True) for j in range(k)]
    xb_diag = np.subtract(sc, _sum_pairs(zip(f1, xb_col, vs, f1), 1, c), out=db)
    sums = [_sum_mm(f1, [y[j] for y in yb], c) for j in range(k)]
    xb_row = [np.subtract(v, t, out=t if o is None else o) for v, t, o in zip(vs, sums, rb)]
    return xa_row, xa_col, xa_diag, xb_row, xb_col, xb_diag


def _out_slots(x, i, k):
    """Output slots of backward step ``i``: the solution row (first
    off-diagonal when ``k = 2``, arrow column), column and diagonal."""
    row, col = [x.arrow_col[i]], [x.arrow_row[i]]
    if k == 2:
        row.insert(0, x.upper[i])
        col.insert(0, x.lower[i])
    return row, col, x.diag[i]


def _backward_sweep(factors, a, b, x_a, x_b, stop, ytt, ztt, counter):
    """Backward steps at blocks ``stop-1`` down to 0.

    The sweep is seeded with block ``stop``'s diagonal and arrow solution
    blocks, read from their slots of ``x_a`` (``x_b``), and the tip
    solution ``ytt`` (``ztt``); it writes every block it solves into its
    slot.  ``a`` and ``b`` supply the off-diagonal couplings.  With an
    arrow each step has two trailing couplings, the next block and the
    tip, and runs :func:`_backstep`.

    Without one (``factors.a == 0``) a step has the next block as its
    only coupling.  That is the ``k = 1`` case of :func:`_backstep`,
    written out by hand because it is the hot loop of small-block runs:
    the generic step made the b=4 sweep 13-18% slower.  With
    ``S = s_a[i]``, ``Sb = s_b[i]``, ``U``/``L`` the upper/lower
    couplings of ``a`` and ``Bu``/``Bl`` those of ``b``, ``F1 = S·U``,
    ``F2 = L·S`` and ``Y``/``Z`` the trailing diagonals::

        X(i+1,i) = -Y·F2    X(i,i+1) = -F1·Y    X_ii = S - F1·X(i+1,i)
        Z(i+1,i) = Y·(Bl·S^H - L·Sb) - Z·F1^H
        V = (S·Bu - Sb·L^H)·Y^H                 Z(i,i+1) = V - F1·Z
        Z_ii = Sb - F1·Z(i+1,i) - V·F1^H

    ``L·Sb`` comes from the forward pass (``l_sb``), so a step costs 5
    (selected inversion) or 14 (fused) b-sized products.
    """
    fused, arrow = x_b is not None, factors.a > 0
    y_dd, y_dt, y_td = x_a.diag[stop], x_a.arrow_col[stop], x_a.arrow_row[stop]
    if fused:
        z_dd, z_dt, z_td = x_b.diag[stop], x_b.arrow_col[stop], x_b.arrow_row[stop]
    ss = ws = yb = sc = qsb = None
    for i in range(stop - 1, -1, -1):
        s = factors.s_a[i]
        if not arrow:
            # A difference from a base block starts as a copy of the base.
            y, lo = y_dd, a.lower[i]
            f1 = mm(s, a.upper[i], counter)
            f2 = mm(lo, s, counter)
            xl = mm(y, f2, counter, out=x_a.lower[i], alpha=-1)
            mm(f1, y, counter, out=x_a.upper[i], alpha=-1)
            x_a.diag[i] = s
            y_dd = mm(f1, xl, counter, out=x_a.diag[i], alpha=-1, beta=1)
            if fused:
                z, sb = z_dd, factors.s_b[i]
                e = mm(b.lower[i], s, counter, tb=True)
                e -= factors.l_sb[i]
                zl = mm(y, e, counter, out=x_b.lower[i])
                mm(z, f1, counter, tb=True, out=zl, alpha=-1, beta=1)
                g = mm(s, b.upper[i], counter)
                mm(sb, lo, counter, tb=True, out=g, alpha=-1, beta=1)
                v = mm(g, y, counter, tb=True)
                x_b.upper[i] = v
                mm(f1, z, counter, out=x_b.upper[i], alpha=-1, beta=1)
                x_b.diag[i] = sb
                mm(f1, zl, counter, out=x_b.diag[i], alpha=-1, beta=1)
                z_dd = mm(v, f1, counter, tb=True, out=x_b.diag[i], alpha=-1, beta=1)
            continue
        rs = [a.upper[i], factors.arrow_col_elim[i]]
        qs = [a.lower[i], factors.arrow_row_elim[i]]
        ya = [[y_dd, y_dt], [y_td, ytt]]
        if fused:
            ss = [b.upper[i], factors.b_arrow_col_elim[i]]
            ws = [b.lower[i], factors.b_arrow_row_elim[i]]
            yb = [[z_dd, z_dt], [z_td, ztt]]
            sc = factors.s_b[i]
            qsb = [factors.l_sb[i], None]
        out = _out_slots(x_a, i, 2) + (_out_slots(x_b, i, 2) if fused else (None,) * 3)
        xa_row, xa_col, xa_diag, xb_row, xb_col, xb_diag = _backstep(
            s, rs, qs, ya, sc, ss, ws, yb, counter, qsb=qsb, out=out
        )
        y_dd, y_dt, y_td = xa_diag, xa_row[-1], xa_col[-1]
        if fused:
            z_dd, z_dt, z_td = xb_diag, xb_row[-1], xb_col[-1]


def bta_backward(
    factors: RgfFactors,
    a: BtaMatrix,
    b: BtaMatrix | None = None,
    counter: OpCounter | None = None,
    *,
    diagonal_only: bool = False,
) -> SelectedSolution:
    """Backward selected substitution over a BT or arrowhead system.

    Consumes the factors of :func:`bta_forward` and the original
    off-diagonal blocks of ``a`` and ``b`` (the forward pass never
    modifies them).  Starts from the last block (with an arrow, from the
    inverted reduced tip) and steps backward with :func:`_backward_sweep`,
    which at ``a = 0`` takes its hand-written one-coupling step (the
    generic step was 13-18% slower at b=4).  Every pattern block of the
    solution(s) is written into its output slot by its last operation;
    with ``diagonal_only`` the off-diagonal ones are computed but left
    zero.
    """
    n = factors.n
    if a.shape_params != (factors.n, factors.b, factors.a):
        raise ShapeMismatchError("system shape disagrees with factors")
    fused = factors.mode == "siq"
    if fused and b is None:
        raise ShapeMismatchError("fused factors require the right-hand side")

    x_a = BtaMatrix.empty(n, factors.b, factors.a)
    x_b = BtaMatrix.empty(n, factors.b, factors.a) if fused else None

    i = n - 1
    s = factors.s_a[i]
    sc = mm(mm(s, factors.b_diag_last, counter), s, counter, tb=True) if fused else None
    ytt, ztt = factors.tip_schur_inv, None
    if factors.a == 0:
        # The last block has no trailing coupling: X_ii = S, Z_ii = Sb.
        x_a.diag[i] = s
        if fused:
            x_b.diag[i] = sc
    else:
        # The last block's step has the tip as its only trailing coupling.
        x_a.tip[...] = ytt
        ss = ws = yb = None
        if fused:
            ztt = mm(mm(ytt, factors.b_tip, counter), ytt, counter, tb=True, out=x_b.tip)
            ss, ws, yb = [factors.b_arrow_col_elim[i]], [factors.b_arrow_row_elim[i]], [[ztt]]
        out = _out_slots(x_a, i, 1) + (_out_slots(x_b, i, 1) if fused else (None,) * 3)
        rs, qs = [factors.arrow_col_elim[i]], [factors.arrow_row_elim[i]]
        _backstep(s, rs, qs, [[ytt]], sc, ss, ws, yb, counter, out=out)
    _backward_sweep(factors, a, b, x_a, x_b, i, ytt, ztt, counter)

    if diagonal_only:
        for x in (x_a, x_b) if fused else (x_a,):
            x.lower[...] = x.upper[...] = 0.0
    return SelectedSolution(x_a=x_a, x_b=x_b, mode=factors.mode)


def bt_forward(a: BtaMatrix, *args, **kwargs) -> RgfFactors:
    """:func:`bta_forward` of a plain BT matrix (``a = 0``), which it
    requires; the empty arrow skips every arrow and tip update: 2 (or 8
    fused) b-sized products per step and ``n`` inversions."""
    if a.a != 0:
        raise ShapeMismatchError("bt_forward requires a plain BT matrix (a=0)")
    return bta_forward(a, *args, **kwargs)


def bt_backward(factors: RgfFactors, *args, **kwargs) -> SelectedSolution:
    """:func:`bta_backward` of BT factors (``a = 0``), which it requires:
    the hand-written one-coupling step of :func:`_backward_sweep`, 5
    (selected inversion) or 14 (fused) b-sized products per step."""
    if factors.a != 0:
        raise ShapeMismatchError("bt_backward requires BT factors (a=0)")
    return bta_backward(factors, *args, **kwargs)


# ---------------------------------------------------------------------------
# Facade
# ---------------------------------------------------------------------------


def solve_selected(
    a: BtaMatrix,
    b: BtaMatrix | None = None,
    mode: str | None = None,
    *,
    counter: OpCounter | None = None,
    timings: dict | None = None,
    diagonal_only: bool = False,
) -> SelectedSolution:
    """Compute the selected inverse of ``a`` and, in fused mode, the
    selected quadratic solution for the right-hand side ``b``.

    Dispatches on the arrow size (plain BT vs. arrowhead) and never
    mutates its inputs.  ``mode`` defaults to ``"siq"`` when ``b`` is
    given and ``"si"`` otherwise; ``timings``, when provided, receives
    the wall-clock seconds of the forward and backward sweeps.  Raises
    :class:`NonFiniteInputError` if ``a`` (or, in ``"siq"`` mode, ``b``)
    holds a NaN or infinite entry.
    """
    if mode is None:
        mode = "si" if b is None else "siq"
    if mode not in ("si", "siq"):
        raise ValueError(f"mode must be 'si' or 'siq', got {mode!r}")
    if mode == "siq" and b is None:
        raise ValueError("mode 'siq' requires a right-hand side")
    a.require_finite("a")
    if mode == "siq":
        b.require_finite("b")
    # The sweeps never write the off-diagonal stacks: the working copies
    # share them with the inputs instead of copying them.
    rhs = b.copy(share=("lower", "upper")) if mode == "siq" else None
    work = a.copy(share=("lower", "upper"))

    t0 = perf_counter()
    factors = bta_forward(work, rhs, counter)
    t1 = perf_counter()
    sol = bta_backward(factors, work, rhs, counter, diagonal_only=diagonal_only)
    t2 = perf_counter()
    if timings is not None:
        timings["forward"] = t1 - t0
        timings["backward"] = t2 - t1
    return sol
