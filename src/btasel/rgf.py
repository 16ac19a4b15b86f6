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
the next block and the tip; without one it has one, the next block.
One function, :func:`_bt_step`, runs every step with one trailing
coupling: each BT step, and an arrowhead system's last block, whose one
coupling is the tip.  The two-coupling step is written out in
:func:`_backward_sweep` with the same formulas.  Both form each product
of the recursion once.  The backward substitution at pivot
``i`` only ever reads trailing entries that lie on the sparsity
pattern, which is what keeps the selected solve linear in the number
of diagonal blocks.

One set of block storage serves the whole solve.  The facade's private
working copies are updated in place by the forward sweep, which leaves
in coupling slots the products the backward sweep reads, and the
backward sweep writes each solution block into the slot of the same
block, so the working copies become the solution.  A backward step
therefore reads each slot before it writes its solution block there.

A right-hand side with ``B = σ·B^H`` for σ = 1 or -1 (Hermitian, or
skew-Hermitian like the lesser self-energy of NEGF transport) has a
σ-Hermitian quadratic solution, and so do the Schur updates of ``B``.
:func:`bta_forward` finds σ by comparing ``B`` with its mirror exactly
(:func:`_hermitian_sign`; any other ``B`` gives σ = 0) and keeps it in
the factors.  The sweeps then copy, as conjugate transposes, blocks they
would otherwise form a second time: the backward step's mirrored half
and the forward's arrow-column update.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from .errors import ShapeMismatchError, SingularBlockError
from .kernels import _SMALL, OpCounter, block_inverse, mm
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
    """What the backward pass needs of the forward pass beyond the
    working copies it updated.

    Those copies are the record of the elimination: each diagonal slot
    holds its pivot's inverse ``S``, each arrow slot the coupling as seen
    when its block was eliminated, and with an arrow the tip slot the
    inverted reduced tip.  The forward's products that the backward step
    reads sit in the slots of the couplings they were formed from, in
    both modes ``L·S`` and ``Ar·S`` in ``a``'s lower and arrow-row slots,
    and in fused mode ``Bl - L·S·Bd`` and ``Br - Ar·S·Bd`` in ``b``'s.
    In fused mode ``s_b[i]`` holds the quadratic Schur block ``Sb`` of
    pivot ``i < n-1``, which no slot holds; the list is empty in
    selected inversion.  ``sigma`` is 1 or -1 when the right-hand side
    is exactly ``sigma`` times its conjugate transpose, else 0; the
    sweeps read it to skip the mirrored products.
    """

    n: int
    b: int
    a: int
    mode: str
    sigma: int = 0
    s_b: list = field(default_factory=list)


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


def _hermitian_sign(m: BtaMatrix) -> int:
    """σ (1 or -1) when ``m == σ·m^H`` holds exactly, else 0.

    Compares the diagonal blocks and the tip with their own mirrors,
    ``upper`` with ``lower`` and ``arrow_col`` with ``arrow_row``, one
    stack at a time, so that no copy of all of ``m`` is alive at once.
    A matrix that is σ-Hermitian only up to rounding gives 0.
    """
    pairs = ((m.diag, m.diag), (m.upper, m.lower), (m.arrow_col, m.arrow_row), (m.tip, m.tip))
    f64 = np.float64  # compared as float pairs: 4x faster, and -0.0 == 0.0 still

    def mirrored(x, y, sigma):
        return np.array_equal(x.view(f64), _mirror(y, sigma).view(f64))

    # The first diagonal block rules a sign out before any stack is
    # mirrored, so a general ``m`` costs two b-by-b mirrors.
    first = m.diag[:1]
    for sigma in (1, -1):
        if mirrored(first, first, sigma) and all(mirrored(x, y, sigma) for x, y in pairs):
            return sigma
    return 0


def _mirror(x, sigma, out=None):
    """``sigma·x^H`` of a block, or of each block of a stack, in ``out``
    (a new C-ordered array when None)."""
    # A transposing copy and then a conjugation in place: at b=16 a ufunc
    # reading the transposed view takes twice as long.
    xh = x.swapaxes(-1, -2)
    if out is None:
        out = xh.copy()
    else:
        out[...] = xh
    np.conjugate(out, out=out)
    return np.negative(out, out=out) if sigma < 0 else out


def _sub_mirrored(out, t, sigma):
    """``out - t - sigma·t^H``, in ``out``."""
    np.subtract(out, t, out=out)
    return np.subtract(out, _mirror(t, sigma), out=out)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def _arrow_into_tip(a, b, i, s, tip_a, tip_b, counter):
    """Eliminate block ``i``'s arrow strips into the tips ``tip_a`` (and
    ``tip_b``), leaving in its slots what the backward step reads:
    ``g = Ar·S`` in ``a.arrow_row[i]`` and, in fused mode,
    ``r = Br - g·Bd`` in ``b.arrow_row[i]``.  Returns ``(g, r)``, ``r``
    None in selected inversion."""
    g = _put(a.arrow_row[i], mm(a.arrow_row[i], s, counter))
    mm(g, a.arrow_col[i], counter, out=tip_a, alpha=-1, beta=1)
    if b is None:
        return g, None
    r = mm(g, b.diag[i], counter, out=b.arrow_row[i], alpha=-1, beta=1)
    mm(r, g, counter, tb=True, out=tip_b, alpha=-1, beta=1)
    mm(g, b.arrow_col[i], counter, out=tip_b, alpha=-1, beta=1)
    return g, r


def _forward_sweep(a, b, factors, stop, tip_a, tip_b, counter, index):
    """Eliminate blocks ``0..stop-1`` of a BT or arrowhead system, top-down.

    ``a`` (and ``b``) are working stacks with the fields of a
    :class:`BtaMatrix` except the tip, updated in place: each step
    inverts its pivot in its slot, writes the next block's diagonal and
    arrow slots and subtracts its tip contribution from ``tip_a``
    (``tip_b``).  Slot ``i`` is left as block ``i`` was eliminated, but
    for the coupling slots the caller must own, which get the products
    the backward step reads: ``f = L·S`` and ``g = Ar·S`` in ``a``'s
    lower and arrow-row slots and, in fused mode, ``q = Bl - f·Bd`` and
    ``r = Br - g·Bd`` in ``b``'s, with ``Sb`` appended to ``factors``.
    Selected inversion is the fused step less ``B``'s products, so
    ``A``'s side gets the same bytes in both modes.  ``B``'s updates are::

        Bd' -= q·f^H + f·Bu     Br' -= g·Bu + r·f^H
        Bc' -= f·Bc + q·g^H     Bt  -= r·g^H + g·Bc

    ``index[i]`` is the number a singular pivot at block ``i`` is
    reported under.  Arrow-strip and tip updates are made only when the
    arrow is not empty (``factors.a > 0``).  With ``factors.sigma``
    nonzero, ``b`` is σ-Hermitian and stays so: the next arrow column is
    set to the mirror of the updated arrow row.
    """
    fused = b is not None
    arrow = factors.a > 0
    for i in range(stop):
        s = _invert_pivot(a.diag[i], index[i], counter)
        if fused:
            factors.s_b.append(mm(mm(s, b.diag[i], counter), s, counter, tb=True))
        f = _put(a.lower[i], mm(a.lower[i], s, counter))
        mm(f, a.upper[i], counter, out=a.diag[i + 1], alpha=-1, beta=1)
        if fused:
            q = mm(f, b.diag[i], counter, out=b.lower[i], alpha=-1, beta=1)
            bd = b.diag[i + 1]
            mm(q, f, counter, tb=True, out=bd, alpha=-1, beta=1)
            mm(f, b.upper[i], counter, out=bd, alpha=-1, beta=1)
        if not arrow:
            continue
        g, r = _arrow_into_tip(a, b, i, s, tip_a, tip_b, counter)
        mm(g, a.upper[i], counter, out=a.arrow_row[i + 1], alpha=-1, beta=1)
        mm(f, a.arrow_col[i], counter, out=a.arrow_col[i + 1], alpha=-1, beta=1)
        if not fused:
            continue
        br, bc = b.arrow_row[i + 1], b.arrow_col[i + 1]
        mm(g, b.upper[i], counter, out=br, alpha=-1, beta=1)
        mm(r, f, counter, tb=True, out=br, alpha=-1, beta=1)
        if factors.sigma:
            _mirror(br, factors.sigma, out=bc)
        else:
            mm(f, b.arrow_col[i], counter, out=bc, alpha=-1, beta=1)
            mm(q, g, counter, tb=True, out=bc, alpha=-1, beta=1)


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

    Cost per interior step: 2/2/1/1 (selected inversion) or 7/5/3/3
    (fused) products of shape classes bbb/abb/bba/aba, the last three
    absent at ``a = 0``; 7/5/1/3 (fused) when ``b`` is exactly
    σ-Hermitian (σ = ±1, found here by :func:`_hermitian_sign` and kept
    in the factors).  The updated copies, whose coupling slots hold the
    products :func:`_forward_sweep` names (the last block's arrow slots
    too), are what :func:`bta_backward` reads; the factors add only
    ``σ`` and ``Sb``.
    """
    if b is not None and b.shape_params != a.shape_params:
        raise ShapeMismatchError("right-hand side shape differs from system shape")
    n = a.n
    fused = b is not None
    mode, sigma = ("siq", _hermitian_sign(b)) if fused else ("si", 0)
    factors = RgfFactors(n, a.b, a.a, mode, sigma)
    _forward_sweep(a, b, factors, n - 1, a.tip, b.tip if fused else None, counter, range(n))

    # Epilogue: eliminate the last diagonal block into the tip, invert it.
    i = n - 1
    s = _invert_pivot(a.diag[i], i, counter)
    if a.a == 0:
        return factors
    _arrow_into_tip(a, b, i, s, a.tip, b.tip if fused else None, counter)
    try:
        block_inverse(a.tip, counter, overwrite_a=True)
    except SingularBlockError as exc:
        raise SingularBlockError(
            "singular updated arrow tip (input not diagonally dominant?)", index=n
        ) from exc
    return factors


def _sum_pairs(terms, alpha, counter, out=None):
    """``sum_l (x_l·y_l + alpha·u_l·v_l^H)`` over ``terms`` (x, y, u, v), each
    term formed before it is added, the first in ``out`` (or a new block)."""
    acc = None
    for x, y, u, v in terms:
        t = mm(x, y, counter, out=out if acc is None else None)
        mm(u, v, counter, tb=True, out=t, alpha=alpha, beta=1)
        acc = t if acc is None else np.add(acc, t, out=acc)
    return acc


def _put(slot, block):
    """``block`` copied into ``slot``, which is returned."""
    slot[...] = block
    return slot


def _bt_step(s, u, l, y, counter, bu=None, bl=None, bd=None, z=None, sb=None, sigma=0):
    """The backward step at a pivot with one trailing coupling ``j``: a
    BT step, or the last block's step of an arrowhead system, whose one
    coupling is the tip.  It solves in the slots it is handed.

    ``s`` is the pivot inverse ``S``; ``u`` and ``l`` are ``A``'s
    pivot-to-trailing and trailing-to-pivot couplings, ``bu``, ``bl`` and
    ``bd`` (fused) ``B``'s and the pivot's diagonal block of ``B``; ``y``
    (``z``) is the trailing diagonal solution ``Y`` (``Z``) and ``sb`` the
    quadratic Schur block ``Sb``.  The couplings are as
    :func:`_forward_sweep` left them: ``F2 = L·S`` in ``l`` and, fused,
    ``q = Bl - F2·Bd`` in ``bl``.  With ``F1 = S·U`` the step is::

        X(j,i) = -Y·F2      X(i,j) = -F1·Y      X_ii = S - F1·X(j,i)
        Z(j,i) = Y·q·S^H - Z·F1^H               V = S·(Bu - Bd·F2^H)·Y^H
        Z(i,j) = V - F1·Z   Z_ii = Sb - (F1·Z(j,i) + V·F1^H)

    4 (selected inversion) or 13 (fused) products.  With ``sigma`` = ±1
    (``B = σ·B^H``) it is 9 products, and ``Z(i,j)``, the mirror of
    ``Z(j,i)``, is left to the caller::

        P = Z·F1^H          Z(j,i) = Y·q·S^H - P
        T = F1·Z(j,i)       Z_ii = Sb - T - σ·T^H - F1·P

    Each solution block goes into the slot of the same block: ``X_ii``
    into ``s``, ``X(i,j)`` into ``u``, ``X(j,i)`` into ``l``, and ``Z``'s
    into ``bd``, ``bu`` and ``bl``.  Returns ``(X_ii, Z_ii)``, ``Z_ii``
    None in selected inversion.
    """
    # Every product that reads s or a coupling is formed before the first
    # write: the outputs are those very slots.
    f1 = mm(s, u, counter)
    if z is not None:
        e = mm(bl, s, counter, tb=True)
        if not sigma:  # G = S·(Bu - Bd·F2^H), the difference formed in Bu's slot
            g = mm(s, mm(bd, l, counter, tb=True, out=bu, alpha=-1, beta=1), counter)
    # X(j,i) goes into F2's slot from a new block.
    xl = mm(y, l, counter, alpha=-1)
    mm(f1, y, counter, out=u, alpha=-1)
    x_ii = mm(f1, xl, counter, out=s, alpha=-1, beta=1)
    l[...] = xl
    if z is None:
        return x_ii, None
    zl = mm(y, e, counter, out=bl)
    if sigma:
        p = mm(z, f1, counter, tb=True)
        zl -= p
        t = mm(f1, zl, counter)
        bd[...] = sb  # a difference from a base block starts as its copy
        mm(f1, p, counter, out=bd, alpha=-1, beta=1)
        return x_ii, _sub_mirrored(bd, t, sigma)
    mm(z, f1, counter, tb=True, out=zl, alpha=-1, beta=1)
    v = mm(g, y, counter, tb=True)
    t = mm(f1, zl, counter)
    mm(v, f1, counter, tb=True, out=t, beta=1)
    z_ii = np.subtract(sb, t, out=bd)
    bu[...] = v
    mm(f1, z, counter, out=bu, alpha=-1, beta=1)
    return x_ii, z_ii


def _backward_sweep(factors, a, b, stop, ytt, ztt, counter):
    """Backward steps at blocks ``stop-1`` down to 0, solved in place.

    ``a`` and ``b`` are the working stacks :func:`_forward_sweep` left:
    ``a.diag[i]`` is the pivot inverse ``S``, the forward's products sit
    in the slots it names, and every other coupling is as seen when block
    ``i`` was eliminated.  The sweep is seeded with block ``stop``'s
    diagonal and arrow solution blocks, read from their slots, and the
    tip solution ``ytt`` (``ztt``); it writes every block it solves into
    its slot.  A step reads a slot before it writes it, and writes a
    block whose slot holds a factor from a new block after the factor's
    last read; later steps read only solved slots.

    Without an arrow a step is :func:`_bt_step`.  With one it has two
    trailing couplings, the next block ``d`` and the tip ``t``, and runs
    inline: each sum of :func:`_bt_step`'s formulas becomes a sum over
    ``d`` and ``t`` of its products, in that order, and each temporary
    is freed where a generic k-coupling step would free it, which keeps
    the traced peak memory; a generic step made the b=16 arrow sweep
    20-30% slower.  With ``F2`` (and, fused, ``q``) from the forward, an
    arrow step costs 12 (selected inversion) or 38 (fused) products, 26
    with ``factors.sigma`` = ±1.  Under σ, ``Z(i,i+1)``, the mirror of
    ``Z(i+1,i)``, is written for every step at once when the sweep ends;
    the arrow column ``Z(i,t)`` is mirrored in each step, whose
    successor reads it.
    """
    fused, arrow, sigma = b is not None, factors.a > 0, factors.sigma
    y_dd, y_dt, y_td = a.diag[stop], a.arrow_col[stop], a.arrow_row[stop]
    if fused:
        z_dd, z_dt, z_td = b.diag[stop], b.arrow_col[stop], b.arrow_row[stop]
    for i in range(stop - 1, -1, -1):
        s = a.diag[i]
        if not arrow:
            qb = (b.upper[i], b.lower[i], b.diag[i], z_dd, factors.s_b[i]) if fused else ()
            y_dd, z_dd = _bt_step(s, a.upper[i], a.lower[i], y_dd, counter, *qb, sigma=sigma)
            continue
        y, ydt, ytd = y_dd, y_dt, y_td
        f2d, f2t = a.lower[i], a.arrow_row[i]  # F2, from the forward
        if fused:  # and B's couplings less F2·Bd
            z, zdt, ztd, sb = z_dd, z_dt, z_td, factors.s_b[i]
            ed, et = mm(b.lower[i], s, counter, tb=True), mm(b.arrow_row[i], s, counter, tb=True)
            if not sigma:  # G = S·(Bu - Bd·F2^H), the difference formed in Bu's slot
                bd = b.diag[i]
                gd, gt = (mm(s, mm(bd, f, counter, tb=True, out=o, alpha=-1, beta=1), counter)
                          for f, o in ((f2d, b.upper[i]), (f2t, b.arrow_col[i])))
        xl = mm(y, f2d, counter, alpha=-1)
        mm(ydt, f2t, counter, out=xl, alpha=-1, beta=1)
        xr = mm(ytd, f2d, counter, alpha=-1)
        mm(ytt, f2t, counter, out=xr, alpha=-1, beta=1)
        # The column goes into F2's slots after their last read.
        xl, xr = _put(a.lower[i], xl), _put(a.arrow_row[i], xr)
        f1d, f1t = mm(s, a.upper[i], counter), mm(s, a.arrow_col[i], counter)
        t = mm(f1d, xl, counter)
        mm(f1t, xr, counter, out=t, beta=1)
        y_dd = np.subtract(s, t, out=a.diag[i])
        del t
        xu = mm(f1d, y, counter, out=a.upper[i], alpha=-1)
        mm(f1t, ytd, counter, out=xu, alpha=-1, beta=1)
        xc = mm(f1d, ydt, counter, out=a.arrow_col[i], alpha=-1)
        mm(f1t, ytt, counter, out=xc, alpha=-1, beta=1)
        y_dt, y_td = a.arrow_col[i], xr
        if not fused:
            del f1d, f1t  # neither outlives its step
            continue
        zl, zr = b.lower[i], b.arrow_row[i]
        if sigma:
            pd = mm(z, f1d, counter, tb=True)
            mm(zdt, f1t, counter, tb=True, out=pd, beta=1)
            pt = mm(ztd, f1d, counter, tb=True)
            mm(ztt, f1t, counter, tb=True, out=pt, beta=1)
            mm(y, ed, counter, out=zl)
            mm(ydt, et, counter, out=zl, beta=1)
            mm(ytd, ed, counter, out=zr)
            mm(ytt, et, counter, out=zr, beta=1)
            zl -= pd
            zr -= pt
            # The next step reads the arrow column; the upper coupling is
            # mirrored for every step at once when the sweep ends.
            z_dt = _mirror(zr, sigma, out=b.arrow_col[i])
            t = mm(f1d, zl, counter)
            mm(f1t, zr, counter, out=t, beta=1)
            u = mm(f1d, pd, counter)
            mm(f1t, pt, counter, out=u, beta=1)
            z_dd = _sub_mirrored(np.subtract(sb, u, out=b.diag[i]), t, sigma)
            del pd, pt, u
        else:
            _sum_pairs(((y, ed, z, f1d), (ydt, et, zdt, f1t)), -1, counter, zl)
            _sum_pairs(((ytd, ed, ztd, f1d), (ytt, et, ztt, f1t)), -1, counter, zr)
            vd = mm(gd, y, counter, tb=True)
            mm(gt, ydt, counter, tb=True, out=vd, beta=1)
            vt = mm(gd, ytd, counter, tb=True)
            mm(gt, ytt, counter, tb=True, out=vt, beta=1)
            t = _sum_pairs(((f1d, zl, vd, f1d), (f1t, zr, vt, f1t)), 1, counter)
            z_dd = np.subtract(sb, t, out=b.diag[i])
            t = mm(f1d, z, counter)
            mm(f1t, ztd, counter, out=t, beta=1)
            np.subtract(vd, t, out=b.upper[i])
            t = mm(f1d, zdt, counter)
            mm(f1t, ztt, counter, out=t, beta=1)
            z_dt = np.subtract(vt, t, out=b.arrow_col[i])
            del gd, gt, vd, vt
        z_td = zr
        del ed, et, f1d, f1t, t  # none outlives its step
    if sigma:
        _mirror(b.lower[:stop], sigma, out=b.upper[:stop])


def bta_backward(
    factors: RgfFactors,
    a: BtaMatrix,
    b: BtaMatrix | None = None,
    counter: OpCounter | None = None,
    *,
    diagonal_only: bool = False,
) -> SelectedSolution:
    """Backward selected substitution over a BT or arrowhead system.

    ``a`` (and ``b``) are the working copies :func:`bta_forward` updated,
    which become the solution in place: each solution block is written
    into the slot of the same block.  The non-destructive entry point is
    :func:`solve_selected`.  Reads the pivot inverses, the couplings, the
    forward's products and the inverted tip from their slots, and ``Sb``
    from the factors, before it overwrites them; with selected-inversion
    factors ``b`` is not read.  Starts from the last block: without an
    arrow its solution is ``S`` (and ``Sb``); with one, from the inverted
    reduced tip, it runs :func:`_bt_step` with the tip as the one
    trailing coupling and the arrow strips as the couplings.  It then
    steps backward with :func:`_backward_sweep`.  Every pattern
    block of the solution(s) is written into its slot by its last
    operation; with ``diagonal_only`` the off-diagonal blocks are
    computed but left zero.
    """
    if a.shape_params != (factors.n, factors.b, factors.a):
        raise ShapeMismatchError("system shape disagrees with factors")
    fused = factors.mode == "siq"
    if fused and b is None:
        raise ShapeMismatchError("fused factors require the right-hand side")

    b = b if fused else None  # selected inversion leaves a given b alone
    i = factors.n - 1
    # The last pivot's and the tip's inverses sit in their slots, X_ii = S.
    s, ytt, ztt = a.diag[i], a.tip, None
    sc = mm(mm(s, b.diag[i], counter), s, counter, tb=True) if fused else None
    if factors.a == 0:
        # The last block has no trailing coupling: Z_ii = Sb.
        if fused:
            b.diag[i] = sc
    else:
        # The last block's step has the tip as its only trailing coupling,
        # and the arrow strips, as the forward left them, as its couplings.
        qb = ()
        if fused:
            ztt = mm(mm(ytt, b.tip, counter), ytt, counter, tb=True, out=b.tip)
            qb = (b.arrow_col[i], b.arrow_row[i], b.diag[i], ztt, sc)
        _bt_step(s, a.arrow_col[i], a.arrow_row[i], ytt, counter, *qb, sigma=factors.sigma)
        if factors.sigma:  # the next step reads the arrow column
            _mirror(b.arrow_row[i], factors.sigma, out=b.arrow_col[i])
    _backward_sweep(factors, a, b, i, ytt, ztt, counter)

    if diagonal_only:
        for x in (a, b) if fused else (a,):
            x.lower[...] = x.upper[...] = 0.0
    return SelectedSolution(x_a=a, x_b=b, mode=factors.mode)


def bt_forward(a: BtaMatrix, *args, **kwargs) -> RgfFactors:
    """:func:`bta_forward` of a plain BT matrix (``a = 0``), which it
    requires; the empty arrow skips every arrow and tip update: 2 (or 7
    fused) b-sized products per step and ``n`` inversions."""
    if a.a != 0:
        raise ShapeMismatchError("bt_forward requires a plain BT matrix (a=0)")
    return bta_forward(a, *args, **kwargs)


def bt_backward(factors: RgfFactors, *args, **kwargs) -> SelectedSolution:
    """:func:`bta_backward` of BT factors (``a = 0``), which it requires:
    :func:`_bt_step` at every block, 4 (selected inversion) or 13 (fused,
    9 for a σ-Hermitian right-hand side) b-sized products per step."""
    if factors.a != 0:
        raise ShapeMismatchError("bt_backward requires BT factors (a=0)")
    return bta_backward(factors, *args, **kwargs)


# ---------------------------------------------------------------------------
# Facade
# ---------------------------------------------------------------------------


def _block_map(coarse: BtaMatrix, n: int, c: int):
    """Where the blocks of an ``n``-block system sit in ``coarse``, its
    re-blocking into blocks of ``c`` consecutive diagonal blocks each.

    Yields ``(field, k, view)``: the fine blocks ``k`` (a slice) of a
    field, and the view of ``coarse`` that holds them.  A coarse diagonal
    block holds ``c`` fine diagonal blocks and the ``c - 1`` couplings
    between them; a coarse coupling holds one fine coupling, in its
    corner; a coarse arrow strip is ``c`` fine ones side by side.  The
    tip is the same block on both sides and is not yielded.
    """
    nc, cb, a = coarse.shape_params
    b = cb // c
    d = coarse.diag.reshape(nc, c, b, c, b)
    lo = coarse.lower.reshape(nc - 1, c, b, c, b)
    up = coarse.upper.reshape(nc - 1, c, b, c, b)
    ar = coarse.arrow_row.reshape(nc, a, c, b)
    yield "arrow_col", slice(0, n), coarse.arrow_col.reshape(nc * c, b, a)[:n]
    for p in range(c):
        k = slice(p, None, c)
        nd, nl = len(range(p, n, c)), len(range(p, n - 1, c))
        yield "diag", k, d[:nd, p, :, p, :]
        yield "arrow_row", k, ar[:nd, :, p, :]
        if p < c - 1:
            yield "lower", k, d[:nl, p + 1, :, p, :]
            yield "upper", k, d[:nl, p, :, p + 1, :]
        else:
            yield "lower", k, lo[:nl, 0, :, c - 1, :]
            yield "upper", k, up[:nl, c - 1, :, 0, :]


def _coarsen(m: BtaMatrix, c: int, pad: float) -> BtaMatrix:
    """``m`` re-blocked into ``ceil(n/c)`` blocks of order ``c·b``, in new
    stacks.  A chain that ``c`` does not divide is padded at its end with
    uncoupled diagonal blocks ``pad·I``: identity in ``A`` and zero in
    ``B`` leave every wanted block of the solution exact."""
    n, b, a = m.shape_params
    nc = -(-n // c)
    x = BtaMatrix.zeros(nc, c * b, a)
    for name, k, view in _block_map(x, n, c):
        view[...] = getattr(m, name)[k]
    x.tip[...] = m.tip
    r = np.arange((n - (nc - 1) * c) * b, c * b)
    x.diag[-1, r, r] = pad
    return x


def _refine(x: BtaMatrix, n: int, c: int, diagonal_only: bool, sigma: int = 0) -> BtaMatrix:
    """The ``n``-block solution held in the re-blocked solution ``x``,
    with zero off-diagonal blocks under ``diagonal_only``.  A σ-Hermitian
    ``x`` (``sigma`` = ±1) gets its upper couplings as the mirrors of the
    lower ones: most sit in coarse diagonal blocks, which are σ-Hermitian
    only up to rounding."""
    nc, cb, a = x.shape_params
    f = BtaMatrix.empty(n, cb // c, a)
    for name, k, view in _block_map(x, n, c):
        if not (sigma and name == "upper"):  # mirrored from the lower below
            getattr(f, name)[k] = view
    f.tip[...] = x.tip
    if diagonal_only:
        f.lower[...] = f.upper[...] = 0.0
    elif sigma:
        _mirror(f.lower, sigma, out=f.upper)
    return f


def _working_system(a: BtaMatrix, b: BtaMatrix | None, reblock: bool):
    """``(work, rhs, c)``: the containers the sweeps update in place and
    then turn into the solution, for ``a`` (and ``b``), and the number
    ``c`` of diagonal blocks merged into one of theirs.  They share no
    memory with ``a`` and ``b``.

    With ``reblock``, ``c = min(16 // b, n)``: blocks of order below 9 are
    merged into blocks of order at most 16, the largest that
    :func:`~btasel.kernels.mm` hands to BLAS in one call.  The coarse
    pattern holds every fine pattern block, so solving the coarse system
    gives the wanted blocks exactly, with fewer, larger products.
    """
    c = max(1, min(_SMALL // a.b, a.n)) if reblock else 1
    if c == 1:
        return a.copy(), b.copy() if b is not None else None, 1
    return _coarsen(a, c, 1.0), _coarsen(b, c, 0.0) if b is not None else None, c


def solve_selected(
    a: BtaMatrix,
    b: BtaMatrix | None = None,
    mode: str | None = None,
    *,
    counter: OpCounter | None = None,
    timings: dict | None = None,
    diagonal_only: bool = False,
    reblock: bool = True,
) -> SelectedSolution:
    """Compute the selected inverse of ``a`` and, in fused mode, the
    selected quadratic solution for the right-hand side ``b``.

    Dispatches on the arrow size (plain BT vs. arrowhead) and never
    mutates its inputs: the sweeps run on private working copies, which
    the backward pass turns into the solution in place, so no stacks are
    allocated for the sweeps' output.  The result shares no memory with
    ``a`` or ``b``.  ``mode`` defaults to ``"siq"`` when ``b`` is
    given and ``"si"`` otherwise; ``timings``, when provided, receives
    the wall-clock seconds of the forward and backward sweeps.  Raises
    :class:`NonFiniteInputError` if ``a`` (or, in ``"siq"`` mode, ``b``)
    holds a NaN or infinite entry.

    Small blocks are re-blocked (``reblock``, the default): with
    ``c = min(16 // b, n)`` greater than 1, each run of ``c`` consecutive
    diagonal blocks becomes one block of order ``c·b``, the chain is
    padded to a multiple of ``c`` with uncoupled identity blocks, the
    sweeps solve that coarse system, and its solution is sliced back to
    the blocks of ``a``.  At b=4 this makes a fourth of the products and
    inversions, each one BLAS call.  The coarse pivots pivot across the
    ``c`` blocks they hold, so a singular fine pivot of a nonsingular
    matrix may solve; a :class:`SingularBlockError` names the diagonal
    block of ``a`` that holds the pivot row found singular.  ``counter``
    counts at the orders the sweeps run at, ``(c·b, a)``: one that holds
    no tally takes them, one that holds tallies at other orders raises
    ``ValueError``.  ``reblock=False`` runs the sweeps on ``a`` itself,
    whose counts the README tables give.
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
    work, rhs, c = _working_system(a, b if mode == "siq" else None, reblock)
    if counter is not None:
        counter.adopt(work.b, work.a)

    t0 = perf_counter()
    try:
        factors = bta_forward(work, rhs, counter)
    except SingularBlockError as exc:
        if c == 1:
            raise
        # A coarse pivot's error chains the kernel's, which names its row.
        if exc.index == work.n:
            raise SingularBlockError(str(exc), index=a.n) from exc
        k = exc.index * c + exc.__cause__.index // a.b
        raise SingularBlockError(
            f"singular pivot at diagonal block {k} (input not diagonally dominant?)", index=k
        ) from exc
    t1 = perf_counter()
    # A coarse solution is sliced back by _refine, which clears the
    # off-diagonals itself under diagonal_only.
    sol = bta_backward(factors, work, rhs, counter, diagonal_only=diagonal_only and c == 1)
    t2 = perf_counter()
    if timings is not None:
        timings["forward"] = t1 - t0
        timings["backward"] = t2 - t1
    if c > 1:
        x_a = _refine(sol.x_a, a.n, c, diagonal_only)
        x_b = None if sol.x_b is None else _refine(sol.x_b, a.n, c, diagonal_only, factors.sigma)
        sol = SelectedSolution(x_a, x_b, sol.mode)
    return sol
