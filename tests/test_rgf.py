from collections import Counter

import numpy as np
import pytest
from conftest import (
    assert_mirrored,
    dense_selected_inverse,
    dense_selected_quadratic,
    max_block_rel_err,
    mirror,
    random_system,
    signed_system,
)

from btasel import (
    BtaMatrix,
    NonFiniteInputError,
    OpCounter,
    ShapeMismatchError,
    SingularBlockError,
    bt_backward,
    bt_forward,
    bta_backward,
    bta_forward,
    dist_solve,
    generate_dd_bta,
    solve_selected,
    to_dense,
)
from btasel.matrix import stack_shapes
from btasel import rgf
from btasel.kernels import mm
from btasel.rgf import _hermitian_sign, _mirror, _put, _sub_mirrored, _sum_pairs


class TestBtForward:
    def test_block_identity_pivots(self):
        work = BtaMatrix.identity(3, 2)
        bt_forward(work)
        for s in work.diag:
            np.testing.assert_array_equal(s, np.eye(2))

    def test_hand_elimination_two_blocks(self):
        work = BtaMatrix(2, 1, 0, [[[2.0]], [[2.0]]], [[[1.0]]], [[[1.0]]])
        bt_forward(work)
        np.testing.assert_allclose(work.diag[0], [[0.5]])
        np.testing.assert_allclose(work.diag[1], [[1 / 1.5]])

    def test_si_gemm_count(self):
        a = generate_dd_bta(6, 8, 0, seed=1)
        counter = OpCounter(b=8)
        bt_forward(a.copy(), counter=counter)
        assert counter.gemm_by_shape["bbb"] == 2 * (6 - 1)
        assert counter.total_gemms() == 10

    def test_fused_gemm_count(self):
        a, b = random_system(6, 8, 0, seed=1)
        counter = OpCounter(b=8)
        bt_forward(a.copy(), b.copy(), counter=counter)
        assert dict(counter.gemm_by_shape) == {"bbb": 7 * (6 - 1)}

    def test_requires_bt(self):
        a = generate_dd_bta(3, 2, 1, seed=1)
        with pytest.raises(ShapeMismatchError, match="requires a plain BT matrix"):
            bt_forward(a.copy())

    def test_singular_pivot_reports_block(self):
        a = BtaMatrix.identity(3, 2)
        a.diag[1][:] = 0.0
        with pytest.raises(SingularBlockError) as info:
            bt_forward(a.copy())
        assert info.value.index == 1


class TestBtBackward:
    def test_identity_system(self):
        a = BtaMatrix.identity(3, 2)
        b = generate_dd_bta(3, 2, 0, seed=2)
        work_a, work_b = a.copy(), b.copy()
        factors = bt_forward(work_a, work_b)
        sol = bt_backward(factors, work_a, work_b)
        assert sol.x_a.equals_exact(BtaMatrix.identity(3, 2))
        # X = I B I = B, masked to the pattern.
        assert max_block_rel_err(sol.x_b, b) == 0.0

    def test_analytic_two_by_two(self):
        a = BtaMatrix(2, 1, 0, [[[2.0]], [[2.0]]], [[[1.0]]], [[[1.0]]])
        work = a.copy()
        factors = bt_forward(work)
        sol = bt_backward(factors, work)
        np.testing.assert_allclose(to_dense(sol.x_a), [[2 / 3, -1 / 3], [-1 / 3, 2 / 3]])

    def test_oracle_equivalence_with_hermitian_rhs(self):
        a, b = random_system(8, 16, 0, seed=3, hermitian_rhs=True)
        work_a, work_b = a.copy(), b.copy()
        factors = bt_forward(work_a, work_b)
        sol = bt_backward(factors, work_a, work_b)
        assert max_block_rel_err(sol.x_a, dense_selected_inverse(a)) <= 1e-10
        assert max_block_rel_err(sol.x_b, dense_selected_quadratic(a, b)) <= 1e-10

    def test_single_block(self):
        a, b = random_system(1, 4, 0, seed=4)
        work_a, work_b = a.copy(), b.copy()
        sol = bt_backward(bt_forward(work_a, work_b), work_a, work_b)
        assert max_block_rel_err(sol.x_a, dense_selected_inverse(a)) <= 1e-12
        assert max_block_rel_err(sol.x_b, dense_selected_quadratic(a, b)) <= 1e-12


class TestBtaPaths:
    def test_bt_degeneracy_is_bitwise(self):
        a, b = random_system(5, 3, 0, seed=5)
        wa1, wb1 = a.copy(), b.copy()
        f1 = bta_forward(wa1, wb1)
        s1 = bta_backward(f1, wa1, wb1)
        wa2, wb2 = a.copy(), b.copy()
        f2 = bt_forward(wa2, wb2)
        s2 = bt_backward(f2, wa2, wb2)
        assert s1.x_a.equals_exact(s2.x_a)
        assert s1.x_b.equals_exact(s2.x_b)

    def test_scalar_tip_schur(self):
        a = BtaMatrix(1, 1, 1, [[[2.0]]], [], [], [[[1.0]]], [[[1.0]]], [[3.0]])
        work = a.copy()
        bta_forward(work)
        np.testing.assert_allclose(work.tip, [[1 / 2.5]])

    def test_scalar_arrowhead_analytic_inverse(self):
        a = BtaMatrix(1, 1, 1, [[[2.0]]], [], [], [[[1.0]]], [[[1.0]]], [[3.0]])
        work = a.copy()
        sol = bta_backward(bta_forward(work), work)
        np.testing.assert_allclose(to_dense(sol.x_a), [[0.6, -0.2], [-0.2, 0.4]])

    def test_identity_with_zero_arrow(self):
        a = BtaMatrix.identity(3, 2, 2)
        work = a.copy()
        sol = bta_backward(bta_forward(work), work)
        assert sol.x_a.equals_exact(BtaMatrix.identity(3, 2, 2))

    def test_fused_step_counts_match_op_table(self):
        def forward_counts(n):
            a, b = random_system(n, 8, 4, seed=6)
            counter = OpCounter(b=8, a=4)
            bta_forward(a.copy(), b.copy(), counter)
            return counter.gemm_by_shape

        c5, c6 = forward_counts(5), forward_counts(6)
        step = {k: c6[k] - c5[k] for k in c6 if c6[k] != c5[k]}
        assert step == {"bbb": 7, "abb": 5, "bba": 3, "aba": 3}

    def test_si_step_counts_match_op_table(self):
        def forward_counts(n):
            a = generate_dd_bta(n, 8, 4, seed=6)
            counter = OpCounter(b=8, a=4)
            bta_forward(a.copy(), None, counter)
            return counter.gemm_by_shape

        c5, c6 = forward_counts(5), forward_counts(6)
        step = {k: c6[k] - c5[k] for k in c6 if c6[k] != c5[k]}
        assert step == {"bbb": 2, "abb": 2, "bba": 1, "aba": 1}

    @pytest.mark.parametrize("sigma", [1, -1])
    def test_signed_rhs_step_counts(self, sigma):
        # B = sigma·B^H: the next arrow column is the mirror of the arrow
        # row; the diagonal and tip updates keep their two products.
        def forward_counts(n, a_sz):
            a, b = signed_system(n, 8, a_sz, seed=6, sigma=sigma)
            counter = OpCounter(b=8, a=a_sz)
            assert bta_forward(a.copy(), b.copy(), counter).sigma == sigma
            return counter.gemm_by_shape

        for a_sz, want in ((4, {"bbb": 7, "abb": 5, "bba": 1, "aba": 3}), (0, {"bbb": 7})):
            c5, c6 = forward_counts(5, a_sz), forward_counts(6, a_sz)
            assert {k: c6[k] - c5[k] for k in c6 if c6[k] != c5[k]} == want

    def test_oracle_equivalence(self):
        a, b = random_system(6, 8, 4, seed=7, hermitian_rhs=True)
        wa, wb = a.copy(), b.copy()
        sol = bta_backward(bta_forward(wa, wb), wa, wb)
        assert max_block_rel_err(sol.x_a, dense_selected_inverse(a)) <= 1e-10
        assert max_block_rel_err(sol.x_b, dense_selected_quadratic(a, b)) <= 1e-10

    def test_singular_tip_reports(self):
        a = BtaMatrix.identity(2, 2, 1)
        a.tip[:] = 0.0
        with pytest.raises(SingularBlockError):
            bta_forward(a.copy())


def _bits(m):
    return [x.tobytes() for x in m.stacks]


class TestSweepGuards:
    def test_bt_backward_requires_bt_factors(self):
        work = generate_dd_bta(3, 2, 1, seed=1)
        factors = bta_forward(work)
        with pytest.raises(ShapeMismatchError, match="requires BT factors"):
            bt_backward(factors, work)

    def test_forward_rhs_of_another_shape(self):
        a = generate_dd_bta(4, 2, 1, seed=1)
        for shape in ((5, 2, 1), (4, 3, 1), (4, 2, 2)):
            with pytest.raises(ShapeMismatchError, match="right-hand side shape differs"):
                bta_forward(a.copy(), generate_dd_bta(*shape, seed=2))

    @pytest.mark.parametrize("shape", [(5, 2, 1), (3, 2, 1), (4, 3, 1), (4, 2, 2), (4, 2, 0)])
    def test_backward_system_of_another_shape(self, shape):
        # The only check between the factors and the slots they pair with.
        factors = bta_forward(generate_dd_bta(4, 2, 1, seed=1))
        with pytest.raises(ShapeMismatchError, match="disagrees with factors"):
            bta_backward(factors, generate_dd_bta(*shape, seed=1))

    @pytest.mark.parametrize("a_sz", [0, 2])
    def test_fused_factors_require_the_rhs(self, a_sz):
        a, rhs = random_system(4, 2, a_sz, seed=1)
        work = a.copy()
        factors = bta_forward(work, rhs.copy())
        with pytest.raises(ShapeMismatchError, match="require the right-hand side"):
            bta_backward(factors, work)

    @pytest.mark.parametrize("a_sz", [0, 2])
    def test_si_factors_leave_a_given_rhs_alone(self, a_sz):
        a, rhs = random_system(6, 3, a_sz, seed=7)
        wa, wb, ref = a.copy(), rhs.copy(), a.copy()
        sol = bta_backward(bta_forward(wa), wa, wb)
        want = bta_backward(bta_forward(ref), ref)
        assert sol.x_b is None
        assert _bits(sol.x_a) == _bits(want.x_a)
        assert _bits(wb) == _bits(rhs)


# The generic k-coupling backward step, which no solver runs.  The
# solver's steps are its k = 1 and k = 2 cases written out; the tests
# below check them against it, and it against the dense oracles.


def _sum_mm(xs, ys, counter, *, tb=False, out=None, alpha=1):
    """``alpha·sum_l xs[l]·op(ys[l])``, accumulated in ``out`` (a new block
    when None) by one :func:`mm` call per term."""
    out = mm(xs[0], ys[0], counter, tb=tb, out=out, alpha=alpha)
    for x, y in zip(xs[1:], ys[1:]):
        mm(x, y, counter, tb=tb, out=out, alpha=alpha, beta=1)
    return out


def _backstep(
    g, rs, qs, ya, sc=None, ss=None, ws=None, yb=None, counter=None, *, handed=False, bd=None,
    out=None, sigma=0,
):
    """One backward substitution step at a pivot with trailing couplings.

    The reference the solver's steps are checked against:
    :func:`rgf._bt_step` is its ``k = 1`` case and the arrow step of
    :func:`rgf._backward_sweep` its ``k = 2`` case, written out.

    ``g`` is the pivot inverse ``S``; ``rs[l]``/``qs[l]`` are the
    pivot-to-trailing and trailing-to-pivot coupling blocks ``R_l``/``Q_l``
    as seen at elimination time; ``ya[l][m]`` (and ``yb``) are the
    already-known trailing solution blocks ``Y_lm`` (``Z_lm``).  Returns
    the pivot's solution row ``X(i,j)``, column ``X(j,i)`` and diagonal
    for the inverse and, when the quadratic data ``sc`` (``Sb``), ``ss``
    (``Ss_l``, pivot-to-trailing), ``ws`` (``W_l``, trailing-to-pivot) and
    ``yb`` is given, for the quadratic solution.  With ``handed``,
    ``qs`` holds the forward's products ``F2_l`` and, with the quadratic
    data, ``ws`` holds ``W_l - F2_l·Bd``, ``bd`` being the pivot's
    diagonal block of ``B`` as eliminated: ``E_l = ws[l]·S^H`` and
    ``G_l = S·(Ss_l - Bd·F2_l^H)``.  ``out``, when given, names an output
    slot (or None, for a new block) for every block of the result, in
    its shape; each block is written into its slot by its last
    operation.  The slots may be those of the step's own inputs (``g``,
    ``rs``, ``qs``, ``ss``, ``ws``): every input is read before the first
    output slot is written, except that the column is written after
    every read of ``qs`` when ``handed``.

    Each product is formed once.  With ``F1_l = S·R_l``, ``F2_l = Q_l·S``,
    ``E_l = W_l·S^H - Q_l·Sb`` and ``G_l = S·Ss_l - Sb·Q_l^H``::

        X(j,i) = -sum_l Y_jl·F2_l        X(i,j) = -sum_l F1_l·Y_lj
        X_ii   = S - sum_l F1_l·X(l,i)
        Z(j,i) = sum_l (Y_jl·E_l - Z_jl·F1_l^H)
        V_j    = sum_l G_l·Y_jl^H        Z(i,j) = V_j - sum_l F1_l·Z_lj
        Z_ii   = Sb - sum_l (F1_l·Z(l,i) + V_l·F1_l^H)

    which is ``2k^2+3k`` products for the inverse and ``4k^2+6k`` more for
    the quadratic solution at ``k`` trailing couplings, less ``k`` (``2k``
    with the quadratic data) when ``handed`` (the standard RGF recursion,
    Svizhenko et al., J. Appl. Phys. 2002).  All products are
    pattern-restricted: the trailing blocks touched are exactly those on
    the BT(A) pattern.

    Those formulas hold for any ``B``.  With ``sigma`` = ±1 the data
    come from a ``B = sigma·B^H``, so the quadratic solution is
    σ-Hermitian too: ``Z(i,j) = sigma·Z(j,i)^H`` is copied, not formed.
    With ``P_j = sum_l Z_jl·F1_l^H`` and ``T = sum_l F1_l·Z(l,i)``::

        Z(j,i) = sum_l Y_jl·E_l - P_j
        Z_ii   = Sb - T - sigma·T^H - sum_m F1_m·P_m

    ``2k^2+4k`` quadratic products; ``ss`` is not read (``G_l`` and
    ``V_j`` are not formed).
    """
    k = len(qs)
    c = counter
    none = [None] * k
    ra, ca, da, rb, cb, db = out or (none, none, None, none, none, None)
    # Ordered so that few temporary blocks are alive at once: at large b
    # each one shows in peak memory.  A negated sum accumulates in its
    # output slot, -x - y being -(x + y) bit for bit; a sum subtracted
    # from a base block, or a sum of differences, is formed first.  The
    # quadratic factors read g and qs, whose slots xa_diag and xa_col may
    # be, so they are formed first.
    fused = yb is not None
    if fused:
        # Handed the forward's products, ws holds W_l - F2_l·Bd: E_l = W_l·S^H.
        es = [mm(w, g, c, tb=True) for w in ws]
        if not handed:
            for e, q in zip(es, qs):
                mm(q, sc, c, out=e, alpha=-1, beta=1)
        if not sigma:
            gs = [mm(g, mm(bd, q, c, tb=True, out=s.copy(), alpha=-1, beta=1), c) if handed
                  else _sum_pairs([(g, s, sc, q)], -1, c) for s, q in zip(ss, qs)]
    f2 = qs if handed else [mm(q, g, c) for q in qs]
    # The forward's F2 may sit in the column's slots: the column then
    # goes there from new blocks, once nothing reads F2 again.
    xa_col = [_sum_mm(ya[j], f2, c, out=None if handed else ca[j], alpha=-1) for j in range(k)]
    if handed:
        xa_col = [x if o is None else _put(o, x) for x, o in zip(xa_col, ca)]
    del f2
    f1 = [mm(g, r, c) for r in rs]
    xa_diag = np.subtract(g, _sum_mm(f1, xa_col, c), out=da)
    xa_row = [_sum_mm(f1, [y[j] for y in ya], c, out=ra[j], alpha=-1) for j in range(k)]
    xb_row = xb_col = xb_diag = None

    if fused and sigma:
        ps = [_sum_mm(z, f1, c, tb=True) for z in yb]
        xb_col = [_sum_mm(y, es, c, out=o) for y, o in zip(ya, cb)]
        for col, p in zip(xb_col, ps):
            col -= p
        xb_row = [_mirror(col, sigma, out=o) for col, o in zip(xb_col, rb)]
        t = _sum_mm(f1, xb_col, c)
        xb_diag = _sub_mirrored(np.subtract(sc, _sum_mm(f1, ps, c), out=db), t, sigma)
    elif fused:
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


def _generic_bt_step(s, u, l, y, counter, bu=None, bl=None, bd=None, z=None, sb=None, sigma=0):
    """:func:`rgf._bt_step` as :func:`_backstep` at k = 1, handed the
    forward's products as the written-out step reads them."""
    fused = z is not None
    quad = (sb, [bu], [bl], [[z]]) if fused else (None,) * 4  # bl: Bl - L·S·Bd
    out = ([u], [l], s) + (([bu], [bl], bd) if fused else (None,) * 3)
    got = _backstep(s, [u], [l], [[y]], *quad, counter, handed=True, bd=bd, out=out, sigma=sigma)
    return got[2], got[5]


def _generic_sweep(factors, a, b, stop, ytt, ztt, counter):
    """The arrowhead backward sweep with :func:`_backstep` at k = 2 for
    its step, as it ran before the step was written out, handed the
    forward's products as the written-out step reads them."""
    fused, sigma = b is not None, factors.sigma
    y_dd, y_dt, y_td = a.diag[stop], a.arrow_col[stop], a.arrow_row[stop]
    if fused:
        z_dd, z_dt, z_td = b.diag[stop], b.arrow_col[stop], b.arrow_row[stop]
    ss = ws = yb = sc = bd = None
    for i in range(stop - 1, -1, -1):
        qs = [a.lower[i], a.arrow_row[i]]  # L·S and Ar·S
        ya = [[y_dd, y_dt], [y_td, ytt]]
        rs = [a.upper[i], a.arrow_col[i]]
        if fused:
            ss = [b.upper[i], b.arrow_col[i]]
            ws = [b.lower[i], b.arrow_row[i]]  # Bl - L·S·Bd and Br - Ar·S·Bd
            yb = [[z_dd, z_dt], [z_td, ztt]]
            sc, bd = factors.s_b[i], b.diag[i]
        out = _out_slots(a, i, 2) + (_out_slots(b, i, 2) if fused else (None,) * 3)
        xa_row, xa_col, xa_diag, xb_row, xb_col, xb_diag = _backstep(
            a.diag[i], rs, qs, ya, sc, ss, ws, yb, counter, handed=True, bd=bd, out=out,
            sigma=sigma,
        )
        y_dd, y_dt, y_td = xa_diag, xa_row[-1], xa_col[-1]
        if fused:
            z_dd, z_dt, z_td = xb_diag, xb_row[-1], xb_col[-1]


class TestBackwardStep:
    """The backward step forms each product once (:func:`_backstep`)."""

    @pytest.mark.parametrize(
        "shape", [(9, 4, 0), (7, 16, 0), (6, 20, 0), (9, 4, 1), (7, 16, 3), (6, 20, 4)]
    )
    @pytest.mark.parametrize("rhs", ["si", "general", "sigma=1", "sigma=-1"])
    def test_one_coupling_step_is_the_generic_step(self, monkeypatch, shape, rhs):
        # Every step with one trailing coupling, each BT step and an
        # arrowhead system's tip step, runs rgf._bt_step, and equals
        # _backstep at k = 1 on the same factors, both solving in place:
        # the same bytes in every slot and the same tallies.  The shapes
        # run small and large products, the latter on numpy's path.
        n, b, a_sz = shape
        if rhs.startswith("sigma"):
            a, rb = signed_system(n, b, a_sz, seed=31, sigma=int(rhs[6:]))
        else:
            a, rb = random_system(n, b, a_sz, seed=31)
        rb = None if rhs == "si" else rb
        factors = bta_forward(a, rb)
        solved, calls = [], Counter()
        for step in (rgf._bt_step, _generic_bt_step):

            def counted(*args, step=step, **kwargs):
                calls[step] += 1
                return step(*args, **kwargs)

            monkeypatch.setattr(rgf, "_bt_step", counted)
            wa, wb = a.copy(), (rb.copy() if rb is not None else None)
            counter = OpCounter(b=b, a=a_sz)
            bta_backward(factors, wa, wb, counter)
            solved.append((_bits(wa), _bits(wb) if wb is not None else None, counter.as_dict()))
        assert solved[0] == solved[1]
        assert set(calls.values()) == {n - 1 if a_sz == 0 else 1}

    @pytest.mark.parametrize("shape", [(9, 4, 1), (12, 3, 2), (7, 16, 3), (6, 20, 4)])
    @pytest.mark.parametrize("rhs", ["si", "general", "sigma=1", "sigma=-1"])
    def test_arrow_step_is_the_generic_step(self, monkeypatch, shape, rhs):
        # _backward_sweep's written-out arrowhead step against _backstep
        # at k = 2 each step, on the same factors, both solving in place:
        # the same bytes in every slot and the same tallies.  The shapes
        # run small and large products, the latter on numpy's path.
        n, b, a_sz = shape
        if rhs.startswith("sigma"):
            a, rb = signed_system(n, b, a_sz, seed=31, sigma=int(rhs[6:]))
        else:
            a, rb = random_system(n, b, a_sz, seed=31)
        rb = None if rhs == "si" else rb
        factors = bta_forward(a, rb)  # a and rb hold the elimination now
        solved = []
        for sweep in (rgf._backward_sweep, _generic_sweep):
            monkeypatch.setattr(rgf, "_backward_sweep", sweep)
            wa, wb = a.copy(), (rb.copy() if rb is not None else None)
            counter = OpCounter(b=b, a=a_sz)
            sol = bta_backward(factors, wa, wb, counter)
            assert sol.x_a is wa and sol.x_b is wb
            solved.append((_bits(wa), _bits(wb) if wb is not None else None, counter.as_dict()))
        assert solved[0] == solved[1]

    @pytest.mark.parametrize("a_sz", [0, 2])
    @pytest.mark.parametrize("rhs", ["si", "general", "sigma=1", "sigma=-1"])
    def test_no_product_is_formed_twice(self, monkeypatch, a_sz, rhs):
        # Every product of one solve, fingerprinted by its operands' bytes
        # and shapes and their conjugate-transpose flags: none repeats.
        if rhs.startswith("sigma"):
            a, rb = signed_system(6, 4, a_sz, seed=33, sigma=int(rhs[6:]))
        else:
            a, rb = random_system(6, 4, a_sz, seed=33)
        seen, real_mm = Counter(), rgf.mm

        def mm(x, y, *args, ta=False, tb=False, **kwargs):
            seen[(x.shape, x.tobytes(), y.shape, y.tobytes(), ta, tb)] += 1
            return real_mm(x, y, *args, ta=ta, tb=tb, **kwargs)

        monkeypatch.setattr(rgf, "mm", mm)
        solve_selected(a, None if rhs == "si" else rb, reblock=False)
        assert sum(seen.values()) > 0
        assert [n for n in seen.values() if n > 1] == []

    @staticmethod
    def _step_counts(b, a_sz, fused, sigma=0):
        # Backward products per step, by differencing two lengths.
        def backward_counts(n):
            if sigma:
                a, rhs = signed_system(n, b, a_sz, seed=6, sigma=sigma)
            else:
                a, rhs = random_system(n, b, a_sz, seed=6)
            wa, wb = a.copy(), (rhs.copy() if fused else None)
            factors = bta_forward(wa, wb)
            counter = OpCounter(b=b, a=a_sz)
            bta_backward(factors, wa, wb, counter)
            return counter.gemm_by_shape

        c5, c6 = backward_counts(5), backward_counts(6)
        return {k: c6[k] - c5[k] for k in c6 if c6[k] != c5[k]}

    def test_bt_step_counts(self):
        # k = 1: 2k^2+3k = 5 (si) less the forward's L·S, reused: 4;
        # 6k^2+9k = 15 (siq) less the forward's L·S and L·S·Bd: 13.
        assert self._step_counts(4, 0, fused=True) == {"bbb": 13}
        assert self._step_counts(4, 0, fused=False) == {"bbb": 4}

    def test_bta_step_counts(self):
        # k = 2 trailing couplings: 2k^2+3k = 14 (si) less the forward's
        # L·S and Ar·S, reused: 12; 6k^2+9k = 42 (siq) less the forward's
        # L·S, Ar·S, L·S·Bd and Ar·S·Bd, reused: 38.
        assert self._step_counts(8, 4, fused=False) == {
            "bbb": 4, "bba": 2, "abb": 1, "bab": 3, "aab": 1, "baa": 1,
        }
        assert self._step_counts(8, 4, fused=True) == {
            "bbb": 13, "bba": 6, "abb": 4, "bab": 9, "aab": 3, "baa": 3,
        }

    def test_si_counts_at_the_inla_shape(self):
        # 16 blocks of order 128, arrow 16 (the inla-bta-large workload):
        # 15 forward steps of 6, 15 backward steps of 12, the epilogue's
        # 2 and the tip step's 4 products; 16 pivots and the tip inverted.
        a = generate_dd_bta(16, 128, 16, seed=1)
        counter = OpCounter(b=128, a=16)
        solve_selected(a, counter=counter)
        assert counter.total_gemms() == 276
        assert counter.as_dict() == {
            "gemm_aab": 16, "gemm_aba": 16, "gemm_abb": 46, "gemm_baa": 16,
            "gemm_bab": 46, "gemm_bba": 46, "gemm_bbb": 90,
            "lu": 17, "trsm": 34, "inv": 17,
        }

    @pytest.mark.parametrize("sigma", [1, -1])
    def test_signed_rhs_step_counts(self, sigma):
        # The quadratic half takes 2k^2+4k products instead of 4k^2+6k,
        # less the reused ones: 13 to 9 at k = 1, 38 to 26 at k = 2.
        assert self._step_counts(4, 0, fused=True, sigma=sigma) == {"bbb": 9}
        assert self._step_counts(8, 4, fused=True, sigma=sigma) == {
            "bbb": 9, "bba": 2, "abb": 4, "bab": 7, "aab": 3, "baa": 1,
        }

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_dense_oracle_with_non_hermitian_rhs(self, k, rng):
        # Pivot block 0 (size 3) couples to k trailing blocks of mixed sizes.
        sizes = [3, 3, 2, 3][: k + 1]
        off = np.concatenate([[0], np.cumsum(sizes)])
        dim = off[-1]

        def cplx(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        a = cplx(dim, dim) + 4 * dim * np.eye(dim)
        b = cplx(dim, dim)
        assert np.linalg.norm(b - b.conj().T) > 1.0
        x = np.linalg.inv(a)
        z = x @ b @ x.conj().T

        def blk(m, r, c):
            return np.ascontiguousarray(m[off[r] : off[r + 1], off[c] : off[c + 1]])

        t = range(1, k + 1)
        s = np.linalg.inv(blk(a, 0, 0))
        sb = s @ blk(b, 0, 0) @ s.conj().T
        rs, qs = [blk(a, 0, l) for l in t], [blk(a, l, 0) for l in t]
        ss, ws = [blk(b, 0, l) for l in t], [blk(b, l, 0) for l in t]
        ya = [[blk(x, l, m) for m in t] for l in t]
        yb = [[blk(z, l, m) for m in t] for l in t]

        def close(got, want):
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

        si = _backstep(s, rs, qs, ya)
        assert si[3:] == (None, None, None)
        # The forward's products F2_l = Q_l·S, given in the slots the
        # column goes to.
        f2 = [q @ s for q in qs]
        slots = ([None] * k, f2, None, None, None, None)
        reused = _backstep(s, rs, f2, ya, handed=True, out=slots)
        assert all(got is slot for got, slot in zip(reused[1], f2))
        out = _backstep(s, rs, qs, ya, sb, ss, ws, yb)
        for got, full in ((si[:3], x), (reused[:3], x), (out[:3], x), (out[3:], z)):
            row, col, diag = got
            close(diag, blk(full, 0, 0))
            for j in t:
                close(row[j - 1], blk(full, 0, j))
                close(col[j - 1], blk(full, j, 0))

    @pytest.mark.parametrize("sigma", [1, -1])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_signed_step_matches_dense_oracle(self, k, sigma, rng):
        # B = sigma·B^H: the step reads no pivot-to-trailing block of B
        # (ss is None here) and copies the row as the column's mirror.
        sizes = [3, 3, 2, 3][: k + 1]
        off = np.concatenate([[0], np.cumsum(sizes)])
        dim = off[-1]

        def cplx(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        a = cplx(dim, dim) + 4 * dim * np.eye(dim)
        b = cplx(dim, dim)
        b = (b + sigma * b.conj().T) / 2
        x = np.linalg.inv(a)
        z = x @ b @ x.conj().T

        def blk(m, r, c):
            return np.ascontiguousarray(m[off[r] : off[r + 1], off[c] : off[c + 1]])

        t = range(1, k + 1)
        s = np.linalg.inv(blk(a, 0, 0))
        sb = s @ blk(b, 0, 0) @ s.conj().T
        rs, qs = [blk(a, 0, l) for l in t], [blk(a, l, 0) for l in t]
        ws = [blk(b, l, 0) for l in t]
        ya = [[blk(x, l, m) for m in t] for l in t]
        yb = [[blk(z, l, m) for m in t] for l in t]
        row, col, diag = _backstep(s, rs, qs, ya, sb, None, ws, yb, sigma=sigma)[3:]
        assert np.linalg.norm(diag - blk(z, 0, 0)) <= 1e-12 * np.linalg.norm(blk(z, 0, 0))
        for j in t:
            want = blk(z, j, 0)
            assert np.linalg.norm(col[j - 1] - want) <= 1e-12 * np.linalg.norm(want)
            assert np.array_equal(row[j - 1], mirror(col[j - 1], sigma))


class TestSolveFacade:
    def test_inputs_never_mutated(self):
        a, b = random_system(4, 3, 2, seed=8)
        a_ref, b_ref = a.copy(), b.copy()
        solve_selected(a, b, "siq")
        assert a.equals_exact(a_ref)
        assert b.equals_exact(b_ref)

    def test_mode_validation(self):
        a = generate_dd_bta(3, 2, 0, seed=9)
        with pytest.raises(ValueError):
            solve_selected(a, None, "siq")
        with pytest.raises(ValueError):
            solve_selected(a, None, "nope")

    def test_si_mode_has_no_xb(self):
        a, b = random_system(3, 2, 1, seed=10)
        sol = solve_selected(a, b, "si")
        assert sol.x_b is None and sol.mode == "si"

    @pytest.mark.parametrize("reblock", [False, True])
    @pytest.mark.parametrize("rhs", ["hermitian", "general"])
    @pytest.mark.parametrize("shape", [(9, 4, 0), (9, 4, 2), (6, 20, 3)])
    def test_si_x_a_is_the_siq_x_a(self, shape, rhs, reblock):
        # Selected inversion is the fused solve less B's products: both
        # leave the same products in the same slots, so X_A has the same
        # bytes in both modes, whatever B is.  b=4 is re-blocked into one
        # block of order 16 per four; b=20 runs on numpy's path.
        a, b = random_system(*shape, seed=35, hermitian_rhs=rhs == "hermitian")
        si = solve_selected(a, reblock=reblock)
        siq = solve_selected(a, b, reblock=reblock)
        assert _bits(si.x_a) == _bits(siq.x_a)

    def test_determinism_bitwise(self):
        a, b = random_system(5, 4, 2, seed=11)
        s1 = solve_selected(a, b, "siq")
        s2 = solve_selected(a, b, "siq")
        assert s1.x_a.equals_exact(s2.x_a)
        assert s1.x_b.equals_exact(s2.x_b)

    def test_hermitian_preservation(self):
        a, b = random_system(6, 4, 3, seed=12, hermitian_rhs=True)
        sol = solve_selected(a, b, "siq")
        x = sol.x_b
        scale = max(
            np.linalg.norm(blk) for _, _, blk in x.pattern_blocks() if blk.size
        )
        for i in range(x.n):
            assert np.linalg.norm(x.diag[i] - x.diag[i].conj().T) <= 1e-12 * scale
            assert np.linalg.norm(x.arrow_col[i] - x.arrow_row[i].conj().T) <= 1e-12 * scale
        for i in range(x.n - 1):
            assert np.linalg.norm(x.upper[i] - x.lower[i].conj().T) <= 1e-12 * scale
        assert np.linalg.norm(x.tip - x.tip.conj().T) <= 1e-12 * scale

    def test_diagonal_only_flag(self):
        a, b = random_system(5, 3, 0, seed=13)
        full = solve_selected(a, b, "siq")
        diag = solve_selected(a, b, "siq", diagonal_only=True)
        for i in range(5):
            np.testing.assert_array_equal(diag.x_a.diag[i], full.x_a.diag[i])
        assert all(np.all(blk == 0) for blk in diag.x_a.lower)
        assert all(np.all(blk == 0) for blk in diag.x_b.upper)

    @pytest.mark.parametrize("mode", ["si", "siq"])
    @pytest.mark.parametrize("a_sz", [0, 2])
    def test_output_stacks_need_no_initial_values(self, monkeypatch, mode, a_sz):
        # A re-blocked solve (b=3, c=5) slices its coarse solution into
        # uninitialised stacks: every fine slot is written (diagonal_only
        # clears the off-diagonals).  Stacks that start as NaN give the
        # bytes of zero-filled ones.
        def filled(value):
            def empty(cls, n, b, a=0):
                x = BtaMatrix.zeros(n, b, a)
                for stack in x.stacks:
                    stack[...] = value
                return x

            return classmethod(empty)

        a, rhs = random_system(9, 3, a_sz, seed=31)
        rhs = rhs if mode == "siq" else None
        for diagonal_only in (False, True):
            monkeypatch.setattr(BtaMatrix, "empty", filled(0.0))
            want = solve_selected(a, rhs, mode, diagonal_only=diagonal_only)
            monkeypatch.setattr(BtaMatrix, "empty", filled(np.nan))
            got = solve_selected(a, rhs, mode, diagonal_only=diagonal_only)
            for x, w in ((got.x_a, want.x_a), (got.x_b, want.x_b))[: 2 if rhs is not None else 1]:
                assert all(np.isfinite(s).all() for s in x.stacks)
                assert [s.tobytes() for s in x.stacks] == [s.tobytes() for s in w.stacks]

    def test_timings_populated(self):
        a = generate_dd_bta(4, 4, 0, seed=14)
        timings = {}
        solve_selected(a, timings=timings)
        assert set(timings) == {"forward", "backward"}
        assert all(t >= 0 for t in timings.values())


class TestSolveInPlace:
    """The facade's working copies become its solution: the backward pass
    writes each block into the slot of the same block of the copies."""

    @staticmethod
    def _check(n, b, a_sz, reblock, seed):
        """Solve in every mode; returns the solutions' containers."""
        a, rhs = random_system(n, b, a_sz, seed=seed)
        a_ref, rhs_ref = a.copy(), rhs.copy()
        oracle = (dense_selected_inverse(a), dense_selected_quadratic(a, rhs))
        inputs = a.stacks + rhs.stacks
        solved = []
        for mode in ("si", "siq"):
            for diagonal_only in (False, True):
                sol = solve_selected(
                    a, rhs if mode == "siq" else None, mode,
                    diagonal_only=diagonal_only, reblock=reblock,
                )
                assert a.equals_exact(a_ref) and rhs.equals_exact(rhs_ref)
                xs = [sol.x_a] + ([sol.x_b] if mode == "siq" else [])
                for x in xs:
                    for s in x.stacks:
                        assert not any(np.shares_memory(s, t) for t in inputs)
                if mode == "siq":
                    for s in sol.x_a.stacks:
                        assert not any(np.shares_memory(s, t) for t in sol.x_b.stacks)
                for x, dense in zip(xs, oracle):
                    if diagonal_only:
                        assert not x.lower.any() and not x.upper.any()
                        dense = BtaMatrix(n, b, a_sz, dense.diag, x.lower, x.upper,
                                          dense.arrow_row, dense.arrow_col, dense.tip)
                    assert max_block_rel_err(x, dense) <= 1e-12, (mode, diagonal_only)
                solved += xs
        return solved

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    @pytest.mark.parametrize("a_sz", [0, 2])
    @pytest.mark.parametrize("reblock", [False, True])  # c = 1, and c = min(4, n) at b = 4
    def test_facade_never_writes_or_aliases_its_inputs(self, n, a_sz, reblock):
        self._check(n, 4, a_sz, reblock, seed=40 + n + a_sz)

    def test_facade_solves_in_an_aligned_copy_of_a_huge_page_or_more(self):
        # About 3.4 MB (N = 776): the working copies, and so the solution,
        # are each one array on a 2 MiB boundary.
        for x in self._check(8, 96, 8, reblock=True, seed=48):
            assert x.diag.ctypes.data % (2 << 20) == 0
            assert x.tip.ctypes.data == x.diag.ctypes.data + sum(s.nbytes for s in x.stacks[:-1])


@pytest.mark.parametrize("n", [1, 2, 3, 7])
@pytest.mark.parametrize("b", [1, 3])
@pytest.mark.parametrize("a_sz", [0, 1, 4])
def test_property_grid_small(n, b, a_sz):
    a, rhs = random_system(n, b, a_sz, seed=n * 100 + b * 10 + a_sz)
    sol = solve_selected(a, rhs, "siq")
    assert max_block_rel_err(sol.x_a, dense_selected_inverse(a)) <= 1e-10
    assert max_block_rel_err(sol.x_b, dense_selected_quadratic(a, rhs)) <= 1e-10


def test_identity_residual_beyond_dense_sizes():
    # Dense-free inverse check at blocks larger than the grid sizes: the
    # block rows of A @ X must reproduce the identity from pattern
    # blocks of X alone.
    from conftest import identity_block_row_residual

    a = generate_dd_bta(6, 128, 16, seed=77)
    sol = solve_selected(a)
    assert identity_block_row_residual(a, sol.x_a) <= 1e-12


@pytest.mark.parametrize("entry", ["solve_selected", "dist_solve"])
@pytest.mark.parametrize("operand", ["a", "b"])
@pytest.mark.parametrize("field", BtaMatrix.FIELDS)
def test_non_finite_input_rejected(entry, operand, field):
    a, rhs = random_system(6, 3, 2, seed=21)
    bad = a if operand == "a" else rhs
    # The tip is a single block; the stacks take their third block.
    blk = bad.tip if field == "tip" else getattr(bad, field)[2]
    blk[0, -1] = np.nan if field in ("diag", "arrow_row", "tip") else np.inf
    with pytest.raises(NonFiniteInputError, match=f"{operand}.{field}"):
        if entry == "solve_selected":
            solve_selected(a, rhs, "siq")
        else:
            dist_solve(a, rhs, num_parts=2, mode="siq")


def _grid(b):
    # n = 1, 2, c-1, c, c+1 and 2c+1 blocks for c = 16 // b blocks merged
    # into one (c = 1 from b = 9 on: nothing is merged there).
    c = max(16 // b, 1)
    return sorted({1, 2, max(c - 1, 1), c, c + 1, 2 * c + 1})


class TestReblock:
    """``solve_selected`` merges ``c = min(16 // b, n)`` consecutive
    diagonal blocks into one and solves that coarse system."""

    @pytest.mark.parametrize("b", [1, 2, 3, 4, 5, 8, 9, 16])
    @pytest.mark.parametrize("a_sz", [0, 1, 3])
    def test_matches_oracle_and_sweeps(self, monkeypatch, b, a_sz):
        # Output stacks start as NaN: a slot the slicing back to the
        # input's blocks skipped would show.
        def nan_stacks(cls, n, b, a=0):
            stacks = (np.full(s, np.nan, complex) for s in stack_shapes(n, b, a))
            return BtaMatrix(n, b, a, *stacks)

        monkeypatch.setattr(BtaMatrix, "empty", classmethod(nan_stacks))
        for n in _grid(b):
            a, rhs = random_system(n, b, a_sz, seed=1000 * b + 10 * n + a_sz)
            a_ref, rhs_ref = a.copy(), rhs.copy()
            oracle = (dense_selected_inverse(a), dense_selected_quadratic(a, rhs))
            for mode in ("si", "siq"):
                used = rhs if mode == "siq" else None
                for diagonal_only in (False, True):
                    got = solve_selected(a, used, mode, diagonal_only=diagonal_only)
                    swept = solve_selected(
                        a, used, mode, diagonal_only=diagonal_only, reblock=False
                    )
                    pairs = [(got.x_a, swept.x_a, oracle[0])]
                    if mode == "siq":
                        pairs.append((got.x_b, swept.x_b, oracle[1]))
                    for x, ref, dense in pairs:
                        assert all(np.isfinite(s).all() for s in x.stacks)
                        if diagonal_only:
                            assert not x.lower.any() and not x.upper.any()
                            dense = BtaMatrix(n, b, a_sz, dense.diag, x.lower, x.upper,
                                              dense.arrow_row, dense.arrow_col, dense.tip)
                        assert max_block_rel_err(x, ref) <= 1e-12, (n, mode)
                        assert max_block_rel_err(x, dense) <= 1e-12, (n, mode)
            assert a.equals_exact(a_ref) and rhs.equals_exact(rhs_ref)

    # Re-blocked counts at (n, b) = (256, 4): 64 blocks of order 16, so
    # the sweeps' per-step tables at n = 64 and b = 16: 2 + 4 bbb per
    # step in si.
    COUNTS = {
        (0, "si"): {"gemm_bbb": 378, "lu": 64, "trsm": 128, "inv": 64},
        (0, "siq"): {"gemm_bbb": 1262, "lu": 64, "trsm": 128, "inv": 64},
        (2, "siq"): {
            "gemm_aaa": 2, "gemm_aab": 192, "gemm_aba": 192, "gemm_abb": 570,
            "gemm_baa": 192, "gemm_bab": 570, "gemm_bba": 570, "gemm_bbb": 1262,
            "lu": 65, "trsm": 130, "inv": 65,
        },
    }

    @pytest.mark.parametrize("a_sz, mode", sorted(COUNTS))
    def test_counts_pinned(self, a_sz, mode):
        a, rhs = random_system(256, 4, a_sz, seed=3)
        counter = OpCounter(b=4, a=a_sz)
        solve_selected(a, rhs if mode == "siq" else None, mode, counter=counter)
        assert (counter.b, counter.a) == (16, a_sz)
        assert counter.as_dict() == self.COUNTS[(a_sz, mode)]

    def test_counter_with_tallies_at_other_orders_raises(self):
        a = generate_dd_bta(8, 4, 0, seed=4)
        fine = OpCounter(b=4)
        solve_selected(a, counter=fine, reblock=False)
        with pytest.raises(ValueError, match="orders"):
            solve_selected(a, counter=fine)
        coarse = OpCounter(b=4)
        solve_selected(a, counter=coarse)
        once = coarse.as_dict()
        solve_selected(a, counter=coarse)  # same orders: the tallies add up
        assert coarse.as_dict() == {k: 2 * v for k, v in once.items()}
        assert "?" not in "".join(coarse.gemm_by_shape)

    def test_singular_fine_pivot_of_a_nonsingular_matrix_solves(self):
        # Block 0 is zero but its couplings are not: the matrix is
        # invertible, and the coarse pivot pivots across blocks.
        a = generate_dd_bta(3, 2, 0, seed=1)
        a.diag[0][:] = 0.0
        with pytest.raises(SingularBlockError) as info:
            solve_selected(a, reblock=False)
        assert info.value.index == 0
        got, want = to_dense(solve_selected(a).x_a), to_dense(dense_selected_inverse(a))
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("a_sz", [0, 2])
    @pytest.mark.parametrize("k", [0, 3, 4, 9])  # 0, c-1, c, n-1 at c = 4
    def test_zero_block_row_reports_its_block(self, a_sz, k):
        n = 10  # 3 blocks of order 16, the last with 2 padding blocks
        a = generate_dd_bta(n, 4, a_sz, seed=5)
        a.diag[k][:] = 0.0
        a.arrow_col[k][:] = 0.0
        if k > 0:
            a.lower[k - 1][:] = 0.0
        if k < n - 1:
            a.upper[k][:] = 0.0
        for reblock in (True, False):
            with pytest.raises(SingularBlockError) as info:
                solve_selected(a, reblock=reblock)
            assert info.value.index == k
            assert f"block {k} " in str(info.value)

    def test_singular_tip_reports_the_block_count(self):
        a = generate_dd_bta(6, 4, 2, seed=6)
        a.tip[:] = 0.0
        a.arrow_row[:] = 0.0
        with pytest.raises(SingularBlockError) as info:
            solve_selected(a)
        assert info.value.index == 6


class TestSignedRhs:
    """A right-hand side with ``B == sigma·B^H`` bit for bit (sigma = ±1)
    takes the sweeps' mirrored path; any other takes the general one."""

    def test_sign_is_found_from_the_data(self):
        for sigma in (1, -1):
            _, rhs = signed_system(5, 3, 2, seed=1, sigma=sigma)
            assert _hermitian_sign(rhs) == sigma
        assert _hermitian_sign(random_system(5, 3, 2, seed=1)[1]) == 0
        assert _hermitian_sign(BtaMatrix.zeros(5, 3, 2)) == 1  # both signs hold
        _, rhs = signed_system(5, 3, 2, seed=1, sigma=1)
        for name, index in (("upper", (2, 0, 1)), ("diag", (4, 0, 1)), ("diag", (0, 0, 1)),
                            ("arrow_col", (0, 2, 1)), ("tip", (1, 0))):
            off = rhs.copy()
            stack = getattr(off, name)
            stack[index] = np.nextafter(stack[index].real, np.inf) + 1j * stack[index].imag
            assert _hermitian_sign(off) == 0, name
        # A first diagonal block that fits both signs leaves the whole
        # comparison to decide.
        _, rhs = signed_system(5, 3, 2, seed=1, sigma=-1)
        rhs.diag[0] = 0.0
        assert _hermitian_sign(rhs) == -1

    @pytest.mark.parametrize("sigma", [1, -1])
    @pytest.mark.parametrize("a_sz", [0, 2])
    @pytest.mark.parametrize("reblock", [False, True])  # c = 5 at b = 3: padded
    def test_matches_dense_oracle(self, sigma, a_sz, reblock):
        n = 9
        a, rhs = signed_system(n, 3, a_sz, seed=50 + a_sz, sigma=sigma)
        a_ref, rhs_ref = a.copy(), rhs.copy()
        oracle = (dense_selected_inverse(a), dense_selected_quadratic(a, rhs))
        for diagonal_only in (False, True):
            sol = solve_selected(a, rhs, diagonal_only=diagonal_only, reblock=reblock)
            assert a.equals_exact(a_ref) and rhs.equals_exact(rhs_ref)
            x_b = sol.x_b
            if diagonal_only:
                assert not x_b.lower.any() and not x_b.upper.any()
            else:
                assert_mirrored(x_b, sigma)
            for x, dense in zip((sol.x_a, x_b), oracle):
                if diagonal_only:
                    dense = BtaMatrix(n, 3, a_sz, dense.diag, x.lower, x.upper,
                                      dense.arrow_row, dense.arrow_col, dense.tip)
                assert max_block_rel_err(x, dense) <= 1e-10

    def test_inverse_bits_do_not_depend_on_the_sign(self):
        a, herm = signed_system(7, 3, 2, seed=9, sigma=1)
        general = random_system(7, 3, 2, seed=9)[1]
        for reblock in (False, True):
            want = solve_selected(a, general, reblock=reblock).x_a
            assert solve_selected(a, herm, reblock=reblock).x_a.equals_exact(want)

    # Re-blocked counts at (n, b) = (256, 4), 64 blocks of order 16, for a
    # sigma-Hermitian B: 1,010 products against TestReblock's 1,262.
    COUNTS = {
        0: {"gemm_bbb": 1010, "lu": 64, "trsm": 128, "inv": 64},
        2: {
            "gemm_aaa": 2, "gemm_aab": 192, "gemm_aba": 192, "gemm_abb": 570,
            "gemm_baa": 64, "gemm_bab": 444, "gemm_bba": 190, "gemm_bbb": 1010,
            "lu": 65, "trsm": 130, "inv": 65,
        },
    }

    @pytest.mark.parametrize("sigma", [1, -1])
    @pytest.mark.parametrize("a_sz", sorted(COUNTS))
    def test_counts_pinned(self, sigma, a_sz):
        a, rhs = signed_system(256, 4, a_sz, seed=3, sigma=sigma)
        counter = OpCounter(b=4, a=a_sz)
        solve_selected(a, rhs, counter=counter)
        assert counter.as_dict() == self.COUNTS[a_sz]

    @pytest.mark.parametrize("a_sz", [0, 2])
    @pytest.mark.parametrize("defect", ["one ulp in upper", "non-Hermitian diagonal block"])
    def test_near_hermitian_takes_the_general_path(self, a_sz, defect):
        # Counts do not depend on the values: the general path's tallies
        # are TestReblock's, taken with a B that is not Hermitian at all.
        a, rhs = signed_system(256, 4, a_sz, seed=3, sigma=1)
        if defect == "one ulp in upper":
            u = rhs.upper[100, 1, 2]
            rhs.upper[100, 1, 2] = np.nextafter(u.real, np.inf) + 1j * u.imag
        else:
            rhs.diag[50, 0, 1] += 1.0
        counter = OpCounter(b=4, a=a_sz)
        sol = solve_selected(a, rhs, counter=counter)
        assert counter.as_dict() == TestReblock.COUNTS[(a_sz, "siq")]
        assert max_block_rel_err(sol.x_b, dense_selected_quadratic(a, rhs)) <= 1e-10
