import multiprocessing
import socket
import threading
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from conftest import (
    assert_mirrored,
    dense_selected_inverse,
    dense_selected_quadratic,
    max_block_rel_err,
    random_system,
    signed_system,
)

from btasel import (
    BtaMatrix,
    OpCounter,
    SelectedSolution,
    ThreadHub,
    WorkerError,
    dist_solve,
    plan_partitions,
    solve_selected,
)
from btasel import dist, to_dense
from btasel.collectives import SocketCollectives
from btasel.dist import assemble_reduced, local_forward, solve_reduced
from btasel.errors import ProtocolError
from btasel.fileio import encode_bta
from btasel.matrix import stack_shapes


def _dist_vs_seq(n, b, a_sz, parts, mode, seed=0, tol=1e-9):
    a, rhs = random_system(n, b, a_sz, seed=seed)
    rhs = rhs if mode == "siq" else None
    seq = solve_selected(a, rhs, mode)
    got = dist_solve(a, rhs, num_parts=parts, mode=mode)
    err = max_block_rel_err(got.x_a, seq.x_a)
    if mode == "siq":
        err = max(err, max_block_rel_err(got.x_b, seq.x_b))
    assert err <= tol, (n, b, a_sz, parts, mode, err)


@pytest.mark.parametrize("parts", [2, 3, 4])
@pytest.mark.parametrize("mode", ["si", "siq"])
@pytest.mark.parametrize("a_sz", [0, 2])
def test_matches_sequential(parts, mode, a_sz):
    _dist_vs_seq(n=12, b=3, a_sz=a_sz, parts=parts, mode=mode)


def test_eight_parts():
    _dist_vs_seq(n=20, b=2, a_sz=1, parts=8, mode="siq")


def test_minimum_blocks_per_partition():
    # n == 2P: every partition is two boundary blocks with no interior.
    _dist_vs_seq(n=16, b=3, a_sz=2, parts=8, mode="siq")
    _dist_vs_seq(n=8, b=2, a_sz=0, parts=4, mode="si")


def test_two_parts_scalar_blocks_tight_tolerance():
    _dist_vs_seq(n=4, b=1, a_sz=0, parts=2, mode="si", tol=1e-12)


def test_four_parts_fused_hermitian_rhs():
    a, rhs = random_system(24, 8, 4, seed=21, hermitian_rhs=True)
    seq = solve_selected(a, rhs, "siq")
    got = dist_solve(a, rhs, num_parts=4, mode="siq")
    assert max_block_rel_err(got.x_a, seq.x_a) <= 1e-9
    assert max_block_rel_err(got.x_b, seq.x_b) <= 1e-9


def test_medium_size_fused():
    # Closer-to-production shape: 64 diagonal blocks of size 64 with a
    # 16-wide arrowhead, fused mode, four workers.
    a, rhs = random_system(64, 64, 16, seed=22, hermitian_rhs=True)
    seq = solve_selected(a, rhs, "siq")
    got = dist_solve(a, rhs, num_parts=4, mode="siq")
    assert max_block_rel_err(got.x_a, seq.x_a) <= 1e-9
    assert max_block_rel_err(got.x_b, seq.x_b) <= 1e-9


def test_single_part_is_bitwise_sequential():
    a, rhs = random_system(6, 3, 2, seed=1)
    seq = solve_selected(a, rhs, "siq")
    got = dist_solve(a, rhs, num_parts=1, mode="siq")
    assert got.x_a.equals_exact(seq.x_a)
    assert got.x_b.equals_exact(seq.x_b)


@pytest.mark.parametrize(
    "shape, parts", [((10, 4, 0), 2), ((13, 3, 2), 2), ((24, 4, 2), 3), ((17, 5, 0), 3)]
)
def test_si_x_a_is_the_siq_x_a(shape, parts):
    # At shapes where both modes plan the same ranges, every rank runs
    # the same A-side products in both modes, and so does the reduced
    # solve: X_A has the same bytes in both.
    a, rhs = random_system(*shape, seed=36)
    n = shape[0]
    assert plan_partitions(n, parts, "si") == plan_partitions(n, parts, "siq")
    si = dist_solve(a, None, num_parts=parts)
    siq = dist_solve(a, rhs, num_parts=parts)
    assert [x.tobytes() for x in si.x_a.stacks] == [x.tobytes() for x in siq.x_a.stacks]


def test_rerun_determinism_bitwise():
    a, rhs = random_system(14, 3, 2, seed=2)
    s1 = dist_solve(a, rhs, num_parts=4, mode="siq")
    s2 = dist_solve(a, rhs, num_parts=4, mode="siq")
    assert s1.x_a.equals_exact(s2.x_a)
    assert s1.x_b.equals_exact(s2.x_b)


class TestCommunicationContract:
    def test_one_gather_one_reduce(self):
        a, rhs = random_system(12, 3, 2, seed=3)
        hub = ThreadHub(3)
        dist_solve(a, rhs, num_parts=3, mode="siq", transport=hub)
        kinds = [e.kind for e in hub.trace]
        assert kinds == ["all_gather", "all_reduce"]

    def test_no_reduce_without_arrow(self):
        a, _ = random_system(12, 3, 0, seed=4)
        hub = ThreadHub(3)
        dist_solve(a, num_parts=3, mode="si", transport=hub)
        assert [e.kind for e in hub.trace] == ["all_gather"]

    def test_middle_payload_inventory(self):
        b, a_sz = 3, 2
        a, rhs = random_system(12, b, a_sz, seed=5)
        hub = ThreadHub(3)
        dist_solve(a, rhs, num_parts=3, mode="siq", transport=hub)
        gather = hub.trace[0]
        middle = gather.payloads[1]
        assert middle["kind"] == "middle"
        for side in ("", "b_"):
            assert middle["blocks"][side + "diag"] == [(b, b), (b, b)]
            assert middle["blocks"][side + "coupling"] == [(b, b), (b, b)]
            arrows = middle["blocks"][side + "arrow_row"] + middle["blocks"][side + "arrow_col"]
            assert sorted(arrows) == sorted([(a_sz, b), (a_sz, b), (b, a_sz), (b, a_sz)])

    def test_middle_payload_bytes_si(self):
        b, a_sz = 4, 2
        a, _ = random_system(12, b, a_sz, seed=6)
        hub = ThreadHub(3)
        dist_solve(a, num_parts=3, mode="si", transport=hub)
        middle = hub.trace[0].payloads[1]
        assert middle["nbytes"] == 16 * (4 * b * b + 4 * a_sz * b)

    def test_reduce_size_per_side(self):
        b, a_sz = 3, 2
        a, rhs = random_system(12, b, a_sz, seed=7)
        hub = ThreadHub(3)
        dist_solve(a, rhs, num_parts=3, mode="siq", transport=hub)
        reduce_event = hub.trace[1]
        # One a*a block per matrix side in fused mode.
        assert reduce_event.payloads[0]["elements"] == 2 * a_sz * a_sz
        hub2 = ThreadHub(3)
        dist_solve(a, num_parts=3, mode="si", transport=hub2)
        assert hub2.trace[1].payloads[0]["elements"] == a_sz * a_sz


class TestLocalForward:
    def test_first_and_last_have_no_coupling(self):
        a, _ = random_system(8, 2, 1, seed=8)
        plan = plan_partitions(8, 2, "si")
        for rank in range(2):
            payload, _, _ = local_forward(a, None, plan, rank)
            assert payload.a.upper.shape[0] == payload.a.lower.shape[0] == 0
            assert payload.a.diag.shape[0] == 1

    def test_degenerate_middle_payload_is_raw(self):
        # A middle partition of length 2 does no elimination: its payload
        # is its untouched boundary blocks and originals as couplings.
        a, _ = random_system(8, 2, 1, seed=9)
        plan = plan_partitions(8, 4, "si")
        rank = 1
        lo, hi = plan.ranges[rank]
        assert hi - lo == 2
        counter = OpCounter(b=2, a=1)
        payload, tip_delta, _ = local_forward(a, None, plan, rank, counter)
        np.testing.assert_array_equal(payload.a.diag[0], a.diag[lo])
        np.testing.assert_array_equal(payload.a.diag[1], a.diag[lo + 1])
        np.testing.assert_array_equal(payload.a.upper[0], a.upper[lo])
        np.testing.assert_array_equal(payload.a.lower[0], a.lower[lo])
        assert counter.inv_count == 0  # no pivot inverted
        assert np.all(tip_delta == 0)

    @pytest.mark.parametrize("n", [8, 20])  # degenerate and interior middles
    @pytest.mark.parametrize("mode", ["si", "siq"])
    def test_payload_shares_no_memory_with_the_working_stacks(self, n, mode):
        # On threads peers read a payload while its rank's backward sweep
        # overwrites the working stacks, its slice of the solution.
        a, rhs = random_system(n, 2, 1, seed=29)
        rhs = rhs if mode == "siq" else None
        plan = plan_partitions(n, 4, mode)
        for rank in range(4):
            payload, _, factors = local_forward(a, rhs, plan, rank)
            works = [w for w in (factors.wa, factors.wb) if w is not None]
            for m in payload.sides:
                for s in m.stacks:
                    assert not any(np.shares_memory(s, x) for w in works for x in w), rank

    def test_middle_per_step_bbb_counts(self):
        # A middle partition runs the arrowhead forward on its bordered
        # system, whose arrow has width b + a (the letter ?): per interior
        # step 2 bbb products of 6 (selected inversion), 7 of 18 (fused)
        # and 7 of 16 (B = ±B^H), measured by differencing two middle
        # lengths.
        def middle_counts(n, rhs_kind):
            if rhs_kind in (1, -1):
                a, rhs = signed_system(n, 4, 2, seed=10, sigma=rhs_kind)
            else:
                a, rhs = random_system(n, 4, 2, seed=10)
                rhs = None if rhs_kind == "si" else rhs
            plan = plan_partitions(n, 3, "si" if rhs is None else "siq")
            lo, hi = plan.ranges[1]
            counter = OpCounter(b=4, a=2)
            local_forward(a, rhs, plan, 1, counter)
            return hi - lo - 2, counter.gemm_by_shape

        steps = {
            "si": {"bbb": 2, "?bb": 2, "bb?": 1, "?b?": 1},
            "general": {"bbb": 7, "bb?": 3, "?bb": 5, "?b?": 3},
            1: {"bbb": 7, "bb?": 1, "?bb": 5, "?b?": 3},
            -1: {"bbb": 7, "bb?": 1, "?bb": 5, "?b?": 3},
        }
        for rhs_kind, step in steps.items():
            steps1, c1 = middle_counts(16, rhs_kind)
            steps2, c2 = middle_counts(24, rhs_kind)
            assert steps2 > steps1
            assert {k: v for k, v in c1.items() if v} == {k: v * steps1 for k, v in step.items()}
            assert {k: c2[k] - c1[k] for k in c2 if c2[k] != c1[k]} == {
                k: v * (steps2 - steps1) for k, v in step.items()
            }

    def test_first_per_step_matches_sequential(self):
        a, rhs = random_system(16, 4, 2, seed=11)
        plan = plan_partitions(16, 3, "siq")
        counter = OpCounter(b=4, a=2)
        local_forward(a, rhs, plan, 0, counter)
        lo, hi = plan.ranges[0]
        assert counter.gemm_by_shape["bbb"] == 7 * (hi - lo - 1)
        # Selected-inversion mode: the plain 2-products-per-step rate, the
        # middle's bbb rate too (7 fused), beside its products with a side
        # of b + a.
        plan_si = plan_partitions(16, 3, "si")
        for rank in (0, 2):
            counter = OpCounter(b=4, a=2)
            local_forward(a, None, plan_si, rank, counter)
            lo, hi = plan_si.ranges[rank]
            assert counter.gemm_by_shape["bbb"] == 2 * (hi - lo - 1)


def _schur_payload(a, b, lo, hi, kind):
    """A partition's payload by a dense oracle: the Schur complement of its
    interior blocks in its own blocks and a zero tip, on the boundary
    blocks and the tip, ``S = A_BB - F·A_IB`` with ``F = A_BI·A_II^-1``,
    and for ``b`` ``B_BB - F·B_IB - B_BI·F^H + F·B_II·F^H``.  Returns the
    containers' expected stacks per side, then the tip deltas."""
    m, bs, asz = hi - lo, a.b, a.a
    bnd = {"first": [m - 1], "middle": [0, m - 1], "last": [0]}[kind]

    def rows(blocks):
        return [r for j in blocks for r in range(j * bs, (j + 1) * bs)]

    def local(x):
        return to_dense(BtaMatrix(m, bs, asz, *dist._view(x, lo, hi, False)))

    bb = rows(bnd) + list(range(m * bs, m * bs + asz))  # boundary blocks, then the tip
    ii = rows([j for j in range(m) if j not in bnd])

    da = local(a)
    f = da[np.ix_(bb, ii)] @ np.linalg.inv(da[np.ix_(ii, ii)])
    s = [da[np.ix_(bb, bb)] - f @ da[np.ix_(ii, bb)]]
    if b is not None:
        db = local(b)
        fh = f.conj().T
        s.append(db[np.ix_(bb, bb)] - f @ db[np.ix_(ii, bb)] - db[np.ix_(bb, ii)] @ fh
                 + f @ db[np.ix_(ii, ii)] @ fh)
    k, sides = len(bnd), []
    blk = [slice(p * bs, (p + 1) * bs) for p in range(k)] + [slice(k * bs, None)]  # then the tip
    for x in s:
        sides.append({
            "diag": [x[blk[p], blk[p]] for p in range(k)],
            "upper": [x[blk[0], blk[1]]] if k == 2 else [],
            "lower": [x[blk[1], blk[0]]] if k == 2 else [],
            "arrow_row": [x[blk[-1], blk[p]] for p in range(k)],
            "arrow_col": [x[blk[p], blk[-1]] for p in range(k)],
        })
    return sides, [x[blk[-1], blk[-1]] for x in s]


@pytest.mark.parametrize(
    "n, bs, a_sz, parts",
    [(20, 3, 2, 3), (20, 3, 0, 3), (24, 3, 2, 4), (12, 2, 1, 4), (14, 2, 0, 4)],
)
@pytest.mark.parametrize("rhs_kind", ["si", "general", 1, -1])
def test_payload_matches_dense_schur_complement(n, bs, a_sz, parts, rhs_kind):
    # Every field of every rank's payload, and its tip delta, against the
    # dense Schur complement of the partition's interior: first, middle
    # (with interior blocks, and degenerate at P=4 with n=12 and 14) and
    # last partitions, with and without an arrow, in si, with a general B
    # and with B = ±B^H.
    if rhs_kind in (1, -1):
        a, rhs = signed_system(n, bs, a_sz, seed=80 + n, sigma=rhs_kind)
    else:
        a, rhs = random_system(n, bs, a_sz, seed=80 + n)
        rhs = None if rhs_kind == "si" else rhs
    plan = plan_partitions(n, parts, "si" if rhs is None else "siq")
    sizes = [hi - lo for lo, hi in plan.ranges[1:-1]]
    assert (min(sizes) == 2) == (parts == 4 and n < 20)
    for rank, (lo, hi) in enumerate(plan.ranges):
        payload, tip_delta, _ = local_forward(a, rhs, plan, rank)
        sides, tips = _schur_payload(a, rhs, lo, hi, plan.kinds[rank])
        for got, want in zip(payload.sides, sides, strict=True):
            for name, blocks in want.items():
                stack = getattr(got, name)
                assert len(stack) == len(blocks), (rank, name)
                for g, w in zip(stack, blocks):
                    if w.size:
                        err = np.linalg.norm(g - w) / np.linalg.norm(w)
                        assert err <= 1e-12, (rank, name, err)
        assert len(tip_delta) == len(tips)
        for g, w in zip(tip_delta, tips):
            if a_sz:
                assert np.linalg.norm(g - w) <= 1e-12 * np.linalg.norm(w), rank


@pytest.mark.parametrize("mode", ["si", "siq"])
def test_every_partition_runs_the_sequential_sweeps(monkeypatch, mode):
    # First, middle and last partitions alike eliminate with rgf's
    # forward sweep and back-substitute with its backward sweep, one call
    # of each per rank.
    calls = []

    def spy(name, real):
        def wrapper(*args):
            calls.append((name, threading.current_thread()))
            return real(*args)

        return wrapper

    for name in ("_forward_sweep", "_backward_sweep"):
        monkeypatch.setattr(dist, name, spy(name, getattr(dist, name)))
    a, rhs = random_system(24, 3, 2, seed=31)  # P=4: two middles with interior blocks
    dist_solve(a, rhs if mode == "siq" else None, num_parts=4, mode=mode)
    threads = {t for _, t in calls}
    assert len(threads) == 4
    for t in threads:
        assert sorted(name for name, u in calls if u is t) == ["_backward_sweep", "_forward_sweep"]


class TestReducedSystem:
    def test_scalar_hand_elimination(self):
        # (n=4, b=1, a=0, P=2): reduced system is 2x2 with the two
        # boundary Schur complements on the diagonal and the original
        # separator off-diagonals.
        a, _ = random_system(4, 1, 0, seed=12)
        plan = plan_partitions(4, 2, "si")
        hub = ThreadHub(2)
        reduced = [None, None]

        import threading

        def run(rank):
            payload, tip_delta, _ = local_forward(a, None, plan, rank)
            reduced[rank] = assemble_reduced(
                hub.endpoint(rank), a, None, plan, payload, tip_delta
            )

        threads = [threading.Thread(target=run, args=(r,)) for r in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        d = [blk[0, 0] for blk in a.diag]
        lo = [blk[0, 0] for blk in a.lower]
        up = [blk[0, 0] for blk in a.upper]
        schur_first = d[1] - lo[0] * up[0] / d[0]
        schur_last = d[2] - up[2] * lo[2] / d[3]
        r = reduced[0].matrix_a
        assert r.shape_params == (2, 1, 0)
        np.testing.assert_allclose(r.diag[0][0, 0], schur_first)
        np.testing.assert_allclose(r.diag[1][0, 0], schur_last)
        np.testing.assert_allclose(r.lower[0][0, 0], lo[1])
        np.testing.assert_allclose(r.upper[0][0, 0], up[1])
        # Replicated: both ranks hold identical systems.
        assert reduced[0].matrix_a.equals_exact(reduced[1].matrix_a)

    def test_reduced_solution_matches_sequential_boundaries(self):
        a, rhs = random_system(12, 4, 2, seed=13)
        plan = plan_partitions(12, 3, "siq")
        hub = ThreadHub(3)
        out = [None] * 3

        import threading

        def run(rank):
            payload, tip_delta, _ = local_forward(a, rhs, plan, rank)
            red = assemble_reduced(hub.endpoint(rank), a, rhs, plan, payload, tip_delta)
            out[rank] = (red, solve_reduced(red, "siq"))

        threads = [threading.Thread(target=run, args=(r,)) for r in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        seq = solve_selected(a, rhs, "siq")
        red, red_sol = out[0]
        for (rank, side), k in red.index.items():
            lo, hi = plan.ranges[rank]
            g = lo if side == "top" else hi - 1
            err = np.linalg.norm(red_sol.x_a.diag[k] - seq.x_a.diag[g])
            err /= np.linalg.norm(seq.x_a.diag[g])
            assert err <= 1e-12, (rank, side, err)


def test_worker_error_carries_rank():
    a, _ = random_system(8, 2, 0, seed=14)
    # Block 7 is the last partition's first pivot: it is inverted before
    # any Schur update could repair it, so rank 1 must fail.
    a.diag[7][:] = 0.0
    with pytest.raises(WorkerError) as info:
        dist_solve(a, num_parts=2, mode="si")
    assert info.value.rank == 1


def test_middle_backward_per_step_counts():
    # The middle backward step is rgf's arrowhead step on the bordered
    # system, whose arrow (the top boundary and the tip) has width b + a,
    # the letter ?: 12 products (si) and 38 (siq), measured as rank 1's
    # tally minus its forward pass.  Nothing is counted outside the steps.
    def middle_backward(n, fused):
        a, rhs = random_system(n, 4, 2, seed=10)
        rhs = rhs if fused else None
        mode = "siq" if fused else "si"
        plan = plan_partitions(n, 3, mode)
        lo, hi = plan.ranges[1]
        per_rank = []
        dist_solve(a, rhs, num_parts=3, mode=mode, rank_counters=per_rank)
        forward = OpCounter(b=4, a=2)
        local_forward(a, rhs, plan, 1, forward)
        counts = per_rank[1].gemm_by_shape.copy()
        counts.subtract(forward.gemm_by_shape)
        return hi - lo - 2, counts

    si = {"bbb": 4, "bb?": 2, "?bb": 1, "b?b": 3, "??b": 1, "b??": 1}
    siq = {"bbb": 13, "bb?": 6, "?bb": 4, "b?b": 9, "??b": 3, "b??": 3}
    for fused, step in ((False, si), (True, siq)):
        steps1, c1 = middle_backward(16, fused)
        steps2, c2 = middle_backward(24, fused)
        assert steps2 > steps1
        assert {k: v for k, v in c1.items() if v} == {k: v * steps1 for k, v in step.items()}
        assert {k: c2[k] - c1[k] for k in c2 if c2[k] != c1[k]} == {
            k: v * (steps2 - steps1) for k, v in step.items()
        }


def test_middle_backward_per_step_counts_signed_rhs():
    # B = sigma·B^H: the middle step takes the sweep's mirrored path, 26
    # products.
    def middle_backward(n, sigma):
        a, rhs = signed_system(n, 4, 2, seed=10, sigma=sigma)
        plan = plan_partitions(n, 3, "siq")
        lo, hi = plan.ranges[1]
        per_rank = []
        dist_solve(a, rhs, num_parts=3, mode="siq", rank_counters=per_rank)
        forward = OpCounter(b=4, a=2)
        local_forward(a, rhs, plan, 1, forward)
        counts = per_rank[1].gemm_by_shape.copy()
        counts.subtract(forward.gemm_by_shape)
        return hi - lo - 2, counts

    step = {"bbb": 9, "bb?": 2, "?bb": 4, "b?b": 7, "??b": 3, "b??": 1}
    for sigma in (1, -1):
        steps1, c1 = middle_backward(16, sigma)
        steps2, c2 = middle_backward(24, sigma)
        assert {k: v for k, v in c1.items() if v} == {k: v * steps1 for k, v in step.items()}
        assert {k: c2[k] - c1[k] for k in c2 if c2[k] != c1[k]} == {
            k: v * (steps2 - steps1) for k, v in step.items()
        }


@pytest.mark.parametrize("sigma", [1, -1])
@pytest.mark.parametrize("parts", [2, 3])
@pytest.mark.parametrize("a_sz", [0, 2])
def test_signed_rhs_matches_dense_oracle(sigma, parts, a_sz):
    # Every partition runs both sweeps' mirrored path, and the reduced
    # solve takes it too: every upper coupling and arrow column of X_B is the
    # exact mirror of its lower counterpart.
    a, rhs = signed_system(14, 3, a_sz, seed=60 + a_sz, sigma=sigma)
    a_ref, rhs_ref = a.copy(), rhs.copy()
    sol = dist_solve(a, rhs, num_parts=parts)
    assert a.equals_exact(a_ref) and rhs.equals_exact(rhs_ref)
    assert max_block_rel_err(sol.x_a, dense_selected_inverse(a)) <= 1e-10
    assert max_block_rel_err(sol.x_b, dense_selected_quadratic(a, rhs)) <= 1e-10
    assert_mirrored(sol.x_b, sigma)


@pytest.mark.parametrize("parts", [2, 3])
@pytest.mark.parametrize("a_sz", [0, 2])
def test_si_local_forward_leaves_input_bit_identical(parts, a_sz):
    # In si the first and last partitions' forward writes S·U into its
    # upper slots, which begin as views of the input's couplings (the
    # last partition's as its lower ones, reversed): each must own them.
    # tests/test_kernels.py checks the same of a whole dist_solve.
    a, _ = random_system(20, 3, a_sz, seed=70 + a_sz)
    a_ref = a.copy()
    plan = plan_partitions(a.n, parts, "si")
    for rank in range(parts):
        _, _, factors = local_forward(a, None, plan, rank)
        assert a.equals_exact(a_ref), rank
        if plan.kinds[rank] != "middle":
            upper = factors.wa.upper
            assert not any(np.shares_memory(upper, s) for s in a.stacks), rank


def _local_backward_calls(monkeypatch, a, rhs, parts, mode=None):
    """Each rank's local_backward arguments and returned slice in a
    threaded solve, and the solution."""
    real, calls = dist.local_backward, {}

    def spy(*args):
        calls[args[3]] = args, real(*args)
        return calls[args[3]][1]

    monkeypatch.setattr(dist, "local_backward", spy)
    sol = dist_solve(a, rhs, num_parts=parts, mode=mode)
    monkeypatch.setattr(dist, "local_backward", real)
    return calls, sol


def _local_backward_args(monkeypatch, a, rhs, parts):
    """The arguments each rank's local_backward took in a threaded solve."""
    calls, _ = _local_backward_calls(monkeypatch, a, rhs, parts)
    return {rank: args for rank, (args, _) in calls.items()}


def _same_view(x, y):
    """Whether two arrays are the same view of the same memory."""
    return x.shape == y.shape and x.strides == y.strides and x.ctypes.data == y.ctypes.data


@pytest.mark.parametrize("rank", [0, 1, 2])
def test_local_factors_hold_only_views_of_the_solution(monkeypatch, rank):
    # The working stacks are the rank's slice of the solution, in sweep
    # order: all five stacks of each side of a first or last partition,
    # and no copy of their own.  A middle partition sweeps its blocks but
    # the top boundary, bordered by it: its diagonal and coupling stacks
    # are views of the slice's, its arrow stacks (of width b + a) its own.
    a, rhs = random_system(16, 2, 1, seed=19)
    for mode in ("si", "siq"):
        calls, sol = _local_backward_calls(monkeypatch, a, rhs, 3, mode)
        args, slices = calls[rank]
        plan, factors = args[2], args[4]
        lo, hi = plan.ranges[rank]
        kind = plan.kinds[rank]
        works = [factors.wa, factors.wb][: 1 + (mode == "siq")]
        assert (factors.wb is None) == (mode == "si")
        for w, x, merged in zip(works, slices, (sol.x_a, sol.x_b)):
            assert all(s is not None for s in w)
            if kind == "middle":
                views = dist._view(x, 1, hi - lo, False)[:3]
                for own in w[3:]:  # b + a = 3
                    assert own.shape[1:] in ((3, 2), (2, 3)), own.shape
                    assert not any(np.shares_memory(own, s) for s in merged.stacks), mode
            else:
                views = x.stacks
            swept = dist._view(w, 0, len(w.diag), kind == "last")
            for got, want, whole in zip(swept, views, merged.stacks):
                assert _same_view(got, want), (mode, rank)
                assert np.shares_memory(got, whole), (mode, rank)


@pytest.mark.parametrize("rank", [0, 1, 2])
def test_local_backward_fused_factors_require_the_rhs(monkeypatch, rank):
    a, rhs = random_system(16, 2, 1, seed=17)
    args = _local_backward_args(monkeypatch, a, rhs, 3)[rank]
    with pytest.raises(ProtocolError, match="require the right-hand side"):
        dist.local_backward(a, None, *args[2:])


@pytest.mark.parametrize("rank", [0, 1, 2])
def test_local_backward_reduced_solution_of_another_shape(monkeypatch, rank):
    a, _ = random_system(16, 2, 1, seed=18)
    args = _local_backward_args(monkeypatch, a, None, 3)[rank]
    n, bs, asz = args[6].x_a.shape_params
    short = SelectedSolution(BtaMatrix.zeros(n - 1, bs, asz), None, "si")
    with pytest.raises(ProtocolError, match="disagrees with reduced system"):
        dist.local_backward(*args[:6], short, *args[7:])


@pytest.mark.parametrize("parts", [2, 3, 4])
@pytest.mark.parametrize("mode", ["si", "siq"])
@pytest.mark.parametrize("a_sz", [0, 2])
def test_rank_slices_are_views_of_the_merged_solution(monkeypatch, parts, mode, a_sz):
    # On threads each rank solves in its own blocks of the merged solution,
    # so the merge copies none of them.
    a, rhs = random_system(20, 3, a_sz, seed=25)
    calls, sol = _local_backward_calls(monkeypatch, a, rhs, parts, mode)
    assert sorted(calls) == list(range(parts))
    for rank, (args, slices) in calls.items():
        lo, hi = args[2].ranges[rank]
        assert len([x for x in slices if x is not None]) == 1 + (mode == "siq")
        for x, merged in zip(slices, (sol.x_a, sol.x_b)):
            if x is None:
                continue
            for got, whole in zip(x.stacks[:-1], merged.stacks[:-1]):
                want = whole[lo : lo + len(got)]
                assert got.size == 0 or _same_view(got, want), (rank, got.shape)


@pytest.mark.parametrize("parts", [2, 3])
@pytest.mark.parametrize("mode", ["si", "siq"])
def test_thread_solve_allocates_the_solution_once(monkeypatch, parts, mode):
    # One set of block storage per matrix side, allocated by the facade
    # before its ranks start: no rank allocates stacks of its own.
    real, calls = BtaMatrix.empty.__func__, []

    def spy(cls, *shape):
        calls.append((shape, threading.current_thread()))
        return real(cls, *shape)

    monkeypatch.setattr(BtaMatrix, "empty", classmethod(spy))
    a, rhs = random_system(20, 3, 2, seed=26)
    dist_solve(a, rhs, num_parts=parts, mode=mode)
    assert calls == [((20, 3, 2), threading.current_thread())] * (1 + (mode == "siq"))


def _sign_tests(monkeypatch):
    """The threads that called dist._hermitian_sign, once per call."""
    real, threads = dist._hermitian_sign, []

    def spy(m):
        threads.append(threading.current_thread())
        return real(m)

    monkeypatch.setattr(dist, "_hermitian_sign", spy)
    return threads


@pytest.mark.parametrize("parts", [2, 3])
@pytest.mark.parametrize("sigma", [1, -1, 0])
def test_sign_found_once_per_thread_solve(monkeypatch, parts, sigma):
    threads = _sign_tests(monkeypatch)
    if sigma:
        a, rhs = signed_system(20, 3, 2, seed=27, sigma=sigma)
    else:
        a, rhs = random_system(20, 3, 2, seed=27)
    dist_solve(a, rhs, num_parts=parts)
    assert threads == [threading.current_thread()]
    threads.clear()
    dist_solve(a, num_parts=parts)  # si: there is no b to test
    assert threads == []


def test_sign_found_once_per_socket_rank(monkeypatch):
    # Each socket rank tests its own b, once.
    threads = _sign_tests(monkeypatch)
    a, rhs = signed_system(20, 3, 2, seed=28, sigma=1)
    port = _free_port()
    ranks, errors = {}, []

    def run(rank):
        ranks[threading.current_thread()] = rank
        try:
            coll = SocketCollectives(3, rank, f"127.0.0.1:{port}", timeout=30.0)
            try:
                dist_solve(a, rhs, num_parts=3, transport=coll)
            finally:
                coll.close()
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append((rank, exc))

    workers = [threading.Thread(target=run, args=(rank,)) for rank in range(3)]
    for t in workers:
        t.start()
    for t in workers:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in workers)
    assert not errors
    assert sorted(ranks[t] for t in threads) == [0, 1, 2]


def test_counters_aggregate():
    a, rhs = random_system(12, 3, 2, seed=16)
    counter = OpCounter(b=3, a=2)
    per_rank = []
    dist_solve(a, rhs, num_parts=3, mode="siq", counter=counter, rank_counters=per_rank)
    assert len(per_rank) == 3
    local_sum = sum(c.gemm_by_shape["bbb"] for c in per_rank)
    assert counter.gemm_by_shape["bbb"] > local_sum  # includes the reduced solve


def test_no_tally_without_counter(monkeypatch):
    # Instrumentation is off unless asked for: no rank may count a product
    # that nobody reads.
    recorded = []
    record = OpCounter.record_gemm

    def spy(self, *dims):
        recorded.append(dims)
        record(self, *dims)

    monkeypatch.setattr(OpCounter, "record_gemm", spy)
    a, rhs = random_system(16, 3, 2, seed=21)
    dist_solve(a, rhs, num_parts=2, mode="siq")
    assert recorded == []
    dist_solve(a, rhs, num_parts=2, mode="siq", counter=OpCounter(b=3, a=2))
    assert recorded


_GEMM_CLASSES = ("aaa", "aab", "aba", "abb", "baa", "bab", "bba", "bbb")


def _tally(gemms, inv, bordered=None):
    """A tally's ``as_dict``: gemm counts in ``_GEMM_CLASSES`` order, the
    inversions, and the classes with a side of order b + a (``?``), a
    middle partition's bordered system's."""
    counts = {f"gemm_{k}": v for k, v in zip(_GEMM_CLASSES, gemms) if v}
    counts.update((f"gemm_{k}", v) for k, v in (bordered or {}).items())
    counts.update(lu=inv, trsm=2 * inv, inv=inv)
    return counts


# The middle rank's products with a side of order b + a at P=3, one
# interior step.
_MIDDLE_SI = {"bb?": 3, "?bb": 3, "?b?": 1, "b?b": 3, "??b": 1, "b??": 1}
_MIDDLE_SIQ = {"bb?": 9, "?bb": 9, "?b?": 3, "b?b": 9, "??b": 3, "b??": 3}


class TestCountingOnRequest:
    # random_system(16, 3, 2, seed=21): the aggregate tally, then each
    # rank's, as counted before counting was made optional, but for the
    # first and last partitions and the reduced solve: in si their
    # backward steps reuse the forward's S·U and S·Ac (one bbb and one
    # bba fewer per step), in siq the forward's L·S, Ar·S, L·S·Bd and
    # Ar·S·Bd (seven products fewer per step).  A middle rank runs the
    # same sweeps on its system bordered by its top boundary, whose arrow
    # has order b + a = 5 (the letter ?).  Gemm counts in _GEMM_CLASSES
    # order, then the inversions (one LU and two TRSM each), then the
    # classes with a side of order b + a.
    TALLIES = {
        (2, "si"): [
            ((0, 16, 16, 46, 16, 46, 46, 90), 17),
            ((0, 7, 7, 21, 7, 21, 21, 42), 7),
            ((0, 7, 7, 21, 7, 21, 21, 42), 7),
        ],
        (2, "siq"): [
            ((2, 48, 48, 138, 48, 138, 138, 302), 17),
            ((0, 21, 21, 63, 21, 63, 63, 140), 7),
            ((0, 21, 21, 63, 21, 63, 63, 140), 7),
        ],
        (3, "si"): [
            ((0, 15, 15, 43, 15, 43, 43, 90), 17, _MIDDLE_SI),
            ((0, 6, 6, 18, 6, 18, 18, 36), 6),
            ((0, 0, 0, 0, 0, 0, 0, 6), 1, _MIDDLE_SI),
            ((0, 5, 5, 15, 5, 15, 15, 30), 5),
        ],
        (3, "siq"): [
            ((2, 45, 45, 129, 45, 129, 129, 302), 17, _MIDDLE_SIQ),
            ((0, 18, 18, 54, 18, 54, 54, 120), 6),
            ((0, 0, 0, 0, 0, 0, 0, 20), 1, _MIDDLE_SIQ),
            ((0, 15, 15, 45, 15, 45, 45, 100), 5),
        ],
    }

    @staticmethod
    def _solve(parts, mode, counter=None, rank_counters=None, transport=None):
        a, rhs = random_system(16, 3, 2, seed=21)
        rhs = rhs if mode == "siq" else None
        return dist_solve(
            a,
            rhs,
            num_parts=parts,
            mode=mode,
            transport=transport,
            counter=counter,
            rank_counters=rank_counters,
        )

    @pytest.mark.parametrize("parts", [2, 3])
    @pytest.mark.parametrize("mode", ["si", "siq"])
    @pytest.mark.parametrize("ask", ["counter", "rank_counters", "both"])
    def test_tallies_unchanged(self, parts, mode, ask):
        total, *ranks = (_tally(*t) for t in self.TALLIES[(parts, mode)])
        counter = OpCounter(b=3, a=2) if ask != "rank_counters" else None
        per_rank = [] if ask != "counter" else None
        self._solve(parts, mode, counter, per_rank)
        if counter is not None:
            assert counter.as_dict() == total
        if per_rank is not None:
            assert [c.as_dict() for c in per_rank] == ranks

    @pytest.mark.parametrize("mode", ["si", "siq"])
    def test_socket_ranks_tally_their_own(self, mode):
        # Both ranks of a socket run, in threads of this process: each keeps
        # its local tally, and rank 0 adds the reduced solve.
        total, *ranks = (_tally(*t) for t in self.TALLIES[(2, mode)])
        port = _free_port()
        got, errors = {}, []

        def run(rank):
            try:
                coll = SocketCollectives(2, rank, f"127.0.0.1:{port}", timeout=30.0)
                try:
                    counter, per_rank = OpCounter(b=3, a=2), []
                    self._solve(2, mode, counter, per_rank, coll)
                    got[rank] = counter.as_dict(), [c.as_dict() for c in per_rank]
                finally:
                    coll.close()
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(rank,)) for rank in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert got[0][1] == ranks[:1]
        assert got[1] == (ranks[1], ranks[1:])
        assert Counter(got[0][0]) + Counter(got[1][0]) == Counter(total)

    @pytest.mark.parametrize("parts", [2, 3])
    @pytest.mark.parametrize("mode", ["si", "siq"])
    def test_counting_does_not_change_bits(self, parts, mode):
        plain = self._solve(parts, mode)
        counted = self._solve(parts, mode, OpCounter(b=3, a=2), [])
        assert plain.x_a.equals_exact(counted.x_a)
        if mode == "siq":
            assert plain.x_b.equals_exact(counted.x_b)


def test_timings_phases():
    a, rhs = random_system(12, 3, 2, seed=17)
    timings = {}
    dist_solve(a, rhs, num_parts=3, mode="siq", timings=timings)
    assert set(timings) == {"forward", "communication", "reduced", "backward"}


def _free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _socket_rank(rank, world, port, queue):
    coll = SocketCollectives(world, rank, f"127.0.0.1:{port}")
    try:
        a, rhs = random_system(10, 2, 1, seed=18)
        sol = dist_solve(a, rhs, num_parts=world, mode="siq", transport=coll)
        if rank == 0:
            seq = solve_selected(a, rhs, "siq")
            err = max(
                max_block_rel_err(sol.x_a, seq.x_a),
                max_block_rel_err(sol.x_b, seq.x_b),
            )
            queue.put(err)
        else:
            assert sol is None
    finally:
        coll.close()


def test_dist_solve_over_sockets():
    port = _free_port()
    world = 2
    ctx = multiprocessing.get_context("spawn")
    queue = ctx.Queue()
    procs = [
        ctx.Process(target=_socket_rank, args=(rank, world, port, queue))
        for rank in range(world)
    ]
    for p in procs:
        p.start()
    err = queue.get(timeout=120)
    for p in procs:
        p.join(timeout=120)
        assert p.exitcode == 0
    assert err <= 1e-9


@pytest.mark.parametrize("parts", [2, 3, 4])
@pytest.mark.parametrize("mode", ["si", "siq"])
@pytest.mark.parametrize("a_sz", [0, 2])
def test_socket_ranks_match_threads(parts, mode, a_sz):
    # Every rank of a socket run in a thread of this process, with middle
    # partitions and plain BT systems on the wire: rank 0 returns the
    # thread transport's solution bit for bit, the others None.  A socket
    # rank solves in stacks of its own, a thread rank in views of the
    # merged solution; the last partition in reverse order in both.
    a, rhs = random_system(20, 3, a_sz, seed=23)  # middles with interior blocks
    rhs = rhs if mode == "siq" else None
    port = _free_port()
    got, errors = {}, []

    def run(rank):
        try:
            coll = SocketCollectives(parts, rank, f"127.0.0.1:{port}", timeout=30.0)
            try:
                got[rank] = dist_solve(a, rhs, num_parts=parts, mode=mode, transport=coll)
            finally:
                coll.close()
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append((rank, exc))

    threads = [threading.Thread(target=run, args=(rank,)) for rank in range(parts)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    assert [got[rank] for rank in range(1, parts)] == [None] * (parts - 1)
    ref = dist_solve(a, rhs, num_parts=parts, mode=mode)
    assert got[0].x_a.equals_exact(ref.x_a)
    if mode == "siq":
        assert got[0].x_b.equals_exact(ref.x_b)


@pytest.mark.parametrize("parts", [2, 3])
@pytest.mark.parametrize("mode", ["si", "siq"])
def test_socket_root_solves_in_its_own_output(monkeypatch, parts, mode):
    # Rank 0 solves in views of the solution it returns and sends no
    # slice: of the solution slices it decodes only the other ranks'.
    real_decode, real_backward = dist.decode_bta, dist.local_backward
    decoded, slices, ranks = [], {}, {}

    def decode(raw, offset=0, copy=True):
        x, end = real_decode(raw, offset, copy)
        decoded.append((ranks[threading.current_thread()], x.n))
        return x, end

    def backward(a, b, plan, rank, *args):
        slices[rank] = real_backward(a, b, plan, rank, *args)
        return slices[rank]

    monkeypatch.setattr(dist, "decode_bta", decode)
    monkeypatch.setattr(dist, "local_backward", backward)
    a, rhs = random_system(21, 3, 2, seed=29)  # slices of more than two blocks
    rhs = rhs if mode == "siq" else None
    port = _free_port()
    got, errors = {}, []

    def run(rank):
        ranks[threading.current_thread()] = rank
        try:
            coll = SocketCollectives(parts, rank, f"127.0.0.1:{port}", timeout=30.0)
            try:
                got[rank] = dist_solve(a, rhs, num_parts=parts, mode=mode, transport=coll)
            finally:
                coll.close()
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append((rank, exc))

    workers = [threading.Thread(target=run, args=(rank,)) for rank in range(parts)]
    for t in workers:
        t.start()
    for t in workers:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in workers)
    assert not errors
    plan = plan_partitions(21, parts, mode)
    sides = 1 + (mode == "siq")
    # Boundary payloads hold one or two blocks; every slice here holds more.
    assert [n for rank, n in decoded if rank == 0 and n > 2] == [
        hi - lo for lo, hi in plan.ranges[1:] for _ in range(sides)
    ]
    for own, whole in zip(slices[0], (got[0].x_a, got[0].x_b)):
        if own is not None:
            for mine, merged in zip(own.stacks[:-1], whole.stacks[:-1]):
                assert np.shares_memory(mine, merged)
    ref = dist_solve(a, rhs, num_parts=parts, mode=mode)
    assert got[0].x_a.equals_exact(ref.x_a)
    if mode == "siq":
        assert got[0].x_b.equals_exact(ref.x_b)


def test_root_places_slices_from_views_of_their_blobs():
    # Each received slice is copied once, from views of its blob into the
    # solution stacks: placing them allocates less than one slice.
    n, b, a_sz, parts = 60, 8, 2, 3
    plan = plan_partitions(n, parts, "siq")
    whole = [random_system(n, b, a_sz, seed=41)[k] for k in (0, 1)]
    blobs = [b""]
    for lo, hi in plan.ranges[1:]:
        sl = [BtaMatrix(hi - lo, b, a_sz, *dist._view(x, lo, hi, False)) for x in whole]
        blobs.append(b"".join(bytes(encode_bta(x)) for x in sl))
    slice_bytes = min(len(blob) for blob in blobs[1:]) // 2
    xs = [BtaMatrix.zeros(n, b, a_sz) for _ in whole]
    tracemalloc.start()
    try:
        dist._place_slices(xs, plan, blobs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < slice_bytes / 4, (peak, slice_bytes)
    for lo, hi in plan.ranges[1:]:
        for x, ref in zip(xs, whole):
            for got, want in zip(dist._view(x, lo, hi, False), dist._view(ref, lo, hi, False)):
                assert np.array_equal(got, want)


def test_socket_ranks_find_the_sign_themselves():
    # Each socket rank finds sigma in its own b; rank 0 returns the
    # thread transport's solution bit for bit.
    a, rhs = signed_system(20, 3, 2, seed=24, sigma=-1)
    port = _free_port()
    got, errors = {}, []

    def run(rank):
        try:
            coll = SocketCollectives(3, rank, f"127.0.0.1:{port}", timeout=30.0)
            try:
                got[rank] = dist_solve(a, rhs, num_parts=3, transport=coll)
            finally:
                coll.close()
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append((rank, exc))

    threads = [threading.Thread(target=run, args=(rank,)) for rank in range(3)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert not errors
    ref = dist_solve(a, rhs, num_parts=3)
    assert got[0].x_a.equals_exact(ref.x_a) and got[0].x_b.equals_exact(ref.x_b)
    assert_mirrored(got[0].x_b, -1)


def test_identity_system_all_partitions():
    a = BtaMatrix.identity(12, 2, 2)
    sol = dist_solve(a, num_parts=3, mode="si")
    assert max_block_rel_err(sol.x_a, BtaMatrix.identity(12, 2, 2)) <= 1e-14


def test_single_part_fills_rank_counters():
    # One partition is one rank: its tally is the sequential solve's.
    a, rhs = random_system(6, 3, 2, seed=1)
    counter, per_rank = OpCounter(b=3, a=2), []
    dist_solve(a, rhs, num_parts=1, mode="siq", counter=counter, rank_counters=per_rank)
    alone = OpCounter(b=3, a=2)
    solve_selected(a, rhs, "siq", counter=alone)
    assert [c.as_dict() for c in per_rank] == [alone.as_dict()]
    assert counter.as_dict() == alone.as_dict()


@pytest.mark.parametrize(
    "n, parts, rank, kind", [(8, 2, 0, "first"), (16, 3, 1, "middle"), (8, 2, 1, "last")]
)
def test_singular_pivot_reports_global_block(n, parts, rank, kind):
    # A zeroed diagonal block that is a partition's first pivot stays
    # singular; the error names it by its global index, whichever way
    # the partition sweeps.
    a, _ = random_system(n, 2, 1, seed=14)
    plan = plan_partitions(n, parts, "si")
    lo, hi = plan.ranges[rank]
    assert plan.kinds[rank] == kind
    block = {"first": lo, "middle": lo + 1, "last": hi - 1}[kind]
    a.diag[block][:] = 0.0
    with pytest.raises(WorkerError) as info:
        dist_solve(a, num_parts=parts, mode="si")
    assert info.value.rank == rank
    assert info.value.cause.index == block


@pytest.mark.parametrize("n", [8, 20])  # degenerate and interior middles
@pytest.mark.parametrize("parts", [2, 3, 4])
@pytest.mark.parametrize("mode", ["si", "siq"])
@pytest.mark.parametrize("a_sz", [0, 2])
def test_every_partition_slot_is_written(monkeypatch, n, parts, mode, a_sz):
    # The merged output stacks start as NaN, and each rank's blocks of
    # them as copies of its input: a slot the backward pass skipped would
    # keep its input block, and a separator or tip the merge skipped its
    # NaN, and either would show in the solution.
    def nan_stacks(cls, m, b, a=0):
        return BtaMatrix(m, b, a, *(np.full(s, np.nan, complex) for s in stack_shapes(m, b, a)))

    monkeypatch.setattr(BtaMatrix, "empty", classmethod(nan_stacks))
    a, rhs = random_system(n, 3, a_sz, seed=n + parts)
    rhs = rhs if mode == "siq" else None
    seq = solve_selected(a, rhs, mode)
    got = dist_solve(a, rhs, num_parts=parts, mode=mode)
    for x, ref in ((got.x_a, seq.x_a), (got.x_b, seq.x_b))[: 2 if rhs is not None else 1]:
        # The error below is blind to NaN: max() keeps 0.0 over a NaN.
        assert all(np.isfinite(s).all() for s in x.stacks)
        assert max_block_rel_err(x, ref) <= 1e-12


def test_rank_thread_that_cannot_start_does_not_hang(monkeypatch):
    # The rank threads wait for each other before they start: when the
    # pool cannot start the second, the first must not wait forever.
    real = dist.ThreadPoolExecutor.submit
    calls = []

    def submit(self, fn, *args):
        calls.append(fn)
        if len(calls) == 2:
            raise RuntimeError("can't start new thread")
        return real(self, fn, *args)

    monkeypatch.setattr(dist.ThreadPoolExecutor, "submit", submit)
    a, _ = random_system(8, 2, 1, seed=3)
    errors = []

    def solve():
        try:
            dist_solve(a, num_parts=2, mode="si")
        except RuntimeError as exc:
            errors.append(str(exc))

    caller = threading.Thread(target=solve, daemon=True)
    caller.start()
    caller.join(timeout=30)
    assert not caller.is_alive()
    assert errors == ["can't start new thread"]


def test_socket_slice_with_wrong_block_count(monkeypatch):
    # Rank 1 sends one block fewer than its partition holds: the root
    # refuses to merge it.
    real = dist.local_backward

    def short(a, b, plan, rank, *args):
        x_a, x_b = real(a, b, plan, rank, *args)
        if rank == 1:
            x_a = BtaMatrix(x_a.n - 1, x_a.b, x_a.a, *(s[:-1] for s in x_a.stacks[:-1]))
        return x_a, x_b

    monkeypatch.setattr(dist, "local_backward", short)
    a, _ = random_system(8, 2, 1, seed=19)
    port = _free_port()
    outcome, errors = {}, []

    def run(rank):
        try:
            coll = SocketCollectives(2, rank, f"127.0.0.1:{port}", timeout=30.0)
            try:
                outcome[rank] = dist_solve(a, num_parts=2, mode="si", transport=coll)
            finally:
                coll.close()
        except Exception as exc:  # noqa: BLE001 - checked below
            errors.append((rank, exc))

    threads = [threading.Thread(target=run, args=(rank,)) for rank in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert outcome == {1: None}
    assert [(rank, type(exc)) for rank, exc in errors] == [(0, ProtocolError)]
    assert "rank 1" in str(errors[0][1])
