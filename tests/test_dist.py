import multiprocessing
import socket
import threading
from collections import Counter

import numpy as np
import pytest
from conftest import max_block_rel_err, random_system

from btasel import (
    BtaMatrix,
    OpCounter,
    ThreadHub,
    WorkerError,
    dist_solve,
    plan_partitions,
    solve_selected,
)
from btasel import dist
from btasel.collectives import SocketCollectives
from btasel.dist import assemble_reduced, local_forward, solve_reduced
from btasel.errors import ProtocolError
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
        payload, tip_delta, factors = local_forward(a, None, plan, rank)
        np.testing.assert_array_equal(payload.a.diag[0], a.diag[lo])
        np.testing.assert_array_equal(payload.a.diag[1], a.diag[lo + 1])
        np.testing.assert_array_equal(payload.a.upper[0], a.upper[lo])
        np.testing.assert_array_equal(payload.a.lower[0], a.lower[lo])
        assert not factors.s_a
        assert np.all(tip_delta == 0)

    def test_middle_per_step_bbb_counts(self):
        # Permuted forward: 6 bbb per interior step (selected inversion),
        # 22 in fused mode, measured by differencing two middle lengths.
        def middle_bbb(n, parts, fused):
            a, rhs = random_system(n, 4, 2, seed=10)
            plan = plan_partitions(n, parts, "siq" if fused else "si")
            rank = 1
            lo, hi = plan.ranges[rank]
            counter = OpCounter(b=4, a=2)
            local_forward(a, rhs if fused else None, plan, rank, counter)
            return hi - lo - 2, counter.gemm_by_shape["bbb"]

        steps1, bbb1 = middle_bbb(16, 3, fused=False)
        steps2, bbb2 = middle_bbb(24, 3, fused=False)
        assert steps2 > steps1
        assert bbb2 - bbb1 == 6 * (steps2 - steps1)
        assert bbb1 == 6 * steps1

        steps1, bbb1 = middle_bbb(16, 3, fused=True)
        steps2, bbb2 = middle_bbb(24, 3, fused=True)
        assert bbb2 - bbb1 == 22 * (steps2 - steps1)
        assert bbb1 == 22 * steps1

    def test_first_per_step_matches_sequential(self):
        a, rhs = random_system(16, 4, 2, seed=11)
        plan = plan_partitions(16, 3, "siq")
        counter = OpCounter(b=4, a=2)
        local_forward(a, rhs, plan, 0, counter)
        lo, hi = plan.ranges[0]
        assert counter.gemm_by_shape["bbb"] == 8 * (hi - lo - 1)
        # Selected-inversion mode: the plain 2-products-per-step rate, so
        # the middle-to-end work ratio is 6/2 (22/8 fused).
        plan_si = plan_partitions(16, 3, "si")
        for rank in (0, 2):
            counter = OpCounter(b=4, a=2)
            local_forward(a, None, plan_si, rank, counter)
            lo, hi = plan_si.ranges[rank]
            assert counter.gemm_by_shape["bbb"] == 2 * (hi - lo - 1)


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
    # The middle backward step has k = 3 trailing couplings (fill,
    # next diagonal, tip): 2k^2+3k = 27 (si) and 6k^2+9k = 81 (siq)
    # products less the forward's two reused coupling·Sb (79), measured
    # as rank 1's tally minus its forward pass.
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

    si = {"bbb": 14, "abb": 3, "bba": 3, "bab": 5, "aab": 1, "baa": 1}
    siq = {"bbb": 40, "abb": 9, "bba": 9, "bab": 15, "aab": 3, "baa": 3}
    for fused, step in ((False, si), (True, siq)):
        steps1, c1 = middle_backward(16, fused)
        steps2, c2 = middle_backward(24, fused)
        assert steps2 > steps1
        assert {k: v for k, v in c1.items() if v} == {k: v * steps1 for k, v in step.items()}
        assert {k: c2[k] - c1[k] for k in c2 if c2[k] != c1[k]} == {
            k: v * (steps2 - steps1) for k, v in step.items()
        }


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


def _tally(gemms, inv):
    counts = {f"gemm_{k}": v for k, v in zip(_GEMM_CLASSES, gemms) if v}
    counts.update(lu=inv, trsm=2 * inv, inv=inv)
    return counts


class TestCountingOnRequest:
    # random_system(16, 3, 2, seed=21): the aggregate tally, then each
    # rank's, as counted before counting was made optional.  Gemm counts in
    # _GEMM_CLASSES order, then the inversions (one LU and two TRSM each).
    TALLIES = {
        (2, "si"): [
            ((0, 16, 16, 46, 16, 46, 62, 105), 17),
            ((0, 7, 7, 21, 7, 21, 28, 49), 7),
            ((0, 7, 7, 21, 7, 21, 28, 49), 7),
        ],
        (2, "siq"): [
            ((2, 48, 64, 170, 48, 138, 168, 332), 17),
            ((0, 21, 28, 77, 21, 63, 77, 154), 7),
            ((0, 21, 28, 77, 21, 63, 77, 154), 7),
        ],
        (3, "si"): [
            ((0, 16, 16, 49, 16, 48, 63, 118), 17),
            ((0, 6, 6, 18, 6, 18, 24, 42), 6),
            ((0, 1, 1, 6, 1, 5, 5, 20), 1),
            ((0, 5, 5, 15, 5, 15, 20, 35), 5),
        ],
        (3, "siq"): [
            ((2, 48, 64, 178, 48, 144, 174, 372), 17),
            ((0, 18, 24, 66, 18, 54, 66, 132), 6),
            ((0, 3, 4, 19, 3, 15, 17, 62), 1),
            ((0, 15, 20, 55, 15, 45, 55, 110), 5),
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


@pytest.mark.parametrize("parts", [3, 4])
@pytest.mark.parametrize("mode", ["si", "siq"])
@pytest.mark.parametrize("a_sz", [0, 2])
def test_socket_ranks_match_threads(parts, mode, a_sz):
    # Every rank of a socket run in a thread of this process, with middle
    # partitions and plain BT systems on the wire: rank 0 returns the
    # thread transport's solution bit for bit, the others None.
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
    # Partition and merged output stacks start as NaN: a slot the
    # backward pass or the merge skipped would show in the solution.
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
