"""Distributed-memory selected inversion and quadratic solution.

The diagonal blocks are split into contiguous partitions.  Each worker
eliminates its interior blocks independently: the first partition runs
the sequential forward sweep of :mod:`btasel.rgf` down into its bottom
boundary block, the last runs the same sweep on its block-reversed
blocks up into its top boundary block, and middle partitions sweep down
from below their top boundary while maintaining fill-in couplings to
it.  The updated boundary blocks, fill-in coupling pairs, and arrow
strips are exchanged in a single AllGather; the tip contributions are
summed in a single AllReduce.  Every rank then assembles and
redundantly solves the same small reduced arrowhead system, seeds its
partition boundaries with the reduced solution, and back-substitutes
its interior blocks in embarrassingly parallel fashion, into stacks of
its own blocks.  The separators between partitions and the tip are
taken from the reduced solution when the slices are merged.

The communication contract is exactly one AllGather round plus (for
arrowhead systems) one AllReduce round per solve, with deterministic,
rank-ordered reduction.
"""

from __future__ import annotations

import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from time import perf_counter
from typing import NamedTuple

import numpy as np

from .collectives import Collectives, SocketCollectives, ThreadHub
from .errors import FormatError, ProtocolError, WorkerError
from .fileio import decode_bta, encode_bta
from .kernels import COMPLEX, OpCounter, mm
from .matrix import BtaMatrix, SelectedSolution
from .partition import PartitionPlan, plan_partitions
from .rgf import (
    RgfFactors,
    _backstep,
    _backward_sweep,
    _bupdate,
    _forward_sweep,
    _invert_pivot,
    _new_factors,
    _out_slots,
    solve_selected,
)

__all__ = [
    "BoundaryPayload",
    "LocalFactors",
    "ReducedSystem",
    "local_forward",
    "assemble_reduced",
    "solve_reduced",
    "local_backward",
    "dist_solve",
]

_KIND_CODES = {"first": 0, "middle": 1, "last": 2}
_KIND_NAMES = {v: k for k, v in _KIND_CODES.items()}
_HEAD = struct.Struct("<IB")  # rank, kind code

# The boundaries each partition kind sends, top before bottom.  In the
# reduced system rank p's top boundary is block 2p-1, its bottom 2p.
_SIDES = {"first": ("bottom",), "middle": ("top", "bottom"), "last": ("top",)}


@dataclass
class BoundaryPayload:
    """One rank's AllGather contribution: one container per matrix side.

    ``a`` (and ``b`` in fused mode) holds the rank's updated boundary
    diagonal blocks, one for a first or last partition and two (top,
    bottom) for a middle one, with their arrow strips and a zero tip; a
    middle partition's fill-in coupling pair is its ``upper``/``lower``.
    Separator blocks never travel: they are untouched original data,
    read from each rank's input view.
    """

    rank: int
    kind: str
    a: BtaMatrix
    b: BtaMatrix | None = None

    @property
    def sides(self) -> list:
        return [m for m in (self.a, self.b) if m is not None]

    def nbytes(self) -> int:
        # The tips are zero and carry nothing.
        return sum(s.nbytes for m in self.sides for s in m.stacks[:-1])

    def summary(self) -> dict:
        """The trace record: each field's block shapes, ``coupling`` for a
        middle partition's fill pair, ``b_``-prefixed on the right-hand side."""
        blocks = {}
        for prefix, m in zip(("", "b_"), self.sides):
            fields = {"diag": m.diag, "coupling": [*m.upper, *m.lower],
                      "arrow_row": m.arrow_row, "arrow_col": m.arrow_col}
            blocks.update(
                (prefix + name, [blk.shape for blk in stack])
                for name, stack in fields.items()
                if len(stack)
            )
        return {"rank": self.rank, "kind": self.kind, "nbytes": self.nbytes(), "blocks": blocks}

    def to_bytes(self) -> bytes:
        head = _HEAD.pack(self.rank, _KIND_CODES[self.kind])
        return b"".join([head, *map(encode_bta, self.sides)])

    @classmethod
    def from_bytes(cls, buf: bytes) -> "BoundaryPayload":
        try:
            rank, code = _HEAD.unpack_from(buf)
            kind = _KIND_NAMES[code]
            a, offset = decode_bta(buf, _HEAD.size)
            b = None
            if offset < len(buf):
                b, offset = decode_bta(buf, offset)
        except (struct.error, KeyError, FormatError) as exc:
            raise ProtocolError(f"malformed boundary payload: {exc!r}") from exc
        if offset != len(buf):
            raise ProtocolError(f"{len(buf) - offset} bytes past the payload's containers")
        return cls(rank, kind, a, b)


@dataclass
class LocalFactors(RgfFactors):
    """A middle partition's elimination data, one entry per interior block
    in elimination order: the :class:`RgfFactors` lists plus the fill-in
    couplings to the top boundary as seen at each elimination."""

    fill_row: list = field(default_factory=list)  # A'(top, j)
    fill_col: list = field(default_factory=list)  # A'(j, top)
    b_fill_row: list = field(default_factory=list)
    b_fill_col: list = field(default_factory=list)
    fill_sb: list = field(default_factory=list)  # fill_row·s_b


class _Stacks(NamedTuple):
    """The stacks of a :class:`BtaMatrix` but the tip, as the sweeps read them."""

    diag: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    arrow_row: np.ndarray
    arrow_col: np.ndarray


def _view(m, lo: int, hi: int, reverse: bool) -> _Stacks:
    """Views of blocks ``lo..hi-1`` of ``m`` and the couplings between
    them; with ``reverse`` in reverse block order, which swaps the roles
    of ``lower`` and ``upper``."""
    d, lower, upper = m.diag[lo:hi], m.lower[lo : hi - 1], m.upper[lo : hi - 1]
    r, c = m.arrow_row[lo:hi], m.arrow_col[lo:hi]
    if reverse:
        return _Stacks(d[::-1], upper[::-1], lower[::-1], r[::-1], c[::-1])
    return _Stacks(d, lower, upper, r, c)


def _working(m, lo: int, hi: int, reverse: bool) -> _Stacks:
    """A partition's working stacks: copies of the slots the forward
    sweep updates, the off-diagonals shared with ``m``."""
    v = _view(m, lo, hi, reverse)
    return v._replace(
        diag=v.diag.copy(), arrow_row=v.arrow_row.copy(), arrow_col=v.arrow_col.copy()
    )


def _boundary(w: _Stacks, bnd: list, fill: tuple | None) -> BtaMatrix:
    """A payload container: blocks ``bnd`` of the working stacks ``w``
    and, for a middle partition, its fill pair ``(upper, lower)``.
    Indexing by a list copies, so the payload does not keep the working
    stacks alive."""
    upper, lower = (f[None] for f in fill) if fill else (None, None)
    b, a = w.diag.shape[1], w.arrow_row.shape[1]
    return BtaMatrix(len(bnd), b, a, w.diag[bnd], lower, upper, w.arrow_row[bnd], w.arrow_col[bnd])


@dataclass
class ReducedSystem:
    """The boundary-coupling system, replicated on every rank.

    Diagonal blocks are ordered first partition's bottom boundary, then
    each middle partition's (top, bottom) pair, then the last partition's
    top boundary.  Off-diagonals alternate between original separator
    blocks and middle-partition fill-in couplings; the tip is the
    original tip plus the AllReduced elimination contributions, added
    exactly once.
    """

    matrix_a: BtaMatrix
    matrix_b: BtaMatrix | None
    index: dict  # (rank, side) -> reduced diagonal index


def local_forward(
    a: BtaMatrix,
    b: BtaMatrix | None,
    plan: PartitionPlan,
    rank: int,
    counter: OpCounter | None = None,
):
    """Eliminate one partition's interior blocks.

    Returns ``(payload, tip_delta, factors)``: the AllGather payload, the
    stacked tip contribution for the AllReduce (system side, and
    right-hand side in fused mode), and the retained interior factors.
    The first partition runs the sequential forward sweep down to its
    bottom boundary, the last runs it on its block-reversed blocks up to
    its top boundary; their factors are indexed by block position in
    sweep order.  The inputs are never mutated; boundary updates
    accumulate in local copies.
    """
    lo, hi = plan.ranges[rank]
    kind = plan.kinds[rank]
    fused = b is not None
    m, bs, asz = hi - lo, a.b, a.a
    reverse, arrow = kind == "last", asz > 0
    wa = _working(a, lo, hi, reverse)
    wb = _working(b, lo, hi, reverse) if fused else None
    tip_delta = np.zeros((2 if fused else 1, asz, asz), dtype=COMPLEX)
    tip_a, tip_b = tip_delta[0], tip_delta[1] if fused else None

    if kind != "middle":
        factors = _new_factors(m, bs, asz, fused)
        index = range(hi - 1, lo - 1, -1) if reverse else range(lo, hi)
        _forward_sweep(wa, wb, factors, m - 1, tip_a, tip_b, counter, index)
        bnd, fill_a, fill_b = [m - 1], None, None
    else:
        # Interior blocks 1..m-2 downward, keeping fill-in couplings to
        # the top boundary, block 0; factors in elimination order.
        factors = LocalFactors(n=m, b=bs, a=asz, mode="siq" if fused else "si")
        factors.arrow_row_elim, factors.arrow_col_elim = [], []
        ad, al, au, ar, ac = wa
        fill_r = au[0].copy()  # A'(lo, j), starts at the original coupling
        fill_c = al[0].copy()  # A'(j, lo)
        if fused:
            factors.s_b, factors.l_sb = [], []
            factors.b_arrow_row_elim, factors.b_arrow_col_elim = [], []
            bd, bl, bu, br, bc = wb
            bfill_r = bu[0].copy()
            bfill_c = bl[0].copy()
        for i in range(1, m - 1):
            s = _invert_pivot(ad[i], lo + i, counter)
            factors.s_a.append(s)
            factors.arrow_row_elim.append(ar[i])
            factors.arrow_col_elim.append(ac[i])
            factors.fill_row.append(fill_r)
            factors.fill_col.append(fill_c)
            fn = mm(al[i], s, counter)
            fr = mm(fill_r, s, counter)
            # System-side updates: fill pair, next diagonal, top boundary
            # and, with an arrow, both arrow strips and the tip.
            new_fill_r = mm(fr, au[i], counter, alpha=-1)
            new_fill_c = mm(fn, fill_c, counter, alpha=-1)
            mm(fn, au[i], counter, out=ad[i + 1], alpha=-1, beta=1)
            mm(fr, fill_c, counter, out=ad[0], alpha=-1, beta=1)
            if arrow:
                g = mm(ar[i], s, counter)
                mm(g, au[i], counter, out=ar[i + 1], alpha=-1, beta=1)
                mm(g, fill_c, counter, out=ar[0], alpha=-1, beta=1)
                mm(fn, ac[i], counter, out=ac[i + 1], alpha=-1, beta=1)
                mm(fr, ac[i], counter, out=ac[0], alpha=-1, beta=1)
                mm(g, ac[i], counter, out=tip_a, alpha=-1, beta=1)
            if fused:
                factors.b_arrow_row_elim.append(br[i])
                factors.b_arrow_col_elim.append(bc[i])
                factors.b_fill_row.append(bfill_r)
                factors.b_fill_col.append(bfill_c)
                w = mm(s, bd[i], counter)
                sb = mm(w, s, counter, tb=True)
                factors.s_b.append(sb)
                v0 = mm(fill_r, sb, counter)
                vn = mm(al[i], sb, counter)
                factors.fill_sb.append(v0)
                factors.l_sb.append(vn)
                _bupdate(counter, bd[i + 1], fn, bu[i], bl[i], fn, vn, al[i])
                new_bfill_c = _bupdate(counter, None, fn, bfill_c, bl[i], fr, vn, fill_r)
                new_bfill_r = _bupdate(counter, None, fr, bu[i], bfill_r, fn, v0, al[i])
                _bupdate(counter, bd[0], fr, bfill_c, bfill_r, fr, v0, fill_r)
                if arrow:
                    p = mm(g, bd[i], counter)
                    _bupdate(counter, bc[i + 1], fn, bc[i], bl[i], g, vn, ar[i])
                    _bupdate(counter, bc[0], fr, bc[i], bfill_r, g, v0, ar[i])
                    _bupdate(counter, br[i + 1], g, bu[i], br[i], fn, p, fn)
                    _bupdate(counter, br[0], g, bfill_c, br[i], fr, p, fr)
                    # The tip's three terms are summed before they meet it.
                    tip_b += _bupdate(counter, None, g, bc[i], br[i], g, p, g)
                bfill_r, bfill_c = new_bfill_r, new_bfill_c
            fill_r, fill_c = new_fill_r, new_fill_c
        bnd, fill_a = [0, m - 1], (fill_r, fill_c)
        fill_b = (bfill_r, bfill_c) if fused else None

    pay_b = _boundary(wb, bnd, fill_b) if fused else None
    return BoundaryPayload(rank, kind, _boundary(wa, bnd, fill_a), pay_b), tip_delta, factors


def assemble_reduced(
    coll: Collectives,
    a: BtaMatrix,
    b: BtaMatrix | None,
    plan: PartitionPlan,
    payload: BoundaryPayload,
    tip_delta: np.ndarray,
) -> ReducedSystem:
    """Exchange boundary data and build the replicated reduced system.

    One AllGather moves the computed boundary blocks; separator blocks
    between consecutive partitions are original input data and are read
    locally.  For arrowhead systems one AllReduce sums the per-rank tip
    contributions, which are added to the original tip exactly once.
    """
    fused = b is not None
    num_parts = plan.num_parts
    gathered = coll.all_gather(payload)
    if len(gathered) != num_parts:
        raise ProtocolError(f"expected {num_parts} payloads, got {len(gathered)}")
    for p, pay in enumerate(gathered):
        if pay.rank != p or pay.kind != plan.kinds[p]:
            raise ProtocolError(f"payload {p} carries rank {pay.rank} kind {pay.kind!r}")
        want = (len(_SIDES[pay.kind]), a.b, a.a)
        shapes = [getattr(m, "shape_params", None) for m in (pay.a, pay.b)[: 1 + fused]]
        if any(shape != want for shape in shapes):
            raise ProtocolError(f"payload {p} has containers of shapes {shapes}, not {want}")

    if a.a > 0:
        delta = coll.all_reduce_sum(tip_delta)
        tips = [a.tip + delta[0], b.tip + delta[1] if fused else None]
    else:
        tips = [None, None]
    seps = [lo - 1 for lo, _ in plan.ranges[1:]]
    matrix_a = _concatenate(a, [pay.a for pay in gathered], seps, tips[0])
    matrix_b = _concatenate(b, [pay.b for pay in gathered], seps, tips[1]) if fused else None
    index = {
        (p, side): 2 * p - (side == "top")
        for p, kind in enumerate(plan.kinds)
        for side in _SIDES[kind]
    }
    return ReducedSystem(matrix_a=matrix_a, matrix_b=matrix_b, index=index)


def _concatenate(m: BtaMatrix, containers: list, seps: list, tip) -> BtaMatrix:
    """One side of the reduced system: the payload containers' stacks in
    rank order, with rank p's original separator, block ``seps[p-1]`` of
    ``m``, in front of its own couplings."""
    stacks = []
    for name in BtaMatrix.FIELDS[:-1]:
        parts = [getattr(c, name) for c in containers]
        if name in ("lower", "upper"):
            src = getattr(m, name)
            parts[1:] = [x for g, own in zip(seps, parts[1:]) for x in (src[g : g + 1], own)]
        stacks.append(np.concatenate(parts))
    return BtaMatrix(len(stacks[0]), m.b, m.a, *stacks, tip)


def solve_reduced(
    reduced: ReducedSystem, mode: str, counter: OpCounter | None = None
) -> SelectedSolution:
    """Solve the replicated reduced system locally on every rank with the
    sequential arrowhead solver."""
    return solve_selected(reduced.matrix_a, reduced.matrix_b, mode, counter=counter)


def local_backward(
    a: BtaMatrix,
    b: BtaMatrix | None,
    plan: PartitionPlan,
    rank: int,
    factors: RgfFactors,
    reduced: ReducedSystem,
    red_sol: SelectedSolution,
    counter: OpCounter | None = None,
) -> tuple[BtaMatrix, BtaMatrix | None]:
    """Back-substitute one partition, seeded with the reduced solution.

    Returns the partition's slice of the solution as ``(x_a, x_b)``,
    containers of the partition's ``hi - lo`` blocks in global block
    order (``x_b`` is None in ``"si"`` mode).  They hold its diagonal
    blocks, arrow strips and the couplings between its own blocks; their
    tips are zero.  The separator to the next partition and the tip are
    blocks of the reduced solution, which the merge reads from there.
    The first and last partitions run the sequential backward sweep, the
    last on its block-reversed blocks.
    """
    lo, hi = plan.ranges[rank]
    kind = plan.kinds[rank]
    fused = factors.mode == "siq"
    if fused and b is None:
        raise ProtocolError("fused factors require the right-hand side")
    if red_sol.x_a.shape_params != reduced.matrix_a.shape_params:
        raise ProtocolError("reduced solution shape disagrees with reduced system")
    m = hi - lo
    x_a = BtaMatrix.empty(m, a.b, a.a)
    x_b = BtaMatrix.empty(m, a.b, a.a) if fused else None
    pairs = [(x_a, red_sol.x_a)] + ([(x_b, red_sol.x_b)] if fused else [])
    ytt = red_sol.x_a.tip
    ztt = red_sol.x_b.tip if fused else None

    # Boundary blocks are solved in the reduced system.
    for side in _SIDES[kind]:
        k, j = reduced.index[(rank, side)], 0 if side == "top" else m - 1
        for x, r in pairs:
            x.diag[j], x.arrow_row[j], x.arrow_col[j] = r.diag[k], r.arrow_row[k], r.arrow_col[k]

    if kind != "middle":
        rev = kind == "last"
        va, vb = (_view(x, 0, m, rev) if x is not None else None for x in (x_a, x_b))
        ab = _view(b, lo, hi, rev) if fused else None
        _backward_sweep(factors, _view(a, lo, hi, rev), ab, va, vb, m - 1, ytt, ztt, counter)
        return x_a, x_b

    # Middle: X values at the fill positions (top boundary <-> running
    # block) start as the reduced solution's top coupling.
    k_top = reduced.index[(rank, "top")]
    if m == 2:
        # Degenerate middle: the fill coupling is the original pattern
        # off-diagonal, solved entirely inside the reduced system.
        for x, r in pairs:
            x.upper[0], x.lower[0] = r.upper[k_top], r.lower[k_top]
    k = 3 if a.a > 0 else 2  # the tip is a trailing coupling only with an arrow
    # Trailing solution blocks over (top boundary, next block, tip), with
    # the fill pair X(lo, i+1), X(i+1, lo) starting as the top coupling.
    ys = []
    for x, r in pairs:
        top = [x.diag[0], r.upper[k_top], x.arrow_col[0]]
        nxt = [r.lower[k_top], x.diag[m - 1], x.arrow_col[m - 1]]
        tip = [x.arrow_row[0], x.arrow_row[m - 1], r.tip]
        ys.append([row[:k] for row in (top, nxt, tip)[:k]])
    al, au = a.lower[lo : hi - 1], a.upper[lo : hi - 1]
    if fused:
        bl, bu = b.lower[lo : hi - 1], b.upper[lo : hi - 1]
    ss = ws = yb = sc = qsb = None
    for i in range(m - 2, 0, -1):
        t = i - 1  # elimination order
        rs = [factors.fill_col[t], au[i], factors.arrow_col_elim[t]][:k]
        qs = [factors.fill_row[t], al[i], factors.arrow_row_elim[t]][:k]
        if fused:
            ss = [factors.b_fill_col[t], bu[i], factors.b_arrow_col_elim[t]][:k]
            ws = [factors.b_fill_row[t], bl[i], factors.b_arrow_row_elim[t]][:k]
            yb, sc = ys[1], factors.s_b[t]
            qsb = [factors.fill_sb[t], factors.l_sb[t], None][:k]
        out = ()
        for x, _ in pairs:
            row, col, diag = _out_slots(x, i, 2)
            # The fill blocks are pattern blocks only next to the top boundary.
            fill_row, fill_col = (x.lower[0], x.upper[0]) if i == 1 else (None, None)
            out += ([fill_row, *row][:k], [fill_col, *col][:k], diag)
        out += (None,) * (6 - len(out))  # no quadratic slots in "si" mode
        res = _backstep(factors.s_a[t], rs, qs, ys[0], sc, ss, ws, yb, counter, qsb=qsb, out=out)
        # Block i is the next step's trailing block; the top and tip stay.
        for y, (row, col, diag) in zip(ys, (res[:3], res[3:])):
            for l in range(0, k, 2):
                y[1][l], y[l][1] = row[l], col[l]
            y[1][1] = diag
    return x_a, x_b


# ---------------------------------------------------------------------------
# Facade
# ---------------------------------------------------------------------------


def _merge_slices(
    a: BtaMatrix,
    plan: PartitionPlan,
    reduced: ReducedSystem,
    red_sol: SelectedSolution,
    slices: list,
) -> SelectedSolution:
    """The full solution: each rank's slice copied into place, then each
    separator and the tip from the reduced solution."""
    n, bs, asz = a.shape_params
    reds = [x for x in (red_sol.x_a, red_sol.x_b) if x is not None]
    xs = [BtaMatrix.empty(n, bs, asz) for _ in reds]
    if len(slices) != plan.num_parts:
        raise ProtocolError(f"expected {plan.num_parts} solution slices, got {len(slices)}")
    for p, ((lo, hi), sl) in enumerate(zip(plan.ranges, slices)):
        parts = [x for x in sl if x is not None]
        if len(parts) != len(xs) or any(x.shape_params != (hi - lo, bs, asz) for x in parts):
            shapes = [x.shape_params for x in parts]
            raise ProtocolError(f"rank {p} sent slices of shapes {shapes}, not {hi - lo} blocks")
        for x, part, r in zip(xs, parts, reds):
            for dst, src in zip(x.stacks[:-1], part.stacks[:-1]):
                dst[lo : lo + len(src)] = src
            if p < plan.num_parts - 1:
                k = reduced.index[(p, "bottom")]
                x.lower[hi - 1], x.upper[hi - 1] = r.lower[k], r.upper[k]
    for x, r in zip(xs, reds):
        x.tip[...] = r.tip
    return SelectedSolution(xs[0], xs[1] if len(xs) > 1 else None, red_sol.mode)


def _run_rank(a, b, plan, rank, coll, mode, counting):
    # Every rank solves the same reduced system; only rank 0's tally of it
    # is kept, so the other ranks do not count it.
    counter = OpCounter(b=a.b, a=a.a) if counting else None
    reduced_counter = OpCounter(b=a.b, a=a.a) if counting and rank == 0 else None
    t0 = perf_counter()
    payload, tip_delta, factors = local_forward(a, b, plan, rank, counter)
    t1 = perf_counter()
    reduced = assemble_reduced(coll, a, b, plan, payload, tip_delta)
    t2 = perf_counter()
    red_sol = solve_reduced(reduced, mode, reduced_counter)
    t3 = perf_counter()
    sl = local_backward(a, b, plan, rank, factors, reduced, red_sol, counter)
    t4 = perf_counter()
    phases = {
        "forward": t1 - t0,
        "communication": t2 - t1,
        "reduced": t3 - t2,
        "backward": t4 - t3,
    }
    return sl, counter, reduced_counter, phases, (reduced, red_sol)


def dist_solve(
    a: BtaMatrix,
    b: BtaMatrix | None = None,
    num_parts: int = 2,
    mode: str | None = None,
    transport: ThreadHub | SocketCollectives | None = None,
    *,
    counter: OpCounter | None = None,
    timings: dict | None = None,
    rank_counters: list | None = None,
) -> SelectedSolution | None:
    """Distributed selected solve.

    With the default in-process transport this spawns ``num_parts``
    worker threads and returns the complete solution; ``num_parts=1``
    delegates to the sequential solver bit-for-bit.  With a
    :class:`SocketCollectives` endpoint this process acts as one rank of
    a multi-process run: rank 0 returns the gathered solution, other
    ranks return None.

    The aggregated ``counter`` receives every rank's local operations
    plus the (replicated, counted once) reduced solve; ``rank_counters``
    receives the per-rank local tallies (on a socket rank, its own; with
    ``num_parts=1``, the sequential solve's).  Operations are counted
    only when ``counter`` or ``rank_counters`` is passed; without
    either, no rank builds a tally.  Raises :class:`NonFiniteInputError`
    if ``a`` (or, in ``"siq"`` mode, ``b``) holds a NaN or infinite
    entry.
    """
    if mode is None:
        mode = "si" if b is None else "siq"
    if mode == "siq" and b is None:
        raise ValueError("mode 'siq' requires a right-hand side")
    if mode == "si":
        b = None
    if num_parts == 1:
        own = counter if rank_counters is None else OpCounter(b=a.b, a=a.a)
        sol = solve_selected(a, b, mode, counter=own, timings=timings)
        if rank_counters is not None:
            rank_counters.append(own)
            if counter is not None:
                counter.merge(own)
        return sol
    a.require_finite("a")
    if b is not None:
        b.require_finite("b")

    plan = plan_partitions(a.n, num_parts, mode)
    counting = counter is not None or rank_counters is not None

    if isinstance(transport, SocketCollectives):
        if transport.world_size != num_parts:
            raise ProtocolError(
                f"transport world size {transport.world_size} != num_parts {num_parts}"
            )
        sl, cnt, red_cnt, phases, reduced = _run_rank(
            a, b, plan, transport.rank, transport, mode, counting
        )
        if timings is not None:
            timings.update(phases)
        if counter is not None:
            counter.merge(cnt)
            if transport.rank == 0:
                counter.merge(red_cnt)
        if rank_counters is not None:
            rank_counters.append(cnt)
        # A slice travels as its containers' BTA1 bytes, back to back.
        blobs = transport.gather_to_root(b"".join(encode_bta(x) for x in sl if x is not None))
        if transport.rank != 0:
            return None
        return _merge_slices(a, plan, *reduced, [_decode_slice(blob) for blob in blobs])

    hub = transport if transport is not None else ThreadHub(num_parts)
    if hub.world_size != num_parts:
        raise ProtocolError(f"transport world size {hub.world_size} != num_parts {num_parts}")

    results: list = [None] * num_parts

    def run(rank: int):
        try:
            return _run_rank(a, b, plan, rank, hub.endpoint(rank), mode, counting)
        except BaseException:
            hub.abort()  # release peers blocked inside a collective round
            raise

    with ThreadPoolExecutor(max_workers=num_parts) as pool:
        futures = {rank: pool.submit(run, rank) for rank in range(num_parts)}
        errors = []
        for rank, fut in futures.items():
            try:
                results[rank] = fut.result()
            except Exception as exc:  # noqa: BLE001 - rank attribution
                errors.append((rank, exc))
        if errors:
            # Report the root cause, not the aborted-collective fallout.
            primary = [e for e in errors if not isinstance(e[1], ProtocolError)]
            rank, exc = min(primary or errors, key=lambda e: e[0])
            raise WorkerError(rank, exc) from exc

    if counter is not None:
        for r in results:
            counter.merge(r[1])
        counter.merge(results[0][2])  # replicated reduced solve, counted once
    if rank_counters is not None:
        rank_counters.extend(r[1] for r in results)
    if timings is not None:
        timings.update(results[0][3])
    return _merge_slices(a, plan, *results[0][4], [r[0] for r in results])


def _decode_slice(blob: bytes) -> list:
    """The containers of one rank's slice, from their BTA1 bytes."""
    xs, offset = [], 0
    while offset < len(blob):
        x, offset = decode_bta(blob, offset)
        xs.append(x)
    return xs
