"""Distributed-memory selected inversion and quadratic solution.

The diagonal blocks are split into contiguous partitions.  Each worker
eliminates its interior blocks independently: the first partition sweeps
down into its bottom boundary block, the last sweeps up into its top
boundary block, and middle partitions sweep down from below their top
boundary while maintaining fill-in couplings to it.  The updated
boundary blocks, fill-in coupling pairs, and arrow strips are exchanged
in a single AllGather; the tip contributions are summed in a single
AllReduce.  Every rank then assembles and redundantly solves the same
small reduced arrowhead system, seeds its partition boundaries with the
reduced solution, and back-substitutes its interior blocks in
embarrassingly parallel fashion.

The communication contract is exactly one AllGather round plus (for
arrowhead systems) one AllReduce round per solve, with deterministic,
rank-ordered reduction.
"""

from __future__ import annotations

import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from .collectives import Collectives, SocketCollectives, ThreadHub
from .errors import ProtocolError, WorkerError
from .kernels import COMPLEX, OpCounter, mm
from .matrix import BtaMatrix, SelectedSolution
from .partition import PartitionPlan, plan_partitions
from .rgf import _backstep, _invert_pivot, solve_selected

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


def _pack_blocks(blocks) -> bytes:
    out = [struct.pack("<I", len(blocks))]
    for blk in blocks:
        out.append(struct.pack("<QQ", blk.shape[0], blk.shape[1]))
        out.append(np.ascontiguousarray(blk, dtype="<c16").tobytes())
    return b"".join(out)


def _unpack_blocks(buf: bytes, offset: int):
    (count,) = struct.unpack_from("<I", buf, offset)
    offset += 4
    blocks = []
    for _ in range(count):
        rows, cols = struct.unpack_from("<QQ", buf, offset)
        offset += 16
        nbytes = 16 * rows * cols
        blk = np.frombuffer(buf, dtype="<c16", count=rows * cols, offset=offset)
        blocks.append(blk.reshape(rows, cols).astype(COMPLEX))
        offset += nbytes
    return blocks, offset


@dataclass
class BoundaryPayload:
    """One rank's AllGather contribution.

    First and last partitions contribute one updated boundary diagonal
    block and its arrow strips; middle partitions contribute two boundary
    diagonal blocks, the fill-in coupling pair between them, and the four
    arrow strips of both boundaries.  Fused mode mirrors every block on
    the right-hand-side matrix.  Separator blocks never travel: they are
    untouched original data, read from each rank's input view.
    """

    rank: int
    kind: str
    diag: list = field(default_factory=list)
    coupling: list = field(default_factory=list)  # [upper(top,bottom), lower(bottom,top)]
    arrow_row: list = field(default_factory=list)
    arrow_col: list = field(default_factory=list)
    b_diag: list = field(default_factory=list)
    b_coupling: list = field(default_factory=list)
    b_arrow_row: list = field(default_factory=list)
    b_arrow_col: list = field(default_factory=list)

    _FIELDS = (
        "diag",
        "coupling",
        "arrow_row",
        "arrow_col",
        "b_diag",
        "b_coupling",
        "b_arrow_row",
        "b_arrow_col",
    )

    def nbytes(self) -> int:
        return sum(
            blk.nbytes for name in self._FIELDS for blk in getattr(self, name)
        )

    def summary(self) -> dict:
        blocks = {
            name: [blk.shape for blk in getattr(self, name)]
            for name in self._FIELDS
            if getattr(self, name)
        }
        return {"rank": self.rank, "kind": self.kind, "nbytes": self.nbytes(), "blocks": blocks}

    def to_bytes(self) -> bytes:
        head = struct.pack("<IB", self.rank, _KIND_CODES[self.kind])
        return head + b"".join(_pack_blocks(getattr(self, name)) for name in self._FIELDS)

    @classmethod
    def from_bytes(cls, buf: bytes) -> "BoundaryPayload":
        rank, code = struct.unpack_from("<IB", buf, 0)
        offset = 5
        fields = {}
        for name in cls._FIELDS:
            fields[name], offset = _unpack_blocks(buf, offset)
        return cls(rank=rank, kind=_KIND_NAMES[code], **fields)


@dataclass
class LocalFactors:
    """Per-rank elimination data retained for the local backward pass."""

    kind: str
    lo: int
    hi: int
    mode: str
    s_a: dict = field(default_factory=dict)
    s_b: dict = field(default_factory=dict)
    l_sb: dict = field(default_factory=dict)  # coupling·s_b, formed by the forward
    fill_sb: dict = field(default_factory=dict)  # fill_row·s_b (middle kind)
    arrow_row_elim: dict = field(default_factory=dict)
    arrow_col_elim: dict = field(default_factory=dict)
    b_arrow_row_elim: dict = field(default_factory=dict)
    b_arrow_col_elim: dict = field(default_factory=dict)
    fill_row: dict = field(default_factory=dict)  # A'(lo, j) at elimination of j
    fill_col: dict = field(default_factory=dict)  # A'(j, lo)
    b_fill_row: dict = field(default_factory=dict)
    b_fill_col: dict = field(default_factory=dict)


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
    provenance: list  # reduced diagonal index -> (rank, side)
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
    The inputs are never mutated; boundary updates accumulate in local
    copies.
    """
    lo, hi = plan.ranges[rank]
    kind = plan.kinds[rank]
    fused = b is not None
    n, bs, asz = a.shape_params

    factors = LocalFactors(kind=kind, lo=lo, hi=hi, mode="siq" if fused else "si")

    def local(stack):
        # One copy of the partition's slice; the blocks are its slots,
        # updated in place (a slot is retained only once it is final).
        return dict(zip(range(lo, hi), stack[lo:hi].copy()))

    ad, ar, ac = local(a.diag), local(a.arrow_row), local(a.arrow_col)
    tip_a = np.zeros((asz, asz), dtype=COMPLEX)
    if fused:
        bd, br, bc = local(b.diag), local(b.arrow_row), local(b.arrow_col)
        tip_b = np.zeros((asz, asz), dtype=COMPLEX)

    def retain(i):
        factors.arrow_row_elim[i] = ar[i]
        factors.arrow_col_elim[i] = ac[i]
        if fused:
            factors.b_arrow_row_elim[i] = br[i]
            factors.b_arrow_col_elim[i] = bc[i]

    if kind == "first":
        for i in range(lo, hi - 1):
            s = _invert_pivot(ad[i], i, counter)
            factors.s_a[i] = s
            retain(i)
            if fused:
                w = mm(s, bd[i], counter)
                sb = mm(w, s, counter, tb=True)
                factors.s_b[i] = sb
                f = mm(a.lower[i], s, counter)
                g = mm(ar[i], s, counter)
                p = mm(g, bd[i], counter)
                k = mm(bd[i], g, counter, tb=True)
                ad[i + 1] -= mm(f, a.upper[i], counter)
                ar[i + 1] -= mm(g, a.upper[i], counter)
                ac[i + 1] -= mm(f, ac[i], counter)
                tip_a -= mm(g, ac[i], counter)
                v = mm(a.lower[i], sb, counter)
                factors.l_sb[i] = v
                bd[i + 1] += mm(v, a.lower[i], counter, tb=True)
                bd[i + 1] -= mm(b.lower[i], f, counter, tb=True)
                bd[i + 1] -= mm(f, b.upper[i], counter)
                br[i + 1] -= mm(g, b.upper[i], counter)
                br[i + 1] += mm(p - br[i], f, counter, tb=True)
                bc[i + 1] -= mm(f, bc[i], counter)
                bc[i + 1] -= mm(b.lower[i], g, counter, tb=True)
                bc[i + 1] += mm(f, k, counter)
                tip_b += (
                    -mm(g, bc[i], counter)
                    - mm(br[i], g, counter, tb=True)
                    + mm(p, g, counter, tb=True)
                )
            else:
                t1 = mm(s, a.upper[i], counter)
                t2 = mm(s, ac[i], counter)
                ad[i + 1] -= mm(a.lower[i], t1, counter)
                ar[i + 1] -= mm(ar[i], t1, counter)
                ac[i + 1] -= mm(a.lower[i], t2, counter)
                tip_a -= mm(ar[i], t2, counter)
        bnd = [hi - 1]

    elif kind == "last":
        for i in range(hi - 1, lo, -1):
            s = _invert_pivot(ad[i], i, counter)
            factors.s_a[i] = s
            retain(i)
            if fused:
                w = mm(s, bd[i], counter)
                sb = mm(w, s, counter, tb=True)
                factors.s_b[i] = sb
                f = mm(a.upper[i - 1], s, counter)
                g = mm(ar[i], s, counter)
                p = mm(g, bd[i], counter)
                k = mm(bd[i], g, counter, tb=True)
                ad[i - 1] -= mm(f, a.lower[i - 1], counter)
                ar[i - 1] -= mm(g, a.lower[i - 1], counter)
                ac[i - 1] -= mm(f, ac[i], counter)
                tip_a -= mm(g, ac[i], counter)
                v = mm(a.upper[i - 1], sb, counter)
                factors.l_sb[i] = v
                bd[i - 1] += mm(v, a.upper[i - 1], counter, tb=True)
                bd[i - 1] -= mm(b.upper[i - 1], f, counter, tb=True)
                bd[i - 1] -= mm(f, b.lower[i - 1], counter)
                br[i - 1] -= mm(g, b.lower[i - 1], counter)
                br[i - 1] += mm(p - br[i], f, counter, tb=True)
                bc[i - 1] -= mm(f, bc[i], counter)
                bc[i - 1] -= mm(b.upper[i - 1], g, counter, tb=True)
                bc[i - 1] += mm(f, k, counter)
                tip_b += (
                    -mm(g, bc[i], counter)
                    - mm(br[i], g, counter, tb=True)
                    + mm(p, g, counter, tb=True)
                )
            else:
                t1 = mm(s, a.lower[i - 1], counter)
                t2 = mm(s, ac[i], counter)
                ad[i - 1] -= mm(a.upper[i - 1], t1, counter)
                ar[i - 1] -= mm(ar[i], t1, counter)
                ac[i - 1] -= mm(a.upper[i - 1], t2, counter)
                tip_a -= mm(ar[i], t2, counter)
        bnd = [lo]

    else:  # middle
        fill_r = a.upper[lo].copy()  # A'(lo, j), starts at the original coupling
        fill_c = a.lower[lo].copy()  # A'(j, lo)
        if fused:
            bfill_r = b.upper[lo].copy()
            bfill_c = b.lower[lo].copy()
        for i in range(lo + 1, hi - 1):
            s = _invert_pivot(ad[i], i, counter)
            factors.s_a[i] = s
            retain(i)
            factors.fill_row[i] = fill_r
            factors.fill_col[i] = fill_c
            fn = mm(a.lower[i], s, counter)
            fr = mm(fill_r, s, counter)
            g = mm(ar[i], s, counter)
            # System-side updates: next diagonal, fill pair, top boundary,
            # both arrow strips, tip.
            new_fill_r = -mm(fr, a.upper[i], counter)
            new_fill_c = -mm(fn, fill_c, counter)
            ad[i + 1] -= mm(fn, a.upper[i], counter)
            ad[lo] -= mm(fr, fill_c, counter)
            ar[i + 1] -= mm(g, a.upper[i], counter)
            ar[lo] -= mm(g, fill_c, counter)
            ac[i + 1] -= mm(fn, ac[i], counter)
            ac[lo] -= mm(fr, ac[i], counter)
            tip_a -= mm(g, ac[i], counter)
            if fused:
                factors.b_fill_row[i] = bfill_r
                factors.b_fill_col[i] = bfill_c
                w = mm(s, bd[i], counter)
                sb = mm(w, s, counter, tb=True)
                factors.s_b[i] = sb
                v0 = mm(fill_r, sb, counter)
                vn = mm(a.lower[i], sb, counter)
                factors.fill_sb[i] = v0
                factors.l_sb[i] = vn
                p = mm(g, bd[i], counter)
                bd[i + 1] -= mm(fn, b.upper[i], counter)
                bd[i + 1] -= mm(b.lower[i], fn, counter, tb=True)
                bd[i + 1] += mm(vn, a.lower[i], counter, tb=True)
                new_bfill_c = (
                    -mm(fn, bfill_c, counter)
                    - mm(b.lower[i], fr, counter, tb=True)
                    + mm(vn, fill_r, counter, tb=True)
                )
                new_bfill_r = (
                    -mm(fr, b.upper[i], counter)
                    - mm(bfill_r, fn, counter, tb=True)
                    + mm(v0, a.lower[i], counter, tb=True)
                )
                bd[lo] -= mm(fr, bfill_c, counter)
                bd[lo] -= mm(bfill_r, fr, counter, tb=True)
                bd[lo] += mm(v0, fill_r, counter, tb=True)
                bc[i + 1] -= mm(fn, bc[i], counter)
                bc[i + 1] -= mm(b.lower[i], g, counter, tb=True)
                bc[i + 1] += mm(vn, ar[i], counter, tb=True)
                bc[lo] -= mm(fr, bc[i], counter)
                bc[lo] -= mm(bfill_r, g, counter, tb=True)
                bc[lo] += mm(v0, ar[i], counter, tb=True)
                br[i + 1] -= mm(g, b.upper[i], counter)
                br[i + 1] -= mm(br[i], fn, counter, tb=True)
                br[i + 1] += mm(p, fn, counter, tb=True)
                br[lo] -= mm(g, bfill_c, counter)
                br[lo] -= mm(br[i], fr, counter, tb=True)
                br[lo] += mm(p, fr, counter, tb=True)
                tip_b += (
                    -mm(g, bc[i], counter)
                    - mm(br[i], g, counter, tb=True)
                    + mm(p, g, counter, tb=True)
                )
                bfill_r, bfill_c = new_bfill_r, new_bfill_c
            fill_r, fill_c = new_fill_r, new_fill_c
        bnd = [lo, hi - 1]

    # Copies, so that the payload does not keep the local slices alive.
    payload = BoundaryPayload(rank=rank, kind=kind)
    payload.diag = [ad[g].copy() for g in bnd]
    payload.arrow_row = [ar[g].copy() for g in bnd]
    payload.arrow_col = [ac[g].copy() for g in bnd]
    if kind == "middle":
        payload.coupling = [fill_r, fill_c]
    if fused:
        payload.b_diag = [bd[g].copy() for g in bnd]
        payload.b_arrow_row = [br[g].copy() for g in bnd]
        payload.b_arrow_col = [bc[g].copy() for g in bnd]
        if kind == "middle":
            payload.b_coupling = [bfill_r, bfill_c]

    if fused:
        tip_delta = np.stack([tip_a, tip_b])
    else:
        tip_delta = np.stack([tip_a])
    return payload, tip_delta, factors


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

    provenance = []
    diag, arrow_row, arrow_col = [], [], []
    b_diag, b_arrow_row, b_arrow_col = [], [], []
    for p, pay in enumerate(gathered):
        if pay.rank != p or pay.kind != plan.kinds[p]:
            raise ProtocolError(f"payload {p} carries rank {pay.rank} kind {pay.kind!r}")
        expected = 2 if pay.kind == "middle" else 1
        if len(pay.diag) != expected or (fused and len(pay.b_diag) != expected):
            raise ProtocolError(f"payload {p} has malformed boundary blocks")
        if pay.kind == "middle" and (
            len(pay.coupling) != 2 or (fused and len(pay.b_coupling) != 2)
        ):
            raise ProtocolError(f"payload {p} lacks its fill-in coupling pair")
        sides = ("top", "bottom") if pay.kind == "middle" else (
            ("bottom",) if pay.kind == "first" else ("top",)
        )
        for j, side in enumerate(sides):
            provenance.append((p, side))
            diag.append(pay.diag[j])
            arrow_row.append(pay.arrow_row[j])
            arrow_col.append(pay.arrow_col[j])
            if fused:
                b_diag.append(pay.b_diag[j])
                b_arrow_row.append(pay.b_arrow_row[j])
                b_arrow_col.append(pay.b_arrow_col[j])

    nr = len(diag)
    upper, lower = [], []
    b_upper, b_lower = [], []
    for k in range(nr - 1):
        (p1, side1) = provenance[k]
        (p2, _) = provenance[k + 1]
        if p1 == p2:
            # Fill-in coupling between a middle partition's own boundaries.
            upper.append(gathered[p1].coupling[0])
            lower.append(gathered[p1].coupling[1])
            if fused:
                b_upper.append(gathered[p1].b_coupling[0])
                b_lower.append(gathered[p1].b_coupling[1])
        else:
            # Original separator, owned by the upper-side rank p1.
            g = plan.ranges[p1][1] - 1
            upper.append(a.upper[g].copy())
            lower.append(a.lower[g].copy())
            if fused:
                b_upper.append(b.upper[g].copy())
                b_lower.append(b.lower[g].copy())

    asz = a.a
    if asz > 0:
        delta = coll.all_reduce_sum(tip_delta)
        tip = a.tip + delta[0]
        b_tip = b.tip + delta[1] if fused else None
    else:
        tip = np.zeros((0, 0), dtype=COMPLEX)
        b_tip = np.zeros((0, 0), dtype=COMPLEX) if fused else None

    matrix_a = BtaMatrix(nr, a.b, asz, diag, lower, upper, arrow_row, arrow_col, tip)
    matrix_b = (
        BtaMatrix(nr, a.b, asz, b_diag, b_lower, b_upper, b_arrow_row, b_arrow_col, b_tip)
        if fused
        else None
    )
    index = {key: k for k, key in enumerate(provenance)}
    return ReducedSystem(matrix_a=matrix_a, matrix_b=matrix_b, provenance=provenance, index=index)


def solve_reduced(
    reduced: ReducedSystem, mode: str, counter: OpCounter | None = None
) -> SelectedSolution:
    """Solve the replicated reduced system locally on every rank with the
    sequential arrowhead solver."""
    return solve_selected(reduced.matrix_a, reduced.matrix_b, mode, counter=counter)


def _seed(red_sol: SelectedSolution, reduced: ReducedSystem, rank: int, side: str, fused: bool):
    k = reduced.index[(rank, side)]
    xa = red_sol.x_a
    seeds = {
        "diag": xa.diag[k],
        "arrow_col": xa.arrow_col[k],
        "arrow_row": xa.arrow_row[k],
    }
    if fused:
        xb = red_sol.x_b
        seeds.update(
            b_diag=xb.diag[k], b_arrow_col=xb.arrow_col[k], b_arrow_row=xb.arrow_row[k]
        )
    return k, seeds


def local_backward(
    a: BtaMatrix,
    b: BtaMatrix | None,
    plan: PartitionPlan,
    rank: int,
    factors: LocalFactors,
    reduced: ReducedSystem,
    red_sol: SelectedSolution,
    counter: OpCounter | None = None,
) -> dict:
    """Back-substitute one partition, seeded with the reduced solution.

    Returns the partition's slice of the solution as nested dicts
    ``{"x_a": {block_kind: {index: block}}, "x_b": {...} | None}``.
    Each rank produces exactly the pattern blocks it owns: its diagonal
    blocks, interior off-diagonals, arrow strips, and (except for the
    last rank) its separator to the next partition; rank 0 contributes
    the tip.
    """
    lo, hi = plan.ranges[rank]
    kind = plan.kinds[rank]
    fused = factors.mode == "siq"
    if fused and b is None:
        raise ProtocolError("fused factors require the right-hand side")
    if red_sol.x_a.shape_params != reduced.matrix_a.shape_params:
        raise ProtocolError("reduced solution shape disagrees with reduced system")

    out_a = {"diag": {}, "lower": {}, "upper": {}, "arrow_row": {}, "arrow_col": {}, "tip": None}
    out_b = (
        {"diag": {}, "lower": {}, "upper": {}, "arrow_row": {}, "arrow_col": {}, "tip": None}
        if fused
        else None
    )
    xa_r, xb_r = red_sol.x_a, red_sol.x_b

    ytt = xa_r.tip
    ztt = xb_r.tip if fused else None
    if rank == 0:
        out_a["tip"] = ytt.copy()
        if fused:
            out_b["tip"] = ztt.copy()

    def put(out, field_name, g, blk):
        out[field_name][g] = blk

    def separator_from_reduced(k_bottom):
        g = hi - 1
        put(out_a, "lower", g, xa_r.lower[k_bottom].copy())
        put(out_a, "upper", g, xa_r.upper[k_bottom].copy())
        if fused:
            put(out_b, "lower", g, xb_r.lower[k_bottom].copy())
            put(out_b, "upper", g, xb_r.upper[k_bottom].copy())

    if kind == "first":
        k_bot, seeds = _seed(red_sol, reduced, rank, "bottom", fused)
        g = hi - 1
        put(out_a, "diag", g, seeds["diag"].copy())
        put(out_a, "arrow_col", g, seeds["arrow_col"].copy())
        put(out_a, "arrow_row", g, seeds["arrow_row"].copy())
        if fused:
            put(out_b, "diag", g, seeds["b_diag"].copy())
            put(out_b, "arrow_col", g, seeds["b_arrow_col"].copy())
            put(out_b, "arrow_row", g, seeds["b_arrow_row"].copy())
        separator_from_reduced(k_bot)
        y_dd, y_dt, y_td = seeds["diag"], seeds["arrow_col"], seeds["arrow_row"]
        if fused:
            z_dd, z_dt, z_td = seeds["b_diag"], seeds["b_arrow_col"], seeds["b_arrow_row"]
        for i in range(hi - 2, lo - 1, -1):
            rs = [a.upper[i], factors.arrow_col_elim[i]]
            qs = [a.lower[i], factors.arrow_row_elim[i]]
            ya = [[y_dd, y_dt], [y_td, ytt]]
            if fused:
                ss = [b.upper[i], factors.b_arrow_col_elim[i]]
                ws = [b.lower[i], factors.b_arrow_row_elim[i]]
                yb = [[z_dd, z_dt], [z_td, ztt]]
                sc = factors.s_b[i]
                qsb = [factors.l_sb[i], None]
            else:
                ss = ws = yb = sc = qsb = None
            xa_row, xa_col, xa_diag, xb_row, xb_col, xb_diag = _backstep(
                factors.s_a[i], rs, qs, ya, sc, ss, ws, yb, counter, qsb=qsb
            )
            put(out_a, "diag", i, xa_diag)
            put(out_a, "upper", i, xa_row[0])
            put(out_a, "lower", i, xa_col[0])
            put(out_a, "arrow_col", i, xa_row[1])
            put(out_a, "arrow_row", i, xa_col[1])
            y_dd, y_dt, y_td = xa_diag, xa_row[1], xa_col[1]
            if fused:
                put(out_b, "diag", i, xb_diag)
                put(out_b, "upper", i, xb_row[0])
                put(out_b, "lower", i, xb_col[0])
                put(out_b, "arrow_col", i, xb_row[1])
                put(out_b, "arrow_row", i, xb_col[1])
                z_dd, z_dt, z_td = xb_diag, xb_row[1], xb_col[1]

    elif kind == "last":
        k_top, seeds = _seed(red_sol, reduced, rank, "top", fused)
        g = lo
        put(out_a, "diag", g, seeds["diag"].copy())
        put(out_a, "arrow_col", g, seeds["arrow_col"].copy())
        put(out_a, "arrow_row", g, seeds["arrow_row"].copy())
        if fused:
            put(out_b, "diag", g, seeds["b_diag"].copy())
            put(out_b, "arrow_col", g, seeds["b_arrow_col"].copy())
            put(out_b, "arrow_row", g, seeds["b_arrow_row"].copy())
        y_dd, y_dt, y_td = seeds["diag"], seeds["arrow_col"], seeds["arrow_row"]
        if fused:
            z_dd, z_dt, z_td = seeds["b_diag"], seeds["b_arrow_col"], seeds["b_arrow_row"]
        for i in range(lo + 1, hi):
            rs = [a.lower[i - 1], factors.arrow_col_elim[i]]
            qs = [a.upper[i - 1], factors.arrow_row_elim[i]]
            ya = [[y_dd, y_dt], [y_td, ytt]]
            if fused:
                ss = [b.lower[i - 1], factors.b_arrow_col_elim[i]]
                ws = [b.upper[i - 1], factors.b_arrow_row_elim[i]]
                yb = [[z_dd, z_dt], [z_td, ztt]]
                sc = factors.s_b[i]
                qsb = [factors.l_sb[i], None]
            else:
                ss = ws = yb = sc = qsb = None
            xa_row, xa_col, xa_diag, xb_row, xb_col, xb_diag = _backstep(
                factors.s_a[i], rs, qs, ya, sc, ss, ws, yb, counter, qsb=qsb
            )
            put(out_a, "diag", i, xa_diag)
            put(out_a, "lower", i - 1, xa_row[0])
            put(out_a, "upper", i - 1, xa_col[0])
            put(out_a, "arrow_col", i, xa_row[1])
            put(out_a, "arrow_row", i, xa_col[1])
            y_dd, y_dt, y_td = xa_diag, xa_row[1], xa_col[1]
            if fused:
                put(out_b, "diag", i, xb_diag)
                put(out_b, "lower", i - 1, xb_row[0])
                put(out_b, "upper", i - 1, xb_col[0])
                put(out_b, "arrow_col", i, xb_row[1])
                put(out_b, "arrow_row", i, xb_col[1])
                z_dd, z_dt, z_td = xb_diag, xb_row[1], xb_col[1]

    else:  # middle
        k_top, top = _seed(red_sol, reduced, rank, "top", fused)
        k_bot, bot = _seed(red_sol, reduced, rank, "bottom", fused)
        for g, seeds in ((lo, top), (hi - 1, bot)):
            put(out_a, "diag", g, seeds["diag"].copy())
            put(out_a, "arrow_col", g, seeds["arrow_col"].copy())
            put(out_a, "arrow_row", g, seeds["arrow_row"].copy())
            if fused:
                put(out_b, "diag", g, seeds["b_diag"].copy())
                put(out_b, "arrow_col", g, seeds["b_arrow_col"].copy())
                put(out_b, "arrow_row", g, seeds["b_arrow_row"].copy())
        separator_from_reduced(k_bot)
        # X values at the fill positions (top boundary <-> running block).
        y00, y0t, yt0 = top["diag"], top["arrow_col"], top["arrow_row"]
        y_dd, y_dt, y_td = bot["diag"], bot["arrow_col"], bot["arrow_row"]
        y_fr = xa_r.upper[k_top]  # X(lo, i+1)
        y_fc = xa_r.lower[k_top]  # X(i+1, lo)
        if fused:
            z00, z0t, zt0 = top["b_diag"], top["b_arrow_col"], top["b_arrow_row"]
            z_dd, z_dt, z_td = bot["b_diag"], bot["b_arrow_col"], bot["b_arrow_row"]
            z_fr = xb_r.upper[k_top]
            z_fc = xb_r.lower[k_top]
        if hi - lo == 2:
            # Degenerate middle: the fill coupling is the original pattern
            # off-diagonal, solved entirely inside the reduced system.
            put(out_a, "upper", lo, y_fr.copy())
            put(out_a, "lower", lo, y_fc.copy())
            if fused:
                put(out_b, "upper", lo, z_fr.copy())
                put(out_b, "lower", lo, z_fc.copy())
        for i in range(hi - 2, lo, -1):
            rs = [factors.fill_col[i], a.upper[i], factors.arrow_col_elim[i]]
            qs = [factors.fill_row[i], a.lower[i], factors.arrow_row_elim[i]]
            ya = [[y00, y_fr, y0t], [y_fc, y_dd, y_dt], [yt0, y_td, ytt]]
            if fused:
                ss = [factors.b_fill_col[i], b.upper[i], factors.b_arrow_col_elim[i]]
                ws = [factors.b_fill_row[i], b.lower[i], factors.b_arrow_row_elim[i]]
                yb = [[z00, z_fr, z0t], [z_fc, z_dd, z_dt], [zt0, z_td, ztt]]
                sc = factors.s_b[i]
                qsb = [factors.fill_sb[i], factors.l_sb[i], None]
            else:
                ss = ws = yb = sc = qsb = None
            xa_row, xa_col, xa_diag, xb_row, xb_col, xb_diag = _backstep(
                factors.s_a[i], rs, qs, ya, sc, ss, ws, yb, counter, qsb=qsb
            )
            put(out_a, "diag", i, xa_diag)
            put(out_a, "upper", i, xa_row[1])
            put(out_a, "lower", i, xa_col[1])
            put(out_a, "arrow_col", i, xa_row[2])
            put(out_a, "arrow_row", i, xa_col[2])
            if i == lo + 1:
                put(out_a, "upper", lo, xa_col[0])
                put(out_a, "lower", lo, xa_row[0])
            y_dd, y_dt, y_td = xa_diag, xa_row[2], xa_col[2]
            y_fr, y_fc = xa_col[0], xa_row[0]
            if fused:
                put(out_b, "diag", i, xb_diag)
                put(out_b, "upper", i, xb_row[1])
                put(out_b, "lower", i, xb_col[1])
                put(out_b, "arrow_col", i, xb_row[2])
                put(out_b, "arrow_row", i, xb_col[2])
                if i == lo + 1:
                    put(out_b, "upper", lo, xb_col[0])
                    put(out_b, "lower", lo, xb_row[0])
                z_dd, z_dt, z_td = xb_diag, xb_row[2], xb_col[2]
                z_fr, z_fc = xb_col[0], xb_row[0]

    return {"x_a": out_a, "x_b": out_b}


# ---------------------------------------------------------------------------
# Facade
# ---------------------------------------------------------------------------


def _merge_slices(a: BtaMatrix, mode: str, slices: list[dict]) -> SelectedSolution:
    n, bs, asz = a.shape_params
    fused = mode == "siq"
    x_a = BtaMatrix.zeros(n, bs, asz)
    x_b = BtaMatrix.zeros(n, bs, asz) if fused else None

    def fill(container: BtaMatrix, part: dict):
        for kind in _SLICE_KINDS:
            stack = getattr(container, kind)
            for g, blk in part[kind].items():
                stack[g] = blk
        if part["tip"] is not None:
            container.tip[...] = part["tip"]

    seen_diag = set()
    for sl in slices:
        seen_diag.update(sl["x_a"]["diag"].keys())
        fill(x_a, sl["x_a"])
        if fused:
            fill(x_b, sl["x_b"])
    if seen_diag != set(range(n)):
        raise ProtocolError(f"incomplete solution coverage: missing {set(range(n)) - seen_diag}")
    return SelectedSolution(x_a=x_a, x_b=x_b, mode=mode)


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
    return sl, counter, reduced_counter, phases


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
    receives the per-rank local tallies (on a socket rank, its own).
    Operations are counted only when ``counter`` or ``rank_counters`` is
    passed; without either, no rank builds a tally.  Raises
    :class:`NonFiniteInputError` if ``a`` (or, in ``"siq"`` mode, ``b``)
    holds a NaN or infinite entry.
    """
    if mode is None:
        mode = "si" if b is None else "siq"
    if mode == "siq" and b is None:
        raise ValueError("mode 'siq' requires a right-hand side")
    if mode == "si":
        b = None
    if num_parts == 1:
        return solve_selected(a, b, mode, counter=counter, timings=timings)
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
        sl, cnt, red_cnt, phases = _run_rank(
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
        blobs = transport.gather_to_root(_slice_to_bytes(sl))
        if transport.rank != 0:
            return None
        slices = [_slice_from_bytes(blob) for blob in blobs]
        return _merge_slices(a, mode, slices)

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

    slices = [r[0] for r in results]
    if counter is not None:
        for r in results:
            counter.merge(r[1])
        counter.merge(results[0][2])  # replicated reduced solve, counted once
    if rank_counters is not None:
        rank_counters.extend(r[1] for r in results)
    if timings is not None:
        timings.update(results[0][3])
    return _merge_slices(a, mode, slices)


_SLICE_KINDS = ("diag", "lower", "upper", "arrow_row", "arrow_col")


def _slice_to_bytes(sl: dict) -> bytes:
    parts = []
    for side in ("x_a", "x_b"):
        part = sl[side]
        if part is None:
            parts.append(struct.pack("<B", 0))
            continue
        parts.append(struct.pack("<B", 1))
        for kind in _SLICE_KINDS:
            entries = sorted(part[kind].items())
            parts.append(struct.pack("<I", len(entries)))
            for g, blk in entries:
                parts.append(struct.pack("<QQQ", g, blk.shape[0], blk.shape[1]))
                parts.append(np.ascontiguousarray(blk, dtype="<c16").tobytes())
        tip = part["tip"]
        if tip is None:
            parts.append(struct.pack("<B", 0))
        else:
            parts.append(struct.pack("<BQQ", 1, tip.shape[0], tip.shape[1]))
            parts.append(np.ascontiguousarray(tip, dtype="<c16").tobytes())
    return b"".join(parts)


def _slice_from_bytes(buf: bytes) -> dict:
    offset = 0
    out = {}
    for side in ("x_a", "x_b"):
        (present,) = struct.unpack_from("<B", buf, offset)
        offset += 1
        if not present:
            out[side] = None
            continue
        part = {kind: {} for kind in _SLICE_KINDS}
        for kind in _SLICE_KINDS:
            (count,) = struct.unpack_from("<I", buf, offset)
            offset += 4
            for _ in range(count):
                g, rows, cols = struct.unpack_from("<QQQ", buf, offset)
                offset += 24
                blk = np.frombuffer(buf, dtype="<c16", count=rows * cols, offset=offset)
                part[kind][g] = blk.reshape(rows, cols).astype(COMPLEX)
                offset += 16 * rows * cols
        (present_tip,) = struct.unpack_from("<B", buf, offset)
        offset += 1
        if present_tip:
            rows, cols = struct.unpack_from("<QQ", buf, offset)
            offset += 16
            blk = np.frombuffer(buf, dtype="<c16", count=rows * cols, offset=offset)
            part["tip"] = blk.reshape(rows, cols).astype(COMPLEX)
            offset += 16 * rows * cols
        else:
            part["tip"] = None
        out[side] = part
    return out
