"""Distributed-memory selected inversion and quadratic solution.

The diagonal blocks are split into contiguous partitions.  Each worker
eliminates its interior blocks independently with the sequential
sweeps of :mod:`btasel.rgf`: the first partition runs the forward sweep
down into its bottom boundary block, the last runs it on its
block-reversed blocks up into its top boundary block, and a middle one
runs it down into its bottom boundary on its other blocks bordered by
its top boundary, an arrowhead system whose arrow is that boundary and
the tip, so that the fill-in couplings to the top boundary are its
arrow strips.  The updated boundary blocks, fill-in coupling pairs, and
arrow strips are exchanged in a single AllGather; the tip contributions
are summed in a single AllReduce.  Every rank then assembles and
redundantly solves the same small reduced arrowhead system, seeds its
partition boundaries with the reduced solution, and back-substitutes
its interior blocks with the sequential backward sweep, in place in its
slice of the solution (on threads, and on a socket run's rank 0, a view
of the merged solution), so that the merge writes only the separators
between partitions and the tip, from the reduced solution.

The communication contract is exactly one AllGather round plus (for
arrowhead systems) one AllReduce round per solve, with deterministic,
rank-ordered reduction.
"""

from __future__ import annotations

import struct
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from time import perf_counter
from typing import NamedTuple

import numpy as np

from .collectives import Collectives, SocketCollectives, ThreadHub
from .errors import FormatError, ProtocolError, WorkerError
from .fileio import bta_parts, decode_bta
from .kernels import COMPLEX, OpCounter, mm  # noqa: F401 - dist.mm is a profiling hook
from .matrix import BtaMatrix, SelectedSolution, _signed_part
from .partition import PartitionPlan, plan_partitions
from .rgf import (
    RgfFactors,
    _backward_sweep,
    _forward_sweep,
    _hermitian_sign,
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
    A middle partition reads them off its bordered system
    (:func:`_boundary`).  Separator blocks never travel: they are
    untouched original data, read from each rank's input view.
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

    def parts(self) -> list:
        """The payload's bytes as parts to send back to back: the 5-byte
        rank/kind head, then each side's :func:`~btasel.fileio.bta_parts`."""
        head = _HEAD.pack(self.rank, _KIND_CODES[self.kind])
        return [head, *(p for m in self.sides for p in bta_parts(m))]

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
    """A partition's elimination data: the :class:`RgfFactors` fields of
    the system its sweeps run on, its ``slices`` (the partition's slice
    of the solution, one container per side), and the working stacks
    ``wa`` (``wb``) of that system, in sweep order.  Their diagonal and
    coupling stacks are views of the slices, whose slots hold the pivot
    inverses and the couplings as seen at elimination until the backward
    sweep writes the solution over them; so are a first or last
    partition's arrow stacks.  A middle partition's system is bordered by
    its top boundary (:func:`_bordered`), and its arrow stacks, of width
    ``b + a``, are its own."""

    slices: tuple = ()
    wa: _Stacks | None = None
    wb: _Stacks | None = None


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


@dataclass(frozen=True, eq=False)
class _SharedPlan(PartitionPlan):
    """A thread solve's plan and what its ranks share: the merged ``solution``,
    one container per side that each rank solves in, and ``sigma`` of ``b``."""

    solution: tuple = ()
    sigma: int = 0


def _bordered(x: BtaMatrix, tip: np.ndarray) -> _Stacks:
    """A middle partition's slice ``x`` as an arrowhead system of its
    blocks 1..m-1, whose arrow is the top boundary (block 0) and the tip,
    of width ``b + a``.  Its diagonal and coupling stacks are views of
    ``x``; its arrow strips ``[A(0, j); Ar(j)]`` and ``[A(j, 0) | Ac(j)]``
    are new, with top parts zero but next to the top boundary.  Its tip
    ``[[A(0, 0), Ac(0)], [Ar(0), 0]]`` is written in ``tip``."""
    bs = x.b
    ar = np.zeros((x.n - 1, len(tip), bs), dtype=COMPLEX)
    ac = np.zeros((x.n - 1, bs, len(tip)), dtype=COMPLEX)
    ar[0, :bs], ac[0, :, :bs] = x.upper[0], x.lower[0]
    ar[:, bs:], ac[:, :, bs:] = x.arrow_row[1:], x.arrow_col[1:]
    tip[:bs, :bs], tip[:bs, bs:], tip[bs:, :bs] = x.diag[0], x.arrow_col[0], x.arrow_row[0]
    return _Stacks(x.diag[1:], x.lower[1:], x.upper[1:], ar, ac)


def _boundary(w: _Stacks, tip: np.ndarray, asz: int) -> BtaMatrix:
    """A payload container, read off the working stacks ``w`` and the tip
    after the forward: the last block, and for a middle partition, whose
    tip is bordered by its top boundary, that boundary (the tip's top-left
    block, with its off-diagonal blocks as arrow strips) before it and the
    top parts of the last block's arrow strips as the fill pair.  Every
    field is a copy: peers may still read the payload while this rank's
    backward sweep overwrites its working stacks."""
    d, r, c = w.diag[-1], w.arrow_row[-1], w.arrow_col[-1]
    k = len(tip) - asz  # the top boundary's order in the tip, if any
    if not k:
        return BtaMatrix(1, len(d), asz, [d], None, None, [r], [c])
    top = ([tip[:k, :k], d], [c[:, :k]], [r[:k]], [tip[k:, :k], r[k:]], [tip[:k, k:], c[:, k:]])
    return BtaMatrix(2, k, asz, *top)


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
    right-hand side in fused mode), and the :class:`LocalFactors` that
    carry the partition's working stacks to :func:`local_backward`.
    The first partition runs the sequential forward sweep down to its
    bottom boundary, the last runs it on its block-reversed blocks up to
    its top boundary, and a middle one runs it down to its bottom
    boundary on its other blocks bordered by its top boundary
    (:func:`_bordered`), which leaves the payload in that system's tip
    and last arrow strips.  The inputs are never mutated: the rank's
    blocks and the couplings between them are copied into new stacks,
    its slice of the solution, which the sweeps update in place.  The
    rank finds in its ``b`` whether ``b = σ·B^H``
    (:func:`rgf._hermitian_sign`) and keeps σ in the factors, for both
    sweeps' σ path.  On
    :func:`dist_solve`'s threads, and on a socket run's rank 0, the slice
    is a view of the merged solution instead, and σ is found by
    :func:`dist_solve`, once for the ranks that share it.
    """
    lo, hi = plan.ranges[rank]
    kind = plan.kinds[rank]
    fused = b is not None
    m, bs, asz = hi - lo, a.b, a.a
    if isinstance(plan, _SharedPlan):
        xs, at, sigma = plan.solution, lo, plan.sigma
    else:
        xs, at = [BtaMatrix.empty(m, bs, asz) for _ in range(1 + fused)], 0
        sigma = _hermitian_sign(b) if fused else 0
    slices = [BtaMatrix(m, bs, asz, *_view(x, at, at + m, False)) for x in xs]
    for x, src in zip(slices, (a, b)):
        for dst, blocks in zip(x.stacks, _view(src, lo, hi, False)):
            dst[...] = blocks

    if kind == "middle":
        # Interior blocks 1..m-2, then the bottom boundary, bordered by the
        # top boundary: the fill-in couplings to it are the arrow strips.
        tips = np.zeros((len(slices), bs + asz, bs + asz), dtype=COMPLEX)
        works = [_bordered(x, tip) for x, tip in zip(slices, tips)]
        stop, index = m - 2, range(lo + 1, hi)
    else:
        tips = np.zeros((len(slices), asz, asz), dtype=COMPLEX)
        works = [_view(x, 0, m, kind == "last") for x in slices]
        stop, index = m - 1, range(hi - 1, lo - 1, -1) if kind == "last" else range(lo, hi)
    wa, wb = (*works, None)[:2]
    factors = LocalFactors(
        stop + 1, bs, len(tips[0]), "siq" if fused else "si", sigma, slices=slices, wa=wa, wb=wb
    )
    _forward_sweep(wa, wb, factors, stop, tips[0], tips[-1] if fused else None, counter, index)
    pays = [_boundary(w, tip, asz) for w, tip in zip(works, tips)]
    k = len(tips[0]) - asz  # a middle's tip delta follows its top boundary
    return BoundaryPayload(rank, kind, *pays), tips[:, k:, k:], factors


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
    sequential arrowhead solver.

    It runs without re-blocking: ``dist_solve`` tallies every rank's
    sweeps and this solve in one counter, at the orders of the
    partitions' blocks."""
    return solve_selected(
        reduced.matrix_a, reduced.matrix_b, mode, counter=counter, reblock=False
    )


def local_backward(
    a: BtaMatrix,
    b: BtaMatrix | None,
    plan: PartitionPlan,
    rank: int,
    factors: LocalFactors,
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
    The containers are the slices ``factors`` carries from
    :func:`local_forward`, whose working stacks hold every block's slot.
    Every partition runs the sequential backward sweep: the last on its
    block-reversed blocks, and a middle one on its system bordered by its
    top boundary, seeded with the reduced solution's blocks of that
    system's tip and last arrow strips; it then copies the solution's
    arrow strips and top couplings out of its own arrow stacks.  ``a`` is
    not read, and of ``b`` only whether it is None.
    """
    kind = plan.kinds[rank]
    fused = factors.mode == "siq"
    if fused and b is None:
        raise ProtocolError("fused factors require the right-hand side")
    if red_sol.x_a.shape_params != reduced.matrix_a.shape_params:
        raise ProtocolError("reduced solution shape disagrees with reduced system")
    wa, wb = factors.wa, factors.wb
    pairs = list(zip(factors.slices, (red_sol.x_a, red_sol.x_b)))

    # Boundary blocks are solved in the reduced system.
    for side in _SIDES[kind]:
        k, j = reduced.index[(rank, side)], 0 if side == "top" else -1
        for x, r in pairs:
            x.diag[j], x.arrow_row[j], x.arrow_col[j] = r.diag[k], r.arrow_row[k], r.arrow_col[k]
    ys = [r.tip for _, r in pairs]
    if kind == "middle":
        # The bordered system's tip and its last block's arrow strips:
        # the reduced solution's top boundary with the tip, and its
        # bottom boundary's couplings to both.
        k, bs = reduced.index[(rank, "top")], factors.b
        ys = [np.block([[r.diag[k], r.arrow_col[k]], [r.arrow_row[k], r.tip]]) for _, r in pairs]
        for w, (_, r) in zip((wa, wb), pairs):
            w.arrow_row[-1] = np.concatenate([r.upper[k], r.arrow_row[k + 1]])
            w.arrow_col[-1] = np.concatenate([r.lower[k], r.arrow_col[k + 1]], axis=1)
    ztt = ys[-1] if fused else None
    _backward_sweep(factors, wa, wb, factors.n - 1, ys[0], ztt, counter)
    if kind == "middle":
        # X(top, 1) and X(1, top) are the top parts of the first strips.
        for w, (x, _) in zip((wa, wb), pairs):
            x.upper[0], x.lower[0] = w.arrow_row[0, :bs], w.arrow_col[0, :, :bs]
            x.arrow_row[1:], x.arrow_col[1:] = w.arrow_row[:, bs:], w.arrow_col[:, :, bs:]
    return (*factors.slices, None)[:2]


# ---------------------------------------------------------------------------
# Facade
# ---------------------------------------------------------------------------


def _place_slices(xs: list, plan: PartitionPlan, blobs: list) -> None:
    """The slice of each socket rank but the root, its containers' BTA1
    bytes back to back, placed from views of its blob into the solution
    stacks ``xs``, one container per side, so that each block is copied
    once; the root solved its own slice in place there."""
    n, bs, asz = xs[0].shape_params
    if len(blobs) != plan.num_parts:
        raise ProtocolError(f"expected {plan.num_parts} solution slices, got {len(blobs)}")
    for p in range(1, plan.num_parts):
        (lo, hi), blob = plan.ranges[p], blobs[p]
        sl, offset = [], 0
        while offset < len(blob):
            x, offset = decode_bta(blob, offset, copy=False)
            sl.append(x)
        if len(sl) != len(xs) or any(x.shape_params != (hi - lo, bs, asz) for x in sl):
            shapes = [x.shape_params for x in sl]
            raise ProtocolError(f"rank {p} sent slices of shapes {shapes}, not {hi - lo} blocks")
        for x, part in zip(xs, sl):
            for dst, src in zip(x.stacks[:-1], part.stacks[:-1]):
                dst[lo : lo + len(src)] = src


def _merge_slices(
    xs: list, plan: PartitionPlan, reduced: ReducedSystem, red_sol: SelectedSolution
) -> SelectedSolution:
    """The full solution in ``xs``, whose blocks hold the ranks' slices:
    each separator and the tip from the reduced solution."""
    reds = [x for x in (red_sol.x_a, red_sol.x_b) if x is not None]
    for x, r in zip(xs, reds):
        for p, (_, hi) in enumerate(plan.ranges[:-1]):
            k = reduced.index[(p, "bottom")]
            x.lower[hi - 1], x.upper[hi - 1] = r.lower[k], r.upper[k]
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
    if factors.sigma:
        # The reduced right-hand side of a σ-Hermitian b is σ-Hermitian
        # only up to the partitions' rounding; its σ-Hermitian part,
        # (B + σ·B^H)/2, is solved instead, so that the solver finds σ in
        # it and every coupling of X_B is an exact mirror.
        reduced.matrix_b = _signed_part(reduced.matrix_b, factors.sigma)
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
    worker threads and returns the complete solution, allocated before
    they start: each rank solves in place in its own blocks of it, with
    σ of ``b`` found once for all.  ``num_parts=1`` delegates to the
    sequential solver bit-for-bit, re-blocking small blocks as it does
    (the partitions of a larger ``num_parts`` never are, so payloads keep
    their shapes).  With a :class:`SocketCollectives` endpoint this
    process acts as one rank of a multi-process run: rank 0 solves in
    place in its blocks of the solution, into which it gathers the other
    ranks' slices, and returns it; other ranks return None.

    The aggregated ``counter`` receives every rank's local operations
    plus the (replicated, counted once) reduced solve; ``rank_counters``
    receives the per-rank local tallies (on a socket rank, its own; with
    ``num_parts=1``, the sequential solve's, at its orders).  Operations
    are counted only when ``counter`` or ``rank_counters`` is passed;
    without either, no rank builds a tally.  Raises
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

    hub = transport if transport is not None else ThreadHub(num_parts)
    if hub.world_size != num_parts:
        raise ProtocolError(f"transport world size {hub.world_size} != num_parts {num_parts}")
    sockets = isinstance(hub, SocketCollectives)
    if not sockets or hub.rank == 0:
        # The merged solution, allocated before the ranks start: each of
        # them (on sockets, rank 0 alone) solves in place in its own blocks.
        xs = [BtaMatrix.empty(*a.shape_params) for _ in range(1 + (b is not None))]
        sigma = _hermitian_sign(b) if b is not None else 0
        plan = _SharedPlan(plan.n, num_parts, plan.ranges, plan.kinds, tuple(xs), sigma)
    if sockets:
        results = [_run_rank(a, b, plan, hub.rank, hub, mode, counting)]
    else:
        results = _run_threads(a, b, plan, hub, mode, counting)

    if counter is not None:
        for r in results:
            counter.merge(r[1])
        if results[0][2] is not None:  # rank 0's replicated reduced solve, counted once
            counter.merge(results[0][2])
    if rank_counters is not None:
        rank_counters.extend(r[1] for r in results)
    if timings is not None:
        timings.update(results[0][3])
    if sockets:
        # A slice travels as its containers' BTA1 bytes, back to back,
        # sent from the headers and the stacks themselves; rank 0's is in
        # place already and sends none.
        own = results[0][0] if hub.rank else ()
        blobs = hub.gather_to_root(*(p for x in own if x is not None for p in bta_parts(x)))
        if hub.rank != 0:
            return None
        _place_slices(xs, plan, blobs)
    return _merge_slices(xs, plan, *results[0][4])


def _run_threads(a, b, plan, hub: ThreadHub, mode, counting) -> list:
    """Every rank's :func:`_run_rank` result, each rank in a thread of its own."""
    results: list = [None] * plan.num_parts
    # The pool starts its threads one at a time, so without a common start
    # a later rank begins up to about 1 ms after rank 0 at b=4.
    start = threading.Barrier(plan.num_parts)

    def run(rank: int):
        try:
            start.wait()
            return _run_rank(a, b, plan, rank, hub.endpoint(rank), mode, counting)
        except BaseException:
            hub.abort()  # release peers blocked inside a collective round
            raise

    with ThreadPoolExecutor(max_workers=plan.num_parts) as pool:
        try:
            futures = {rank: pool.submit(run, rank) for rank in range(plan.num_parts)}
        except BaseException:
            start.abort()  # a thread that did not start leaves its peers waiting
            raise
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
    return results
