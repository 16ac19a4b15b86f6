"""Span tracing of btasel, installed from outside the package.

The solvers bind their kernels and sweeps by name at import time
(``from .kernels import mm`` in ``rgf`` and ``dist``), so wrapping
``btasel.kernels.mm`` alone would see no calls.  The tracer therefore
replaces the module attributes that the solvers actually look up:
``btasel.rgf.*``, ``btasel.dist.*``, two ``ThreadCollectives`` methods,
``BtaMatrix.copy`` and the ``fileio`` entry points.  Nothing under
``src/`` is edited, and :meth:`Tracer.installed` restores every original
on exit, so untraced code runs unwrapped.

A span records its name, start, end, parent, rank and op id.  Kernel
calls are not spans: each one adds its count and seconds to the span
that is open in its thread, so a b=4 solve with thousands of products
costs one dict update per call instead of one object per call.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import statistics
import threading
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from time import perf_counter

from _btasel import btasel

# Real floating-point operations of one complex block inversion of order s,
# LU (8/3 s^3) plus two triangular solves against the identity (8 s^3).
INV_FLOPS_PER_CUBE = 32.0 / 3.0

_STAGES = {
    "dist.local_forward": "local_forward",
    "dist.reduced": "reduced",
    "dist.local_backward": "local_backward",
}


@dataclass(eq=False)
class Span:
    id: int
    name: str
    parent: int | None
    rank: int | None
    op: int
    thread: int
    start: float = 0.0
    end: float = 0.0
    kernels: dict = field(default_factory=dict)  # kind -> [calls, seconds, order^3 sum]
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def kernel_s(self) -> float:
        return sum(agg[1] for agg in self.kernels.values())


def _rank_arg(*args, **kwargs):
    return args[3] if len(args) > 3 else kwargs["rank"]


def _endpoint_rank(endpoint, *args, **kwargs):
    return endpoint.rank


def _plan_note(args, plan):
    mode = args[2] if len(args) > 2 else "si"
    return {"ranges": [list(r) for r in plan.ranges], "kinds": list(plan.kinds), "mode": mode}


class Tracer:
    """Collects spans for a sequence of ops run one at a time."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._tls = threading.local()
        self._main: list = []  # span stack of the thread that runs the op
        self._op = -1
        self._saved: list = []
        self.missing: set[str] = set()  # wrap targets the program no longer has

    # -- spans -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def open(self, name: str, rank: int | None = None) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        elif self._main:
            # A worker thread's first span belongs to whatever the op's own
            # thread is blocked in, e.g. dist_solve waiting for its ranks.
            parent = self._main[-1]
        else:
            parent = None
        if rank is None:
            rank = getattr(self._tls, "rank", None)
        else:
            # Later spans in this worker thread (the reduced solve and the
            # sweeps inside it) belong to the same rank.
            self._tls.rank = rank
        span = Span(
            id=next(self._ids),
            name=name,
            parent=parent.id if parent is not None else None,
            rank=rank,
            op=self._op,
            thread=threading.get_ident(),
        )
        stack.append(span)
        self.spans.append(span)
        span.start = perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack().pop()

    def begin_op(self, name: str) -> Span:
        """Open the root span of the next op; spans of other threads attach to it."""
        self._op += 1
        root = self.open(name)
        self._main = self._stack()
        return root

    def end_op(self) -> list[Span]:
        """Close the current op and return its spans."""
        root = self._main[0]
        self.close(root)
        self._main = []
        return [sp for sp in self.spans if sp.op == root.op]

    # -- wrappers ----------------------------------------------------------

    def _span_wrapper(self, fn, name, rank_of=None, note=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name, rank_of(*args, **kwargs) if rank_of else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if note is not None:
                span.attrs.update(note(args, result))
            return result

        return wrapper

    def _kernel_wrapper(self, fn, kind):
        """Add each call's count and seconds to the span open in its thread.

        Products with a zero dimension (the arrow terms of a BT system) are
        tallied as ``gemm_empty``, because OpCounter does not record them.
        Inversions also sum the cube of the block order, for their flops.
        """
        tracer, tls = self, self._tls
        is_gemm = kind == "gemm"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            dt = perf_counter() - t0
            stack = getattr(tls, "stack", None)
            owner = stack[-1] if stack else tracer._main[-1]
            if is_gemm:
                key = "gemm" if args[0].size and args[1].size else "gemm_empty"
                work = 0
            else:
                key = kind
                work = args[0].shape[0] ** 3
            agg = owner.kernels.get(key)
            if agg is None:
                agg = owner.kernels[key] = [0, 0.0, 0]
            agg[0] += 1
            agg[1] += dt
            agg[2] += work
            return result

        return wrapper

    def _targets(self):
        rgf, dist, fio = btasel.rgf, btasel.dist, btasel.fileio
        threadcoll = btasel.collectives.ThreadCollectives
        matrix = btasel.matrix.BtaMatrix
        span = self._span_wrapper
        kern = self._kernel_wrapper
        return [
            (rgf, "mm", lambda f: kern(f, "gemm")),
            (dist, "mm", lambda f: kern(f, "gemm")),
            # dist inverts through rgf._invert_pivot, which resolves
            # block_inverse in rgf's namespace.
            (rgf, "block_inverse", lambda f: kern(f, "inv")),
            (rgf, "solve_selected", lambda f: span(f, "rgf.solve_selected")),
            # The reduced solve calls the facade through dist's own import.
            (dist, "solve_selected", lambda f: span(f, "rgf.solve_selected")),
            (rgf, "bta_forward", lambda f: span(f, "rgf.forward")),
            (rgf, "bt_forward", lambda f: span(f, "rgf.forward")),
            (rgf, "bta_backward", lambda f: span(f, "rgf.backward")),
            (rgf, "bt_backward", lambda f: span(f, "rgf.backward")),
            (dist, "dist_solve", lambda f: span(f, "dist.dist_solve")),
            (dist, "plan_partitions", lambda f: span(f, "partition.plan", note=_plan_note)),
            (dist, "local_forward", lambda f: span(f, "dist.local_forward", _rank_arg)),
            (dist, "assemble_reduced", lambda f: span(f, "dist.assemble_reduced", _endpoint_rank)),
            (dist, "solve_reduced", lambda f: span(f, "dist.reduced")),
            (dist, "local_backward", lambda f: span(f, "dist.local_backward", _rank_arg)),
            (threadcoll, "all_gather", lambda f: span(f, "collectives.all_gather", _endpoint_rank)),
            (threadcoll, "all_reduce_sum", lambda f: span(f, "collectives.all_reduce", _endpoint_rank)),
            (matrix, "copy", lambda f: span(f, "matrix.copy")),
            (fio, "read_bta", lambda f: span(f, "fileio.read", note=lambda a, r: {"path": str(a[0])})),
            (fio, "write_bta", lambda f: span(f, "fileio.write", note=lambda a, r: {"path": str(a[1])})),
        ]

    @contextmanager
    def installed(self):
        """Install every wrapper for the duration of the block."""
        if self._saved:
            raise RuntimeError("tracer wrappers are already installed")
        try:
            for owner, attr, make in self._targets():
                original = owner.__dict__.get(attr)
                if original is None:
                    self.missing.add(f"{owner.__name__}.{attr}")
                    continue
                self._saved.append((owner, attr, original))
                setattr(owner, attr, make(original))
            yield self
        finally:
            while self._saved:
                owner, attr, original = self._saved.pop()
                setattr(owner, attr, original)

    def dump(self, path, header: dict) -> None:
        """Write a header line and then one JSON line per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for sp in self.spans:
                fh.write(json.dumps(asdict(sp)) + "\n")


# -- analysis ---------------------------------------------------------------


def _covered(span: Span, children: list[Span]) -> float:
    """Length of the union of the children's intervals inside ``span``."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted((max(c.start, span.start), min(c.end, span.end)) for c in children):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus child-span coverage minus its kernel time."""
    children = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append(sp)
    return {sp.id: sp.duration - _covered(sp, children[sp.id]) - sp.kernel_s for sp in spans}


def summarize_op(spans: list[Span], root: Span) -> dict[str, float]:
    """Per-layer figures of one traced op.

    Only layers the op ran appear.  Seconds of spans that nest in a span
    of the same name (``bta_forward`` delegating to ``bt_forward``) are
    counted once.  Span seconds are summed over threads, so per-layer
    seconds of a partitioned solve can exceed its wall time.
    """
    selfs = self_times(spans)
    by_id = {sp.id: sp for sp in spans}
    named = defaultdict(list)
    for sp in spans:
        named[sp.name].append(sp)

    def outer(name):
        return [sp for sp in named[name] if by_id.get(sp.parent, root).name != name]

    def total(name, rank=None):
        return sum(sp.duration for sp in outer(name) if rank is None or sp.rank == rank)

    def own(name):
        return sum(selfs[sp.id] for sp in named[name])

    out: dict[str, float] = {}
    calls = defaultdict(int)
    secs = defaultdict(float)
    cubes = defaultdict(int)
    for sp in spans:
        for kind, (c, s, w) in sp.kernels.items():
            calls[kind] += c
            secs[kind] += s
            cubes[kind] += w
    for kind in ("gemm", "inv"):
        out[f"kernels.{kind}.calls"] = calls[kind]
        out[f"kernels.{kind}.s"] = secs[kind]
        if calls[kind]:
            out[f"kernels.{kind}.us_per_call"] = 1e6 * secs[kind] / calls[kind]
    out["kernels.inv.flops"] = INV_FLOPS_PER_CUBE * cubes["inv"]

    for phase in ("forward", "backward"):
        if named[f"rgf.{phase}"]:
            out[f"rgf.{phase}.s"] = total(f"rgf.{phase}")
            out[f"rgf.{phase}.self_s"] = own(f"rgf.{phase}")
    if named["rgf.solve_selected"]:
        out["rgf.facade.self_s"] = own("rgf.solve_selected")
    if named["matrix.copy"]:
        out["matrix.copy.calls"] = len(named["matrix.copy"])
        out["matrix.copy.s"] = total("matrix.copy")
    for kind in ("read", "write"):
        if named[f"fileio.{kind}"]:
            out[f"fileio.{kind}.s"] = total(f"fileio.{kind}")
            out[f"fileio.{kind}.bytes"] = sum(
                os.path.getsize(sp.attrs["path"]) for sp in named[f"fileio.{kind}"]
            )
    if named["fileio.read"]:
        out["fileio.read.MBps"] = out["fileio.read.bytes"] / out["fileio.read.s"] / 1e6

    stages = [sp for sp in spans if sp.name in _STAGES or sp.name == "dist.assemble_reduced"]
    if stages:
        ranks = sorted({sp.rank for sp in stages})
        busy, extent, sweep = {}, {}, {}
        for r in ranks:
            mine = [sp for sp in stages if sp.rank == r]
            for name, key in _STAGES.items():
                out[f"dist.rank{r}.{key}.s"] = total(name, r)
            busy[r] = sum(sp.duration for sp in mine)
            extent[r] = max(sp.end for sp in mine) - min(sp.start for sp in mine)
            sweep[r] = out[f"dist.rank{r}.local_forward.s"] + out[f"dist.rank{r}.local_backward.s"]
            out[f"dist.rank{r}.busy_s"] = busy[r]
            for kind in ("all_gather", "all_reduce"):
                out[f"collectives.rank{r}.{kind}.wait_s"] = total(f"collectives.{kind}", r)
        out["dist.imbalance"] = max(busy.values()) / statistics.fmean(busy.values())
        out["dist.merge.s"] = total("dist.dist_solve") - max(extent.values())
        plan = named["partition.plan"][0].attrs
        c_end, c_mid = btasel.partition._COSTS[plan["mode"]]
        model = {}
        for r, ((lo, hi), kind) in enumerate(zip(plan["ranges"], plan["kinds"])):
            out[f"partition.rank{r}.blocks"] = hi - lo
            model[r] = (c_mid if kind == "middle" else c_end) * (hi - lo)
        # Measured share of sweep time over the share the cost model predicts,
        # for the rank that exceeds its prediction most (1.0 = model exact).
        out["partition.busy_share_vs_block_share"] = max(
            (sweep[r] / sum(sweep.values())) / (model[r] / sum(model.values())) for r in ranks
        )

    # Critical path: the main thread's spans plus the busiest worker thread.
    main_s = root.kernel_s
    worker_s = defaultdict(float)
    for sp in spans:
        if sp is root:
            continue
        cost = selfs[sp.id] + sp.kernel_s
        if sp.thread == root.thread:
            main_s += cost
        else:
            worker_s[sp.thread] += cost
    out["trace.accounted"] = (main_s + max(worker_s.values(), default=0.0)) / root.duration
    return out
