"""The three benchmark workloads, their inputs and one op of each.

Each workload is a closed loop: one caller issues the next op only after
the previous one returned.  Inputs come from ``generate_dd_bta`` (and a
Hermitianized second draw as the right-hand side) at the run's seed.
Every call into btasel goes through a module attribute looked up at call
time, so the tracer's wrappers see it when they are installed.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from _btasel import btasel


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    b: int
    a: int
    mode: str
    path: str  # "file": file-to-file rgf solve, "memory": rgf solve, "dist": dist_solve P=2
    ref_gemms: int
    ref_s: float


# Why each workload exists is recorded in BENCHMARK.json and README.md.
# ``ref_gemms`` is the number of raw b x b matmuls in the same-run reference.
# It is the gemm count of one op as OpCounter reported it for the solver
# this benchmark was written against, and it stays fixed: re-deriving it
# from the solver under test would let a change that removes gemms shrink
# its own yardstick.  ``ref_s`` is the reference's median seconds, rounded,
# on the host the benchmark was written on (2 shared vCPUs of an Intel Xeon,
# BLAS on one thread).  Set-up time is reported at that machine speed: its
# ratio to a reference timed right after it, times ``ref_s``.  Like
# ``ref_gemms`` it is a fixed yardstick and must not be re-measured.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("negf-bt-small", n=256, b=4, a=0, mode="siq", path="file",
                 ref_gemms=6632, ref_s=0.025),
        Workload("inla-bta-large", n=16, b=128, a=16, mode="si", path="memory",
                 ref_gemms=323, ref_s=0.135),
        Workload("dist-bta-p2", n=128, b=16, a=4, mode="siq", path="dist",
                 ref_gemms=10323, ref_s=0.06),
    )
}

DIST_PARTS = 2

# Relative Frobenius error per block above which a later result differs from
# the verified one.  The solvers are deterministic, so later ops of a run
# agree exactly; the tolerance only admits a change that reorders
# floating-point work.
CHECK_TOL = 1e-12


@dataclass
class Result:
    solution: object  # btasel.SelectedSolution
    hub: object | None  # the ThreadHub of a dist solve, for its round trace


class Instance:
    """One workload's inputs at one seed, with the ops that use them."""

    def __init__(self, workload: Workload, seed: int, workdir: str):
        w = self.workload = workload
        self.a = btasel.generate_dd_bta(w.n, w.b, w.a, seed=seed)
        self.b = None
        if w.mode == "siq":
            self.b = btasel.hermitianize(btasel.generate_dd_bta(w.n, w.b, w.a, seed=seed + 1))
        self.paths = {
            key: os.path.join(workdir, f"{key}.bta") for key in ("a", "b", "xa", "xb", "probe")
        }
        if w.path == "file":
            btasel.fileio.write_bta(self.a, self.paths["a"])
            if self.b is not None:
                btasel.fileio.write_bta(self.b, self.paths["b"])
        rng = np.random.default_rng(seed)
        shape = (w.b, w.b)
        self._ref_x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        self._ref_y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    @property
    def ref_flops(self) -> float:
        return 8.0 * self.workload.ref_gemms * self.workload.b ** 3

    def _matmuls(self, count: int) -> None:
        x, y = self._ref_x, self._ref_y
        for _ in range(count):
            np.matmul(x, y)

    def reference(self) -> float:
        """Seconds for the fixed number of raw matmuls at the block size.

        For the partitioned workload the matmuls are split over as many
        threads as it has ranks, so that the reference meets the same
        core sharing and interpreter-lock contention as the op.
        """
        count = self.workload.ref_gemms
        t0 = perf_counter()
        if self.workload.path == "dist":
            with ThreadPoolExecutor(max_workers=DIST_PARTS) as pool:
                shares = [count // DIST_PARTS + (r < count % DIST_PARTS) for r in range(DIST_PARTS)]
                for fut in [pool.submit(self._matmuls, share) for share in shares]:
                    fut.result()
        else:
            self._matmuls(count)
        return perf_counter() - t0

    def op(self, counter=None, rank_counters=None) -> Result:
        """One op of the workload."""
        w = self.workload
        if w.path == "file":
            a = btasel.fileio.read_bta(self.paths["a"])
            b = btasel.fileio.read_bta(self.paths["b"]) if self.b is not None else None
            sol = btasel.rgf.solve_selected(a, b, w.mode, counter=counter)
            btasel.fileio.write_bta(sol.x_a, self.paths["xa"])
            if sol.x_b is not None:
                btasel.fileio.write_bta(sol.x_b, self.paths["xb"])
            return Result(sol, None)
        if w.path == "memory":
            return Result(self.rgf_solve(counter), None)
        return self.dist_solve(counter, rank_counters)

    def rgf_solve(self, counter=None):
        return btasel.rgf.solve_selected(self.a, self.b, self.workload.mode, counter=counter)

    def dist_solve(self, counter=None, rank_counters=None) -> Result:
        # An explicit hub is the default thread transport; holding it lets
        # the benchmark read the per-round trace.
        hub = btasel.collectives.ThreadHub(DIST_PARTS)
        sol = btasel.dist.dist_solve(
            self.a,
            self.b,
            num_parts=DIST_PARTS,
            mode=self.workload.mode,
            transport=hub,
            counter=counter,
            rank_counters=rank_counters,
        )
        return Result(sol, hub)

    def fileio_probe(self) -> None:
        """Write the system matrix and read it back."""
        btasel.fileio.write_bta(self.a, self.paths["probe"])
        btasel.fileio.read_bta(self.paths["probe"])

    def written(self):
        """The solution blocks the last file-to-file op wrote, read back."""
        x_a = btasel.fileio.read_bta(self.paths["xa"])
        x_b = btasel.fileio.read_bta(self.paths["xb"]) if self.b is not None else None
        return x_a, x_b


class Checker:
    """Block-by-block comparison against one verified solution.

    A block fails when its Frobenius error exceeds ``CHECK_TOL`` times the
    verified block's norm; NaN fails too.
    """

    def __init__(self, x_a, x_b):
        blocks = self._blocks(x_a, x_b)
        self._shapes = [blk.shape for blk in blocks]
        self._ref = np.concatenate([blk.ravel() for blk in blocks])
        self._starts = np.cumsum([0] + [blk.size for blk in blocks[:-1]])
        norm2 = np.add.reduceat(np.abs(self._ref) ** 2, self._starts)
        self._limit2 = CHECK_TOL ** 2 * np.maximum(norm2, np.finfo(float).tiny)

    @staticmethod
    def _blocks(x_a, x_b):
        mats = [x_a] if x_b is None else [x_a, x_b]
        return [blk for m in mats for _, _, blk in m.pattern_blocks() if blk.size]

    def matches(self, x_a, x_b) -> bool:
        blocks = self._blocks(x_a, x_b)
        if [blk.shape for blk in blocks] != self._shapes:
            return False
        diff = np.concatenate([blk.ravel() for blk in blocks]) - self._ref
        err2 = np.add.reduceat(np.abs(diff) ** 2, self._starts)
        return bool(np.all(err2 <= self._limit2))
