"""Timing harness: repeated runs, phase statistics, weak-scaling sweeps.

Reports are line-oriented ``key: value`` text, one file per run, so they
diff and grep cleanly.  Phase wall times are taken from the solver's own
phase instrumentation (rank 0's timeline for distributed runs, so the
phase sum never exceeds the total); every run reports the mean over
``repeat`` executions together with a 95% confidence interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from .baselines import batched_solve, dense_solve
from .dist import dist_solve
from .kernels import OpCounter
from .matrix import BtaMatrix, _solve_rhs, generate_dd_bta, hermitianize
from .rgf import _working_system, bta_forward, solve_selected

__all__ = ["BenchReport", "run_benchmark", "weak_scaling_sweep", "block_errors", "PHASES"]

PHASES = ("forward", "reduced", "backward", "communication")

ALGOS = ("rgf", "dist", "dense", "batched")


@dataclass
class BenchReport:
    """Aggregated timing and operation counts for one benchmark point."""

    solver: str
    n: int
    b: int
    a: int
    parts: int
    mode: str
    repeats: int
    phase_mean: dict = field(default_factory=dict)
    phase_ci95: dict = field(default_factory=dict)
    total_mean: float = 0.0
    total_ci95: float = 0.0
    counts: dict = field(default_factory=dict)
    counts_b: int | None = None  # the block order the counts call "b"
    counts_forward: dict = field(default_factory=dict)
    parallel_efficiency: float | None = None

    def to_text(self) -> str:
        lines = [
            f"solver: {self.solver}",
            f"n: {self.n}",
            f"b: {self.b}",
            f"a: {self.a}",
            f"parts: {self.parts}",
            f"mode: {self.mode}",
            f"repeats: {self.repeats}",
        ]
        for phase in PHASES:
            lines.append(f"phase_{phase}_mean_s: {self.phase_mean.get(phase, 0.0):.9f}")
            lines.append(f"phase_{phase}_ci95_s: {self.phase_ci95.get(phase, 0.0):.9f}")
        lines.append(f"total_mean_s: {self.total_mean:.9f}")
        lines.append(f"total_ci95_s: {self.total_ci95:.9f}")
        if self.counts_b is not None:
            lines.append(f"counts_b: {self.counts_b}")
        for key, value in sorted(self.counts.items()):
            lines.append(f"count_{key}: {value}")
        for key, value in sorted(self.counts_forward.items()):
            lines.append(f"count_forward_{key}: {value}")
        if self.parallel_efficiency is not None:
            lines.append(f"parallel_efficiency: {self.parallel_efficiency:.6f}")
        return "\n".join(lines) + "\n"

    @staticmethod
    def parse(text: str) -> dict:
        out = {}
        for line in text.splitlines():
            if ":" not in line:
                continue
            key, value = line.split(":", 1)
            out[key.strip()] = value.strip()
        return out


def _mean_ci(samples: list[float]) -> tuple[float, float]:
    k = len(samples)
    mean = sum(samples) / k
    if k < 2:
        return mean, 0.0
    var = sum((s - mean) ** 2 for s in samples) / (k - 1)
    return mean, 1.96 * math.sqrt(var / k)


def _solve_once(algo, a, b, parts, counter, timings):
    if algo == "rgf":
        return solve_selected(a, b, counter=counter, timings=timings)
    if algo == "dist":
        return dist_solve(a, b, num_parts=parts, counter=counter, timings=timings)
    if algo == "dense":
        return dense_solve(a, b, counter=counter, timings=timings)
    if algo == "batched":
        return batched_solve(a, b, counter=counter)
    raise ValueError(f"unknown algorithm {algo!r}")


def run_benchmark(
    algo: str,
    a: BtaMatrix,
    b: BtaMatrix | None = None,
    mode: str | None = None,
    parts: int = 1,
    repeat: int = 10,
) -> BenchReport:
    """Run one benchmark point: ``repeat`` timed solves of the same input.

    An untimed solve first warms up and takes the operation counts; the
    timed solves run without counting.  ``mode`` defaults to ``"siq"``
    when ``b`` is given and ``"si"`` otherwise; ``"batched"`` solves
    ``"siq"`` only, and raises ``ValueError`` in ``"si"`` mode.
    """
    b = _solve_rhs(a, b, mode)
    if algo not in ALGOS:
        raise ValueError(f"algo must be one of {ALGOS}, got {algo!r}")
    if repeat < 1:
        raise ValueError("repeat must be >= 1")

    counter = OpCounter(b=a.b, a=a.a)
    _solve_once(algo, a, b, parts, counter, {})
    phase_samples = {phase: [] for phase in PHASES}
    totals = []
    for _ in range(repeat):
        timings: dict = {}
        t0 = perf_counter()
        _solve_once(algo, a, b, parts, None, timings)
        totals.append(perf_counter() - t0)
        for phase in PHASES:
            phase_samples[phase].append(timings.get(phase, 0.0))

    report = BenchReport(
        solver=algo,
        n=a.n,
        b=a.b,
        a=a.a,
        parts=parts if algo == "dist" else 1,
        mode="si" if b is None else "siq",
        repeats=repeat,
        counts=counter.as_dict(),
        counts_b=counter.b,
    )
    if algo == "rgf":
        # Forward-pass counts broken out: these are the per-step table
        # figures (e.g. 2(n-1) b-products for the BT selected inversion)
        # of the system the solve swept, so at the orders of ``counts``.
        work, rhs, _ = _working_system(a, b, reblock=True)
        fwd_counter = OpCounter(b=work.b, a=work.a)
        bta_forward(work, rhs, fwd_counter)
        report.counts_forward = fwd_counter.as_dict()
    for phase in PHASES:
        report.phase_mean[phase], report.phase_ci95[phase] = _mean_ci(phase_samples[phase])
    report.total_mean, report.total_ci95 = _mean_ci(totals)
    return report


def block_errors(candidate: BtaMatrix, reference: BtaMatrix) -> tuple[dict, tuple]:
    """Per-block relative Frobenius errors of ``candidate`` against
    ``reference`` (absolute where the reference block is zero): the worst
    per block kind, and the worst block as ``(kind, index, error)``.  An
    error that is not finite (a NaN on either side) counts as ``inf``."""
    errors, worst = {}, ("", -1, 0.0)
    for (kind, idx, blk_c), (_, _, blk_r) in zip(
        candidate.pattern_blocks(), reference.pattern_blocks()
    ):
        denom = np.linalg.norm(blk_r)
        err = np.linalg.norm(blk_c - blk_r)
        rel = err / denom if denom > 0 else err
        rel = rel if np.isfinite(rel) else math.inf
        errors[kind] = max(errors.get(kind, 0.0), rel)
        if rel > worst[2]:
            worst = (kind, idx, rel)
    return errors, worst


def max_relative_error(candidate, reference) -> float:
    """Worst :func:`block_errors` error between two solutions."""
    pairs = [(candidate.x_a, reference.x_a), (candidate.x_b, reference.x_b)]
    return max(block_errors(c, r)[1][2] for c, r in pairs if c is not None and r is not None)


def weak_scaling_sweep(
    base_n: int,
    b: int,
    a: int,
    parts_list: list[int],
    mode: str = "si",
    repeat: int = 10,
    seed: int = 0,
) -> list[BenchReport]:
    """Weak-scaling driver: fixed block size, n grows with the worker count.

    Every point solves a freshly generated system with ``n = base_n * P``
    so the per-worker block count stays constant.  The first entry of
    ``parts_list`` is the reference; each report carries the parallel
    efficiency ``eta = T_ref / T_P``.
    """
    reports = []
    t_ref = None
    for parts in parts_list:
        n = base_n * parts
        system = generate_dd_bta(n, b, a, seed=seed)
        rhs = hermitianize(generate_dd_bta(n, b, a, seed=seed + 1)) if mode == "siq" else None
        algo = "dist" if parts > 1 else "rgf"
        report = run_benchmark(algo, system, rhs, mode=mode, parts=parts, repeat=repeat)
        if t_ref is None:
            t_ref = report.total_mean
        report.parallel_efficiency = t_ref / report.total_mean
        reports.append(report)
    return reports
