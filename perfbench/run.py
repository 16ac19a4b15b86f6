"""btasel benchmark: closed-loop solves, checked against the dense oracle.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload negf-bt-small --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` alternates untraced and traced ops and reports the
per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md in this directory for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter, process_time

import numpy as np
import scipy

import tracer as tracing
from _btasel import btasel
from workloads import WORKLOADS, Checker, Instance, Workload

OUT = Path(__file__).resolve().parent / "out"

SETUP_REPEATS = 15
PROBE_ROUNDS = 5
MAX_REL_ERR = 1e-10
ACCOUNTED_TOLERANCE = 0.10

# End-to-end metrics in the result line, each bounded in BENCHMARK.json.
# The others are printed but left out of it, because no share-of-median
# bound holds them: a correct run reads 0 or nearly 0 for the two
# correctness figures, which gate ``correct`` instead, and raw wall and CPU
# times drift by more than the largest allowed bound between runs on a
# shared host (see README.md).  ``solve_x_ref`` is the drift-cancelled
# form of ``solve_s_p50``, and ``setup_s`` that of ``setup_wall_s``.
END_TO_END = {
    "solve_x_ref": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PRINTED = {
    "solve_s_p50": "s",
    "solve_s_p90": "s",
    "solve_s_p90_pct": "%",
    "setup_wall_s": "s",
    "solves_per_s": "1/s",
    "cpu_s_per_solve": "s",
    "max_rel_err": "ratio",
    "error_rate": "ratio",
}

_RANKS = (0, 1)
PER_LAYER = {
    "kernels.gemm.calls": "count",
    "kernels.gemm.s": "s",
    "kernels.gemm.us_per_call": "us",
    "kernels.inv.calls": "count",
    "kernels.inv.s": "s",
    "kernels.inv.us_per_call": "us",
    "kernels.flops": "flop",
    "kernels.gemm.gflops": "GF/s",
    "ref.matmul_gflops": "GF/s",
    "kernels.blas_fraction": "ratio",
    "rgf.forward.s": "s",
    "rgf.backward.s": "s",
    "rgf.forward.self_s": "s",
    "rgf.backward.self_s": "s",
    "rgf.facade.self_s": "s",
    "matrix.copy.calls": "count",
    "matrix.copy.s": "s",
    "fileio.read.s": "s",
    "fileio.write.s": "s",
    "fileio.read.bytes": "B",
    "fileio.write.bytes": "B",
    "fileio.read.MBps": "MB/s",
    **{
        f"dist.rank{r}.{key}": "s"
        for r in _RANKS
        for key in ("local_forward.s", "reduced.s", "local_backward.s", "busy_s")
    },
    "dist.imbalance": "ratio",
    "dist.merge.s": "s",
    "dist.speedup_vs_rgf": "ratio",
    "collectives.rounds": "count",
    "collectives.all_gather.rounds": "count",
    "collectives.all_reduce.rounds": "count",
    "collectives.all_gather.bytes": "B",
    "collectives.all_reduce.bytes": "B",
    **{
        f"collectives.rank{r}.{kind}.wait_s": "s"
        for r in _RANKS
        for kind in ("all_gather", "all_reduce")
    },
    **{f"partition.rank{r}.blocks": "count" for r in _RANKS},
    "partition.busy_share_vs_block_share": "ratio",
    "trace.overhead": "ratio",
    "trace.accounted": "ratio",
}


def environment(seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "set_blas_threads_1": btasel.threads.set_blas_threads(1),
    }


def expected_kernels(counter, rank_counters) -> tuple[int, int, float]:
    """Gemm calls, inversions and gemm flops that one traced op must show.

    A partitioned solve's ``counter`` holds every rank's local work plus
    the replicated reduced solve once, but every rank runs that solve.
    """
    gemm = Counter(counter.gemm_by_shape)
    inv = counter.inv_count
    if rank_counters:
        local = Counter()
        for rc in rank_counters:
            local.update(rc.gemm_by_shape)
        extra = len(rank_counters) - 1
        for shape, count in (gemm - local).items():
            gemm[shape] += extra * count
        inv += extra * (counter.inv_count - sum(rc.inv_count for rc in rank_counters))
    dims = {"b": counter.b, "a": counter.a}
    flops = sum(8.0 * v * dims[c[0]] * dims[c[1]] * dims[c[2]] for c, v in gemm.items())
    return sum(gemm.values()), inv, flops


def hub_metrics(hub) -> dict:
    out = {"collectives.rounds": len(hub.trace)}
    for kind in ("all_gather", "all_reduce"):
        events = [ev for ev in hub.trace if ev.kind == kind]
        out[f"collectives.{kind}.rounds"] = len(events)
        out[f"collectives.{kind}.bytes"] = sum(p["nbytes"] for ev in events for p in ev.payloads)
    return out


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile, at most the 90th, with ten samples beyond it.

    Returns its value and its level in percent.  With ten samples or fewer
    no percentile qualifies, and the maximum is returned.
    """
    ordered = sorted(times)
    n = len(ordered)
    k = min(math.ceil(0.9 * n), n - 10) if n > 10 else n
    return ordered[k - 1], 100.0 * k / n


def _medians(rows: list[dict]) -> dict:
    keys = {k for row in rows for k in row}
    return {k: statistics.median(row[k] for row in rows if k in row) for k in keys}


class Run:
    """State of one benchmark run of one workload."""

    def __init__(self, workload: Workload, seed: int, workdir: str):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.times, self.cpus, self.refs = [], [], []
        self.setup_walls, self.setup_x_ref = [], []
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.inst = self.first = self.checker = None
        for _ in range(SETUP_REPEATS):
            self.setup()

    def setup(self) -> None:
        """Generate the inputs, write the files and warm up, timed.

        A reference timed right after it sees the same machine state, and
        their ratio cancels the host's drift.  The previous instance is
        dropped first, so that peak memory counts one set of inputs.  The
        first set-up's result is the one verified against the dense oracle;
        later ones are checked against it.
        """
        self.inst = None
        t0 = perf_counter()
        inst = Instance(self.workload, self.seed, self.workdir)
        result = inst.op()
        inst.reference()
        wall = perf_counter() - t0
        self.setup_walls.append(wall)
        self.setup_x_ref.append(wall / inst.reference())
        self.inst = inst
        if self.first is None:
            self.first = result
            self.checker = Checker(result.solution.x_a, result.solution.x_b)
        else:
            self.check(result)

    @staticmethod
    def loop(seconds: float, body) -> None:
        """Call ``body`` until ``seconds`` have passed."""
        end = perf_counter() + seconds
        while perf_counter() < end:
            body()

    def _fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)

    def check(self, result) -> None:
        self.attempted += 1
        if result is None:
            return  # already counted by the caller's exception handler
        sol = result.solution
        if not self.checker.matches(sol.x_a, sol.x_b):
            self._fail("result differs from the verified result")

    def call(self, fn, *args):
        """Run ``fn``; an exception is counted as a failed op."""
        try:
            return fn(*args)
        except Exception:  # noqa: BLE001 - every op failure is counted, not fatal
            self._fail(traceback.format_exc(limit=3))
            return None

    def plain_op(self) -> None:
        t0, c0 = perf_counter(), process_time()
        result = self.call(self.inst.op)
        self.times.append(perf_counter() - t0)
        self.cpus.append(process_time() - c0)
        self.check(result)

    def reference(self) -> None:
        self.refs.append(self.inst.reference())

    def verify(self) -> float:
        """Dense-oracle error of the first result, and a read-back of written files."""
        inst = self.inst
        oracle = btasel.baselines.dense_solve(inst.a, inst.b, self.workload.mode)
        err = btasel.bench.max_relative_error(self.first.solution, oracle)
        if self.workload.path == "file":
            self.attempted += 1
            if not self.checker.matches(*inst.written()):
                self._fail("files written by the last op differ from the verified result")
        return err


def traced(tr: tracing.Tracer, name: str, fn, *args):
    with tr.installed():
        root = tr.begin_op(name)
        try:
            result = fn(*args)
        finally:
            spans = tr.end_op()
    return result, root, spans


def measure_end_to_end(run: Run, seconds: float) -> dict:
    def body():
        run.plain_op()
        run.reference()

    run.loop(seconds, body)
    p50 = statistics.median(run.times)
    p90, p90_pct = tail(run.times)
    return {
        "solve_s_p50": p50,
        "solve_s_p90": p90,
        "solve_s_p90_pct": p90_pct,
        # Each op over the reference timed right after it, so that drift
        # cancels at the time scale of one op.
        "solve_x_ref": statistics.median(t / r for t, r in zip(run.times, run.refs)),
        "solves_per_s": len(run.times) / sum(run.times),
        "cpu_s_per_solve": statistics.median(run.cpus),
        "setup_s": statistics.median(run.setup_x_ref) * run.workload.ref_s,
        "setup_wall_s": statistics.median(run.setup_walls),
    }


def measure_layers(run: Run, seconds: float, tr: tracing.Tracer) -> tuple[dict, list]:
    """Per-layer metrics; returns them and a list of trace-integrity problems."""
    w, inst = run.workload, run.inst
    problems = []

    def counted(fn) -> tuple[int, int, float]:
        # Kernel counts depend only on the input, so one counted untraced
        # call gives what every traced call of ``fn`` must show.  Counting
        # inside the traced calls would add OpCounter's cost to kernel time.
        counter = btasel.OpCounter(b=w.b, a=w.a)
        rank_counters = []
        fn(counter, rank_counters)
        return expected_kernels(counter, rank_counters)

    def traced_solve(name, fn, expected=None):
        result, root, spans = traced(tr, name, fn)
        row = tracing.summarize_op(spans, root)
        if expected is not None:
            calls, invs, flops = expected
            got = (row["kernels.gemm.calls"], row["kernels.inv.calls"])
            if got != (calls, invs):
                problems.append(f"{name}: traced gemm/inv {got} != OpCounter {(calls, invs)}")
            row["kernels.flops"] = flops + row["kernels.inv.flops"]
            if row["kernels.gemm.s"] > 0:
                row["kernels.gemm.gflops"] = flops / row["kernels.gemm.s"] / 1e9
        if getattr(result, "hub", None) is not None:
            row.update(hub_metrics(result.hub))
        row["_wall"] = root.duration
        return result, row

    op_counts = counted(inst.op)
    dist_counts = counted(inst.dist_solve)
    rows = []

    def body():
        run.plain_op()
        run.reference()
        result, row = run.call(traced_solve, w.name, inst.op, op_counts) or (None, None)
        run.check(result)
        if row is not None:
            rows.append(row)

    run.loop(seconds, body)
    metrics = _medians(rows)

    # Layers the op does not run are measured by probes on the same input,
    # so that every layer reads a measured value on every workload.
    rgf_s, dist_s, probe_rows = [], [], []
    for _ in range(PROBE_ROUNDS):
        t0 = perf_counter()
        inst.rgf_solve()
        rgf_s.append(perf_counter() - t0)
        t0 = perf_counter()
        inst.dist_solve()
        dist_s.append(perf_counter() - t0)
        if "dist.merge.s" not in metrics:
            probe_rows.append(traced_solve("probe.dist", inst.dist_solve, dist_counts)[1])
        if "fileio.read.s" not in metrics:
            probe_rows.append(traced_solve("probe.fileio", inst.fileio_probe)[1])
    for key, value in _medians(probe_rows).items():
        metrics.setdefault(key, value)

    plain = statistics.median(run.times)
    ref_rate = inst.ref_flops / statistics.median(run.refs)
    metrics["ref.matmul_gflops"] = ref_rate / 1e9
    metrics["kernels.blas_fraction"] = metrics["kernels.flops"] / plain / ref_rate
    metrics["trace.overhead"] = statistics.median(row["_wall"] for row in rows) / plain - 1.0
    metrics["dist.speedup_vs_rgf"] = statistics.median(rgf_s) / statistics.median(dist_s)
    problems += [f"cannot trace {name}: not found" for name in sorted(tr.missing)]
    if abs(metrics["trace.accounted"] - 1.0) > ACCOUNTED_TOLERANCE:
        problems.append(
            f"layer seconds account for {metrics['trace.accounted']:.3f} of op wall time"
        )
    return metrics, problems


def run(workload: Workload, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    """One benchmark run; returns the result line plus printed-only details."""
    env = environment(seed)
    out_dir.mkdir(parents=True, exist_ok=True)
    problems: list[str] = []
    with tempfile.TemporaryDirectory(dir=out_dir) as workdir:
        r = Run(workload, seed, workdir)
        if trace:
            tr = tracing.Tracer()
            values, problems = measure_layers(r, seconds, tr)
            units = PER_LAYER
            tr.dump(out_dir / f"spans-{workload.name}-seed{seed}.jsonl", {"workload": workload.name, **env})
        else:
            values = measure_end_to_end(r, seconds)
            units = END_TO_END
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values["max_rel_err"] = r.verify()
    problems += [f"metric {k} was not measured" for k in units if k not in values]
    values["error_rate"] = r.failed / r.attempted
    problems = list(dict.fromkeys(problems))  # one line per distinct problem
    correct = values["max_rel_err"] <= MAX_REL_ERR and r.failed == 0 and not problems
    return {
        "line": {
            "correct": correct,
            "attempted": r.attempted,
            "failed": r.failed,
            "metrics": {k: {"value": float(values.get(k, 0.0)), "unit": u} for k, u in units.items()},
        },
        "detail": {
            "workload": workload.name,
            "trace": int(trace),
            "samples": len(r.times),
            "printed": {k: {"value": values[k], "unit": u} for k, u in PRINTED.items() if k in values},
            "problems": problems + r.errors,
            "env": env,
        },
    }


def print_report(report: dict) -> None:
    detail, line = report["detail"], report["line"]
    print(f"workload {detail['workload']}  trace={detail['trace']}  samples={detail['samples']}")
    print("env " + " ".join(f"{k}={v}" for k, v in detail["env"].items()))
    rows = {**line["metrics"], **detail["printed"]}
    for name, m in rows.items():
        print(f"  {name:44s} {m['value']:<24.10g} {m['unit']}")
    for problem in detail["problems"]:
        print("problem: " + problem.strip().replace("\n", "\n  "))
    print("detail " + json.dumps(detail))
    print(json.dumps(line))


def run_all(args) -> int:
    """Run every workload in its own process, so each reports its own peak memory."""
    lines = []
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        lines.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    print(json.dumps({
        "correct": all(x["correct"] for x in lines),
        "attempted": sum(x["attempted"] for x in lines),
        "failed": sum(x["failed"] for x in lines),
        "metrics": {
            f"{name}.{key}": m
            for name, x in zip(WORKLOADS, lines)
            for key, m in x["metrics"].items()
        },
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    print_report(run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), OUT))
    return 0


if __name__ == "__main__":
    sys.exit(main())
