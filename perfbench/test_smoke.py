"""Smoke tests of the benchmark itself, at tiny sizes.

Run from the root of a checkout with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run as bench
import tracer as tracing
from _btasel import ROOT, btasel
from workloads import WORKLOADS, Checker, Instance, Result

TINY = {
    "negf-bt-small": dict(n=8, b=2, a=0, ref_gemms=40),
    "inla-bta-large": dict(n=4, b=8, a=2, ref_gemms=20),
    "dist-bta-p2": dict(n=8, b=4, a=2, ref_gemms=40),
}
SECONDS = 0.3


def tiny(name):
    return dataclasses.replace(WORKLOADS[name], **TINY[name])


def contract():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted_with_its_unit(name, trace, tmp_path):
    spec = contract()
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    report = bench.run(tiny(name), 3, SECONDS, trace, tmp_path)
    line = report["line"]
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"], report["detail"]["problems"]
    assert line["attempted"] >= 1 and line["failed"] == 0
    assert {k: m["unit"] for k, m in line["metrics"].items()} == wanted
    assert all(isinstance(m["value"], float) for m in line["metrics"].values())
    assert report["detail"]["printed"]["max_rel_err"]["value"] <= bench.MAX_REL_ERR


def test_workloads_match_the_contract():
    assert [w["name"] for w in contract()["workloads"]] == list(WORKLOADS)


def test_dist_runs_one_all_gather_and_one_all_reduce_per_solve(tmp_path):
    w = tiny("dist-bta-p2")
    inst = Instance(w, 5, str(tmp_path))
    for _ in range(3):
        hub = inst.dist_solve().hub
        assert [ev.kind for ev in hub.trace] == ["all_gather", "all_reduce"]


def test_collective_bytes_match_payload_sizes(tmp_path):
    w = tiny("dist-bta-p2")
    metrics = bench.run(w, 5, SECONDS, True, tmp_path)["line"]["metrics"]
    value = {k: m["value"] for k, m in metrics.items()}
    parts, b, a = 2, w.b, w.a
    # First and last partitions each send one boundary diagonal block and
    # its two arrow strips, for A and for the right-hand side (siq).
    assert value["collectives.all_gather.bytes"] == parts * 2 * 16 * (b * b + 2 * a * b)
    # Each rank reduces its stacked (A, B) tip contributions.
    assert value["collectives.all_reduce.bytes"] == parts * 2 * 16 * a * a
    assert value["collectives.all_gather.rounds"] == 1
    assert value["collectives.all_reduce.rounds"] == 1
    assert value["collectives.rounds"] == 2


def test_one_perturbed_block_counts_as_a_failure(tmp_path):
    r = bench.Run(tiny("negf-bt-small"), 4, str(tmp_path))
    # Every set-up after the first checks its warm-up result.
    assert (r.attempted, r.failed) == (bench.SETUP_REPEATS - 1, 0)
    good = r.first.solution
    r.plain_op()
    assert (r.attempted, r.failed) == (bench.SETUP_REPEATS, 0)

    bad = dataclasses.replace(good, x_a=good.x_a.copy(), x_b=good.x_b.copy())
    bad.x_b.upper[3] = bad.x_b.upper[3] * (1 + 1e-9)
    r.inst.op = lambda: Result(bad, None)
    r.plain_op()
    assert (r.attempted, r.failed) == (bench.SETUP_REPEATS + 1, 1)
    assert r.errors == ["result differs from the verified result"]


def test_checker_rejects_nan_and_accepts_exact_copy(tmp_path):
    sol = Instance(tiny("inla-bta-large"), 2, str(tmp_path)).rgf_solve()
    checker = Checker(sol.x_a, sol.x_b)
    assert checker.matches(sol.x_a.copy(), None)
    broken = sol.x_a.copy()
    broken.tip[0, 0] = float("nan")
    assert not checker.matches(broken, None)


def test_kernel_counts_do_not_depend_on_the_seed(tmp_path):
    keys = ("kernels.gemm.calls", "kernels.inv.calls", "matrix.copy.calls", "collectives.rounds")
    for name in WORKLOADS:
        seen = []
        for seed in (1, 2):
            metrics = bench.run(tiny(name), seed, SECONDS, True, tmp_path)["line"]["metrics"]
            seen.append([metrics[k]["value"] for k in keys])
        assert seen[0] == seen[1], name


def test_wrappers_are_removed_after_a_traced_op(tmp_path):
    originals = (btasel.rgf.mm, btasel.dist.mm, btasel.matrix.BtaMatrix.copy)
    tr = tracing.Tracer()
    inst = Instance(tiny("dist-bta-p2"), 1, str(tmp_path))
    _, root, spans = bench.traced(tr, "op", inst.dist_solve)
    assert (btasel.rgf.mm, btasel.dist.mm, btasel.matrix.BtaMatrix.copy) == originals
    ranks = {sp.rank for sp in spans if sp.name.startswith("dist.local")}
    assert ranks == {0, 1}
    assert all(sp.parent is not None for sp in spans if sp is not root)


def test_fails_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "negf-bt-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
