"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Criteria are property-based (randomized instances against brute-force
oracles) plus exactly checkable combinatorial claims (operation counts,
communication inventory, scaling exponents).
"""

import math
import time

import numpy as np
import pytest
from click.testing import CliRunner
from conftest import max_block_rel_err, random_system

from btasel import (
    OpCounter,
    ThreadHub,
    batched_solve,
    bt_backward,
    bt_forward,
    dense_solve,
    dist_solve,
    generate_dd_bta,
    plan_partitions,
    read_bta,
    solve_selected,
    write_bta,
)
from btasel.bench import BenchReport
from btasel.cli import main as cli_main
from btasel.dist import local_forward
from btasel.rgf import bta_forward

GRID_N = range(1, 13)
GRID_B = (1, 2, 4, 8, 16)
GRID_A = (0, 1, 3, 8)


def _report(criterion: str, ok: bool, detail: str):
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def _grid(seed_base: int):
    for n in GRID_N:
        for b in GRID_B:
            for a in GRID_A:
                yield n, b, a, seed_base + n * 10_000 + b * 100 + a


def test_criterion_1_oracle_equivalence_si():
    t0 = time.perf_counter()
    worst, count = 0.0, 0
    for n, b, a, seed in _grid(1):
        system = generate_dd_bta(n, b, a, seed=seed)
        got = solve_selected(system)
        oracle = dense_solve(system)
        worst = max(worst, max_block_rel_err(got.x_a, oracle.x_a))
        count += 1
    elapsed = time.perf_counter() - t0
    _report(
        "1 (oracle equivalence, selected inversion)",
        count >= 200 and worst <= 1e-10 and elapsed < 120,
        f"{count} instances, worst rel err {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_oracle_equivalence_sq():
    t0 = time.perf_counter()
    worst, worst_herm, count = 0.0, 0.0, 0
    for hermitian in (False, True):
        for n, b, a, seed in _grid(2):
            system, rhs = random_system(n, b, a, seed=seed, hermitian_rhs=hermitian)
            got = solve_selected(system, rhs, "siq")
            oracle = dense_solve(system, rhs, "siq")
            worst = max(worst, max_block_rel_err(got.x_b, oracle.x_b))
            if hermitian:
                x = got.x_b
                scale = max(np.linalg.norm(blk) for _, _, blk in x.pattern_blocks())
                dev = max(
                    [np.linalg.norm(x.diag[i] - x.diag[i].conj().T) for i in range(n)]
                    + [np.linalg.norm(x.upper[i] - x.lower[i].conj().T) for i in range(n - 1)]
                    + [np.linalg.norm(x.arrow_col[i] - x.arrow_row[i].conj().T) for i in range(n)]
                    + [np.linalg.norm(x.tip - x.tip.conj().T)]
                )
                worst_herm = max(worst_herm, dev / scale)
            count += 1
    elapsed = time.perf_counter() - t0
    _report(
        "2 (oracle equivalence, selected quadratic)",
        count >= 400 and worst <= 1e-10 and worst_herm <= 1e-12 and elapsed < 120,
        f"{count} instances, worst rel err {worst:.2e}, "
        f"worst hermitian deviation {worst_herm:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_cross_oracle():
    worst, count = 0.0, 0
    cases = [(n, b, a) for n in range(1, 11) for b in (1, 2, 4) for a in (0, 2, 5)]
    for n, b, a in cases[:50]:
        system, rhs = random_system(n, b, a, seed=300 + count)
        batched = batched_solve(system, rhs)
        dense = dense_solve(system, rhs, "siq")
        worst = max(
            worst,
            max_block_rel_err(batched.x_a, dense.x_a),
            max_block_rel_err(batched.x_b, dense.x_b),
        )
        count += 1
    _report(
        "3 (cross-oracle agreement)",
        count == 50 and worst <= 1e-11,
        f"{count} instances, worst rel err {worst:.2e}",
    )


def test_criterion_4_distributed_matches_sequential():
    worst, count = 0.0, 0
    for parts in (2, 3, 4, 8):
        n = 2 * parts + 8
        for b in (1, 4, 8, 16):
            for a in (0, 2, 8):
                for mode in ("si", "siq"):
                    system, rhs = random_system(n, b, a, seed=400 + count)
                    rhs_used = rhs if mode == "siq" else None
                    seq = solve_selected(system, rhs_used, mode)
                    got = dist_solve(system, rhs_used, num_parts=parts, mode=mode)
                    err = max_block_rel_err(got.x_a, seq.x_a)
                    if mode == "siq":
                        err = max(err, max_block_rel_err(got.x_b, seq.x_b))
                    worst = max(worst, err)
                    count += 1
    # P=1 delegates bit-exactly.
    system, rhs = random_system(10, 4, 2, seed=499)
    seq = solve_selected(system, rhs, "siq")
    got = dist_solve(system, rhs, num_parts=1, mode="siq")
    bitwise = got.x_a.equals_exact(seq.x_a) and got.x_b.equals_exact(seq.x_b)
    _report(
        "4 (distributed == sequential)",
        worst <= 1e-9 and bitwise and count == 96,
        f"{count} configs over P in (2,3,4,8), worst rel err {worst:.2e}, "
        f"P=1 bitwise={bitwise}",
    )


def test_criterion_5_forward_operation_counts():
    checks = []

    # BT selected-inversion forward: exactly 2(n-1) b-sized products.
    for n in (2, 6, 12):
        a = generate_dd_bta(n, 8, 0, seed=50)
        counter = OpCounter(b=8)
        bt_forward(a.copy(), None, counter)
        checks.append(dict(counter.gemm_by_shape) == {"bbb": 2 * (n - 1)})

    # BT fused forward: exactly 7(n-1).
    for n in (2, 6, 12):
        a, rhs = random_system(n, 8, 0, seed=51)
        counter = OpCounter(b=8)
        bt_forward(a.copy(), rhs.copy(), counter)
        checks.append(dict(counter.gemm_by_shape) == {"bbb": 7 * (n - 1)})

    # Middle-partition forward, rgf's arrowhead sweep on the partition
    # bordered by its top boundary (an arrow of order b + a, the letter
    # ?), exact counts per interior step: 6 products (si) / 18 (fused).
    def middle_counts(n, fused):
        a, rhs = random_system(n, 4, 2, seed=52)
        plan = plan_partitions(n, 3, "siq" if fused else "si")
        lo, hi = plan.ranges[1]
        counter = OpCounter(b=4, a=2)
        local_forward(a, rhs if fused else None, plan, 1, counter)
        return hi - lo - 2, counter.gemm_by_shape

    si_step = {"bbb": 2, "?bb": 2, "bb?": 1, "?b?": 1}
    fused_step = {"bbb": 7, "bb?": 3, "?bb": 5, "?b?": 3}
    for fused, per_step in ((False, si_step), (True, fused_step)):
        s1, c1 = middle_counts(18, fused)
        s2, c2 = middle_counts(30, fused)
        want = [{k: v * s for k, v in per_step.items()} for s in (s1, s2)]
        checks.append(s2 > s1 and [dict(c1), dict(c2)] == want)

    # BTA fused forward per-step mixed-shape counts: abb=5, bba=3,
    # aba=3, bbb=7 (differencing two systems isolates one step).
    def bta_counts(n):
        a, rhs = random_system(n, 8, 4, seed=53)
        counter = OpCounter(b=8, a=4)
        bta_forward(a.copy(), rhs.copy(), counter)
        return counter.gemm_by_shape

    c5, c6 = bta_counts(5), bta_counts(6)
    step = {k: c6[k] - c5[k] for k in c6 if c6[k] != c5[k]}
    checks.append(step == {"abb": 5, "bba": 3, "aba": 3, "bbb": 7})

    _report(
        "5 (forward operation counts)",
        all(checks),
        f"{sum(checks)}/{len(checks)} exact-count checks "
        f"(BT si/fused totals, bordered middle per-step, BTA fused per-step)",
    )


def test_criterion_6_communication_contract():
    b, a_sz, parts = 4, 3, 4
    system, rhs = random_system(16, b, a_sz, seed=60)

    hub = ThreadHub(parts)
    dist_solve(system, rhs, num_parts=parts, mode="siq", transport=hub)
    kinds = [e.kind for e in hub.trace]
    one_each = kinds == ["all_gather", "all_reduce"]

    gather = hub.trace[0]
    inventory_ok = True
    for payload in gather.payloads:
        if payload["kind"] != "middle":
            continue
        for side in ("", "b_"):
            inventory_ok &= payload["blocks"][side + "diag"] == [(b, b), (b, b)]
            inventory_ok &= payload["blocks"][side + "coupling"] == [(b, b), (b, b)]
            arrows = payload["blocks"][side + "arrow_row"] + payload["blocks"][side + "arrow_col"]
            inventory_ok &= sorted(arrows) == sorted(
                [(a_sz, b), (a_sz, b), (b, a_sz), (b, a_sz)]
            )
    reduce_ok = hub.trace[1].payloads[0]["elements"] == 2 * a_sz * a_sz  # a^2 per side

    hub_si = ThreadHub(parts)
    dist_solve(system, num_parts=parts, mode="si", transport=hub_si)
    middle_si = hub_si.trace[0].payloads[1]
    bytes_ok = middle_si["nbytes"] == 16 * (4 * b * b + 4 * a_sz * b)
    reduce_si_ok = hub_si.trace[1].payloads[0]["elements"] == a_sz * a_sz

    # No AllReduce round without an arrowhead.
    bt_sys, _ = random_system(16, b, 0, seed=61)
    hub_bt = ThreadHub(parts)
    dist_solve(bt_sys, num_parts=parts, mode="si", transport=hub_bt)
    no_reduce = [e.kind for e in hub_bt.trace] == ["all_gather"]

    ok = one_each and inventory_ok and reduce_ok and bytes_ok and reduce_si_ok and no_reduce
    _report(
        "6 (communication contract)",
        ok,
        f"rounds={kinds}, middle inventory 2+2+4 per side={inventory_ok}, "
        f"reduce a^2/side={reduce_ok}, si payload bytes={bytes_ok}, "
        f"a=0 skips reduce={no_reduce}",
    )


def _fit_exponent(sizes, times):
    xs = [math.log(s) for s in sizes]
    ys = [math.log(t) for t in times]
    xm, ym = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - xm) * (y - ym) for x, y in zip(xs, ys)) / sum((x - xm) ** 2 for x in xs)


def test_criterion_7_complexity_scaling():
    t0 = time.perf_counter()
    b = 64

    def best_time(fn, repeats=5):
        return min(_timed(fn) for _ in range(repeats))

    def _timed(fn):
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start

    rgf_ns = (64, 128, 256, 512)
    rgf_times = []
    for n in rgf_ns:
        system = generate_dd_bta(n, b, 0, seed=70)
        rgf_times.append(best_time(lambda s=system: solve_selected(s)))
    rgf_exp = _fit_exponent(rgf_ns, rgf_times)

    # The dense oracle's O(N^2) memory guard caps it at N = 4096, so its
    # growth is demonstrated on the guard-legal prefix of the same family.
    dense_ns = (8, 16, 32)
    dense_times = []
    for n in dense_ns:
        system = generate_dd_bta(n, b, 0, seed=71)
        dense_times.append(best_time(lambda s=system: dense_solve(s), repeats=2))
    dense_exp = _fit_exponent(dense_ns, dense_times)

    elapsed = time.perf_counter() - t0
    _report(
        "7 (complexity scaling sanity)",
        0.75 <= rgf_exp <= 1.25 and dense_exp >= 2.0 and elapsed < 300,
        f"sequential exponent {rgf_exp:.2f} (want 1 +/- 0.25) over n={rgf_ns}, "
        f"dense exponent {dense_exp:.2f} (want >= 2) over n={dense_ns}, {elapsed:.1f}s",
    )


def test_criterion_8_bt_bta_degeneracy():
    # The facade's own sweeps run on the input's blocks only without
    # re-blocking; re-blocked, it solves a coarser system and agrees to
    # rounding.
    identical, worst = 0, 0.0
    for k in range(50):
        n = 1 + k % 10
        b = (1, 2, 4)[k % 3]
        system, rhs = random_system(n, b, 0, seed=800 + k)
        via_facade = solve_selected(system, rhs, "siq", reblock=False)
        wa, wb = system.copy(), rhs.copy()
        via_bt = bt_backward(bt_forward(wa, wb), wa, wb)
        if via_facade.x_a.equals_exact(via_bt.x_a) and via_facade.x_b.equals_exact(via_bt.x_b):
            identical += 1
        reblocked = solve_selected(system, rhs, "siq")
        worst = max(
            worst,
            max_block_rel_err(reblocked.x_a, via_bt.x_a),
            max_block_rel_err(reblocked.x_b, via_bt.x_b),
        )
    _report(
        "8 (a=0 arrowhead path degenerates to BT path)",
        identical == 50 and worst <= 1e-12,
        f"{identical}/50 instances bit-identical, re-blocked worst rel err {worst:.2e}",
    )


def test_criterion_9_format_roundtrip(tmp_path):
    shapes = [(1, 1, 0), (1, 4, 2), (2, 1, 1)]
    k = len(shapes)
    while len(shapes) < 100:
        i = len(shapes)
        shapes.append((1 + i % 12, 1 + i % 5, (0, 1, 3, 7)[i % 4]))
    exact = 0
    for i, (n, b, a) in enumerate(shapes[:100]):
        m = generate_dd_bta(n, b, a, seed=900 + i)
        path = tmp_path / f"m{i}.bta"
        write_bta(m, path)
        if read_bta(path).equals_exact(m):
            exact += 1
    _report(
        "9 (serialization round-trip)",
        exact == 100,
        f"{exact}/100 matrices bitwise lossless (includes a=0 and n=1)",
    )


def test_criterion_10_weak_scaling_report(tmp_path):
    runner = CliRunner()
    report_base = tmp_path / "weak.txt"
    result = runner.invoke(
        cli_main,
        ["bench", "--n", "12", "--b", "96", "--a", "0", "--repeat", "6",
         "--weak-scale", "1,2,4,8", "--report", str(report_base)],
    )
    etas = {}
    if result.exit_code == 0:
        for parts in (1, 2, 4, 8):
            text = (tmp_path / f"weak.txt-p{parts}").read_text()
            parsed = BenchReport.parse(text)
            assert parsed["b"] == "96"
            assert int(parsed["n"]) == 12 * parts  # n scales with P, b fixed
            etas[parts] = float(parsed["parallel_efficiency"])
    ok = result.exit_code == 0 and len(etas) == 4 and all(0 < e <= 1 for e in etas.values())
    _report(
        "10 (weak-scaling protocol report)",
        ok,
        f"exit={result.exit_code}, eta per point="
        + ", ".join(f"P{p}:{e:.3f}" for p, e in sorted(etas.items())),
    )
