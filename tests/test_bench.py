import pytest
from conftest import max_block_rel_err

from btasel import (
    OpCounter,
    generate_dd_bta,
    hermitianize,
    run_benchmark,
    solve_selected,
    weak_scaling_sweep,
)
from btasel.bench import PHASES, BenchReport, block_errors, max_relative_error


def test_report_format_fields():
    a = generate_dd_bta(8, 4, 0, seed=0)
    report = run_benchmark("rgf", a, repeat=3)
    text = report.to_text()
    parsed = BenchReport.parse(text)
    assert parsed["solver"] == "rgf"
    assert parsed["n"] == "8"
    assert parsed["repeats"] == "3"
    for phase in PHASES:
        assert f"phase_{phase}_mean_s" in parsed
        assert f"phase_{phase}_ci95_s" in parsed
    assert "total_mean_s" in parsed


def test_phase_sum_bounded_by_total():
    a = generate_dd_bta(16, 8, 2, seed=1)
    b = generate_dd_bta(16, 8, 2, seed=2)
    for algo, parts in (("rgf", 1), ("dist", 2)):
        report = run_benchmark(algo, a, b, mode="siq", parts=parts, repeat=3)
        assert sum(report.phase_mean.values()) <= report.total_mean


def test_counts_match_opcounter():
    a = generate_dd_bta(6, 4, 0, seed=3)
    report = run_benchmark("rgf", a, repeat=2)
    counter = OpCounter(b=4)
    from btasel import solve_selected

    solve_selected(a, counter=counter)
    assert report.counts == counter.as_dict()
    # Re-blocked into 2 blocks of order 16 (4 + 2 padding): forward +
    # backward, which reuses the forward's S·U.
    assert report.counts_b == counter.b == 16
    assert report.counts["gemm_bbb"] == 2 * (2 - 1) + 4 * (2 - 1)


@pytest.mark.parametrize("algo, parts", [("rgf", 1), ("dist", 2)])
def test_counts_in_one_untimed_warmup(monkeypatch, algo, parts):
    # Counting costs time at small blocks: one solve before the clock
    # starts takes the counts, and the timed solves run without a counter.
    import btasel.bench as bench

    events = []
    solve_once, clock = bench._solve_once, bench.perf_counter

    def solve_spy(algo, a, b, parts, counter, timings):
        events.append("counted" if counter is not None else "uncounted")
        return solve_once(algo, a, b, parts, counter, timings)

    def clock_spy():
        events.append("clock")
        return clock()

    monkeypatch.setattr(bench, "_solve_once", solve_spy)
    monkeypatch.setattr(bench, "perf_counter", clock_spy)
    a = generate_dd_bta(8, 4, 1, seed=8)
    run_benchmark(algo, a, a, mode="siq", parts=parts, repeat=3)
    assert events.count("counted") == 1
    assert events.count("uncounted") == 3
    assert events.index("counted") < events.index("clock")


def test_forward_counts_column():
    # The forward-pass count column reproduces the per-step table figure
    # for the BT selected inversion, 2(n-1) b-sized products, of the
    # system the solve swept: 32 blocks of order 8 re-blocked into 16 of
    # order 16, the order of the total counts (the backward step reuses
    # the forward's S·U: 4 products).
    a = generate_dd_bta(32, 8, 0, seed=6)
    report = run_benchmark("rgf", a, repeat=1)
    assert report.counts_forward["gemm_bbb"] == 2 * (16 - 1)
    assert report.counts["gemm_bbb"] == (2 + 4) * (16 - 1)
    text = report.to_text()
    assert "count_forward_gemm_bbb: 30" in text
    assert "counts_b: 16" in text


def test_rejects_bad_arguments():
    a = generate_dd_bta(4, 2, 0, seed=5)
    with pytest.raises(ValueError):
        run_benchmark("nope", a)
    with pytest.raises(ValueError):
        run_benchmark("rgf", a, repeat=0)


def test_batched_without_rhs_rejected():
    # The column-batched oracle solves "siq" only: a missing right-hand
    # side is a ValueError before any solve.
    a = generate_dd_bta(4, 2, 0, seed=5)
    for mode in (None, "si"):
        with pytest.raises(ValueError, match="requires a right-hand side"):
            run_benchmark("batched", a, mode=mode, repeat=1)


def test_reports_deterministic_except_timing():
    a = generate_dd_bta(6, 4, 1, seed=7)
    texts = [run_benchmark("rgf", a, repeat=2).to_text() for _ in range(2)]
    stable = [
        [ln for ln in t.splitlines() if "_s:" not in ln and "efficiency" not in ln]
        for t in texts
    ]
    assert stable[0] == stable[1]


def test_weak_scaling_reports():
    reports = weak_scaling_sweep(base_n=4, b=8, a=0, parts_list=[1, 2], repeat=2)
    assert [r.parts for r in reports] == [1, 2]
    assert reports[0].n == 4 and reports[1].n == 8
    assert reports[0].parallel_efficiency == 1.0
    assert 0 < reports[1].parallel_efficiency
    text = reports[1].to_text()
    assert "parallel_efficiency:" in text


@pytest.mark.parametrize("field", ["x_a", "x_b"])
@pytest.mark.parametrize("side", ["candidate", "reference"])
def test_nan_block_is_an_infinite_error(side, field):
    # worst = max(worst, nan) keeps worst: a NaN block must not read as 0.
    a = generate_dd_bta(6, 3, 1, seed=6)
    b = hermitianize(generate_dd_bta(6, 3, 1, seed=7))
    sols = {"candidate": solve_selected(a, b), "reference": solve_selected(a, b)}
    assert max_relative_error(sols["candidate"], sols["reference"]) == 0.0
    getattr(sols[side], field).diag[2][:] = float("nan")
    cand, ref = sols["candidate"], sols["reference"]
    assert max_relative_error(cand, ref) == float("inf")
    errors, worst = block_errors(getattr(cand, field), getattr(ref, field))
    assert worst == ("diag", 2, float("inf")) and errors["diag"] == float("inf")
    assert max_block_rel_err(getattr(cand, field), getattr(ref, field)) == float("inf")
