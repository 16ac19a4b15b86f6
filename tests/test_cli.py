import os
import socket
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import btasel
from btasel import generate_dd_bta, read_bta, read_bta_header, solve_selected, write_bta
from btasel.cli import PRESETS, main


@pytest.fixture
def runner():
    return CliRunner()


def _generate_files(tmp_path, runner, n=6, b=3, a=1, seed=7, hermitian=True):
    a_path = tmp_path / "a.bta"
    b_path = tmp_path / "b.bta"
    args = [
        "generate", "--n", str(n), "--b", str(b), "--a", str(a),
        "--seed", str(seed), "--out-a", str(a_path), "--out-b", str(b_path),
    ]
    if hermitian:
        args.append("--hermitian-b")
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    return a_path, b_path


class TestGenerate:
    def test_deterministic_files_bitwise(self, tmp_path, runner):
        p1, p2 = tmp_path / "m1.bta", tmp_path / "m2.bta"
        for path in (p1, p2):
            result = runner.invoke(
                main,
                ["generate", "--n", "4", "--b", "2", "--a", "1", "--seed", "7",
                 "--out-a", str(path)],
            )
            assert result.exit_code == 0, result.output
        assert p1.read_bytes() == p2.read_bytes()

    def test_invalid_n_is_usage_error(self, tmp_path, runner):
        result = runner.invoke(
            main, ["generate", "--n", "0", "--b", "2", "--out-a", str(tmp_path / "x")]
        )
        assert result.exit_code == 2

    def test_presets_match_synthetic_dataset_table(self):
        assert PRESETS["sd-32"] == (32, 1024, 0)
        assert set(PRESETS) == {f"sd-{n}" for n in (32, 64, 128, 256, 512, 1024)}
        assert all(b == 1024 and a == 0 for _, b, a in PRESETS.values())

    def test_preset_sd32_writes_declared_header(self, tmp_path, runner):
        # The smallest synthetic-dataset preset really is (32, 1024, 0);
        # this writes ~1.5 GiB, so only the header is inspected.
        path = tmp_path / "sd32.bta"
        result = runner.invoke(
            main, ["generate", "--preset", "sd-32", "--out-a", str(path)]
        )
        assert result.exit_code == 0, result.output
        assert read_bta_header(path) == (32, 1024, 0)
        path.unlink()

    def test_preset_conflicts_with_explicit_shape(self, tmp_path, runner):
        result = runner.invoke(
            main,
            ["generate", "--preset", "sd-32", "--n", "4", "--b", "2",
             "--out-a", str(tmp_path / "x")],
        )
        assert result.exit_code == 2

    def test_hermitian_rhs(self, tmp_path, runner):
        _, b_path = _generate_files(tmp_path, runner)
        rhs = read_bta(b_path)
        for i in range(rhs.n - 1):
            np.testing.assert_array_equal(rhs.upper[i], rhs.lower[i].conj().T)


class TestSolve:
    def test_rgf_solution_file(self, tmp_path, runner):
        a_path, b_path = _generate_files(tmp_path, runner)
        out = tmp_path / "x.bta"
        result = runner.invoke(
            main,
            ["solve", "--algo", "rgf", "--mode", "siq", "--a-file", str(a_path),
             "--b-file", str(b_path), "--out", str(out), "--counts"],
        )
        assert result.exit_code == 0, result.output
        assert out.exists() and (tmp_path / "x.bta.xb").exists()
        assert "count_gemm_bbb" in result.output
        # The counts classify products against the order solved at: 6
        # blocks of order 3 are re-blocked into 2 of order 15.
        assert "counts_b: 15" in result.output
        got = read_bta(out)
        expected = solve_selected(read_bta(a_path), read_bta(b_path), "siq")
        assert got.equals_exact(expected.x_a)

    @pytest.mark.parametrize("algo, solver, extra", [
        ("rgf", "solve_selected", []),
        ("dist", "dist_solve", ["--parts", "2"]),
        ("dense", "dense_solve", []),
        ("batched", "batched_solve", []),
    ])
    @pytest.mark.parametrize("counts", [False, True])
    def test_solver_gets_a_counter_only_with_counts(
        self, monkeypatch, tmp_path, runner, algo, solver, extra, counts
    ):
        # A tally costs about a fifth of a small-block solve.
        import btasel.cli as cli

        real, seen = getattr(cli, solver), []

        def spy(*args, counter=None, **kwargs):
            seen.append(counter)
            return real(*args, counter=counter, **kwargs)

        monkeypatch.setattr(cli, solver, spy)
        a_path, b_path = _generate_files(tmp_path, runner)
        result = runner.invoke(
            main,
            ["solve", "--algo", algo, "--mode", "siq", "--a-file", str(a_path),
             "--b-file", str(b_path), "--out", str(tmp_path / "x.bta")]
            + extra + (["--counts"] if counts else []),
        )
        assert result.exit_code == 0, result.output
        assert len(seen) == 1
        assert isinstance(seen[0], btasel.OpCounter) if counts else seen[0] is None
        assert ("counts_b:" in result.output) == counts

    def test_dist_single_part_bitwise_equals_rgf(self, tmp_path, runner):
        a_path, _ = _generate_files(tmp_path, runner)
        out_rgf, out_dist = tmp_path / "rgf.bta", tmp_path / "dist.bta"
        for algo, out, extra in (("rgf", out_rgf, []), ("dist", out_dist, ["--parts", "1"])):
            result = runner.invoke(
                main,
                ["solve", "--algo", algo, "--a-file", str(a_path), "--out", str(out)] + extra,
            )
            assert result.exit_code == 0, result.output
        assert out_rgf.read_bytes() == out_dist.read_bytes()

    def test_siq_without_rhs_is_usage_error(self, tmp_path, runner):
        a_path, _ = _generate_files(tmp_path, runner)
        result = runner.invoke(
            main,
            ["solve", "--algo", "rgf", "--mode", "siq", "--a-file", str(a_path),
             "--out", str(tmp_path / "x.bta")],
        )
        assert result.exit_code == 2

    def test_dist_without_parts_is_usage_error(self, tmp_path, runner):
        a_path, _ = _generate_files(tmp_path, runner)
        result = runner.invoke(
            main,
            ["solve", "--algo", "dist", "--a-file", str(a_path),
             "--out", str(tmp_path / "x.bta")],
        )
        assert result.exit_code == 2

    def test_dense_guard_exceeded_is_usage_error(self, tmp_path, runner):
        a_path = tmp_path / "big.bta"
        write_bta(generate_dd_bta(3, 2, 0, seed=1), a_path)
        import btasel.baselines as baselines

        old = baselines.DEFAULT_DENSE_GUARD
        try:
            baselines.DEFAULT_DENSE_GUARD = 4
            result = CliRunner().invoke(
                main,
                ["solve", "--algo", "dense", "--a-file", str(a_path),
                 "--out", str(tmp_path / "x.bta")],
            )
        finally:
            baselines.DEFAULT_DENSE_GUARD = old
        assert result.exit_code == 2
        assert "guard" in result.output

    def test_singular_input_is_numerical_error(self, tmp_path, runner):
        # Block row and column 0 are zero: the matrix itself is singular.
        m = generate_dd_bta(3, 2, 0, seed=1)
        m.diag[0][:] = 0.0
        m.lower[0][:] = m.upper[0][:] = 0.0
        a_path = tmp_path / "singular.bta"
        write_bta(m, a_path)
        result = runner.invoke(
            main,
            ["solve", "--algo", "rgf", "--a-file", str(a_path),
             "--out", str(tmp_path / "x.bta")],
        )
        assert result.exit_code == 3

    def test_missing_file_is_io_error(self, tmp_path, runner):
        result = runner.invoke(
            main,
            ["solve", "--algo", "rgf", "--a-file", str(tmp_path / "nope.bta"),
             "--out", str(tmp_path / "x.bta")],
        )
        assert result.exit_code == 4


class TestVerify:
    def test_rgf_against_dense_passes(self, tmp_path, runner):
        a_path, b_path = _generate_files(tmp_path, runner)
        out = tmp_path / "x.bta"
        runner.invoke(
            main,
            ["solve", "--algo", "rgf", "--a-file", str(a_path), "--out", str(out)],
        )
        result = runner.invoke(
            main,
            ["verify", "--candidate", str(out), "--a-file", str(a_path),
             "--reference", "dense", "--tol", "1e-10"],
        )
        assert result.exit_code == 0, result.output
        assert "verdict: pass" in result.output

    def test_identical_solutions_error_zero(self, tmp_path, runner):
        a_path, _ = _generate_files(tmp_path, runner)
        out = tmp_path / "x.bta"
        runner.invoke(
            main, ["solve", "--algo", "dense", "--a-file", str(a_path), "--out", str(out)]
        )
        result = runner.invoke(
            main,
            ["verify", "--candidate", str(out), "--a-file", str(a_path),
             "--reference", "dense", "--tol", "1e-30"],
        )
        assert result.exit_code == 0
        assert "rel_err=0" in result.output

    def test_corrupted_candidate_fails_with_worst_block(self, tmp_path, runner):
        a_path, _ = _generate_files(tmp_path, runner)
        out = tmp_path / "x.bta"
        runner.invoke(
            main, ["solve", "--algo", "rgf", "--a-file", str(a_path), "--out", str(out)]
        )
        bad = read_bta(out)
        bad.diag[2][0, 0] += 1.0
        write_bta(bad, out)
        result = runner.invoke(
            main,
            ["verify", "--candidate", str(out), "--a-file", str(a_path),
             "--tol", "1e-10"],
        )
        assert result.exit_code == 1
        assert "worst_block: diag[2]" in result.output
        assert "verdict: fail" in result.output

    def test_xb_verification(self, tmp_path, runner):
        a_path, b_path = _generate_files(tmp_path, runner)
        out = tmp_path / "x.bta"
        result = runner.invoke(
            main,
            ["solve", "--algo", "rgf", "--mode", "siq", "--a-file", str(a_path),
             "--b-file", str(b_path), "--out", str(out)],
        )
        assert result.exit_code == 0
        result = runner.invoke(
            main,
            ["verify", "--candidate", str(out) + ".xb", "--a-file", str(a_path),
             "--b-file", str(b_path), "--which", "xb", "--tol", "1e-10"],
        )
        assert result.exit_code == 0, result.output


class TestBench:
    def test_report_file(self, tmp_path, runner):
        report = tmp_path / "report.txt"
        result = runner.invoke(
            main,
            ["bench", "--algo", "rgf", "--n", "8", "--b", "4", "--repeat", "3",
             "--report", str(report)],
        )
        assert result.exit_code == 0, result.output
        text = report.read_text()
        assert "solver: rgf" in text
        assert "phase_forward_mean_s:" in text
        assert "phase_forward_ci95_s:" in text
        assert "count_gemm_bbb:" in text

    def test_weak_scaling_emits_eta_per_point(self, tmp_path, runner):
        report = tmp_path / "weak.txt"
        result = runner.invoke(
            main,
            ["bench", "--n", "4", "--b", "8", "--repeat", "2",
             "--weak-scale", "1,2", "--report", str(report)],
        )
        assert result.exit_code == 0, result.output
        for parts in (1, 2):
            text = (tmp_path / f"weak.txt-p{parts}").read_text()
            assert "parallel_efficiency:" in text

    def test_bad_weak_scale_list(self, runner):
        result = runner.invoke(
            main, ["bench", "--n", "4", "--b", "2", "--weak-scale", "1,x"]
        )
        assert result.exit_code == 2


def _free_port():
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def test_solve_dist_over_sockets_subprocess(tmp_path):
    # Two OS processes run the same CLI command against the same input;
    # rank 0 writes the output file.
    a_path = tmp_path / "a.bta"
    write_bta(generate_dd_bta(8, 2, 1, seed=3), a_path)
    out = tmp_path / "x.bta"
    port = _free_port()
    # The children get an isolated environment, but they must import the
    # same btasel as this process, whether it runs from source or installed.
    pythonpath = os.pathsep.join(filter(None, [
        str(Path(btasel.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH"),
    ]))
    procs = []
    try:
        for rank in range(2):
            env = {
                "BTASEL_WORLD_SIZE": "2",
                "BTASEL_RANK": str(rank),
                "BTASEL_RENDEZVOUS": f"127.0.0.1:{port}",
                "PATH": "/usr/bin:/bin",
                "PYTHONPATH": pythonpath,
            }
            procs.append(
                subprocess.Popen(
                    [sys.executable, "-m", "btasel.cli", "solve", "--algo", "dist",
                     "--parts", "2", "--transport", "sockets",
                     "--a-file", str(a_path), "--out", str(out)],
                    env=env,
                    stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE,
                )
            )
        results = [p.communicate(timeout=120) for p in procs]
    finally:
        # A rank that failed or timed out may leave its peer blocked on the
        # socket; never leave a child running past the test.
        for p in procs:
            if p.poll() is None:
                p.kill()
                p.communicate()
    report = "\n".join(
        f"rank {rank}: exit {p.returncode}\n{errs.decode()}"
        for rank, (p, (_, errs)) in enumerate(zip(procs, results))
    )
    assert [p.returncode for p in procs] == [0, 0], report
    a = read_bta(a_path)
    expected = solve_selected(a, None, "si")
    got = read_bta(out)
    # Distributed vs sequential agreement at solver tolerance:
    from conftest import max_block_rel_err

    assert max_block_rel_err(got, expected.x_a) <= 1e-9


def test_singular_input_in_dist_worker_is_numerical_error(tmp_path):
    from click.testing import CliRunner

    m = generate_dd_bta(8, 2, 0, seed=1)
    m.diag[0][:] = 0.0
    a_path = tmp_path / "singular.bta"
    write_bta(m, a_path)
    result = CliRunner().invoke(
        main,
        ["solve", "--algo", "dist", "--parts", "2", "--a-file", str(a_path),
         "--out", str(tmp_path / "x.bta")],
    )
    assert result.exit_code == 3
