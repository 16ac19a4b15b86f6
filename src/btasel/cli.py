"""Command-line surface: generate, solve, verify, bench.

Every subcommand is a thin composition of library calls; no numerical
logic lives here.  Exit codes: 0 success, 1 verification failure,
2 usage error, 3 numerical failure (singularity), 4 I/O or format error.
"""

from __future__ import annotations

import functools
import sys
from pathlib import Path

import click

from .baselines import batched_solve, dense_solve
from .bench import BenchReport, block_errors, run_benchmark, weak_scaling_sweep
from .collectives import SocketCollectives
from .dist import dist_solve
from .errors import (
    DenseGuardError,
    FormatError,
    ProtocolError,
    ShapeMismatchError,
    SingularBlockError,
    WorkerError,
)
from .fileio import read_bta, write_bta
from .kernels import OpCounter
from .matrix import generate_dd_bta, hermitianize
from .partition import plan_partitions
from .rgf import solve_selected
from .threads import set_blas_threads

EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

_POSITIVE = click.IntRange(min=1)

# Synthetic-dataset presets: fixed 1024 block size, growing block counts.
PRESETS = {f"sd-{n}": (n, 1024, 0) for n in (32, 64, 128, 256, 512, 1024)}


def _exit_codes(func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        try:
            return func(*args, **kwargs)
        except WorkerError as exc:
            if isinstance(exc.cause, SingularBlockError):
                click.echo(f"numerical failure: {exc}", err=True)
                sys.exit(EXIT_NUMERICAL)
            click.echo(f"worker failure: {exc}", err=True)
            sys.exit(EXIT_IO)
        except SingularBlockError as exc:
            click.echo(f"numerical failure: {exc}", err=True)
            sys.exit(EXIT_NUMERICAL)
        except (click.UsageError, DenseGuardError, ShapeMismatchError) as exc:
            click.echo(f"usage error: {exc}", err=True)
            sys.exit(EXIT_USAGE)
        except FormatError as exc:
            click.echo(f"format error: {exc}", err=True)
            sys.exit(EXIT_IO)
        except ProtocolError as exc:
            click.echo(f"transport failure: {exc}", err=True)
            sys.exit(EXIT_IO)
        except OSError as exc:
            click.echo(f"i/o error: {exc}", err=True)
            sys.exit(EXIT_IO)

    return wrapper


@click.group()
def main():
    """Selected inversion and quadratic solution for BT/BTA matrices."""


def _resolve_shape(preset, n, b, a):
    if preset is not None:
        if preset not in PRESETS:
            raise click.UsageError(
                f"unknown preset {preset!r}; choose from {', '.join(sorted(PRESETS))}"
            )
        if n is not None or b is not None:
            raise click.UsageError("give either --preset or explicit --n/--b, not both")
        return PRESETS[preset]
    if n is None or b is None:
        raise click.UsageError("either --preset or both --n and --b are required")
    return n, b, a


def _check_parts(n: int, parts: int, option: str = "--parts") -> None:
    """A usage error unless ``parts`` workers can split ``n`` blocks; one
    worker runs the sequential solver."""
    try:
        if parts != 1:
            plan_partitions(n, parts)
    except ValueError as exc:
        raise click.UsageError(f"{option} {parts}: {exc}") from exc


@main.command("generate")
@click.option("--n", type=_POSITIVE, default=None, help="Number of diagonal blocks.")
@click.option("--b", type=_POSITIVE, default=None, help="Diagonal block size.")
@click.option("--a", "arrow", type=click.IntRange(min=0), default=0,
              help="Arrow tip size (0 = plain BT).")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--dominance", type=click.FloatRange(min=1), default=1.5, show_default=True)
@click.option("--hermitian-b", is_flag=True, help="Make the right-hand side Hermitian.")
@click.option("--preset", type=str, default=None, help="Named shape, e.g. sd-32.")
@click.option("--out-a", type=click.Path(path_type=Path), required=True)
@click.option("--out-b", type=click.Path(path_type=Path), default=None)
@_exit_codes
def cmd_generate(n, b, arrow, seed, dominance, hermitian_b, preset, out_a, out_b):
    """Write deterministic diagonally dominant test matrices."""
    n, b, arrow = _resolve_shape(preset, n, b, arrow)
    matrix = generate_dd_bta(n, b, arrow, seed=seed, dominance=dominance)
    write_bta(matrix, out_a)
    click.echo(f"wrote {out_a} (n={n}, b={b}, a={arrow}, seed={seed})")
    if out_b is not None:
        rhs = generate_dd_bta(n, b, arrow, seed=seed + 1, dominance=dominance)
        if hermitian_b:
            rhs = hermitianize(rhs)
        write_bta(rhs, out_b)
        click.echo(f"wrote {out_b} (right-hand side, hermitian={hermitian_b})")


@main.command("solve")
@click.option("--algo", type=click.Choice(["rgf", "dist", "dense", "batched"]), required=True)
@click.option("--mode", type=click.Choice(["si", "siq"]), default="si", show_default=True)
@click.option("--parts", type=int, default=None, help="Worker count for --algo dist.")
@click.option("--a-file", type=click.Path(path_type=Path), required=True)
@click.option("--b-file", type=click.Path(path_type=Path), default=None)
@click.option("--out", type=click.Path(path_type=Path), required=True)
@click.option("--out-b", type=click.Path(path_type=Path), default=None,
              help="X_B output path (default: <out>.xb).")
@click.option("--counts", is_flag=True, help="Print operation counts.")
@click.option("--transport", type=click.Choice(["threads", "sockets"]), default="threads",
              show_default=True, help="Distributed transport (sockets reads env config).")
@click.option("--blas-threads", type=_POSITIVE, default=None,
              help="Cap BLAS threads (recommended: 1 for small blocks).")
@_exit_codes
def cmd_solve(algo, mode, parts, a_file, b_file, out, out_b, counts, transport, blas_threads):
    """Run a solver on BTA1 input files and write the solution file(s)."""
    if blas_threads is not None:
        set_blas_threads(blas_threads)
    if mode == "siq" and b_file is None:
        raise click.UsageError("--mode siq requires --b-file")
    if algo == "dist" and parts is None:
        raise click.UsageError("--algo dist requires --parts")
    if algo == "batched" and b_file is None:
        raise click.UsageError("--algo batched requires --b-file")
    a = read_bta(a_file)
    b = read_bta(b_file) if b_file is not None else None
    if algo == "dist":
        _check_parts(a.n, parts)

    # A tally costs about a fifth of a small-block solve: only on request.
    counter = OpCounter(b=a.b, a=a.a) if counts else None
    timings: dict = {}
    if algo == "rgf":
        sol = solve_selected(a, b, mode, counter=counter, timings=timings)
    elif algo == "dense":
        sol = dense_solve(a, b, mode, counter=counter, timings=timings)
    elif algo == "batched":
        sol = batched_solve(a, b, counter=counter)
    else:
        sock = SocketCollectives.from_env() if transport == "sockets" else None
        sol = dist_solve(
            a, b, num_parts=parts, mode=mode, transport=sock,
            counter=counter, timings=timings,
        )
        if sock is not None:
            sock.close()
            if sol is None:  # non-root rank of a multi-process run
                click.echo(f"rank {sock.rank}: slice computed, root writes output")
                return

    write_bta(sol.x_a, out)
    click.echo(f"wrote {out}")
    if sol.x_b is not None:
        out_b = out_b if out_b is not None else Path(str(out) + ".xb")
        write_bta(sol.x_b, out_b)
        click.echo(f"wrote {out_b}")
    for phase, seconds in timings.items():
        click.echo(f"phase_{phase}_s: {seconds:.6f}")
    if counts:
        click.echo(f"counts_b: {counter.b}")
        for key, value in counter.as_dict().items():
            click.echo(f"count_{key}: {value}")


@main.command("verify")
@click.option("--candidate", type=click.Path(path_type=Path), required=True)
@click.option("--a-file", type=click.Path(path_type=Path), required=True)
@click.option("--b-file", type=click.Path(path_type=Path), default=None)
@click.option("--reference", type=click.Choice(["dense", "rgf"]), default="dense",
              show_default=True)
@click.option("--which", type=click.Choice(["xa", "xb"]), default="xa", show_default=True)
@click.option("--tol", type=float, default=1e-10, show_default=True)
@_exit_codes
def cmd_verify(candidate, a_file, b_file, reference, which, tol):
    """Compare a solution file against a freshly computed reference."""
    cand = read_bta(candidate)
    a = read_bta(a_file)
    b = read_bta(b_file) if b_file is not None else None
    if which == "xb" and b is None:
        raise click.UsageError("--which xb requires --b-file")
    solver = dense_solve if reference == "dense" else solve_selected
    ref_sol = solver(a, b, "siq" if which == "xb" else "si")
    ref = ref_sol.x_a if which == "xa" else ref_sol.x_b
    if cand.shape_params != ref.shape_params:
        raise ShapeMismatchError(
            f"candidate shape {cand.shape_params} != reference {ref.shape_params}"
        )
    errors, worst = block_errors(cand, ref)
    for kind in ("diag", "lower", "upper", "arrow_row", "arrow_col", "tip"):
        if kind in errors:
            click.echo(f"max_rel_fro_{kind}: {errors[kind]:.3e}")
    status = "pass" if worst[2] <= tol else "fail"
    click.echo(f"worst_block: {worst[0]}[{worst[1]}] rel_err={worst[2]:.3e}")
    click.echo(f"verdict: {status} (tol={tol:.1e})")
    if status == "fail":
        sys.exit(EXIT_VERIFY_FAIL)


@main.command("bench")
@click.option("--algo", type=click.Choice(["rgf", "dist", "dense", "batched"]), default="rgf",
              show_default=True)
@click.option("--mode", type=click.Choice(["si", "siq"]), default="si", show_default=True)
@click.option("--parts", type=int, default=1, show_default=True)
@click.option("--repeat", type=_POSITIVE, default=10, show_default=True)
@click.option("--preset", type=str, default=None)
@click.option("--n", type=_POSITIVE, default=None)
@click.option("--b", type=_POSITIVE, default=None)
@click.option("--a", "arrow", type=click.IntRange(min=0), default=0)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--report", type=click.Path(path_type=Path), default=None,
              help="Write the report(s) to file(s) instead of stdout.")
@click.option("--weak-scale", type=str, default=None,
              help="Comma-separated worker counts; n scales with P at fixed b.")
@click.option("--blas-threads", type=_POSITIVE, default=None,
              help="Cap BLAS threads (recommended: 1 for small blocks).")
@_exit_codes
def cmd_bench(algo, mode, parts, repeat, preset, n, b, arrow, seed, report, weak_scale,
              blas_threads):
    """Benchmark a solver; in weak-scaling mode, one report per point."""
    if blas_threads is not None:
        set_blas_threads(blas_threads)
    n, b, arrow = _resolve_shape(preset, n, b, arrow)

    if weak_scale is not None:
        try:
            parts_list = [int(p) for p in weak_scale.split(",") if p]
        except ValueError as exc:
            raise click.UsageError(f"bad --weak-scale list: {exc}") from exc
        if not parts_list:
            raise click.UsageError("--weak-scale lists no worker count")
        for p in parts_list:
            _check_parts(n * p, p, "--weak-scale")
        reports = weak_scaling_sweep(
            base_n=n, b=b, a=arrow, parts_list=parts_list,
            mode=mode, repeat=repeat, seed=seed,
        )
        for rep in reports:
            _emit_report(rep, report, suffix=f"-p{rep.parts}")
        return

    if algo == "dist":
        _check_parts(n, parts)
    system = generate_dd_bta(n, b, arrow, seed=seed)
    rhs = None
    if mode == "siq" or algo == "batched":
        rhs = hermitianize(generate_dd_bta(n, b, arrow, seed=seed + 1))
        mode = "siq"
    rep = run_benchmark(algo, system, rhs, mode=mode, parts=parts, repeat=repeat)
    _emit_report(rep, report)


def _emit_report(rep: BenchReport, path: Path | None, suffix: str = ""):
    text = rep.to_text()
    if path is None:
        click.echo(text, nl=False)
        return
    target = Path(str(path) + suffix) if suffix else path
    target.write_text(text)
    click.echo(f"wrote {target}")


if __name__ == "__main__":
    main()
