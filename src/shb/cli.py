"""Command line interface.

Subcommands: gen, analyze, solve, sweep, verify.  Exit codes: 0 on
success, 1 on input error, 2 when a solve or verify run diverges (its
output, with diverged_at, is still written), 3 when verify finds an
applicable bound check failing.
"""

from __future__ import annotations

import gc
import json
import sys

import click

import shb.experiments as ex
import shb.io as shio
from shb.errors import ShbError
from shb.problems import Problem, gen_problem, plant_solution
from shb.sketch import SketchDistribution
from shb.solver import SolverParams

INPUT_FORMATS = ("libsvm", "csv", "bundle")


def input_options(command):
    """--input, --format, --sketch and --seed, the options load_input reads."""
    for option in reversed((
        click.option("--input", "input_path", type=click.Path(exists=True), required=True),
        click.option("--format", "fmt", type=click.Choice(INPUT_FORMATS), default="bundle", show_default=True),
        click.option("--sketch", default="row", show_default=True, help="row | block:<tau> | gaussian:<tau>"),
        click.option("--seed", type=int, default=0, show_default=True),
    )):
        command = option(command)
    return command


def exit_on_divergence(ctx: click.Context, payload: dict) -> None:
    """Exit 2 with the diverging iteration when payload has diverged_at."""
    if "diverged_at" in payload:
        click.echo(f"diverged: iterate diverged at iteration {payload['diverged_at']}", err=True)
        ctx.exit(2)


def load_input(path: str, fmt: str, sketch: str, seed: int) -> tuple[Problem, SketchDistribution]:
    """The problem, with b planted from seed for a text input, and the sketch."""
    if fmt == "bundle":
        problem = shio.read_bundle(path)
    else:
        a = shio.parse_libsvm(path) if fmt == "libsvm" else shio.read_csv_matrix(path)
        problem = plant_solution(a, seed, source=f"{fmt}:{path}")
    return problem, ex.make_distribution(sketch, problem.a)


@click.group()
def cli():
    """Stochastic heavy ball solver and verification harness."""


@cli.command()
@click.option("--rows", type=int, required=True)
@click.option("--cols", type=int, required=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "out_path", type=click.Path(), required=True, help="Bundle path (.json).")
def gen(rows, cols, seed, out_path):
    """Generate a synthetic Gaussian problem and write it as a bundle."""
    problem = gen_problem(rows, cols, seed)
    manifest = shio.write_bundle(problem, out_path)
    click.echo(f"wrote {manifest} ({rows}x{cols}, seed={seed})")


@cli.command()
@input_options
@click.option("--omega", multiple=True, type=float, default=(1.0,), show_default=True)
@click.option("--beta", type=float, default=0.0, show_default=True)
@click.option("--out", "out_path", type=click.Path(), default=None)
def analyze(input_path, fmt, sketch, omega, beta, seed, out_path):
    """Report the sketch spectrum and every closed-form rate constant."""
    problem, dist = load_input(input_path, fmt, sketch, seed)
    payload = ex.analyze(problem, dist, omegas=tuple(omega), beta=beta)
    if out_path:
        shio.write_json(payload, out_path)
        click.echo(f"wrote {out_path}")
    else:
        click.echo(json.dumps(payload, indent=2))


@cli.command()
@input_options
@click.option("--omega", type=float, default=1.0, show_default=True)
@click.option("--beta", type=float, default=0.0, show_default=True)
@click.option("--iters", type=int, default=1000, show_default=True)
@click.option("--record-every", type=int, default=1, show_default=True)
@click.option("--out", "out_path", type=click.Path(), required=True, help="Trace path (.csv or .json).")
@click.pass_context
def solve(ctx, input_path, fmt, sketch, omega, beta, iters, record_every, seed, out_path):
    """Run one (omega, beta) configuration and write its trace.

    Exits 2 when the iterate diverges, after writing the trace up to it.
    """
    problem, dist = load_input(input_path, fmt, sketch, seed)
    params = SolverParams(omega=omega, beta=beta, max_iter=iters, seed=seed, record_every=record_every)
    payload = ex.solve(problem, dist, params)
    if str(out_path).endswith(".json"):
        shio.write_json(payload, out_path)
    else:
        ex.write_trace_csv(payload, out_path)
    click.echo(f"wrote {out_path} ({len(payload['rows'])} records)")
    exit_on_divergence(ctx, payload)


@cli.command()
@input_options
@click.option("--omega", type=float, default=1.0, show_default=True)
@click.option("--betas", required=True, help="Comma-separated momentum values.")
@click.option("--iters", type=int, default=1000, show_default=True)
@click.option("--record-every", type=int, default=1, show_default=True)
@click.option("--out", "out_dir", type=click.Path(), required=True, help="Output directory.")
def sweep(input_path, fmt, sketch, omega, betas, iters, record_every, seed, out_dir):
    """Compare several momentum values on one problem."""
    try:
        beta_values = [float(t) for t in betas.split(",") if t.strip()]
    except ValueError:
        raise ShbError(f"cannot parse --betas {betas!r}") from None
    problem, dist = load_input(input_path, fmt, sketch, seed)
    pairs = tuple((omega, b) for b in beta_values)
    long_rows, summaries = ex.sweep(problem, dist, pairs, iters, record_every, seed)
    long_path, summary_path = ex.write_sweep_outputs(long_rows, summaries, out_dir)
    click.echo(f"wrote {long_path} and {summary_path}")
    for s in summaries:
        hits = ", ".join(
            f"{t:g}:{s.get(f'iters_to_{t:g}') if s.get(f'iters_to_{t:g}') is not None else '-'}"
            for t in ex.SWEEP_THRESHOLDS
        )
        status = f"diverged at {s['diverged_at']}" if "diverged_at" in s else s["status"]
        click.echo(f"  pair {s['pair_id']} omega={s['omega']:g} beta={s['beta']:g} [{status}] {hits}")


@cli.command()
@input_options
@click.option("--omega", type=float, default=1.0, show_default=True)
@click.option("--beta", type=float, default=0.0, show_default=True)
@click.option("--iters", type=int, default=200, show_default=True)
@click.option("--record-every", type=int, default=10, show_default=True)
@click.option("--reps", type=int, default=1000, show_default=True)
@click.option("--out", "out_path", type=click.Path(), default=None)
@click.pass_context
def verify(ctx, input_path, fmt, sketch, omega, beta, iters, record_every, reps, seed, out_path):
    """Monte Carlo verification of the convergence bounds.

    Exits 3 when an applicable bound check fails and 2 when a replication
    diverges (the report then has diverged_at and no checks); the report
    is still written.  Exits 1 before any run when the expected-iterate
    check applies but fewer than 2 records fall in its fit window.
    """
    problem, dist = load_input(input_path, fmt, sketch, seed)
    params = SolverParams(omega=omega, beta=beta, max_iter=iters, seed=seed, record_every=record_every)
    report = ex.verify(problem, dist, params, replications=reps)
    if out_path:
        shio.write_json(report, out_path)
        click.echo(f"wrote {out_path}")
    exit_on_divergence(ctx, report)
    for name in ("l2", "cesaro", "l1", "l1_le_l2"):
        section = report[name]
        status = "n/a" if not section.get("applicable") else ("PASS" if section.get("pass") else "FAIL")
        click.echo(f"  {name}: {status}")
    click.echo(f"overall: {'PASS' if report['pass'] else 'FAIL'}")
    if not report["pass"]:
        ctx.exit(3)


def main(argv=None) -> int:
    """Run the CLI, mapping errors onto the documented exit codes."""
    try:
        # without standalone mode click returns the code of ctx.exit (and --help)
        return cli.main(args=argv, standalone_mode=False, prog_name="shb") or 0
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return 1
    except (ShbError, OSError) as exc:
        click.echo(f"error: {exc}", err=True)
        return 1


def entry() -> None:
    """The console script.  The heap the imports built lives until exit, so
    it is frozen out of every collection, the one at exit included; main,
    which tests and library callers run in-process, freezes nothing."""
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    entry()
