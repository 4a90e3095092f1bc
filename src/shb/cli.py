"""Command line interface.

Subcommands: gen, analyze, solve, sweep, verify.  Exit codes: 0 on
success, 1 on input error, 2 when a solve or verify run diverges (its
output, with diverged_at, is still written), 3 when verify finds an
applicable bound check failing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys

import shb.experiments as ex
import shb.io as shio
from shb.errors import ShbError
from shb.problems import Problem, gen_problem, plant_solution
from shb.sketch import SketchDistribution
from shb.solver import SolverParams

INPUT_FORMATS = ("libsvm", "csv", "bundle")


class UsageError(ShbError):
    """The arguments do not name a command and its options."""


class _Parser(argparse.ArgumentParser):
    """An argparse parser that raises its usage errors for main to report."""

    def error(self, message):
        raise UsageError(message)


def _echo(message: str, err: bool = False) -> None:
    """One line to stdout, or to stderr with err, flushed as it is written,
    so a log that takes both streams keeps their order."""
    print(message, file=sys.stderr if err else sys.stdout, flush=True)


def divergence_exit(payload: dict) -> int:
    """2, after saying at which iteration, when payload has diverged_at; else 0."""
    if "diverged_at" not in payload:
        return 0
    _echo(f"diverged: iterate diverged at iteration {payload['diverged_at']}", err=True)
    return 2


def load_input(path: str, fmt: str, sketch: str, seed: int) -> tuple[Problem, SketchDistribution]:
    """The problem, with b planted from seed for a text input, and the sketch."""
    if fmt == "bundle":
        problem = shio.read_bundle(path)
    else:
        a = shio.parse_libsvm(path) if fmt == "libsvm" else shio.read_csv_matrix(path)
        problem = plant_solution(a, seed, source=f"{fmt}:{path}")
    return problem, ex.make_distribution(sketch, problem.a)


def gen(rows, cols, seed, out_path) -> int:
    """Generate a synthetic Gaussian problem and write it as a bundle."""
    problem = gen_problem(rows, cols, seed)
    manifest = shio.write_bundle(problem, out_path)
    _echo(f"wrote {manifest} ({rows}x{cols}, seed={seed})")
    return 0


def analyze(input_path, fmt, sketch, omega, beta, seed, out_path) -> int:
    """Report the sketch spectrum and every closed-form rate constant."""
    problem, dist = load_input(input_path, fmt, sketch, seed)
    payload = ex.analyze(problem, dist, omegas=tuple(omega or (1.0,)), beta=beta)
    if out_path:
        shio.write_json(payload, out_path)
        _echo(f"wrote {out_path}")
    else:
        _echo(json.dumps(payload, indent=2))
    return 0


def solve(input_path, fmt, sketch, omega, beta, iters, record_every, seed, out_path) -> int:
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
    _echo(f"wrote {out_path} ({len(payload['rows'])} records)")
    return divergence_exit(payload)


def sweep(input_path, fmt, sketch, omega, betas, iters, record_every, seed, out_dir) -> int:
    """Compare several momentum values on one problem."""
    try:
        beta_values = [float(t) for t in betas.split(",") if t.strip()]
    except ValueError:
        raise ShbError(f"cannot parse --betas {betas!r}") from None
    problem, dist = load_input(input_path, fmt, sketch, seed)
    pairs = tuple((omega, b) for b in beta_values)
    long_rows, summaries = ex.sweep(problem, dist, pairs, iters, record_every, seed)
    long_path, summary_path = ex.write_sweep_outputs(long_rows, summaries, out_dir)
    _echo(f"wrote {long_path} and {summary_path}")
    for s in summaries:
        hits = ", ".join(
            f"{t:g}:{s.get(f'iters_to_{t:g}') if s.get(f'iters_to_{t:g}') is not None else '-'}"
            for t in ex.SWEEP_THRESHOLDS
        )
        status = f"diverged at {s['diverged_at']}" if "diverged_at" in s else s["status"]
        _echo(f"  pair {s['pair_id']} omega={s['omega']:g} beta={s['beta']:g} [{status}] {hits}")
    return 0


def verify(input_path, fmt, sketch, omega, beta, iters, record_every, reps, seed, out_path) -> int:
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
        _echo(f"wrote {out_path}")
    code = divergence_exit(report)
    if code:
        return code
    for name in ("l2", "cesaro", "l1", "l1_le_l2"):
        section = report[name]
        status = "n/a" if not section.get("applicable") else ("PASS" if section.get("pass") else "FAIL")
        _echo(f"  {name}: {status}")
    _echo(f"overall: {'PASS' if report['pass'] else 'FAIL'}")
    return 0 if report["pass"] else 3


# each command's options as (flag, argparse keywords); every one takes a value
INPUT_OPTIONS = (
    ("--input", dict(dest="input_path", metavar="PATH", required=True, help="input file")),
    ("--format", dict(dest="fmt", choices=INPUT_FORMATS, default="bundle", help="input format")),
    ("--sketch", dict(default="row", help="row | block:<tau> | gaussian:<tau>")),
    ("--seed", dict(type=int, default=0, help="seed of every random stream")),
)
OMEGA = ("--omega", dict(type=float, default=1.0, help="stepsize"))
BETA = ("--beta", dict(type=float, default=0.0, help="momentum"))


def _schedule(iters: int, record_every: int) -> tuple:
    return (
        ("--iters", dict(type=int, default=iters, help="iterations")),
        ("--record-every", dict(type=int, default=record_every, help="iterations between records")),
    )


COMMANDS = (
    (gen, (
        ("--rows", dict(type=int, required=True, help="rows of A")),
        ("--cols", dict(type=int, required=True, help="columns of A")),
        ("--seed", dict(type=int, default=0, help="seed of A and of the planted solution")),
        ("--out", dict(dest="out_path", metavar="PATH", required=True, help="bundle path (.json)")),
    )),
    (analyze, INPUT_OPTIONS + (
        ("--omega", dict(type=float, action="append", help="stepsize; repeat for several (default: 1.0)")),
        BETA,
        ("--out", dict(dest="out_path", metavar="PATH", help="report path (.json); stdout without it")),
    )),
    (solve, INPUT_OPTIONS + (OMEGA, BETA) + _schedule(1000, 1) + (
        ("--out", dict(dest="out_path", metavar="PATH", required=True, help="trace path (.csv or .json)")),
    )),
    (sweep, INPUT_OPTIONS + (
        OMEGA,
        ("--betas", dict(required=True, help="comma-separated momentum values")),
    ) + _schedule(1000, 1) + (
        ("--out", dict(dest="out_dir", metavar="DIR", required=True, help="output directory")),
    )),
    (verify, INPUT_OPTIONS + (OMEGA, BETA) + _schedule(200, 10) + (
        ("--reps", dict(type=int, default=1000, help="replications")),
        ("--out", dict(dest="out_path", metavar="PATH", help="report path (.json)")),
    )),
)


def _help(parser: argparse.ArgumentParser) -> None:
    """--help alone: argparse's own help option would add -h."""
    parser.add_argument("--help", action="help", help="show this message and exit")


def _build_parser() -> _Parser:
    """One parser for shb and a subparser per command.  No abbreviation is
    taken (--inp is not --input), and --help is the only option without a
    value."""
    parser = _Parser(
        prog="shb", description="Stochastic heavy ball solver and verification harness.",
        add_help=False, allow_abbrev=False,
    )
    _help(parser)
    commands = parser.add_subparsers(metavar="COMMAND", required=True)
    for run, options in COMMANDS:
        sub = commands.add_parser(
            run.__name__, help=run.__doc__.partition("\n")[0], description=run.__doc__,
            add_help=False, allow_abbrev=False,
        )
        _help(sub)
        for flag, kwargs in options:
            if kwargs.get("default") is not None:
                kwargs = {**kwargs, "help": f"{kwargs['help']} (default: {kwargs['default']})"}
            sub.add_argument(flag, **kwargs)
        sub.set_defaults(run=run)
    return parser


PARSER = _build_parser()
FLAGS = {run.__name__: {"--help", *(flag for flag, _ in options)} for run, options in COMMANDS}


def _attached(argv: list[str]) -> list[str]:
    """argv with each `--name value` after the command as `--name=value`.

    Every option of a command takes one value, and a value may start with
    '-' (--omega -inf, --seed -1, --betas -0.1,0.2), which argparse would
    otherwise read as an option and refuse.  An option that shb or the
    command does not have is refused here, before argparse would report a
    missing one.
    """
    command, joined = None, []
    rest = iter(argv)
    for token in rest:
        if not token.startswith("-"):
            command = command or token
        else:
            name = token.partition("=")[0]
            flags = FLAGS.get(command, ()) if command else {"--help"}  # () for an unknown command
            if flags and name not in flags:
                raise UsageError(f"No such option: {name}")
            if command and name == token != "--help":
                value = next(rest, None)
                token = token if value is None else f"{token}={value}"
        joined.append(token)
    return joined


def main(argv=None) -> int:
    """Run the CLI, mapping errors onto the documented exit codes."""
    try:
        options = vars(PARSER.parse_args(_attached(sys.argv[1:] if argv is None else list(argv))))
        return options.pop("run")(**options)
    except SystemExit as done:  # --help, after printing the help
        return done.code
    except (ShbError, OSError) as exc:
        _echo(f"error: {exc}", err=True)
        return 1


def entry() -> None:
    """The console script.  The heap the imports built lives until exit, so
    it is frozen out of every collection; once the output is flushed the
    process ends with os._exit, skipping the interpreter's teardown (no
    atexit handler runs).  main, which tests and library callers run
    in-process, freezes nothing and exits nothing."""
    gc.freeze()
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:  # a closed or broken stream: let the interpreter report it
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    entry()
