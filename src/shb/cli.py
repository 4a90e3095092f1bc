__doc__ = """usage: shb [--help] COMMAND [--OPTION VALUE ...]

The command line of the stochastic heavy ball solver and verification
harness.  Exit codes: 0 on success, 1 on an input or usage error, 2 when
a solve or verify run diverges (its output, with diverged_at, is still
written), 3 when verify finds an applicable bound check failing.
"""  # an assignment, not a docstring, so that python -OO keeps it for --help, as it keeps each _help_text

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


def _help_text(text: str):
    """Set text as a command's __doc__, the help that --help prints."""
    return lambda run: setattr(run, "__doc__", text) or run


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


@_help_text("""Generate a synthetic Gaussian problem and write it as a bundle.""")
def gen(rows, cols, seed, out_path) -> int:
    problem = gen_problem(rows, cols, seed)
    manifest = shio.write_bundle(problem, out_path)
    _echo(f"wrote {manifest} ({rows}x{cols}, seed={seed})")
    return 0


@_help_text("""Report the sketch spectrum and every closed-form rate constant.

JSON goes to --out, or to stdout without it; --omega may be repeated.""")
def analyze(input_path, fmt, sketch, omega, beta, seed, out_path) -> int:
    problem, dist = load_input(input_path, fmt, sketch, seed)
    payload = ex.analyze(problem, dist, omegas=omega, beta=beta)
    if out_path:
        shio.write_json(payload, out_path)
        _echo(f"wrote {out_path}")
    else:
        _echo(json.dumps(payload, indent=2))
    return 0


@_help_text("""Run one (omega, beta) configuration and write its trace.

The trace is JSON when --out ends in .json, otherwise CSV.  Exits 2
when the iterate diverges, after writing the trace up to it.
""")
def solve(input_path, fmt, sketch, omega, beta, iters, record_every, seed, out_path) -> int:
    problem, dist = load_input(input_path, fmt, sketch, seed)
    params = SolverParams(omega=omega, beta=beta, max_iter=iters, seed=seed, record_every=record_every)
    payload = ex.solve(problem, dist, params)
    if str(out_path).endswith(".json"):
        shio.write_json(payload, out_path)
    else:
        ex.write_trace_csv(payload, out_path)
    _echo(f"wrote {out_path} ({len(payload['rows'])} records)")
    return divergence_exit(payload)


@_help_text("""Compare several momentum values on one problem.

--out is a directory, which gets sweep_long.csv and sweep_summary.csv.""")
def sweep(input_path, fmt, sketch, omega, betas, iters, record_every, seed, out_path) -> int:
    try:
        beta_values = [float(t) for t in betas.split(",") if t.strip()]
    except ValueError:
        raise ShbError(f"cannot parse --betas {betas!r}") from None
    problem, dist = load_input(input_path, fmt, sketch, seed)
    pairs = tuple((omega, b) for b in beta_values)
    long_rows, summaries = ex.sweep(problem, dist, pairs, iters, record_every, seed)
    long_path, summary_path = ex.write_sweep_outputs(long_rows, summaries, out_path)
    _echo(f"wrote {long_path} and {summary_path}")
    for s in summaries:
        hits = ", ".join(
            f"{t:g}:{s.get(f'iters_to_{t:g}') if s.get(f'iters_to_{t:g}') is not None else '-'}"
            for t in ex.SWEEP_THRESHOLDS
        )
        status = f"diverged at {s['diverged_at']}" if "diverged_at" in s else s["status"]
        _echo(f"  pair {s['pair_id']} omega={s['omega']:g} beta={s['beta']:g} [{status}] {hits}")
    return 0


@_help_text("""Monte Carlo verification of the convergence bounds.

Exits 3 when an applicable bound check fails and 2 when a replication
diverges (the report then has diverged_at and no checks); the report
is still written.  Exits 1 before any run when the expected-iterate
check applies but fewer than 2 records fall in its fit window.
""")
def verify(input_path, fmt, sketch, omega, beta, iters, record_every, reps, seed, out_path) -> int:
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


INPUT_FORMATS = ("libsvm", "csv", "bundle")
# every option as flag: (the commands' keyword for it, its type or allowed
# values, help), each taking one value; then each command's defaults, where
# ... is required, None is no default and a tuple collects every value given
OPTIONS = {
    "--rows": ("rows", int, "rows of A"),
    "--cols": ("cols", int, "columns of A"),
    "--input": ("input_path", str, "input file"),
    "--format": ("fmt", INPUT_FORMATS, f"input format: {' | '.join(INPUT_FORMATS)}"),
    "--sketch": ("sketch", str, "row | block:<tau> | gaussian:<tau>"),
    "--seed": ("seed", int, "seed of every random stream"),
    "--omega": ("omega", float, "stepsize"),
    "--beta": ("beta", float, "momentum"),
    "--betas": ("betas", str, "comma-separated momentum values"),
    "--iters": ("iters", int, "iterations"),
    "--record-every": ("record_every", int, "iterations between records"),
    "--reps": ("reps", int, "replications"),
    "--out": ("out_path", str, "output path"),
}
INPUT = {"--input": ..., "--format": "bundle", "--sketch": "row", "--seed": 0}
STEP = {"--omega": 1.0, "--beta": 0.0}
COMMANDS = {
    "gen": (gen, {"--rows": ..., "--cols": ..., "--seed": 0, "--out": ...}),
    "analyze": (analyze, {**INPUT, "--omega": (1.0,), "--beta": 0.0, "--out": None}),
    "solve": (solve, {**INPUT, **STEP, "--iters": 1000, "--record-every": 1, "--out": ...}),
    "sweep": (sweep, {**INPUT, "--omega": 1.0, "--betas": ..., "--iters": 1000, "--record-every": 1, "--out": ...}),
    "verify": (verify, {**INPUT, **STEP, "--iters": 200, "--record-every": 10, "--reps": 1000, "--out": None}),
}


def _help(command: str | None) -> int:
    """Print the commands, or a command's description and its options."""
    if command is None:
        _echo(f"{__doc__}\ncommands:")
        rows = {name: run.__doc__.partition("\n")[0] for name, (run, _) in COMMANDS.items()}
    else:
        run, defaults = COMMANDS[command]
        _echo(f"usage: shb {command} [--help] [--OPTION VALUE ...]\n\n{run.__doc__.strip()}\n\noptions:")
        rows = {"--help": "show this message and exit"}
        for flag, default in defaults.items():
            about = OPTIONS[flag][2]
            if default is not None:
                shown = ", ".join(map(str, default)) if isinstance(default, tuple) else default
                about += " (required)" if default is ... else f" (default: {shown})"
            rows[flag] = about
    _echo("\n".join(f"  {name:<16}{about}" for name, about in rows.items()))
    return 0


def _parse(tokens) -> tuple:
    """The function to run and its keyword arguments, from one pass over the
    arguments.  A value may start with '-' (--omega -inf); what is unknown
    is refused where it stands, before a missing option; --help ends it."""
    command, defaults, given = None, {}, {}
    for token in tokens:
        flag, attached, text = token.partition("=")
        if flag == "--help":
            return _help, {"command": command}
        if flag in defaults:
            kind = OPTIONS[flag][1]
            text = text if attached else next(tokens, None)
            if text is None:
                raise ShbError(f"argument {flag}: expected one argument")
            if isinstance(kind, tuple) and text not in kind:
                raise ShbError(f"argument {flag}: invalid choice: {text!r} (choose from {', '.join(map(repr, kind))})")
            try:
                value = text if isinstance(kind, tuple) else kind(text)
            except ValueError:
                raise ShbError(f"argument {flag}: invalid {kind.__name__} value: {text!r}") from None
            given[flag] = given.get(flag, ()) + (value,) if isinstance(defaults[flag], tuple) else value
        elif token.startswith("-"):
            raise ShbError(f"No such option: {flag}")
        elif command:
            raise ShbError(f"unrecognized arguments: {token}")
        elif token in COMMANDS:
            command, defaults = token, COMMANDS[token][1]
        else:
            raise ShbError(f"argument COMMAND: invalid choice: {token!r} (choose from {', '.join(map(repr, COMMANDS))})")
    missing = [flag for flag, default in defaults.items() if default is ... and flag not in given]
    if command is None or missing:
        raise ShbError(f"the following arguments are required: {', '.join(missing) if command else 'COMMAND'}")
    return COMMANDS[command][0], {OPTIONS[flag][0]: given.get(flag, default) for flag, default in defaults.items()}


def main(argv=None) -> int:
    """Run the CLI, mapping errors onto the documented exit codes."""
    try:
        run, options = _parse(iter(sys.argv[1:] if argv is None else argv))
        return run(**options)
    except (ShbError, OSError) as exc:
        _echo(f"error: {exc}", err=True)
        return 1


def entry() -> None:
    """The console script: main, with the heap the imports built frozen out
    of every collection, then os._exit once the output is flushed, which
    skips the teardown and atexit handlers unless a profiler or tracer
    reports in them.  main alone, as tests run it, freezes and exits nothing."""
    gc.freeze()
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except Exception:  # a closed or broken stream: let the interpreter report it
        sys.exit(code)
    monitoring = getattr(sys, "monitoring", None)  # Python 3.12 on, where cProfile registers as a tool
    if not (sys.getprofile() or sys.gettrace() or monitoring and any(map(monitoring.get_tool, range(6)))):
        os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    entry()
