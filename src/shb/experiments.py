"""Experiment orchestration: analyze, solve, sweep and verify engines.

These functions sit between the solver/theory layers and the CLI.  They
take in-memory problems and distributions, produce plain dicts and rows
ready for CSV/JSON serialization, and never print: analyze, solve and
verify return the very JSON payloads the CLI writes.  analyze, solve and
verify share one set-up (_set_up): the spectrum of W (with W itself and
exactness), which bounds apply (theory.applicability), and x*, each
built once and passed down; sweep builds W and x* once for all its pairs
in the kernel.  Every run records the same series (l2 error, f and
Cesaro f, and for an ensemble the squared distance of its mean iterate),
so every table and report has all of its columns.
"""

from __future__ import annotations

import csv
import math
import re
from pathlib import Path
from typing import NamedTuple

import numpy as np

from shb.errors import InsufficientReplications, NotAdmissible, OutOfRange
from shb.io import atomic_write
from shb.linalg import project_onto_solutions
from shb.problems import Problem
from shb.sketch import (
    BlockRow,
    GaussianSketch,
    SketchDistribution,
    SpectrumInfo,
    f_value,
    row_sampling,
    spectrum_and_gram,
)
from shb.solver import RunTrace, SolverParams, run, run_ensemble, run_pairs
from shb.theory import Applicability, applicability, cesaro_bound, l1_params, l2_envelope

TRACE_HEADER = [
    "k",
    "l2_error_raw",
    "rel_error_x0",
    "rel_error_xstar",
    "f_value",
    "cesaro_f",
    "theory_l2_bound",
    "theory_cesaro_bound",
    "elapsed_seconds",
]

SWEEP_THRESHOLDS = (1e-2, 1e-4, 1e-6)
REL_ERROR_TARGET = 1e-6
MIN_VERIFY_REPLICATIONS = 100
# per-iteration slack added to log(beta) when judging the fitted decay slope
L1_SLOPE_SLACK = 0.05
# the decay slope is fitted on the records after this share of the iterations
L1_FIT_FROM = 0.1
# verify reads values at or below this share of ||x0 - x*||^2 as rounding dust
MEASUREMENT_FLOOR = 1e-24


_SIZED_SKETCH = re.compile(r"(?P<name>block|gaussian):(?P<size>[0-9]+)")


def make_distribution(spec: str, a) -> SketchDistribution:
    """Parse a sketch spec string: row | block:<tau> | gaussian:<tau>,
    with tau in ASCII digits and nothing else around it."""
    if spec == "row":
        return row_sampling(a)
    sized = _SIZED_SKETCH.fullmatch(spec)
    if sized is None:
        raise OutOfRange(f"unknown sketch spec {spec!r}: expected row, block:<size> or gaussian:<size>")
    try:
        tau = int(sized["size"])
    except ValueError:  # more digits than int() converts
        raise OutOfRange(f"sketch {spec[:40]!r}...: size is too long") from None
    return BlockRow(tau) if sized["name"] == "block" else GaussianSketch(tau)


def _iters_to_target(factor: float, target: float = REL_ERROR_TARGET) -> int | None:
    if not (0.0 < factor < 1.0):
        return None
    return int(math.ceil(math.log(target) / math.log(factor)))


class _SetUp(NamedTuple):
    """What a command computes once, before it iterates, for a start at the origin."""

    spectrum: SpectrumInfo
    bounds: Applicability
    xstar: np.ndarray
    init_sq: float  # ||x0 - x*||^2
    f0: float  # f(x0)


def _set_up(problem: Problem, dist: SketchDistribution, omega: float, beta: float) -> _SetUp:
    """The spectrum, the bounds that apply at (omega, beta), and x* with
    its distance and objective from the origin.  x* and rank(A) come from
    one decomposition of the smaller Gram of A, dropped on return."""
    a, b = problem.a, problem.b
    spectrum, gram = spectrum_and_gram(a, dist)
    bounds = applicability(omega, beta, spectrum.lambda_min_plus, spectrum.lambda_max)
    x0 = np.zeros(a.shape[1])
    xstar = project_onto_solutions(x0, a, b, gram)
    diff = x0 - xstar  # the kernel's k = 0 record rounds ||x0 - x*||^2 as this dot does
    return _SetUp(spectrum, bounds, xstar, float(diff @ diff), f_value(a, b, x0, spectrum.expected_h, xstar))


def analyze(
    problem: Problem, dist: SketchDistribution, omegas: tuple[float, ...] = (1.0,), beta: float = 0.0
) -> dict:
    """The analyze JSON payload: the spectrum plus every closed-form
    constant for the given stepsizes.

    The contraction data and Cesaro-bound parameters are evaluated at
    (omegas[0], beta) from the origin; the momentum upper bound is
    reported for every requested stepsize; both accelerated parameter
    pairings are included, with expected-iterate bounds in the
    Euclidean norm.
    """
    if not all(math.isfinite(v) for v in (*omegas, beta)):
        raise OutOfRange(f"omega and beta must be finite, got omegas={omegas!r} beta={beta!r}")
    setup = _set_up(problem, dist, omegas[0], beta)
    s, l2 = setup.spectrum, setup.bounds.l2
    l1_choices = {}
    for choice in ("unit_stepsize", "inv_lmax"):
        p = l1_params(choice, s.lambda_min_plus, s.lambda_max)
        l1_choices[choice] = {**p._asdict(), "predicted_iters_to_1e-6": _iters_to_target(p.rate_factor)}
    return {
        "schema": "shb-analyze-v1",
        "spectrum": {
            "eigenvalues": [float(v) for v in s.eigenvalues],
            "lambda_max": s.lambda_max,
            "lambda_min_plus": s.lambda_min_plus,
            "rank": s.rank,
            "exact": s.exact,
            "expected_h_mc_samples": s.mc_samples,
        },
        "l2": None if l2 is None else {
            **l2._asdict(), "predicted_iters_to_1e-6": _iters_to_target(l2.q) if l2.admissible else None
        },
        "beta_upper": setup.bounds.beta_upper,
        "beta_upper_by_omega": [
            {"omega": w, "beta_upper": applicability(w, beta, s.lambda_min_plus, s.lambda_max).beta_upper}
            for w in omegas
        ],
        "cesaro": {
            "omega": omegas[0],
            "beta": beta,
            "init_sq_dist": setup.init_sq,
            "f0": setup.f0,
            "applicable": setup.bounds.cesaro_ok,
        },
        "l1": {"norm": "euclidean", "choices": l1_choices},
    }


def build_trace_table(problem: Problem, trace: RunTrace, setup: _SetUp) -> dict:
    """The shb-trace-v1 payload of one finished run from the origin: a row
    per record under TRACE_HEADER, and diverged_at if the run diverged.

    Both relative-error conventions are emitted (normalized by the
    initial distance and by the solution norm); theory columns are
    filled only where the corresponding bound applies.  setup is the
    one the run used: its bounds, x*, ||x0 - x*||^2, f(x0) and spectrum.
    """
    params, bounds, init_sq = trace.params, setup.bounds, setup.init_sq
    xstar_sq = float(setup.xstar @ setup.xstar)
    rows = []
    for j, k in enumerate(trace.ks):
        l2 = trace.l2_error[j]
        rows.append(dict(zip(TRACE_HEADER, [
            k,
            l2,
            l2 / init_sq if init_sq > 0.0 else None,
            l2 / xstar_sq if xstar_sq > 0.0 else None,
            trace.f_value[j],
            trace.cesaro_f[j],
            l2_envelope(bounds.l2, k, init_sq, setup.spectrum.lambda_max)[0] if bounds.l2_ok else None,
            cesaro_bound(params.omega, params.beta, k, init_sq, setup.f0) if bounds.cesaro_ok and k >= 1 else None,
            trace.elapsed_seconds[j],
        ])))
    payload = {
        "schema": "shb-trace-v1",
        "problem_source": problem.source,
        "params": params_to_dict(params),
        "columns": TRACE_HEADER,
        "rows": rows,
    }
    if trace.diverged_at is not None:
        payload["diverged_at"] = trace.diverged_at
    return payload


def solve(problem: Problem, dist: SketchDistribution, params: SolverParams) -> dict:
    """Run one configuration from the origin and build its trace payload.

    One set-up (the spectrum of W, the bounds that apply, x*) is shared
    by the run and its table.
    """
    setup = _set_up(problem, dist, params.omega, params.beta)
    trace = run(problem, dist, params, eh=setup.spectrum.expected_h, xstar=setup.xstar)
    return build_trace_table(problem, trace, setup)


def _cell(value) -> str:
    """A CSV cell: empty for None, the shortest round-trip repr for a float."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _write_csv(path, header: list[str], rows) -> None:
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([_cell(v) for v in row] for row in rows)


def write_trace_csv(payload: dict, path) -> None:
    """The rows of a trace payload as CSV under its columns."""
    _write_csv(path, payload["columns"], (row.values() for row in payload["rows"]))


def params_to_dict(params: SolverParams) -> dict:
    return {
        "omega": params.omega,
        "beta": params.beta,
        "max_iter": params.max_iter,
        "seed": params.seed,
        "record_every": params.record_every,
        "metrics": ["cesaro_f", "f_value", "l2_error"],  # what every run records
    }


def sweep(
    problem: Problem,
    dist: SketchDistribution,
    pairs: tuple[tuple[float, float], ...],
    max_iter: int,
    record_every: int,
    seed: int,
) -> tuple[list[list], list[dict]]:
    """Run every (omega, beta) pair from the origin on one problem and stream.

    All pairs replay the identical draw sequence (the distribution does
    not depend on the pair), giving a paired comparison; the pairs run
    together as one block of the solver kernel.  Returns long rows
    (pair_id, omega, beta, k, metric, value) and per-pair summary dicts
    with iterations to reach the relative-error thresholds; divergent
    pairs are marked, never fatal.
    """
    if len(pairs) < 2:
        raise OutOfRange("a sweep needs at least 2 (omega, beta) pairs")
    runs = [
        SolverParams(omega=omega, beta=beta, max_iter=max_iter, seed=seed, record_every=record_every)
        for omega, beta in pairs
    ]
    long_rows: list[list] = []
    summaries: list[dict] = []
    for pair_id, ((omega, beta), trace) in enumerate(zip(pairs, run_pairs(problem, dist, runs))):
        diverged = trace.diverged_at is not None
        init_sq = trace.l2_error[0]
        summary = {"pair_id": pair_id, "omega": omega, "beta": beta, "status": "diverged" if diverged else "ok"}
        for thr in SWEEP_THRESHOLDS:
            summary[f"iters_to_{thr:g}"] = None if diverged else first_crossing(trace.ks, trace.l2_error, init_sq, thr)
        summaries.append(summary)
        if diverged:
            summary["diverged_at"] = trace.diverged_at
            continue
        for j, k in enumerate(trace.ks):
            rel = trace.l2_error[j] / init_sq if init_sq > 0.0 else 0.0
            long_rows.append([pair_id, omega, beta, k, "l2_error_raw", trace.l2_error[j]])
            long_rows.append([pair_id, omega, beta, k, "rel_error_x0", rel])
            long_rows.append([pair_id, omega, beta, k, "f_value", trace.f_value[j]])
            if trace.cesaro_f[j] is not None:
                long_rows.append([pair_id, omega, beta, k, "cesaro_f", trace.cesaro_f[j]])
    return long_rows, summaries


def first_crossing(ks, l2_values, init_sq: float, threshold: float) -> int | None:
    """First recorded k at which l2/init drops to the threshold."""
    if init_sq <= 0.0:
        return 0
    for k, l2 in zip(ks, l2_values):
        if l2 / init_sq <= threshold:
            return int(k)
    return None


def summarize_long_rows(long_rows: list[list]) -> list[dict]:
    """Recompute sweep summaries from long-format rows alone.

    Sweep summaries are a pure function of the traces, so offline
    recomputation from the long CSV must agree with the live run.
    """
    by_pair: dict[int, dict] = {}
    for pair_id, omega, beta, k, metric, value in long_rows:
        entry = by_pair.setdefault(
            int(pair_id), {"omega": float(omega), "beta": float(beta), "points": []}
        )
        if metric == "rel_error_x0":
            entry["points"].append((int(k), float(value)))
    summaries = []
    for pair_id in sorted(by_pair):
        entry = by_pair[pair_id]
        points = sorted(entry["points"])
        summary = {
            "pair_id": pair_id,
            "omega": entry["omega"],
            "beta": entry["beta"],
            "status": "ok",
        }
        for thr in SWEEP_THRESHOLDS:
            hit = next((k for k, rel in points if rel <= thr), None)
            summary[f"iters_to_{thr:g}"] = hit
        summaries.append(summary)
    return summaries


def write_sweep_outputs(long_rows, summaries, out_dir) -> tuple[Path, Path]:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    long_path = out_dir / "sweep_long.csv"
    _write_csv(long_path, ["pair_id", "omega", "beta", "k", "metric", "value"], long_rows)
    summary_path = out_dir / "sweep_summary.csv"
    keys = ["pair_id", "omega", "beta", "status"] + [f"iters_to_{t:g}" for t in SWEEP_THRESHOLDS]
    _write_csv(summary_path, keys, ([s.get(k) for k in keys] for s in summaries))
    return long_path, summary_path


def _bound_section(applicable: bool, ks, means, bound, slack: float, floor: float) -> dict:
    """A verify section checking mean <= max(bound(k) * slack, floor) at
    every recorded k with a mean (None marks k = 0 for a Cesaro mean);
    each row's bound is that limit."""
    section: dict = {"applicable": applicable, "rows": [], "pass": None}
    if applicable:
        for k, mean in zip(ks, means):
            if mean is not None:
                limit = max(bound(k) * slack, floor)
                section["rows"].append({"k": k, "mean": mean, "bound": limit, "pass": mean <= limit})
        section["pass"] = all(row["pass"] for row in section["rows"])
    return section


def verify(
    problem: Problem,
    dist: SketchDistribution,
    params: SolverParams,
    replications: int,
) -> dict:
    """Monte Carlo check of every bound whose hypotheses the params meet.

    The runs start at the origin.  Sections:
    mean-squared distance vs its geometric envelope, Cesaro objective vs
    its O(1/k) bound (both with multiplicative slack 1 + 3/sqrt(R)), and
    the expected-iterate decay slope versus log(beta) + 0.05, fitted on
    the records at k >= 1 after the first 10% of iterations.  Every
    section takes MEASUREMENT_FLOOR ||x0 - x*||^2 as the least limit it
    can measure, and the slope is not fitted through it.  A diverged
    ensemble's means are undefined from diverged_at on, so its report
    holds only the header, diverged_at and pass false.  Raises
    NotAdmissible when no section applies, and OutOfRange before any run
    when the expected-iterate section applies but the record schedule
    puts fewer than 2 records in its fit window.
    """
    if replications < MIN_VERIFY_REPLICATIONS:
        raise InsufficientReplications(
            f"need >= {MIN_VERIFY_REPLICATIONS} replications, got {replications}"
        )
    setup = _set_up(problem, dist, params.omega, params.beta)
    spectrum, bounds, init_sq = setup.spectrum, setup.bounds, setup.init_sq
    if not (bounds.l2_ok or bounds.cesaro_ok or bounds.l1_ok):
        raise NotAdmissible("parameters meet no bound hypothesis: nothing to verify")
    lmax = spectrum.lambda_max
    fit_start = max(1, math.ceil(L1_FIT_FROM * params.max_iter))
    if bounds.l1_ok and params.record_count(fit_start) < 2:
        raise OutOfRange(
            f"the expected-iterate slope is fitted on the records at k >= {fit_start}, and this "
            f"schedule has {params.record_count(fit_start)} of them: record more often (--record-every)"
        )

    ens = run_ensemble(
        problem, dist, params, replications=replications,
        eh=spectrum.expected_h, xstar=setup.xstar,
    )
    slack = 1.0 + 3.0 / math.sqrt(replications)
    floor = MEASUREMENT_FLOOR * init_sq

    report: dict = {
        "schema": "shb-verify-v1",
        "problem_source": problem.source,
        "params": params_to_dict(params),
        "replications": replications,
        "slack_factor": slack,
        "spectrum": {
            "lambda_max": lmax,
            "lambda_min_plus": spectrum.lambda_min_plus,
            "rank": spectrum.rank,
            "exact": spectrum.exact,
        },
    }
    if ens.diverged_at is not None:
        return {**report, "diverged_at": ens.diverged_at, "pass": False}
    report["l2"] = _bound_section(
        bounds.l2_ok, ens.ks, ens.l2_mean, lambda k: l2_envelope(bounds.l2, k, init_sq, lmax)[0], slack, floor
    )
    if bounds.l2_ok:
        report["l2"].update(q=bounds.l2.q, delta=bounds.l2.delta)
    report["cesaro"] = _bound_section(
        bounds.cesaro_ok, ens.ks, ens.cesaro_f_mean,
        lambda k: cesaro_bound(params.omega, params.beta, k, init_sq, setup.f0), slack, floor,
    )

    l1 = report["l1"] = {"applicable": bounds.l1_ok, "pass": None}
    if bounds.l1_ok:
        # the schedule check above leaves at least 2 records in the window
        ks, vals = zip(*[(k, v) for k, v in zip(ens.ks, ens.l1_sq) if k >= fit_start])
        slope = None
        if not any(v <= floor for v in vals):
            logs = np.log(np.asarray(vals, dtype=np.float64))
            slope = float(np.polyfit(np.asarray(ks, dtype=np.float64), logs, 1)[0])
        slope_limit = math.log(params.beta) + L1_SLOPE_SLACK
        l1.update({"pass": slope is None or slope <= slope_limit, "slope": slope, "slope_limit": slope_limit})
        if slope is None:
            l1["note"] = "estimate fell below the measurement floor inside the window"
        else:
            l1["fit_ks"] = [int(k) for k in ks]

    report["l1_le_l2"] = {
        "applicable": True,
        "pass": all(l1 <= l2 * (1.0 + 1e-12) + floor for l1, l2 in zip(ens.l1_sq, ens.l2_mean)),
    }

    sections = [report[name] for name in ("l2", "cesaro", "l1", "l1_le_l2")]
    report["pass"] = all(s["pass"] for s in sections if s["applicable"])
    return report
