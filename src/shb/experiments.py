"""Experiment orchestration: analyze, solve, sweep and verify engines.

These functions sit between the solver/theory layers and the CLI.  They
take in-memory problems and distributions, produce plain dicts and rows
ready for CSV/JSON serialization, and never print.  Each command builds
the spectrum of W (with E[H] and exactness) and x* once, passing them down.
Every run records the same series (l2 error, f and Cesaro f, and for an
ensemble the squared distance of its mean iterate), so every table and
report has all of its columns.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from shb.errors import (
    InsufficientReplications,
    NotAdmissible,
    OutOfRange,
)
from shb.io import atomic_write, write_json
from shb.linalg import project_onto_solutions
from shb.problems import Problem
from shb.sketch import (
    BlockRow,
    GaussianSketch,
    SketchDistribution,
    SpectrumInfo,
    f_value,
    hessian_spectrum,
    row_sampling,
)
from shb.solver import RunTrace, SolverParams, run, run_ensemble, run_pairs
from shb.theory import (
    L2Rate,
    TheoryReport,
    beta_upper_bound,
    cesaro_bound,
    l1_params,
    l2_envelope,
    l2_rate,
)

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


def analyze(
    problem: Problem,
    dist: SketchDistribution,
    omegas: tuple[float, ...] = (1.0,),
    beta: float = 0.0,
    *,
    mc_samples: int = 10_000,
) -> TheoryReport:
    """Spectrum plus every closed-form constant for the given stepsizes.

    The contraction data and Cesaro-bound parameters are evaluated at
    (omegas[0], beta) from the origin; the momentum upper bound is
    reported for every requested stepsize; both accelerated parameter
    pairings are included.
    """
    if not all(math.isfinite(v) for v in (*omegas, beta)):
        raise OutOfRange(f"omega and beta must be finite, got omegas={omegas!r} beta={beta!r}")
    a, b = problem.a, problem.b
    spectrum = hessian_spectrum(a, dist, mc_samples=mc_samples)
    lmin, lmax = spectrum.lambda_min_plus, spectrum.lambda_max
    omega0 = omegas[0]

    l2: L2Rate | None
    try:
        l2 = l2_rate(omega0, beta, lmin, lmax)
    except OutOfRange:
        l2 = None

    x0 = np.zeros(a.shape[1])
    xstar = project_onto_solutions(x0, a, b)
    init_sq = float(np.sum((x0 - xstar) ** 2))
    f0 = f_value(a, b, x0, spectrum.expected_h, xstar)

    cesaro_applicable = 0.0 <= beta < 1.0 and omega0 > 0.0 and omega0 + 2.0 * beta < 2.0
    cesaro_params = {
        "omega": omega0,
        "beta": beta,
        "init_sq_dist": init_sq,
        "f0": f0,
        "applicable": cesaro_applicable,
    }

    l1_choices = {}
    for choice in ("unit_stepsize", "inv_lmax"):
        p = l1_params(choice, lmin, lmax)
        l1_choices[choice] = {
            "omega": p.omega,
            "beta": p.beta,
            "rate_factor": p.rate_factor,
            "predicted_iters_to_1e-6": _iters_to_target(p.rate_factor),
        }

    beta_upper = beta_upper_bound(omega0, lmin, lmax) if 0.0 < omega0 < 2.0 else None
    return TheoryReport(
        spectrum=spectrum,
        l2=l2,
        beta_upper=beta_upper,
        cesaro_params=cesaro_params,
        l1_choices=l1_choices,
    )


def report_to_dict(report: TheoryReport, omegas: tuple[float, ...]) -> dict:
    """JSON-ready dict for a theory report."""
    s = report.spectrum
    out = {
        "schema": "shb-analyze-v1",
        "spectrum": {
            "eigenvalues": [float(v) for v in s.eigenvalues],
            "lambda_max": s.lambda_max,
            "lambda_min_plus": s.lambda_min_plus,
            "rank": s.rank,
            "exact": s.exact,
            "expected_h_mc_samples": s.mc_samples,
        },
        "l2": None,
        "beta_upper": report.beta_upper,
        "beta_upper_by_omega": [
            {
                "omega": w,
                "beta_upper": (
                    beta_upper_bound(w, s.lambda_min_plus, s.lambda_max)
                    if 0.0 < w < 2.0
                    else None
                ),
            }
            for w in omegas
        ],
        "cesaro": report.cesaro_params,
        "l1": {"norm": report.norm_note, "choices": report.l1_choices},
    }
    if report.l2 is not None:
        r = report.l2
        out["l2"] = {
            "a1": r.a1,
            "a2": r.a2,
            "q": r.q,
            "delta": r.delta,
            "admissible": r.admissible,
            "predicted_iters_to_1e-6": _iters_to_target(r.q) if r.admissible else None,
        }
    return out


@dataclass
class TraceTable:
    """One run rendered as rows under the fixed trace header."""

    header: list[str]
    rows: list[list]
    params: SolverParams
    problem_source: str


def build_trace_table(
    problem: Problem,
    trace: RunTrace,
    *,
    spectrum: SpectrumInfo,
    xstar: np.ndarray,
) -> TraceTable:
    """Derive the reporting columns for one finished run.

    Both relative-error conventions are emitted (normalized by the
    initial distance and by the solution norm); theory columns are
    filled only where the corresponding bound applies.  spectrum and
    xstar are those the run used.
    """
    params = trace.params
    init_sq = trace.l2_error[0]
    xstar_sq = float(xstar @ xstar)
    f0 = trace.f_value[0]
    lmax = spectrum.lambda_max
    cesaro_ok = params.omega + 2.0 * params.beta < 2.0 and 0.0 <= params.beta < 1.0
    rate = None
    if 0.0 < params.omega < 2.0:
        candidate = l2_rate(params.omega, params.beta, spectrum.lambda_min_plus, lmax)
        rate = candidate if candidate.admissible else None

    rows = []
    for j, k in enumerate(trace.ks):
        l2 = trace.l2_error[j]
        rows.append([
            k,
            l2,
            l2 / init_sq if init_sq > 0.0 else None,
            l2 / xstar_sq if xstar_sq > 0.0 else None,
            trace.f_value[j],
            trace.cesaro_f[j],
            l2_envelope(rate, k, init_sq, lmax)[0] if rate is not None else None,
            cesaro_bound(params.omega, params.beta, k, init_sq, f0) if cesaro_ok and k >= 1 else None,
            trace.elapsed_seconds[j],
        ])
    return TraceTable(
        header=list(TRACE_HEADER),
        rows=rows,
        params=params,
        problem_source=problem.source,
    )


def solve(problem: Problem, dist: SketchDistribution, params: SolverParams) -> TraceTable:
    """Run one configuration from the origin and tabulate its trace.

    The spectrum (with E[H]) and x* are computed once and shared by the
    run and its table.
    """
    a, b = problem.a, problem.b
    spectrum = hessian_spectrum(a, dist)
    xstar = project_onto_solutions(np.zeros(a.shape[1]), a, b)
    trace = run(problem, dist, params, eh=spectrum.expected_h, xstar=xstar)
    return build_trace_table(problem, trace, spectrum=spectrum, xstar=xstar)


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def write_trace_csv(table: TraceTable, path) -> None:
    with atomic_write(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(table.header)
        for row in table.rows:
            writer.writerow([_cell(v) for v in row])


def write_trace_json(table: TraceTable, path) -> None:
    payload = {
        "schema": "shb-trace-v1",
        "problem_source": table.problem_source,
        "params": params_to_dict(table.params),
        "columns": table.header,
        "rows": [
            {name: value for name, value in zip(table.header, row)}
            for row in table.rows
        ],
    }
    write_json(payload, path)


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
        summary = {"pair_id": pair_id, "omega": omega, "beta": beta, "status": "ok"}
        for thr in SWEEP_THRESHOLDS:
            summary[f"iters_to_{thr:g}"] = None
        if trace.diverged_at is not None:
            summary["status"] = "diverged"
            summary["diverged_at"] = trace.diverged_at
            summaries.append(summary)
            continue
        init_sq = trace.l2_error[0]
        for j, k in enumerate(trace.ks):
            rel = trace.l2_error[j] / init_sq if init_sq > 0.0 else 0.0
            long_rows.append([pair_id, omega, beta, k, "l2_error_raw", trace.l2_error[j]])
            long_rows.append([pair_id, omega, beta, k, "rel_error_x0", rel])
            long_rows.append([pair_id, omega, beta, k, "f_value", trace.f_value[j]])
            if trace.cesaro_f[j] is not None:
                long_rows.append([pair_id, omega, beta, k, "cesaro_f", trace.cesaro_f[j]])
        for thr in SWEEP_THRESHOLDS:
            summary[f"iters_to_{thr:g}"] = first_crossing(
                trace.ks, trace.l2_error, init_sq, thr
            )
        summaries.append(summary)
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
    with atomic_write(long_path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["pair_id", "omega", "beta", "k", "metric", "value"])
        for row in long_rows:
            writer.writerow([_cell(v) if isinstance(v, float) else v for v in row])
    summary_path = out_dir / "sweep_summary.csv"
    keys = ["pair_id", "omega", "beta", "status"] + [f"iters_to_{t:g}" for t in SWEEP_THRESHOLDS]
    with atomic_write(summary_path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(keys)
        for s in summaries:
            writer.writerow([_cell(s.get(k)) if isinstance(s.get(k), float) else ("" if s.get(k) is None else s.get(k)) for k in keys])
    return long_path, summary_path


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
    the expected-iterate decay slope versus log(beta) + 0.05 after the
    first 10% of iterations.  Raises NotAdmissible when no section
    applies.
    """
    if replications < MIN_VERIFY_REPLICATIONS:
        raise InsufficientReplications(
            f"need >= {MIN_VERIFY_REPLICATIONS} replications, got {replications}"
        )
    a, b = problem.a, problem.b
    x0 = np.zeros(a.shape[1])

    spectrum = hessian_spectrum(a, dist)
    lmin, lmax = spectrum.lambda_min_plus, spectrum.lambda_max
    omega, beta = params.omega, params.beta

    rate = None
    if 0.0 < omega < 2.0:
        candidate = l2_rate(omega, beta, lmin, lmax)
        rate = candidate if candidate.admissible else None
    cesaro_ok = 0.0 <= beta < 1.0 and omega + 2.0 * beta < 2.0
    l1_ok = True
    try:
        l1_params("custom", lmin, lmax, omega=omega, beta=beta)
    except OutOfRange:
        l1_ok = False
    if rate is None and not cesaro_ok and not l1_ok:
        raise NotAdmissible(
            "parameters meet no bound hypothesis: nothing to verify"
        )

    xstar = project_onto_solutions(x0, a, b)
    ens = run_ensemble(
        problem, dist, params, replications=replications,
        eh=spectrum.expected_h, xstar=xstar,
    )
    init_sq = float(np.sum((x0 - xstar) ** 2))
    f0 = f_value(a, b, x0, spectrum.expected_h, xstar)
    slack = 1.0 + 3.0 / math.sqrt(replications)

    report: dict = {
        "schema": "shb-verify-v1",
        "problem_source": problem.source,
        "params": params_to_dict(params),
        "replications": replications,
        "slack_factor": slack,
        "spectrum": {
            "lambda_max": lmax,
            "lambda_min_plus": lmin,
            "rank": spectrum.rank,
            "exact": spectrum.exact,
        },
    }

    l2_section: dict = {"applicable": rate is not None, "rows": [], "pass": None}
    if rate is not None:
        ok_all = True
        for k, mean in zip(ens.ks, ens.l2_mean):
            envelope, _ = l2_envelope(rate, k, init_sq, lmax)
            bound = envelope * slack
            ok = mean <= bound
            ok_all &= ok
            l2_section["rows"].append({"k": k, "mean": mean, "bound": bound, "pass": ok})
        l2_section["pass"] = ok_all
        l2_section["q"] = rate.q
        l2_section["delta"] = rate.delta
    report["l2"] = l2_section

    cesaro_section: dict = {"applicable": cesaro_ok, "rows": [], "pass": None}
    if cesaro_ok:
        ok_all = True
        for k, mean in zip(ens.ks, ens.cesaro_f_mean):
            if mean is None or k < 1:
                continue
            bound = cesaro_bound(omega, beta, k, init_sq, f0) * slack
            ok = mean <= bound
            ok_all &= ok
            cesaro_section["rows"].append({"k": k, "mean": mean, "bound": bound, "pass": ok})
        cesaro_section["pass"] = ok_all
    report["cesaro"] = cesaro_section

    l1_section: dict = {"applicable": l1_ok, "pass": None}
    if l1_ok:
        cutoff = 0.1 * params.max_iter
        fit = [
            (k, v)
            for k, v in zip(ens.ks, ens.l1_sq)
            if k >= cutoff and k >= 1
        ]
        slope_limit = math.log(beta) + L1_SLOPE_SLACK
        # values this far below the start are measurement dust, not signal
        floor = 1e-24 * max(ens.l1_sq[0], 1e-300)
        exhausted = any(v <= floor for _, v in fit)
        if exhausted:
            l1_section.update(
                {
                    "slope": None,
                    "slope_limit": slope_limit,
                    "pass": True,
                    "note": "estimate fell below the measurement floor inside the window",
                }
            )
        elif len(fit) >= 2:
            ks_arr = np.asarray([k for k, _ in fit], dtype=np.float64)
            logs = np.log(np.asarray([v for _, v in fit], dtype=np.float64))
            slope = float(np.polyfit(ks_arr, logs, 1)[0])
            l1_section.update(
                {
                    "slope": slope,
                    "slope_limit": slope_limit,
                    "fit_ks": [int(k) for k, _ in fit],
                    "pass": slope <= slope_limit,
                }
            )
        else:
            l1_section.update({"slope": None, "slope_limit": slope_limit, "pass": False})
    report["l1"] = l1_section

    report["l1_le_l2"] = {
        "applicable": True,
        "pass": all(l1 <= l2 * (1.0 + 1e-12) + 1e-300 for l1, l2 in zip(ens.l1_sq, ens.l2_mean)),
    }

    sections = [l2_section, cesaro_section, l1_section, report["l1_le_l2"]]
    report["pass"] = all(
        s.get("pass") for s in sections if s.get("applicable") and s.get("pass") is not None
    )
    return report
