"""The two benchmark workloads: seeded inputs, CLI steps and output checks.

Each workload covers two problems, and for each of them an iteration does
what a user does: one ``analyze``, then one command that iterates on it.
``per-step`` holds the problems whose cost is the iteration itself,
``one-off`` those whose cost is paid once per command (E[H], the
spectrum).  Inputs are generated here from the workload seed; the program
under test only ever sees the written files.  Sizes and the reason for
each workload are documented in README.md.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np


class CheckFailed(Exception):
    """An output of the program is wrong."""


@dataclass(frozen=True)
class Step:
    """One CLI invocation of a workload and the check of its output.

    ``args`` follow ``python -m shb.cli``; ``{out}`` in them is replaced
    by the iteration's output directory.  ``steps`` counts the
    stochastic-gradient applications the command performs (0 for
    ``analyze``).  ``check`` raises CheckFailed when an output is wrong
    and returns the facts worth keeping as artefacts (or None).
    """

    label: str
    phase: str  # "setup" (analyze) or "iterate"
    args: tuple[str, ...]
    steps: int
    check: Callable[[Path], dict | None]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # (seed, input dir) -> iteration variants; iteration i runs variant i % len
    make: Callable[[int, Path], list[list[Step]]]


# LIBSVM mushrooms shape: 22 categorical attributes one-hot encoded into
# 112 columns, so every row has exactly 22 ones.
MUSHROOM_CARDINALITIES = (6, 4, 10, 2, 9, 2, 2, 2, 12, 2, 4, 4, 4, 9, 9, 1, 4, 3, 5, 6, 5, 7)

TARGET_KEY = "iters_to_1e-06"
TARGET = 1e-6
SPECTRUM_RTOL = 1e-8
EIG_CUTOFF = 1e-10  # the program's cutoff for "nonzero" eigenvalues


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, sum(workload.encode())])


def write_gaussian_bundle(path: Path, rows: int, cols: int, rng) -> np.ndarray:
    """Consistent Gaussian system written as a problem bundle; returns A."""
    from shb.io import write_bundle
    from shb.problems import Problem

    a = rng.standard_normal((rows, cols))
    planted = rng.standard_normal(cols)
    write_bundle(Problem(a=a, b=a @ planted, planted_solution=planted, source="perfbench"), path)
    return a


def write_mushrooms_libsvm(path: Path, rows: int, rng) -> np.ndarray:
    """Mushrooms-shaped LIBSVM text with uniform categories; returns A."""
    offsets = np.cumsum((0,) + MUSHROOM_CARDINALITIES[:-1])
    cats = np.stack([rng.integers(0, c, size=rows) for c in MUSHROOM_CARDINALITIES], axis=1)
    cats[0, -1] = MUSHROOM_CARDINALITIES[-1] - 1  # the last column is always present
    cols = cats + offsets  # 0-based column per attribute, increasing along a row
    labels = rng.choice(("+1", "-1"), size=rows)
    a = np.zeros((rows, sum(MUSHROOM_CARDINALITIES)))
    np.put_along_axis(a, cols, 1.0, axis=1)
    with open(path, "w") as fh:
        for label, row in zip(labels, cols):
            fh.write(label + " " + " ".join(f"{j + 1}:1" for j in row) + "\n")
    return a


def row_spectrum(a: np.ndarray) -> tuple[float, float]:
    """(lambda_max, lambda_min_plus) of A^T A / ||A||_F^2, the row-sampling W."""
    vals = np.linalg.eigvalsh(a.T @ a / float(np.sum(a * a)))[::-1]
    lmax = float(vals[0])
    return lmax, float(vals[vals > EIG_CUTOFF * lmax][-1])


def check_row_analyze(a: np.ndarray, report: str) -> Callable[[Path], dict]:
    lmax, lmin = row_spectrum(a)

    def check(out: Path) -> dict:
        spec = json.loads((out / report).read_text())["spectrum"]
        for key, want in (("lambda_max", lmax), ("lambda_min_plus", lmin)):
            got = spec[key]
            if not abs(got - want) <= SPECTRUM_RTOL * abs(want):
                raise CheckFailed(f"analyze {key} = {got!r}, expected {want!r}")
        return {"lambda_max": spec["lambda_max"], "lambda_min_plus": spec["lambda_min_plus"]}

    return check


def check_block_analyze(report: str) -> Callable[[Path], dict]:
    def check(out: Path) -> dict:
        spec = json.loads((out / report).read_text())["spectrum"]
        if not 0.0 < spec["lambda_min_plus"] <= spec["lambda_max"] <= 1.0 + 1e-8:
            raise CheckFailed(f"analyze spectrum out of order: {spec['lambda_min_plus']}, {spec['lambda_max']}")
        return {"lambda_max": spec["lambda_max"], "lambda_min_plus": spec["lambda_min_plus"]}

    return check


def _opt_int(cell: str) -> int | None:
    return int(cell) if cell else None


def check_sweep(subdir: str, seed: int) -> Callable[[Path], dict]:
    """Every pair ok and at 1e-6; the summary equals summarize_long_rows(long)."""

    def check(out: Path) -> dict:
        from shb.experiments import summarize_long_rows

        with open(out / subdir / "sweep_summary.csv", newline="") as fh:
            summary = list(csv.DictReader(fh))
        with open(out / subdir / "sweep_long.csv", newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            long_rows = [
                [int(p), float(w), float(b), int(k), metric, float(v)]
                for p, w, b, k, metric, v in reader
            ]
        if not summary:
            raise CheckFailed("sweep_summary.csv has no pairs")
        crossings = {}
        for row in summary:
            if row["status"] != "ok" or not row[TARGET_KEY]:
                raise CheckFailed(f"pair {row['pair_id']} (beta={row['beta']}) did not reach {TARGET:g}: {row}")
            crossings[row["beta"]] = int(row[TARGET_KEY])
        recomputed = summarize_long_rows(long_rows)
        parsed = [
            {
                "pair_id": int(r["pair_id"]),
                "omega": float(r["omega"]),
                "beta": float(r["beta"]),
                "status": r["status"],
                **{k: _opt_int(v) for k, v in r.items() if k.startswith("iters_to_")},
            }
            for r in summary
        ]
        if parsed != recomputed:
            raise CheckFailed(f"sweep_summary.csv {parsed} != summarize_long_rows {recomputed}")
        return {"solver_seed": seed, TARGET_KEY: crossings}

    return check


def check_verify(out: Path) -> dict:
    report = json.loads((out / "verify.json").read_text())
    if report.get("pass") is not True:
        raise CheckFailed(f"verify report pass = {report.get('pass')!r}")
    return {name: report[name]["pass"] for name in ("l2", "cesaro", "l1", "l1_le_l2")}


def check_solve(out: Path) -> dict:
    with open(out / "trace.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    final = float(rows[-1]["rel_error_x0"])
    if not final <= TARGET:
        raise CheckFailed(f"final rel_error_x0 = {final!r} > {TARGET:g}")
    hit = next((int(r["k"]) for r in rows if float(r["rel_error_x0"]) <= TARGET), None)
    return {"final_rel_error_x0": final, TARGET_KEY: {"0.3": hit}}


def sweep_row_steps(seed: int, inputs: Path) -> tuple[Step, list[Step]]:
    """The paper's momentum sweep: analyze, and one sweep per solver seed."""
    a = write_gaussian_bundle(inputs / "sweep.json", 300, 100, _rng(seed, "sweep-row"))
    problem = str(inputs / "sweep.json")
    analyze = Step("analyze[sweep]", "setup",
                   ("analyze", "--input", problem, "--sketch", "row", "--out", "{out}/analyze-sweep.json"),
                   0, check_row_analyze(a, "analyze-sweep.json"))
    sweeps = []
    for j in range(4):
        solver_seed = 4 * seed + j
        sweeps.append(Step(
            f"sweep[seed={solver_seed}]", "iterate",
            ("sweep", "--input", problem, "--betas", "0,0.2,0.4", "--iters", "8000",
             "--record-every", "25", "--seed", str(solver_seed), "--out", "{out}/sweep"),
            3 * 8000, check_sweep("sweep", solver_seed)))
    return analyze, sweeps


def verify_ensemble_steps(seed: int, inputs: Path) -> list[Step]:
    a = write_gaussian_bundle(inputs / "verify.json", 50, 20, _rng(seed, "verify-ensemble"))
    problem = str(inputs / "verify.json")
    return [
        Step("analyze[verify]", "setup",
             ("analyze", "--input", problem, "--out", "{out}/analyze-verify.json"),
             0, check_row_analyze(a, "analyze-verify.json")),
        Step("verify", "iterate",
             ("verify", "--input", problem, "--beta", "0.05", "--iters", "600",
              "--record-every", "50", "--reps", "100", "--seed", str(seed),
              "--out", "{out}/verify.json"),
             100 * 600, check_verify),
    ]


def tall_libsvm_steps(seed: int, inputs: Path) -> list[Step]:
    a = write_mushrooms_libsvm(inputs / "mushrooms.txt", 2000, _rng(seed, "tall-libsvm"))
    data = str(inputs / "mushrooms.txt")
    return [
        Step("analyze[libsvm]", "setup",
             ("analyze", "--input", data, "--format", "libsvm", "--seed", str(seed),
              "--out", "{out}/analyze-libsvm.json"),
             0, check_row_analyze(a, "analyze-libsvm.json")),
        Step("solve", "iterate",
             ("solve", "--input", data, "--format", "libsvm", "--beta", "0.3", "--iters", "3000",
              "--record-every", "25", "--seed", str(seed), "--out", "{out}/trace.csv"),
             3000, check_solve),
    ]


def block_sweep_steps(seed: int, inputs: Path) -> list[Step]:
    write_gaussian_bundle(inputs / "block.json", 100, 40, _rng(seed, "block-sweep"))
    problem = str(inputs / "block.json")
    return [
        Step("analyze[block]", "setup",
             ("analyze", "--input", problem, "--sketch", "block:5", "--out", "{out}/analyze-block.json"),
             0, check_block_analyze("analyze-block.json")),
        Step("sweep[block]", "iterate",
             ("sweep", "--input", problem, "--sketch", "block:5", "--betas", "0,0.3",
              "--iters", "1000", "--record-every", "25", "--seed", str(seed),
              "--out", "{out}/block-sweep"),
             2 * 1000, check_sweep("block-sweep", seed)),
    ]


def make_per_step(seed: int, inputs: Path) -> list[list[Step]]:
    analyze, sweeps = sweep_row_steps(seed, inputs)
    verify = verify_ensemble_steps(seed, inputs)
    return [[analyze, sweep, *verify] for sweep in sweeps]


def make_one_off(seed: int, inputs: Path) -> list[list[Step]]:
    return [tall_libsvm_steps(seed, inputs) + block_sweep_steps(seed, inputs)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("per-step", "row-sampling sweep (300x100, 3 betas) and 100-replica verify (50x20): per-step dispatch dominates, E[H] and the spectrum cost milliseconds", make_per_step),
        Workload("one-off", "2000x112 LIBSVM solve (dense E[H], spectrum twice, m x m f_value) and block:5 sweep (Monte Carlo E[H] per pair): one-off costs dominate", make_one_off),
    )
}
