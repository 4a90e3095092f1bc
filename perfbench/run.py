"""Benchmark of the ``shb`` command line tool.

Usage (from the repository root):

    python3 perfbench/run.py --workload per-step --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 55 --trace 0

One client, closed loop: the commands of a workload run one at a time,
each as its own ``python -m shb.cli`` process with PYTHONPATH=src, and
the next starts when the previous one has exited.  One iteration is,
for each of the workload's problems, an ``analyze`` and one iterating
command; a workload with several variants (per-step's solver seeds)
runs them in turn.  The fixed task in reference.py is timed before every
iteration, and the timing metrics are scaled to its speed.  Iterations
repeat until --seconds have passed (at least MIN_ITERATIONS, or one
untraced and one traced iteration with --trace 1).

With --trace 0 the last line of standard output reports the end-to-end
metrics (medians over iterations).  With --trace 1 untraced and traced
iterations alternate, and the per-layer metrics come from the traced
ones, where perfbench/traced_cli.py wraps every public ``shb`` function.
Full results, the environment manifest and the crossing counts are
written to .perfbench/<workload>-seed<n>-trace<t>.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from tracing import LAYERS, function_stats  # noqa: E402
from workloads import TARGET_KEY, WORKLOADS, Step  # noqa: E402

MIN_ITERATIONS = 3
REFERENCE = HERE / "reference.py"
REFERENCE_S = 0.5  # timings are reported at the speed where reference.py takes this long
RUN_LIMIT_S = 170.0  # every run ends well within the 180 s allowed
WORK_DIR = Path(".perfbench")

END_TO_END = {  # name -> unit
    "wall_s": "s",
    "setup_s": "s",
    "steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics: (<layer>.<function>|<layer>, stat, unit).  Timed
# entries are limited to functions and layers that run on every workload,
# so no reported time is structurally zero; functions specific to one
# workload are reported by call count (their time is in the layer's
# self_s and in the artefact's full table).
PER_LAYER = (
    [("cli.main", "self_s", "s")]
    + [(layer, "self_s", "s") for layer in LAYERS if layer not in ("cli", "problems")]
    + [
        ("solver.run", "calls", "count"),
        ("solver.run", "self_s", "s"),
        ("solver.shb_step", "us_per_call", "us"),
        ("sketch.draw", "us_per_call", "us"),
        ("sketch.stoch_grad", "us_per_call", "us"),
        ("solver.run_ensemble", "calls", "count"),
        ("experiments.verify", "calls", "count"),
        ("experiments.sweep", "calls", "count"),
        ("linalg.pinv_apply", "calls", "count"),
        ("linalg.pinv_apply", "us_per_call", "us"),
        ("sketch.expected_h", "calls", "count"),
        ("sketch.expected_h", "s", "s"),
        ("sketch.expected_h", "bytes", "bytes"),
        ("sketch.hessian_spectrum", "calls", "count"),
        ("sketch.hessian_spectrum", "self_s", "s"),
        ("linalg.sym_eig", "calls", "count"),
        ("linalg.sym_eig", "s", "s"),
        ("sketch.f_value", "calls", "count"),
        ("sketch.f_value", "us_per_call", "us"),
        ("linalg.project_onto_solutions", "calls", "count"),
        ("linalg.project_onto_solutions", "s", "s"),
        ("io.read_bundle", "calls", "count"),
        ("io.parse_libsvm", "calls", "count"),
        ("problems.plant_solution", "calls", "count"),
        ("experiments.build_trace_table", "calls", "count"),
        ("experiments.write_trace_csv", "calls", "count"),
        ("experiments.write_sweep_outputs", "calls", "count"),
        ("theory", "calls", "count"),
        ("theory", "self_s", "s"),
    ]
)
EXTRA_PER_LAYER = {  # computed from the run, not from one function
    "solver.steps": "count",
    "solver.iters_to_1e-6": "count",
    "trace.spans": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}
PER_LAYER_UNITS = {f"{target}.{stat}": unit for target, stat, unit in PER_LAYER} | EXTRA_PER_LAYER


class CommandTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise CommandTimeout


def run_command(argv: list[str], env: dict, log_path: Path, timeout: float) -> dict:
    """Run one process to completion; its wall time, CPU time and peak RSS.

    The child is reaped with wait4, so the rusage is that child's alone.
    A child still running after ``timeout`` seconds is killed.
    """
    with open(log_path, "wb") as log:
        previous = signal.signal(signal.SIGALRM, _on_alarm)
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=env)
        timed_out = False
        try:
            signal.setitimer(signal.ITIMER_REAL, max(timeout, 0.001))
            _, status, usage = os.wait4(proc.pid, 0)
            signal.setitimer(signal.ITIMER_REAL, 0)
        except CommandTimeout:
            timed_out = True
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            try:
                os.wait4(proc.pid, 0)
            except ChildProcessError:
                pass
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "exit": proc.returncode,
        "timed_out": timed_out,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }


def run_step(step: Step, argv: list[str], env: dict, out: Path, timeout: float) -> dict:
    """Run a step's command, then its output check; failures are recorded, never raised."""
    rec = {"label": step.label, "phase": step.phase, "steps": step.steps}
    rec.update(run_command(argv, env, out / f"{step.label}.log", timeout))
    rec["ok"] = False
    if rec["timed_out"]:
        rec["error"] = f"timed out after {timeout:.1f} s"
    elif rec["exit"] != 0:
        tail = (out / f"{step.label}.log").read_text(errors="replace")[-500:]
        rec["error"] = f"exit {rec['exit']}: {tail}"
    else:
        try:
            rec["facts"] = step.check(out)
            rec["ok"] = True
        except Exception as exc:  # a wrong or unreadable output counts as a failure
            rec["error"] = f"check failed: {type(exc).__name__}: {exc}"
    return rec


def run_iteration(steps, env, out: Path, deadline: float, traced: bool, run_id: str) -> list[dict]:
    """One pass over the workload's steps; stops at the first timeout."""
    out.mkdir(parents=True)
    recs = []
    for i, step in enumerate(steps):
        args = [a.replace("{out}", str(out)) for a in step.args]
        if traced:
            spans = out / f"spans{i}.json"
            argv = [sys.executable, str(HERE / "traced_cli.py"), str(spans), f"{run_id}.{i}", "--", *args]
        else:
            argv = [sys.executable, "-m", "shb.cli", *args]
        rec = run_step(step, argv, env, out, deadline - time.perf_counter())
        if traced and spans.exists():
            rec["functions"] = function_stats(json.loads(spans.read_text()))
            spans.unlink()
        recs.append(rec)
        if rec["timed_out"]:
            break
    return recs


def run_reference(env: dict, work: Path, timeout: float) -> float:
    """Wall time of one run of the fixed reference task (see reference.py)."""
    rec = run_command([sys.executable, str(REFERENCE)], env, work / "reference.log", timeout)
    if rec["exit"] != 0:
        raise RuntimeError(f"reference task failed (exit {rec['exit']}); see {work / 'reference.log'}")
    return rec["wall_s"]


def iteration_summary(recs: list[dict], reference_s: float) -> dict:
    """One iteration's metrics at the reference speed, and its raw times.

    Times are multiplied by REFERENCE_S / reference_s, where reference_s
    is the reference task's time just before the iteration, so a drift
    of the machine's speed that slows both cancels.
    """
    scale = REFERENCE_S / reference_s
    wall = sum(r["wall_s"] for r in recs)
    setup = sum(r["wall_s"] for r in recs if r["phase"] == "setup")
    iterate = [r for r in recs if r["phase"] == "iterate"]
    steps = sum(r["steps"] for r in iterate)
    iterate_wall = max(sum(r["wall_s"] for r in iterate), 1e-9)
    return {
        "wall_s": wall * scale,
        "setup_s": setup * scale,
        "steps_per_s": steps / (iterate_wall * scale),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in recs),
        "reference_s": reference_s,
        "raw_wall_s": wall,
        "raw_setup_s": setup,
        "raw_steps_per_s": steps / iterate_wall,
        "cpu_s": sum(r["cpu_s"] for r in recs),
    }


def layer_metrics(recs: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced iteration (all its commands together)."""
    funcs: dict[str, dict[str, float]] = {}
    for rec in recs:
        for name, st in rec.get("functions", {}).items():
            acc = funcs.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "bytes": 0})
            for key in acc:
                acc[key] += st[key]
    layers: dict[str, dict[str, float]] = {}
    for name, st in funcs.items():
        acc = layers.setdefault(name.partition(".")[0], {"calls": 0, "self_s": 0.0})
        acc["calls"] += st["calls"]
        acc["self_s"] += st["self_s"]
    out = {}
    for target, stat, _ in PER_LAYER:
        st = funcs.get(target) or layers.get(target) or {}
        if stat == "us_per_call":
            out[f"{target}.{stat}"] = 1e6 * st["s"] / st["calls"] if st.get("calls") else 0.0
        else:
            out[f"{target}.{stat}"] = st.get(stat, 0)
    out["solver.steps"] = funcs.get("sketch.stoch_grad", {}).get("calls", 0)
    out["solver.iters_to_1e-6"] = sum(c[TARGET_KEY] or 0 for c in crossings(recs))
    out["trace.spans"] = sum(st["calls"] for st in funcs.values())
    return out


def crossings(recs: list[dict]) -> list[dict]:
    """iters_to_1e-6 per (solver seed, beta) from the checked outputs."""
    out = []
    for rec in recs:
        facts = rec.get("facts") or {}
        for beta, hit in facts.get(TARGET_KEY, {}).items():
            out.append({"step": rec["label"], "beta": float(beta), TARGET_KEY: hit})
    return out


def manifest(seed: int) -> dict:
    """Versions, BLAS, thread settings, core count and source revision."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (KeyError, TypeError, AttributeError):
        blas = None
    src = hashlib.sha256()
    for path in sorted(Path("src/shb").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "SHB_THREADS")
        },
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_sha": git_sha(),
        "src_sha256": src.hexdigest(),
        "workload_seed": seed,
    }


def git_sha() -> str | None:
    """HEAD of a .git directory in the working directory, read without git."""
    head = Path(".git/HEAD")
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = Path(".git") / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = Path(".git/packed-refs")
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def unique(records) -> list[dict]:
    out = []
    for rec in records:
        if rec not in out:
            out.append(rec)
    return out


def median(values):
    return statistics.median(values) if values else 0.0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; returns (result line, full artefact)."""
    started = time.perf_counter()
    deadline = started + RUN_LIMIT_S
    work = WORK_DIR / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = "src" + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")

    variants = WORKLOADS[name].make(seed, work / "inputs")
    # compile the package's bytecode once, as an installed package would have it
    run_command([sys.executable, "-c", "import shb.cli"], env, work / "warmup.log", 60.0)

    plain: list[list[dict]] = []
    traced: list[list[dict]] = []
    reference: list[float] = []
    measure_start = time.perf_counter()
    while True:
        i = len(plain)
        steps = variants[i % len(variants)]
        t_iter = time.perf_counter()
        reference.append(run_reference(env, work, deadline - t_iter))
        plain.append(run_iteration(steps, env, work / f"iter{i}", deadline, False, ""))
        if trace:
            traced.append(run_iteration(steps, env, work / f"traced{i}", deadline, True, f"{name}.{seed}.{i}"))
        if i > 0:
            shutil.rmtree(work / f"iter{i - 1}", ignore_errors=True)
            shutil.rmtree(work / f"traced{i - 1}", ignore_errors=True)
        now = time.perf_counter()
        if any(r["timed_out"] for r in plain[-1] + (traced[-1] if trace else [])):
            break
        if now + (now - t_iter) > deadline:
            break
        if len(plain) >= (1 if trace else MIN_ITERATIONS) and now - measure_start + (now - t_iter) > seconds:
            break

    summaries = [
        iteration_summary(recs, ref)
        for recs, ref in zip(plain, reference)
        if not any(r["timed_out"] for r in recs)
    ]
    all_recs = [r for recs in plain + traced for r in recs]
    attempted = len(all_recs)
    failed = sum(not r["ok"] for r in all_recs)

    if trace:
        complete_traced = [recs for recs in traced if not any(r["timed_out"] for r in recs)]
        per_iter = [layer_metrics(recs) for recs in complete_traced]
        values = {k: median([m[k] for m in per_iter]) for k in per_iter[0]} if per_iter else {}
        if complete_traced and traced[0] is complete_traced[0]:
            # an exact count: taken from iteration 0, whose variant every run has
            values["solver.iters_to_1e-6"] = per_iter[0]["solver.iters_to_1e-6"]
        values["trace.wall_s"] = median([sum(r["wall_s"] for r in recs) for recs in complete_traced])
        values["trace.overhead_s"] = values["trace.wall_s"] - median([s["raw_wall_s"] for s in summaries])
        metrics = {k: {"value": values.get(k, 0), "unit": u} for k, u in PER_LAYER_UNITS.items()}
    else:
        metrics = {
            k: {"value": median([s[k] for s in summaries]), "unit": unit}
            for k, unit in END_TO_END.items()
        }

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    artefact = {
        "workload": name,
        "why": WORKLOADS[name].why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "manifest": manifest(seed),
        "iterations": len(summaries),
        "error_rate": failed / attempted if attempted else 0.0,
        "samples": summaries,
        "raw_medians": {
            k: median([s[k] for s in summaries])
            for k in ("reference_s", "raw_wall_s", "raw_setup_s", "raw_steps_per_s", "cpu_s")
        },
        "crossings": unique(c for recs in plain for c in crossings(recs)),
        "errors": [f"{r['label']}: {r['error']}" for r in all_recs if not r["ok"]],
        "commands": [[{k: v for k, v in r.items() if k != "functions"} for r in recs] for recs in plain + traced],
        "functions": [
            {n: st for rec in recs for n, st in rec.get("functions", {}).items()} for recs in traced
        ],
        "result": result,
        "wall_of_run_s": time.perf_counter() - started,
    }
    (WORK_DIR / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(artefact, indent=1))
    return result, artefact


def print_table(name: str, result: dict, artefact: dict) -> None:
    n = artefact["iterations"]
    print(f"{name}: error_rate {artefact['error_rate']:.4g} "
          f"({result['failed']}/{result['attempted']} commands), medians of {n} iterations")
    for metric, m in result["metrics"].items():
        print(f"  {metric:<42} {m['value']:>14.6g} {m['unit']}")
    for metric, value in artefact["raw_medians"].items():
        print(f"  ({metric:<40} {value:>14.6g})")
    for err in artefact["errors"]:
        print(f"  FAILED {err}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not Path("src/shb/cli.py").is_file():
        print("error: run from the repository root (src/shb/cli.py not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path("src").resolve()))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result, artefact = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_table(name, result, artefact)
        results[name] = result
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
