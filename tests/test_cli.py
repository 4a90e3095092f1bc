import csv
import gc
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import shb
import shb.cli
import shb.experiments
import shb.linalg
import shb.sketch
import shb.solver
from shb.cli import main
from shb.experiments import make_distribution, write_sweep_outputs
from shb.io import read_bundle, write_bundle
from shb.problems import Problem, gen_problem


def gen_bundle(tmp_path, rows=6, cols=4, seed=7):
    out = tmp_path / "prob.json"
    rc = main(["gen", "--rows", str(rows), "--cols", str(cols), "--seed", str(seed), "--out", str(out)])
    assert rc == 0
    return out


def read_strict_json(path):
    """The JSON at path, refusing the Infinity and NaN that json.dumps
    writes by default and JSON does not have."""

    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(Path(path).read_text(), parse_constant=refuse)


def run_python(*argv, stderr=subprocess.PIPE):
    """A fresh interpreter's run of argv, with this checkout's shb on its
    path and stdout block-buffered, as a pipe makes it unless
    PYTHONUNBUFFERED is set; stderr=subprocess.STDOUT merges the streams."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.run(
        [sys.executable, *argv], stdout=subprocess.PIPE, stderr=stderr, text=True,
        env={**env, "PYTHONPATH": str(Path(shb.__file__).parent.parent)},
    )


def one_off_counts(args):
    """Run the CLI; how often it built W, the spectrum and the solution x*,
    and how many single (2-D) eigendecompositions it made.  The stacked
    ones of the W estimate's and the kernel's block and Gaussian chunks
    are left out."""
    eh_calls = mock.Mock(wraps=shb.sketch.expected_h)
    spectrum_calls = mock.Mock(wraps=shb.sketch.spectrum_and_gram)
    xstar_calls = mock.Mock(wraps=shb.linalg.project_onto_solutions)
    eig_calls = mock.Mock(wraps=shb.linalg.sym_eig)
    with mock.patch.object(shb.sketch, "expected_h", eh_calls), \
            mock.patch.object(shb.solver, "expected_h", eh_calls), \
            mock.patch.object(shb.experiments, "spectrum_and_gram", spectrum_calls), \
            mock.patch.object(shb.solver, "project_onto_solutions", xstar_calls), \
            mock.patch.object(shb.experiments, "project_onto_solutions", xstar_calls), \
            mock.patch.object(shb.linalg, "sym_eig", eig_calls), \
            mock.patch.object(shb.sketch, "sym_eig", eig_calls):
        rc = main(args)
    assert rc == 0
    single_eigs = sum(np.ndim(call.args[0]) == 2 for call in eig_calls.call_args_list)
    return eh_calls.call_count, spectrum_calls.call_count, xstar_calls.call_count, single_eigs


class TestGen:
    def test_writes_readable_bundle(self, tmp_path):
        out = gen_bundle(tmp_path)
        problem = read_bundle(out)
        assert problem.shape == (6, 4)
        assert problem.planted_solution is not None

    def test_over_budget_exits_one(self, tmp_path, capsys):
        """A 10^5 x 10^5 matrix (74.5 GiB) is refused before it is drawn."""
        out = tmp_path / "big.json"
        assert main(["gen", "--rows", "100000", "--cols", "100000", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "over the limit" in err and "Traceback" not in err
        assert not out.exists()


class TestAnalyze:
    def test_json_to_file(self, tmp_path):
        bundle = gen_bundle(tmp_path)
        out = tmp_path / "report.json"
        rc = main(["analyze", "--input", str(bundle), "--format", "bundle", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == "shb-analyze-v1"
        assert 0 < payload["spectrum"]["lambda_min_plus"] <= payload["spectrum"]["lambda_max"] <= 1 + 1e-8

    def test_libsvm_input(self, tmp_path):
        data = tmp_path / "data.txt"
        data.write_text("1 1:1.0 2:0.5\n0 2:2.0\n-1 1:0.25 3:1\n")
        rc = main(["analyze", "--input", str(data), "--format", "libsvm"])
        assert rc == 0

    def test_libsvm_too_wide_exits_one(self, tmp_path, capsys):
        data = tmp_path / "wide.txt"
        data.write_text("1 1:1 1000000000000:1\n")
        rc = main(["analyze", "--input", str(data), "--format", "libsvm"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "1000000000000" in err
        assert "Traceback" not in err

    def test_hessian_too_wide_exits_one(self, tmp_path, capsys):
        """1 x 10^6 parses within budget, but its d x d W would not fit."""
        data = tmp_path / "wide.txt"
        data.write_text("1 1:1 1000000:1\n")
        rc = main(["analyze", "--input", str(data), "--format", "libsvm"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err


    def test_csv_non_numeric_cell_exits_one(self, tmp_path, capsys):
        data = tmp_path / "bad.csv"
        data.write_text("c1,c2\n1.0,2.0\n3.0,oops\n")
        assert main(["analyze", "--input", str(data), "--format", "csv"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.rstrip().endswith(":3: non-numeric cell")
        assert "Traceback" not in err

    def test_csv_over_budget_exits_one(self, tmp_path, capsys):
        data = tmp_path / "big.csv"
        data.write_text("c1,c2\n1.0,2.0\n3.0,4.0\n")
        with mock.patch.object(shb.linalg, "MAX_DENSE_ELEMENTS", 3):
            assert main(["analyze", "--input", str(data), "--format", "csv"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.rstrip().endswith(":3: 2 rows of 2 cells are over the limit of 3 entries")
        assert "Traceback" not in err

    @pytest.mark.parametrize("sketch", ["row", "block:2", "gaussian:2"])
    def test_one_off_quantities_built_once(self, tmp_path, sketch):
        """One W, one spectrum and one x*, from two eigendecompositions:
        W's, and the smaller Gram of A's for both rank(A) and x*."""
        bundle = gen_bundle(tmp_path, rows=12, cols=4)
        assert one_off_counts([
            "analyze", "--input", str(bundle), "--sketch", sketch, "--out", str(tmp_path / "a.json"),
        ]) == (1, 1, 1, 2)

    @pytest.mark.parametrize("option,value", [("--beta", "nan"), ("--omega", "inf"), ("--omega", "-inf")])
    def test_non_finite_parameter_exits_one(self, tmp_path, capsys, option, value):
        bundle = gen_bundle(tmp_path)
        out = tmp_path / "a.json"
        assert main(["analyze", "--input", str(bundle), option, value, "--out", str(out)]) == 1
        assert "finite" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("beta", ["1e100", "1e308"])
    def test_overflowing_momentum_writes_valid_json(self, tmp_path, capsys, beta):
        """No Infinity or NaN in the report: the overflowing L2 constants
        become "l2": null, and the momentum bound is still reported."""
        bundle = gen_bundle(tmp_path, rows=6, cols=3, seed=0)
        out = tmp_path / "a.json"
        assert main(["analyze", "--input", str(bundle), "--beta", beta, "--out", str(out)]) == 0
        payload = read_strict_json(out)
        assert payload["l2"] is None
        assert 0.0 < payload["beta_upper"] < 1.0

    def test_lmax_dust_admits_the_unit_stepsize_preset(self, tmp_path):
        """block:6 on a 6x3 matrix gives W the projection onto its row
        space, assembled with lmax a few 1e-9 above 1; omega = 1 is then
        within the dust every rule admits, and both presets are reported."""
        rng = np.random.default_rng(2)
        u = np.linalg.qr(rng.standard_normal((6, 3)))[0]
        v = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        c = 10 ** rng.uniform(2, 4.9)
        a = u @ np.diag([1.0, c**-0.5, 1.0 / c]) @ v.T
        x = rng.standard_normal(3)
        bundle = tmp_path / "dust.json"
        write_bundle(Problem(a, a @ x, x), bundle)
        out = tmp_path / "a.json"
        assert main(["analyze", "--input", str(bundle), "--sketch", "block:6", "--out", str(out)]) == 0
        payload = read_strict_json(out)
        assert 1.0 + 1e-12 < payload["spectrum"]["lambda_max"] <= 1.0 + 1e-8
        choices = payload["l1"]["choices"]
        assert list(choices) == ["unit_stepsize", "inv_lmax"]
        assert choices["unit_stepsize"]["omega"] == 1.0

    def test_mc_samples_option_refused(self, tmp_path, capsys):
        """Every command estimates W from the same seeded draws; analyze
        has no --mc-samples to describe another W."""
        bundle = gen_bundle(tmp_path)
        assert main(["analyze", "--input", str(bundle), "--mc-samples", "5"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: No such option") and "--mc-samples" in err
        assert "Traceback" not in err

    def test_init_sq_dist_is_the_first_trace_record(self, tmp_path):
        """analyze's ||x0 - x*||^2 is the number solve's trace starts from."""
        bundle = gen_bundle(tmp_path, rows=300, cols=100, seed=0)
        analysis, trace = tmp_path / "analyze.json", tmp_path / "trace.csv"
        assert main(["analyze", "--input", str(bundle), "--out", str(analysis)]) == 0
        assert main(["solve", "--input", str(bundle), "--iters", "1", "--out", str(trace)]) == 0
        with open(trace, newline="") as fh:
            first = next(csv.DictReader(fh))
        assert json.loads(analysis.read_text())["cesaro"]["init_sq_dist"] == float(first["l2_error_raw"])


class TestBadManifest:
    @pytest.mark.parametrize("key,value", [
        ("payload", None), ("payload", "../prob.bin"), ("checksum_sha256", 3),
        ("rows", "6"), ("cols", None), ("has_planted", "no"),
    ])
    def test_exit_one_without_traceback(self, tmp_path, capsys, key, value):
        bundle = gen_bundle(tmp_path)
        meta = json.loads(bundle.read_text())
        if value is None:
            del meta[key]
        else:
            meta[key] = value
        bundle.write_text(json.dumps(meta))
        capsys.readouterr()
        assert main(["analyze", "--input", str(bundle)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_entry_point_exit_code(self, tmp_path):
        bundle = gen_bundle(tmp_path)
        meta = json.loads(bundle.read_text())
        del meta["payload"]
        bundle.write_text(json.dumps(meta))
        proc = run_python("-m", "shb.cli", "analyze", "--input", str(bundle))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "payload" in proc.stderr


def without_elapsed(trace_csv: bytes) -> bytes:
    """A CSV trace's bytes with its last column, elapsed_seconds, cut."""
    return re.sub(rb",[^,\r\n]*(\r?\n)", rb"\1", trace_csv)


class TestEntryPoint:
    """python -m shb.cli runs main through entry, which freezes the heap
    built at import before main runs; main itself freezes nothing."""

    @pytest.mark.parametrize("args,code", [
        (["solve", "--beta", "0.3", "--iters", "200", "--record-every", "10", "--out", "t.csv"], 0),
        (["solve", "--beta", "1e308", "--iters", "200", "--record-every", "10", "--out", "t.csv"], 2),
        (["analyze", "--omega", "0.5"], 0),
        (["verify", "--beta", "0.95", "--iters", "3000", "--record-every", "100", "--reps", "100",
          "--out", "v.json"], 2),
    ], ids=["0.3-0", "1e308-2", "analyze-to-stdout", "verify-diverging"])
    def test_process_matches_main(self, tmp_path, capsys, args, code):
        """The exit code, stdout, stderr and output file of a process are
        those of main run in-process, a CSV trace's up to elapsed_seconds.
        The process ends through os._exit, so this also shows that its
        output is flushed first."""
        bundle = gen_bundle(tmp_path, rows=50, cols=20, seed=0)
        out = tmp_path / args[-1] if "--out" in args else None
        args = [args[0], "--input", str(bundle), *args[1:-1], str(out) if out else args[-1]]
        proc = run_python("-m", "shb.cli", *args)
        written = out.read_bytes() if out else None
        if out:
            out.unlink()
        capsys.readouterr()
        assert main(args) == code
        captured = capsys.readouterr()
        assert proc.returncode == code
        assert (proc.stdout, proc.stderr) == (captured.out, captured.err)
        assert ("diverged: " in captured.err) == (code == 2)
        if out is None:
            assert json.loads(captured.out)["schema"] == "shb-analyze-v1"
        elif args[0] == "solve":
            assert captured.out == f"wrote {out} ({len(written.splitlines()) - 1} records)\n"
            assert without_elapsed(written) == without_elapsed(out.read_bytes())
        else:
            assert written == out.read_bytes()

    def test_one_pipe_for_both_streams_keeps_their_order(self, tmp_path):
        """Each line is flushed as it is written, so in a log that takes
        stdout and stderr a diverged solve's `wrote` line comes first."""
        bundle = gen_bundle(tmp_path, rows=20, cols=8, seed=0)
        out = tmp_path / "t.csv"
        proc = run_python(
            "-m", "shb.cli", "solve", "--input", str(bundle), "--beta", "1e308", "--iters", "50",
            "--out", str(out), stderr=subprocess.STDOUT,
        )
        assert proc.returncode == 2
        assert proc.stdout == f"wrote {out} (2 records)\ndiverged: iterate diverged at iteration 2\n"

    def test_main_freezes_nothing(self, tmp_path):
        frozen = gc.get_freeze_count()
        bundle = gen_bundle(tmp_path)
        assert main(["solve", "--input", str(bundle), "--iters", "20", "--out", str(tmp_path / "t.csv")]) == 0
        assert gc.get_freeze_count() == frozen

    def test_import_leaves_the_collector_alone(self):
        proc = run_python("-c", "import gc, shb.cli; print(gc.isenabled(), gc.get_freeze_count())")
        assert proc.stdout == "True 0\n"

    def test_entry_freezes_the_heap_before_main(self):
        """entry freezes the heap, runs main, flushes both streams and ends
        the process with main's code through os._exit (mocked here, as it
        would end the test run)."""
        frozen = gc.get_freeze_count()
        seen = []

        def fake_main():
            seen.append(gc.get_freeze_count())
            return 3

        try:
            with mock.patch.object(shb.cli, "main", fake_main), \
                    mock.patch.object(shb.cli.os, "_exit") as exit_now, \
                    mock.patch.object(shb.cli, "sys") as fake_sys:
                shb.cli.entry()
        finally:
            gc.unfreeze()
        assert seen[0] > frozen
        fake_sys.stdout.flush.assert_called_once_with()
        fake_sys.stderr.flush.assert_called_once_with()
        exit_now.assert_called_once_with(3)

    def test_entry_falls_back_to_sys_exit_when_a_flush_fails(self):
        """A stream that cannot be flushed (a closed pipe) leaves the exit
        to the interpreter, which reports it."""
        try:
            with mock.patch.object(shb.cli, "main", return_value=0), \
                    mock.patch.object(shb.cli.os, "_exit") as exit_now, \
                    mock.patch.object(shb.cli.sys, "stdout") as stdout, \
                    pytest.raises(SystemExit) as exc:
                stdout.flush.side_effect = BrokenPipeError
                shb.cli.entry()
        finally:
            gc.unfreeze()
        assert exc.value.code == 0
        exit_now.assert_not_called()


class TestSolve:
    def test_csv_trace(self, tmp_path):
        bundle = gen_bundle(tmp_path)
        out = tmp_path / "trace.csv"
        rc = main([
            "solve", "--input", str(bundle), "--iters", "50", "--record-every", "10",
            "--out", str(out),
        ])
        assert rc == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh, strict=True))
        assert rows[0][0] == "k"
        assert rows[1][2] == "1.0"  # normalized error starts at one

    def test_csv_input(self, tmp_path):
        """A CSV matrix written as text: b is planted from --seed, and the
        trace starts at k = 0 with relative error one."""
        data = tmp_path / "a.csv"
        data.write_text("c1,c2,c3\n1.0,0.5,0.0\n0.0,2.0,1.0\n0.25,0.0,1.0\n1.0,1.0,1.0\n")
        out = tmp_path / "trace.csv"
        rc = main([
            "solve", "--input", str(data), "--format", "csv", "--iters", "20",
            "--record-every", "5", "--out", str(out),
        ])
        assert rc == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh, strict=True))
        assert rows[0] == shb.experiments.TRACE_HEADER
        assert [row[0] for row in rows[1:]] == ["0", "5", "10", "15", "20"]
        assert rows[1][2] == "1.0"

    def test_other_suffix_selects_csv(self, tmp_path):
        """Any --out suffix but .json gives the CSV trace."""
        bundle = gen_bundle(tmp_path)
        out = tmp_path / "trace.out"
        rc = main([
            "solve", "--input", str(bundle), "--iters", "50", "--record-every", "10",
            "--out", str(out),
        ])
        assert rc == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh, strict=True))
        assert rows[0][0] == "k"
        assert rows[1][2] == "1.0"

    def test_json_suffix_selects_json(self, tmp_path):
        """A .json --out gives the JSON trace, with the CSV trace's rows."""
        bundle = gen_bundle(tmp_path)
        args = ["solve", "--input", str(bundle), "--iters", "50", "--record-every", "10"]
        assert main(args + ["--out", str(tmp_path / "trace.csv")]) == 0
        with open(tmp_path / "trace.csv", newline="") as fh:
            rows = list(csv.reader(fh, strict=True))
        out = tmp_path / "trace.json"
        assert main(args + ["--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["schema"] == "shb-trace-v1"
        assert payload["columns"][0] == "k"
        assert payload["rows"][0]["rel_error_x0"] == 1.0
        assert [r["k"] for r in payload["rows"]] == [int(r[0]) for r in rows[1:]]

    @pytest.mark.parametrize("sketch", ["row", "block:2", "gaussian:2"])
    def test_one_off_quantities_built_once(self, tmp_path, sketch):
        bundle = gen_bundle(tmp_path, rows=12, cols=4)
        out = tmp_path / "trace.csv"
        assert one_off_counts([
            "solve", "--input", str(bundle), "--sketch", sketch, "--iters", "40",
            "--record-every", "10", "--out", str(out),
        ]) == (1, 1, 1, 2)
        assert out.exists()

    def test_divergence_exit_code(self, tmp_path, capsys):
        """A diverged solve exits 2 and still writes its trace, in either
        format, up to the last record before the diverging iteration."""
        bundle = gen_bundle(tmp_path, rows=50, cols=20, seed=0)
        args = ["solve", "--input", str(bundle), "--beta", "3", "--iters", "2000", "--record-every", "10"]
        assert main(args + ["--out", str(tmp_path / "t.csv")]) == 2
        assert main(args + ["--out", str(tmp_path / "t.json")]) == 2
        assert capsys.readouterr().err == "diverged: iterate diverged at iteration 65\n" * 2
        problem = read_bundle(bundle)
        params = shb.SolverParams(omega=1.0, beta=3.0, max_iter=2000, seed=0, record_every=10)
        trace = shb.solver.run(problem, make_distribution("row", problem.a), params)
        assert trace.diverged_at == 65
        assert trace.ks == list(range(0, 61, 10))
        with open(tmp_path / "t.csv", newline="") as fh:
            rows = list(csv.reader(fh, strict=True))
        assert [int(row[0]) for row in rows[1:]] == trace.ks
        payload = json.loads((tmp_path / "t.json").read_text())
        assert payload["diverged_at"] == 65
        assert [row["k"] for row in payload["rows"]] == trace.ks

    @pytest.mark.parametrize("option,value,at", [("--beta", "1e308", 2), ("--omega", "1e300", 1)])
    def test_overflow_diverges_without_a_warning(self, tmp_path, capsys, option, value, at):
        """A step that overflows ends the run as diverged, and numpy's
        overflow warning (an error in this suite) is not raised."""
        bundle = gen_bundle(tmp_path, rows=20, cols=8, seed=0)
        capsys.readouterr()
        rc = main(["solve", "--input", str(bundle), option, value, "--iters", "50", "--out", str(tmp_path / "t.csv")])
        assert rc == 2
        assert capsys.readouterr().err == f"diverged: iterate diverged at iteration {at}\n"

    @pytest.mark.parametrize("option,value", [("--beta", "nan"), ("--beta", "inf"), ("--omega", "inf"), ("--omega", "nan")])
    def test_non_finite_parameter_exits_one(self, tmp_path, capsys, option, value):
        bundle = gen_bundle(tmp_path)
        out = tmp_path / "trace.csv"
        assert main(["solve", "--input", str(bundle), option, value, "--iters", "10", "--out", str(out)]) == 1
        assert "finite" in capsys.readouterr().err
        assert not out.exists()

    def test_record_schedule_over_budget_exits_one(self, tmp_path, capsys):
        bundle = gen_bundle(tmp_path)
        out = tmp_path / "trace.csv"
        rc = main([
            "solve", "--input", str(bundle), "--iters", "100000000", "--record-every", "1",
            "--out", str(out),
        ])
        assert rc == 1
        assert "record less often" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_input_exit_code(self, tmp_path):
        rc = main(["solve", "--input", str(tmp_path / "nope.json"), "--out", str(tmp_path / "t.csv")])
        assert rc == 1

    def test_metrics_option_refused(self, tmp_path, capsys):
        """Every run records the same series; there is no --metrics."""
        bundle = gen_bundle(tmp_path)
        rc = main([
            "solve", "--input", str(bundle), "--metrics", "l2_error",
            "--out", str(tmp_path / "t.csv"),
        ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: No such option") and "--metrics" in err
        assert not (tmp_path / "t.csv").exists()


class TestSweep:
    def test_outputs(self, tmp_path):
        bundle = gen_bundle(tmp_path, rows=20, cols=6, seed=3)
        out_dir = tmp_path / "sw"
        rc = main([
            "sweep", "--input", str(bundle), "--betas", "0,0.1", "--iters", "400",
            "--record-every", "20", "--out", str(out_dir),
        ])
        assert rc == 0
        assert (out_dir / "sweep_long.csv").exists()
        with open(out_dir / "sweep_summary.csv", newline="") as fh:
            rows = list(csv.reader(fh, strict=True))
        assert rows[0][:4] == ["pair_id", "omega", "beta", "status"]
        assert len(rows) == 3

    @pytest.mark.parametrize("sketch", ["row", "block:2", "gaussian:2"])
    def test_one_off_quantities_built_once(self, tmp_path, sketch):
        """One W and one x* for all pairs, and no spectrum: the Gram of A
        is the only single eigendecomposition."""
        bundle = gen_bundle(tmp_path, rows=12, cols=4)
        assert one_off_counts([
            "sweep", "--input", str(bundle), "--sketch", sketch, "--betas", "0,0.1",
            "--iters", "40", "--record-every", "10", "--out", str(tmp_path / "sw"),
        ]) == (1, 0, 1, 1)

    def test_iterates_over_budget_exit_one(self, tmp_path, capsys):
        """3 pairs of 2 records fit 24 numbers of records, but with their
        iterates (3 x 4 x 4) not 71."""
        bundle = gen_bundle(tmp_path)
        with mock.patch.object(shb.linalg, "MAX_DENSE_ELEMENTS", 71):
            rc = main([
                "sweep", "--input", str(bundle), "--betas", "0,0.1,0.2", "--iters", "10",
                "--record-every", "10", "--out", str(tmp_path / "sw"),
            ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "fewer replications or pairs" in err
        assert not (tmp_path / "sw").exists()

    def test_row_hessian_over_budget_exits_one(self, tmp_path, capsys):
        """A 2 x 40 row-sampling sweep fits a budget of 1599 numbers in its
        matrix and its records, but its 40 x 40 W does not: it is refused
        before a stream, x* or W exists."""
        bundle = gen_bundle(tmp_path, rows=2, cols=40)
        failing = mock.Mock(side_effect=AssertionError("built before the budget check"))
        tracemalloc.start()
        try:
            with mock.patch.object(shb.linalg, "MAX_DENSE_ELEMENTS", 40 * 40 - 1), \
                    mock.patch.object(shb.solver, "derive_stream", failing), \
                    mock.patch.object(shb.solver, "project_onto_solutions", failing), \
                    mock.patch.object(shb.solver, "expected_h", failing):
                rc = main([
                    "sweep", "--input", str(bundle), "--betas", "0,0.1", "--iters", "4",
                    "--record-every", "2", "--out", str(tmp_path / "sw"),
                ])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "40x40 Hessian W is over the limit" in err
        failing.assert_not_called()
        assert peak < 1 << 20
        assert not (tmp_path / "sw").exists()

    def test_diverged_pair_shows_its_iteration(self, tmp_path, capsys):
        bundle = gen_bundle(tmp_path, rows=50, cols=20, seed=0)
        capsys.readouterr()
        rc = main([
            "sweep", "--input", str(bundle), "--betas", "0,3", "--iters", "500",
            "--record-every", "50", "--out", str(tmp_path / "sw"),
        ])
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1] == "  pair 0 omega=1 beta=0 [ok] 0.01:250, 0.0001:-, 1e-06:-"
        assert lines[2] == "  pair 1 omega=1 beta=3 [diverged at 65] 0.01:-, 0.0001:-, 1e-06:-"

    def test_overflowing_pair_leaves_the_other_ok(self, tmp_path, capsys):
        bundle = gen_bundle(tmp_path, rows=20, cols=8, seed=0)
        capsys.readouterr()
        rc = main([
            "sweep", "--input", str(bundle), "--betas", "0,1e308", "--iters", "50",
            "--out", str(tmp_path / "sw"),
        ])
        assert rc == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert lines[1].startswith("  pair 0 omega=1 beta=0 [ok] ")
        assert lines[2].startswith("  pair 1 omega=1 beta=1e+308 [diverged at 2] ")

    def test_single_pair_rejected(self, tmp_path):
        bundle = gen_bundle(tmp_path)
        rc = main([
            "sweep", "--input", str(bundle), "--betas", "0.1", "--iters", "10",
            "--out", str(tmp_path / "sw"),
        ])
        assert rc == 1
        assert not (tmp_path / "sw").exists()

    @pytest.mark.parametrize("betas", ["0,nan", "inf,0"])
    def test_non_finite_beta_rejected(self, tmp_path, betas):
        bundle = gen_bundle(tmp_path)
        rc = main([
            "sweep", "--input", str(bundle), "--betas", betas, "--iters", "10",
            "--out", str(tmp_path / "sw"),
        ])
        assert rc == 1
        assert not (tmp_path / "sw").exists()

    def test_empty_betas_rejected(self, tmp_path):
        bundle = gen_bundle(tmp_path)
        rc = main([
            "sweep", "--input", str(bundle), "--betas", ",", "--iters", "10",
            "--out", str(tmp_path / "sw"),
        ])
        assert rc == 1
        assert not (tmp_path / "sw").exists()


class TestVerify:
    def test_report_written(self, tmp_path):
        bundle = gen_bundle(tmp_path, rows=8, cols=3, seed=11)
        out = tmp_path / "verify.json"
        rc = main([
            "verify", "--input", str(bundle), "--beta", "0.01", "--iters", "30",
            "--record-every", "5", "--reps", "150", "--out", str(out),
        ])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["schema"] == "shb-verify-v1"
        assert report["replications"] == 150
        # every run records the same three series; no iterate is stored
        assert report["params"]["metrics"] == ["cesaro_f", "f_value", "l2_error"]
        assert report["l1_le_l2"]["applicable"] is True
        assert "diverged_at" not in report

    @pytest.mark.parametrize("sketch", ["row", "block:2", "gaussian:2"])
    def test_one_off_quantities_built_once(self, tmp_path, sketch):
        bundle = gen_bundle(tmp_path, rows=12, cols=4)
        assert one_off_counts([
            "verify", "--input", str(bundle), "--sketch", sketch, "--beta", "0.01",
            "--iters", "20", "--record-every", "5", "--reps", "100",
        ]) == (1, 1, 1, 2)

    def test_too_few_reps(self, tmp_path):
        bundle = gen_bundle(tmp_path)
        rc = main(["verify", "--input", str(bundle), "--reps", "10"])
        assert rc == 1

    def test_ensemble_over_budget_exits_one(self, tmp_path, capsys):
        """10^9 replications of 4 coordinates are refused before a stream
        or an iterate array exists."""
        bundle = gen_bundle(tmp_path)
        out = tmp_path / "verify.json"
        rc = main(["verify", "--input", str(bundle), "--reps", "1000000000", "--out", str(out)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "fewer replications or pairs" in err
        assert not out.exists()

    def test_l1_window_without_two_records_exits_one(self, tmp_path, capsys):
        """The accelerated preset recorded only at k = 0 and k = iters leaves
        one record in the expected-iterate fit window [0.1 iters, iters]:
        the slope cannot be fitted, so verify refuses the schedule before
        any replication runs."""
        bundle = tmp_path / "small.json"
        assert main(["gen", "--rows", "50", "--cols", "20", "--seed", "0", "--out", str(bundle)]) == 0
        assert main(["analyze", "--input", str(bundle), "--out", str(tmp_path / "a.json")]) == 0
        preset = json.loads((tmp_path / "a.json").read_text())["l1"]["choices"]["unit_stepsize"]
        out = tmp_path / "verify.json"
        runs = mock.Mock(wraps=shb.experiments.run_ensemble)
        capsys.readouterr()
        with mock.patch.object(shb.experiments, "run_ensemble", runs):
            rc = main([
                "verify", "--input", str(bundle), "--omega", repr(preset["omega"]),
                "--beta", repr(preset["beta"]), "--iters", "200", "--record-every", "200",
                "--reps", "100", "--out", str(out),
            ])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "record more often" in err
        runs.assert_not_called()
        assert not out.exists()

    def test_l1_le_l2_holds_with_replicas_near_the_solution(self, tmp_path, capsys):
        """At a tiny momentum every replica of this block:6 run sits at
        nearly the same iterate near x*; the mean of x - x* keeps the
        Jensen check l1_sq <= l2_mean exact where mean(x) - x* would
        cancel and fail it on rounding."""
        bundle = gen_bundle(tmp_path, rows=6, cols=3, seed=15)
        out = tmp_path / "verify.json"
        rc = main([
            "verify", "--input", str(bundle), "--sketch", "block:6", "--omega", "1",
            "--beta", "2.5125786760090427e-05", "--iters", "6", "--record-every", "1",
            "--reps", "100", "--out", str(out),
        ])
        assert rc == 0
        report = json.loads(out.read_text())
        assert report["l1_le_l2"]["pass"] is True
        assert "overall: PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("rows,cols,args", [
        (6, 3, ["--sketch", "block:6", "--iters", "10", "--record-every", "1"]),
        (50, 2, ["--iters", "200", "--record-every", "10"]),
    ])
    def test_exact_convergence_passes(self, tmp_path, capsys, rows, cols, args):
        """At omega = 1, beta = 0 these runs reach x* up to rounding, where
        the L2 bound falls below 1e-30; from there each row's limit is the
        measurement floor, which the rounding noise stays under."""
        bundle = gen_bundle(tmp_path, rows=rows, cols=cols, seed=0)
        out = tmp_path / "verify.json"
        rc = main([
            "verify", "--input", str(bundle), "--omega", "1", "--beta", "0", *args,
            "--reps", "100", "--out", str(out),
        ])
        assert rc == 0
        report = read_strict_json(out)
        limits = [row["bound"] for row in report["l2"]["rows"]]
        assert report["l2"]["pass"] is True and limits[-1] == limits[-2]  # the floor binds
        assert "overall: PASS" in capsys.readouterr().out

    def test_failed_check_exits_three(self, tmp_path, capsys):
        bundle = gen_bundle(tmp_path, rows=8, cols=3, seed=11)
        out = tmp_path / "verify.json"
        real = shb.experiments.verify

        def failing(*args, **kwargs):
            report = real(*args, **kwargs)
            report["l2"]["pass"] = False
            report["pass"] = False
            return report

        with mock.patch.object(shb.experiments, "verify", failing):
            rc = main([
                "verify", "--input", str(bundle), "--beta", "0.01", "--iters", "30",
                "--record-every", "5", "--reps", "150", "--out", str(out),
            ])
        assert rc == 3
        assert json.loads(out.read_text())["pass"] is False
        assert "overall: FAIL" in capsys.readouterr().out

    def test_divergence_exits_two_and_writes_the_report(self, tmp_path, capsys):
        """beta = 0.95 is admissible for the expected-iterate bound here, and
        every replication diverges: verify exits 2 and writes a report
        without check sections, naming the earliest diverging iteration of
        any replication, which is not replication 0's."""
        bundle = gen_bundle(tmp_path, rows=50, cols=20, seed=0)
        out = tmp_path / "v.json"
        rc = main([
            "verify", "--input", str(bundle), "--beta", "0.95", "--iters", "3000",
            "--record-every", "100", "--reps", "100", "--out", str(out),
        ])
        assert rc == 2
        problem = read_bundle(bundle)
        dist = make_distribution("row", problem.a)
        params = shb.SolverParams(omega=1.0, beta=0.95, max_iter=3000, seed=0, record_every=100)
        eh = shb.expected_h(dist, problem.a).value
        xstar = shb.project_onto_solutions(np.zeros(20), problem.a, problem.b)
        solo = [shb.run(problem, dist, params, eh=eh, xstar=xstar, stream_index=r).diverged_at for r in range(100)]
        assert None not in solo and min(solo) < solo[0]
        report = json.loads(out.read_text())
        assert list(report) == [
            "schema", "problem_source", "params", "replications", "slack_factor", "spectrum", "diverged_at", "pass",
        ]
        assert report["diverged_at"] == min(solo)
        assert report["pass"] is False
        captured = capsys.readouterr()
        assert captured.err == f"diverged: iterate diverged at iteration {min(solo)}\n"
        assert "overall" not in captured.out


@pytest.mark.parametrize("command,args,code", [
    ("solve", ["--iters", "50", "--record-every", "10"], 0),
    ("solve", ["--beta", "3", "--iters", "2000", "--record-every", "10"], 2),
    ("verify", ["--beta", "0.01", "--iters", "30", "--record-every", "5", "--reps", "100"], 0),
    ("verify", ["--beta", "0.95", "--iters", "3000", "--record-every", "100", "--reps", "100"], 2),
])
def test_written_json_has_no_infinity_or_nan(tmp_path, command, args, code):
    """solve's JSON trace and verify's report are strict JSON, also when
    the run diverged (exit 2)."""
    bundle = gen_bundle(tmp_path, rows=50, cols=20, seed=0)
    out = tmp_path / "out.json"
    assert main([command, "--input", str(bundle), *args, "--out", str(out)]) == code
    payload = read_strict_json(out)
    assert ("diverged_at" in payload) == (code == 2)


class TestReadmeRecipes:
    """The two experiment recipes of the README, run through the CLI."""

    def test_momentum_sweep(self, tmp_path):
        bundle = tmp_path / "prob.json"
        assert main(["gen", "--rows", "60", "--cols", "20", "--seed", "0", "--out", str(bundle)]) == 0
        out = tmp_path / "sweep_out"
        rc = main([
            "sweep", "--input", str(bundle), "--omega", "1.0", "--betas", "0,0.2,0.3,0.4,0.5",
            "--iters", "1200", "--record-every", "25", "--seed", "0", "--out", str(out),
        ])
        assert rc == 0
        problem = gen_problem(60, 20, seed=0)
        pairs = tuple((1.0, b) for b in (0.0, 0.2, 0.3, 0.4, 0.5))
        long_rows, summaries = shb.experiments.sweep(
            problem, make_distribution("row", problem.a), pairs, 1200, 25, 0
        )
        ref = tmp_path / "ref"
        write_sweep_outputs(long_rows, summaries, ref)
        for name in ("sweep_summary.csv", "sweep_long.csv"):
            assert (out / name).read_bytes() == (ref / name).read_bytes()

    def test_verify_at_half_the_momentum_bound(self, tmp_path, capsys):
        bundle = tmp_path / "small.json"
        assert main(["gen", "--rows", "50", "--cols", "20", "--seed", "0", "--out", str(bundle)]) == 0
        analysis = tmp_path / "analyze.json"
        assert main(["analyze", "--input", str(bundle), "--out", str(analysis)]) == 0
        beta = json.loads(analysis.read_text())["beta_upper"] / 2
        report = tmp_path / "report.json"
        capsys.readouterr()
        rc = main([
            "verify", "--input", str(bundle), "--beta", str(beta), "--iters", "1000",
            "--record-every", "50", "--reps", "500", "--out", str(report),
        ])
        assert rc == 0
        assert "overall: PASS" in capsys.readouterr().out
        payload = json.loads(report.read_text())
        assert payload["pass"] is True
        assert payload["params"]["beta"] == beta


class TestHelp:
    OPTIONS = {
        "gen": ["--rows", "--cols", "--seed", "--out"],
        "analyze": ["--input", "--format", "--sketch", "--seed", "--omega", "--beta", "--out"],
        "solve": ["--input", "--format", "--sketch", "--seed", "--omega", "--beta", "--iters",
                  "--record-every", "--out"],
        "sweep": ["--input", "--format", "--sketch", "--seed", "--omega", "--betas", "--iters",
                  "--record-every", "--out"],
        "verify": ["--input", "--format", "--sketch", "--seed", "--omega", "--beta", "--iters",
                   "--record-every", "--reps", "--out"],
    }

    def test_help_exits_zero(self, capsys):
        """shb --help lists every command on stdout."""
        assert main(["--help"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert all(re.search(rf"^ +{command}\b", captured.out, re.M) for command in self.OPTIONS)
        assert main(["solve", "--help"]) == 0

    @pytest.mark.parametrize("command", list(OPTIONS))
    def test_command_help_names_every_option(self, capsys, command):
        assert main([command, "--help"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        options = set(re.findall(r"--[a-z-]+", captured.out))
        assert options == {"--help", *self.OPTIONS[command]}

    def test_module_help_in_a_process(self):
        proc = run_python("-m", "shb.cli", "--help")
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: shb") and proc.stderr == ""


def usage_cases():
    """(name, command line) for each usage error of each command that has
    the option involved; {bundle}, {out} and {missing} stand for an input
    bundle, an output path and a path that does not exist."""
    valid = {
        "gen": ["gen", "--rows", "4", "--cols", "3", "--out", "{out}"],
        "analyze": ["analyze", "--input", "{bundle}", "--out", "{out}"],
        "solve": ["solve", "--input", "{bundle}", "--iters", "5", "--out", "{out}"],
        "sweep": ["sweep", "--input", "{bundle}", "--betas", "0,0.1", "--iters", "5", "--out", "{out}"],
        "verify": ["verify", "--input", "{bundle}", "--iters", "5", "--reps", "100", "--out", "{out}"],
    }
    cases = [
        ("no-command", []),
        ("unknown-command", ["frobnicate", "--input", "{bundle}"]),
        ("option-before-command", ["--bogus", "solve", "--input", "{bundle}", "--out", "{out}"]),
    ]
    for command, args in valid.items():
        first, rest = args[1], args[3:]
        cases += [
            (f"{command}-unknown-option", args + ["--bogus", "1"]),
            (f"{command}-abbreviation", [command, first[:-2], args[2], *rest]),
            (f"{command}-missing-required", [command, *rest]),
            (f"{command}-not-an-integer", args + ["--iters" if "--iters" in args else "--seed", "x"]),
        ]
        if first == "--input":
            cases += [
                (f"{command}-unknown-format", args + ["--format", "xml"]),
                (f"{command}-no-such-input", [command, "--input", "{missing}", *rest]),
            ]
    return cases


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [args for _, args in usage_cases()], ids=[name for name, _ in usage_cases()])
    def test_exits_one_before_writing(self, tmp_path, capsys, argv):
        """An unknown or abbreviated option is named as unknown, before a
        missing required option would be reported."""
        bundle = gen_bundle(tmp_path)
        out = tmp_path / "out"
        paths = {"{bundle}": str(bundle), "{out}": str(out), "{missing}": str(tmp_path / "missing.json")}
        capsys.readouterr()
        assert main([paths.get(arg, arg) for arg in argv]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "Traceback" not in captured.err
        unknown = next((arg for arg in argv if arg in ("--bogus", "--inp", "--ro")), None)
        assert (captured.err == f"error: No such option: {unknown}\n") == (unknown is not None)
        assert captured.out == ""
        assert not out.exists()

    def test_negative_seed_is_a_value(self, tmp_path, capsys):
        bundle = gen_bundle(tmp_path)
        out = tmp_path / "t.csv"
        assert main(["solve", "--input", str(bundle), "--seed", "-1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "nonnegative" in err
        assert not out.exists()

    def test_negative_beta_is_a_value(self, tmp_path, capsys):
        bundle = gen_bundle(tmp_path)
        out = tmp_path / "sw"
        assert main(["sweep", "--input", str(bundle), "--betas", "-0.1,0.2", "--out", str(out)]) == 1
        assert "beta must be finite and >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_attached_value(self, tmp_path):
        bundle = gen_bundle(tmp_path)
        out = tmp_path / "a.json"
        assert main(["analyze", f"--input={bundle}", f"--out={out}"]) == 0
        assert json.loads(out.read_text())["schema"] == "shb-analyze-v1"

    def test_repeated_omega_reports_each(self, tmp_path):
        bundle = gen_bundle(tmp_path)
        out = tmp_path / "a.json"
        assert main(["analyze", "--input", str(bundle), "--omega", "1", "--omega", "0.5", "--out", str(out)]) == 0
        by_omega = json.loads(out.read_text())["beta_upper_by_omega"]
        assert [row["omega"] for row in by_omega] == [1.0, 0.5]
