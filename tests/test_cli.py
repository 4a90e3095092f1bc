import csv
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import shb
import shb.experiments
import shb.sketch
import shb.solver
from shb.cli import main
from shb.io import read_bundle


def gen_bundle(tmp_path, rows=6, cols=4, seed=7):
    out = tmp_path / "prob.json"
    rc = main(["gen", "--rows", str(rows), "--cols", str(cols), "--seed", str(seed), "--out", str(out)])
    assert rc == 0
    return out


class TestGen:
    def test_writes_readable_bundle(self, tmp_path):
        out = gen_bundle(tmp_path)
        problem = read_bundle(out)
        assert problem.shape == (6, 4)
        assert problem.planted_solution is not None


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
        src = str(Path(shb.__file__).parent.parent)
        proc = subprocess.run(
            [sys.executable, "-m", "shb.cli", "analyze", "--input", str(bundle)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert "payload" in proc.stderr


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

    @pytest.mark.parametrize("sketch", ["row", "block:2"])
    def test_one_off_quantities_built_once(self, tmp_path, sketch):
        bundle = gen_bundle(tmp_path, rows=12, cols=4)
        out = tmp_path / "trace.csv"
        eh_calls = mock.Mock(wraps=shb.sketch.expected_h)
        spectrum_calls = mock.Mock(wraps=shb.sketch.hessian_spectrum)
        xstar_calls = mock.Mock(wraps=shb.solver.project_onto_solutions)
        with mock.patch.object(shb.sketch, "expected_h", eh_calls), \
                mock.patch.object(shb.solver, "expected_h", eh_calls), \
                mock.patch.object(shb.experiments, "hessian_spectrum", spectrum_calls), \
                mock.patch.object(shb.solver, "project_onto_solutions", xstar_calls), \
                mock.patch.object(shb.experiments, "project_onto_solutions", xstar_calls):
            rc = main([
                "solve", "--input", str(bundle), "--sketch", sketch, "--iters", "40",
                "--record-every", "10", "--out", str(out),
            ])
        assert rc == 0
        assert eh_calls.call_count == 1
        assert spectrum_calls.call_count == 1
        assert xstar_calls.call_count == 1
        assert out.exists()

    def test_divergence_exit_code(self, tmp_path):
        bundle = gen_bundle(tmp_path)
        out = tmp_path / "trace.csv"
        rc = main([
            "solve", "--input", str(bundle), "--beta", "3.0", "--iters", "5000",
            "--record-every", "100", "--out", str(out),
        ])
        assert rc == 2
        assert not out.exists()  # no partial output on failure

    def test_missing_input_exit_code(self, tmp_path):
        rc = main(["solve", "--input", str(tmp_path / "nope.json"), "--out", str(tmp_path / "t.csv")])
        assert rc == 1

    def test_bad_metric_exit_code(self, tmp_path):
        bundle = gen_bundle(tmp_path)
        rc = main([
            "solve", "--input", str(bundle), "--metrics", "nope",
            "--out", str(tmp_path / "t.csv"),
        ])
        assert rc == 1


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

    def test_single_pair_rejected(self, tmp_path):
        bundle = gen_bundle(tmp_path)
        rc = main([
            "sweep", "--input", str(bundle), "--betas", "0.1", "--iters", "10",
            "--out", str(tmp_path / "sw"),
        ])
        assert rc == 1


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

    def test_too_few_reps(self, tmp_path):
        bundle = gen_bundle(tmp_path)
        rc = main(["verify", "--input", str(bundle), "--reps", "10"])
        assert rc == 1


class TestHelp:
    def test_help_exits_zero(self):
        assert main(["--help"]) == 0
        assert main(["solve", "--help"]) == 0
