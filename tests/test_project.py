"""Project-level contracts: the names the benchmark harness imports, and
the test configuration in pyproject.toml."""

import subprocess
import sys
from pathlib import Path

import shb
import shb.cli
import shb.experiments
import shb.io
import shb.problems
import shb.sketch
import shb.solver

ROOT = Path(__file__).resolve().parents[1]


def test_names_the_benchmark_uses_exist():
    """perfbench/ imports these; its own tests lie outside testpaths, so a
    rename would otherwise show only as a failed benchmark run."""
    for owner, name in [
        (shb.cli, "main"),
        (shb, "gen_problem"),
        (shb, "row_sampling"),
        (shb, "SolverParams"),
        (shb.solver, "run"),
        (shb.experiments, "summarize_long_rows"),
        (shb.io, "write_bundle"),
        (shb.problems, "Problem"),
    ]:
        assert callable(getattr(owner, name, None)), f"{owner.__name__}.{name}"
    # the harness traces draws at the solver's import site
    assert shb.solver.draw is shb.sketch.draw


FAILING_THEN_PASSING = '''
from hypothesis import given, settings, strategies as st


@settings(database=None, max_examples=5, deadline=None)
@given(st.integers())
def test_fails(n):
    assert n != n


def test_passes():
    pass
'''


def test_failing_hypothesis_test_does_not_abort_the_run(tmp_path):
    """Under the warnings-as-errors setting, a failing @given test must be
    reported as a failure and the tests after it must still run."""
    (tmp_path / "test_two.py").write_text(FAILING_THEN_PASSING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "-p", "no:cacheprovider",
         "-q", str(tmp_path / "test_two.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
