"""Project-level contracts: the names the benchmark harness imports, the
layering of the package's imports, what the CLI loads, and the
dependencies and test configuration in pyproject.toml."""

import ast
import graphlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

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
        # perfbench's per-layer table counts calls under these names
        (shb.experiments, "build_trace_table"),
        (shb.experiments, "write_trace_csv"),
        (shb.io, "write_bundle"),
        (shb.problems, "Problem"),
    ]:
        assert callable(getattr(owner, name, None)), f"{owner.__name__}.{name}"
    # the harness traces draws at the solver's import site
    assert shb.solver.draw is shb.sketch.draw


def package_imports(path: Path) -> set[str]:
    """The shb modules a source file imports, read from its AST."""
    modules = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):  # a relative import is one of shb's
            modules.add(f"shb.{node.module or ''}" if node.level else node.module)
    return {m for m in modules if m.split(".")[0] == "shb"}


def test_theory_imports_only_errors_from_the_package():
    """The closed forms need nothing of shb but its error taxonomy."""
    assert package_imports(ROOT / "src" / "shb" / "theory.py") == {"shb.errors"}


def test_package_imports_form_no_cycle():
    """The modules import one another in layers (sketch reads theory's
    LMAX_SLACK), so no module meets another half-imported."""
    graph = {
        f"shb.{path.stem}": package_imports(path)
        for path in (ROOT / "src" / "shb").glob("*.py") if path.stem != "__init__"
    }
    assert "shb.theory" in graph["shb.sketch"]
    graphlib.TopologicalSorter(graph).prepare()  # raises CycleError on a cycle


NEW_TOP_LEVEL_MODULES = """
import sys
before = {name.partition(".")[0] for name in sys.modules}
import shb.cli
print(" ".join(sorted({name.partition(".")[0] for name in sys.modules} - before)))
"""


def test_cli_loads_only_the_standard_library_numpy_and_shb():
    """Every command pays for what importing shb.cli loads; a fresh
    interpreter's import adds no package but numpy and shb itself."""
    proc = subprocess.run(
        [sys.executable, "-c", NEW_TOP_LEVEL_MODULES], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    loaded = set(proc.stdout.split())
    assert {"numpy", "shb"} <= loaded and "click" not in loaded
    assert loaded - set(sys.stdlib_module_names) == {"numpy", "shb"}


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert [dep.split(">=")[0] for dep in project["dependencies"]] == ["numpy"]


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
