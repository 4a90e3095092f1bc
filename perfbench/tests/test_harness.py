"""Tests of the benchmark harness itself (not of the shb package).

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import inspect
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(REPO / "src"))

import run  # noqa: E402
from tracing import Tracer, function_stats, self_times, union_length  # noqa: E402
from workloads import CheckFailed, Step, Workload  # noqa: E402


def test_union_merges_overlaps_and_clips_to_parent():
    assert union_length([(1, 4), (3, 6), (8, 12)], 0, 10) == pytest.approx(7.0)
    assert union_length([(2, 3), (2, 3)], 0, 10) == pytest.approx(1.0)
    assert union_length([], 0, 10) == 0.0


def test_self_time_is_duration_minus_union_of_children():
    # span 0 has overlapping children 1 and 2 and a child 3 running past
    # its end; span 4 is a grandchild and must not count against span 0
    starts = [0.0, 1.0, 3.0, 8.0, 1.5]
    ends = [10.0, 4.0, 6.0, 12.0, 2.0]
    parents = [-1, 0, 0, 0, 1]
    selfs = self_times(starts, ends, parents)
    assert selfs[0] == pytest.approx(10.0 - (5.0 + 2.0))
    assert selfs[1] == pytest.approx(3.0 - 0.5)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(0.5)


def test_traced_calls_nest_and_self_time_adds_up():
    tracer = Tracer("t")

    def inner():
        return sum(range(1000))

    inner_t = tracer.wrap("m.inner", inner)

    def outer():
        return inner_t() + inner_t()

    tracer.wrap("m.outer", outer)()
    spans = tracer.spans()
    assert spans["names"] == ["m.outer", "m.inner", "m.inner"]
    assert spans["parents"] == [-1, 0, 0]
    stats = function_stats(spans)
    assert stats["m.inner"]["calls"] == 2
    total = spans["ends"][0] - spans["starts"][0]
    assert stats["m.outer"]["self_s"] + stats["m.inner"]["s"] == pytest.approx(total)


def _shb_modules():
    import shb.cli  # noqa: F401  (imports every layer)

    return {n: m for n, m in sys.modules.items() if n == "shb" or n.startswith("shb.")}


def test_every_import_site_of_a_public_function_gets_the_wrapper():
    modules = _shb_modules()
    public = {
        id(obj): obj
        for name, mod in modules.items()
        for attr, obj in vars(mod).items()
        if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == name
    }
    before = {name: dict(vars(mod)) for name, mod in modules.items()}
    tracer = Tracer("t")
    tracer.install("shb")
    try:
        sites = 0
        for name, mod in modules.items():
            for attr, orig in before[name].items():
                if id(orig) in public:
                    now = getattr(mod, attr)
                    assert now is not orig, f"{name}.{attr} not wrapped"
                    assert now.__wrapped__ is orig
                    sites += 1
        assert sites > len(public)  # re-exports and `from x import f` sites too
        import shb.solver

        assert shb.solver.draw.__wrapped__ is before["shb.sketch"]["draw"]
    finally:
        tracer.uninstall()
    for name, mod in modules.items():
        for attr, orig in before[name].items():
            assert getattr(mod, attr) is orig


def test_traced_solver_run_records_draws_under_run():
    import numpy as np

    modules = _shb_modules()
    shb = modules["shb"]
    tracer = Tracer("t")
    tracer.install("shb")
    try:
        problem = shb.gen_problem(20, 5, 0)
        params = shb.SolverParams(omega=1.0, beta=0.0, max_iter=10, seed=0, record_every=5)
        modules["shb.solver"].run(problem, shb.row_sampling(problem.a), params)
    finally:
        tracer.uninstall()
    spans = tracer.spans()
    names = np.array(spans["names"])
    run_id = spans["names"].index("solver.run")
    draws = np.flatnonzero(names == "sketch.draw")
    assert len(draws) == 10
    assert all(spans["parents"][i] == run_id for i in draws)
    assert function_stats(spans)["sketch.expected_h"]["bytes"] == 20 * 20 * 8


def test_failing_output_check_counts_into_error_rate(tmp_path, monkeypatch):
    def wrong(out):
        raise CheckFailed("deliberately wrong")

    def broken(out):
        return {}["missing"]

    steps = [
        Step("gen", "setup", ("gen", "--rows", "4", "--cols", "2", "--out", "{out}/p.json"), 0, wrong),
        Step("gen2", "iterate", ("gen", "--rows", "4", "--cols", "2", "--out", "{out}/q.json"), 1, broken),
        Step("bad", "iterate", ("gen", "--rows", "0", "--cols", "2", "--out", "{out}/r.json"), 1, lambda out: None),
    ]
    monkeypatch.setitem(run.WORKLOADS, "fake", Workload("fake", "test", lambda seed, inputs: [steps]))
    monkeypatch.setattr(run, "WORK_DIR", tmp_path)
    monkeypatch.setattr(run, "MIN_ITERATIONS", 1)
    monkeypatch.chdir(REPO)
    result, artefact = run.run_workload("fake", 0, 0.0, trace=False)
    assert result["attempted"] == 3
    assert result["failed"] == 3
    assert result["correct"] is False
    assert artefact["error_rate"] == 1.0
    assert any("deliberately wrong" in e for e in artefact["errors"])
    assert any("KeyError" in e for e in artefact["errors"])
    assert any("exit 1" in e for e in artefact["errors"])


def test_times_are_scaled_to_the_reference_speed():
    recs = [
        {"phase": "setup", "wall_s": 1.0, "cpu_s": 1.0, "steps": 0, "peak_rss_mb": 10.0},
        {"phase": "iterate", "wall_s": 3.0, "cpu_s": 3.0, "steps": 600, "peak_rss_mb": 20.0},
    ]
    # the reference took twice its nominal time: the machine ran at half speed
    summary = run.iteration_summary(recs, 2 * run.REFERENCE_S)
    assert summary["wall_s"] == pytest.approx(2.0)
    assert summary["setup_s"] == pytest.approx(0.5)
    assert summary["steps_per_s"] == pytest.approx(400.0)
    assert summary["raw_wall_s"] == pytest.approx(4.0)
    assert summary["raw_steps_per_s"] == pytest.approx(200.0)
    assert summary["peak_rss_mb"] == 20.0


def test_benchmark_json_lists_what_the_harness_reports():
    import json

    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in run.WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
