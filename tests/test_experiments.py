import csv
import json
import math
import tracemalloc

import numpy as np
import pytest

from unittest import mock

import shb.experiments
from shb.errors import InsufficientReplications, NotAdmissible, OutOfRange
from shb.experiments import (
    MEASUREMENT_FLOOR,
    TRACE_HEADER,
    analyze,
    first_crossing,
    make_distribution,
    solve,
    summarize_long_rows,
    sweep,
    verify,
    write_sweep_outputs,
    write_trace_csv,
)
from shb.io import write_json
from shb.problems import Problem, gen_problem
from shb.sketch import BlockRow, GaussianSketch, UnitCoordinate, row_sampling
from shb.solver import SolverParams, run
from shb.theory import applicability, l1_params, l2_rate


def toy_problem() -> Problem:
    return Problem(a=np.eye(2), b=np.array([1.0, 2.0]), source="toy")


class TestMakeDistribution:
    def test_row(self):
        assert isinstance(make_distribution("row", np.eye(2)), UnitCoordinate)

    def test_block_and_gaussian(self):
        assert make_distribution("block:3", np.eye(4)) == BlockRow(3)
        assert make_distribution("gaussian:2", np.eye(4)) == GaussianSketch(2)

    def test_bad_specs(self):
        with pytest.raises(OutOfRange):
            make_distribution("block:x", np.eye(2))
        with pytest.raises(OutOfRange):
            make_distribution("rows", np.eye(2))

    @pytest.mark.parametrize("spec", [
        "row:3", "row:", " row", "row\n", "block", "block:", "block:1_0", "block:+5", "block: 5",
        "block:5 ", "block:5\n", "block:\u0665", "gaussian:\uff15", "gaussian:-1", "gaussian:2:3",
        "Block:2", "block:2.0", pytest.param("block:" + "9" * 5000, id="block:5000-digits"),
    ])
    def test_only_row_or_a_name_and_ascii_digits(self, spec):
        with pytest.raises(OutOfRange):
            make_distribution(spec, np.eye(20))

    def test_leading_zeros_are_digits(self):
        assert make_distribution("block:05", np.eye(6)) == BlockRow(5)
        assert make_distribution("gaussian:012", np.eye(20)) == GaussianSketch(12)


class TestAnalyze:
    def test_toy_reports_worked_constants(self):
        problem = toy_problem()
        dist = row_sampling(problem.a)
        payload = analyze(problem, dist, omegas=(1.0,), beta=0.0)
        assert payload["spectrum"]["lambda_max"] == pytest.approx(0.5, abs=1e-14)
        assert payload["spectrum"]["lambda_min_plus"] == pytest.approx(0.5, abs=1e-14)
        assert payload["l2"]["q"] == pytest.approx(0.5, abs=1e-14)
        assert payload["beta_upper"] == pytest.approx(0.1123724356957945, abs=1e-12)
        assert payload["spectrum"]["exact"] is True

    def test_dict_schema(self):
        problem = toy_problem()
        dist = row_sampling(problem.a)
        payload = analyze(problem, dist)
        json.dumps(payload)  # must be serializable
        assert list(payload) == [
            "schema", "spectrum", "l2", "beta_upper", "beta_upper_by_omega", "cesaro", "l1",
        ]
        assert payload["schema"] == "shb-analyze-v1"
        assert payload["l1"]["norm"] == "euclidean"
        for choice in ("unit_stepsize", "inv_lmax"):
            entry = payload["l1"]["choices"][choice]
            assert entry["rate_factor"] == entry["beta"]
            assert entry["predicted_iters_to_1e-6"] >= 1
        assert payload["l2"]["predicted_iters_to_1e-6"] == math.ceil(math.log(1e-6) / math.log(0.5))

    def test_rank_deficient_reported(self):
        a = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]])
        problem = Problem(a=a, b=np.zeros(2), source="deficient")
        payload = analyze(problem, row_sampling(a))
        assert payload["spectrum"]["rank"] == 1 < a.shape[1]

    def test_inadmissible_stepsize_yields_no_l2(self):
        problem = toy_problem()
        payload = analyze(problem, row_sampling(problem.a), omegas=(2.5,))
        assert payload["l2"] is None

    @pytest.mark.parametrize("beta", [0.0, 0.05, 1.0, 1e10, 1e77, 1e78, 1e100, 1e154, 1e155, 1e200, 1e308])
    def test_payload_is_valid_json_at_any_finite_momentum(self, beta):
        """Past beta ~ 1e77 the L2 constants overflow; they are reported as
        no L2 bound, never as Infinity or NaN."""
        problem = toy_problem()
        payload = analyze(problem, row_sampling(problem.a), beta=beta)
        json.dumps(payload, allow_nan=False)
        if beta >= 1e100:
            assert payload["l2"] is None


class TestTraceTable:
    def test_header_exact(self):
        assert TRACE_HEADER == [
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

    def test_toy_table(self, tmp_path):
        problem = toy_problem()
        dist = row_sampling(problem.a)
        params = SolverParams(omega=1.0, beta=0.0, max_iter=30, seed=0, record_every=5)
        payload = solve(problem, dist, params)
        assert all(list(row) == TRACE_HEADER for row in payload["rows"])
        first = payload["rows"][0]
        assert first["k"] == 0
        assert first["rel_error_x0"] == pytest.approx(1.0)
        assert first["cesaro_f"] is None
        assert first["theory_cesaro_bound"] is None
        # unit stepsize on the identity: trace must reach zero error
        last = payload["rows"][-1]
        assert last["l2_error_raw"] == 0.0
        # admissible momentum-free rate: envelope column populated
        assert first["theory_l2_bound"] == pytest.approx(first["l2_error_raw"])

        path = tmp_path / "t.csv"
        write_trace_csv(payload, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh, strict=True))
        assert rows[0] == TRACE_HEADER
        assert len(rows) == 1 + len(payload["rows"])
        assert rows[1][0] == "0"
        assert rows[1][2] == "1.0"
        assert rows[1][5] == ""  # empty cell for the undefined average at k=0

    def test_json_trace(self, tmp_path):
        problem = toy_problem()
        dist = row_sampling(problem.a)
        params = SolverParams(omega=1.0, beta=0.0, max_iter=10, seed=0, record_every=5)
        payload = solve(problem, dist, params)
        path = tmp_path / "t.json"
        write_json(payload, path)
        assert json.loads(path.read_text()) == payload
        assert list(payload) == ["schema", "problem_source", "params", "columns", "rows"]
        assert payload["schema"] == "shb-trace-v1"
        assert payload["columns"] == TRACE_HEADER
        assert payload["rows"][0]["k"] == 0
        assert payload["params"]["omega"] == 1.0

    def test_diverged_trace_stops_before_diverged_at(self):
        problem = toy_problem()
        dist = row_sampling(problem.a)
        params = SolverParams(omega=1.0, beta=3.0, max_iter=5000, seed=0, record_every=100)
        payload = solve(problem, dist, params)
        trace = run(problem, dist, params)
        assert trace.diverged_at is not None
        assert payload["diverged_at"] == trace.diverged_at
        assert [row["k"] for row in payload["rows"]] == trace.ks
        assert all(row["k"] < trace.diverged_at for row in payload["rows"])


class TestSweep:
    def test_requires_two_pairs(self):
        problem = toy_problem()
        with pytest.raises(OutOfRange):
            sweep(problem, row_sampling(problem.a), ((1.0, 0.0),), 10, 1, 0)

    def test_divergent_pair_marked_not_fatal(self):
        problem = toy_problem()
        dist = row_sampling(problem.a)
        long_rows, summaries = sweep(
            problem, dist, ((1.0, 0.0), (1.0, 3.0)), 3000, 50, 0
        )
        assert summaries[0]["status"] == "ok"
        assert summaries[1]["status"] == "diverged"
        assert summaries[1]["diverged_at"] >= 1
        assert all(r[0] == 0 for r in long_rows)  # only the healthy pair has rows

    def test_summary_recomputable_from_long_rows(self, tmp_path):
        problem = gen_problem(30, 10, seed=3)
        dist = row_sampling(problem.a)
        pairs = ((1.0, 0.0), (1.0, 0.2))
        long_rows, summaries = sweep(problem, dist, pairs, 2000, 10, 1)
        recomputed = summarize_long_rows(long_rows)
        for live, offline in zip(summaries, recomputed):
            assert live["pair_id"] == offline["pair_id"]
            for thr in ("iters_to_0.01", "iters_to_0.0001", "iters_to_1e-06"):
                assert live[thr] == offline[thr]

        long_path, summary_path = write_sweep_outputs(long_rows, summaries, tmp_path / "sw")
        with open(long_path, newline="") as fh:
            rows = list(csv.reader(fh, strict=True))
        assert rows[0] == ["pair_id", "omega", "beta", "k", "metric", "value"]
        # offline recomputation from the written CSV agrees too
        parsed = [
            [int(r[0]), float(r[1]), float(r[2]), int(r[3]), r[4], float(r[5])]
            for r in rows[1:]
        ]
        assert summarize_long_rows(parsed)[0]["iters_to_0.01"] == summaries[0]["iters_to_0.01"]

    def test_failed_write_leaves_no_partial_file(self, tmp_path):
        class Unprintable:
            def __str__(self):
                raise RuntimeError("cannot format")

        long_rows = [[0, 1.0, 0.0, k, "l2_error_raw", 1.0] for k in range(2000)]
        long_rows.append([0, 1.0, 0.0, 2000, "l2_error_raw", Unprintable()])
        out_dir = tmp_path / "sw"
        with pytest.raises(RuntimeError):
            write_sweep_outputs(long_rows, [], out_dir)
        assert list(out_dir.iterdir()) == []

    def test_first_crossing(self):
        assert first_crossing([0, 5, 10], [4.0, 0.4, 0.04], 4.0, 1e-1) == 5
        assert first_crossing([0, 5], [4.0, 2.0], 4.0, 1e-6) is None


class TestVerify:
    def test_insufficient_replications(self):
        problem = toy_problem()
        params = SolverParams(omega=1.0, beta=0.0, max_iter=5, seed=0)
        with pytest.raises(InsufficientReplications):
            verify(problem, row_sampling(problem.a), params, replications=50)

    def test_ensemble_memory_does_not_grow_with_records_times_iterates(self):
        """verify averages its replications inside the kernel: going from 2
        to 401 records costs scalars per replication, not a copy of every
        iterate (401 records of 100 x 200 iterates would be 64 MB)."""
        problem = gen_problem(30, 200, seed=16)
        dist = row_sampling(problem.a)
        reps, peaks = 100, []
        for every in (400, 1):
            params = SolverParams(omega=1.0, beta=0.01, max_iter=400, seed=0, record_every=every)
            tracemalloc.start()
            try:
                report = verify(problem, dist, params, replications=reps)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert len(report["cesaro"]["rows"]) == 400 // every  # k >= 1
        assert peaks[1] - peaks[0] <= 401 * reps * 200 * 8 / 16

    def test_nothing_applicable(self):
        problem = toy_problem()
        # stepsize beyond every hypothesis: no section applies
        params = SolverParams(omega=5.0, beta=0.01, max_iter=5, seed=0)
        with pytest.raises(NotAdmissible):
            verify(problem, row_sampling(problem.a), params, replications=100)

    def test_floor_does_not_hide_a_failing_row(self):
        """With the L2 envelope cut a hundredfold, the early means lie above
        both it and the measurement floor and fail, while the late ones,
        rounding noise at x*, stay under the floor and pass."""
        problem = gen_problem(50, 2, 0)
        params = SolverParams(omega=1.0, beta=0.0, max_iter=200, seed=0, record_every=10)
        real = shb.experiments.l2_envelope
        cut = mock.Mock(side_effect=lambda *args: tuple(v / 100 for v in real(*args)))
        with mock.patch.object(shb.experiments, "l2_envelope", cut):
            report = verify(problem, row_sampling(problem.a), params, replications=100)
        rows = report["l2"]["rows"]
        floor = rows[-1]["bound"]
        assert floor == pytest.approx(MEASUREMENT_FLOOR * rows[0]["mean"], rel=1e-12)  # k = 0: ||x0 - x*||^2
        assert rows[-1]["pass"]
        failing = [row for row in rows if not row["pass"]]
        assert failing and all(row["mean"] > row["bound"] > floor for row in failing)
        assert report["l2"]["pass"] is False and report["pass"] is False

    def test_toy_momentum_free_short_horizon(self):
        """Bound equality case: the envelope matches the mean exactly, so
        only early checkpoints have statistical headroom."""
        problem = toy_problem()
        params = SolverParams(
            omega=1.0, beta=0.0, max_iter=2, seed=0, record_every=1,
        )
        report = verify(problem, row_sampling(problem.a), params, replications=1000)
        assert report["l2"]["applicable"] and report["l2"]["pass"]
        assert report["cesaro"]["applicable"] and report["cesaro"]["pass"]
        assert report["l1_le_l2"]["pass"]
        assert not report["l1"]["applicable"]  # beta = 0 is outside the accelerated region
        json.dumps(report)

    def test_toy_with_momentum(self):
        problem = toy_problem()
        params = SolverParams(
            omega=1.0, beta=0.06, max_iter=40, seed=0, record_every=5,
        )
        report = verify(problem, row_sampling(problem.a), params, replications=500)
        assert report["l2"]["pass"] and report["cesaro"]["pass"] and report["pass"]
        assert "diverged_at" not in report

    def test_accelerated_section_mechanics(self):
        """The expected-iterate section activates for an accelerated pairing
        and produces a finite fitted slope with the documented limit."""
        import math

        from shb.sketch import spectrum_and_gram
        from shb.theory import l1_params

        problem = gen_problem(12, 5, seed=14)
        dist = row_sampling(problem.a)
        spec, _ = spectrum_and_gram(problem.a, dist)
        p = l1_params("inv_lmax", spec.lambda_min_plus, spec.lambda_max)
        params = SolverParams(
            omega=p.omega, beta=p.beta, max_iter=10, seed=0, record_every=1,
        )
        report = verify(problem, dist, params, replications=150)
        section = report["l1"]
        assert list(section) == ["applicable", "pass", "slope", "slope_limit", "fit_ks"]
        assert section["applicable"]
        assert isinstance(section["slope"], float)
        assert section["slope_limit"] == pytest.approx(math.log(p.beta) + 0.05)
        assert section["fit_ks"][0] >= 1
        json.dumps(report)

    def test_accelerated_section_exact_zero_decay(self):
        """Full-width block sketches pin the iterate after one step; the
        all-zero expected-iterate estimate counts as an immediate pass."""
        problem = gen_problem(6, 3, seed=15)
        dist = BlockRow(6)  # every draw determines the solution exactly
        params = SolverParams(
            omega=1.0, beta=(1 - math.sqrt(0.99)) ** 2, max_iter=6, seed=0,
            record_every=1,
        )
        report = verify(problem, dist, params, replications=100)
        assert list(report["l1"]) == ["applicable", "pass", "slope", "slope_limit", "note"]
        assert report["l1"]["applicable"]
        assert report["l1"]["pass"]
        assert report["l1"]["slope"] is None


# (omega, beta) across every hypothesis boundary: omega <= 0 and beta < 0
# (analyze only), omega = 2 and beyond, beta = 1, and omega + 2 beta = 2
APPLICABILITY_GRID = [
    (omega, beta) for omega in (-1.0, 0.0, 1.0, 2.0, 2.5) for beta in (-0.1, 0.0, 0.25, 0.9, 1.0)
] + [(1.0, 0.5), (1.5, 0.25)]


@pytest.mark.parametrize("omega,beta", APPLICABILITY_GRID)
def test_every_command_applies_the_one_rule(omega, beta):
    """The paper's hypotheses, written out here, are what applicability
    decides, and analyze, the trace table and verify report just that."""
    problem = toy_problem()
    dist = row_sampling(problem.a)
    payload = analyze(problem, dist, omegas=(omega,), beta=beta)
    lmin, lmax = payload["spectrum"]["lambda_min_plus"], payload["spectrum"]["lambda_max"]
    rule = applicability(omega, beta, lmin, lmax)

    stepsize_ok = 0.0 < omega < 2.0
    assert (rule.l2 is not None) == (stepsize_ok and beta >= 0.0)
    assert rule.l2_ok == (rule.l2 is not None and l2_rate(omega, beta, lmin, lmax).admissible)
    assert (rule.beta_upper is not None) == stepsize_ok
    assert rule.cesaro_ok == (omega > 0.0 and 0.0 <= beta < 1.0 and omega + 2.0 * beta < 2.0)
    assert rule.l1_ok == (
        omega > 0.0 and omega * lmax <= 1.0 + 1e-8 and (1.0 - math.sqrt(omega * lmin)) ** 2 < beta < 1.0
    )

    assert (payload["l2"] is None) == (rule.l2 is None)
    if rule.l2 is not None:
        assert {k: payload["l2"][k] for k in ("a1", "a2", "q", "delta", "admissible")} == rule.l2._asdict()
    assert payload["beta_upper"] == rule.beta_upper
    assert payload["cesaro"]["applicable"] is rule.cesaro_ok
    assert payload["beta_upper_by_omega"] == [{"omega": omega, "beta_upper": rule.beta_upper}]
    if omega <= 0.0 or beta < 0.0:
        return  # no run takes these

    params = SolverParams(omega=omega, beta=beta, max_iter=10, seed=0, record_every=1)
    rows = solve(problem, dist, params)["rows"]
    l2_col = [row["theory_l2_bound"] for row in rows]
    cesaro_col = [row["theory_cesaro_bound"] for row in rows[1:]]
    assert all((v is not None) == rule.l2_ok for v in l2_col)
    assert all((v is not None) == rule.cesaro_ok for v in cesaro_col)

    if not (rule.l2_ok or rule.cesaro_ok or rule.l1_ok):
        with pytest.raises(NotAdmissible):
            verify(problem, dist, params, replications=100)
        return
    checked = verify(problem, dist, params, replications=100)
    assert [checked[name]["applicable"] for name in ("l2", "cesaro", "l1")] == [rule.l2_ok, rule.cesaro_ok, rule.l1_ok]


class _Ran(Exception):
    pass


def test_l1_fit_window_refused_iff_under_two_records():
    """verify refuses, before any run, exactly the schedules that put fewer
    than 2 records at k >= 1 in the last 90% of the run, with the solver's
    own record schedule (every record_every steps, and at max_iter)."""
    problem = toy_problem()
    dist = row_sampling(problem.a)
    p = l1_params("unit_stepsize", 0.5, 0.5)
    refused = 0
    with mock.patch.object(shb.experiments, "run_ensemble", side_effect=_Ran):
        for iters in range(1, 41):
            for every in range(1, iters + 3):
                params = SolverParams(omega=p.omega, beta=p.beta, max_iter=iters, seed=0, record_every=every)
                ks = list(range(0, iters + 1, every)) + ([] if iters % every == 0 else [iters])
                in_window = sum(k >= 0.1 * iters and k >= 1 for k in ks)
                with pytest.raises(OutOfRange if in_window < 2 else _Ran):
                    verify(problem, dist, params, replications=100)
                refused += in_window < 2
    assert refused > 0
