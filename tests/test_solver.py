import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import shb.linalg as linalg
from shb.errors import DimensionMismatch, OutOfRange, ZeroRow
from shb.experiments import make_distribution
from shb.linalg import project_onto_solutions
from shb.problems import Problem, gen_problem
from shb.sketch import UnitCoordinate, derive_stream, expected_h, f_value, row_sampling
import shb.solver as solver
from shb.solver import SolverParams, run, run_ensemble, run_pairs, shb_step


def toy_problem() -> Problem:
    return Problem(a=np.eye(2), b=np.array([1.0, 2.0]), source="toy")


class TestShbStep:
    def test_momentum_free_is_gradient_step(self):
        x = np.array([1.0, 2.0])
        g = np.array([0.5, -1.0])
        got = shb_step(x, np.array([9.0, 9.0]), g, 0.7, 0.0)
        np.testing.assert_array_equal(got, x - 0.7 * g + 0.0 * (x - np.array([9.0, 9.0])))

    def test_fixed_point(self):
        x = np.array([3.0, -1.0])
        got = shb_step(x, x, np.zeros(2), 1.0, 0.5)
        np.testing.assert_array_equal(got, x)

    def test_hand_value(self):
        got = shb_step([1.0, 0.0], [0.0, 0.0], [1.0, 0.0], 1.0, 0.5)
        np.testing.assert_allclose(got, [0.5, 0.0], atol=0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            shb_step([1.0, 2.0], [1.0], [0.0, 0.0], 1.0, 0.0)


class TestParams:
    def test_validation(self):
        with pytest.raises(OutOfRange):
            SolverParams(omega=0.0, beta=0.0, max_iter=10, seed=0)
        with pytest.raises(OutOfRange):
            SolverParams(omega=1.0, beta=-0.1, max_iter=10, seed=0)
        with pytest.raises(OutOfRange):
            SolverParams(omega=1.0, beta=0.0, max_iter=0, seed=0)
        with pytest.raises(OutOfRange):
            SolverParams(omega=1.0, beta=0.0, max_iter=10, seed=0, record_every=0)

    @pytest.mark.parametrize("omega,beta", [
        (float("nan"), 0.0), (float("inf"), 0.0), (1.0, float("nan")), (1.0, float("inf")),
    ])
    def test_non_finite_rejected(self, omega, beta):
        with pytest.raises(OutOfRange, match="finite"):
            SolverParams(omega=omega, beta=beta, max_iter=10, seed=0)


class TestRecordBudget:
    """Records and iterates are counted against the dense-array budget
    before any is built."""

    def test_boundary(self):
        # records at k = 0, 3, 6, 9, 10; each holds k, its time, l1_sq and 3
        # series.  W takes d * d = 4; the one member holds 9 rows of d = 2
        # and a record's 2 rows of d, and whole blocks of 8 rows add up to 2 *
        # 8 rows of d; the 10 steps of draws take 4 draw sizes of d + 2 each
        params = SolverParams(omega=1.0, beta=0.0, max_iter=10, seed=0, record_every=3)
        budget = 5 * 6 + 4 + (9 * 2 + 2 * 2) + 2 * 8 * 2 + 10 * 4 * 4
        with mock.patch.object(linalg, "MAX_DENSE_ELEMENTS", budget):
            assert run(toy_problem(), row_sampling(np.eye(2)), params).ks == [0, 3, 6, 9, 10]
        with mock.patch.object(linalg, "MAX_DENSE_ELEMENTS", budget - 1), pytest.raises(OutOfRange):
            run(toy_problem(), row_sampling(np.eye(2)), params)

    def test_snapshots_count_every_member_and_coordinate(self):
        # 3 replications of 3 series and a d = 2 snapshot: 3 + 3 * 5 per record;
        # W of d * d = 4, 3 members of 9 * 2 + 2 * 2 numbers, 2 * 8 rows of
        # d for whole blocks of 8 rows, and 10 steps of draws of 4 draw sizes
        # of d + 2 per stream
        params = SolverParams(omega=1.0, beta=0.0, max_iter=10, seed=0, record_every=3, snapshots=True)
        budget = 5 * 18 + 4 + 3 * 22 + 2 * 8 * 2 + 10 * 3 * 4 * 4
        with mock.patch.object(linalg, "MAX_DENSE_ELEMENTS", budget):
            assert run_ensemble(toy_problem(), row_sampling(np.eye(2)), params, replications=3).ks[-1] == 10
        with mock.patch.object(linalg, "MAX_DENSE_ELEMENTS", budget - 1), pytest.raises(OutOfRange):
            run_ensemble(toy_problem(), row_sampling(np.eye(2)), params, replications=3)

    def test_iterates_count_every_member(self):
        # one record at k = 0 and one at k = 1: 2 * (3 + R * 3), W's d * d = 4,
        # plus per member 22 numbers held and one step of draws, 4 * (d + 2),
        # and 2 * 8 rows of d for whole blocks of 8 rows
        params = SolverParams(omega=1.0, beta=0.0, max_iter=1, seed=0)
        for reps in (1, 7, 1000):
            budget = 2 * (3 + reps * 3) + 4 + reps * 22 + 2 * 8 * 2 + reps * 16
            with mock.patch.object(linalg, "MAX_DENSE_ELEMENTS", budget):
                assert run_ensemble(toy_problem(), row_sampling(np.eye(2)), params, replications=reps).ks == [0, 1]
            with mock.patch.object(linalg, "MAX_DENSE_ELEMENTS", budget - 1), pytest.raises(OutOfRange):
                run_ensemble(toy_problem(), row_sampling(np.eye(2)), params, replications=reps)

    @pytest.mark.parametrize("reps", [100, 300])
    def test_traced_peak_within_the_count(self, reps):
        """The count is the kernel's real working set, W included: an
        ensemble traces no more than 8 bytes per counted number, plus A's
        size for x* and for building W."""
        problem = gen_problem(600, 1000, seed=0)
        dist = row_sampling(problem.a)
        params = SolverParams(omega=1.0, beta=0.1, max_iter=40, seed=0, record_every=10)
        counted = solver._check_fits(params, dist, 600, 1000, reps, reps)
        tracemalloc.start()
        try:
            run_ensemble(problem, dist, params, replications=reps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * counted + problem.a.nbytes

    @pytest.mark.parametrize("shape", ["ensemble", "pairs"])
    def test_iterates_refused_before_any_stream(self, shape):
        """An over-budget block is refused before a stream is derived or an
        iterate array exists, so a huge replication count costs nothing.
        The 13 pairs' 2 records fit in 150 numbers; their iterates do not."""
        params = SolverParams(omega=1.0, beta=0.0, max_iter=1, seed=0)
        failing = mock.Mock(side_effect=AssertionError("stream derived before the budget check"))
        tracemalloc.start()
        try:
            with mock.patch.object(solver, "derive_stream", failing), \
                    pytest.raises(OutOfRange, match="fewer replications or pairs"):
                if shape == "ensemble":
                    run_ensemble(toy_problem(), row_sampling(np.eye(2)), params, replications=10**12)
                else:
                    with mock.patch.object(linalg, "MAX_DENSE_ELEMENTS", 150):
                        run_pairs(toy_problem(), row_sampling(np.eye(2)), [params] * 13)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        failing.assert_not_called()
        assert peak < 1 << 20

    def test_refused_before_allocating(self):
        params = SolverParams(omega=1.0, beta=0.0, max_iter=10**8, seed=0, record_every=1)
        tracemalloc.start()
        try:
            with pytest.raises(OutOfRange, match="record less often"):
                run(toy_problem(), row_sampling(np.eye(2)), params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    @pytest.mark.parametrize("iters,every", [(1, 1), (10, 3), (10, 5), (30, 7), (40, 41)])
    def test_record_count_matches_the_recorded_ks(self, iters, every):
        params = SolverParams(omega=1.0, beta=0.0, max_iter=iters, seed=0, record_every=every)
        ks = run(toy_problem(), row_sampling(np.eye(2)), params).ks
        for start in range(iters + 3):
            assert params.record_count(start) == sum(k >= start for k in ks)


class TestRun:
    def test_toy_reaches_exact_solution(self):
        """Each unit-step row update pins one coordinate to its target."""
        problem = toy_problem()
        dist = row_sampling(problem.a)
        params = SolverParams(omega=1.0, beta=0.0, max_iter=40, seed=0, record_every=1)
        trace = run(problem, dist, params)
        # once both rows have been sampled the iterate is (1, 2) exactly
        assert trace.l2_error[-1] == 0.0
        np.testing.assert_array_equal(trace.final_iterate, [1.0, 2.0])
        first_zero = next(k for k, v in zip(trace.ks, trace.l2_error) if v == 0.0)
        assert first_zero >= 2  # needs at least one draw of each row

    def test_recording_schedule(self):
        problem = toy_problem()
        dist = row_sampling(problem.a)
        params = SolverParams(omega=1.0, beta=0.0, max_iter=25, seed=1, record_every=10)
        trace = run(problem, dist, params)
        assert trace.ks == [0, 10, 20, 25]
        assert all(b > a for a, b in zip(trace.ks, trace.ks[1:]))

    def test_row_residual_annihilated_at_unit_step(self):
        """A unit-stepsize momentum-free update lands on the sampled hyperplane."""
        from shb.sketch import draw, stoch_grad

        problem = gen_problem(6, 4, seed=3)
        a, b = problem.a, problem.b
        dist = row_sampling(a)
        rng = derive_stream(5, 0, 0)
        x = np.zeros(4)
        x_prev = x.copy()
        for _ in range(200):
            i = draw(dist, rng, a.shape[0])
            g = stoch_grad(a, b, x, dist, i)
            x_new = shb_step(x, x_prev, g, 1.0, 0.0)
            assert abs(float(a[i] @ x_new) - b[i]) <= 1e-12 * (1.0 + abs(b[i]))
            x_prev, x = x, x_new

    def test_momentum_free_matches_standalone_sgd_loop(self):
        """With zero momentum the run is the plain stochastic gradient
        recursion; an independent loop over the same stream must be
        bit-identical."""
        problem = gen_problem(7, 4, seed=10)
        a, b = problem.a, problem.b
        dist = row_sampling(a)
        params = SolverParams(
            omega=0.9, beta=0.0, max_iter=60, seed=17, record_every=1, snapshots=True,
        )
        trace = run(problem, dist, params)

        cum = np.cumsum(dist.probabilities)
        rng = derive_stream(17, 0, 0)
        x = np.zeros(4)
        iterates = [x.copy()]
        for _ in range(60):
            u = rng.random()
            i = min(int(np.searchsorted(cum, u, side="right")), a.shape[0] - 1)
            row = a[i]
            g = ((float(row @ x) - float(b[i])) / float(row @ row)) * row
            x = x - 0.9 * g + 0.0 * (x - iterates[-1])
            iterates.append(x.copy())
        for snap, ref in zip(trace.snapshots, iterates):
            np.testing.assert_array_equal(snap, ref)

    def test_row_sampling_momentum_recursion_bit_exact(self):
        """The composed draw/gradient/step pipeline reproduces the direct
        single-row momentum recursion bit for bit."""
        problem = gen_problem(5, 3, seed=21)
        a, b = problem.a, problem.b
        dist = row_sampling(a)
        omega, beta = 0.8, 0.3
        params = SolverParams(
            omega=omega, beta=beta, max_iter=80, seed=4, record_every=1, snapshots=True,
        )
        trace = run(problem, dist, params)

        cum = np.cumsum(dist.probabilities)
        rng = derive_stream(4, 0, 0)
        x_prev = np.zeros(3)
        x = np.zeros(3)
        refs = [x.copy()]
        for _ in range(80):
            u = rng.random()
            i = min(int(np.searchsorted(cum, u, side="right")), a.shape[0] - 1)
            row = a[i]
            direction = ((float(row @ x) - float(b[i])) / float(row @ row)) * row
            x_new = x - omega * direction + beta * (x - x_prev)
            x_prev, x = x, x_new
            refs.append(x.copy())
        for snap, ref in zip(trace.snapshots, refs):
            np.testing.assert_array_equal(snap, ref)

    @pytest.mark.parametrize("probabilities,error,message", [
        ([0.5, 0.25, 0.25], DimensionMismatch, "distribution has 3 weights for 2 rows"),
        ([0.5, 0.5], ZeroRow, "row 1 is zero but has positive probability"),
    ])
    def test_row_weights_checked_as_expected_h_checks_them(self, probabilities, error, message):
        """With E[H] passed in, the kernel still refuses row weights that do
        not fit the matrix, with expected_h's errors."""
        problem = Problem(a=np.array([[1.0, 0.0], [0.0, 0.0]]), b=np.array([1.0, 0.0]), source="zero row")
        dist = UnitCoordinate(np.array(probabilities))
        params = SolverParams(omega=1.0, beta=0.0, max_iter=5, seed=0)
        with pytest.raises(error, match=message):
            expected_h(dist, problem.a)
        with pytest.raises(error, match=message):
            run(problem, dist, params, eh=np.eye(2))

    def test_divergence_guard(self):
        problem = toy_problem()
        dist = row_sampling(problem.a)
        params = SolverParams(omega=1.0, beta=3.0, max_iter=5000, seed=0, record_every=100)
        trace = run(problem, dist, params)
        assert trace.diverged_at is not None and trace.diverged_at >= 1
        # the trace stops at the last record before the diverging iteration
        assert trace.ks == list(range(0, trace.diverged_at, 100))
        assert np.isfinite(trace.l2_error).all() and np.isfinite(trace.final_iterate).all()

    def test_iterates_stay_in_affine_row_space(self):
        """x0 plus row-space steps: the orthogonal component never grows."""
        rng = np.random.default_rng(8)
        a = rng.standard_normal((3, 6))  # wide: nontrivial null space
        z = rng.standard_normal(6)
        problem = Problem(a=a, b=a @ z, source="wide")
        dist = row_sampling(a)
        x0 = rng.standard_normal(6)
        params = SolverParams(
            omega=1.0, beta=0.4, max_iter=300, seed=2, record_every=25, snapshots=True,
        )
        trace = run(problem, dist, params, x0)
        u, s, vt = np.linalg.svd(a, full_matrices=False)
        keep = s > 1e-10 * s[0]
        basis = vt[keep]
        for snap in trace.snapshots:
            y = snap - x0
            ortho = y - basis.T @ (basis @ y)
            assert np.linalg.norm(ortho) <= 1e-8 * (1.0 + np.linalg.norm(snap))

    def test_cesaro_matches_snapshot_recomputation(self):
        problem = gen_problem(6, 3, seed=30)
        dist = row_sampling(problem.a)
        params = SolverParams(
            omega=1.0, beta=0.2, max_iter=400, seed=9, record_every=1, snapshots=True,
        )
        trace = run(problem, dist, params)
        w = expected_h(dist, problem.a).value
        xstar, _ = project_onto_solutions(np.zeros(3), problem.a, problem.b)
        assert trace.cesaro_f[0] is None
        stacked = np.asarray(trace.snapshots)
        for j, k in enumerate(trace.ks):
            if k == 0:
                continue
            avg = stacked[1 : k + 1].sum(axis=0) / k
            expected = f_value(avg, w, xstar)
            assert trace.cesaro_f[j] == pytest.approx(expected, abs=1e-10)

    def test_bit_identical_reruns(self):
        problem = gen_problem(8, 5, seed=40)
        dist = row_sampling(problem.a)
        params = SolverParams(omega=1.1, beta=0.15, max_iter=120, seed=33, record_every=7)
        t1 = run(problem, dist, params)
        t2 = run(problem, dist, params)
        assert t1.ks == t2.ks
        assert t1.l2_error == t2.l2_error
        assert t1.f_value == t2.f_value
        assert t1.cesaro_f == t2.cesaro_f
        np.testing.assert_array_equal(t1.final_iterate, t2.final_iterate)

    def test_every_trace_and_ensemble_carries_every_series(self):
        """Runs, sweep pairs and ensembles all record the l2 error, f and
        Cesaro f at every recorded k; snapshots only when asked for."""
        problem = gen_problem(6, 3, seed=31)
        dist = row_sampling(problem.a)
        params = SolverParams(omega=1.0, beta=0.2, max_iter=25, seed=0, record_every=10)
        traces = [run(problem, dist, params), *run_pairs(problem, dist, [params, params])]
        for trace in traces:
            assert trace.ks == [0, 10, 20, 25]
            for series in (trace.l2_error, trace.f_value):
                assert len(series) == 4 and all(np.isfinite(series))
            assert trace.cesaro_f[0] is None and all(np.isfinite(trace.cesaro_f[1:]))
            assert len(trace.cesaro_f) == 4 and trace.snapshots is None
        stats = run_ensemble(problem, dist, params, replications=3)
        for series in (stats.l2_mean, stats.f_mean, stats.l1_sq):
            assert len(series) == 4 and all(np.isfinite(series))
        assert stats.cesaro_f_mean[0] is None and all(np.isfinite(stats.cesaro_f_mean[1:]))
        assert len(stats.cesaro_f_mean) == 4


class TestEnsemble:
    def test_single_replication_degenerates_to_run(self):
        problem = gen_problem(6, 4, seed=50)
        dist = row_sampling(problem.a)
        params = SolverParams(omega=1.0, beta=0.1, max_iter=50, seed=5, record_every=10)
        stats = run_ensemble(problem, dist, params, replications=1)
        trace = run(problem, dist, params)
        assert stats.ks == trace.ks
        np.testing.assert_array_equal(stats.l2_mean, trace.l2_error)
        np.testing.assert_array_equal(stats.f_mean, trace.f_value)

    def test_deterministic(self):
        problem = gen_problem(6, 4, seed=51)
        dist = row_sampling(problem.a)
        params = SolverParams(
            omega=1.0, beta=0.05, max_iter=40, seed=6, record_every=10,
        )
        s1 = run_ensemble(problem, dist, params, replications=8)
        s2 = run_ensemble(problem, dist, params, replications=8)
        assert s1.l2_mean == s2.l2_mean
        assert s1.l1_sq == s2.l1_sq

    def test_mean_square_dominates_square_of_mean(self):
        problem = gen_problem(10, 5, seed=52)
        dist = row_sampling(problem.a)
        params = SolverParams(
            omega=1.0, beta=0.0, max_iter=60, seed=7, record_every=5,
        )
        stats = run_ensemble(problem, dist, params, replications=64)
        for l1, l2 in zip(stats.l1_sq, stats.l2_mean):
            assert l1 <= l2 * (1.0 + 1e-12)

    def test_replicas_equal_plain_runs(self):
        """Each replica of a 6-replica ensemble is a plain run on its own
        stream: the averages equal those of 6 separate runs bit for bit."""
        problem = gen_problem(5, 3, seed=53)
        dist = row_sampling(problem.a)
        params = SolverParams(
            omega=1.0, beta=0.0, max_iter=20, seed=8, record_every=5, snapshots=True,
        )
        stats = run_ensemble(problem, dist, params, replications=6)
        traces = [run(problem, dist, params, stream_index=r) for r in range(6)]
        assert stats.ks == traces[0].ks
        assert stats.l2_mean == [float(v) for v in np.mean([t.l2_error for t in traces], axis=0)]
        assert stats.f_mean == [float(v) for v in np.mean([t.f_value for t in traces], axis=0)]
        assert stats.cesaro_f_mean == [None] + [
            float(np.mean([t.cesaro_f[j] for t in traces])) for j in range(1, len(stats.ks))
        ]
        xstar, _ = project_onto_solutions(np.zeros(3), problem.a, problem.b)
        l1_sq = []
        for j in range(len(stats.ks)):
            diff = np.mean([t.snapshots[j] - xstar for t in traces], axis=0)
            l1_sq.append(float(diff @ diff))
        assert stats.l1_sq == l1_sq

    def test_replications_validated(self):
        problem = toy_problem()
        dist = row_sampling(problem.a)
        params = SolverParams(omega=1.0, beta=0.0, max_iter=5, seed=0)
        with pytest.raises(OutOfRange):
            run_ensemble(problem, dist, params, replications=0)


# one run per sketch spec from saved A, b, x* and W; prints the sha256 of
# each final iterate
SAVED_RUNS = """
import hashlib, sys
import numpy as np
from shb.experiments import make_distribution
from shb.problems import Problem
from shb.solver import SolverParams, run

saved = sys.argv[1]
a, b, xstar = (np.load(f"{saved}/{name}.npy") for name in ("a", "b", "xstar"))
params = SolverParams(omega=1.0, beta=0.3, max_iter=2000, seed=0, record_every=2000)
for i, spec in enumerate(sys.argv[2:]):
    eh = np.load(f"{saved}/w{i}.npy")
    trace = run(Problem(a=a, b=b, source="saved"), make_distribution(spec, a), params, eh=eh, xstar=xstar)
    print(hashlib.sha256(trace.final_iterate.tobytes()).hexdigest())
"""


def test_iterates_do_not_depend_on_blas_threads(tmp_path):
    """Given W and x*, the iterates are the same bits under one and two
    BLAS threads; W and x* themselves are reproducible only at a fixed
    BLAS library and thread setting, so they are computed once here."""
    problem = gen_problem(300, 100, 1)
    specs = ["row", "block:5", "gaussian:3"]
    np.save(tmp_path / "a.npy", problem.a)
    np.save(tmp_path / "b.npy", problem.b)
    np.save(tmp_path / "xstar.npy", project_onto_solutions(np.zeros(100), problem.a, problem.b)[0])
    for i, spec in enumerate(specs):
        np.save(tmp_path / f"w{i}.npy", expected_h(make_distribution(spec, problem.a), problem.a).value)
    src = str(Path(solver.__file__).parent.parent)
    hashes = []
    for threads in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", SAVED_RUNS, str(tmp_path), *specs], capture_output=True, text=True,
            check=True, env={**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads},
        )
        hashes.append(proc.stdout.split())
    assert len(hashes[0]) == len(specs)
    assert hashes[0] == hashes[1]
