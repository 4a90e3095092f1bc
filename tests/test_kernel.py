"""The batched iteration kernel against the draw/stoch_grad/shb_step oracle.

Runs, ensembles and sweeps advance an (R, d) block of iterates in one
kernel.  These tests check, bit for bit, that every member of a block
equals a plain loop over the public oracle on its own stream, that
ensemble averages equal aggregates of per-stream runs, that sweep pairs
equal solo runs, and that divergence is reported as a plain run would.
Gaussian sketches form their residuals in another order than the oracle
and match it within the tolerance declared in dense_eh.
"""

import operator
import tracemalloc
from contextlib import contextmanager
from functools import partial
from unittest import mock

import numpy as np
import pytest
from dense_eh import (
    dense_eh,
    dense_f,
    f_close,
    gaussian_iterate_close,
    gaussian_quadratic_close,
    iterate_scale,
    row_weights,
)
from hypothesis import given
from hypothesis import strategies as st

import shb.linalg
import shb.sketch
import shb.solver as solver
from shb.experiments import sweep
from shb.linalg import project_onto_solutions
from shb.problems import Problem, gen_problem
from shb.sketch import (
    BlockRow,
    GaussianSketch,
    UnitCoordinate,
    derive_stream,
    draw,
    expected_h,
    f_value,
    row_indices,
    row_sampling,
    stoch_grad,
)
from shb.solver import (
    DIVERGENCE_LIMIT,
    GUARD_SQ,
    SolverParams,
    run,
    run_ensemble,
    run_pairs,
    shb_step,
)


@st.composite
def problems(draw_from):
    """Small consistent systems; some rows are zero, so row sampling
    gives them probability zero and exercises the tail rule."""
    m = draw_from(st.integers(2, 7))
    d = draw_from(st.integers(1, 5))
    seed = draw_from(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, d))
    zero = np.asarray(draw_from(st.lists(st.booleans(), min_size=m, max_size=m)))
    zero[draw_from(st.integers(0, m - 1))] = False  # keep one nonzero row
    a[zero] = 0.0
    b = a @ rng.standard_normal(d)
    x0 = rng.standard_normal(d) if draw_from(st.booleans()) else np.zeros(d)
    return Problem(a=a, b=b, source="hypothesis"), x0


def schedules():
    """(omega, beta, max_iter, record_every, pre-draw chunk steps, seed).

    Pre-draw chunks of 1 to 9 steps (chunk_steps) make most runs cross
    several chunk boundaries."""
    return st.tuples(
        st.floats(0.2, 1.8),
        st.floats(0.0, 0.6),
        st.integers(1, 40),
        st.integers(1, 7),
        st.integers(1, 9),
        st.integers(0, 1000),
    )


def oracle_iterates(problem, dist, omega, beta, max_iter, rng, x0):
    """x_0 .. x_max_iter from the public draw/stoch_grad/shb_step pipeline."""
    a, b = problem.a, problem.b
    x_prev = x0.copy()
    x = x0.copy()
    iterates = [x]
    for _ in range(max_iter):
        drawn = draw(dist, rng, a.shape[0])
        x_new = shb_step(x, x_prev, stoch_grad(a, b, x, dist, drawn), omega, beta)
        x_prev, x = x, x_new
        iterates.append(x)
    return iterates


@contextmanager
def chunk_steps(steps):
    """Pre-draw in chunks of `steps` steps."""
    with mock.patch.object(solver, "_chunk_steps", return_value=steps):
        yield


def distribution(problem, kind):
    m = problem.a.shape[0]
    return {"row": row_sampling(problem.a), "block": BlockRow(2), "gaussian": GaussianSketch(min(2, m))}[kind]


class FixedUniform:
    """Stands in for a generator whose next uniform is known."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


@given(st.data())
def test_row_lookup_matches_draw(data):
    """row_indices gives the row draw() picks for every uniform, including
    those on the cumulative boundaries and past the cumulative mass, where
    the tail rule steps back over zero-probability rows."""
    weights = data.draw(st.lists(st.sampled_from([0.0, 1.0, 2.0, 3.0]), min_size=1, max_size=8))
    if not any(weights):
        weights[0] = 1.0
    p = np.asarray(weights) / sum(weights)
    p[np.flatnonzero(p)[-1]] *= 1.0 - 1e-13  # leave a float tail past the cumulative mass
    dist = UnitCoordinate(p)
    cum = np.cumsum(p)
    candidates = [0.0, float(np.nextafter(1.0, 0.0))]
    for c in cum:
        candidates += [float(c), float(np.nextafter(c, 0.0)), float(np.nextafter(c, 2.0))]
    u = np.asarray(data.draw(st.lists(st.sampled_from(candidates) | st.floats(0.0, 1.0, exclude_max=True), min_size=1)))
    u = u[u < 1.0]
    expected = [draw(dist, FixedUniform(float(v))) for v in u]
    assert row_indices(dist, u).tolist() == expected


@given(problems(), schedules(), st.integers(1, 5), st.sampled_from(["row", "row", "block", "gaussian"]))
def test_replicas_match_the_oracle_loop(instance, schedule, replications, kind):
    """Every member's iterates and recorded metrics equal those of a plain
    loop over the oracle on its own stream: bit for bit for row and block
    sampling, within GAUSSIAN_X_RTOL for Gaussian sketches.  f and Cesaro
    f are f_value's, which is within its tolerance of the dense E[H]
    residual form."""
    problem, x0 = instance
    a, b = problem.a, problem.b
    omega, beta, max_iter, every, steps, seed = schedule
    dist = distribution(problem, kind)
    eh = expected_h(dist, a, mc_samples=50).value
    dense = dense_eh(dist, a, mc_samples=50)
    xstar = project_onto_solutions(x0, a, b)
    f0 = dense_f(a, b, x0, dense)
    params = SolverParams(
        omega=omega, beta=beta, max_iter=max_iter, seed=seed, record_every=every, snapshots=True,
    )
    with chunk_steps(steps):
        block = solver._iterate(
            problem, dist, params, x0, range(replications),
            np.full(replications, omega), np.full(replications, beta), eh, None,
        )
    assert not block.diverged_at.any()
    for r in range(replications):
        ref = oracle_iterates(problem, dist, omega, beta, max_iter, derive_stream(seed, 0, r), x0)
        if kind == "gaussian":
            scale = iterate_scale(ref, xstar)
            same_x = partial(gaussian_iterate_close, scale=scale)
            same = partial(gaussian_quadratic_close, scale=scale)
        else:
            same_x, same = np.array_equal, operator.eq
        running_sum = np.zeros_like(x0)
        sums = [running_sum.copy()]
        for x in ref[1:]:
            running_sum += x
            sums.append(running_sum.copy())
        for j, k in enumerate(block.ks):
            assert same_x(block.snapshots[j][r], ref[k])
            diff = ref[k] - xstar
            assert same(block.l2[r, j], float(diff @ diff))
            want_f = f_value(a, b, ref[k], eh, xstar)
            assert f_close(want_f, dense_f(a, b, ref[k], dense), f0)
            assert same(block.f[r, j], want_f)
            if k > 0:
                want_cesaro = f_value(a, b, sums[k] / k, eh, xstar)
                assert f_close(want_cesaro, dense_f(a, b, sums[k] / k, dense), f0)
                assert same(block.cesaro[r, j], want_cesaro)
        assert same_x(block.final[r], ref[-1])


@pytest.mark.parametrize("d", [1, 2, 5, 17, 20, 100, 112, 257, 300, 1000])
def test_w_block_rows_do_not_depend_on_the_other_rows(d):
    """The BLAS property records rest on: in a product of blocks of
    W_BLOCK_ROWS rows with W, each row has the bits of f_value's product of
    W_BLOCK_ROWS copies of it, whatever its place and the other rows.  (One
    product of M rows has no such property on OpenBLAS: its kernels depend
    on M, and at d = 17 row 3 of a 4-row product differs from the same row
    in a 2-row product.)"""
    rng = np.random.default_rng(d)
    w = rng.standard_normal((d, d))
    w = w @ w.T / d
    rows = rng.standard_normal((8 * shb.sketch.W_BLOCK_ROWS, d))
    alone = np.array([(np.tile(row, (shb.sketch.W_BLOCK_ROWS, 1)) @ w)[0] for row in rows])
    for count in (1, 2, 3, 8):
        blocks = rows[: count * shb.sketch.W_BLOCK_ROWS].reshape(count, shb.sketch.W_BLOCK_ROWS, d)
        got = np.matmul(blocks, w, out=np.empty_like(blocks)).reshape(-1, d)
        np.testing.assert_array_equal(got, alone[: len(got)])


@given(problems(), schedules(), st.integers(1, 5), st.booleans())
def test_row_records_match_the_oracle_loop(instance, schedule, replications, given_eh):
    """Row sampling records f and Cesaro f from W, passed in or computed:
    they equal f_value(..., W, x*) bit for bit, and the residual form on
    the dense diag(h) within its tolerance."""
    problem, x0 = instance
    a, b = problem.a, problem.b
    omega, beta, max_iter, every, steps, seed = schedule
    dist = row_sampling(a)
    w = expected_h(dist, a).value
    dense = np.diag(row_weights(dist, a))
    xstar = project_onto_solutions(x0, a, b)
    f0 = dense_f(a, b, x0, dense)
    params = SolverParams(
        omega=omega, beta=beta, max_iter=max_iter, seed=seed, record_every=every,
    )
    with chunk_steps(steps):
        block = solver._iterate(
            problem, dist, params, x0, range(replications),
            np.full(replications, omega), np.full(replications, beta),
            w if given_eh else None, None,
        )
    for r in range(replications):
        ref = oracle_iterates(problem, dist, omega, beta, max_iter, derive_stream(seed, 0, r), x0)
        running_sum = np.zeros_like(x0)
        sums = [running_sum.copy()]
        for x in ref[1:]:
            running_sum += x
            sums.append(running_sum.copy())
        for j, k in enumerate(block.ks):
            assert block.f[r, j] == f_value(a, b, ref[k], w, xstar)
            assert f_close(block.f[r, j], dense_f(a, b, ref[k], dense), f0)
            if k > 0:
                assert block.cesaro[r, j] == f_value(a, b, sums[k] / k, w, xstar)
                assert f_close(block.cesaro[r, j], dense_f(a, b, sums[k] / k, dense), f0)


@pytest.mark.parametrize("shape", ["run", "sweep", "ensemble"])
def test_row_records_at_default_chunks_down_to_cancellation(shape):
    """Unpatched chunk sizes: an R = 1 run, a 3-pair sweep and a
    100-replication ensemble on 40x5 record f and Cesaro f bit for bit as
    f_value(..., W, x*) (checked at every fourth step), and within f_close
    of the dense diag(h) residual form, also after f has fallen below
    1e-15 f(x0), where the two forms cancel differently."""
    problem = gen_problem(40, 5, seed=3)
    a, b = problem.a, problem.b
    dist = row_sampling(a)
    w = expected_h(dist, a).value
    dense = np.diag(row_weights(dist, a))
    x0 = np.zeros(5)
    xstar = project_onto_solutions(x0, a, b)
    f0 = dense_f(a, b, x0, dense)
    keys, betas = {"run": (1, [0.3]), "sweep": (1, [0.0, 0.2, 0.4]), "ensemble": (100, [0.3])}[shape]
    params = SolverParams(omega=1.0, beta=0.0, max_iter=320, seed=11, record_every=1, snapshots=True)
    block = solver._iterate(
        problem, dist, params, x0, range(keys), np.ones(len(betas)), np.array(betas), None, None,
    )
    assert not block.diverged_at.any()
    snaps = np.asarray(block.snapshots)  # (records, members, d)
    running_sum = np.zeros(snaps.shape[1:])
    tiny = 0
    for k in block.ks:
        if k > 0:
            running_sum += snaps[k]
        if k % 4:
            continue
        for r in range(snaps.shape[1]):
            got = block.f[r, k]
            assert got == f_value(a, b, snaps[k, r], w, xstar)
            assert f_close(got, dense_f(a, b, snaps[k, r], dense), f0)
            tiny += got < 1e-15 * f0
            if k > 0:
                mean = running_sum[r] / k
                assert block.cesaro[r, k] == f_value(a, b, mean, w, xstar)
                assert f_close(block.cesaro[r, k], dense_f(a, b, mean, dense), f0)
    assert tiny > 0


@given(problems(), schedules(), st.integers(1, 5), st.sampled_from(["row", "block", "gaussian"]))
def test_ensemble_equals_aggregated_runs(instance, schedule, replications, kind):
    problem, x0 = instance
    omega, beta, max_iter, every, steps, seed = schedule
    dist = distribution(problem, kind)
    params = SolverParams(
        omega=omega, beta=beta, max_iter=max_iter, seed=seed, record_every=every, snapshots=True,
    )
    with chunk_steps(steps):
        stats = run_ensemble(problem, dist, params, x0, replications=replications)
        traces = [run(problem, dist, params, x0, stream_index=r) for r in range(replications)]
    xstar = project_onto_solutions(x0, problem.a, problem.b)

    # the aggregation of independent runs, in replication order
    assert stats.ks == traces[0].ks
    assert stats.l2_mean == [float(v) for v in np.asarray([t.l2_error for t in traces]).mean(axis=0)]
    assert stats.f_mean == [float(v) for v in np.asarray([t.f_value for t in traces]).mean(axis=0)]
    cesaro = []
    for j in range(len(stats.ks)):
        vals = [t.cesaro_f[j] for t in traces]
        cesaro.append(None if vals[0] is None else float(np.mean(vals)))
    assert stats.cesaro_f_mean == cesaro
    l1_sq = []
    for j in range(len(stats.ks)):
        diff = np.mean([t.snapshots[j] - xstar for t in traces], axis=0)
        l1_sq.append(float(diff @ diff))
    assert stats.l1_sq == l1_sq


def pair_rows(pair_id, omega, beta, trace):
    init_sq = trace.l2_error[0]
    rows = []
    for j, k in enumerate(trace.ks):
        rel = trace.l2_error[j] / init_sq if init_sq > 0.0 else 0.0
        rows.append([pair_id, omega, beta, k, "l2_error_raw", trace.l2_error[j]])
        rows.append([pair_id, omega, beta, k, "rel_error_x0", rel])
        rows.append([pair_id, omega, beta, k, "f_value", trace.f_value[j]])
        if trace.cesaro_f[j] is not None:
            rows.append([pair_id, omega, beta, k, "cesaro_f", trace.cesaro_f[j]])
    return rows


@given(
    problems(),
    schedules(),
    st.lists(st.floats(0.0, 0.6), min_size=1, max_size=4),
    st.sampled_from(["row", "block", "gaussian"]),
)
def test_sweep_pairs_equal_solo_runs(instance, schedule, extra_betas, kind):
    problem, x0 = instance
    omega, beta, max_iter, every, steps, seed = schedule
    dist = distribution(problem, kind)
    pairs = tuple((omega, b) for b in [beta, *extra_betas])
    settings = [
        SolverParams(
            omega=w, beta=b, max_iter=max_iter, seed=seed, record_every=every,
        )
        for w, b in pairs
    ]
    # E[H] is computed once: this test is about the kernel, and every run
    # in it would otherwise estimate its own Monte Carlo W
    eh = expected_h(dist, problem.a)
    with chunk_steps(steps), \
            mock.patch.object(solver, "expected_h", return_value=eh):
        paired = run_pairs(problem, dist, settings, x0)
        solo = [run(problem, dist, p, x0) for p in settings]
        long_rows, summaries = sweep(problem, dist, pairs, max_iter, every, seed)
        from_origin = [run(problem, dist, p) for p in settings]
    for got, want in zip(paired, solo):
        assert got.diverged_at is None
        for field in ("ks", "l2_error", "f_value", "cesaro_f"):
            assert getattr(got, field) == getattr(want, field)
        np.testing.assert_array_equal(got.final_iterate, want.final_iterate)
    # the sweep starts at the origin
    assert all(s["status"] == "ok" for s in summaries)
    for pair_id, ((w, b), trace) in enumerate(zip(pairs, from_origin)):
        assert [row for row in long_rows if row[0] == pair_id] == pair_rows(pair_id, w, b, trace)


def first_oracle_divergence(problem, dist, omega, beta, max_iter, rng):
    for k, x in enumerate(oracle_iterates(problem, dist, omega, beta, max_iter, rng, np.zeros(problem.a.shape[1]))):
        if not (float(np.max(np.abs(x))) <= DIVERGENCE_LIMIT):
            return k
    return None


def test_run_reports_the_first_diverging_iteration():
    problem = gen_problem(6, 3, seed=0)
    dist = row_sampling(problem.a)
    params = SolverParams(omega=1.0, beta=1.0, max_iter=3000, seed=3, record_every=100)
    expected = first_oracle_divergence(problem, dist, 1.0, 1.0, 3000, derive_stream(3, 0, 0))
    assert expected is not None
    trace = run(problem, dist, params)
    assert trace.diverged_at == expected
    assert trace.ks == [k for k in range(0, 3001, 100) if k < expected]
    assert len(trace.l2_error) == len(trace.f_value) == len(trace.cesaro_f) == len(trace.ks)


def test_ensemble_reports_the_earliest_diverging_iteration():
    """With 770 iterations replica 0 survives, replica 1 diverges, and
    later replicas diverge before it; the ensemble reports the earliest
    iteration of any replica, and its series stop before it."""
    problem = gen_problem(6, 3, seed=0)
    dist = row_sampling(problem.a)
    params = SolverParams(omega=1.0, beta=1.0, max_iter=770, seed=3, record_every=100)
    traces = [run(problem, dist, params, stream_index=r) for r in range(6)]
    per_replica = [t.diverged_at for t in traces]
    assert per_replica[0] is None and per_replica[1] is not None
    earliest = min(k for k in per_replica[2:] if k is not None)
    assert earliest < per_replica[1]
    stats = run_ensemble(problem, dist, params, replications=6)
    assert stats.diverged_at == earliest
    assert stats.ks == [k for k in (*range(0, 770, 100), 770) if k < earliest]
    for series in (stats.l2_mean, stats.f_mean, stats.cesaro_f_mean, stats.l1_sq):
        assert len(series) == len(stats.ks)
    # every replica has these records, so the means are those of the runs
    n = len(stats.ks)
    assert stats.l2_mean == [float(v) for v in np.asarray([t.l2_error[:n] for t in traces]).mean(axis=0)]
    assert stats.f_mean == [float(v) for v in np.asarray([t.f_value[:n] for t in traces]).mean(axis=0)]
    assert all(np.isfinite(v) for v in (*stats.cesaro_f_mean[1:], *stats.l1_sq))


def test_sweep_drops_a_diverged_pair_and_keeps_the_others():
    problem = gen_problem(6, 3, seed=0)
    dist = row_sampling(problem.a)
    pairs = ((1.0, 0.0), (1.0, 1.0), (1.0, 0.3))
    long_rows, summaries = sweep(problem, dist, pairs, 3000, 100, 3)
    diverged = run(problem, dist, SolverParams(omega=1.0, beta=1.0, max_iter=3000, seed=3, record_every=100)).diverged_at
    assert diverged is not None
    assert summaries[1]["status"] == "diverged"
    assert summaries[1]["diverged_at"] == diverged
    assert not [row for row in long_rows if row[0] == 1]
    for pair_id in (0, 2):
        w, b = pairs[pair_id]
        trace = run(problem, dist, SolverParams(
            omega=w, beta=b, max_iter=3000, seed=3, record_every=100,
        ))
        assert summaries[pair_id]["status"] == "ok"
        assert [row for row in long_rows if row[0] == pair_id] == pair_rows(pair_id, w, b, trace)


def test_block_sweep_drops_a_pair_diverging_mid_chunk():
    """A block-sampling pair that diverges inside a pre-drawn chunk stops
    at the solo run's diverged_at; the other pairs are unchanged."""
    problem = gen_problem(6, 3, seed=0)
    dist = BlockRow(2)
    pairs = ((1.0, 0.0), (1.0, 1.0), (1.0, 0.3))
    with chunk_steps(50):
        long_rows, summaries = sweep(problem, dist, pairs, 3000, 100, 3)
        diverged = run(problem, dist, SolverParams(
            omega=1.0, beta=1.0, max_iter=3000, seed=3, record_every=100,
        )).diverged_at
    assert diverged is not None
    assert (diverged - 1) % 50 != 0  # not the first step of a chunk
    assert summaries[1]["status"] == "diverged"
    assert summaries[1]["diverged_at"] == diverged
    assert not [row for row in long_rows if row[0] == 1]
    for pair_id in (0, 2):
        w, b = pairs[pair_id]
        trace = run(problem, dist, SolverParams(
            omega=w, beta=b, max_iter=3000, seed=3, record_every=100,
        ))
        assert summaries[pair_id]["status"] == "ok"
        assert [row for row in long_rows if row[0] == pair_id] == pair_rows(pair_id, w, b, trace)


def test_guard_certificate_passes_blocks_within_the_limit():
    """A block whose squared norm is at most GUARD_SQ passes on the one dot
    product; large entries that are all within the limit fail it, and the
    entrywise test then drops nobody."""
    edge = np.full((2, 2), np.sqrt(GUARD_SQ / 4))
    assert solver._finite_rows(edge) is None
    large = np.full((1, 4), 0.9e30)
    assert large.ravel() @ large.ravel() > GUARD_SQ
    assert solver._finite_rows(large).tolist() == [True]
    at_limit = np.array([[DIVERGENCE_LIMIT, -DIVERGENCE_LIMIT], [1.0, 2.0]])
    assert solver._finite_rows(at_limit).tolist() == [True, True]


@pytest.mark.parametrize("bad", [np.nextafter(1e30, np.inf), -np.nextafter(1e30, np.inf), np.inf, np.nan])
def test_guard_drops_a_row_beyond_the_limit(bad):
    block = np.ones((3, 4))
    block[1, 2] = bad
    assert solver._finite_rows(block).tolist() == [True, False, True]


@pytest.mark.parametrize("shared", [False, True], ids=["own-streams", "shared-stream"])
@pytest.mark.parametrize("kind", ["row", "block"])
def test_member_diverging_mid_chunk_leaves_the_others_on_the_oracle(kind, shared):
    """A member that diverges inside a pre-drawn chunk stops at the
    oracle's first diverging iteration, keeps its last finite iterate and
    records NaN from then on; with the second betas on the shared stream,
    two members diverge at the same step and are frozen together.  The
    frozen members' streams go on drawing, and the survivors stay
    bit-identical to the oracle either way."""
    problem = gen_problem(6, 3, seed=0)
    dist = row_sampling(problem.a) if kind == "row" else BlockRow(2)
    max_iter, seed = 1500, 5
    params = SolverParams(
        omega=1.0, beta=0.0, max_iter=max_iter, seed=seed, record_every=100, snapshots=True,
    )
    for betas in ((0.0, 1.0, 0.3), (0.0, 1.0, 0.3, 1.0)):
        keys = range(1) if shared else range(len(betas))
        with chunk_steps(47):
            block = solver._iterate(
                problem, dist, params, np.zeros(3), keys,
                np.ones(len(betas)), np.array(betas), None, None,
            )
        stream = [0] * len(betas) if shared else range(len(betas))
        refs = [
            oracle_iterates(problem, dist, 1.0, b, max_iter, derive_stream(seed, 0, r), np.zeros(3))
            for r, b in zip(stream, betas)
        ]
        expected = [
            first_oracle_divergence(problem, dist, 1.0, b, max_iter, derive_stream(seed, 0, r)) or 0
            for r, b in zip(stream, betas)
        ]
        assert block.diverged_at.tolist() == expected
        assert expected[0] == expected[2] == 0 and expected[1] > 0
        if shared and len(betas) == 4:
            assert expected[3] == expected[1]
        for r, diverged in enumerate(expected):
            for j, k in enumerate(block.ks):
                cells = (block.l2[r, j], block.f[r, j], block.cesaro[r, j], *block.snapshots[j][r])
                if diverged and k >= diverged:
                    assert np.isnan(cells).all()
                else:
                    np.testing.assert_array_equal(block.snapshots[j][r], refs[r][k])
                    assert not np.isnan(cells[:2]).any()
            if diverged:
                assert (diverged - 1) % 47 != 0  # not the first step of a chunk
                np.testing.assert_array_equal(block.final[r], refs[r][diverged - 1])
            else:
                np.testing.assert_array_equal(block.final[r], refs[r][-1])


@pytest.mark.parametrize("shape", ["run", "sweep", "ensemble"])
@pytest.mark.parametrize("kind", ["block", "gaussian"])
def test_one_eigendecomposition_per_chunk(kind, shape):
    """The kernel factors each pre-drawn chunk's Gram matrices with one
    stacked sym_eig, never one per step or per member."""
    problem = gen_problem(30, 6, seed=1)
    dist = BlockRow(3) if kind == "block" else GaussianSketch(3)
    eh = expected_h(dist, problem.a, mc_samples=50).value
    xstar = project_onto_solutions(np.zeros(6), problem.a, problem.b)
    members = {"run": 1, "sweep": 4, "ensemble": 3}[shape]
    streams = members if shape == "ensemble" else 1
    params = SolverParams(omega=1.0, beta=0.3, max_iter=50, seed=2, record_every=10, snapshots=True)
    counter = mock.Mock(wraps=shb.linalg.sym_eig)
    with (
        chunk_steps(7),
        mock.patch.object(shb.linalg, "sym_eig", counter),
        mock.patch.object(shb.sketch, "sym_eig", counter),
    ):
        block = solver._iterate(
            problem, dist, params, np.zeros(6), range(streams),
            np.ones(members), np.linspace(0.0, 0.3, members), eh, xstar,
        )
    assert not block.diverged_at.any()
    stacks = [call.args[0].shape for call in counter.call_args_list]
    assert stacks == [(7, streams, 3, 3)] * 7 + [(1, streams, 3, 3)]


def test_gaussian_predraw_memory_is_bounded():
    """A tall Gaussian run holds one pre-draw chunk of S at a time, about
    BATCH_ELEMENTS numbers, never all max_iter draws (9.6 MB here)."""
    problem = gen_problem(3000, 10, seed=4)
    dist = GaussianSketch(2)
    eh = expected_h(dist, problem.a, mc_samples=20).value
    xstar = project_onto_solutions(np.zeros(10), problem.a, problem.b)
    params = SolverParams(omega=1.0, beta=0.3, max_iter=200, seed=1, record_every=50)
    tracemalloc.start()
    try:
        run(problem, dist, params, eh=eh, xstar=xstar)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * shb.sketch.BATCH_ELEMENTS + problem.a.nbytes


def test_row_sweep_at_default_chunks_equals_solo_runs_and_the_oracle():
    """Unpatched chunk sizes: a 3-pair row sweep on 300x100 over 3000
    steps, which draws its shared stream's rows in three chunks whose
    boundaries fall between records, equals three solo runs and the
    oracle loop, bit for bit."""
    problem = gen_problem(300, 100, seed=0)
    dist = row_sampling(problem.a)
    max_iter = 3000
    chunk = solver._chunk_steps(dist, 300, 100, 1)
    assert 2 * chunk < max_iter <= 3 * chunk and chunk % 500
    settings = [
        SolverParams(omega=1.0, beta=beta, max_iter=max_iter, seed=2, record_every=500, snapshots=True)
        for beta in (0.0, 0.2, 0.4)
    ]
    paired = run_pairs(problem, dist, settings)
    for params, got in zip(settings, paired):
        want = run(problem, dist, params)
        for field in ("ks", "l2_error", "f_value", "cesaro_f", "snapshots"):
            np.testing.assert_array_equal(getattr(got, field), getattr(want, field))
        np.testing.assert_array_equal(got.final_iterate, want.final_iterate)
        ref = oracle_iterates(problem, dist, 1.0, params.beta, max_iter, derive_stream(2, 0, 0), np.zeros(100))
        for k, snap in zip(got.ks, got.snapshots):
            np.testing.assert_array_equal(snap, ref[k])
        np.testing.assert_array_equal(got.final_iterate, ref[-1])


def test_row_ensemble_at_default_chunks_equals_its_runs():
    """Unpatched chunk sizes: each member of a 100-replication row
    ensemble on 50x20, whose rows are drawn in chunks of a few dozen
    steps with boundaries between records, equals the plain run on its
    stream, bit for bit."""
    problem = gen_problem(50, 20, seed=4)
    dist = row_sampling(problem.a)
    reps, max_iter = 100, 400
    chunk = solver._chunk_steps(dist, 50, 20, reps)
    assert chunk < max_iter and chunk % 50
    params = SolverParams(omega=1.0, beta=0.3, max_iter=max_iter, seed=7, record_every=50, snapshots=True)
    block = solver._iterate(
        problem, dist, params, np.zeros(20), range(reps), np.array([1.0]), np.array([0.3]), None, None,
    )
    assert not block.diverged_at.any()
    for r in range(reps):
        trace = run(problem, dist, params, stream_index=r)
        assert block.l2[r].tolist() == trace.l2_error
        assert block.f[r].tolist() == trace.f_value
        assert block.cesaro[r, 1:].tolist() == trace.cesaro_f[1:]
        for j in range(len(block.ks)):
            np.testing.assert_array_equal(block.snapshots[j][r], trace.snapshots[j])
        np.testing.assert_array_equal(block.final[r], trace.final_iterate)
