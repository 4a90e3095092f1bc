"""Heavy ball iteration kernel with seeded, reproducible execution.

Single runs, ensembles and sweeps share one kernel that advances an
(R, d) block of iterates.  Every sketch's draws are made ahead in
chunks, in the order of the draw -> stoch_grad -> shb_step pipeline;
block and Gaussian chunks are factored with one stacked
eigendecomposition, so a step only does the products that depend on
the iterate.  For row and block sampling each member's arithmetic is
that of the pipeline on its own stream, so member r is bit-identical to
a plain run on that stream; Gaussian sketches take their residual as
S^T A x - S^T b, which rounds differently.  Ensembles give replication r
the stream derived from (seed, r) and aggregate in replication order;
sweeps share one stream, so every (omega, beta) pair replays the same
draws.  x* and E[H] come in once per block; f uses row sampling's
weights h, or (1/2) (x-x*)^T W (x-x*) with the Hessian W.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

import shb.linalg as linalg
from shb.errors import DimensionMismatch, NonFinite, OutOfRange, ZeroRow
from shb.linalg import as_vector, project_onto_solutions
from shb.problems import Problem
from shb.sketch import (
    BlockRow,
    GaussianSketch,
    SketchDistribution,
    UnitCoordinate,
    derive_stream,
    draw_batch,
    expected_h,
    gram_factors,
    row_indices,
)
# re-exported: perfbench/tests checks that tracing wraps this import site
from shb.sketch import draw  # noqa: F401

METRIC_L2 = "l2_error"
METRIC_F = "f_value"
METRIC_CESARO = "cesaro_f"
METRIC_SNAPSHOT = "iterate_snapshot"
ALL_METRICS = frozenset({METRIC_L2, METRIC_F, METRIC_CESARO, METRIC_SNAPSHOT})
DEFAULT_METRICS = frozenset({METRIC_L2, METRIC_F, METRIC_CESARO})

# iterates beyond this magnitude (or non-finite) abort the run
DIVERGENCE_LIMIT = 1e30
# the kernel draws ahead in chunks of about this many numbers over all
# members or streams, so pre-draw memory does not grow with max_iter
PREDRAW_ELEMENTS = 1 << 17


@dataclass(frozen=True)
class SolverParams:
    """Stepsize, momentum, budget, seed and recording schedule for a run."""

    omega: float
    beta: float
    max_iter: int
    seed: int
    record_every: int = 1
    metrics: frozenset = DEFAULT_METRICS

    def __post_init__(self):
        if not (math.isfinite(self.omega) and self.omega > 0.0):
            raise OutOfRange(f"omega must be finite and > 0, got {self.omega!r}")
        if not (math.isfinite(self.beta) and self.beta >= 0.0):
            raise OutOfRange(f"beta must be finite and >= 0, got {self.beta!r}")
        if self.max_iter < 1:
            raise OutOfRange("max_iter must be >= 1")
        if self.record_every < 1:
            raise OutOfRange("record_every must be >= 1")
        if self.seed < 0:
            raise OutOfRange("seed must be a nonnegative integer")
        metrics = frozenset(self.metrics)
        unknown = metrics - ALL_METRICS
        if unknown:
            raise OutOfRange(f"unknown metrics {sorted(unknown)}")
        object.__setattr__(self, "metrics", metrics)


@dataclass
class RunTrace:
    """Recorded metrics of one run, aligned by recorded iteration index.

    l2_error holds the raw squared distance ||x_k - x*||^2 so that any
    relative-error convention can be derived from it downstream.
    cesaro_f is None at k = 0, where the running average is undefined.
    A trace from run_pairs whose iterate diverged stops before the
    diverging iteration diverged_at, and final_iterate is the last finite
    iterate; run() raises NonFinite instead.
    """

    ks: list[int]
    l2_error: list[float] | None
    f_value: list[float] | None
    cesaro_f: list[float | None] | None
    elapsed_seconds: list[float]
    snapshots: list[np.ndarray] | None
    final_iterate: np.ndarray
    params: SolverParams
    diverged_at: int | None = None


@dataclass
class EnsembleStats:
    """Replication-averaged metrics at each recorded iteration.

    l1_sq holds ||mean over replications of (x_k - x*)||^2, the Monte
    Carlo estimate of the squared distance of the expected iterate; it
    requires the iterate_snapshot metric.
    """

    ks: list[int]
    l2_mean: list[float] | None
    f_mean: list[float] | None
    cesaro_f_mean: list[float | None] | None
    l1_sq: list[float] | None
    replications: int
    params: SolverParams


def shb_step(x_k, x_prev, grad, omega: float, beta: float) -> np.ndarray:
    """One heavy ball update: x_k - omega*grad + beta*(x_k - x_prev).

    Exactly this arithmetic order; with beta = 0 it is the plain
    stochastic gradient step.
    """
    x_k = np.asarray(x_k, dtype=np.float64)
    x_prev = np.asarray(x_prev, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    if x_k.shape != x_prev.shape or x_k.shape != grad.shape:
        raise DimensionMismatch(
            f"shapes differ: x_k={x_k.shape}, x_prev={x_prev.shape}, grad={grad.shape}"
        )
    return x_k - omega * grad + beta * (x_k - x_prev)


@dataclass
class _Block:
    """What the kernel recorded for its members, member-major.

    Rows of l2/f/cesaro are members, columns the recorded indices ks;
    the cesaro column at k = 0 is undefined (NaN).  snapshots holds one
    (members, d) block per record.  diverged_at is 0 for a member that
    never diverged; its records are NaN from that iteration on and its
    final iterate is the last finite one.
    """

    ks: list[int]
    l2: np.ndarray | None
    f: np.ndarray | None
    cesaro: np.ndarray | None
    snapshots: list[np.ndarray] | None
    elapsed: list[float]
    final: np.ndarray
    diverged_at: np.ndarray


def _row_dots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u[r] @ v[r] for every row r.

    A stacked (1, d) @ (d, 1) matmul does each product as the same BLAS
    dot as the 1-D u[r] @ v[r], so the result is bit-identical to it
    (einsum is not).
    """
    return np.matmul(u[:, None, :], v[:, :, None])[:, 0, 0]


def _objective_rows(a: np.ndarray, b: np.ndarray, xs: np.ndarray, eh: np.ndarray, xstar) -> np.ndarray:
    """f_value(a, b, x, eh, xstar) for every row x of xs, with f_value's arithmetic."""
    if eh.ndim == 1:
        resid = np.matmul(a, xs[:, :, None])[:, :, 0] - b
        vals = 0.5 * _row_dots(resid, eh * resid)
    else:
        err = xs - xstar
        vals = 0.5 * _row_dots(err, np.matmul(eh, err[:, :, None])[:, :, 0])
    return np.where(0.0 > vals, 0.0, vals)


def _step_elements(dist: SketchDistribution, m: int, d: int, streams: int, members: int) -> int:
    """Numbers pre-drawn per step: a uniform per member, or per stream the
    largest block or Gaussian array (A_S, V, S or S^T A)."""
    if isinstance(dist, UnitCoordinate):
        return members
    if isinstance(dist, BlockRow):
        return streams * dist.block_size * max(d, dist.block_size)
    if isinstance(dist, GaussianSketch):
        return streams * dist.width * max(d, m)
    raise OutOfRange(f"unknown sketch distribution {type(dist).__name__}")


def _check_records_fit(params: SolverParams, members: int, d: int) -> None:
    """Refuse a schedule whose records are over the dense-array budget.

    Each record holds k and its time, plus per member one number per
    scalar metric and d for a snapshot.
    """
    records = params.max_iter // params.record_every + 1 + (params.max_iter % params.record_every > 0)
    scalars = len(params.metrics - {METRIC_SNAPSHOT})
    per_record = 2 + members * (scalars + (d if METRIC_SNAPSHOT in params.metrics else 0))
    if records * per_record > linalg.MAX_DENSE_ELEMENTS:
        raise OutOfRange(
            f"{records} records of {per_record} numbers each are over the limit of "
            f"{linalg.MAX_DENSE_ELEMENTS} entries: record less often"
        )


def _sketched_systems(dist: BlockRow | GaussianSketch, a: np.ndarray, b: np.ndarray, streams, steps: int):
    """Each stream's next steps draws, made as draw() makes them, as
    sketched systems g x = c: g = A_S or S^T A (steps, streams, tau, d),
    c = b_S or S^T b (steps, streams, tau, 1)."""
    if isinstance(dist, BlockRow):
        picked = np.stack([draw_batch(dist, s, a.shape[0], steps) for s in streams], axis=1)
        return a[picked], b[picked][..., None]
    gs, cs = [], []
    for s in streams:
        s_t = draw_batch(dist, s, a.shape[0], steps).swapaxes(1, 2)
        gs.append(s_t @ a)
        cs.append(s_t @ b)
    return np.stack(gs, axis=1), np.stack(cs, axis=1)[..., None]


def _iterate(
    problem: Problem,
    dist: SketchDistribution,
    params: SolverParams,
    x0: np.ndarray,
    streams: list[np.random.Generator],
    omega: np.ndarray,
    beta: np.ndarray,
    eh: np.ndarray | None,
    xstar: np.ndarray | None,
) -> _Block:
    """Advance one heavy ball iterate per (omega[r], beta[r]) member together.

    Member r draws from streams[r]; a single stream is shared by all
    members, which then replay the same draws.  params gives the budget,
    recording schedule and metrics (its omega and beta are not used).
    The draws do not depend on the iterates, so each stream's are made
    ahead in chunks of about PREDRAW_ELEMENTS numbers.  Row sampling maps
    its uniforms to rows with one lookup.  Block and Gaussian sketches
    turn a chunk into sketched systems g x = c (A_S x = b_S, or
    S^T A x = S^T b) and factor all their Gram matrices g g^T =
    V diag(lam) V^T with one stacked eigendecomposition.  A step is then
    a few stacked products over the members: the Kaczmarz direction, or
    g^T V (lam^+ * V^T (g x - c)), each as the same BLAS call the
    one-sample stoch_grad makes.  A member whose iterate leaves the
    finite range is dropped from the block; the others go on unchanged.
    """
    a, b = problem.a, problem.b
    m, d = a.shape
    n = omega.size
    _check_records_fit(params, n, d)
    shared = len(streams) == 1
    metrics = params.metrics
    want_f = METRIC_F in metrics or METRIC_CESARO in metrics
    if want_f:
        if eh is None:
            eh = expected_h(dist, a).value
        elif eh.shape not in ((m,), (d, d)):
            raise DimensionMismatch(f"expected_h has shape {eh.shape}, expected ({m},) or ({d}, {d})")
    if xstar is None and (METRIC_L2 in metrics or (want_f and eh.ndim == 2)):
        xstar = project_onto_solutions(x0, a, b)

    by_row = isinstance(dist, UnitCoordinate)
    if by_row:
        if dist.probabilities.size != m:
            raise DimensionMismatch(f"distribution has {dist.probabilities.size} weights for {m} rows")
        norms_sq = _row_dots(a, a)
        bad = (dist.probabilities > 0.0) & (norms_sq == 0.0)
        if np.any(bad):
            raise ZeroRow(f"row {int(np.argmax(bad))} is zero but has positive probability")
    chunk = max(1, PREDRAW_ELEMENTS // _step_elements(dist, m, d, len(streams), n))

    ks = list(range(0, params.max_iter + 1, params.record_every))
    if ks[-1] != params.max_iter:
        ks.append(params.max_iter)
    l2 = np.full((n, len(ks)), np.nan) if METRIC_L2 in metrics else None
    f = np.full((n, len(ks)), np.nan) if METRIC_F in metrics else None
    cesaro = np.full((n, len(ks)), np.nan) if METRIC_CESARO in metrics else None
    snapshots: list[np.ndarray] | None = [] if METRIC_SNAPSHOT in metrics else None
    elapsed: list[float] = []
    diverged_at = np.zeros(n, dtype=np.int64)
    final = np.empty((n, d))

    live = np.arange(n)
    omega = omega[:, None]
    beta = beta[:, None]
    x = np.tile(x0, (n, 1))
    x_prev = x.copy()
    running_sum = np.zeros((n, d))  # x_1 + ... + x_k for the Cesaro average

    def record(j: int, k: int) -> None:
        if l2 is not None:
            diff = x - xstar
            l2[live, j] = _row_dots(diff, diff)
        if f is not None:
            f[live, j] = _objective_rows(a, b, x, eh, xstar)
        if cesaro is not None and k > 0:
            cesaro[live, j] = _objective_rows(a, b, running_sum / k, eh, xstar)
        if snapshots is not None:
            snap = np.full((n, d), np.nan)
            snap[live] = x
            snapshots.append(snap)
        elapsed.append(time.perf_counter() - t0)

    t0 = time.perf_counter()
    record(0, 0)
    j = 1
    k = 0
    while k < params.max_iter and live.size:
        steps = min(chunk, params.max_iter - k)
        if by_row:
            if shared:
                u = np.broadcast_to(streams[0].random(steps)[:, None], (steps, live.size))
            else:
                u = np.stack([s.random(steps) for s in streams], axis=1)
            picked = row_indices(dist, u)
            b_picked = b[picked]
            norms_picked = norms_sq[picked]
        else:
            g, c = _sketched_systems(dist, a, b, streams, steps)
            vecs, inv = gram_factors(g)
            inv = inv[..., None]
        for t in range(steps):
            k += 1
            if by_row:
                rows = a[picked[t]]
                grad = ((_row_dots(rows, x) - b_picked[t]) / norms_picked[t])[:, None] * rows
            else:
                resid = np.matmul(g[t], x[:, :, None]) - c[t]
                proj = np.matmul(vecs[t], inv[t] * np.matmul(vecs[t].swapaxes(-1, -2), resid))
                grad = np.matmul(g[t].swapaxes(-1, -2), proj)[:, :, 0]
            x_new = x - omega * grad + beta * (x - x_prev)
            if not (np.abs(x_new).max() <= DIVERGENCE_LIMIT):
                ok = np.abs(x_new).max(axis=1) <= DIVERGENCE_LIMIT
                diverged_at[live[~ok]] = k
                final[live[~ok]] = x[~ok]
                live, x, x_prev, x_new = live[ok], x[ok], x_prev[ok], x_new[ok]
                omega, beta, running_sum = omega[ok], beta[ok], running_sum[ok]
                if by_row:
                    picked, b_picked, norms_picked = picked[:, ok], b_picked[:, ok], norms_picked[:, ok]
                elif not shared:
                    g, c, vecs, inv = g[:, ok], c[:, ok], vecs[:, ok], inv[:, ok]
                if not shared:
                    streams = [s for s, keep in zip(streams, ok) if keep]
                if not live.size:
                    break
            x_prev, x = x, x_new
            if cesaro is not None:
                running_sum += x
            if k == ks[j]:
                record(j, k)
                j += 1

    final[live] = x
    return _Block(ks, l2, f, cesaro, snapshots, elapsed, final, diverged_at)


def _start(x0, d: int) -> np.ndarray:
    return np.zeros(d) if x0 is None else as_vector(x0, length=d, name="x0")


def _member_trace(block: _Block, r: int, params: SolverParams) -> RunTrace:
    """Member r of a block as a plain run's trace, cut before any divergence."""
    diverged_at = int(block.diverged_at[r]) or None
    n_rec = len(block.ks) if diverged_at is None else bisect_left(block.ks, diverged_at)

    def series(values):
        return None if values is None else values[r, :n_rec].tolist()

    return RunTrace(
        ks=block.ks[:n_rec],
        l2_error=series(block.l2),
        f_value=series(block.f),
        cesaro_f=None if block.cesaro is None else [None] + block.cesaro[r, 1:n_rec].tolist(),
        elapsed_seconds=block.elapsed[:n_rec],
        snapshots=None if block.snapshots is None else [s[r] for s in block.snapshots[:n_rec]],
        final_iterate=block.final[r],
        params=params,
        diverged_at=diverged_at,
    )


def _diverged(k: int) -> NonFinite:
    return NonFinite(f"iterate diverged at iteration {k}", iteration=k)


def run(
    problem: Problem,
    dist: SketchDistribution,
    params: SolverParams,
    x0=None,
    *,
    eh: np.ndarray | None = None,
    xstar: np.ndarray | None = None,
    stream_index: int = 0,
) -> RunTrace:
    """Run the momentum iteration from x0 with a fresh sketch draw per step.

    The two starting iterates coincide (the first momentum difference is
    zero); recorded index k counts stochastic gradient applications, so
    the iterate at index k has consumed exactly k draws.  Metrics are
    recorded at k = 0, every record_every steps and at k = max_iter.
    Identical (problem, dist, params, x0) yield bit-identical traces.
    eh (ExpectedH.value: row-sampling weights or the Hessian W) and
    xstar, when given, replace computing them; the objective of W needs
    xstar too.  Raises NonFinite with the first diverging iteration.
    """
    x0 = _start(x0, problem.a.shape[1])
    block = _iterate(
        problem, dist, params, x0,
        [derive_stream(params.seed, 0, stream_index)],
        np.array([params.omega]), np.array([params.beta]),
        eh, xstar,
    )
    trace = _member_trace(block, 0, params)
    if trace.diverged_at is not None:
        raise _diverged(trace.diverged_at)
    return trace


def run_pairs(
    problem: Problem,
    dist: SketchDistribution,
    runs: list[SolverParams],
    x0=None,
) -> list[RunTrace]:
    """Run several (omega, beta) settings in one block on one stream.

    Every setting replays the draws of a plain run (stream index 0), so
    each trace is bit-identical to run() with its params, and E[H] (its
    weights or W) and x* are computed once for all of them.  The settings must share seed,
    budget, schedule and metrics.  A diverged setting does not stop the
    others: its trace ends before the diverging iteration and carries
    diverged_at.
    """
    if not runs:
        raise OutOfRange("at least one setting is required")
    first = runs[0]
    shared = (first.seed, first.max_iter, first.record_every, first.metrics)
    if any((p.seed, p.max_iter, p.record_every, p.metrics) != shared for p in runs):
        raise OutOfRange("settings of one block must share seed, max_iter, record_every and metrics")
    block = _iterate(
        problem, dist, first, _start(x0, problem.a.shape[1]),
        [derive_stream(first.seed, 0, 0)],
        np.array([p.omega for p in runs]), np.array([p.beta for p in runs]),
        None, None,
    )
    return [_member_trace(block, r, p) for r, p in enumerate(runs)]


def run_ensemble(
    problem: Problem,
    dist: SketchDistribution,
    params: SolverParams,
    x0=None,
    replications: int = 1,
    *,
    eh: np.ndarray | None = None,
    xstar: np.ndarray | None = None,
) -> EnsembleStats:
    """Replicate a run under independent streams and average the metrics.

    Replication r uses the stream derived from (seed, r) and is
    bit-identical to run() with stream_index r, so replication 0 equals
    a plain run with the same params.  Averages are taken in replication
    order.  eh and xstar are as for run().  If any replication diverges,
    NonFinite is raised for the lowest-index one, with its iteration.
    """
    if replications < 1:
        raise OutOfRange("replications must be >= 1")
    a, b = problem.a, problem.b
    x0 = _start(x0, a.shape[1])
    want_snap = METRIC_SNAPSHOT in params.metrics
    if xstar is None and (METRIC_L2 in params.metrics or want_snap):
        xstar = project_onto_solutions(x0, a, b)

    block = _iterate(
        problem, dist, params, x0,
        [derive_stream(params.seed, 0, r) for r in range(replications)],
        np.full(replications, params.omega), np.full(replications, params.beta),
        eh, xstar,
    )
    diverged = np.flatnonzero(block.diverged_at)
    if diverged.size:
        raise _diverged(int(block.diverged_at[diverged[0]]))

    cesaro_mean = None
    if block.cesaro is not None:
        by_record = np.ascontiguousarray(block.cesaro.T)
        cesaro_mean = [None] + [float(np.mean(vals)) for vals in by_record[1:]]
    l1_sq = None
    if want_snap:
        l1_sq = []
        for snap in block.snapshots:
            diff = np.mean(snap, axis=0) - xstar
            l1_sq.append(float(diff @ diff))

    return EnsembleStats(
        ks=block.ks,
        l2_mean=None if block.l2 is None else block.l2.mean(axis=0).tolist(),
        f_mean=None if block.f is None else block.f.mean(axis=0).tolist(),
        cesaro_f_mean=cesaro_mean,
        l1_sq=l1_sq,
        replications=replications,
        params=params,
    )
