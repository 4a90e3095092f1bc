"""Heavy ball iteration kernel with seeded, reproducible execution.

Single runs (run), ensembles (run_ensemble) and sweeps (run_pairs) share
one kernel, _iterate, which advances an (R, d) block of iterates; each
entry point states its streams and what it is bit-identical to.  The
kernel's parts are described where they are implemented: the step, its
buffers, its records and the freeze of a diverged member in _iterate,
the pre-drawn chunks in _chunk_steps, the divergence guard in
_finite_rows, and the budget, checked before any stream exists, in
_check_fits.  Every entry point reports divergence as diverged_at.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_left
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

import shb.linalg as linalg
import shb.sketch as sketch
from shb.errors import DimensionMismatch, OutOfRange
from shb.linalg import as_vector, project_onto_solutions, row_dots
from shb.problems import Problem
from shb.sketch import (
    SketchDistribution,
    UnitCoordinate,
    check_row_norms,
    check_w_fits,
    derive_stream,
    draw_batch,
    draw_size,
    expected_h,
    gram_factors,
    row_indices,
    sketch_rows,
    sketch_size,
)
# re-exported: perfbench/tests checks that tracing wraps this import site
from shb.sketch import draw  # noqa: F401

# an iterate beyond this magnitude (or non-finite) has diverged
DIVERGENCE_LIMIT = 1e30
# a block of squared norm at most this has every entry within DIVERGENCE_LIMIT
GUARD_SQ = 0.99 * DIVERGENCE_LIMIT**2


@dataclass(frozen=True)
class SolverParams:
    """Stepsize, momentum, budget, seed and recording schedule for a run.

    snapshots also keeps a copy of the iterate at every record, for
    tests that check the iterates themselves.
    """

    omega: float
    beta: float
    max_iter: int
    seed: int
    record_every: int = 1
    snapshots: bool = False

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

    def record_count(self, start: int = 0) -> int:
        """How many recorded iterations are at or after start: the run
        records every record_every steps from k = 0, and at max_iter."""
        every = range(0, self.max_iter + 1, self.record_every)
        return len(every) - bisect_left(every, start) + (every[-1] != self.max_iter and start <= self.max_iter)


class RunTrace(NamedTuple):
    """Recorded metrics of one run, aligned by recorded iteration index.

    l2_error holds the raw squared distance ||x_k - x*||^2 so that any
    relative-error convention can be derived from it downstream.
    cesaro_f is None at k = 0, where the running average is undefined;
    snapshots is None unless params.snapshots is set.  diverged_at is
    None unless the iterate diverged; then it is the first diverging
    iteration, the series stop before it, and final_iterate is the last
    finite iterate.
    """

    ks: list[int]
    l2_error: list[float]
    f_value: list[float]
    cesaro_f: list[float | None]
    elapsed_seconds: list[float]
    snapshots: list[np.ndarray] | None
    final_iterate: np.ndarray
    params: SolverParams
    diverged_at: int | None = None


class EnsembleStats(NamedTuple):
    """Replication-averaged metrics at each recorded iteration.

    l1_sq holds ||mean over replications of (x_k - x*)||^2, the Monte
    Carlo estimate of the squared distance of the expected iterate.
    diverged_at is None unless a replication diverged; then it is the
    earliest diverging iteration of any replication, and the series stop
    before it, as a trace's do.
    """

    ks: list[int]
    l2_mean: list[float]
    f_mean: list[float]
    cesaro_f_mean: list[float | None]
    l1_sq: list[float]
    replications: int
    diverged_at: int | None = None


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


class _Block(NamedTuple):
    """What the kernel recorded for its members, member-major.

    Rows of l2/f/cesaro are members, columns the recorded indices ks;
    the cesaro column at k = 0 is undefined (NaN).  l1_sq holds per
    record ||mean over the members of (x - x*)||^2, and snapshots, when
    asked for, one (members, d) block.  diverged_at is 0 for a member that
    never diverged; from that iteration on, its records, snapshots and
    l1_sq are NaN, and its final iterate is the last finite one.
    """

    ks: list[int]
    l2: np.ndarray
    f: np.ndarray
    cesaro: np.ndarray
    l1_sq: list[float]
    snapshots: list[np.ndarray] | None
    elapsed: list[float]
    final: np.ndarray
    diverged_at: np.ndarray


def _chunk_steps(dist: SketchDistribution, m: int, d: int, streams: int) -> int:
    """Steps per pre-drawn chunk: about sketch.BATCH_ELEMENTS numbers, one
    draw of draw_size numbers per stream and step, and at least one step."""
    return max(1, sketch.BATCH_ELEMENTS // (streams * draw_size(dist, m, d)))


def _check_fits(params: SolverParams, dist: SketchDistribution, m: int, d: int, members: int, streams: int) -> int:
    """The numbers a block holds at most; OutOfRange when they are over the
    dense-array budget.

    W alone must fit (sketch.check_w_fits), and the block holds its d^2
    numbers.  Each record holds k, its time and the l1_sq value, plus per
    member three numbers (l2, f, Cesaro f) and d for a snapshot.  Each
    member holds nine rows of d numbers: three rotating iterates, the
    gradient and momentum buffers, the Cesaro running sum, omega, beta
    and the final iterate, and a record two more, W (x - x*) and W times
    the Cesaro mean - x*; the buffer pair and its W product each fill
    up to whole blocks of sketch.W_BLOCK_ROWS rows.  A chunk of draws
    takes 4 draw_size numbers per stream and step: the chunk as it is made
    (uniforms and their rows, or stacked draws), the previous chunk, and
    the gathered rows or the Gram factors.
    """
    check_w_fits(d)
    records = params.record_count()
    per_record = 3 + members * (3 + (d if params.snapshots else 0))
    steps = min(_chunk_steps(dist, m, d, streams), params.max_iter)
    held = d * d + (members * 11 + 2 * sketch.W_BLOCK_ROWS) * d + 4 * steps * streams * draw_size(dist, m, d)
    if records * per_record + held > linalg.MAX_DENSE_ELEMENTS:
        raise OutOfRange(
            f"{records} records of {per_record} numbers and {held} numbers of W, iterates and draws "
            f"are over the limit of {linalg.MAX_DENSE_ELEMENTS} entries: record less often "
            f"or run fewer replications or pairs"
        )
    return records * per_record + held


def _sketched_systems(dist: SketchDistribution, a: np.ndarray, b: np.ndarray, streams, steps: int):
    """Each stream's next steps draws (held one stream at a time) as sketched systems
    g x = c, g = sketch_rows of A (steps, streams, tau, d), c of b (..., tau, 1)."""
    gs, cs = [], []
    for s in streams:
        drawn = draw_batch(dist, s, a.shape[0], steps)
        gs.append(sketch_rows(dist, a, drawn))
        cs.append(sketch_rows(dist, b, drawn))
    return np.stack(gs, axis=1), np.stack(cs, axis=1)[..., None]


def _finite_rows(x_new: np.ndarray) -> np.ndarray | None:
    """None when every entry of the block x_new is within DIVERGENCE_LIMIT,
    else whether each row is.

    One dot product certifies the whole block: the computed ||x||^2 is at
    least (1 - N u) times the exact one for N numbers and unit roundoff
    u, and N u is far below the 1% margin of GUARD_SQ for any block within
    the dense-array budget, so passing bounds every |x_i| by the limit.
    NaN, inf and a large but finite block fail it; the entrywise test
    then decides, exactly as it would alone.
    """
    flat = x_new.reshape(-1)
    if flat @ flat <= GUARD_SQ:
        return None
    return np.abs(x_new).max(axis=1) <= DIVERGENCE_LIMIT


def _iterate(
    problem: Problem,
    dist: SketchDistribution,
    params: SolverParams,
    x0,
    keys: range,
    omega: np.ndarray,
    beta: np.ndarray,
    eh: np.ndarray | None,
    xstar: np.ndarray | None,
) -> _Block:
    """Advance one heavy ball iterate per (omega[r], beta[r]) member together.

    Member r draws from the stream derived from (params.seed, 0,
    keys[r]); a single key is shared by all members, which then replay
    the same draws.  omega and beta hold a value per member, or one for
    all; params gives the budget and record schedule.  A block or
    Gaussian chunk becomes sketched systems g x = c (sketch_rows: A_S x
    = b_S, or S^T A x = S^T b) with g g^T = V diag(lam) V^T and gradient
    g^T V (lam^+ * V^T (g x - c)); row and block sampling so repeat the
    arithmetic of draw -> stoch_grad(..., dist, drawn) -> shb_step,
    while Gaussian sketches round their residual differently.  Every
    sketch shares the update x - omega*grad + beta*(x - x_prev), in that
    order, into three rotating buffers, with omega and beta held as
    (R, d) arrays, so a step allocates nothing.  A record (_Block) takes
    f and the Cesaro f of every member from one W product of their 2R
    error rows, a gemm per block of rows as in f_value.  A member whose
    iterate leaves the finite range is frozen: its rows of x, x_new, omega
    and beta become 0, so it stays finite and takes no further step, and
    its records are NaN.  The block keeps its shape and the others go on
    unchanged.
    """
    a, b = problem.a, problem.b
    m, d = a.shape
    x0 = np.zeros(d) if x0 is None else as_vector(x0, length=d, name="x0")
    n = max(len(keys), omega.size)
    _check_fits(params, dist, m, d, n, len(keys))
    if eh is None:
        eh = expected_h(dist, a).value
    elif eh.shape != (d, d):
        raise DimensionMismatch(f"expected_h has shape {eh.shape}, expected ({d}, {d})")
    if xstar is None:
        xstar = project_onto_solutions(x0, a, b)

    by_row = isinstance(dist, UnitCoordinate)
    if by_row:
        norms_sq = row_dots(a, a)
        check_row_norms(dist, norms_sq)
    chunk = _chunk_steps(dist, m, d, len(keys))
    streams = [derive_stream(params.seed, 0, key) for key in keys]
    # rows of a step's products before the gradient: A_i x, or g x - c and V^T (g x - c)
    tau = sketch_size(dist, m)

    ks = list(range(0, params.max_iter + 1, params.record_every))
    if ks[-1] != params.max_iter:
        ks.append(params.max_iter)
    l2 = np.full((n, len(ks)), np.nan)
    f = np.full((n, len(ks)), np.nan)
    cesaro = np.full((n, len(ks)), np.nan)
    l1_sq: list[float] = []
    snapshots: list[np.ndarray] | None = [] if params.snapshots else None
    elapsed: list[float] = []
    diverged_at = np.zeros(n, dtype=np.int64)
    final = np.empty((n, d))

    omega = np.repeat(np.broadcast_to(omega, n), d).reshape(n, d)
    beta = np.repeat(np.broadcast_to(beta, n), d).reshape(n, d)
    x = np.tile(x0, (n, 1))
    x_prev = x.copy()
    x_new = np.empty_like(x)
    running_sum = np.zeros((n, d))  # x_1 + ... + x_k for the Cesaro average
    # the gradient and momentum buffers as one block with zero rows up to
    # whole blocks of rows, the gradient shaped as the output of a step's
    # last product, and two of the step's products
    blocks = np.zeros((-(-2 * n // sketch.W_BLOCK_ROWS), sketch.W_BLOCK_ROWS, d))
    pair = blocks.reshape(-1, d)
    grad, mom = pair[:n], pair[n : 2 * n]
    grad_out = grad.reshape((n, 1, d) if by_row else (n, d, 1))
    prod, coef = np.empty((2, n, tau, 1))
    w_blocks = np.empty_like(blocks)

    def record(j: int, k: int) -> None:
        # the buffer pair is free between steps: x - x* and the Cesaro mean
        # - x* go in its halves, NaN for a frozen member, for one gemm with
        # W per block of rows, as in f_value
        diff = np.subtract(x, xstar, out=grad)
        if k:
            np.subtract(np.divide(running_sum, k, out=mom), xstar, out=mom)
        frozen = diverged_at > 0
        diff[frozen] = mom[frozen] = np.nan
        l2[:, j] = row_dots(diff, diff)
        w_pair = np.matmul(blocks, eh, out=w_blocks).reshape(-1, d)
        vals = 0.5 * row_dots(pair[: 2 * n], w_pair[: 2 * n])
        vals = np.where(0.0 > vals, 0.0, vals)
        f[:, j] = vals[:n]
        if k:
            cesaro[:, j] = vals[n:]
        mean_diff = np.add.reduce(diff, axis=0) / n  # np.mean's bits, without its overhead
        l1_sq.append(float(mean_diff @ mean_diff))
        if snapshots is not None:
            snapshots.append(np.where(frozen[:, None], np.nan, x))
        elapsed.append(time.perf_counter() - t0)

    matmul, multiply, subtract, add, divide = np.matmul, np.multiply, np.subtract, np.add, np.divide
    t0 = time.perf_counter()
    record(0, 0)
    j, k = 1, 0
    # a step may overflow; _finite_rows judges the inf and NaN it leaves
    with np.errstate(over="ignore", invalid="ignore"):
        while k < params.max_iter and not diverged_at.all():
            steps = min(chunk, params.max_iter - k)
            if by_row:
                at = row_indices(dist, np.stack([s.random(steps) for s in streams], axis=1))
                draws = (a[at][:, :, None], b[at][:, :, None, None], norms_sq[at][:, :, None, None])
            else:
                g, c = _sketched_systems(dist, a, b, streams, steps)
                vecs, inv = gram_factors(g @ g.swapaxes(-1, -2))
                draws = (g, c, vecs, inv[..., None])
            for t in range(steps):
                k += 1
                if by_row:
                    row = draws[0][t]
                    matmul(row, x[:, :, None], out=prod)
                    subtract(prod, draws[1][t], out=prod)
                    divide(prod, draws[2][t], out=prod)
                    multiply(prod, row, out=grad_out)
                else:
                    g, c, vecs, inv = draws
                    matmul(g[t], x[:, :, None], out=prod)
                    subtract(prod, c[t], out=prod)
                    matmul(vecs[t].swapaxes(-1, -2), prod, out=coef)
                    multiply(inv[t], coef, out=coef)
                    matmul(vecs[t], coef, out=prod)
                    matmul(g[t].swapaxes(-1, -2), prod, out=grad_out)
                # x - omega * grad + beta * (x - x_prev), in this order
                multiply(omega, grad, out=grad)
                subtract(x, grad, out=x_new)
                subtract(x, x_prev, out=mom)
                multiply(beta, mom, out=mom)
                add(x_new, mom, out=x_new)
                ok = _finite_rows(x_new)
                if ok is not None and not ok.all():
                    bad = ~ok
                    diverged_at[bad] = k
                    final[bad] = x[bad]
                    if diverged_at.all():
                        break
                    x[bad] = x_new[bad] = omega[bad] = beta[bad] = 0.0
                x_prev, x, x_new = x, x_new, x_prev
                add(running_sum, x, out=running_sum)
                if k == ks[j]:
                    record(j, k)
                    j += 1

    alive = diverged_at == 0
    final[alive] = x[alive]
    return _Block(ks, l2, f, cesaro, l1_sq, snapshots, elapsed, final, diverged_at)


def _member_trace(block: _Block, r: int, params: SolverParams) -> RunTrace:
    """Member r of a block as a plain run's trace, cut before any divergence."""
    diverged_at = int(block.diverged_at[r]) or None
    n_rec = bisect_left(block.ks, diverged_at or math.inf)
    return RunTrace(
        ks=block.ks[:n_rec],
        l2_error=block.l2[r, :n_rec].tolist(),
        f_value=block.f[r, :n_rec].tolist(),
        cesaro_f=[None] + block.cesaro[r, 1:n_rec].tolist(),
        elapsed_seconds=block.elapsed[:n_rec],
        snapshots=None if block.snapshots is None else [s[r] for s in block.snapshots[:n_rec]],
        final_iterate=block.final[r],
        params=params,
        diverged_at=diverged_at,
    )


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
    the iterate at index k has consumed exactly k draws.  The series are
    recorded at k = 0, every record_every steps and at k = max_iter.
    Identical (problem, dist, params, x0) yield bit-identical traces.
    eh (ExpectedH.value, the Hessian W) and xstar, when given, replace
    computing them.  A diverged run returns its trace up to the last
    finite record, with diverged_at set (RunTrace).
    """
    block = _iterate(
        problem, dist, params, x0,
        range(stream_index, stream_index + 1),
        np.array([params.omega]), np.array([params.beta]),
        eh, xstar,
    )
    return _member_trace(block, 0, params)


def run_pairs(
    problem: Problem,
    dist: SketchDistribution,
    runs: list[SolverParams],
    x0=None,
) -> list[RunTrace]:
    """Run several (omega, beta) settings in one block on one stream.

    Every setting replays the draws of a plain run (stream index 0), so
    each trace is bit-identical to run() with its params, and W and x*
    are computed once for all of them.  The settings
    must share seed, budget and schedule; snapshots follows the first
    setting.  A diverged setting does not stop the others: its trace ends
    before the diverging iteration and carries diverged_at.
    """
    if not runs:
        raise OutOfRange("at least one setting is required")
    first = runs[0]
    shared = (first.seed, first.max_iter, first.record_every)
    if any((p.seed, p.max_iter, p.record_every) != shared for p in runs):
        raise OutOfRange("settings of one block must share seed, max_iter and record_every")
    block = _iterate(
        problem, dist, first, x0, range(1),
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
    order; l1_sq comes from the kernel's mean iterate at each record.
    eh and xstar are as for run().  If any replication diverges,
    diverged_at is the earliest iteration at which one does, and the
    series stop before it (EnsembleStats).
    """
    if replications < 1:
        raise OutOfRange("replications must be >= 1")
    block = _iterate(
        problem, dist, params, x0, range(replications),
        np.array([params.omega]), np.array([params.beta]), eh, xstar,
    )
    diverged = block.diverged_at[block.diverged_at > 0]
    diverged_at = int(diverged.min()) if diverged.size else None
    n_rec = bisect_left(block.ks, diverged_at or math.inf)
    by_record = np.ascontiguousarray(block.cesaro[:, :n_rec].T)
    return EnsembleStats(
        ks=block.ks[:n_rec],
        l2_mean=block.l2[:, :n_rec].mean(axis=0).tolist(),
        f_mean=block.f[:, :n_rec].mean(axis=0).tolist(),
        cesaro_f_mean=[None] + [float(np.mean(vals)) for vals in by_record[1:]],
        l1_sq=block.l1_sq[:n_rec],
        replications=replications,
        diverged_at=diverged_at,
    )
