"""Sketching distributions and the stochastic objective they induce.

A draw produces a random matrix S with one column per sketch dimension
and the weighting matrix H = S (S^T A A^T S)^+ S^T, which is PSD and
makes A^T H A an orthogonal projector; the Hessian W = A^T E[H] A of
the expected objective so has its spectrum inside [0, 1].  No sketch
forms the m x m E[H]: expected_h gives W in d x d, f_value the objective
from W and spectrum W's eigenvalues.  Every draw (a row, never one of
probability zero; a sorted row subset; or S) comes from draw_batch, and
draw is its first of one; stoch_grad takes one, and sketch_rows gives
block and Gaussian draws' rows to stoch_grad, expected_h (summed by
_add_projections) and the solver, one rule for all three.
_add_projections factors a chunk's Grams together, batch-last
(cholesky_inverses), not by a LAPACK call per draw.  expected_h makes the arrays its chunks work in (the sketched
rows, the Gram stack, L^-1 and its work stacks, F) once per call, sized
for the first chunk, and every chunk writes into views of them: arrays
made anew per chunk would have their pages faulted in again each time.
The families:

* UnitCoordinate -- S = e_i with probability p_i (single-row sampling;
  the default weights p_i = ||A_i||^2 / ||A||_F^2 give the classical
  randomized Kaczmarz method),
* BlockRow      -- S spans a uniformly random subset of tau coordinate
  vectors (block row sampling),
* GaussianSketch -- S has i.i.d. standard normal entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import NamedTuple, Union

import numpy as np

import shb.linalg as linalg
from shb.errors import DimensionMismatch, OutOfRange, ShbError, ZeroRow
from shb.linalg import BATCH_ELEMENTS, REL_TOL, as_matrix, as_vector, check_symmetric, lapack, nonzero_min, pinv_apply, row_dots
from shb.theory import LMAX_SLACK

PROB_SUM_TOL = 1e-12
DEFAULT_MC_SAMPLES = 10_000
# f_value and the kernel's records take W times rows as one gemm per block
# of this many rows: OpenBLAS picks its kernels by a product's row count, so
# a row's bits depend on the block size, not on its place or the other rows
W_BLOCK_ROWS = 8
CERTIFY_MARGIN = 1e3  # the Cholesky certificate's room for rounding (_add_projections)


def derive_stream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for (master seed, stream key).

    Each concurrent consumer must own its own stream; streams with
    distinct keys never overlap.
    """
    if seed < 0:
        raise OutOfRange(f"seed must be a nonnegative integer, got {seed}")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.PCG64(ss))


@dataclass(frozen=True)
class UnitCoordinate:
    """Single coordinate-vector sketches, S = e_i with probability p_i."""

    probabilities: np.ndarray

    def __post_init__(self):
        p = np.ascontiguousarray(self.probabilities, dtype=np.float64)
        if p.ndim != 1 or p.size == 0:
            raise OutOfRange("probabilities must be a non-empty 1-D vector")
        if np.any(p < 0.0) or not np.all(np.isfinite(p)):
            raise OutOfRange("probabilities must be finite and nonnegative")
        if abs(float(p.sum()) - 1.0) > PROB_SUM_TOL:
            raise OutOfRange(f"probabilities sum to {float(p.sum())!r}, expected 1")
        object.__setattr__(self, "probabilities", p)
        # raised to 1 from the last row of positive probability on, a uniform
        # in [0, 1) lands on no zero-probability row and not past the last row
        cumulative = np.cumsum(p)
        last = np.flatnonzero(p)[-1]
        np.maximum(cumulative[last:], 1.0, out=cumulative[last:])
        object.__setattr__(self, "_cumulative", cumulative)


@dataclass(frozen=True)
class BlockRow:
    """Uniformly random subset of block_size rows, without replacement."""

    block_size: int

    def __post_init__(self):
        if self.block_size < 1:
            raise OutOfRange("block_size must be >= 1")


@dataclass(frozen=True)
class GaussianSketch:
    """Dense sketch with i.i.d. N(0,1) entries and `width` columns."""

    width: int

    def __post_init__(self):
        if self.width < 1:
            raise OutOfRange("width must be >= 1")


SketchDistribution = Union[UnitCoordinate, BlockRow, GaussianSketch]


def row_sampling(a) -> UnitCoordinate:
    """UnitCoordinate distribution with p_i proportional to ||A_i||^2.

    Zero rows get probability zero and are never sampled; an all-zero
    matrix is rejected.
    """
    a = as_matrix(a, "a")
    with np.errstate(over="ignore"):  # an overflowed norm is refused below, by name
        norms_sq = np.einsum("ij,ij->i", a, a)
        total = float(norms_sq.sum())
    if not math.isfinite(total):
        bad = np.flatnonzero(~np.isfinite(norms_sq))
        where = f"{bad.size} non-finite entries, the first at row {bad[0]}" if bad.size else "a non-finite sum"
        raise OutOfRange(
            f"squared row norms of the matrix of shape {a.shape} have {where}: "
            "its inputs are too large for float64 or not finite"
        )
    if total <= 0.0:
        raise ZeroRow("every row of the matrix is zero")
    p = norms_sq / total
    return UnitCoordinate(p / p.sum())


def draw(dist: SketchDistribution, rng: np.random.Generator, m: int | None = None) -> np.int64 | np.ndarray:
    """Draw one sketch from the distribution: draw_batch's first of one.

    UnitCoordinate gives a row index, BlockRow a sorted row subset,
    GaussianSketch the m-by-width S; BlockRow and GaussianSketch need the
    row count m.
    """
    return draw_batch(dist, rng, m, 1)[0]


def draw_batch(dist: SketchDistribution, rng: np.random.Generator, m: int | None, n: int) -> np.ndarray:
    """n draws, consuming rng as n calls of draw() do.

    UnitCoordinate gives n row indices (row_indices of n uniforms),
    BlockRow the sorted row subsets as an (n, block_size) index array
    drawn uniformly without replacement (_block_subsets), GaussianSketch
    the matrices S of standard normals as an (n, m, width) array.
    """
    if isinstance(dist, UnitCoordinate):
        return row_indices(dist, rng.random(n))
    if m is None:
        raise DimensionMismatch("row count m is required for this distribution")
    tau = sketch_size(dist, m)
    if isinstance(dist, BlockRow):
        return _block_subsets(rng, m, tau, n)
    return rng.standard_normal((n, m, tau))


def _block_subsets(rng: np.random.Generator, m: int, tau: int, n: int) -> np.ndarray:
    """n sorted tau-subsets of range(m), uniform, by Floyd's algorithm.

    Sequentially, position c of a draw takes an integer t_c uniform on
    [0, m-tau+c], or m-tau+c when t_c is already taken.  Here all n*tau
    integers come from one rng.integers call, which fills row by row, so
    draw i uses the stream as a draw of its own would.  t_c is taken when
    it repeats an earlier integer of its row, or when it is m-tau+i for
    an earlier position i that was itself replaced; that chain of
    positions is followed by pointer doubling, in ceil(log2 tau) passes.
    """
    top = m - tau
    t = rng.integers(0, np.arange(top + 1, m + 1), size=(n, tau))
    row = np.arange(0, n * tau, tau)[:, None]  # flat index of each draw's position 0
    # t * tau + c is unique in a row: sorted, equal integers sit in position order
    key = np.sort(t * tau + np.arange(tau), axis=1)
    repeat = np.zeros(n * tau, dtype=bool)
    repeat[key[:, 1:] % tau + row] = key[:, 1:] // tau == key[:, :-1] // tau
    earlier = t - top
    link = np.flatnonzero((earlier >= 0) & (earlier < np.arange(tau)) & ~repeat.reshape(n, tau))
    root = np.arange(n * tau)
    root[link] = (earlier + row).ravel()[link]
    for _ in range((tau - 1).bit_length()):
        root[link] = root[root[link]]
    return np.sort(np.where(repeat[root].reshape(n, tau), np.arange(top, m), t), axis=1)


def sketch_size(dist: SketchDistribution, m: int) -> int:
    """Rows of one draw's sketched system: 1 for row sampling, else tau
    (block_size or width).  OutOfRange when tau exceeds the row count m
    or the distribution is of no known family."""
    if isinstance(dist, UnitCoordinate):
        return 1
    if not isinstance(dist, (BlockRow, GaussianSketch)):
        raise OutOfRange(f"unknown sketch distribution {type(dist).__name__}")
    tau = dist.block_size if isinstance(dist, BlockRow) else dist.width
    if tau > m:
        raise OutOfRange(f"sketch size {tau} exceeds row count {m}")
    return tau


def draw_size(dist: SketchDistribution, m: int, d: int) -> int:
    """Numbers one draw holds at most: a row draw's A_i, b_i and
    ||A_i||^2, or the largest array of a block or Gaussian draw (A_S and
    its Gram factors, or S and S^T A)."""
    if isinstance(dist, UnitCoordinate):
        return d + 2
    tau = sketch_size(dist, m)
    return tau * max(d, tau if isinstance(dist, BlockRow) else m)


def chunk_steps(dist: SketchDistribution, m: int, d: int, streams: int = 1) -> int:
    """Steps per pre-drawn chunk: about BATCH_ELEMENTS numbers, one draw of
    draw_size numbers per stream and step, and at least one step.  The W
    estimate draws one stream, so its steps are draws."""
    return max(1, BATCH_ELEMENTS // (streams * draw_size(dist, m, d)))


def check_row_norms(dist: UnitCoordinate, norms_sq: np.ndarray) -> None:
    """Refuse row weights that do not fit the matrix whose squared row
    norms are norms_sq: a weight count other than its row count, or a
    zero row with positive probability."""
    p = dist.probabilities
    if p.size != norms_sq.size:
        raise DimensionMismatch(f"distribution has {p.size} weights for {norms_sq.size} rows")
    bad = (p > 0.0) & (norms_sq == 0.0)
    if np.any(bad):
        raise ZeroRow(f"row {int(np.argmax(bad))} is zero but has positive probability")


def row_indices(dist: UnitCoordinate, u) -> np.ndarray:
    """The rows draw() picks for the uniforms u in [0, 1), elementwise:
    one inverse-CDF lookup over the raised cumulative weights."""
    return np.searchsorted(dist._cumulative, u, side="right")


def stoch_grad(a, b, x, dist: SketchDistribution, drawn) -> np.ndarray:
    """Stochastic gradient A^T H (Ax - b) for one draw of dist, as draw makes it.

    For a row index i this is ((A_i x - b_i) / ||A_i||^2) A_i^T, the
    randomized Kaczmarz direction.  The result always lies in the row
    space of A.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if a.ndim != 2 or x.shape != (a.shape[1],) or b.shape != (a.shape[0],):
        raise DimensionMismatch(
            f"incompatible shapes a={a.shape}, b={b.shape}, x={x.shape}"
        )
    if isinstance(dist, UnitCoordinate):
        row = a[drawn]
        nrm_sq = float(row @ row)
        if nrm_sq == 0.0:
            raise ZeroRow(f"sampled zero row {drawn}: distribution is corrupt")
        resid = float(row @ x) - float(b[drawn])
        return (resid / nrm_sq) * row
    if not isinstance(dist, (BlockRow, GaussianSketch)):
        raise OutOfRange(f"unknown sketch distribution {type(dist).__name__}")
    g = sketch_rows(dist, a, drawn)
    return g.T @ pinv_apply(g @ g.T, g @ x - sketch_rows(dist, b, drawn))


def sketch_rows(
    dist: BlockRow | GaussianSketch, v: np.ndarray, drawn: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """The sketched rows of v (A or b): v[drawn] for block subsets, S^T v for
    Gaussian S; written into out when it is given."""
    if isinstance(dist, BlockRow):  # "clip" writes out in place, "raise" through a copy; draws are in range
        return np.take(v, drawn, axis=0, out=out, mode="clip")
    return np.matmul(drawn.swapaxes(-1, -2), v, out=out)


class ExpectedH(NamedTuple):
    """E[H] as the objective and the spectrum use it, and the sample count.

    value is the Hessian W = A^T E[H] A (d x d) for every sketch.
    mc_samples is None when the value is exact.
    """

    value: np.ndarray
    mc_samples: int | None


def check_w_fits(d: int) -> None:
    """Refuse a d x d Hessian W over the dense-array budget."""
    if d * d > linalg.MAX_DENSE_ELEMENTS:
        raise OutOfRange(f"a {d}x{d} Hessian W is over the limit of {linalg.MAX_DENSE_ELEMENTS} entries")


def _carve(buf: np.ndarray, *shapes: tuple[int, ...]) -> list[np.ndarray]:
    """Consecutive C-contiguous views of the flat buffer buf, one per shape."""
    views, start = [], 0
    for shape in shapes:
        stop = start + math.prod(shape)
        views.append(buf[start:stop].reshape(shape))
        start = stop
    return views


def cholesky_inverses(gram: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """L_n^-1 for the Cholesky factor L_n of each G_n = L_n L_n^T in a
    stack (n, tau, tau), as a stack of the same shape.

    The stack is worked batch-last, as (tau, tau, n): step j makes column
    j of every L_n and then row j of every L_n^-1, each one contraction
    across the n draws, so a chunk costs about 2 tau numpy calls and no
    LAPACK call.  A G_n with a pivot that is not positive comes back
    non-finite from that pivot on, and raises no warning.  out, a flat
    float64 buffer of at least 3 n tau^2 numbers, holds the result (a view
    of its start) and the two work stacks; without it one is allocated.
    """
    tau = gram.shape[1]
    g = np.moveaxis(gram, 0, -1)
    out = np.empty(3 * gram.size) if out is None else out
    result, low, inv = _carve(out, gram.shape, g.shape, g.shape)
    inv.fill(0.0)  # L^-1 is lower triangular, and row j's contraction reads the zeros above it
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for j in range(tau):
            col = g[j:, j] - np.einsum("ikn,kn->in", low[j:, :j], low[j, :j])
            low[j:, j] = col / np.sqrt(col[0])
            inv[j, j] = 1.0 / low[j, j]
            inv[j, :j] = np.einsum("kn,kln->ln", low[j, :j], inv[:j, :j]) * -inv[j, j]
    np.copyto(result, np.moveaxis(inv, -1, 0))
    return result


def _add_projections(acc: np.ndarray, g: np.ndarray, work: np.ndarray) -> None:
    """acc += g_n^T pinv(G_n) g_n, G_n = g_n g_n^T, for each sketched
    matrix g_n = g[n]; each term is F^T F, so draws add as one product.

    G_n = L L^T is certified when 1/||L^-1||_F^2 (at most lambda_min(G_n))
    is above CERTIFY_MARGIN * REL_TOL * tr(G_n) (at least that times
    lambda_max): the pseudoinverse then cuts nothing, and F = L^-1 g_n,
    with L^-1 from cholesky_inverses.  Each other draw, and only those
    (a G_n with no factor comes back non-finite and fails the
    certificate), takes F = diag(lam)^{+1/2} V^T g_n from
    G_n = V diag(lam) V^T.  work, a flat float64 buffer of at least
    n tau (4 tau + d) numbers for g of shape (n, tau, d), holds the Gram
    stack, L^-1 with cholesky_inverses' work stacks, and F.
    """
    n, tau, d = g.shape
    gram, chol, f = _carve(work, (n, tau, tau), (3 * n * tau * tau,), g.shape)
    with np.errstate(over="ignore"):  # an overflowed Gram is refused by check_symmetric, by name
        np.matmul(g, g.swapaxes(1, 2), out=gram)
    check_symmetric(gram)
    inv_low = cholesky_inverses(gram, chol)
    bound = 1.0 / np.einsum("nij,nij->n", inv_low, inv_low)  # einsum: a huge L^-1 gives inf, no warning
    ok = np.isfinite(bound) & (bound > CERTIFY_MARGIN * REL_TOL * np.einsum("nii->n", gram))
    certified = int(np.count_nonzero(ok))
    if certified:
        cert = ok if certified < n else slice(None)  # no copy when every draw is certified
        f_ok = np.matmul(inv_low[cert], g[cert], out=f[:certified]).reshape(-1, d)
        acc += f_ok.T @ f_ok
    if certified < n:
        rest = ~ok if certified else slice(None)  # no copy when no draw is certified
        vecs, inv = linalg.pinv_factors(gram[rest])
        f_rest = np.matmul(vecs.swapaxes(1, 2), g[rest], out=f[: n - certified])
        f_rest *= np.sqrt(inv)[:, :, None]
        f_rest = f_rest.reshape(-1, d)
        acc += f_rest.T @ f_rest


def expected_h(
    dist: SketchDistribution,
    a,
    *,
    mc_samples: int = DEFAULT_MC_SAMPLES,
    rng: np.random.Generator | None = None,
) -> ExpectedH:
    """The Hessian W = A^T E[H] A, exact where a closed form exists.

    UnitCoordinate is exact: W = (A * h)^T A for E[H] = diag(h), h_i =
    p_i/||A_i||^2 with the kernel's rounding of the norms.  BlockRow and
    GaussianSketch give W, the mean over draws of g^T pinv(g g^T) g with
    g = A_S (the sampled rows) or S^T A.  BlockRow is enumerated exactly
    when C(m, tau) <= 10000, otherwise estimated by Monte Carlo, like
    GaussianSketch always is.  Estimates carry the sample count; exact
    values carry None.  The default estimator rng is seeded so repeat
    calls agree.  Draws are made in a fixed order and summed in chunks
    (BATCH_ELEMENTS), each in the same arrays, allocated once per call.
    """
    a = as_matrix(a, "a")
    m, d = a.shape
    if mc_samples < 1:
        raise OutOfRange(f"mc_samples must be >= 1, got {mc_samples}")
    check_w_fits(d)
    if isinstance(dist, UnitCoordinate):
        p = dist.probabilities
        norms_sq = row_dots(a, a)
        check_row_norms(dist, norms_sq)
        h = np.divide(p, norms_sq, out=np.zeros(m), where=p > 0.0)
        # C order makes the product the same gemm as A^T diag(h) A
        w = np.multiply(a.T, h, order="C") @ a
        return ExpectedH(np.add(w, w.T, out=w) / 2.0, None)  # out=: two W at the peak, not three
    tau = sketch_size(dist, m)
    rng = rng if rng is not None else np.random.default_rng(0)
    n = mc_samples
    enumerated = isinstance(dist, BlockRow) and math.comb(m, tau) <= DEFAULT_MC_SAMPLES
    if enumerated:
        subsets = np.array(list(combinations(range(m), tau)))
        n, mc_samples = len(subsets), None
    acc = np.zeros((d, d))
    chunk = min(chunk_steps(dist, m, d), n)
    # every chunk works in views of these, sized for the first chunk
    rows = np.empty((chunk, tau, d))
    work = np.empty(chunk * tau * (4 * tau + d))
    for start in range(0, n, chunk):
        size = min(chunk, n - start)
        drawn = subsets[start : start + size] if enumerated else draw_batch(dist, rng, m, size)
        _add_projections(acc, sketch_rows(dist, a, drawn, out=rows[:size]), work)
    acc /= n
    return ExpectedH(np.add(acc, acc.T, out=acc) / 2.0, mc_samples)


class SpectrumInfo(NamedTuple):
    """Spectrum of the Hessian W = A^T E[H] A."""

    eigenvalues: np.ndarray
    lambda_max: float
    lambda_min_plus: float
    rank: int


def spectrum(w: np.ndarray) -> SpectrumInfo:
    """W's eigenvalues, descending, with lambda_min_plus, the smallest above
    REL_TOL*lambda_max, and rank, their count (W is ExpectedH.value).  An
    eigenvalue below -REL_TOL*max(1, lambda_max) or above 1 + LMAX_SLACK is
    a ShbError; a negative one above that floor is dust and reads as zero."""
    check_symmetric(w)
    vals = lapack(np.linalg.eigvalsh, w)[::-1]
    lam_min_plus = nonzero_min(vals)
    if vals[-1] < -REL_TOL * max(1.0, vals[0]) or vals[0] > 1.0 + LMAX_SLACK:
        raise ShbError(f"spectrum escaped [0, 1 + {LMAX_SLACK!r}]")
    vals[vals < 0.0] = 0.0
    return SpectrumInfo(
        eigenvalues=vals,
        lambda_max=float(vals[0]),
        lambda_min_plus=lam_min_plus,
        rank=int(np.count_nonzero(linalg.above_cutoff(vals))),
    )


def f_value(x, w, xstar) -> float:
    """Objective value f(x) = (1/2) (x-x*)^T W (x-x*), clamped at zero.

    w is ExpectedH.value, the Hessian W = A^T E[H] A, and xstar a solution
    of the consistent system Ax = b; f is then (1/2) (Ax-b)^T E[H] (Ax-b),
    and since Null(A) lies in Null(W), any solution gives the same f.  With
    row sampling's default weights f is ||Ax - b||^2 / (2 ||A||_F^2).
    """
    x = as_vector(x, name="x")
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (x.size, x.size):
        raise DimensionMismatch(f"w has shape {w.shape}, expected ({x.size}, {x.size})")
    e = x - as_vector(xstar, length=x.size, name="xstar")
    return max(0.5 * float(e @ (np.tile(e, (W_BLOCK_ROWS, 1)) @ w)[0]), 0.0)
