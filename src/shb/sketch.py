"""Sketching distributions and the stochastic objective they induce.

A draw produces a random matrix S with one column per sketch dimension
and the weighting matrix H = S (S^T A A^T S)^+ S^T, which is PSD and
makes A^T H A an orthogonal projector; the Hessian W = A^T E[H] A of
the expected objective so has its spectrum inside [0, 1].  No sketch
forms the m x m E[H]: expected_h gives W in d x d, f_value the objective
and spectrum_and_gram the spectrum and exactness.  A draw (a row, a
sorted row subset or S) comes from draw, or many from draw_batch in the
same rng order; stoch_grad takes one, and sketch_rows gives draws' rows
to expected_h (summed by _add_projections) and the solver.  The families:

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
from shb.linalg import REL_TOL, as_matrix, as_vector, check_symmetric, nonzero_min, pinv_apply, pinv_eigenvalues
from shb.linalg import SymEig, gram_eig, row_dots, sym_eig
from shb.theory import LMAX_SLACK

PROB_SUM_TOL = 1e-12
DEFAULT_MC_SAMPLES = 10_000
# the W estimate and the solver's pre-draw stack their draws in chunks
# of about this many numbers (draw_size per draw), so memory grows with
# neither mc_samples nor max_iter
BATCH_ELEMENTS = 1 << 17
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
        raise OutOfRange("seed must be a nonnegative 64-bit integer")
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
        object.__setattr__(self, "_cumulative", np.cumsum(p))
        # draw()'s tail rule as a table: the last row at or before i with
        # positive probability, or row 0 when there is none
        positive_at = np.where(p > 0.0, np.arange(p.size), 0)
        object.__setattr__(self, "_row_of", np.maximum.accumulate(positive_at))


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
    norms_sq = np.einsum("ij,ij->i", a, a)
    total = float(norms_sq.sum())
    if total <= 0.0:
        raise ZeroRow("every row of the matrix is zero")
    p = norms_sq / total
    return UnitCoordinate(p / p.sum())


def draw(dist: SketchDistribution, rng: np.random.Generator, m: int | None = None) -> int | np.ndarray:
    """Draw one sketch from the distribution: what draw_batch makes once.

    UnitCoordinate gives a row index (inverse-CDF lookup over the
    cumulative weights), BlockRow a sorted subset drawn uniformly without
    replacement (_block_subsets), GaussianSketch the m-by-width S of
    standard normals; BlockRow and GaussianSketch need the row count m.
    """
    if isinstance(dist, UnitCoordinate):
        p = dist.probabilities
        u = rng.random()
        i = int(np.searchsorted(dist._cumulative, u, side="right"))
        if i >= p.size:
            i = p.size - 1
        while p[i] == 0.0 and i > 0:  # float tail beyond the cumulative mass
            i -= 1
        return i
    if m is None:
        raise DimensionMismatch("row count m is required for this distribution")
    return draw_batch(dist, rng, m, 1)[0]


def draw_batch(dist: SketchDistribution, rng: np.random.Generator, m: int, n: int) -> np.ndarray:
    """n block or Gaussian draws, consuming rng as n calls of draw() do.

    BlockRow gives the sorted row subsets as an (n, block_size) index
    array, GaussianSketch the matrices S as an (n, m, width) array.
    """
    tau = sketch_size(dist, m)
    if isinstance(dist, BlockRow):
        return _block_subsets(rng, m, tau, n)
    if isinstance(dist, GaussianSketch):
        return rng.standard_normal((n, m, tau))
    raise OutOfRange("row sampling draws one row at a time (draw)")


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
    """The rows draw() picks for the uniforms u, elementwise.

    One inverse-CDF lookup for the whole array, with draw()'s rules: an
    index past the end is clamped to the last row, and a zero-probability
    row steps back to the nearest earlier row of positive probability.
    """
    i = np.searchsorted(dist._cumulative, u, side="right")
    np.minimum(i, dist.probabilities.size - 1, out=i)
    return dist._row_of[i]


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
    if isinstance(dist, BlockRow):
        sub = a[drawn]
        r = sub @ x - b[drawn]
        return sub.T @ pinv_apply(sub @ sub.T, r)
    if isinstance(dist, GaussianSketch):
        g = drawn.T @ a
        t = drawn.T @ (a @ x - b)
        return g.T @ pinv_apply(g @ g.T, t)
    raise OutOfRange(f"unknown sketch distribution {type(dist).__name__}")


def sketch_rows(dist: BlockRow | GaussianSketch, v: np.ndarray, drawn: np.ndarray) -> np.ndarray:
    """The sketched rows of v (A or b): v[drawn] for block subsets, S^T v for Gaussian S."""
    return v[drawn] if isinstance(dist, BlockRow) else drawn.swapaxes(-1, -2) @ v


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


def gram_factors(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """V and inv with pinv(G_n) = V_n diag(inv_n) V_n^T for a stack of
    Gram matrices G_n = g_n g_n^T (..., tau, tau).

    One stacked sym_eig; inv holds the pseudoinverse's eigenvalues.
    """
    eig = sym_eig(gram)
    return eig.eigenvectors, pinv_eigenvalues(eig.eigenvalues)


def _add_projections(acc: np.ndarray, g: np.ndarray) -> None:
    """acc += g_n^T pinv(G_n) g_n, G_n = g_n g_n^T, for each sketched
    matrix g_n = g[n]; each term is F^T F, so draws add as one product.

    G_n = L L^T is certified when 1/||L^-1||_F^2 (at most lambda_min(G_n))
    is above CERTIFY_MARGIN * REL_TOL * tr(G_n) (at least that times
    lambda_max): the pseudoinverse then cuts nothing, and F = L^-1 g_n.
    Other draws, or the whole chunk when some G_n has no Cholesky factor,
    take F = diag(lam)^{+1/2} V^T g_n from G_n = V diag(lam) V^T.
    """
    gram = g @ g.swapaxes(1, 2)
    check_symmetric(gram)
    try:
        inv_low = np.linalg.inv(np.linalg.cholesky(gram))
        bound = 1.0 / np.square(inv_low).sum(axis=(1, 2))
        ok = np.isfinite(bound) & (bound > CERTIFY_MARGIN * REL_TOL * np.einsum("nii->n", gram))
    except np.linalg.LinAlgError:
        ok = np.zeros(len(g), dtype=bool)
    if ok.any():
        f = (inv_low @ g if ok.all() else inv_low[ok] @ g[ok]).reshape(-1, g.shape[2])
        acc += f.T @ f
    if not ok.all():
        rest = ~ok if ok.any() else slice(None)  # no copy when no draw is certified
        vecs, inv = gram_factors(gram[rest])
        f = (np.sqrt(inv)[:, :, None] * (vecs.swapaxes(1, 2) @ g[rest])).reshape(-1, g.shape[2])
        acc += f.T @ f


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
    (BATCH_ELEMENTS).
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
    chunk = max(1, BATCH_ELEMENTS // draw_size(dist, m, d))
    for start in range(0, n, chunk):
        size = min(chunk, n - start)
        drawn = subsets[start : start + size] if enumerated else draw_batch(dist, rng, m, size)
        _add_projections(acc, sketch_rows(dist, a, drawn))
    acc /= n
    return ExpectedH(np.add(acc, acc.T, out=acc) / 2.0, mc_samples)


class SpectrumInfo(NamedTuple):
    """Spectrum of W = A^T E[H] A, its exactness flag and ExpectedH's fields."""

    eigenvalues: np.ndarray
    lambda_max: float
    lambda_min_plus: float
    rank: int
    exact: bool
    expected_h: np.ndarray
    mc_samples: int | None


def spectrum_and_gram(
    a,
    dist: SketchDistribution,
    *,
    mc_samples: int = DEFAULT_MC_SAMPLES,
    rng: np.random.Generator | None = None,
) -> tuple[SpectrumInfo, SymEig]:
    """The spectrum of W = A^T E[H] A from expected_h, and linalg.gram_eig(a).

    lambda_min_plus is the smallest eigenvalue above REL_TOL*lambda_max,
    and rank counts the eigenvalues above that cutoff.  exact is the
    paper's assumption Null(W) = Null(A), tested as rank(W) = rank(A)
    with rank(A) counted the same way on gram_eig(a), which comes back
    for project_onto_solutions.  It is made after W, so a W over the
    budget is refused first.  A spectrum outside [0, 1 + LMAX_SLACK] is
    a ShbError.
    """
    a = as_matrix(a, "a")
    eh = expected_h(dist, a, mc_samples=mc_samples, rng=rng)
    vals = sym_eig(eh.value).eigenvalues
    lam_min_plus = nonzero_min(vals)
    gram = gram_eig(a)
    rank = _rank(vals)
    if np.any(vals < 0.0) or np.any(vals > 1.0 + LMAX_SLACK):
        raise ShbError(f"spectrum escaped [0, 1 + {LMAX_SLACK!r}]")
    if not (0.0 < lam_min_plus <= vals[0] <= 1.0 + LMAX_SLACK):
        raise ShbError("lambda_min_plus / lambda_max out of order")
    spectrum = SpectrumInfo(
        eigenvalues=vals,
        lambda_max=float(vals[0]),
        lambda_min_plus=lam_min_plus,
        rank=rank,
        exact=rank == _rank(gram.eigenvalues),
        expected_h=eh.value,
        mc_samples=eh.mc_samples,
    )
    return spectrum, gram


def _rank(vals: np.ndarray) -> int:
    return int(np.count_nonzero(linalg.above_cutoff(vals)))


def f_value(a, b, x, eh, xstar) -> float:
    """Objective value f(x) = (1/2) (Ax-b)^T E[H] (Ax-b), clamped at zero.

    eh is ExpectedH.value, the Hessian W, and xstar a solution of the
    consistent system Ax = b; f is then (1/2) (x-x*)^T W (x-x*), and
    since Null(A) lies in Null(W), any solution gives the same f.  With
    row sampling's default weights f is ||Ax - b||^2 / (2 ||A||_F^2).
    """
    a = np.asarray(a, dtype=np.float64)
    m, d = a.shape
    as_vector(b, length=m, name="b")
    x = as_vector(x, length=d, name="x")
    w = np.asarray(eh, dtype=np.float64)
    if w.shape != (d, d):
        raise DimensionMismatch(f"expected_h has shape {w.shape}, expected ({d}, {d})")
    e = x - as_vector(xstar, length=d, name="xstar")
    return max(0.5 * float(e @ (np.tile(e, (W_BLOCK_ROWS, 1)) @ w)[0]), 0.0)
