"""Sketching distributions and the stochastic objective they induce.

A draw produces a random matrix S with one column per sketch dimension.
The per-draw weighting matrix is

    H = S (S^T A A^T S)^+ S^T,

which is PSD and makes A^T H A an orthogonal projector, so the Hessian
of the expected objective, W = A^T E[H] A, always has its spectrum
inside [0, 1].  Three families are supported:

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

from shb.errors import DimensionMismatch, OutOfRange, ShbError, ZeroRow
from shb.linalg import REL_TOL, as_matrix, as_vector, nonzero_min, pinv_apply, pinv_psd, sym_eig

PROB_SUM_TOL = 1e-12
DEFAULT_MC_SAMPLES = 10_000
# the E[H] estimate stacks its draws in chunks whose largest array holds
# about this many numbers
BATCH_ELEMENTS = 1 << 17


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


@dataclass(frozen=True)
class RowSample:
    index: int


@dataclass(frozen=True)
class BlockSample:
    indices: np.ndarray


@dataclass(frozen=True)
class GaussianSample:
    matrix: np.ndarray


SketchSample = Union[RowSample, BlockSample, GaussianSample]


def draw(dist: SketchDistribution, rng: np.random.Generator, m: int | None = None) -> SketchSample:
    """Draw one sketch sample from the distribution.

    UnitCoordinate uses inverse-CDF lookup over the cumulative weights;
    BlockRow draws a uniform subset without replacement; GaussianSketch
    fills an m-by-width matrix with standard normals.  BlockRow and
    GaussianSketch need the row count m.
    """
    if isinstance(dist, UnitCoordinate):
        p = dist.probabilities
        u = rng.random()
        i = int(np.searchsorted(dist._cumulative, u, side="right"))
        if i >= p.size:
            i = p.size - 1
        while p[i] == 0.0 and i > 0:  # float tail beyond the cumulative mass
            i -= 1
        return RowSample(i)
    if m is None:
        raise DimensionMismatch("row count m is required for this distribution")
    if isinstance(dist, BlockRow):
        if dist.block_size > m:
            raise OutOfRange(f"block_size {dist.block_size} exceeds row count {m}")
        idx = np.sort(rng.choice(m, size=dist.block_size, replace=False))
        return BlockSample(idx)
    if isinstance(dist, GaussianSketch):
        if dist.width > m:
            raise OutOfRange(f"sketch width {dist.width} exceeds row count {m}")
        return GaussianSample(rng.standard_normal((m, dist.width)))
    raise OutOfRange(f"unknown sketch distribution {type(dist).__name__}")


def row_indices(dist: UnitCoordinate, u) -> np.ndarray:
    """The rows draw() picks for the uniforms u, elementwise.

    One inverse-CDF lookup for the whole array, with draw()'s rules: an
    index past the end is clamped to the last row, and a zero-probability
    row steps back to the nearest earlier row of positive probability.
    """
    i = np.searchsorted(dist._cumulative, u, side="right")
    np.minimum(i, dist.probabilities.size - 1, out=i)
    return dist._row_of[i]


def stoch_grad(a, b, x, sample: SketchSample) -> np.ndarray:
    """Stochastic gradient A^T H (Ax - b) for one sketch sample.

    For a RowSample i this is ((A_i x - b_i) / ||A_i||^2) A_i^T, the
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
    if isinstance(sample, RowSample):
        row = a[sample.index]
        nrm_sq = float(row @ row)
        if nrm_sq == 0.0:
            raise ZeroRow(f"sampled zero row {sample.index}: distribution is corrupt")
        resid = float(row @ x) - float(b[sample.index])
        return (resid / nrm_sq) * row
    if isinstance(sample, BlockSample):
        sub = a[sample.indices]
        r = sub @ x - b[sample.indices]
        return sub.T @ pinv_apply(sub @ sub.T, r)
    if isinstance(sample, GaussianSample):
        s = sample.matrix
        g = s.T @ a
        t = s.T @ (a @ x - b)
        return g.T @ pinv_apply(g @ g.T, t)
    raise OutOfRange(f"unknown sketch sample {type(sample).__name__}")


class ExpectedH(NamedTuple):
    """E[H] by its structure, and the Monte Carlo sample count.

    value is the diagonal h of E[H] = diag(h) for row sampling and the
    dense m x m matrix for the other sketches; matrix is always dense.
    mc_samples is None when the value is exact.
    """

    value: np.ndarray
    mc_samples: int | None

    @property
    def matrix(self) -> np.ndarray:
        return np.diag(self.value) if self.value.ndim == 1 else self.value


def _add_block_pinvs(acc: np.ndarray, a: np.ndarray, idx: np.ndarray) -> None:
    """acc[S, S] += pinv(A_S A_S^T) for each row block S = idx[n], in order."""
    sub = a[idx]
    pinvs = pinv_psd(sub @ sub.swapaxes(1, 2))
    flat = idx[:, :, None] * acc.shape[0] + idx[:, None, :]
    np.add.at(acc.reshape(-1), flat.ravel(), pinvs.ravel())


def _mean_h(acc: np.ndarray, n: int, mc_samples: int | None) -> ExpectedH:
    h = acc / n
    return ExpectedH((h + h.T) / 2.0, mc_samples)


def expected_h(
    dist: SketchDistribution,
    a,
    *,
    mc_samples: int = DEFAULT_MC_SAMPLES,
    rng: np.random.Generator | None = None,
) -> ExpectedH:
    """E[H] for the distribution, exact where a closed form exists.

    UnitCoordinate is exact and kept as the weights h_i = p_i/||A_i||^2
    of its diagonal.  BlockRow is enumerated exactly when C(m, tau) <=
    10000, otherwise estimated by Monte Carlo, like GaussianSketch
    always is.  Estimates carry the sample count; exact values carry
    None.  The default estimator rng is seeded so repeat calls agree.
    Draws are made one by one in a fixed order; their pseudoinverses
    are taken in stacked chunks of about BATCH_ELEMENTS numbers, so
    memory does not grow with mc_samples.
    """
    a = as_matrix(a, "a")
    m, d = a.shape
    if mc_samples < 1:
        raise OutOfRange(f"mc_samples must be >= 1, got {mc_samples}")
    if isinstance(dist, UnitCoordinate):
        p = dist.probabilities
        if p.size != m:
            raise DimensionMismatch(f"distribution has {p.size} weights for {m} rows")
        norms_sq = np.einsum("ij,ij->i", a, a)
        bad = (p > 0.0) & (norms_sq == 0.0)
        if np.any(bad):
            raise ZeroRow(f"row {int(np.argmax(bad))} is zero but has positive probability")
        h = np.zeros(m)
        pos = p > 0.0
        h[pos] = p[pos] / norms_sq[pos]
        return ExpectedH(h, None)
    acc = np.zeros((m, m))
    if isinstance(dist, BlockRow):
        tau = dist.block_size
        if tau > m:
            raise OutOfRange(f"block_size {tau} exceeds row count {m}")
        chunk = max(1, BATCH_ELEMENTS // (tau * max(d, tau)))
        n_subsets = math.comb(m, tau)
        if n_subsets <= DEFAULT_MC_SAMPLES:
            subsets = np.array(list(combinations(range(m), tau)))
            for start in range(0, n_subsets, chunk):
                _add_block_pinvs(acc, a, subsets[start : start + chunk])
            return _mean_h(acc, n_subsets, None)
        rng = rng if rng is not None else np.random.default_rng(0)
        for start in range(0, mc_samples, chunk):
            idx = [rng.choice(m, size=tau, replace=False) for _ in range(min(chunk, mc_samples - start))]
            _add_block_pinvs(acc, a, np.sort(idx, axis=1))
        return _mean_h(acc, mc_samples, mc_samples)
    if isinstance(dist, GaussianSketch):
        tau = dist.width
        if tau > m:
            raise OutOfRange(f"sketch width {tau} exceeds row count {m}")
        rng = rng if rng is not None else np.random.default_rng(0)
        chunk = max(1, BATCH_ELEMENTS // (tau * max(m, d)))
        for start in range(0, mc_samples, chunk):
            s = rng.standard_normal((min(chunk, mc_samples - start), m, tau))
            g = s.swapaxes(1, 2) @ a
            u = s @ pinv_psd(g @ g.swapaxes(1, 2))
            acc += np.tensordot(u, s, axes=((0, 2), (0, 2)))
        return _mean_h(acc, mc_samples, mc_samples)
    raise OutOfRange(f"unknown sketch distribution {type(dist).__name__}")


@dataclass(frozen=True)
class SpectrumInfo:
    """Spectrum of W = A^T E[H] A plus the exactness flag of E[H].

    expected_h is E[H] as ExpectedH.value: the diagonal weights for row
    sampling, the dense matrix otherwise.
    """

    eigenvalues: np.ndarray
    lambda_max: float
    lambda_min_plus: float
    rank: int
    exact: bool
    expected_h: np.ndarray
    mc_samples: int | None

    def __post_init__(self):
        vals = self.eigenvalues
        if np.any(vals < 0.0) or np.any(vals > 1.0 + 1e-8):
            raise ShbError("spectrum escaped [0, 1 + 1e-8]")
        if not (0.0 < self.lambda_min_plus <= self.lambda_max <= 1.0 + 1e-8):
            raise ShbError("lambda_min_plus / lambda_max out of order")


def hessian_spectrum(
    a,
    dist: SketchDistribution,
    *,
    mc_samples: int = DEFAULT_MC_SAMPLES,
    rng: np.random.Generator | None = None,
) -> SpectrumInfo:
    """Assemble W = A^T E[H] A explicitly and report its spectrum.

    lambda_min_plus is the smallest eigenvalue above REL_TOL*lambda_max;
    the exact flag is true iff the smallest eigenvalue of E[H] exceeds
    REL_TOL, i.e. E[H] is (numerically) positive definite.  For row
    sampling that eigenvalue is min(h), and W costs O(m d^2).
    """
    a = as_matrix(a, "a")
    eh = expected_h(dist, a, mc_samples=mc_samples, rng=rng)
    h = eh.value
    if h.ndim == 1:
        # the contiguous copy makes the product the same gemm as A^T diag(h) A
        w = np.ascontiguousarray((a * h[:, None]).T) @ a
        eh_min = float(h.min())
    else:
        w = a.T @ h @ a
        eh_min = float(np.linalg.eigvalsh(h)[0])
    w = (w + w.T) / 2.0
    eig = sym_eig(w)
    vals = eig.eigenvalues
    lam_max = float(vals[0])
    lam_min_plus = nonzero_min(vals)
    rank = int(np.count_nonzero(vals > REL_TOL * lam_max))
    return SpectrumInfo(
        eigenvalues=vals,
        lambda_max=lam_max,
        lambda_min_plus=lam_min_plus,
        rank=rank,
        exact=bool(eh_min > REL_TOL),
        expected_h=h,
        mc_samples=eh.mc_samples,
    )


def f_value(a, b, x, eh) -> float:
    """Objective value (1/2) (Ax-b)^T E[H] (Ax-b).

    eh is E[H] as its diagonal weights (length m) or as a dense m x m
    matrix.  With the default row-sampling weights this equals
    ||Ax - b||^2 / (2 ||A||_F^2).  Rounding dust below zero is clamped.
    """
    a = np.asarray(a, dtype=np.float64)
    m = a.shape[0]
    b = as_vector(b, length=m, name="b")
    x = as_vector(x, length=a.shape[1], name="x")
    eh = np.asarray(eh, dtype=np.float64)
    r = a @ x - b
    if eh.shape == (m,):
        weighted = eh * r
    elif eh.shape == (m, m):
        weighted = eh @ r
    else:
        raise DimensionMismatch(f"expected_h has shape {eh.shape}, expected ({m},) or ({m}, {m})")
    val = 0.5 * float(r @ weighted)
    return max(val, 0.0)
