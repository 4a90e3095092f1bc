"""Dense linear algebra: symmetric eigendecomposition, pseudoinverses (all
factored by pinv_factors: sym_eig, then pinv_eigenvalues' cutoff), and
least-norm projection onto a solution set with rank(A).

Everything here is a pure function of its inputs.  Matrices are plain
float64 ndarrays and are never mutated.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from shb.errors import (
    AllZero,
    AsymmetryExceedsTolerance,
    DimensionMismatch,
    Inconsistent,
    NoConvergence,
    NonSquare,
    OutOfRange,
)

# Eigenvalues below REL_TOL * lambda_max are treated as zero everywhere
# (pseudoinverse cutoff, rank counting, smallest-nonzero detection), by
# the one comparison in above_cutoff; singular values of A below
# REL_TOL * sigma_max likewise, in project_onto_solutions' x* and rank(A).
REL_TOL = 1e-10
# largest relative asymmetry ||W - W^T||_F / max(1, ||W||_F) sym_eig accepts
ASYM_TOL = 1e-12
# largest residual of a projection, relative to 1 + ||b||, before the
# system counts as inconsistent
RESIDUAL_RTOL = 1e-8
# largest dense array an input may make the package allocate (1 GiB)
MAX_DENSE_ELEMENTS = 1 << 27
# work that grows with its input goes in blocks of about this many numbers:
# the W estimate's and the solver's chunks of draws (sketch.chunk_steps) and
# check_symmetric's rows of W - W^T, so memory grows with neither the sample
# count nor max_iter, and an asymmetry check holds no second W
BATCH_ELEMENTS = 1 << 17


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    arr = np.ascontiguousarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-D, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise DimensionMismatch(f"{name} contains non-finite entries")
    return arr


def as_vector(v, length: int | None = None, name: str = "vector") -> np.ndarray:
    arr = np.ascontiguousarray(v, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionMismatch(f"{name} must be 1-D, got ndim={arr.ndim}")
    if length is not None and arr.size != length:
        raise DimensionMismatch(f"{name} has length {arr.size}, expected {length}")
    if not np.all(np.isfinite(arr)):
        raise DimensionMismatch(f"{name} contains non-finite entries")
    return arr


class SymEig(NamedTuple):
    """Eigenvalues sorted descending; eigenvector columns aligned with them."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def check_symmetric(w: np.ndarray) -> None:
    """Refuse a matrix, or a stack (..., n, n) of them, that has a
    non-finite entry or whose relative asymmetry ||W - W^T||_F /
    max(1, ||W||_F) is over ASYM_TOL.  W - W^T is formed a block of rows
    at a time, at most BATCH_ELEMENTS numbers (one row of every matrix at
    the least)."""
    if w.ndim < 2 or w.shape[-1] != w.shape[-2]:
        raise NonSquare(f"expected a square matrix, got shape {w.shape}")
    if not np.isfinite(w).all():
        bad = np.argwhere(~np.isfinite(w))
        raise OutOfRange(
            f"matrix of shape {w.shape} has {len(bad)} non-finite entries, the first at index "
            f"{tuple(bad[0].tolist())}: its inputs are too large for float64 or not finite"
        )
    n = w.shape[-1]
    step = max(1, BATCH_ELEMENTS * n // max(1, w.size))  # rows of every matrix per block
    asym_sq = np.zeros(w.shape[:-2])
    for r in range(0, n, step):  # one statement: a block is freed before the next is made
        asym_sq += _fro_sq(w[..., r : r + step, :] - w[..., :, r : r + step].swapaxes(-1, -2))
    rel_asym = (np.sqrt(asym_sq) / np.maximum(1.0, np.sqrt(_fro_sq(w)))).max()
    if rel_asym > ASYM_TOL:
        raise AsymmetryExceedsTolerance(f"relative asymmetry {rel_asym:.3e} exceeds {ASYM_TOL:.0e}")


def _fro_sq(v: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each matrix of v (..., r, c), with no temporary."""
    return np.einsum("...ij,...ij->...", v, v)


def lapack(routine, *args, **kwargs):
    """routine(*args, **kwargs), a numpy.linalg call, with LAPACK's
    non-convergence (LinAlgError) raised as NoConvergence."""
    try:
        return routine(*args, **kwargs)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc


def row_dots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """u[r] @ v[r] for every row r.

    A stacked (1, d) @ (d, 1) matmul does each product as the same BLAS
    dot as the 1-D u[r] @ v[r], so the result is bit-identical to it
    (einsum is not).
    """
    return np.matmul(u[:, None, :], v[:, :, None])[:, 0, 0]


def sym_eig(w) -> SymEig:
    """Eigendecomposition of a symmetric PSD matrix, or of a stack of them.

    Eigenvalues come back sorted descending along the last axis.  Tiny
    negative eigenvalues (rounding dust, |lam| <= REL_TOL *
    max(1, |lam|_max)) are clamped to zero so PSD inputs always yield a
    nonnegative spectrum.  A stack (..., n, n) is checked and
    decomposed matrix by matrix, with the same results as one call each.
    """
    w = np.asarray(w, dtype=np.float64)
    check_symmetric(w)
    vals, vecs = lapack(np.linalg.eigh, w)
    vals = vals[..., ::-1].copy()
    vecs = vecs[..., ::-1].copy()
    top = np.abs(vals).max(axis=-1, keepdims=True, initial=0.0)
    tol = REL_TOL * np.maximum(1.0, top)
    vals[(vals < 0.0) & (vals >= -tol)] = 0.0
    return SymEig(vals, vecs)


def pinv_factors(m) -> tuple[np.ndarray, np.ndarray]:
    """V and inv with pinv(M) = V diag(inv) V^T for a symmetric PSD M, or
    for each matrix of a stack (..., n, n): sym_eig's eigenvectors and the
    pseudoinverse's eigenvalues (pinv_eigenvalues)."""
    eig = sym_eig(m)
    return eig.eigenvectors, pinv_eigenvalues(eig.eigenvalues)


def pinv_apply(m, y) -> np.ndarray:
    """Apply the Moore-Penrose pseudoinverse of a symmetric PSD matrix to y.

    Eigenvalues <= REL_TOL * lambda_max count as zero, so components of y
    in the (numerical) null space of m are annihilated.
    """
    vecs, inv = pinv_factors(m)
    y = as_vector(y, length=inv.size, name="y")
    if not inv.any():
        return np.zeros_like(y)
    return vecs @ (inv * (vecs.T @ y))


def pinv_eigenvalues(vals) -> np.ndarray:
    """The pseudoinverse's eigenvalues for descending spectra vals.

    The cutoff shared by every pseudoinverse in the package: an
    eigenvalue counts as zero when it is <= REL_TOL * lambda_max, and a
    spectrum with lambda_max <= 0 inverts to zero.  vals may be a stack
    of spectra along its last axis.
    """
    vals = np.asarray(vals, dtype=np.float64)
    keep = above_cutoff(vals) & (vals[..., :1] > 0.0)
    return np.divide(1.0, vals, out=np.zeros_like(vals), where=keep)


def above_cutoff(vals: np.ndarray) -> np.ndarray:
    """Whether each eigenvalue of descending spectra vals (stacked along
    the last axis) is above REL_TOL * lambda_max, the package's cutoff
    for a nonzero eigenvalue."""
    return vals > REL_TOL * vals[..., :1]


def pinv_psd(m) -> np.ndarray:
    """Dense pseudoinverse of a symmetric PSD matrix (same cutoff as
    pinv_apply), or of each matrix of a stack (..., n, n)."""
    vecs, inv = pinv_factors(m)
    if not inv.any():
        return np.zeros(vecs.shape)
    return (vecs * inv[..., None, :]) @ vecs.swapaxes(-1, -2)


def project_onto_solutions(x0, a, b) -> tuple[np.ndarray, int]:
    """Closest point to x0 on the solution set of a consistent system Ax = b,
    and rank(A).

    Both come from one least-squares SVD of A: x* = x0 - A^+ (A x0 - b),
    with singular values <= REL_TOL * sigma_max counted as zero, and
    rank(A) counts the others.  The displacement x0 - x* lies in the row
    space of A.  When the post-hoc residual check fails, raises OutOfRange
    if keeping the cut singular values would solve the system, and
    Inconsistent, for a system with no solution, otherwise.
    """
    a = as_matrix(a, "a")
    rows, cols = a.shape
    x0 = as_vector(x0, length=cols, name="x0")
    b = as_vector(b, length=rows, name="b")
    r0 = a @ x0 - b
    step, _, rank, sv = lapack(np.linalg.lstsq, a, r0, rcond=REL_TOL)
    xs = x0 - step
    resid = float(np.linalg.norm(a @ xs - b))
    limit = RESIDUAL_RTOL * (1.0 + float(np.linalg.norm(b)))
    if resid > limit and sv[rank:].any():  # nonzero singular values were cut: would they solve it?
        full, _, full_rank, _ = lapack(np.linalg.lstsq, a, r0, rcond=None)
        if np.linalg.norm(a @ (x0 - full) - b) <= limit:
            raise OutOfRange(
                f"the system is solvable only with singular values at or below the rank cutoff "
                f"{REL_TOL:.0e} * sigma_max: sigma_min / sigma_max = {sv[full_rank - 1] / sv[0]:.3e}"
            )
    if resid > limit:
        raise Inconsistent(f"projection residual {resid:.3e} too large: system has no solution")
    return xs, int(rank)


def nonzero_min(eigenvalues) -> float:
    """Smallest eigenvalue strictly above REL_TOL * lambda_max.

    Expects a descending spectrum.  Raises AllZero when the matrix is
    zero and no such eigenvalue exists.
    """
    vals = np.asarray(eigenvalues, dtype=np.float64)
    if vals.size == 0 or float(vals[0]) <= 0.0:
        raise AllZero("spectrum has no nonzero eigenvalue")
    return float(vals[above_cutoff(vals)][-1])  # vals[0] itself is above the cutoff
