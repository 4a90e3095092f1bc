"""Dense symmetric linear algebra: eigendecomposition, pseudoinverse
application, and least-norm projection onto a solution set.

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
)

# Eigenvalues below REL_TOL * lambda_max are treated as zero everywhere
# (pseudoinverse cutoff, rank counting, smallest-nonzero detection), by
# the one comparison in above_cutoff.
REL_TOL = 1e-10
# largest relative asymmetry ||W - W^T||_F / max(1, ||W||_F) sym_eig accepts
ASYM_TOL = 1e-12
# largest residual of a projection, relative to 1 + ||b||, before the
# system counts as inconsistent
RESIDUAL_RTOL = 1e-8
# largest dense array an input may make the package allocate (1 GiB)
MAX_DENSE_ELEMENTS = 1 << 27


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
    """Refuse a matrix, or a stack (..., n, n) of them, whose relative
    asymmetry ||W - W^T||_F / max(1, ||W||_F) is over ASYM_TOL."""
    if w.ndim < 2 or w.shape[-1] != w.shape[-2]:
        raise NonSquare(f"expected a square matrix, got shape {w.shape}")
    fro = np.linalg.norm(w, axis=(-2, -1))
    rel_asym = (np.linalg.norm(w - w.swapaxes(-1, -2), axis=(-2, -1)) / np.maximum(1.0, fro)).max()
    if rel_asym > ASYM_TOL:
        raise AsymmetryExceedsTolerance(f"relative asymmetry {rel_asym:.3e} exceeds {ASYM_TOL:.0e}")


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
    try:
        vals, vecs = np.linalg.eigh(w)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    vals = vals[..., ::-1].copy()
    vecs = vecs[..., ::-1].copy()
    top = np.abs(vals).max(axis=-1, keepdims=True, initial=0.0)
    tol = REL_TOL * np.maximum(1.0, top)
    vals[(vals < 0.0) & (vals >= -tol)] = 0.0
    return SymEig(vals, vecs)


def pinv_apply(m, y) -> np.ndarray:
    """Apply the Moore-Penrose pseudoinverse of a symmetric PSD matrix to y.

    Eigenvalues <= REL_TOL * lambda_max count as zero, so components of y
    in the (numerical) null space of m are annihilated.
    """
    return _pinv_apply_eig(sym_eig(m), y)


def _pinv_apply_eig(eig: SymEig, y) -> np.ndarray:
    y = as_vector(y, length=eig.eigenvalues.size, name="y")
    inv = pinv_eigenvalues(eig.eigenvalues)
    if not inv.any():
        return np.zeros_like(y)
    return eig.eigenvectors @ (inv * (eig.eigenvectors.T @ y))


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
    eig = sym_eig(m)
    inv = pinv_eigenvalues(eig.eigenvalues)
    if not inv.any():
        return np.zeros(eig.eigenvectors.shape)
    return (eig.eigenvectors * inv[..., None, :]) @ eig.eigenvectors.swapaxes(-1, -2)


def gram_eig(a) -> SymEig:
    """sym_eig of the smaller Gram matrix of A (A A^T when A has no more
    rows than columns, else A^T A): it counts rank(A), and
    project_onto_solutions applies its pseudoinverse."""
    a = np.asarray(a, dtype=np.float64)
    return sym_eig(a @ a.T if _row_gram(a) else a.T @ a)


def _row_gram(a: np.ndarray) -> bool:
    return a.shape[0] <= a.shape[1]


def project_onto_solutions(x0, a, b, gram: SymEig | None = None) -> np.ndarray:
    """Closest point to x0 on the solution set of a consistent system Ax = b.

    Returns x0 - A^+ (A x0 - b), routed through the smaller Gram matrix;
    gram, when given, is gram_eig(a) and replaces computing it.  The
    displacement x0 - result lies in the row space of A.  Raises
    Inconsistent when the post-hoc residual check fails, which signals
    that Ax = b has no solution.
    """
    a = as_matrix(a, "a")
    rows, cols = a.shape
    x0 = as_vector(x0, length=cols, name="x0")
    b = as_vector(b, length=rows, name="b")
    gram = gram_eig(a) if gram is None else gram
    r = a @ x0 - b
    if _row_gram(a):
        w = a.T @ _pinv_apply_eig(gram, r)
    else:
        w = _pinv_apply_eig(gram, a.T @ r)
    xs = x0 - w
    resid = float(np.linalg.norm(a @ xs - b))
    if resid > RESIDUAL_RTOL * (1.0 + float(np.linalg.norm(b))):
        raise Inconsistent(
            f"projection residual {resid:.3e} too large: system has no solution"
        )
    return xs


def nonzero_min(eigenvalues) -> float:
    """Smallest eigenvalue strictly above REL_TOL * lambda_max.

    Expects a descending, nonnegative spectrum.  Raises AllZero when the
    matrix is zero and no such eigenvalue exists.
    """
    vals = np.asarray(eigenvalues, dtype=np.float64)
    if vals.size == 0 or float(vals[0]) <= 0.0:
        raise AllZero("spectrum has no nonzero eigenvalue")
    above = vals[above_cutoff(vals)]
    if above.size == 0:
        raise AllZero("spectrum has no eigenvalue above the cutoff")
    return float(above[-1])
