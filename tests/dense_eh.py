"""The dense m x m E[H] as a per-draw loop: the test oracle for W.

The package never forms E[H]; it builds W = A^T E[H] A in d x d.  These
loops replay expected_h's draws one by one, add each draw's
S pinv(S^T A A^T S) S^T into an m x m matrix, and give the objective in
its residual form (1/2) r^T E[H] r.  Row sampling's E[H] is diag(h) with
the weights h_i = p_i / ||A_i||^2 of row_weights.

Tolerances, fixed from float64 rounding:

* BATCH_RTOL bounds ||W - A^T E[H] A||_F / ||A^T E[H] A||_F.  Both sums
  add the same O(||W||) terms in different groupings and orders, a few
  dozen roundings deep, so they differ by far less than 1e-13 of ||W||.
* F_RTOL and F_ATOL bound the objective from W and x* against the
  residual form: |f_W - f_dense| <= F_RTOL |f| + F_ATOL f(x0).  The
  relative part is W's own error (BATCH_RTOL) with headroom for
  cancellation in the quadratic form; the absolute part covers the
  rounding of Ax - b and of x - x*, which is about eps ||A|| ||x*|| per
  entry and so scales with f(x0) = (1/2) (x0-x*)^T W (x0-x*), not with
  f(x) as x approaches x*.
* GAUSSIAN_X_RTOL bounds the kernel's Gaussian-sketch iterates against
  the stoch_grad oracle: ||x_kernel - x_oracle|| <= GAUSSIAN_X_RTOL * s,
  with s = max_k ||x_k|| + ||x*|| over the oracle's iterates.  The
  kernel takes the residual as g x - c with g = S^T A and c = S^T b, the
  oracle as S^T (A x - b): the same m d products summed in another
  order, so each entry differs by at most about (m + d) u |S|^T (|A||x|
  + |b|), u = 2^-53, which is <= 1.4e-15 ||S|| ||A|| s for the tests'
  m <= 7, d <= 5.  The step applies g^T pinv(g g^T), of norm
  1/sigma_min(g), so it moves by at most 1.4e-15 kappa s, with kappa =
  ||S|| ||A|| / sigma_min(g) below 1e4 for all but rare draws.  Heavy
  ball carries a perturbation on with gain at most 1/(1 - beta) = 2.5
  (beta <= 0.6) and at most 40 steps add up, so the iterates differ by
  at most 40 * 2.5 * 1.4e-15 * 1e4 s = 1.4e-9 s; 1e-8 leaves headroom.
  l2, f and Cesaro f are quadratic in x - x*, with ||W|| <= 1, so they
  differ by at most (2 + GAUSSIAN_X_RTOL) GAUSSIAN_X_RTOL s^2 <=
  3 GAUSSIAN_X_RTOL s^2.
"""

import math
from itertools import combinations

import numpy as np

from shb.linalg import pinv_psd
from shb.sketch import DEFAULT_MC_SAMPLES, BlockRow, GaussianSketch, UnitCoordinate, draw

BATCH_RTOL = 1e-13
F_RTOL = 1e-12
F_ATOL = 1e-13
GAUSSIAN_X_RTOL = 1e-8


def row_weights(dist, a):
    """h with E[H] = diag(h) for row sampling: h_i = p_i / ||A_i||^2, and 0
    on rows of probability zero."""
    p = dist.probabilities
    h = np.zeros(a.shape[0])
    pos = p > 0.0
    h[pos] = p[pos] / np.sum(a[pos] * a[pos], axis=1)
    return h


def per_draw_block(a, subsets):
    acc = np.zeros((a.shape[0], a.shape[0]))
    for idx in subsets:
        sub = a[idx]
        acc[np.ix_(idx, idx)] += pinv_psd(sub @ sub.T)
    h = acc / len(subsets)
    return (h + h.T) / 2.0


def per_draw_gaussian(a, width, mc_samples, rng):
    m = a.shape[0]
    acc = np.zeros((m, m))
    for _ in range(mc_samples):
        s = rng.standard_normal((m, width))
        g = s.T @ a
        acc += s @ pinv_psd(g @ g.T) @ s.T
    h = acc / mc_samples
    return (h + h.T) / 2.0


def dense_eh(dist, a, mc_samples=DEFAULT_MC_SAMPLES, rng=None):
    """The m x m E[H] from the draws expected_h(dist, a, ...) makes."""
    m = a.shape[0]
    rng = rng if rng is not None else np.random.default_rng(0)
    if isinstance(dist, UnitCoordinate):
        return np.diag(row_weights(dist, a))
    if isinstance(dist, BlockRow):
        tau = dist.block_size
        if math.comb(m, tau) <= DEFAULT_MC_SAMPLES:
            return per_draw_block(a, [list(c) for c in combinations(range(m), tau)])
        return per_draw_block(a, [draw(dist, rng, m).indices for _ in range(mc_samples)])
    if isinstance(dist, GaussianSketch):
        return per_draw_gaussian(a, dist.width, mc_samples, rng)
    raise TypeError(type(dist).__name__)


def dense_f(a, b, x, eh):
    """(1/2) (Ax-b)^T E[H] (Ax-b) from the dense E[H], clamped at zero."""
    r = a @ x - b
    return max(0.5 * float(r @ (eh @ r)), 0.0)


def f_close(got, want, f0):
    """got is within the declared tolerance of the residual-form want."""
    return abs(got - want) <= F_RTOL * abs(want) + F_ATOL * f0


def iterate_scale(iterates, xstar):
    """s = max_k ||x_k|| + ||x*||, the scale of GAUSSIAN_X_RTOL."""
    return max(float(np.linalg.norm(x)) for x in iterates) + float(np.linalg.norm(xstar))


def gaussian_iterate_close(got, want, scale):
    return float(np.linalg.norm(np.asarray(got) - want)) <= GAUSSIAN_X_RTOL * scale


def gaussian_quadratic_close(got, want, scale):
    """l2, f or Cesaro f of a Gaussian kernel iterate against the oracle's."""
    return abs(got - want) <= 3.0 * GAUSSIAN_X_RTOL * scale**2
