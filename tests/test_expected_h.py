"""The Hessian W = A^T E[H] A of every sketch, and its batched estimates.

Row sampling's W must equal A^T diag(h) A bit for bit, with h rounded as
the kernel rounds the row norms.  Block and Gaussian sketches sum W in
stacked chunks, certified draws through a Cholesky factor and the others
through an eigendecomposition; W must agree with A^T E[H] A from a
per-draw loop over pinv_psd up to BATCH_RTOL, and the package must never
allocate anything m x m.
"""

import tracemalloc
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from dense_eh import BATCH_RTOL, dense_f, f_close, per_draw_block, per_draw_gaussian, row_weights
from hypothesis import given
from hypothesis import strategies as st

import shb.sketch as sketch
from shb.errors import OutOfRange
from shb.linalg import REL_TOL, project_onto_solutions, sym_eig
from shb.sketch import (
    BlockRow,
    GaussianSketch,
    UnitCoordinate,
    expected_h,
    f_value,
    hessian_spectrum,
    row_sampling,
)


@st.composite
def row_problems(draw_from):
    """(a, distribution, b, x) with zero rows, sampled with default or
    hand-picked probabilities (zero on some nonzero rows)."""
    m = draw_from(st.integers(1, 8))
    d = draw_from(st.integers(1, 6))
    rng = np.random.default_rng(draw_from(st.integers(0, 2**16)))
    a = rng.standard_normal((m, d))
    zero = np.asarray(draw_from(st.lists(st.booleans(), min_size=m, max_size=m)))
    zero[draw_from(st.integers(0, m - 1))] = False
    a[zero] = 0.0
    if draw_from(st.booleans()):
        dist = row_sampling(a)
    else:
        weights = rng.random(m) * (rng.random(m) < 0.7) * ~zero
        weights[np.flatnonzero(~zero)[0]] += 1.0
        dist = UnitCoordinate(weights / weights.sum())
    b = a @ rng.standard_normal(d)
    x = rng.standard_normal(d)
    return a, dist, b, x


@given(row_problems())
def test_row_sampling_w_equals_dense(instance):
    """W and the spectrum equal those of the dense A^T diag(h) A bit for
    bit, with h_i = p_i / (A_i @ A_i), the kernel's rounding of the row
    norms; f from W and x* is the residual form on diag(h) within its
    tolerance; the exact flag is rank(W) = rank(A)."""
    a, dist, b, x = instance
    p = dist.probabilities
    h = np.array([p[i] / float(a[i] @ a[i]) if p[i] > 0.0 else 0.0 for i in range(p.size)])
    w = a.T @ np.diag(h) @ a
    w = (w + w.T) / 2.0
    eh = expected_h(dist, a)
    assert eh.mc_samples is None
    np.testing.assert_array_equal(eh.value, w)

    dense = np.diag(row_weights(dist, a))
    x0 = np.zeros(a.shape[1])
    xstar = project_onto_solutions(x0, a, b)
    f0 = dense_f(a, b, x0, dense)
    for point in (x0, xstar + 1e-3 * x):
        assert f_close(f_value(a, b, point, eh.value, xstar), dense_f(a, b, point, dense), f0)

    vals = sym_eig(w).eigenvalues
    if vals[0] <= 0.0:
        return
    spec = hessian_spectrum(a, dist)
    np.testing.assert_array_equal(spec.eigenvalues, vals)
    sv = np.linalg.svd(a, compute_uv=False)
    rank_a = int(np.count_nonzero(sv > np.sqrt(REL_TOL) * sv[0]))
    assert spec.exact == (int(np.count_nonzero(vals > REL_TOL * vals[0])) == rank_a)


@pytest.mark.parametrize("kind", ["row", "block:5"])
def test_mushrooms_shape_row_sampling_memory(kind):
    """Spectrum and objective of an 8124 x 112 one-hot system stay well
    below the 528 MB of a dense 8124 x 8124 E[H], for row and block
    sketches alike."""
    rng = np.random.default_rng(0)
    cardinalities = (6, 4, 10, 2, 9, 2, 2, 2, 12, 2, 4, 4, 4, 9, 9, 1, 4, 3, 5, 6, 5, 7)
    offsets = np.cumsum((0,) + cardinalities[:-1])
    cols = np.stack([rng.integers(0, c, size=8124) for c in cardinalities], axis=1) + offsets
    a = np.zeros((8124, sum(cardinalities)))
    np.put_along_axis(a, cols, 1.0, axis=1)
    b = a @ rng.standard_normal(a.shape[1])
    dist = row_sampling(a) if kind == "row" else BlockRow(5)
    x = np.zeros(a.shape[1])
    tracemalloc.start()
    try:
        spec = hessian_spectrum(a, dist)
        xstar = project_onto_solutions(x, a, b)
        f0 = f_value(a, b, x, spec.expected_h, xstar)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert spec.exact
    if kind == "row":
        assert f0 == pytest.approx(float(b @ b) / (2.0 * float(np.sum(a * a))), rel=1e-12)
    else:
        assert spec.expected_h.shape == (a.shape[1], a.shape[1])
        assert f0 == pytest.approx(0.5 * float(xstar @ spec.expected_h @ xstar), rel=1e-12)
    assert peak < 50 * 2**20


@pytest.mark.parametrize("dist", [BlockRow(3), GaussianSketch(2)], ids=["block:3", "gaussian:2"])
def test_no_m_by_m_array(dist):
    """On 3000 x 10, the spectrum's traced peak stays below an eighth of
    one 3000 x 3000 array (72 MB): nothing grows as m^2."""
    a = np.random.default_rng(0).standard_normal((3000, 10))
    tracemalloc.start()
    try:
        hessian_spectrum(a, dist, mc_samples=50)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3000 * 3000 * 8 / 8


def rank_deficient(m, d, seed):
    """Gaussian rows plus a zero row and a repeated row, so some blocks
    have singular Gram matrices and one is all zero."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, d))
    a[1] = 0.0
    a[2] = a[3]
    return a


@pytest.mark.parametrize("batch", [1, 7, 64, sketch.BATCH_ELEMENTS])
@pytest.mark.parametrize("m,tau", [(6, 2), (7, 3), (5, 5)])
def test_enumerated_block_matches_per_draw_loop(batch, m, tau):
    a = rank_deficient(m, 3, seed=m)
    with mock.patch.object(sketch, "BATCH_ELEMENTS", batch):
        eh = expected_h(BlockRow(tau), a)
    assert eh.mc_samples is None
    ref = a.T @ per_draw_block(a, [list(c) for c in combinations(range(m), tau)]) @ a
    assert np.linalg.norm(eh.value - ref) <= BATCH_RTOL * np.linalg.norm(ref)


@pytest.mark.parametrize("batch", [1, 7, 64, sketch.BATCH_ELEMENTS])
def test_monte_carlo_block_matches_per_draw_loop(batch):
    a = rank_deficient(60, 4, seed=1)  # C(60, 3) > 10000: estimated
    with mock.patch.object(sketch, "BATCH_ELEMENTS", batch):
        eh = expected_h(BlockRow(3), a, mc_samples=300, rng=np.random.default_rng(5))
    assert eh.mc_samples == 300
    rng = np.random.default_rng(5)
    subsets = [sketch.draw(BlockRow(3), rng, 60).indices for _ in range(300)]
    ref = a.T @ per_draw_block(a, subsets) @ a
    assert np.linalg.norm(eh.value - ref) <= BATCH_RTOL * np.linalg.norm(ref)


@pytest.mark.parametrize("batch", [1, 7, 64, sketch.BATCH_ELEMENTS])
@pytest.mark.parametrize("m,d,width", [(9, 4, 2), (6, 8, 3), (5, 2, 5)])
def test_monte_carlo_gaussian_matches_per_draw_loop(batch, m, d, width):
    a = rank_deficient(m, d, seed=d)
    with mock.patch.object(sketch, "BATCH_ELEMENTS", batch):
        eh = expected_h(GaussianSketch(width), a, mc_samples=200, rng=np.random.default_rng(9))
    assert eh.mc_samples == 200
    ref = a.T @ per_draw_gaussian(a, width, 200, np.random.default_rng(9)) @ a
    assert np.linalg.norm(eh.value - ref) <= BATCH_RTOL * np.linalg.norm(ref)


def test_default_estimator_is_repeatable():
    a = rank_deficient(30, 4, seed=2)
    for dist in (BlockRow(4), GaussianSketch(2)):
        first = expected_h(dist, a, mc_samples=50)
        np.testing.assert_array_equal(first.value, expected_h(dist, a, mc_samples=50).value)


@pytest.mark.parametrize("dist", [BlockRow(4), GaussianSketch(2)])
def test_monte_carlo_needs_a_sample(dist):
    with pytest.raises(OutOfRange):
        expected_h(dist, rank_deficient(30, 4, seed=3), mc_samples=0)


def eig_stacks(run):
    """Run run() counting the sketch module's sym_eig calls; the stack
    sizes of those calls, and run()'s result."""
    counter = mock.Mock(wraps=sketch.sym_eig)
    with mock.patch.object(sketch, "sym_eig", counter):
        result = run()
    return [len(call.args[0]) for call in counter.call_args_list], result


def test_well_conditioned_block_draws_need_no_eigendecomposition():
    """Every block:5 Gram of a 100 x 40 Gaussian matrix is certified: the
    default estimate makes no sym_eig call, and a shorter one matches the
    per-draw loop."""
    a = np.random.default_rng(0).standard_normal((100, 40))
    stacks, eh = eig_stacks(lambda: expected_h(BlockRow(5), a))
    assert stacks == [] and eh.mc_samples == sketch.DEFAULT_MC_SAMPLES
    stacks, eh = eig_stacks(lambda: expected_h(BlockRow(5), a, mc_samples=500, rng=np.random.default_rng(2)))
    assert stacks == []
    rng = np.random.default_rng(2)
    ref = a.T @ per_draw_block(a, [sketch.draw(BlockRow(5), rng, 100).indices for _ in range(500)]) @ a
    assert np.linalg.norm(eh.value - ref) <= BATCH_RTOL * np.linalg.norm(ref)


@pytest.mark.parametrize("batch", [1, 7, 64, sketch.BATCH_ELEMENTS])
def test_chunk_mixing_certified_and_uncertified_draws(batch):
    """Rows 2 and 3 differ by 1e-6 of their norm, so the Grams of the
    subsets holding both are positive definite but lose an eigenvalue to
    the pseudoinverse cutoff: those draws, and only those, go through the
    eigendecomposition, and W matches the per-draw loop."""
    rng = np.random.default_rng(4)
    a = rng.standard_normal((7, 3))
    a[3] = a[2] + 1e-6 * rng.standard_normal(3)
    subsets = [list(c) for c in combinations(range(7), 2)]
    with mock.patch.object(sketch, "BATCH_ELEMENTS", batch):
        stacks, eh = eig_stacks(lambda: expected_h(BlockRow(2), a))
    assert sum(stacks) == sum(2 in s and 3 in s for s in subsets) == 1
    ref = a.T @ per_draw_block(a, subsets) @ a
    assert np.linalg.norm(eh.value - ref) <= BATCH_RTOL * np.linalg.norm(ref)


@pytest.mark.parametrize("cond,certified", [(2e7, False), (1e5, True)])
def test_certificate_threshold(cond, certified):
    """One draw of two rows u and u + delta v (u, v orthonormal) has a
    positive definite Gram of condition number about 4 / delta^2.  At 2e7
    it is above the 1e7 the certificate admits and takes the
    eigendecomposition path, giving W bit for bit as that path does; at
    1e5 it is certified."""
    q = np.linalg.qr(np.random.default_rng(5).standard_normal((4, 2)))[0]
    u, v = q[:, 0], q[:, 1]
    a = np.stack([u, u + 2.0 / np.sqrt(cond) * v])
    gram = a @ a.T
    vals = np.linalg.eigvalsh(gram)
    assert vals[0] > 0.0 and vals[1] / vals[0] == pytest.approx(cond, rel=1e-3)
    stacks, eh = eig_stacks(lambda: expected_h(BlockRow(2), a))
    assert stacks == ([] if certified else [1])
    if not certified:
        vecs, inv = sketch.gram_factors(gram[None])
        f = (np.sqrt(inv)[:, :, None] * (vecs.swapaxes(1, 2) @ a[None]))[0]
        w = f.T @ f
        np.testing.assert_array_equal(eh.value, (w + w.T) / 2.0)


@pytest.mark.parametrize("batch", [1, 64, sketch.BATCH_ELEMENTS])
def test_gaussian_wider_than_the_rank_falls_back(batch):
    """S^T A of a rank-3 matrix under a width-4 Gaussian sketch has a
    singular Gram: no draw is certified, and W matches the per-draw loop."""
    rng = np.random.default_rng(6)
    a = rng.standard_normal((12, 3)) @ rng.standard_normal((3, 5))
    with mock.patch.object(sketch, "BATCH_ELEMENTS", batch):
        stacks, eh = eig_stacks(
            lambda: expected_h(GaussianSketch(4), a, mc_samples=200, rng=np.random.default_rng(8))
        )
    assert sum(stacks) == 200
    ref = a.T @ per_draw_gaussian(a, 4, 200, np.random.default_rng(8)) @ a
    assert np.linalg.norm(eh.value - ref) <= BATCH_RTOL * np.linalg.norm(ref)
