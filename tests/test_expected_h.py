"""The Hessian W = A^T E[H] A of every sketch, and its batched estimates.

Row sampling's W must equal A^T diag(h) A bit for bit, with h rounded as
the kernel rounds the row norms.  Block and Gaussian sketches sum W in
stacked chunks, certified draws through the inverse Cholesky factors of
cholesky_inverses and each other draw, alone, through an
eigendecomposition; W must agree with A^T E[H] A from a per-draw loop
over pinv_psd up to BATCH_RTOL.  cholesky_inverses must agree with
numpy's inv(cholesky(G)) up to 1e-14 and mark a G with no factor as
non-finite without a warning.  The package must never allocate anything
m x m, and an estimate's memory must not grow with its sample count.
"""

import tracemalloc
import warnings
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from dense_eh import BATCH_RTOL, dense_f, f_close, per_draw_block, per_draw_gaussian, row_weights
from hypothesis import given
from hypothesis import strategies as st

import shb.linalg as linalg
import shb.sketch as sketch
from shb.errors import OutOfRange
from shb.linalg import REL_TOL, project_onto_solutions
from shb.sketch import (
    BlockRow,
    GaussianSketch,
    UnitCoordinate,
    cholesky_inverses,
    expected_h,
    f_value,
    row_sampling,
    spectrum,
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
    """W equals the dense A^T diag(h) A bit for bit, with h_i = p_i /
    (A_i @ A_i), the kernel's rounding of the row norms, and the spectrum
    is W's eigvalsh eigenvalues under the dust rule; f from W and x* is
    the residual form on diag(h) within its tolerance; rank(W) counts W's
    eigenvalues above REL_TOL * lambda_max and the projection's rank(A)
    A's singular values above REL_TOL * sigma_max, the two sides of the
    exact flag."""
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
    xstar, rank_a = project_onto_solutions(x0, a, b)
    f0 = dense_f(a, b, x0, dense)
    sv = np.linalg.svd(a, compute_uv=False)
    assert rank_a == int(np.count_nonzero(sv > REL_TOL * sv[0]))
    for point in (x0, xstar + 1e-3 * x):
        assert f_close(f_value(point, eh.value, xstar), dense_f(a, b, point, dense), f0)

    vals = np.linalg.eigvalsh(w)[::-1]
    if vals[0] <= 0.0:
        return
    spec = spectrum(eh.value)
    dust = (vals < 0.0) & (vals >= -REL_TOL * max(1.0, vals[0]))
    np.testing.assert_array_equal(spec.eigenvalues, np.where(dust, 0.0, vals))
    assert spec.rank == int(np.count_nonzero(vals > REL_TOL * vals[0]))


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
        eh = expected_h(dist, a)
        spec = spectrum(eh.value)
        xstar, rank_a = project_onto_solutions(x, a, b)
        f0 = f_value(x, eh.value, xstar)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert spec.rank == rank_a
    if kind == "row":
        assert f0 == pytest.approx(float(b @ b) / (2.0 * float(np.sum(a * a))), rel=1e-12)
    else:
        assert eh.value.shape == (a.shape[1], a.shape[1])
        assert f0 == pytest.approx(0.5 * float(xstar @ eh.value @ xstar), rel=1e-12)
    assert peak < 50 * 2**20


@pytest.mark.parametrize("dist", [BlockRow(3), GaussianSketch(2)], ids=["block:3", "gaussian:2"])
def test_no_m_by_m_array(dist):
    """On 3000 x 10, the spectrum's traced peak stays below an eighth of
    one 3000 x 3000 array (72 MB): nothing grows as m^2."""
    a = np.random.default_rng(0).standard_normal((3000, 10))
    tracemalloc.start()
    try:
        spectrum(expected_h(dist, a, mc_samples=50).value)
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
    subsets = [sketch.draw(BlockRow(3), rng, 60) for _ in range(300)]
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
    """Run run() counting the package's sym_eig calls; the stack sizes of
    those calls, and run()'s result."""
    counter = mock.Mock(wraps=linalg.sym_eig)
    with mock.patch.object(linalg, "sym_eig", counter):
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
    ref = a.T @ per_draw_block(a, [sketch.draw(BlockRow(5), rng, 100) for _ in range(500)]) @ a
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
        vecs, inv = linalg.pinv_factors(gram[None])
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


def positive_definite_stack(n, tau, seed):
    """n Grams of tau x 3 tau Gaussian matrices: condition numbers near 14."""
    g = np.random.default_rng(seed).standard_normal((n, tau, 3 * tau))
    return g @ g.swapaxes(1, 2)


@pytest.mark.parametrize("n", [3, 70], ids=["3-draws", "70-draws"])
@pytest.mark.parametrize("tau", [1, 2, 5, 20, 60])
def test_cholesky_inverses_match_numpy(tau, n):
    """Every member equals inv(cholesky(G_n)) within 1e-14 of its norm,
    in stacks of fewer draws than tau (3, from tau = 5 on) and of more
    (70, more than every tau here)."""
    gram = positive_definite_stack(n, tau, seed=tau)
    got = cholesky_inverses(gram)
    ref = np.linalg.inv(np.linalg.cholesky(gram))
    assert got.shape == ref.shape
    err = np.linalg.norm(got - ref, axis=(1, 2)) / np.linalg.norm(ref, axis=(1, 2))
    assert err.max() <= 1e-14


@pytest.mark.parametrize("n", [4, 9], ids=["fewer-draws-than-tau", "more-draws-than-tau"])
def test_cholesky_inverses_mark_draws_with_no_factor(n):
    """A singular member (an exact zero pivot) and an indefinite one
    (a negative pivot) come back non-finite, with no RuntimeWarning; the
    other members equal inv(cholesky(G_n)) within 1e-14."""
    gram = positive_definite_stack(n, 5, seed=n)
    gram[1] = np.eye(5)
    gram[1, :2, :2] = [[4.0, 2.0], [2.0, 1.0]]
    gram[2] = np.eye(5)
    gram[2, :2, :2] = [[1.0, 2.0], [2.0, 1.0]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = cholesky_inverses(gram)
    finite = np.isfinite(got).all(axis=(1, 2))
    assert not finite[1] and not finite[2]
    good = np.delete(np.arange(n), [1, 2])
    ref = np.linalg.inv(np.linalg.cholesky(gram[good]))
    err = np.linalg.norm(got[good] - ref, axis=(1, 2)) / np.linalg.norm(ref, axis=(1, 2))
    assert err.max() <= 1e-14


@pytest.mark.parametrize("batch", [1, 7, 64, sketch.BATCH_ELEMENTS])
def test_draw_with_no_cholesky_factor_falls_back_alone(batch):
    """Row 3 repeats row 2 exactly, so the Gram of subset {2, 3} has no
    Cholesky factor: that draw, and only it, goes through the
    eigendecomposition, the other 20 stay certified in the same chunk,
    and W matches the per-draw loop."""
    rng = np.random.default_rng(4)
    a = rng.standard_normal((7, 3))
    a[3] = a[2]
    subsets = [list(c) for c in combinations(range(7), 2)]
    with mock.patch.object(sketch, "BATCH_ELEMENTS", batch):
        stacks, eh = eig_stacks(lambda: expected_h(BlockRow(2), a))
    assert sum(stacks) == 1
    ref = a.T @ per_draw_block(a, subsets) @ a
    assert np.linalg.norm(eh.value - ref) <= BATCH_RTOL * np.linalg.norm(ref)


def test_block_estimate_makes_no_lapack_factorization():
    """The 655-draw chunks of block:5 on 100 x 40 factor their Grams in
    cholesky_inverses' steps: no np.linalg.cholesky and no np.linalg.inv
    call, and no sym_eig call either."""
    a = np.random.default_rng(0).standard_normal((100, 40))
    inv_calls = mock.Mock(wraps=np.linalg.inv)
    cholesky_calls = mock.Mock(wraps=np.linalg.cholesky)
    with mock.patch.object(np.linalg, "inv", inv_calls), mock.patch.object(np.linalg, "cholesky", cholesky_calls):
        stacks, _ = eig_stacks(lambda: expected_h(BlockRow(5), a))
    assert (inv_calls.call_count, cholesky_calls.call_count, stacks) == (0, 0, [])


@pytest.mark.parametrize("dist", [BlockRow(5), GaussianSketch(5)], ids=["block:5", "gaussian:5"])
def test_chunks_work_in_arrays_made_once_per_call(dist):
    """On 100 x 40 (16 and 39 chunks) every chunk's sketched rows are a view
    of one array that each call makes anew, and a chunk's projections
    allocate less than half its rows' bytes: F (as large as the rows), the
    Gram stack and L^-1 are views of arrays made once per call too."""
    a = np.random.default_rng(0).standard_normal((100, 40))
    add = sketch._add_projections
    rows, grown = [], []

    def spy(acc, g, *work):
        rows.append(g)
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        add(acc, g, *work)
        grown.append(tracemalloc.get_traced_memory()[1] - held < g.nbytes / 2)

    tracemalloc.start()
    try:
        with mock.patch.object(sketch, "_add_projections", spy):
            expected_h(dist, a)
            first = rows[:]
            expected_h(dist, a)
    finally:
        tracemalloc.stop()
    calls = (first, rows[len(first) :])
    assert len(first) >= 3 and all(g.base is not None for g in rows)
    assert [len({id(g.base) for g in call}) for call in calls] == [1, 1]
    assert first[0].base is not calls[1][0].base
    assert all(grown)


# the estimate holds at most this many chunks of BATCH_ELEMENTS float64
# numbers at once (the drawn S or rows, the sketched rows, their factors
# and F), besides W and its accumulator
PEAK_CHUNKS = 3


@pytest.mark.parametrize("dist", [BlockRow(5), GaussianSketch(5)], ids=["block:5", "gaussian:5"])
def test_estimate_memory_does_not_grow_with_the_sample_count(dist):
    """On 100 x 40 the traced peak of expected_h is the same within 10% at
    1000 and at 20000 draws, and below PEAK_CHUNKS chunks plus two W."""
    a = np.random.default_rng(0).standard_normal((100, 40))
    peaks = []
    for samples in (1000, 20_000):
        tracemalloc.start()
        try:
            expected_h(dist, a, mc_samples=samples)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) <= 0.1 * peaks[0]
    assert max(peaks) < PEAK_CHUNKS * sketch.BATCH_ELEMENTS * 8 + 2 * a.shape[1] ** 2 * 8
