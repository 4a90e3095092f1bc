"""E[H] by its structure, and the batched estimates of it.

Row sampling keeps E[H] as the weight vector h of diag(h); everything
derived from it must equal the dense diag(h) computation bit for bit.
Block and Gaussian E[H] stack their pseudoinverses in chunks; they must
agree with a per-draw loop over pinv_psd up to rounding.
"""

import tracemalloc
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import shb.sketch as sketch
from shb.errors import OutOfRange
from shb.linalg import REL_TOL, pinv_psd, sym_eig
from shb.sketch import (
    BlockRow,
    GaussianSketch,
    UnitCoordinate,
    expected_h,
    f_value,
    hessian_spectrum,
    row_sampling,
)

# Batched and per-draw sums add the same terms in different groupings;
# each term is O(||E[H]||_F) and the sums are O(1) terms deep in double
# precision, so their difference stays far below 1e-13 ||E[H]||_F.
BATCH_RTOL = 1e-13


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
    b = rng.standard_normal(m)
    x = rng.standard_normal(d)
    return a, dist, b, x


@given(row_problems())
def test_row_sampling_structure_equals_dense(instance):
    """f_value, the spectrum and the exact flag from the weights h equal
    those from the dense diag(h), bit for bit."""
    a, dist, b, x = instance
    eh = expected_h(dist, a)
    assert eh.value.shape == (a.shape[0],)
    dense = np.diag(eh.value)
    np.testing.assert_array_equal(eh.matrix, dense)
    assert f_value(a, b, x, eh.value) == f_value(a, b, x, dense)

    w = a.T @ dense @ a
    vals = sym_eig((w + w.T) / 2.0).eigenvalues
    if vals[0] <= 0.0:
        return
    spec = hessian_spectrum(a, dist)
    np.testing.assert_array_equal(spec.eigenvalues, vals)
    assert spec.exact == bool(np.linalg.eigvalsh(dense)[0] > REL_TOL)
    assert spec.exact == bool(np.all(eh.value > REL_TOL))


def test_mushrooms_shape_row_sampling_memory():
    """Spectrum and objective of an 8124 x 112 one-hot system stay well
    below the 528 MB of a dense 8124 x 8124 E[H]."""
    rng = np.random.default_rng(0)
    cardinalities = (6, 4, 10, 2, 9, 2, 2, 2, 12, 2, 4, 4, 4, 9, 9, 1, 4, 3, 5, 6, 5, 7)
    offsets = np.cumsum((0,) + cardinalities[:-1])
    cols = np.stack([rng.integers(0, c, size=8124) for c in cardinalities], axis=1) + offsets
    a = np.zeros((8124, sum(cardinalities)))
    np.put_along_axis(a, cols, 1.0, axis=1)
    b = a @ rng.standard_normal(a.shape[1])
    x = np.zeros(a.shape[1])
    tracemalloc.start()
    try:
        spec = hessian_spectrum(a, row_sampling(a))
        f0 = f_value(a, b, x, spec.expected_h)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert spec.exact
    assert f0 == pytest.approx(float(b @ b) / (2.0 * float(np.sum(a * a))), rel=1e-12)
    assert peak < 50 * 2**20


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
    ref = per_draw_block(a, [list(c) for c in combinations(range(m), tau)])
    assert np.linalg.norm(eh.matrix - ref) <= BATCH_RTOL * np.linalg.norm(ref)


@pytest.mark.parametrize("batch", [1, 7, 64, sketch.BATCH_ELEMENTS])
def test_monte_carlo_block_matches_per_draw_loop(batch):
    a = rank_deficient(60, 4, seed=1)  # C(60, 3) > 10000: estimated
    with mock.patch.object(sketch, "BATCH_ELEMENTS", batch):
        eh = expected_h(BlockRow(3), a, mc_samples=300, rng=np.random.default_rng(5))
    assert eh.mc_samples == 300
    rng = np.random.default_rng(5)
    subsets = [np.sort(rng.choice(60, size=3, replace=False)) for _ in range(300)]
    ref = per_draw_block(a, subsets)
    assert np.linalg.norm(eh.matrix - ref) <= BATCH_RTOL * np.linalg.norm(ref)


@pytest.mark.parametrize("batch", [1, 7, 64, sketch.BATCH_ELEMENTS])
@pytest.mark.parametrize("m,d,width", [(9, 4, 2), (6, 8, 3), (5, 2, 5)])
def test_monte_carlo_gaussian_matches_per_draw_loop(batch, m, d, width):
    a = rank_deficient(m, d, seed=d)
    with mock.patch.object(sketch, "BATCH_ELEMENTS", batch):
        eh = expected_h(GaussianSketch(width), a, mc_samples=200, rng=np.random.default_rng(9))
    assert eh.mc_samples == 200
    ref = per_draw_gaussian(a, width, 200, np.random.default_rng(9))
    assert np.linalg.norm(eh.matrix - ref) <= BATCH_RTOL * np.linalg.norm(ref)


def test_default_estimator_is_repeatable():
    a = rank_deficient(30, 4, seed=2)
    for dist in (BlockRow(4), GaussianSketch(2)):
        first = expected_h(dist, a, mc_samples=50)
        np.testing.assert_array_equal(first.matrix, expected_h(dist, a, mc_samples=50).matrix)


@pytest.mark.parametrize("dist", [BlockRow(4), GaussianSketch(2)])
def test_monte_carlo_needs_a_sample(dist):
    with pytest.raises(OutOfRange):
        expected_h(dist, rank_deficient(30, 4, seed=3), mc_samples=0)
