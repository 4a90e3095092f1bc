from unittest import mock

import numpy as np
import pytest
from dense_eh import dense_eh, dense_f, f_close, row_weights
from hypothesis import example, given, settings
from hypothesis import strategies as st

import shb.linalg as linalg
from shb.errors import DimensionMismatch, OutOfRange, ZeroRow
from shb.linalg import project_onto_solutions
from shb.sketch import (
    BlockRow,
    GaussianSketch,
    UnitCoordinate,
    derive_stream,
    draw,
    draw_batch,
    draw_size,
    expected_h,
    f_value,
    row_sampling,
    spectrum_and_gram,
    stoch_grad,
)


@st.composite
def small_problems(draw_, max_dim=8):
    """Integer matrix without zero rows, plus integer b and x."""
    m = draw_(st.integers(1, max_dim))
    d = draw_(st.integers(1, max_dim))
    rows = []
    for _ in range(m):
        row = draw_(
            st.lists(st.integers(-3, 3), min_size=d, max_size=d).filter(
                lambda r: any(v != 0 for v in r)
            )
        )
        rows.append(row)
    a = np.asarray(rows, dtype=float)
    b = np.asarray(draw_(st.lists(st.integers(-3, 3), min_size=m, max_size=m)), dtype=float)
    x = np.asarray(draw_(st.lists(st.integers(-3, 3), min_size=d, max_size=d)), dtype=float)
    return a, b, x


class TestDistributions:
    def test_unit_coordinate_validates_sum(self):
        with pytest.raises(OutOfRange):
            UnitCoordinate(np.array([0.5, 0.4]))

    def test_unit_coordinate_rejects_negative(self):
        with pytest.raises(OutOfRange):
            UnitCoordinate(np.array([1.5, -0.5]))

    def test_block_row_size_positive(self):
        with pytest.raises(OutOfRange):
            BlockRow(0)

    def test_row_sampling_default_weights(self):
        a = np.array([[3.0, 4.0], [1.0, 0.0]])
        dist = row_sampling(a)
        np.testing.assert_allclose(dist.probabilities, [25 / 26, 1 / 26])

    def test_row_sampling_zero_row_gets_zero_probability(self):
        a = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        dist = row_sampling(a)
        assert dist.probabilities[1] == 0.0

    def test_row_sampling_all_zero_rejected(self):
        with pytest.raises(ZeroRow):
            row_sampling(np.zeros((2, 2)))


class TestDraw:
    def test_degenerate_distribution(self):
        dist = UnitCoordinate(np.array([1.0, 0.0]))
        rng = derive_stream(0)
        assert all(draw(dist, rng) == 0 for _ in range(50))

    def test_deterministic_sequence(self):
        dist = UnitCoordinate(np.array([0.5, 0.5]))
        rng = derive_stream(42)
        first = [draw(dist, rng) for _ in range(20)]
        rng = derive_stream(42)
        second = [draw(dist, rng) for _ in range(20)]
        assert first == second

    def test_law_of_large_numbers(self):
        dist = UnitCoordinate(np.array([0.2, 0.8]))
        rng = derive_stream(7)
        n = 100_000
        hits = np.zeros(2)
        for _ in range(n):
            hits[draw(dist, rng)] += 1
        np.testing.assert_allclose(hits / n, [0.2, 0.8], atol=0.01)

    def test_zero_probability_row_never_drawn(self):
        dist = UnitCoordinate(np.array([0.5, 0.0, 0.5]))
        rng = derive_stream(3)
        for _ in range(200):
            assert draw(dist, rng) != 1

    def test_block_subset(self):
        rng = derive_stream(1)
        s = draw(BlockRow(3), rng, m=6)
        assert isinstance(s, np.ndarray)
        assert len(s) == 3
        assert len(set(s.tolist())) == 3
        assert all(0 <= i < 6 for i in s)

    def test_block_too_large(self):
        with pytest.raises(OutOfRange):
            draw(BlockRow(7), derive_stream(1), m=6)

    def test_gaussian_shape(self):
        s = draw(GaussianSketch(2), derive_stream(1), m=5)
        assert isinstance(s, np.ndarray)
        assert s.shape == (5, 2)


def floyd_subset(rng, m, tau):
    """Floyd's algorithm one position at a time: position c takes an
    integer t uniform on [0, m-tau+c], or m-tau+c if t is already taken."""
    taken = []
    for c in range(tau):
        top = m - tau + c
        t = int(rng.integers(0, top + 1))
        taken.append(top if t in taken else t)
    return sorted(taken)


class FixedIntegers:
    """Stands in for a Generator whose integers() hands out given values."""

    def __init__(self, values):
        self.values = list(values)

    def integers(self, low, high, size=None):
        out = np.array(self.values[: int(np.prod(size or ()))]).reshape(size or ())
        del self.values[: out.size]
        assert np.all((low <= out) & (out < high))
        return out if size is not None else int(out)


def sizes(max_m):
    """(m, tau) with 1 <= tau <= m <= max_m."""
    return st.integers(1, max_m).flatmap(lambda m: st.tuples(st.just(m), st.integers(1, m)))


class TestBlockDraw:
    @pytest.mark.parametrize("m,tau", [(40, 5), (12, 12), (300, 1), (50, 31)])
    def test_batch_equals_chunks_and_single_draws(self, m, tau):
        n = 1000
        whole = draw_batch(BlockRow(tau), derive_stream(5), m, n)
        rng = derive_stream(5)
        chunks = np.concatenate([draw_batch(BlockRow(tau), rng, m, size) for size in (1, 7, 300, n - 308)])
        rng = derive_stream(5)
        singles = np.stack([draw(BlockRow(tau), rng, m) for _ in range(n)])
        assert whole.shape == (n, tau)
        np.testing.assert_array_equal(chunks, whole)
        np.testing.assert_array_equal(singles, whole)

    @settings(max_examples=60, deadline=None)
    @given(sizes(60), st.integers(0, 2**32), st.integers(1, 30))
    @example(sizes=(9, 1), seed=3, n=20)
    @example(sizes=(9, 9), seed=3, n=20)
    @example(sizes=(8124, 1000), seed=0, n=3)
    def test_equals_sequential_floyd(self, sizes, seed, n):
        m, tau = sizes
        got = draw_batch(BlockRow(tau), np.random.default_rng(seed), m, n)
        rng = np.random.default_rng(seed)
        np.testing.assert_array_equal(got, [floyd_subset(rng, m, tau) for _ in range(n)])

    @settings(max_examples=60, deadline=None)
    @given(sizes(200), st.integers(0, 2**32))
    def test_rows_sorted_distinct_in_range(self, sizes, seed):
        m, tau = sizes
        got = draw_batch(BlockRow(tau), np.random.default_rng(seed), m, 50)
        assert got.shape == (50, tau)
        assert np.all(np.diff(got, axis=1) > 0)
        assert got.min() >= 0 and got.max() < m

    def test_longest_replacement_chain(self):
        # m = 10, tau = 8: position 1 repeats position 0's 2 and takes 3;
        # each later position c draws c + 1, the value position c - 1 took,
        # so position 7 is replaced through a chain of 6 earlier positions
        ints = [2, 2, 3, 4, 5, 6, 7, 8]
        got = draw_batch(BlockRow(8), FixedIntegers(ints), 10, 1)
        np.testing.assert_array_equal(got, [list(range(2, 10))])
        assert floyd_subset(FixedIntegers(ints), 10, 8) == list(range(2, 10))

    def test_subsets_are_uniform(self):
        n = 100_000
        got = draw_batch(BlockRow(3), derive_stream(11), 6, n)
        codes, counts = np.unique((1 << got).sum(axis=1), return_counts=True)
        assert codes.size == 20  # all C(6, 3) subsets appear
        expected = n / 20
        chi_sq = float(((counts - expected) ** 2 / expected).sum())
        # chi-square with 19 degrees of freedom under the uniform law; the
        # Chernoff bound P(X > x) <= ((x/k) e^(1 - x/k))^(k/2), k = 19,
        # gives P(X > 80) < 5e-8, while a single subset drawn 20% too
        # often or too rarely alone adds 0.2^2 * 5000 = 200
        assert chi_sq < 80.0


class TestStochGrad:
    def test_row_direction_identity_matrix(self):
        a = np.eye(2)
        got = stoch_grad(a, [1.0, 2.0], [0.0, 0.0], row_sampling(a), 0)
        np.testing.assert_allclose(got, [-1.0, 0.0])

    def test_zero_at_solution(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 3))
        x = rng.standard_normal(3)
        b = a @ x
        draws = [(row_sampling(a), 2), (BlockRow(2), np.array([0, 3])), (GaussianSketch(2), rng.standard_normal((4, 2)))]
        for dist, drawn in draws:
            np.testing.assert_allclose(stoch_grad(a, b, x, dist, drawn), np.zeros(3), atol=1e-12)

    def test_single_row_hand_value(self):
        a = np.array([[3.0, 4.0]])
        got = stoch_grad(a, [5.0], [0.0, 0.0], row_sampling(a), 0)
        np.testing.assert_allclose(got, [-0.6, -0.8])

    def test_zero_row_rejected(self):
        a = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ZeroRow):
            stoch_grad(a, [1.0, 1.0], [0.0, 0.0], row_sampling(a), 1)

    @given(prob=small_problems())
    @settings(max_examples=30)
    def test_row_space_membership(self, prob):
        a, b, x = prob
        rng = np.random.default_rng(0)
        u, s, vt = np.linalg.svd(a, full_matrices=False)
        keep = s > 1e-10 * s[0]
        draws = [(row_sampling(a), a.shape[0] - 1)]
        if a.shape[0] >= 2:
            draws.append((BlockRow(2), np.array([0, a.shape[0] - 1])))
        draws.append((GaussianSketch(2), rng.standard_normal((a.shape[0], 2))))
        for dist, drawn in draws:
            g = stoch_grad(a, b, x, dist, drawn)
            ortho = g - vt[keep].T @ (vt[keep] @ g)
            assert np.linalg.norm(ortho) <= 1e-8 * max(1.0, np.linalg.norm(g))

    @given(prob=small_problems())
    @settings(max_examples=30)
    def test_unbiasedness(self, prob):
        """Probability-weighted row gradients equal A^T E[H] (Ax - b)."""
        a, b, x = prob
        dist = row_sampling(a)
        h = row_weights(dist, a)
        total = np.zeros(a.shape[1])
        for i, p in enumerate(dist.probabilities):
            if p > 0:
                total += p * stoch_grad(a, b, x, dist, i)
        expected = a.T @ (h * (a @ x - b))
        np.testing.assert_allclose(total, expected, atol=1e-10)


class TestExpectedH:
    def test_row_sampling_default_is_scaled_identity(self):
        """The default weights make E[H] = I / ||A||_F^2, so W = A^T A / ||A||_F^2."""
        rng = np.random.default_rng(1)
        a = rng.standard_normal((5, 3))
        dist = row_sampling(a)
        eh = expected_h(dist, a)
        assert eh.mc_samples is None
        expected = a.T @ a / float((a * a).sum())
        assert eh.value.shape == (3, 3)
        assert np.max(np.abs(eh.value - expected)) <= 1e-14

    def test_identity_matrix_even_weights(self):
        dist = UnitCoordinate(np.array([0.5, 0.5]))
        eh = expected_h(dist, np.eye(2))
        np.testing.assert_allclose(eh.value, np.diag([0.5, 0.5]))

    def test_gaussian_structural(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((4, 4))
        eh = expected_h(GaussianSketch(4), a, mc_samples=300, rng=np.random.default_rng(0))
        assert eh.mc_samples == 300
        w = eh.value
        np.testing.assert_allclose(w, w.T, atol=1e-12)
        assert np.linalg.eigvalsh(w).min() >= -1e-10

    def test_block_enumeration_matches_monte_carlo(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((5, 3))
        exact = expected_h(BlockRow(2), a)
        assert exact.mc_samples is None  # C(5,2) = 10 subsets, enumerated
        mc = expected_h(BlockRow(2), a, mc_samples=20_000, rng=np.random.default_rng(1))
        assert mc.mc_samples is None or mc.mc_samples == 20_000
        np.testing.assert_allclose(exact.value, mc.value, atol=0.05)

    def test_block_monte_carlo_when_enumeration_infeasible(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((30, 3))
        est = expected_h(BlockRow(10), a, mc_samples=50, rng=np.random.default_rng(0))
        assert est.mc_samples == 50

    def test_positive_probability_zero_row_rejected(self):
        a = np.array([[1.0, 0.0], [0.0, 0.0]])
        with pytest.raises(ZeroRow):
            expected_h(UnitCoordinate(np.array([0.5, 0.5])), a)


class TestDrawSize:
    def test_numbers_per_draw(self):
        """A uniform per row draw; the larger of A_S and its tau x tau
        factors per block draw; the larger of S and S^T A per Gaussian one."""
        assert draw_size(row_sampling(np.eye(3)), 3, 3) == 3 + 2
        assert draw_size(BlockRow(5), 100, 40) == 5 * 40
        assert draw_size(BlockRow(5), 100, 3) == 5 * 5
        assert draw_size(GaussianSketch(3), 100, 40) == 3 * 100
        assert draw_size(GaussianSketch(3), 10, 40) == 3 * 40
        with pytest.raises(OutOfRange):
            draw_size(object(), 10, 40)


class TestHessianSpectrum:
    def test_identity_row_sampling(self):
        spec, _ = spectrum_and_gram(np.eye(2), row_sampling(np.eye(2)))
        assert spec.lambda_max == pytest.approx(0.5, abs=1e-14)
        assert spec.lambda_min_plus == pytest.approx(0.5, abs=1e-14)
        assert spec.rank == 2
        assert spec.exact

    def test_zero_row_excluded(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        spec, _ = spectrum_and_gram(a, row_sampling(a))
        np.testing.assert_allclose(spec.eigenvalues, [0.5, 0.5], atol=1e-14)
        # E[H] has a zero diagonal entry, but Null(W) = Null(A): exact
        assert spec.exact

    # Inputs on which the rank test rank(W) = rank(A) differs from the
    # sufficient condition E[H] > 0 that it replaced.

    def test_zero_row_under_block_sampling_is_exact(self):
        a = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [1.0, 1.0]])
        spec, _ = spectrum_and_gram(a, BlockRow(2))
        assert spec.mc_samples is None and spec.rank == 2
        assert spec.exact

    def test_full_block_on_tall_matrix_is_exact(self):
        """block:m on a tall matrix: W is the projector onto the row
        space, although E[H] = (A A^T)^+ is singular."""
        a = np.random.default_rng(5).standard_normal((6, 3))
        spec, _ = spectrum_and_gram(a, BlockRow(6))
        np.testing.assert_allclose(spec.eigenvalues, np.ones(3), atol=1e-12)
        assert spec.exact

    def test_one_small_block_draw_is_not_exact(self):
        """One draw of 2 rows spans 2 of 10 directions: rank(W) < rank(A)."""
        a = np.random.default_rng(6).standard_normal((200, 10))
        spec, _ = spectrum_and_gram(a, BlockRow(2), mc_samples=1)
        assert spec.mc_samples == 1 and spec.rank == 2
        assert not spec.exact

    def test_hessian_over_budget_refused_before_allocating(self):
        """d^2 is checked against the dense-array budget before W exists:
        3 columns pass a budget of 9 entries and are refused at 8."""
        a = np.random.default_rng(7).standard_normal((4, 3))
        dists = (row_sampling(a), BlockRow(2), GaussianSketch(2))
        with mock.patch.object(linalg, "MAX_DENSE_ELEMENTS", 9):
            for dist in dists:
                spec, _ = spectrum_and_gram(a, dist, mc_samples=20)
                assert spec.eigenvalues.shape == (3,)
        with mock.patch.object(linalg, "MAX_DENSE_ELEMENTS", 8), \
                mock.patch.object(np, "zeros", side_effect=AssertionError("allocated")):
            for dist in dists:
                with pytest.raises(OutOfRange, match="over the limit"):
                    spectrum_and_gram(a, dist)
            with pytest.raises(OutOfRange, match="over the limit"):
                expected_h(BlockRow(2), a)

    def test_rank_deficient(self):
        a = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 0.0]])
        spec, _ = spectrum_and_gram(a, row_sampling(a))
        assert spec.rank == 1
        assert spec.lambda_max == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_spectrum_inside_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 8))
        d = int(rng.integers(1, 8))
        a = rng.standard_normal((m, d))
        for dist in (
            row_sampling(a),
            BlockRow(min(2, m)),
            GaussianSketch(min(2, m)),
        ):
            spec, _ = spectrum_and_gram(a, dist, mc_samples=200, rng=np.random.default_rng(seed))
            assert np.all(spec.eigenvalues >= 0.0)
            assert np.all(spec.eigenvalues <= 1.0 + 1e-8)


class TestFValue:
    def test_zero_at_solution(self):
        """At the solution x of a tall full-rank system, f from the x* that
        the projection of the origin finds is zero."""
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 3))
        x = rng.standard_normal(3)
        b = a @ x
        w = expected_h(row_sampling(a), a).value
        xstar = project_onto_solutions(np.zeros(3), a, b)
        assert f_value(a, b, x, w, xstar) == pytest.approx(0.0, abs=1e-20)

    def test_identity_hand_value(self):
        a = np.eye(2)
        w = expected_h(row_sampling(a), a).value
        assert f_value(a, np.zeros(2), [1.0, 1.0], w, np.zeros(2)) == pytest.approx(0.5, abs=1e-14)

    def test_quadratic_homogeneity(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((4, 3))
        b = a @ rng.standard_normal(3)
        x = rng.standard_normal(3)
        w = expected_h(row_sampling(a), a).value
        xstar = project_onto_solutions(np.zeros(3), a, b)
        f1 = f_value(a, b, x, w, xstar)
        # doubling the residual (here, the distance to x*) quadruples the objective
        f_double = f_value(a, b, xstar + 2 * (x - xstar), w, xstar)
        assert f_double == pytest.approx(4 * f1, rel=1e-12)

    def test_matches_frobenius_form_for_default_weights(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((5, 3))
        b = a @ rng.standard_normal(3)
        x = rng.standard_normal(3)
        w = expected_h(row_sampling(a), a).value
        xstar = project_onto_solutions(np.zeros(3), a, b)
        expected = float(np.sum((a @ x - b) ** 2)) / (2 * float((a * a).sum()))
        assert f_value(a, b, x, w, xstar) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize(
        "dist", [BlockRow(2), BlockRow(3), GaussianSketch(2)], ids=["block:2", "block:3", "gaussian:2"]
    )
    def test_hessian_form_matches_dense_residual_form(self, dist):
        """(1/2)(x-x*)^T W (x-x*) equals (1/2) r^T E[H] r on a consistent
        system, for any solution x*, within the declared tolerance."""
        rng = np.random.default_rng(3)
        a = rng.standard_normal((7, 4))
        a[3] = a[1] + a[2]  # rank 4 still, with a dependent row
        b = a @ rng.standard_normal(4)
        w = expected_h(dist, a, mc_samples=200, rng=np.random.default_rng(4)).value
        dense = dense_eh(dist, a, 200, np.random.default_rng(4))
        x0 = np.zeros(4)
        xstar = project_onto_solutions(x0, a, b)
        f0 = dense_f(a, b, x0, dense)
        for x in (x0, rng.standard_normal(4), xstar + 1e-9 * rng.standard_normal(4)):
            got = f_value(a, b, x, w, xstar)
            assert f_close(got, dense_f(a, b, x, dense), f0)
            # another solution serves as well: the projection of x itself
            assert f_close(f_value(a, b, x, w, project_onto_solutions(x, a, b)), got, f0)

    def test_hessian_form_needs_a_solution(self):
        a = np.random.default_rng(4).standard_normal((5, 3))
        w = expected_h(BlockRow(2), a).value
        with pytest.raises(DimensionMismatch):
            f_value(a, np.zeros(5), np.ones(3), w, None)
