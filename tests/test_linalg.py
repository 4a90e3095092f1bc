import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shb.errors import AllZero, AsymmetryExceedsTolerance, DimensionMismatch, Inconsistent, NonSquare
from shb.linalg import (
    nonzero_min,
    pinv_apply,
    pinv_eigenvalues,
    pinv_psd,
    project_onto_solutions,
    sym_eig,
)


@st.composite
def psd_matrices(draw, max_dim=8):
    """Random PSD matrix B^T B with integer-valued B.

    Integer entries keep eigenvalues well away from the pseudoinverse
    cutoff, so implementation and oracle agree on the numerical rank.
    """
    n = draw(st.integers(1, max_dim))
    r = draw(st.integers(0, n))
    rows = draw(
        st.lists(
            st.lists(st.integers(-3, 3), min_size=n, max_size=n),
            min_size=max(r, 1),
            max_size=max(r, 1),
        )
    )
    b = np.asarray(rows, dtype=float)
    if r == 0:
        b = np.zeros((1, n))
    return b.T @ b


class TestSymEig:
    def test_identity(self):
        eig = sym_eig(np.eye(2))
        np.testing.assert_allclose(eig.eigenvalues, [1.0, 1.0])

    def test_diagonal(self):
        eig = sym_eig(np.diag([0.5, 0.0]))
        np.testing.assert_allclose(eig.eigenvalues, [0.5, 0.0])

    def test_half_gram_of_identity(self):
        a = np.eye(2)
        eig = sym_eig(0.5 * a.T @ a)
        np.testing.assert_allclose(eig.eigenvalues, [0.5, 0.5])

    def test_sorted_descending(self):
        eig = sym_eig(np.diag([1.0, 3.0, 2.0]))
        np.testing.assert_allclose(eig.eigenvalues, [3.0, 2.0, 1.0])

    def test_non_square_rejected(self):
        with pytest.raises(NonSquare):
            sym_eig(np.ones((2, 3)))

    def test_asymmetry_rejected(self):
        w = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(AsymmetryExceedsTolerance):
            sym_eig(w)

    @given(w=psd_matrices())
    def test_reconstruction_and_orthonormality(self, w):
        eig = sym_eig(w)
        v, lam = eig.eigenvectors, eig.eigenvalues
        assert np.all(lam >= 0.0)
        recon = v @ np.diag(lam) @ v.T
        fro = np.linalg.norm(w)
        assert np.linalg.norm(recon - w) <= 1e-10 * max(1.0, fro)
        gram = v.T @ v
        assert np.max(np.abs(gram - np.eye(w.shape[0]))) <= 1e-10

    def test_tiny_negative_clamped(self):
        w = np.array([[1.0, 0.0], [0.0, -1e-14]])
        eig = sym_eig(w)
        assert eig.eigenvalues[-1] == 0.0


class TestPinvApply:
    def test_diagonal(self):
        np.testing.assert_allclose(pinv_apply(np.diag([2.0, 0.0]), [4.0, 7.0]), [2.0, 0.0])

    def test_zero_matrix(self):
        np.testing.assert_allclose(pinv_apply(np.zeros((2, 2)), [1.0, 1.0]), [0.0, 0.0])

    def test_full_rank_diagonal(self):
        np.testing.assert_allclose(pinv_apply(np.diag([2.0, 3.0]), [2.0, 6.0]), [1.0, 2.0])

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            pinv_apply(np.eye(2), [1.0, 2.0, 3.0])

    @given(w=psd_matrices(), data=st.data())
    def test_matches_svd_range_projection(self, w, data):
        """pinv(M) @ (M z) is the projection of z onto Range(M).

        Oracle: brute-force SVD of M; compare against the eigh-based path.
        """
        n = w.shape[0]
        z = np.asarray(
            data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)), dtype=float
        )
        got = pinv_apply(w, w @ z)
        u, s, vt = np.linalg.svd(w)
        if s.size and s[0] > 0:
            keep = s > 1e-10 * s[0]
            proj = vt[keep].T @ (vt[keep] @ z)
        else:
            proj = np.zeros(n)
        np.testing.assert_allclose(got, proj, atol=1e-8)

    @given(w=psd_matrices())
    def test_pinv_psd_matches_numpy(self, w):
        expected = np.linalg.pinv(w, rcond=1e-10, hermitian=True)
        np.testing.assert_allclose(pinv_psd(w), expected, atol=1e-8)


    @given(ws=st.lists(psd_matrices(max_dim=4), min_size=1, max_size=5), n=st.integers(1, 4))
    def test_stack_equals_one_call_each(self, ws, n):
        """A stack is decomposed and inverted matrix by matrix, with the
        results of one call each (zero matrices included)."""
        ws = [w[:n, :n] if w.shape[0] >= n else np.zeros((n, n)) for w in ws]
        stack = np.stack(ws)
        eig = sym_eig(stack)
        pinvs = pinv_psd(stack)
        for i, w in enumerate(ws):
            one = sym_eig(w)
            np.testing.assert_array_equal(eig.eigenvalues[i], one.eigenvalues)
            np.testing.assert_array_equal(eig.eigenvectors[i], one.eigenvectors)
            np.testing.assert_allclose(pinvs[i], pinv_psd(w), rtol=0, atol=1e-12 * max(1.0, np.abs(pinv_psd(w)).max()))

    def test_stack_asymmetry_rejected(self):
        stack = np.stack([np.eye(2), np.array([[1.0, 0.5], [0.0, 1.0]])])
        with pytest.raises(AsymmetryExceedsTolerance):
            sym_eig(stack)

    def test_cutoff_rule(self):
        vals = np.array([[4.0, 2.0, 1e-12, 0.0], [0.0, 0.0, 0.0, 0.0], [-1.0, -2.0, -3.0, -4.0]])
        np.testing.assert_array_equal(
            pinv_eigenvalues(vals),
            [[0.25, 0.5, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]],
        )
        # strictly above REL_TOL * lambda_max is kept; the boundary itself is zero
        assert pinv_eigenvalues(np.array([4.0, 5e-10])).tolist() == [0.25, 1 / 5e-10]
        assert pinv_eigenvalues(np.array([4.0, 4e-10])).tolist() == [0.25, 0.0]


class TestProjection:
    def test_identity_system(self):
        np.testing.assert_allclose(
            project_onto_solutions([0.0, 0.0], np.eye(2), [1.0, 2.0]), [1.0, 2.0]
        )

    def test_single_hyperplane_moves_one_coordinate(self):
        got = project_onto_solutions([0.0, 5.0], [[1.0, 0.0]], [1.0])
        np.testing.assert_allclose(got, [1.0, 5.0])

    def test_least_norm_point_on_line(self):
        got = project_onto_solutions([0.0, 0.0], [[1.0, 1.0]], [2.0])
        np.testing.assert_allclose(got, [1.0, 1.0])

    def test_inconsistent_detected(self):
        a = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(Inconsistent):
            project_onto_solutions([0.0, 0.0], a, [0.0, 1.0])

    def test_tall_and_wide_routes_agree(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((6, 3))
        z = rng.standard_normal(3)
        b = a @ z
        x0 = rng.standard_normal(3)
        tall = project_onto_solutions(x0, a, b)
        wide = project_onto_solutions(
            np.concatenate([x0, np.zeros(4)]), np.hstack([a, np.zeros((6, 4))]), b
        )
        np.testing.assert_allclose(tall, wide[:3], atol=1e-8)

    @given(data=st.data())
    @settings(max_examples=40)
    def test_idempotent_and_row_space_displacement(self, data):
        m = data.draw(st.integers(1, 5))
        d = data.draw(st.integers(1, 5))
        a = np.asarray(
            data.draw(
                st.lists(
                    st.lists(st.integers(-3, 3), min_size=d, max_size=d),
                    min_size=m,
                    max_size=m,
                )
            ),
            dtype=float,
        )
        z = np.asarray(data.draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d)), dtype=float)
        x0 = np.asarray(data.draw(st.lists(st.integers(-3, 3), min_size=d, max_size=d)), dtype=float)
        b = a @ z  # consistent by construction
        xs = project_onto_solutions(x0, a, b)
        again = project_onto_solutions(xs, a, b)
        np.testing.assert_allclose(again, xs, atol=1e-10)
        # displacement stays inside the row space of a
        u, s, vt = np.linalg.svd(a, full_matrices=False)
        keep = s > 1e-10 * s[0] if (s.size and s[0] > 0) else np.zeros(s.size, dtype=bool)
        disp = x0 - xs
        ortho = disp - vt[keep].T @ (vt[keep] @ disp) if keep.any() else disp
        assert np.linalg.norm(ortho) <= 1e-8


class TestNonzeroMin:
    def test_basic(self):
        assert nonzero_min(np.array([1.0, 0.5, 0.0])) == 0.5

    def test_full_rank(self):
        assert nonzero_min(np.array([0.5, 0.5])) == 0.5

    def test_below_threshold_ignored(self):
        assert nonzero_min(np.array([1.0, 1e-15])) == 1.0

    def test_all_zero(self):
        with pytest.raises(AllZero):
            nonzero_min(np.array([0.0, 0.0]))

    def test_empty(self):
        with pytest.raises(AllZero):
            nonzero_min(np.array([]))
