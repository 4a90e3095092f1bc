import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shb.theory
from shb.errors import NotAdmissible, OutOfRange
from shb.theory import (
    LMAX_SLACK,
    applicability,
    beta_upper_bound,
    cesaro_bound,
    l1_params,
    l2_envelope,
    l2_rate,
    q_lower_bound,
)

# shared strategies for the admissible parameter space
st_omega = st.floats(0.01, 1.99)
st_lmin = st.floats(1e-4, 1.0)
st_frac = st.floats(0.0, 0.95)  # fraction of the momentum upper bound


def lambda_pair(lmin_frac: float, lmax: float) -> tuple[float, float]:
    lmin = max(lmin_frac * lmax, 1e-8)
    return lmin, lmax


class TestL2Rate:
    def test_momentum_free_closed_form(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            omega = float(rng.uniform(0.01, 1.99))
            lmax = float(rng.uniform(1e-4, 1.0))
            lmin = float(rng.uniform(1e-6, 1.0)) * lmax
            rate = l2_rate(omega, 0.0, lmin, lmax)
            assert abs(rate.q - (1.0 - omega * (2.0 - omega) * lmin)) <= 1e-14

    def test_unit_step_half_spectrum(self):
        rate = l2_rate(1.0, 0.0, 0.5, 0.5)
        assert rate.a1 == pytest.approx(0.5, abs=1e-15)
        assert rate.a2 == 0.0
        assert rate.q == pytest.approx(0.5, abs=1e-15)
        assert rate.delta == pytest.approx(0.0, abs=1e-15)
        assert rate.admissible

    def test_worked_momentum_example(self):
        rate = l2_rate(1.0, 0.1, 0.5, 0.5)
        assert rate.a1 == pytest.approx(0.77, abs=1e-12)
        assert rate.a2 == pytest.approx(0.17, abs=1e-12)
        assert rate.a1 + rate.a2 == pytest.approx(0.94, abs=1e-12)
        expected_q = (0.77 + math.sqrt(0.77**2 + 4 * 0.17)) / 2
        assert rate.q == pytest.approx(expected_q, abs=1e-12)
        assert rate.admissible and rate.q < 1.0

    def test_delta_definition(self):
        rate = l2_rate(0.7, 0.03, 0.2, 0.9)
        assert rate.delta == rate.q - rate.a1

    def test_preconditions(self):
        with pytest.raises(OutOfRange):
            l2_rate(2.0, 0.0, 0.5, 0.5)
        with pytest.raises(OutOfRange):
            l2_rate(1.0, -0.1, 0.5, 0.5)
        with pytest.raises(OutOfRange):
            l2_rate(1.0, 0.0, 0.0, 0.5)
        with pytest.raises(OutOfRange):
            l2_rate(1.0, 0.0, 0.6, 0.5)
        with pytest.raises(OutOfRange):
            l2_rate(1.0, 0.0, 0.5, 1.5)
        with pytest.raises(OutOfRange, match="overflow"):  # a1^2 is inf past beta ~ 1e77
            l2_rate(1.0, 1e100, 0.5, 0.5)

    @given(omega=st_omega, lmax=st_lmin, lmin_frac=st.floats(1e-4, 1.0), frac=st_frac)
    def test_admissible_region_properties(self, omega, lmax, lmin_frac, frac):
        lmin, lmax = lambda_pair(lmin_frac, lmax)
        beta = frac * beta_upper_bound(omega, lmin, lmax)
        rate = l2_rate(omega, beta, lmin, lmax)
        assert rate.admissible
        assert rate.a1 + rate.a2 <= rate.q + 1e-12
        assert rate.q < 1.0
        # q is the larger root of t^2 - a1 t - a2
        assert abs(rate.q**2 - rate.a1 * rate.q - rate.a2) <= 1e-12


class TestBetaUpperBound:
    def test_hand_value(self):
        expected = 0.125 * (-4.0 + math.sqrt(24.0))
        assert beta_upper_bound(1.0, 0.5, 0.5) == pytest.approx(expected, abs=1e-15)
        assert beta_upper_bound(1.0, 0.5, 0.5) == pytest.approx(0.1123724356957945, abs=1e-12)

    def test_strictly_positive(self):
        assert beta_upper_bound(1.0, 1e-12, 1.0) > 0.0

    def test_vanishes_with_spectrum(self):
        assert beta_upper_bound(1.0, 1e-12, 1.0) == pytest.approx(0.0, abs=1e-9)

    @given(omega=st_omega, lmax=st_lmin, lmin_frac=st.floats(1e-3, 1.0))
    def test_boundary_bracketing(self, omega, lmax, lmin_frac):
        lmin, lmax = lambda_pair(lmin_frac, lmax)
        bound = beta_upper_bound(omega, lmin, lmax)
        if bound <= 1e-6:
            return
        below = l2_rate(omega, bound - 1e-6, lmin, lmax)
        assert below.a1 + below.a2 < 1.0
        above = l2_rate(omega, bound + 1e-6, lmin, lmax)
        assert above.a1 + above.a2 >= 1.0

    @given(omega=st_omega, lmax=st_lmin, lmin_frac=st.floats(1e-4, 1.0))
    def test_is_root_of_admissibility_equation(self, omega, lmax, lmin_frac):
        lmin, lmax = lambda_pair(lmin_frac, lmax)
        bound = beta_upper_bound(omega, lmin, lmax)
        assert abs(q_lower_bound(omega, bound, lmin, lmax) - 1.0) <= 1e-10


class TestL2Envelope:
    def test_step_zero(self):
        rate = l2_rate(1.0, 0.05, 0.3, 0.6)
        l2b, _ = l2_envelope(rate, 0, 2.5, 0.6)
        assert l2b == pytest.approx((1.0 + rate.delta) * 2.5, rel=1e-15)
        assert l2b >= 2.5

    def test_halving_powers(self):
        rate = l2_rate(1.0, 0.0, 0.5, 0.5)  # q = 0.5, delta = 0
        l2b, fb = l2_envelope(rate, 10, 1.0, 0.5)
        assert l2b == pytest.approx(2.0**-10, rel=1e-12)
        assert fb == pytest.approx(0.25 * 2.0**-10, rel=1e-12)

    def test_f_bound_ratio(self):
        rate = l2_rate(0.9, 0.02, 0.4, 0.8)
        l2b, fb = l2_envelope(rate, 7, 3.0, 0.8)
        assert fb == pytest.approx(0.4 * l2b, rel=1e-15)

    def test_not_admissible(self):
        rate = l2_rate(1.0, 0.9, 0.5, 0.5)
        assert not rate.admissible
        with pytest.raises(NotAdmissible):
            l2_envelope(rate, 1, 1.0, 0.5)


class TestCesaroBound:
    def test_momentum_free_form(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            omega = float(rng.uniform(0.01, 1.99))
            init = float(rng.uniform(0.0, 5.0))
            k = int(rng.integers(1, 1000))
            got = cesaro_bound(omega, 0.0, k, init, 7.7)
            assert got == pytest.approx(init / (2 * omega * (2 - omega) * k), rel=1e-14)

    def test_hand_value(self):
        assert cesaro_bound(1.0, 0.0, 10, 1.0, 0.0) == pytest.approx(0.05, abs=1e-15)

    def test_doubling_k_halves(self):
        b1 = cesaro_bound(0.8, 0.3, 50, 2.0, 1.0)
        b2 = cesaro_bound(0.8, 0.3, 100, 2.0, 1.0)
        assert b2 == pytest.approx(b1 / 2, rel=1e-14)

    def test_hypothesis_violation_rejected(self):
        with pytest.raises(OutOfRange):
            cesaro_bound(1.0, 0.5, 10, 1.0, 0.0)  # omega + 2 beta = 2
        with pytest.raises(OutOfRange):
            cesaro_bound(1.0, 1.0, 10, 1.0, 0.0)
        with pytest.raises(OutOfRange):
            cesaro_bound(1.0, 0.1, 0, 1.0, 0.0)

    @given(omega=st.floats(0.01, 1.9), beta=st.floats(0.0, 0.94))
    def test_denominator_positive_iff_hypothesis_holds(self, omega, beta):
        if omega + 2 * beta < 2:
            assert cesaro_bound(omega, beta, 5, 1.0, 1.0) > 0.0
        else:
            with pytest.raises(OutOfRange):
                cesaro_bound(omega, beta, 5, 1.0, 1.0)


class TestL1Params:
    def test_unit_stepsize_choice(self):
        p = l1_params("unit_stepsize", 0.5, 0.5)
        assert p.omega == 1.0
        assert p.beta == pytest.approx((1 - math.sqrt(0.99 * 0.5)) ** 2, abs=1e-15)
        assert p.beta == pytest.approx(0.08787527205297112, abs=1e-12)
        assert p.rate_factor == p.beta

    def test_inv_lmax_choice_equal_spectrum(self):
        p = l1_params("inv_lmax", 0.25, 0.25)
        assert p.omega == pytest.approx(4.0, rel=1e-15)
        assert p.beta == pytest.approx((1 - math.sqrt(0.99)) ** 2, abs=1e-15)
        assert p.beta == pytest.approx(2.5125786760090427e-05, rel=1e-12)

    def test_presets_inside_admissible_region(self):
        """Both presets lie in the region applicability admits, down to the
        spectrum's smallest ratio lmin/lmax = 1e-10 and up to lmax's dust."""
        rng = np.random.default_rng(9)
        spectra = [(1e-10 * lmax, lmax) for lmax in (1e-3, 1.0, 1.0 + LMAX_SLACK)] + [(1.0 + LMAX_SLACK,) * 2]
        for _ in range(100):
            lmax = float(rng.uniform(1e-3, 1.0))
            spectra.append((float(rng.uniform(1e-3, 1.0)) * lmax, lmax))
        for lmin, lmax in spectra:
            for choice in ("unit_stepsize", "inv_lmax"):
                p = l1_params(choice, lmin, lmax)
                lower = (1 - math.sqrt(p.omega * lmin)) ** 2
                assert lower < p.beta < 1.0
                assert applicability(p.omega, p.beta, lmin, lmax).l1_ok

    def test_applicability_decides_the_region(self):
        assert applicability(1.0, 0.5, 0.3, 0.6).l1_ok
        assert not applicability(1.0, 0.05, 0.3, 0.6).l1_ok  # below the lower edge
        assert not applicability(3.0, 0.5, 0.3, 0.6).l1_ok  # omega > 1/lmax

    def test_lmax_dust_is_admitted_once(self):
        """omega = 1 on lmax = 1 + dust: the region admits exactly the
        dust the spectrum does, no more."""
        assert applicability(1.0, 0.5, 0.5, 1.0 + 5e-9).l1_ok
        assert l1_params("unit_stepsize", 0.5, 1.0 + 5e-9).omega == 1.0
        assert not applicability(1.0, 0.5, 0.5, 1.0 + 2e-8).l1_ok

    def test_unknown_choice(self):
        for choice in ("fastest", "custom"):
            with pytest.raises(OutOfRange):
                l1_params(choice, 0.3, 0.6)


class TestQLowerBound:
    def test_momentum_free(self):
        got = q_lower_bound(1.3, 0.0, 0.2, 0.7)
        assert got == pytest.approx(1.0 - 1.3 * 0.7 * 0.2, rel=1e-14)

    @given(omega=st_omega, lmax=st_lmin, lmin_frac=st.floats(1e-4, 1.0), beta=st.floats(0.0, 2.0))
    @settings(max_examples=100)
    def test_matches_a1_plus_a2(self, omega, lmax, lmin_frac, beta):
        lmin, lmax = lambda_pair(lmin_frac, lmax)
        rate = l2_rate(omega, beta, lmin, lmax)
        assert abs(q_lower_bound(omega, beta, lmin, lmax) - (rate.a1 + rate.a2)) <= 1e-14

    @given(omega=st_omega, lmax=st_lmin, lmin_frac=st.floats(1e-4, 1.0),
           b1=st.floats(0.0, 1.0), b2=st.floats(0.0, 1.0))
    def test_nondecreasing_in_beta(self, omega, lmax, lmin_frac, b1, b2):
        lmin, lmax = lambda_pair(lmin_frac, lmax)
        lo, hi = min(b1, b2), max(b1, b2)
        assert q_lower_bound(omega, lo, lmin, lmax) <= q_lower_bound(omega, hi, lmin, lmax) + 1e-15

