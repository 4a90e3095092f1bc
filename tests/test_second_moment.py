"""Checks of the exact second-moment reference used by criterion 7."""

import math

import numpy as np
import pytest

from second_moment import expected_crossing, expected_sq_errors

from shb.problems import Problem, gen_problem
from shb.sketch import row_sampling
from shb.solver import SolverParams, run_ensemble
from shb.theory import l2_rate


@pytest.mark.parametrize("beta", [0.0, 0.3])
def test_matches_monte_carlo_mean(beta):
    """The ensemble mean of ||x_k - x*||^2 agrees with the recursion.

    The horizon stops at 20 steps, where one run's squared error still has
    coefficient of variation below 1, so the 1 + 3/sqrt(R) slack of
    criteria 4 and 5 is at least three standard errors.  Up to step 20
    the beta = 0.3 and beta = 0 expectations differ by up to 11%, more
    than twice the slack, so a solver without momentum fails here.
    """
    problem = gen_problem(12, 5, seed=3)
    params = SolverParams(
        omega=1.0, beta=beta, max_iter=20, seed=0, record_every=1,
    )
    stats = run_ensemble(problem, row_sampling(problem.a), params, replications=4000)
    exact = expected_sq_errors(problem.a, problem.b, 1.0, beta, 20)
    slack = 1.0 + 3.0 / math.sqrt(stats.replications)
    for k, mean in zip(stats.ks, stats.l2_mean):
        assert exact[k] / slack <= mean <= exact[k] * slack, f"k={k}: {mean} vs exact {exact[k]}"


@pytest.mark.parametrize("omega", [0.3, 1.0, 1.7])
def test_orthogonal_one_step_factor(omega):
    """For square orthogonal A, W = I/d, and without momentum every step
    multiplies E||x_k - x*||^2 by exactly 1 - omega (2 - omega) / d."""
    d = 6
    rng = np.random.default_rng(11)
    a, _ = np.linalg.qr(rng.standard_normal((d, d)))
    problem = Problem(a=a, b=a @ rng.standard_normal(d), source="orthogonal")
    q = l2_rate(omega, 0.0, 1.0 / d, 1.0 / d).q
    errors = expected_sq_errors(problem.a, problem.b, omega, 0.0, 30)
    np.testing.assert_allclose(errors[1:] / errors[:-1], q, rtol=1e-12)


def test_crossing_is_first_step_below_threshold():
    problem = gen_problem(12, 5, seed=3)
    errors = expected_sq_errors(problem.a, problem.b, 1.0, 0.3, 400)
    hit = expected_crossing(problem.a, problem.b, 1.0, 0.3, 1e-6, 400)
    assert errors[hit] <= 1e-6 * errors[0] < errors[hit - 1]
    assert expected_crossing(problem.a, problem.b, 1.0, 0.3, 1e-6, hit - 1) is None
