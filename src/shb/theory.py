"""Closed-form convergence constants for heavy ball iterations on the
stochastic reformulation of a consistent linear system.

All functions are pure double-precision evaluations of the published
rate expressions, with no rearrangement beyond standard associativity.
Notation: omega is the stepsize, beta the momentum weight, lmin and
lmax the smallest nonzero and largest eigenvalues of the Hessian
W = A^T E[H] A (both in (0, 1], up to LMAX_SLACK).

Three regimes are covered:

* mean-squared distance: E||x_k - x*||^2 decays by a factor q per step
  whenever a1 + a2 < 1, where q is the larger root of t^2 = a1 t + a2;
* Cesaro averages: the objective at the running average of iterates is
  O(1/k) whenever omega + 2 beta < 2, with an explicit constant;
* expected iterate: ||E[x_k - x*]||^2 decays at the accelerated factor
  beta on 0 < omega <= 1/lmax, (1 - sqrt(omega lmin))^2 < beta < 1.

applicability alone decides which of them hold at a given (omega, beta).
"""

from __future__ import annotations

import math
from typing import NamedTuple

from shb.errors import NotAdmissible, OutOfRange, ShbError

# lmax may carry up to 1e-8 of float dust above 1 from spectrum assembly
LMAX_SLACK = 1e-8
_CONSISTENCY_TOL = 1e-12


def _check_lambdas(lmin: float, lmax: float) -> None:
    if not (0.0 < lmin <= lmax <= 1.0 + LMAX_SLACK):
        raise OutOfRange(f"need 0 < lmin <= lmax <= 1, got lmin={lmin!r} lmax={lmax!r}")


def _check_omega_open(omega: float) -> None:
    if not (0.0 < omega < 2.0):
        raise OutOfRange(f"stepsize must lie in (0, 2), got {omega!r}")


class L2Rate(NamedTuple):
    """Per-step contraction data for the mean-squared distance bound.

    q is the contraction factor, delta = q - a1 the constant inflating
    the initial distance.  The bound is only guaranteed when admissible
    (a1 + a2 < 1), in which case a1 + a2 <= q < 1.
    """

    a1: float
    a2: float
    q: float
    delta: float
    admissible: bool


def l2_rate(omega: float, beta: float, lmin: float, lmax: float) -> L2Rate:
    """Contraction constants for given stepsize, momentum and spectrum.

    a1 = 1 + 3 beta + 2 beta^2 - (omega (2 - omega) + omega beta) lmin
    a2 = beta + 2 beta^2 + omega beta lmax
    q  = (a1 + sqrt(a1^2 + 4 a2)) / 2

    With beta = 0 this collapses to q = 1 - omega (2 - omega) lmin.
    """
    _check_omega_open(omega)
    if beta < 0.0:
        raise OutOfRange(f"momentum must be >= 0, got {beta!r}")
    _check_lambdas(lmin, lmax)
    a1 = 1.0 + 3.0 * beta + 2.0 * beta * beta - (omega * (2.0 - omega) + omega * beta) * lmin
    a2 = beta + 2.0 * beta * beta + omega * beta * lmax
    q = (a1 + math.sqrt(a1 * a1 + 4.0 * a2)) / 2.0
    delta = q - a1
    if not all(map(math.isfinite, (a1, a2, q, delta))):  # a1^2 overflows past beta ~ 1e77
        raise OutOfRange(f"rate constants overflow at omega={omega!r} beta={beta!r}")
    admissible = a1 + a2 < 1.0
    if admissible and not (a1 + a2 <= q + _CONSISTENCY_TOL and q < 1.0 + _CONSISTENCY_TOL):
        raise ShbError(f"rate consistency violated: a1+a2={a1 + a2!r}, q={q!r}")
    return L2Rate(a1=a1, a2=a2, q=q, delta=delta, admissible=admissible)


def beta_upper_bound(omega: float, lmin: float, lmax: float) -> float:
    """Supremum of admissible momentum values for a stepsize in (0, 2).

    Every beta strictly below the returned value satisfies a1 + a2 < 1;
    the value itself is the positive root of a1 + a2 = 1 viewed as a
    quadratic in beta.
    """
    _check_omega_open(omega)
    _check_lambdas(lmin, lmax)
    return 0.125 * (
        -4.0
        + omega * lmin
        - omega * lmax
        + math.sqrt((4.0 - omega * lmin + omega * lmax) ** 2 + 16.0 * omega * (2.0 - omega) * lmin)
    )


def l2_envelope(rate: L2Rate, k: int, init_sq_dist: float, lmax: float) -> tuple[float, float]:
    """Upper bounds at step k for E||x_k - x*||^2 and E[f(x_k)].

    Returns (q^k (1 + delta) init_sq_dist, (lmax/2) times the same).
    """
    if not rate.admissible:
        raise NotAdmissible("a1 + a2 >= 1: no contraction is guaranteed")
    if k < 0:
        raise OutOfRange("k must be >= 0")
    if init_sq_dist < 0.0:
        raise OutOfRange("init_sq_dist must be >= 0")
    l2_bound = rate.q**k * (1.0 + rate.delta) * init_sq_dist
    return l2_bound, (lmax / 2.0) * l2_bound


def _cesaro_holds(omega: float, beta: float) -> bool:
    return omega > 0.0 and 0.0 <= beta < 1.0 and omega + 2.0 * beta < 2.0


def cesaro_bound(omega: float, beta: float, k: int, init_sq_dist: float, f0: float) -> float:
    """O(1/k) bound on the objective at the running iterate average.

    ((1 - beta)^2 init_sq_dist + 2 omega beta f0) / (2 omega (2 - 2 beta - omega) k),
    valid for 0 <= beta < 1, omega > 0 with omega + 2 beta < 2.
    """
    if not _cesaro_holds(omega, beta):
        raise OutOfRange(
            f"need omega > 0, 0 <= beta < 1 and omega + 2*beta < 2, got omega={omega!r} beta={beta!r}"
        )
    if k < 1:
        raise OutOfRange("k must be >= 1")
    if init_sq_dist < 0.0 or f0 < 0.0:
        raise OutOfRange("init_sq_dist and f0 must be >= 0")
    num = (1.0 - beta) ** 2 * init_sq_dist + 2.0 * omega * beta * f0
    den = 2.0 * omega * (2.0 - 2.0 * beta - omega) * k
    return num / den


class L1Params(NamedTuple):
    omega: float
    beta: float
    rate_factor: float  # always equals beta: the expected-iterate contraction


def _l1_holds(omega: float, beta: float, lmin: float, lmax: float) -> bool:
    """The accelerated region, admitting lmax's dust on omega lmax too."""
    return (
        0.0 < lmin <= lmax <= 1.0 + LMAX_SLACK
        and 0.0 < omega
        and omega * lmax <= 1.0 + LMAX_SLACK
        and (1.0 - math.sqrt(omega * lmin)) ** 2 < beta < 1.0
    )


def l1_params(choice: str, lmin: float, lmax: float) -> L1Params:
    """Stepsize/momentum pairing with the accelerated expected-iterate rate.

    'unit_stepsize': omega = 1,      beta = (1 - sqrt(0.99 lmin))^2
    'inv_lmax':      omega = 1/lmax, beta = (1 - sqrt(0.99 lmin/lmax))^2

    Both lie in the accelerated region (_l1_holds) on every spectrum
    _check_lambdas admits: omega lmax is 1 or lmax, and the factor 0.99
    lifts beta above the region's lower edge, short of 1, by margins far
    above rounding for every ratio lmin/lmax >= 1e-10 the spectrum reports.

    The squared distance of the expected iterate from the solution
    contracts by the factor beta per step, so rate_factor == beta.
    """
    _check_lambdas(lmin, lmax)
    if choice == "unit_stepsize":
        omega = 1.0
        beta = (1.0 - math.sqrt(0.99 * lmin)) ** 2
    elif choice == "inv_lmax":
        omega = 1.0 / lmax
        beta = (1.0 - math.sqrt(0.99 * lmin / lmax)) ** 2
    else:
        raise OutOfRange(f"choice must be 'unit_stepsize' or 'inv_lmax', got {choice!r}")
    return L1Params(omega=omega, beta=beta, rate_factor=beta)


class Applicability(NamedTuple):
    """The L2 constants and the momentum upper bound where defined (else
    None), and whether each regime's bound applies."""

    l2: L2Rate | None
    beta_upper: float | None
    l2_ok: bool  # l2 is defined and admissible
    cesaro_ok: bool
    l1_ok: bool


def applicability(omega: float, beta: float, lmin: float, lmax: float) -> Applicability:
    """Which bounds hold at stepsize omega and momentum beta on a spectrum.

    l2 and beta_upper are defined where their functions accept the
    arguments, and each other regime has one predicate; a bound whose
    hypotheses fail is reported as not applying, not raised.
    """
    l2 = _or_none(l2_rate, omega, beta, lmin, lmax)
    return Applicability(
        l2=l2,
        beta_upper=_or_none(beta_upper_bound, omega, lmin, lmax),
        l2_ok=l2 is not None and l2.admissible,
        cesaro_ok=_cesaro_holds(omega, beta),
        l1_ok=_l1_holds(omega, beta, lmin, lmax),
    )


def _or_none(fn, *args):
    """fn's value, or None where its hypotheses fail (OutOfRange)."""
    try:
        return fn(*args)
    except OutOfRange:
        return None


def q_lower_bound(omega: float, beta: float, lmin: float, lmax: float) -> float:
    """Expanded form of a1 + a2, a lower bound on the contraction factor q.

    1 + 4 beta + 4 beta^2 + omega beta (lmax - lmin) - omega (2 - omega) lmin.
    Nondecreasing in beta; at beta = 0 it equals the momentum-free factor
    1 - omega (2 - omega) lmin, so momentum never improves this bound.
    """
    _check_omega_open(omega)
    if beta < 0.0:
        raise OutOfRange(f"momentum must be >= 0, got {beta!r}")
    _check_lambdas(lmin, lmax)
    return (
        1.0
        + 4.0 * beta
        + 4.0 * beta * beta
        + omega * beta * (lmax - lmin)
        - omega * (2.0 - omega) * lmin
    )
