"""Concentration rate functions and the dimension penalty constant.

The posterior over the model dimension concentrates one-sidedly at an
exponential rate.  The rate is the supremum of an explicit strictly
concave function of a Chernoff tilting parameter h, for which the
stationary point is available in closed form.  This module evaluates the
two function variants (overshoot / undershoot) and their suprema.

Everything here is a pure function of its arguments; there is no shared
state and every routine is safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

E_MINUS_1 = math.e - 1.0

# |value| at or below this is treated as zero for the positivity flag.
POSITIVITY_TOL = 1e-12

__all__ = [
    "E_MINUS_1",
    "POSITIVITY_TOL",
    "RateEvaluation",
    "penalty_constant",
    "f",
    "g",
    "f_sup",
    "g_sup",
]


@dataclass(frozen=True)
class RateEvaluation:
    """Optimizer, optimum and strict-positivity flag of a rate supremum."""

    h_star: float
    value: float
    positive: bool


def _check_at(a: float, t: float) -> None:
    if not a > 0:
        raise ValueError(f"a must be positive, got {a}")
    if not t > 0:
        raise ValueError(f"t must be positive, got {t}")


def penalty_constant(kappa: float, varkappa: float) -> float:
    """Per-dimension penalty A = log(kappa + 1) + 2 * varkappa.

    kappa must exceed e - 1 (below that the posterior over the dimension
    is not well defined) and varkappa must be positive; together these
    force A > 1.  Both must be finite, and so must A.
    """
    if not E_MINUS_1 < kappa < math.inf:
        raise ValueError(
            f"kappa must exceed e-1 = {E_MINUS_1:.12g} and be finite, got {kappa}"
        )
    if not 0 < varkappa < math.inf:
        raise ValueError(f"varkappa must be positive and finite, got {varkappa}")
    A = math.log(kappa + 1.0) + 2.0 * varkappa
    if not A < math.inf:
        raise ValueError(f"A = log(kappa+1) + 2*varkappa overflows at varkappa = {varkappa}")
    return A


def f(h: float, a: float, t: float) -> float:
    """Overshoot rate function (a*h + log(1-h) - t*h/(1-h)) / 2, for h < 1."""
    _check_at(a, t)
    if not h < 1.0:
        raise ValueError(f"f is defined for h < 1, got h = {h}")
    return 0.5 * (a * h + math.log1p(-h) - t * h / (1.0 - h))


def g(h: float, a: float, t: float) -> float:
    """Undershoot rate function, g(h, a, t) = f(-h, a, t), for h > -1.

    Evaluated directly as (t*h/(1+h) + log(1+h) - a*h) / 2 to avoid the
    sign round trip.
    """
    _check_at(a, t)
    if not h > -1.0:
        raise ValueError(f"g is defined for h > -1, got h = {h}")
    return 0.5 * (t * h / (1.0 + h) + math.log1p(h) - a * h)


def _h_f(a: float, t: float) -> float:
    # Unique stationary point of the concave map h -> f(h, a, t) on (-inf, 1);
    # it is positive exactly when a > t + 1.
    return (2.0 * a - 1.0 - math.sqrt(4.0 * a * t + 1.0)) / (2.0 * a)


def f_sup(a: float, t: float) -> RateEvaluation:
    """Supremum of f(., a, t) over [0, 1).

    The stationary point h_f = (2a - 1 - sqrt(4at + 1)) / (2a) lies in
    (0, 1) exactly when a > t + 1; otherwise f is decreasing on [0, 1)
    and the supremum is f(0) = 0.
    """
    _check_at(a, t)
    h_star = _h_f(a, t)
    if h_star <= 0.0:
        return RateEvaluation(h_star=0.0, value=0.0, positive=False)
    value = f(h_star, a, t)
    return RateEvaluation(h_star=h_star, value=value, positive=value > POSITIVITY_TOL)


def g_sup(a: float, t: float) -> RateEvaluation:
    """Supremum of g(., a, t) over [0, 1].

    The stationary point of g is h_g = -h_f = (-2a + 1 + sqrt(4at + 1)) / (2a);
    the supremum over [0, 1] is attained at h_g clamped to [0, 1], and it is
    strictly positive exactly when a < t + 1.
    """
    _check_at(a, t)
    h_star = min(1.0, max(0.0, -_h_f(a, t)))
    if h_star == 0.0:
        return RateEvaluation(h_star=0.0, value=0.0, positive=False)
    value = g(h_star, a, t)
    return RateEvaluation(h_star=h_star, value=value, positive=value > POSITIVITY_TOL)
