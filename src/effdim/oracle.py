"""Quantization risk, effective dimension, and tail/head energy conditions.

The tau-weighted quantization error of keeping the first d coordinates is

    r_tau(d) = sum_{i>d} theta_i^2 + tau * d * eps^2,

and the effective tau-dimension is its smallest minimizer over d >= 1.
Everything is finite arithmetic over the stored coefficients with the
certified tail energy folded in; conditions use certified block energies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .signals import Signal, _block_energy, _csv, _integer, _suffix_energy

__all__ = [
    "OracleResult",
    "TailConditionReport",
    "HeadConditionReport",
    "risk",
    "effective_dimension",
    "tau_scaling_identity_check",
    "tail_condition",
    "head_condition",
    "risk_curve_csv",
]


@dataclass(frozen=True)
class OracleResult:
    """Smallest risk minimizer, its risk, and the whole curve for d = 1..N."""

    d_tau: int
    r_tau: float
    risk_curve: np.ndarray


def _check_eps_tau(eps: float, tau: float) -> None:
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")


def _risk_terms(theta: Signal, eps: float, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Approximation error and dimension cost for d = 1..N.  Their sum is the
    curve effective_dimension minimizes and risk_curve_csv writes."""
    d = np.arange(1, theta.n + 1, dtype=float)
    return _suffix_energy(theta) + theta.tail_energy, tau * eps * eps * d


def risk(d: int, theta: Signal, eps: float, tau: float) -> float:
    """tau-error of the d-dimensional quantizer: approximation + dimension cost."""
    _check_eps_tau(eps, tau)
    if not 1 <= d <= theta.n:
        raise IndexError(f"d must lie in [1, {theta.n}], got {d}")
    approx, cost = _risk_terms(theta, eps, tau)
    return float(approx[d - 1] + cost[d - 1])


def effective_dimension(theta: Signal, eps: float, tau: float) -> OracleResult:
    """Smallest minimizer of the tau-error over d in {1..N}.

    Requires tail_energy <= tau * eps^2: then no dimension beyond the
    stored horizon can beat d = N, because each extra dimension costs at
    least tau * eps^2 while removing at most tail_energy of approximation
    error, so the finite minimization is exact.
    """
    _check_eps_tau(eps, tau)
    budget = tau * eps * eps
    if theta.tail_energy > budget:
        raise ValueError(
            "oracle horizon insufficient: tail_energy = "
            f"{theta.tail_energy:.6g} exceeds tau*eps^2 = {budget:.6g}; "
            "extend the signal horizon N until its stored tail energy "
            "drops below this threshold"
        )
    approx, cost = _risk_terms(theta, eps, tau)
    curve = approx + cost
    d_tau = int(np.argmin(curve)) + 1  # argmin takes the first, i.e. smallest, minimizer
    return OracleResult(d_tau=d_tau, r_tau=float(curve[d_tau - 1]), risk_curve=curve)


def tau_scaling_identity_check(theta: Signal, eps: float, tau: float) -> bool:
    """True iff reweighting by tau equals inflating the noise level by sqrt(tau)."""
    lhs = effective_dimension(theta, eps, tau).d_tau
    rhs = effective_dimension(theta, math.sqrt(tau) * eps, 1.0).d_tau
    return lhs == rhs


@dataclass(frozen=True)
class TailConditionReport:
    """Membership verdict for the energy-growth condition above d_tau."""

    member: bool
    first_violation: int | None
    d_tau: int
    horizon_warning: bool


def tail_condition(
    theta: Signal, eps: float, tau: float, t0: float, N0: int
) -> TailConditionReport:
    """Check sum_{i=d_tau+1}^{d_tau+d} theta_i^2 <= t0 * eps^2 * d for all d >= N0.

    Blocks are compared through upper values (rounding margin of
    _block_energy).  The first block reaching past the horizon is charged
    the entire remaining energy (stored suffix plus tail_energy), which
    certifies all infinitely many remaining d at once when that lump fits
    under the linear budget; the check can therefore report a false
    non-membership but never a false membership.
    """
    if not 0.0 < t0 < tau:
        raise ValueError(f"t0 must lie in (0, tau) = (0, {tau}), got {t0}")
    N0 = _integer(N0, "N0")
    d_tau = effective_dimension(theta, eps, tau).d_tau
    horizon = theta.n - d_tau
    # d = N0 .. horizon lie inside the stored range; the last d is past it
    ds = np.arange(N0, max(horizon + 1, N0) + 1)
    _, upper = _block_energy(theta, d_tau + 1, d_tau + ds)
    bad = np.nonzero(upper > t0 * eps * eps * ds)[0]
    first_violation = int(ds[bad[0]]) if bad.size else None
    return TailConditionReport(
        member=first_violation is None,
        first_violation=first_violation,
        d_tau=d_tau,
        horizon_warning=horizon < N0,
    )


@dataclass(frozen=True)
class HeadConditionReport:
    """Membership verdict for the energy lower bound below d_tau."""

    member: bool
    first_violation: int | None
    d_tau: int
    vacuous: bool


def head_condition(
    theta: Signal, eps: float, tau: float, H0: float, n0: int
) -> HeadConditionReport:
    """Check sum_{i=d_tau-d+1}^{d_tau} theta_i^2 >= H0 * eps^2 * d for n0 <= d <= d_tau.

    All head blocks lie inside the stored horizon; they are compared through
    lower values (margin of _block_energy), so member is certified.  When
    d_tau < n0 there is nothing to check and the condition holds vacuously
    (flagged in the report).
    """
    if not H0 > tau:
        raise ValueError(f"H0 must exceed tau = {tau}, got {H0}")
    n0 = _integer(n0, "n0")
    d_tau = effective_dimension(theta, eps, tau).d_tau
    ds = np.arange(n0, d_tau + 1)  # empty when d_tau < n0
    lower, _ = _block_energy(theta, d_tau - ds + 1, d_tau)
    bad = np.nonzero(lower < H0 * eps * eps * ds)[0]
    first_violation = int(ds[bad[0]]) if bad.size else None
    return HeadConditionReport(
        member=first_violation is None,
        first_violation=first_violation,
        d_tau=d_tau,
        vacuous=d_tau < n0,
    )


def risk_curve_csv(theta: Signal, eps: float, tau: float) -> str:
    """Risk curve as CSV with columns d, r_tau, approx_error, dim_cost."""
    _check_eps_tau(eps, tau)
    approx, cost = _risk_terms(theta, eps, tau)
    rows = zip(range(1, theta.n + 1), approx + cost, approx, cost)
    return _csv(["d,r_tau,approx_error,dim_cost"], rows)
