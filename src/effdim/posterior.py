"""Empirical-Bayes posterior over the model dimension and its MAP estimator.

After plugging the data prefix in for the prior means, the posterior
weight of dimension d reduces (up to a d-independent factor) to

    log w(d) = -varkappa*d + (1/2) sum_{i<=d} X_i^2 / eps^2 - (d/2) log(kappa+1),

which equals -crit(d) / (2 eps^2) for the penalized criterion
crit(d) = -sum_{i<=d} X_i^2 + A eps^2 d with A = log(kappa+1) + 2 varkappa.
Dimensions beyond the data length are information-free and carry a
geometric weight continuation, aggregated analytically into one lump.
`pmf` evaluates crit once and also returns the MAP dimension, post.d_hat;
`map_dimension` is the MAP-only path that skips the pmf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .rates import penalty_constant
from .signals import Observation, _csv

__all__ = [
    "PriorParams",
    "PosteriorOverD",
    "log_weights",
    "pmf",
    "map_dimension",
    "crit",
    "posterior_mean_theta",
    "region_mass",
    "pmf_csv",
]


@dataclass(frozen=True)
class PriorParams:
    """Prior hyperparameters (kappa, varkappa) and the noise level.

    kappa scales the prior variance on the active coordinates, varkappa
    is the geometric decay of the dimension prior.  kappa <= e-1 is
    rejected outright: below that the posterior over the dimension does
    not exist.  All three and A*epsilon^2 must be finite, epsilon^2 > 0.
    A is the penalty constant log(kappa+1) + 2*varkappa, always > 1; it is
    computed once here and takes no part in comparison or repr.
    """

    kappa: float
    varkappa: float
    epsilon: float
    A: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        A = penalty_constant(self.kappa, self.varkappa)  # validates both
        object.__setattr__(self, "A", A)
        eps2 = self.epsilon * self.epsilon  # the posterior scales by A*eps^2, divides by eps^2
        if not (self.epsilon > 0 and eps2 > 0.0 and A * eps2 < math.inf):
            raise ValueError(
                "epsilon must be positive and finite, with epsilon^2 > 0 and "
                f"A*epsilon^2 = {A * eps2:.6g} finite, got {self.epsilon}"
            )


@dataclass(frozen=True)
class PosteriorOverD:
    """Normalized pmf over d = 1..n plus the aggregated mass on {d > n},
    the lump's log ratio log_q = -varkappa and the MAP dimension d_hat."""

    log_weights: np.ndarray
    pmf: np.ndarray
    tail_mass: float
    n: int
    log_q: float
    d_hat: int


def _data_vector(x, prior: PriorParams) -> np.ndarray:
    if isinstance(x, Observation):
        if x.epsilon != prior.epsilon:
            raise ValueError(
                f"observation eps = {x.epsilon} does not match prior eps = {prior.epsilon}"
            )
        return x.x
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError("data must be a nonempty 1-d vector")
    return arr


def _crit_values(x, prior: PriorParams) -> np.ndarray:
    xv = _data_vector(x, prior)
    d = np.arange(1, xv.size + 1, dtype=float)
    values = -np.cumsum(xv * xv) + prior.A * prior.epsilon**2 * d
    if not math.isfinite(values[-1]):  # cumsum carries any nan or inf to the end
        raise ValueError(f"crit(n) = {values[-1]}: the data and their sums must be finite")
    return values


def log_weights(x, prior: PriorParams) -> np.ndarray:
    """Unnormalized log posterior weights for d = 1..n.

    Equal to the log numerator of the dimension posterior up to an
    additive constant that does not depend on d.  For d > n the weights
    continue geometrically, log w(n+k) = log w(n) - varkappa*k; that part
    is handled analytically by `pmf` and never materialized.
    """
    return -_crit_values(x, prior) / (2.0 * prior.epsilon**2)


def pmf(x, prior: PriorParams) -> PosteriorOverD:
    """Normalized posterior over {1..n} with the {d > n} lump.

    A single max-shift before exponentiation keeps the normalization safe
    even when sum X_i^2 / eps^2 reaches thousands; crit(d) / eps^2 past
    the double range leaves no finite shift and is a ValueError.
    """
    values = _crit_values(x, prior)
    lw = -values / (2.0 * prior.epsilon**2)
    # geometric continuation: sum_{k>=1} w(n) e^{-varkappa k} = w(n) / (e^varkappa - 1)
    try:
        log_tail = lw[-1] - math.log(math.expm1(prior.varkappa))
    except OverflowError:  # e^varkappa overflows, and then log(e^varkappa - 1) = varkappa
        log_tail = lw[-1] - prior.varkappa
    shift = max(float(np.max(lw)), log_tail)
    if not math.isfinite(shift):
        raise ValueError(f"log posterior weights overflow at eps = {prior.epsilon}")
    w = np.exp(lw - shift)
    tail_w = math.exp(log_tail - shift)
    z = float(np.sum(w)) + tail_w
    return PosteriorOverD(
        log_weights=lw, pmf=w / z, tail_mass=tail_w / z, n=int(lw.size),
        log_q=-prior.varkappa, d_hat=int(np.argmin(values)) + 1,
    )


def map_dimension(x, prior: PriorParams) -> int:
    """Smallest maximizer of the posterior pmf over d in {1..n}.

    Identical to the smallest minimizer of crit; the {d > n} continuation
    is strictly decreasing, so it never wins.
    """
    return int(np.argmin(_crit_values(x, prior))) + 1


def crit(d: int, x, prior: PriorParams) -> float:
    """Penalized criterion -sum_{i<=d} X_i^2 + A * eps^2 * d."""
    values = _crit_values(x, prior)
    if not 1 <= d <= values.size:
        raise IndexError(f"d must lie in [1, {values.size}], got {d}")
    return float(values[d - 1])


def posterior_mean_theta(x, prior: PriorParams) -> np.ndarray:
    """Plug-in posterior mean: the data truncated at the MAP dimension."""
    xv = _data_vector(x, prior)
    d_hat = map_dimension(xv, prior)
    out = np.zeros_like(xv)
    out[:d_hat] = xv[:d_hat]
    return out


def region_mass(post: PosteriorOverD, lo: int, hi) -> float:
    """Posterior mass of {lo <= D <= hi} for integers lo, hi; hi may be math.inf.

    The {d > n} lump is geometric, w(n + k) = w(n) q^k with q = e^log_q,
    so its share of any interval is exact: dimensions n+a .. n+b carry
    tail_mass * q^(a-1) * (1 - q^(b-a+1)).  For b = inf the last factor is
    exactly 1, and for a = 1 the first is, so the whole lump is tail_mass
    itself.  An empty region has mass 0.
    """
    if lo > hi or hi < 1:
        return 0.0
    lo_idx = max(int(lo), 1)
    total = float(np.sum(post.pmf[lo_idx - 1 : int(min(hi, post.n))]))
    if hi > post.n:
        a = max(lo_idx - post.n, 1)  # the region starts at lump dimension n + a
        total += (post.tail_mass * math.exp((a - 1) * post.log_q)
                  * -math.expm1((hi - post.n - a + 1) * post.log_q))
    return total


def pmf_csv(post: PosteriorOverD) -> str:
    """pmf as CSV with columns d, pmf, cumulative; final row is the tail lump."""
    masses = np.append(post.pmf, post.tail_mass)
    rows = zip([*range(1, post.n + 1), "tail"], masses, np.cumsum(masses))
    return _csv(["d,pmf,cumulative"], rows)
