"""Independent oracles shared by the test modules.

These deliberately avoid the library's own code paths: the rate suprema
are found by concave grid refinement, power-law tails come from the
Hurwitz zeta function, the dimension posterior is rebuilt from raw
Gaussian density products, the class and condition checks are the plain
per-block sums they replace, and the Monte Carlo envelope is the scalar
per-replicate loop (one fresh generator, one posterior and one region
mass at a time) that the batched kernel replaced.
"""

import math

import numpy as np
from scipy.stats import norm

from effdim.posterior import PriorParams


def prior_with_A(A, varkappa, epsilon):
    """Back out kappa from a target penalty constant A = log(kappa+1) + 2vk."""
    return PriorParams(kappa=math.expm1(A - 2.0 * varkappa), varkappa=varkappa,
                       epsilon=epsilon)


def f_vec(h, a, t):
    return 0.5 * (a * h + np.log1p(-h) - t * h / (1.0 - h))


def g_vec(h, a, t):
    return 0.5 * (t * h / (1.0 + h) + np.log1p(h) - a * h)


def grid_max(fun, lo, hi, points=4097):
    """Two-stage grid maximum of a concave function on [lo, hi].

    For a concave function the true argmax lies within one coarse step of
    the coarse grid argmax, so refining that bracket is exact up to the
    fine-step curvature error.
    """
    h = np.linspace(lo, hi, points)
    v = fun(h)
    i = int(np.argmax(v))
    h2 = np.linspace(h[max(i - 1, 0)], h[min(i + 1, points - 1)], points)
    v2 = fun(h2)
    j = int(np.argmax(v2))
    return float(h2[j]), float(v2[j])


def grid_max_f(a, t):
    return grid_max(lambda h: f_vec(h, a, t), 0.0, 1.0 - 1e-6)


def grid_max_g(a, t):
    return grid_max(lambda h: g_vec(h, a, t), 0.0, 1.0)


def naive_effective_dimension(coeffs, tail_energy, eps, tau):
    """Per-d recomputation of the risk curve, no shared prefix sums."""
    coeffs = np.asarray(coeffs, dtype=float)
    best_d, best_r = None, math.inf
    for d in range(1, coeffs.size + 1):
        r = float(np.sum(coeffs[d:] ** 2)) + tail_energy + tau * d * eps * eps
        if r < best_r:
            best_d, best_r = d, r
    return best_d, best_r


def posterior_oracle(x, kappa, varkappa, eps):
    """Dimension posterior from raw Gaussian density products.

    Evaluates, for each d, the prior weight times the product over i <= n
    of the marginal density of X_i given dimension d (mean X_i and
    variance (kappa+1) eps^2 for i <= d, mean 0 and variance eps^2 past
    d), then normalizes, with the d > n continuation summed in closed
    form.  Returns (pmf over 1..n, tail mass).
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    c_vk = math.exp(varkappa) - 1.0

    def numerator(d):
        lam = c_vk * math.exp(-varkappa * d)
        prod = 1.0
        for i in range(1, n + 1):
            if i <= d:
                prod *= norm.pdf(x[i - 1], loc=x[i - 1], scale=math.sqrt((kappa + 1.0)) * eps)
            else:
                prod *= norm.pdf(x[i - 1], loc=0.0, scale=eps)
        return lam * prod

    nums = np.array([numerator(d) for d in range(1, n + 1)])
    # for d > n the density product no longer changes, only lambda_d decays
    common = nums[-1] / (c_vk * math.exp(-varkappa * n))
    tail_num = common * c_vk * math.exp(-varkappa * (n + 1)) / (1.0 - math.exp(-varkappa))
    z = float(np.sum(nums)) + tail_num
    return nums / z, tail_num / z


def loop_membership(theta, params):
    """Membership by one np.sum per block start, with no rounding margin.

    Returns (in_tail_class, tail_first_violation, blocks_hold,
    block_first_violation, n_blocks_checked) in MembershipReport order.
    """
    sq = np.asarray(theta.coeffs, dtype=float) ** 2
    n, s, Q = sq.size, params.s, params.Q
    tail_bad = [m for m in range(1, n + 1)
                if m ** (2.0 * s) * (float(np.sum(sq[m:])) + theta.tail_energy) > Q]
    checked, violation = 0, None
    start = int(params.N0)
    while math.ceil(params.rho0 * start) <= n:
        checked += 1
        if float(np.sum(sq[start - 1 : math.ceil(params.rho0 * start)])) < (
                params.alpha * Q / start ** (2.0 * s)):
            violation = start
            break
        start += 1
    return (not tail_bad, tail_bad[0] if tail_bad else None,
            checked > 0 and violation is None, violation, checked)


def cumsum_tail_condition(coeffs, tail_energy, d_tau, t0, eps, N0):
    """First violating d of the tail condition from a forward cumsum past
    d_tau, with the whole remaining energy charged to the first d past the
    horizon; None when every d passes."""
    sq = np.asarray(coeffs, dtype=float) ** 2
    horizon = sq.size - d_tau
    budget = t0 * eps * eps
    after = np.cumsum(sq[d_tau:])
    for d in range(N0, horizon + 1):
        if after[d - 1] > budget * d:
            return d
    first_open_d = max(horizon + 1, N0)
    if float(np.sum(sq[d_tau:])) + tail_energy > budget * first_open_d:
        return first_open_d
    return None


def cumsum_head_condition(coeffs, d_tau, H0, eps, n0):
    """First violating d of the head condition from a cumsum backwards from
    d_tau; None when every d passes (or none is checked)."""
    head = np.cumsum(np.asarray(coeffs, dtype=float)[:d_tau][::-1] ** 2)
    for d in range(n0, d_tau + 1):
        if head[d - 1] < H0 * eps * eps * d:
            return d
    return None


def loop_simulate(theta, eps, n, master_seed, r):
    """One replicate's data from a fresh Philox generator keyed (master_seed, r)."""
    key = np.array([master_seed % 2**64, r % 2**64], dtype=np.uint64)
    xi = np.random.Generator(np.random.Philox(key=key)).standard_normal(n)
    mean = np.zeros(n)
    m = min(n, theta.n)
    mean[:m] = theta.coeffs[:m]
    return mean + eps * xi


def loop_pmf(x, prior):
    """Scalar posterior of one data vector: (log weights, pmf, tail mass, MAP)."""
    d = np.arange(1, x.size + 1, dtype=float)
    values = -np.cumsum(x * x) + prior.A * prior.epsilon**2 * d
    lw = -values / (2.0 * prior.epsilon**2)
    try:
        log_tail = lw[-1] - math.log(math.expm1(prior.varkappa))
    except OverflowError:
        log_tail = lw[-1] - prior.varkappa
    shift = max(float(np.max(lw)), log_tail)
    w = np.exp(lw - shift)
    tail_w = math.exp(log_tail - shift)
    z = float(np.sum(w)) + tail_w
    return lw, w / z, tail_w / z, int(np.argmin(values)) + 1


def loop_region_mass(pmf, tail_mass, log_q, lo, hi):
    """Scalar mass of {lo <= D <= hi} from one posterior's pmf and lump."""
    n = pmf.size
    if lo > hi or hi < 1:
        return 0.0
    lo_idx = max(int(lo), 1)
    total = float(np.sum(pmf[lo_idx - 1 : int(min(hi, n))]))
    if hi > n:
        a = max(lo_idx - n, 1)
        total += (tail_mass * math.exp((a - 1) * log_q)
                  * -math.expm1((hi - n - a + 1) * log_q))
    return total


def loop_envelope(theta, prior, cfg, regions):
    """(posterior_mass, mass_se, dhat_freq, freq_se) per offset, one replicate
    at a time, as the envelope check computed them before batching."""
    R = cfg.replicates
    masses = [[0.0] * R for _ in regions]
    hits = [0] * len(regions)
    for r in range(R):
        x = loop_simulate(theta, prior.epsilon, cfg.n, cfg.master_seed, r)
        _, pmf, tail, d_hat = loop_pmf(x, prior)
        for j, intervals in enumerate(regions):
            for lo, hi in intervals:
                masses[j][r] += loop_region_mass(pmf, tail, -prior.varkappa, lo, hi)
                hits[j] += lo <= d_hat <= hi
    rows = []
    for j in range(len(regions)):
        freq = hits[j] / R
        rows.append((float(np.mean(masses[j])),
                     float(np.std(masses[j], ddof=1) / math.sqrt(R)),
                     freq, math.sqrt(freq * (1.0 - freq) / R)))
    return rows
