"""Monte Carlo verification of the one-sided, two-sided and lower-bound
concentration results, plus smoothness estimation on self-similar signals.

Every experiment is a deterministic function of its configuration and the
master seed: replicate r uses the noise stream keyed by (master_seed, r).
Replicates are processed in row blocks; every per-replicate result lands in
an array over all R before any mean or standard error is taken, so results
are identical for any block size and reproduce bit for bit.
Empirical frequencies and posterior masses are compared against the
theoretical envelopes at a 3-sigma tolerance; envelopes that exceed 1 are
reported but flagged vacuous and never counted as evidence.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field

import numpy as np

from .oracle import effective_dimension, head_condition, tail_condition
from .posterior import PriorParams, _crit_rows, _posterior_rows, _region_rows
from .rates import f_sup, g_sup
from .signals import (
    Signal,
    SmoothnessClassParams,
    _csv,
    _fmt,
    _integer,
    _replicate_blocks,
    adversarial_pair,
    self_similar_signal,
)

__all__ = [
    "MCConfig",
    "BoundRow",
    "ExperimentReport",
    "LowerBoundReport",
    "SmoothnessRow",
    "SmoothnessReport",
    "mc_overshoot",
    "mc_undershoot",
    "mc_two_sided",
    "lower_bound_floor",
    "lower_bound_experiment",
    "smoothness_estimate",
    "smoothness_sweep",
    "report_csv",
]

REPORT_HEADER_PREFIX = "# effdim-report v1"

# Minimum replicate count for any report that states standard errors.
MIN_REPLICATES_FOR_SE = 100


@dataclass(frozen=True)
class MCConfig:
    """Replicate count, data length, master seed and bound offsets."""

    replicates: int
    n: int
    master_seed: int
    offsets: tuple[int, ...]

    def __post_init__(self):
        for name, least in (("replicates", 1), ("n", 1), ("master_seed", -math.inf)):
            object.__setattr__(self, name, _integer(getattr(self, name), name, least))
        offs = tuple(_integer(m, "offsets") for m in self.offsets)
        if not offs:
            raise ValueError(f"offsets must be positive integers, got {self.offsets}")
        object.__setattr__(self, "offsets", offs)


@dataclass(frozen=True)
class BoundRow:
    """One offset of an envelope check.

    `satisfied` means both empirical columns sit below the envelope plus
    three standard errors; rows whose envelope is >= 1 are vacuous.
    """

    offset: int
    posterior_mass: float
    mass_se: float
    dhat_freq: float
    freq_se: float
    theory_bound: float
    vacuous: bool
    satisfied: bool


@dataclass(frozen=True)
class ExperimentReport:
    """Envelope-check rows plus the full configuration that produced them."""

    kind: str
    rows: tuple[BoundRow, ...]
    meta: dict

    @property
    def all_satisfied(self) -> bool:
        """True iff every non-vacuous row is satisfied."""
        return all(r.satisfied for r in self.rows if not r.vacuous)


def _require_se_replicates(cfg: MCConfig) -> None:
    if cfg.replicates < MIN_REPLICATES_FOR_SE:
        raise ValueError(
            f"replicates = {cfg.replicates} < {MIN_REPLICATES_FOR_SE}: too few "
            "to report standard errors"
        )


def _require_A(what: str, A: float, op: str, name: str, t: float) -> None:
    """Require A > 1 + t (op ">") or A < 1 + t (op "<"), t being named `name`."""
    if not (A > 1.0 + t if op == ">" else A < 1.0 + t):
        raise ValueError(
            f"{what} requires A {op} 1 + {name}: A = {A:.6g}, 1 + {name} = {1 + t:.6g}"
        )


def _map_dimensions(theta: Signal, prior: PriorParams, cfg: MCConfig,
                    first: int = 0) -> np.ndarray:
    """MAP dimensions of replicates first .. first + R - 1, by the MAP-only path."""
    blocks = _replicate_blocks(theta, prior.epsilon, cfg.n, cfg.master_seed,
                               first, cfg.replicates)
    return np.concatenate([_crit_rows(X, prior)[1] for X in blocks])


def _envelope_report(kind: str, theta: Signal, prior: PriorParams, tau: float,
                     cfg: MCConfig, label: str | None, rates: dict, d_tau: int,
                     regions, extra: dict | None = None) -> ExperimentReport:
    """Compare the posterior mass and MAP frequency of each offset's region
    with the envelope sum over rates of exp(-rate*m)/rate.

    regions[j] lists the disjoint (lo, hi) intervals, hi possibly
    math.inf, whose union is the region of offset cfg.offsets[j].  A row
    is satisfied when both empirical columns sit below the envelope plus
    three standard errors; envelopes >= 1 are vacuous.
    """
    _require_se_replicates(cfg)
    if label is not None and (label.split() != [label] or "=" in label):
        # the label is one value of the space-separated key=value header
        raise ValueError(f"label must be nonempty, without whitespace or '=', got {label!r}")
    offsets, R = cfg.offsets, cfg.replicates
    masses = np.zeros((len(offsets), R))
    # replicates whose MAP lands in each region; the intervals are disjoint,
    # so a replicate counts at most once
    hits = [0] * len(offsets)
    start = 0
    for X in _replicate_blocks(theta, prior.epsilon, cfg.n, cfg.master_seed, 0, R):
        d_hat, _, w, tail = _posterior_rows(X, prior)
        block = slice(start, start + len(X))
        start += len(X)
        for j, intervals in enumerate(regions):
            for lo, hi in intervals:
                masses[j, block] += _region_rows(w, tail, -prior.varkappa, lo, hi)
                hits[j] += int(np.count_nonzero((lo <= d_hat) & (d_hat <= hi)))
    rows = []
    for j, m in enumerate(offsets):
        mass = float(np.mean(masses[j]))
        mass_se = float(np.std(masses[j], ddof=1) / math.sqrt(R))
        freq = hits[j] / R
        freq_se = math.sqrt(freq * (1.0 - freq) / R)
        bound = sum(math.exp(-rate * m) / rate for rate in rates.values())
        rows.append(
            BoundRow(
                offset=int(m),
                posterior_mass=mass,
                mass_se=mass_se,
                dhat_freq=freq,
                freq_se=freq_se,
                theory_bound=bound,
                vacuous=bound >= 1.0,
                satisfied=(mass <= bound + 3.0 * mass_se)
                and (freq <= bound + 3.0 * freq_se),
            )
        )
    meta = {
        "kind": kind,
        "theta": label or f"signal(N={theta.n},energy={theta.total_energy:.6g})",
        "eps": prior.epsilon,
        "tau": tau,
        "kappa": prior.kappa,
        "varkappa": prior.varkappa,
        "A": prior.A,
        **rates,
        "d_tau": d_tau,
        "R": R,
        "n": cfg.n,
        "master_seed": cfg.master_seed,
        "offsets": ",".join(str(m) for m in offsets),
        **(extra or {}),
    }
    return ExperimentReport(kind=kind, rows=tuple(rows), meta=meta)


def mc_overshoot(theta: Signal, prior: PriorParams, tau: float, cfg: MCConfig,
                 label: str | None = None) -> ExperimentReport:
    """Check the overshoot envelope exp(-alpha*m)/alpha, alpha = f_sup(A, tau).

    Requires A > 1 + tau.  For each offset m, measures the mean posterior
    mass of {D >= d_tau + m} and the frequency of {d_hat >= d_tau + m}.
    """
    _require_A("overshoot control", prior.A, ">", "tau", tau)
    d = effective_dimension(theta, prior.epsilon, tau).d_tau
    return _envelope_report(
        "overshoot", theta, prior, tau, cfg, label, {"alpha": f_sup(prior.A, tau).value},
        d, [[(d + m, math.inf)] for m in cfg.offsets],
    )


def mc_undershoot(theta: Signal, prior: PriorParams, tau: float, cfg: MCConfig,
                  label: str | None = None) -> ExperimentReport:
    """Check the undershoot envelope exp(-beta*m)/beta, beta = g_sup(A, tau).

    Requires A < 1 + tau.  For each offset m, measures the mean posterior
    mass of {D <= d_tau - m} and the frequency of {d_hat <= d_tau - m};
    offsets at or beyond d_tau give empty regions and mass 0.
    """
    _require_A("undershoot control", prior.A, "<", "tau", tau)
    d = effective_dimension(theta, prior.epsilon, tau).d_tau
    return _envelope_report(
        "undershoot", theta, prior, tau, cfg, label, {"beta": g_sup(prior.A, tau).value},
        d, [[(1, d - m)] for m in cfg.offsets],
    )


def mc_two_sided(theta: Signal, prior: PriorParams, tau: float, cfg: MCConfig,
                 t0: float | None = None, N0: int | None = None,
                 H0: float | None = None, n0: int | None = None,
                 label: str | None = None) -> ExperimentReport:
    """Check the two-sided envelope exp(-alpha*m)/alpha + exp(-beta*m)/beta.

    Pass (t0, N0) for the tail-condition case, which requires
    1 + t0 < A < 1 + tau, or (H0, n0) for the head-condition case, which
    requires 1 + tau < A < 1 + H0.  Membership of theta in the stated
    condition is verified before any simulation.  Each offset m plays the
    role of both interval margins, so offsets must respect the condition's
    starting index (m >= N0, resp. m >= n0).
    """
    tail_case = t0 is not None or N0 is not None
    if tail_case == (H0 is not None or n0 is not None):
        raise ValueError("pass exactly one of (t0, N0) or (H0, n0)")
    if tail_case:
        kind, case, margin, condition = "two-sided-i", "tail", "upper", tail_condition
        t_name, t, start_name, start = "t0", t0, "N0", N0
        lower, upper = (t_name, t), ("tau", tau)
    else:
        kind, case, margin, condition = "two-sided-ii", "head", "lower", head_condition
        t_name, t, start_name, start = "H0", H0, "n0", n0
        lower, upper = ("tau", tau), (t_name, t)
    if t is None or start is None:
        raise ValueError(f"the {case}-condition case needs both {t_name} and {start_name}")
    what = f"two-sided control ({case} case)"
    _require_A(what, prior.A, ">", *lower)
    _require_A(what, prior.A, "<", *upper)
    membership = condition(theta, prior.epsilon, tau, t, start)
    if not membership.member:
        raise ValueError(
            f"{case} condition membership fails: first violation at "
            f"d = {membership.first_violation}"
        )
    if min(cfg.offsets) < start:
        raise ValueError(
            f"offsets must be >= {start_name} = {start}: the {margin} margin of the "
            "two-sided control starts there"
        )
    rates = {"alpha": f_sup(prior.A, lower[1]).value, "beta": g_sup(prior.A, upper[1]).value}
    d = membership.d_tau
    return _envelope_report(
        kind, theta, prior, tau, cfg, label, rates,
        d, [[(1, d - m - 1), (d + m + 1, math.inf)] for m in cfg.offsets],
        extra={t_name: t, start_name: int(start)},
    )


def lower_bound_floor(Delta: float) -> float:
    """Two-point confusion floor 1 + 2*Delta - 2*sqrt(Delta^2 + Delta).

    Lies in (0, 1) for every Delta > 1 and decreases in Delta.
    """
    if not Delta > 1.0:
        raise ValueError(f"Delta must exceed 1, got {Delta}")
    return 1.0 + 2.0 * Delta - 2.0 * math.sqrt(Delta * Delta + Delta)


@dataclass(frozen=True)
class LowerBoundReport:
    """Estimated confusion probabilities for the adversarial pair."""

    p1: float
    se1: float
    p2: float
    se2: float
    total: float
    combined_se: float
    delta_prime: float
    satisfied: bool
    meta: dict = field(default_factory=dict)


def lower_bound_experiment(tau: float, eps: float, L1: int, L2: int, Delta: float,
                           prior: PriorParams, cfg: MCConfig) -> LowerBoundReport:
    """Estimate the unavoidable two-sided error of the MAP dimension.

    Builds the adversarial pair, estimates p1 = P(d_hat >= d_tau' + L1)
    under the short signal and p2 = P(d_hat <= d_tau'' - L2) under the
    long one, and checks p1 + p2 >= floor(Delta) - 3 * combined SE.  The
    floor holds for every estimator, so in particular for d_hat; the
    check is one-sided.
    """
    _require_se_replicates(cfg)
    if prior.epsilon != eps:
        raise ValueError(
            f"prior eps = {prior.epsilon} does not match experiment eps = {eps}"
        )
    short, long = adversarial_pair(tau, eps, L1, L2, Delta)
    d_short = effective_dimension(short, eps, tau).d_tau
    d_long = effective_dimension(long, eps, tau).d_tau
    R = cfg.replicates
    # the short signal uses replicates 0 .. R-1, the long one R .. 2R-1
    p1 = float(np.mean(_map_dimensions(short, prior, cfg) >= d_short + L1))
    p2 = float(np.mean(_map_dimensions(long, prior, cfg, first=R) <= d_long - L2))
    se1 = math.sqrt(p1 * (1.0 - p1) / R)
    se2 = math.sqrt(p2 * (1.0 - p2) / R)
    combined = math.hypot(se1, se2)
    floor = lower_bound_floor(Delta)
    meta = {
        "kind": "lower-bound",
        "tau": tau,
        "eps": eps,
        "L1": int(L1),
        "L2": int(L2),
        "Delta": Delta,
        "kappa": prior.kappa,
        "varkappa": prior.varkappa,
        "A": prior.A,
        "d_tau_short": d_short,
        "d_tau_long": d_long,
        "R": R,
        "n": cfg.n,
        "master_seed": cfg.master_seed,
    }
    return LowerBoundReport(
        p1=p1,
        se1=se1,
        p2=p2,
        se2=se2,
        total=p1 + p2,
        combined_se=combined,
        delta_prime=floor,
        satisfied=p1 + p2 >= floor - 3.0 * combined,
        meta=meta,
    )


def smoothness_estimate(dhat: int, eps: float) -> float:
    """Invert the dimension/smoothness scaling: (log(eps^-2)/log(dhat) - 1)/2.

    Needs dhat >= 2 (so the log is positive) and eps < 1.
    """
    if not dhat >= 2:
        raise ValueError(f"dhat must be >= 2, got {dhat}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"eps must lie in (0, 1), got {eps}")
    return 0.5 * (math.log(eps**-2) / math.log(dhat) - 1.0)


@dataclass(frozen=True)
class SmoothnessRow:
    """Per-noise-level summary of oracle dimension and smoothness recovery."""

    eps: float
    d_tau: int
    dhat_median: float
    shat_median: float
    median_abs_err: float
    n_undefined: int
    outside_freq: float
    ratio: float
    bracket_lo: float
    bracket_hi: float


@dataclass(frozen=True)
class SmoothnessReport:
    """Smoothness sweep rows plus the grid-level consistency checks."""

    rows: tuple[SmoothnessRow, ...]
    meta: dict

    @property
    def d_tau_nondecreasing(self) -> bool:
        d = [r.d_tau for r in self.rows]
        return all(d[i + 1] >= d[i] for i in range(len(d) - 1))

    @property
    def median_err_nonincreasing(self) -> bool:
        e = [r.median_abs_err for r in self.rows]
        return all(e[i + 1] <= e[i] for i in range(len(e) - 1))

    @property
    def ratio_band(self) -> float:
        ratios = [r.ratio for r in self.rows]
        return max(ratios) / min(ratios)


def smoothness_sweep(class_params: SmoothnessClassParams, prior_template: PriorParams,
                     tau: float, eps_grid, cfg: MCConfig, signal_N: int = 512,
                     c_lo: float = 0.5, c_hi: float = 2.0) -> SmoothnessReport:
    """Sweep the noise level on a self-similar signal.

    eps_grid must be strictly decreasing.  prior_template fixes (kappa,
    varkappa); the noise level of the prior follows the grid.  For each
    eps the sweep records the oracle dimension, the MAP dimension over
    cfg.replicates replicates, the smoothness estimate where defined
    (MAP >= 2), the frequency of the MAP landing outside
    [c_lo * d_tau, c_hi * d_tau], and the scaling ratio
    d_tau * (tau * eps^-2)^(-1/(2s+1)).
    """
    eps_grid = [float(e) for e in eps_grid]
    if not eps_grid or any(
        eps_grid[i + 1] >= eps_grid[i] for i in range(len(eps_grid) - 1)
    ):
        raise ValueError("eps_grid must be strictly decreasing")
    if not all(0.0 < eps < 1.0 for eps in eps_grid):
        raise ValueError(f"eps_grid values must lie in (0, 1), got {eps_grid}")
    if not 0.0 < c_lo < 1.0 < c_hi:
        raise ValueError(f"need c_lo < 1 < c_hi, got {c_lo}, {c_hi}")
    theta = self_similar_signal(class_params, signal_N)
    s = class_params.s
    rows = []
    R = cfg.replicates
    for e_idx, eps in enumerate(eps_grid):
        d_tau = effective_dimension(theta, eps, tau).d_tau
        prior = PriorParams(prior_template.kappa, prior_template.varkappa, eps)
        dhats = _map_dimensions(theta, prior, cfg, first=e_idx * R)
        # one estimate per distinct MAP dimension, spread back over the replicates
        defined, where = np.unique(dhats[dhats >= 2], return_inverse=True)
        shats = np.array([smoothness_estimate(int(d), eps) for d in defined])[where]
        outside = int(np.count_nonzero((dhats < c_lo * d_tau) | (dhats > c_hi * d_tau)))
        L = math.log(eps**-2)
        rows.append(
            SmoothnessRow(
                eps=eps,
                d_tau=d_tau,
                dhat_median=float(np.median(dhats)),
                shat_median=float(np.median(shats)) if shats.size else math.nan,
                median_abs_err=(
                    float(np.median(np.abs(shats - s))) if shats.size else math.nan
                ),
                n_undefined=R - shats.size,
                outside_freq=outside / R,
                ratio=d_tau * (tau * eps**-2) ** (-1.0 / (2.0 * s + 1.0)),
                bracket_lo=s - math.log(class_params.Q) / L,
                bracket_hi=s + math.log(1.0 / class_params.alpha) / L,
            )
        )
    meta = {
        "kind": "smoothness",
        "s": s,
        "Q": class_params.Q,
        "alpha": class_params.alpha,
        "rho0": class_params.rho0,
        "N0": class_params.N0,
        "tau": tau,
        "kappa": prior_template.kappa,
        "varkappa": prior_template.varkappa,
        "A": prior_template.A,
        "signal_N": int(signal_N),
        "c_lo": c_lo,
        "c_hi": c_hi,
        "R": R,
        "n": cfg.n,
        "master_seed": cfg.master_seed,
        "eps_grid": ",".join(f"{e:g}" for e in eps_grid),
    }
    return SmoothnessReport(rows=tuple(rows), meta=meta)


def _report_text(meta: dict, columns: str, rows, footer: tuple = ()) -> str:
    """Header line carrying the config, column names, one line per row."""
    header = " ".join([REPORT_HEADER_PREFIX, *(f"{k}={_fmt(v)}" for k, v in meta.items())])
    return _csv([header, columns], rows, footer)


def report_csv(report) -> str:
    """Deterministic CSV for any report type, config carried in the header.

    Fields are written by signals._fmt: floats at 17 significant digits
    (exact round trip) and booleans as 0/1.
    """
    if isinstance(report, ExperimentReport):
        return _report_text(
            report.meta,
            "offset,posterior_mass,mass_se,dhat_freq,freq_se,theory_bound,vacuous,satisfied",
            map(astuple, report.rows),
        )
    if isinstance(report, LowerBoundReport):
        return _report_text(
            report.meta,
            "p1,se1,p2,se2,sum,combined_se,delta_prime,satisfied",
            [astuple(report)[:-1]],  # every field but meta
        )
    if isinstance(report, SmoothnessReport):
        return _report_text(
            report.meta,
            "eps,d_tau,dhat_median,shat_median,median_abs_err,n_undefined,"
            "outside_freq,ratio,bracket_lo,bracket_hi",
            map(astuple, report.rows),
            footer=(
                "# note: the bracket columns are descriptive endpoints only; the "
                "direction of the underlying probability statement is ambiguous, so "
                "the asserted checks are the consistency rate and the interval "
                "frequency, not the bracket itself",
            ),
        )
    raise TypeError(f"unknown report type: {type(report)!r}")
