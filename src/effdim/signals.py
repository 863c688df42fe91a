"""Test-signal construction and simulation of noisy observations.

Signals are finite coefficient vectors together with a certified upper
value for the energy beyond the stored range, which keeps every
downstream computation (oracle dimension, posterior, class membership)
finite and exactly checkable.

Noise is generated by a counter-based keyed stream (Philox), so draw i
of replicate r is a pure function of (master seed, r, i); replicates can
be simulated in any order, or concurrently, with identical results.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

# Power-law tails: terms summed directly before the Euler-Maclaurin
# remainder takes over, and the outward rounding margin (16 units of
# double-precision roundoff), which covers the few roundings in each term.
TAIL_DIRECT_TERMS = 16
TAIL_ROUNDING_MARGIN = 16 * 2.0**-53

__all__ = [
    "Signal",
    "Observation",
    "SmoothnessClassParams",
    "MembershipReport",
    "zero_signal",
    "simulate",
    "power_law_signal",
    "adversarial_pair",
    "self_similar_signal",
    "check_membership",
    "save_signal",
    "load_signal",
]


@dataclass(frozen=True)
class Signal:
    """Finite coefficient vector plus an upper value for the tail energy.

    `tail_energy` certifies sum of squared coefficients beyond the stored
    range; 0 means the signal is exactly the stored vector.
    """

    coeffs: np.ndarray
    tail_energy: float = 0.0

    def __post_init__(self):
        arr = np.asarray(self.coeffs, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("coeffs must be a nonempty 1-d vector")
        if not np.all(np.isfinite(arr)):
            raise ValueError("coeffs must be finite")
        if not (np.isfinite(self.tail_energy) and self.tail_energy >= 0.0):
            raise ValueError(f"tail_energy must be >= 0, got {self.tail_energy}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def n(self) -> int:
        """Number of explicitly stored coefficients."""
        return int(self.coeffs.size)

    @property
    def total_energy(self) -> float:
        """Stored energy plus the certified tail value."""
        return float(np.sum(self.coeffs**2)) + self.tail_energy


@dataclass(frozen=True)
class Observation:
    """Simulated data prefix, its noise level and the stream key used."""

    x: np.ndarray
    epsilon: float
    seed_trace: tuple

    def __post_init__(self):
        arr = np.asarray(self.x, dtype=float)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("x must be a nonempty 1-d vector")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "x", arr)
        object.__setattr__(self, "seed_trace", tuple(int(v) for v in self.seed_trace))

    @property
    def n(self) -> int:
        return int(self.x.size)


@dataclass(frozen=True)
class SmoothnessClassParams:
    """Parameters of the self-similar smoothness class.

    s is the smoothness, Q the class radius, alpha the retained block
    fraction, rho0 the block width factor and N0 the first block start.
    """

    s: float
    Q: float
    alpha: float
    rho0: float
    N0: int

    def __post_init__(self):
        if not self.s > 0:
            raise ValueError(f"s must be positive, got {self.s}")
        if not self.Q > 0:
            raise ValueError(f"Q must be positive, got {self.Q}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in (0, 1), got {self.alpha}")
        if not self.rho0 > 1.0:
            raise ValueError(f"rho0 must exceed 1, got {self.rho0}")
        if not (isinstance(self.N0, (int, np.integer)) and self.N0 >= 1):
            raise ValueError(f"N0 must be a positive integer, got {self.N0}")


def zero_signal(n: int) -> Signal:
    """The zero signal on n stored coordinates."""
    if not n >= 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return Signal(np.zeros(int(n)), 0.0)


def _philox_key(seed) -> np.ndarray:
    """Normalize a replicate identifier into a 128-bit Philox key."""
    if isinstance(seed, (tuple, list, np.ndarray)):
        parts = [int(v) for v in seed]
        if len(parts) != 2:
            raise ValueError("tuple seeds must have exactly two components")
    else:
        parts = [int(seed), 0]
    return np.array([p % 2**64 for p in parts], dtype=np.uint64)


def simulate(theta: Signal, eps: float, n: int, seed) -> Observation:
    """Observe X_i = theta_i + eps * xi_i for i = 1..n.

    Coefficients beyond the stored range of `theta` are taken to be zero,
    so for n > theta.n the extra coordinates are pure noise.  The noise
    stream is keyed by `seed` (an int, or an (int, int) pair such as
    (master_seed, replicate)); the same arguments always reproduce the
    same Observation bit for bit.
    """
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if not n >= 1:
        raise ValueError(f"n must be >= 1, got {n}")
    n = int(n)
    key = _philox_key(seed)
    gen = np.random.Generator(np.random.Philox(key=key))
    xi = gen.standard_normal(n)
    mean = np.zeros(n)
    m = min(n, theta.n)
    mean[:m] = theta.coeffs[:m]
    return Observation(x=mean + eps * xi, epsilon=float(eps), seed_trace=tuple(key))


def _power_tail_bracket(p: float, m: int) -> tuple[float, float]:
    """Lower/upper bracket for sum_{i>m} i^-p with p > 1.

    The first TAIL_DIRECT_TERMS terms are summed with math.fsum.  The rest,
    sum_{i>=a} i^-p, is the Euler-Maclaurin expansion (DLMF 2.10.1)

        a^(1-p)/(p-1) + a^-p/2 + p a^(-p-1)/12
          - p(p+1)(p+2) a^(-p-3)/720 + p(p+1)...(p+4) a^(-p-5)/30240,

    whose error is at most the first omitted term,
    p(p+1)...(p+6) a^(-p-7)/1209600, because every even derivative of
    x^-p is positive.  That bound widens the bracket, which is then
    rounded outward by TAIL_ROUNDING_MARGIN.
    """
    m = int(m)
    a = m + TAIL_DIRECT_TERMS + 1
    direct = math.fsum(float(i) ** -p for i in range(m + 1, a))
    r3 = p * (p + 1.0) * (p + 2.0)
    r5 = r3 * (p + 3.0) * (p + 4.0)
    r7 = r5 * (p + 5.0) * (p + 6.0)
    a_p = float(a) ** -p
    remainder = math.fsum([
        a * a_p / (p - 1.0),
        a_p / 2.0,
        p * a_p / (12.0 * a),
        -r3 * a_p / (720.0 * a**3),
        r5 * a_p / (30240.0 * a**5),
    ])
    error = r7 * a_p / (1209600.0 * a**7)
    value = direct + remainder
    return (
        (value - error) * (1.0 - TAIL_ROUNDING_MARGIN),
        (value + error) * (1.0 + TAIL_ROUNDING_MARGIN),
    )


def power_law_signal(s: float, c: float, N: int) -> Signal:
    """Signal with theta_i = c * i^-(s + 1/2) for i <= N.

    The energy beyond N, c^2 * sum_{i>N} i^-(2s+1), is certified by a
    short exact sum plus a bounded Euler-Maclaurin remainder; the upper
    bracket is stored so that membership checks stay conservative.
    """
    if not s > 0:
        raise ValueError(f"s must be positive, got {s}")
    if not c > 0:
        raise ValueError(f"c must be positive, got {c}")
    if not N >= 1:
        raise ValueError(f"N must be >= 1, got {N}")
    i = np.arange(1, int(N) + 1, dtype=float)
    coeffs = c * i ** -(s + 0.5)
    _, tail_upper = _power_tail_bracket(2.0 * s + 1.0, int(N))
    return Signal(coeffs, c * c * tail_upper)


def adversarial_pair(
    tau: float, eps: float, L1: int, L2: int, Delta: float
) -> tuple[Signal, Signal]:
    """Two signals that are statistically near-indistinguishable yet have
    effective dimensions 1 and L1+L2+1.

    Both start with a common coordinate eps*sqrt(2*tau); the next L1+L2
    coordinates sit just below (first signal) or just above (second
    signal) the inclusion threshold eps*sqrt(tau), with the gap sized so
    that exp(||difference||^2 / eps^2) = Delta.
    """
    if not Delta > 1.0:
        raise ValueError(f"Delta must exceed 1, got {Delta}")
    if not tau > 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if not eps > 0:
        raise ValueError(f"eps must be positive, got {eps}")
    if not (L1 >= 1 and L2 >= 1):
        raise ValueError(f"L1 and L2 must be >= 1, got {L1}, {L2}")
    L = int(L1) + int(L2)
    gap = eps * math.sqrt(math.log(Delta)) / (2.0 * math.sqrt(L))
    low = eps * math.sqrt(tau) - gap
    if not low > 0:
        raise ValueError(
            "positivity precondition binds: eps*sqrt(tau) - "
            f"eps*sqrt(log(Delta))/(2*sqrt(L1+L2)) = {low:.6g} <= 0; "
            "decrease Delta or increase L1+L2"
        )
    head = eps * math.sqrt(2.0 * tau)
    short = np.concatenate([[head], np.full(L, low)])
    long = np.concatenate([[head], np.full(L, eps * math.sqrt(tau) + gap)])
    return Signal(short, 0.0), Signal(long, 0.0)


def _suffix_energy(theta: Signal) -> np.ndarray:
    """suffix[m] = stored energy beyond index m (1-based), m = 1..n."""
    sq = theta.coeffs**2
    rev = np.cumsum(sq[::-1])[::-1]
    out = np.zeros(theta.n)
    out[:-1] = rev[1:]
    return out


@dataclass(frozen=True)
class MembershipReport:
    """Outcome of the tail-class and self-similarity block checks."""

    in_tail_class: bool
    tail_first_violation: int | None
    blocks_hold: bool
    block_first_violation: int | None
    n_blocks_checked: int


def check_membership(theta: Signal, params: SmoothnessClassParams) -> MembershipReport:
    """Exact finite verification of tail-class and block lower bounds.

    The tail class requires m^(2s) * sum_{k>m} theta_k^2 <= Q for every
    m up to the stored horizon; the unknown part beyond the horizon is
    folded in through tail_energy, so a True verdict is conservative.
    The block check requires sum_{i=m}^{ceil(rho0*m)} theta_i^2 >=
    alpha*Q/m^(2s) for every checkable block start m >= N0.
    """
    s, Q = params.s, params.Q
    n = theta.n
    m = np.arange(1, n + 1, dtype=float)
    lhs = m ** (2.0 * s) * (_suffix_energy(theta) + theta.tail_energy)
    bad = np.nonzero(lhs > Q)[0]
    in_tail = bad.size == 0
    tail_violation = int(bad[0]) + 1 if bad.size else None

    sq = theta.coeffs**2
    blocks_hold = True
    block_violation = None
    checked = 0
    start = int(params.N0)
    while True:
        end = math.ceil(params.rho0 * start)
        if end > n:
            break
        checked += 1
        block = float(np.sum(sq[start - 1 : end]))
        if block < params.alpha * Q / start ** (2.0 * s):
            blocks_hold = False
            block_violation = start
            break
        start += 1
    if checked == 0:
        blocks_hold = False

    return MembershipReport(
        in_tail_class=in_tail,
        tail_first_violation=tail_violation,
        blocks_hold=blocks_hold,
        block_first_violation=block_violation,
        n_blocks_checked=checked,
    )


def self_similar_signal(params: SmoothnessClassParams, N: int) -> Signal:
    """Power-law signal scaled to sit inside the self-similar class.

    Takes theta_i proportional to i^-(s + 1/2) at the largest scale the
    tail class allows (so the block lower bounds have maximal slack) and
    verifies both class conditions exactly; raises if either fails.
    """
    if not N >= 1:
        raise ValueError(f"N must be >= 1, got {N}")
    N = int(N)
    if math.ceil(params.rho0 * params.N0) > N:
        raise ValueError(
            f"horizon N={N} is too small to verify any block: the first "
            f"block [{params.N0}, {math.ceil(params.rho0 * params.N0)}] "
            "does not fit; increase N"
        )
    s, Q = params.s, params.Q
    unit = power_law_signal(s, 1.0, N)
    m = np.arange(1, N + 1, dtype=float)
    sup_ratio = float(
        np.max(m ** (2.0 * s) * (_suffix_energy(unit) + unit.tail_energy))
    )
    # Largest tail-class-feasible scale, shaved by 1e-12 so the conservative
    # re-check below cannot fail to rounding.
    scale_sq = (Q / sup_ratio) * (1.0 - 1e-12)
    candidate = Signal(
        math.sqrt(scale_sq) * unit.coeffs, scale_sq * unit.tail_energy
    )
    report = check_membership(candidate, params)
    if not report.in_tail_class:
        raise ValueError(
            "construction failure: tail-class bound violated at "
            f"m = {report.tail_first_violation}"
        )
    if not report.blocks_hold:
        where = (
            f"block start {report.block_first_violation}"
            if report.block_first_violation is not None
            else "no checkable block"
        )
        raise ValueError(
            f"construction failure: self-similar block bound fails at {where} "
            f"(alpha = {params.alpha}, rho0 = {params.rho0})"
        )
    return candidate


SIGNAL_HEADER_PREFIX = "# effdim-signal v1"


def save_signal(theta: Signal, path) -> None:
    """Write the plain-text column format.

    Header line `# effdim-signal v1 N=<N> tail_energy=<e>`, then one
    coefficient per line at 17 significant digits (exact round trip).
    """
    lines = [f"{SIGNAL_HEADER_PREFIX} N={theta.n} tail_energy={theta.tail_energy:.17g}"]
    lines.extend(f"{v:.17g}" for v in theta.coeffs)
    _write_atomic(path, "\n".join(lines) + "\n")


def _write_atomic(path, text: str) -> None:
    """Write text to path whole or not at all.

    The text goes to a temporary file beside the target, which is then
    renamed over it.  An OSError becomes a ValueError naming the path, so
    an unusable output path is reported as bad input.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except OSError as exc:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise ValueError(f"cannot write {path}: {exc.strerror or exc}") from None


def load_signal(path) -> Signal:
    """Read the plain-text column format written by save_signal."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or not lines[0].startswith(SIGNAL_HEADER_PREFIX):
        raise ValueError(f"{path}: not an effdim-signal v1 file")
    fields = dict(
        item.split("=", 1) for item in lines[0][len(SIGNAL_HEADER_PREFIX) :].split()
    )
    missing = [f"{key}=" for key in ("N", "tail_energy") if key not in fields]
    if missing:
        raise ValueError(f"{path}: header lacks {' and '.join(missing)}")
    n = int(fields["N"])
    tail = float(fields["tail_energy"])
    coeffs = np.array([float(v) for v in lines[1:]], dtype=float)
    if coeffs.size != n:
        raise ValueError(
            f"{path}: header says N={n} but found {coeffs.size} coefficients"
        )
    return Signal(coeffs, tail)
