"""Test-signal construction and simulation of noisy observations.

Signals are finite coefficient vectors together with a certified upper
value for the energy beyond the stored range, which keeps every
downstream computation (oracle dimension, posterior, class membership)
finite and checkable with certified rounding margins.

Noise is generated by a counter-based keyed stream (Philox), so draw i
of replicate r is a pure function of (master seed, r, i); replicates can
be simulated in any order, in blocks of any size, or concurrently, with
identical results.
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

# Replicates are simulated, and reduced downstream, in row blocks of at most
# this many elements (rows = max(1, BLOCK_ELEMENTS // n)): memory stays
# bounded whatever the replicate count, and numpy's per-call cost is shared.
BLOCK_ELEMENTS = 2**15

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
        with np.errstate(over="ignore"):  # an overflowing energy is rejected too
            if not np.isfinite(np.sum(arr**2)):
                raise ValueError("coeffs must be finite, with a finite sum of squares")
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
        object.__setattr__(self, "N0", _integer(self.N0, "N0"))


def _integer(value, name: str, least: float = 1) -> int:
    """value as an int if it is integral (20, 20.0, numpy integers) and >= least;
    else a ValueError naming the field, never a silent truncation."""
    try:
        if int(value) == value >= least:
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    bound = f" >= {least}" if least > -math.inf else ""
    raise ValueError(f"{name} must be an integer{bound}, got {value!r}")


def zero_signal(n: int) -> Signal:
    """The zero signal on n stored coordinates."""
    return Signal(np.zeros(_integer(n, "n")), 0.0)


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
    parts = seed if isinstance(seed, (tuple, list, np.ndarray)) else (seed, 0)
    key = tuple(_integer(v, "seed", -math.inf) % 2**64 for v in parts)
    if len(key) != 2:
        raise ValueError("tuple seeds must have exactly two components")
    # the stored coefficients as a signal without tail energy: the horizon
    # check of the Monte Carlo runs then allows the zero padding documented here
    blocks = _replicate_blocks(Signal(theta.coeffs), eps, _integer(n, "n"), *key, 1)
    return Observation(x=next(blocks)[0], epsilon=float(eps), seed_trace=key)


def _replicate_blocks(theta: Signal, eps: float, n: int, master_seed: int,
                      first: int, count: int):
    """Yield X = theta + eps * xi for replicates first .. first + count - 1
    as row blocks of one reused buffer, which a consumer may overwrite.

    xi of replicate r is the Philox stream keyed (master_seed, r), both mod
    2^64; resetting one bit generator's key and counter per row draws exactly
    what a fresh generator would.  A signal with tail energy is observed only
    up to its stored horizon: past it zero padding would drop that energy.
    """
    if theta.tail_energy > 0.0 and n > theta.n:
        raise ValueError(
            f"data length n = {n} exceeds the signal horizon N = {theta.n} "
            "and the signal carries tail energy; increase signal_N or lower n"
        )
    mean = np.zeros(n)
    mean[: theta.n] = theta.coeffs[:n]
    bitgen = np.random.Philox(key=master_seed % 2**64)
    gen = np.random.Generator(bitgen)
    state = bitgen.state  # counter 0 and an empty buffer
    buffer = np.empty((min(count, max(1, BLOCK_ELEMENTS // n)), n))
    for start in range(first, first + count, len(buffer)):
        block = buffer[: first + count - start]
        for r, row in enumerate(block, start):
            state["state"]["key"][1] = r % 2**64
            bitgen.state = state
            gen.standard_normal(n, out=row)
        yield np.add(mean, np.multiply(block, eps, out=block), out=block)


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
    N = _integer(N, "N")
    i = np.arange(1, N + 1, dtype=float)
    coeffs = c * i ** -(s + 0.5)
    _, tail_upper = _power_tail_bracket(2.0 * s + 1.0, N)
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
    L1, L2 = _integer(L1, "L1"), _integer(L2, "L2")
    L = L1 + L2
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
    rev = np.cumsum((theta.coeffs**2)[::-1])[::-1]
    return np.append(rev[1:], 0.0)


def _block_energy(theta: Signal, a, b) -> tuple[np.ndarray, np.ndarray]:
    """Certified lower and upper values of sum_{i=a}^{b} theta_i^2.

    a, b broadcast to 1-based ranges, 1 <= a <= b + 1; a range with b > n
    covers every coefficient from a on and its upper value adds tail_energy.
    E(k) = sum_{i>k} theta_i^2 is summed once from the far end, and
    E(a-1) - E(b) is widened outward by M = (n + 12) u (E(a-1) + tail)
    + n 2^-1074, u = 2^-53.  E(a-1) is E(b) plus at most n rounded squares
    added one by one, so the difference is within n+1 roundings of size
    u E(a-1); subtraction, tail addition and widening round once each; 8
    units cover the roundings of the threshold compared against (at most
    E(a-1) at the decision point); n 2^-1074 covers underflowing squares.
    """
    n = theta.n
    suffix = _suffix_energy(theta)
    energy = np.append(suffix[0] + theta.coeffs[0] ** 2, suffix)  # E(0..n)
    tail = np.where(b > n, theta.tail_energy, 0.0)
    value = energy[a - 1] - energy[np.minimum(b, n)]
    margin = (n + 12) * 2.0**-53 * (energy[a - 1] + tail) + n * 2.0**-1074
    return value - margin, value + tail + margin


def _tail_class_lhs(theta: Signal, s: float) -> np.ndarray:
    """Upper values of m^(2s) * sum_{k>m} theta_k^2 (tail included), m = 1..n."""
    m = np.arange(1, theta.n + 1)
    _, beyond = _block_energy(theta, m + 1, theta.n + 1)
    return m ** (2.0 * s) * beyond


@dataclass(frozen=True)
class MembershipReport:
    """Outcome of the tail-class and self-similarity block checks."""

    in_tail_class: bool
    tail_first_violation: int | None
    blocks_hold: bool
    block_first_violation: int | None
    n_blocks_checked: int


def check_membership(theta: Signal, params: SmoothnessClassParams) -> MembershipReport:
    """Certified finite verification of tail-class and block lower bounds.

    The tail class requires m^(2s) * sum_{k>m} theta_k^2 <= Q for every
    m up to the stored horizon, with tail_energy for the part beyond it.
    The block check requires sum_{i=m}^{ceil(rho0*m)} theta_i^2 >=
    alpha*Q/m^(2s) for every checkable block start m >= N0.  Both compare
    _block_energy values widened by its margin, so True is conservative.
    """
    bad = np.nonzero(_tail_class_lhs(theta, params.s) > params.Q)[0]
    # block ends grow with the start, so the blocks that fit form a prefix
    starts = np.arange(params.N0, theta.n + 1)
    ends = np.ceil(params.rho0 * starts)
    starts, ends = starts[ends <= theta.n], ends[ends <= theta.n].astype(int)
    lower, _ = _block_energy(theta, starts, ends)
    short = np.nonzero(lower < params.alpha * params.Q / starts ** (2.0 * params.s))[0]
    return MembershipReport(
        in_tail_class=bad.size == 0,
        tail_first_violation=int(bad[0]) + 1 if bad.size else None,
        blocks_hold=starts.size > 0 and short.size == 0,
        block_first_violation=int(starts[short[0]]) if short.size else None,
        n_blocks_checked=int(short[0]) + 1 if short.size else int(starts.size),
    )


def self_similar_signal(params: SmoothnessClassParams, N: int) -> Signal:
    """Power-law signal scaled to sit inside the self-similar class.

    Takes theta_i proportional to i^-(s + 1/2) at the largest scale the
    tail class allows (so the block lower bounds have maximal slack) and
    verifies both class conditions; raises if either fails.
    """
    unit = power_law_signal(params.s, 1.0, N)  # also checks N >= 1
    if math.ceil(params.rho0 * params.N0) > unit.n:
        raise ValueError(
            f"horizon N={unit.n} is too small to verify any block: the first "
            f"block [{params.N0}, {math.ceil(params.rho0 * params.N0)}] "
            "does not fit; increase N"
        )
    sup_ratio = float(np.max(_tail_class_lhs(unit, params.s)))
    # Largest tail-class-feasible scale, shaved by 1e-12 so the conservative
    # re-check below cannot fail to rounding.
    scale_sq = (params.Q / sup_ratio) * (1.0 - 1e-12)
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
        raise ValueError(
            "construction failure: self-similar block bound fails at block "
            f"start {report.block_first_violation} "
            f"(alpha = {params.alpha}, rho0 = {params.rho0})"
        )
    return candidate


SIGNAL_HEADER_PREFIX = "# effdim-signal v1"


def save_signal(theta: Signal, path) -> None:
    """Write the plain-text column format.

    Header line `# effdim-signal v1 N=<N> tail_energy=<e>`, then one
    coefficient per line at 17 significant digits (exact round trip).
    """
    header = f"{SIGNAL_HEADER_PREFIX} N={theta.n} tail_energy={_fmt(theta.tail_energy)}"
    _write_atomic(path, _csv([header], zip(theta.coeffs)))


def _fmt(v) -> str:
    """One field of a CSV or signal file: a float at 17 significant digits
    (exact round trip), a boolean as 0/1, anything else as str."""
    if isinstance(v, bool):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{v:.17g}"
    return str(v)


def _csv(head: list[str], rows, foot=()) -> str:
    """The head lines, one comma-joined line of _fmt fields per row, then foot."""
    lines = [*head, *(",".join(map(_fmt, row)) for row in rows), *foot]
    return "\n".join(lines) + "\n"


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


def _parse(kind, text: str, where: str):
    """kind(text), or a ValueError naming where the text was read."""
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"{where}: cannot read {text!r} as {kind.__name__}") from None


def load_signal(path) -> Signal:
    """Read the save_signal format; errors name the path and the bad item or line."""
    with open(path) as fh:
        lines = [(no, ln.strip()) for no, ln in enumerate(fh, 1) if ln.strip()]
    if not lines or not lines[0][1].startswith(SIGNAL_HEADER_PREFIX):
        raise ValueError(f"{path}: not an effdim-signal v1 file")
    header = lines[0][1][len(SIGNAL_HEADER_PREFIX) :]
    items = [item.partition("=") for item in header.split()]
    for key, eq, _ in items:
        if not eq:
            raise ValueError(f"{path}: header item {key!r} is not key=value")
    fields = {key: value for key, _, value in items}
    missing = [f"{key}=" for key in ("N", "tail_energy") if key not in fields]
    if missing:
        raise ValueError(f"{path}: header lacks {' and '.join(missing)}")
    n = _parse(int, fields["N"], f"{path}: header N")
    tail = _parse(float, fields["tail_energy"], f"{path}: header tail_energy")
    coeffs = np.array([_parse(float, text, f"{path}: line {no}") for no, text in lines[1:]])
    if coeffs.size != n:
        raise ValueError(
            f"{path}: header says N={n} but found {coeffs.size} coefficients"
        )
    return Signal(coeffs, tail)
