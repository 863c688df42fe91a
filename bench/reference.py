"""Independent reference for the report CSVs that the workloads produce.

Every number is rebuilt from the model formulas (PAPER.md and the
`effdim.posterior` docstring), vectorised over replicates in bounded row
chunks:

- noise: replicate r of master seed S reads the Philox stream keyed by the
  128-bit key (S, r), as standard normals;
- posterior: log w(d) = -varkappa*d + S_d / (2 eps^2) - (d/2) log(kappa+1)
  with S_d = sum_{i<=d} X_i^2, continued geometrically past the data,
  log w(n+k) = log w(n) - varkappa*k, so the mass of any interval of
  dimensions, inside or beyond n, is exact;
- MAP: the smallest argmin of crit(d) = -S_d + A eps^2 d,
  A = log(kappa+1) + 2 varkappa;
- oracle: d_tau, the smallest argmin of sum_{i>d} theta_i^2 + tail + tau d eps^2;
- rates: the closed-form suprema of the overshoot and undershoot rate
  functions.

Only the signal coefficients come from the library (its constructors);
`effdim.posterior` and `effdim.experiments` are never called.
"""

from __future__ import annotations

import math

import numpy as np

# Real-valued columns agree when |got - want| <= ABS_TOL + REL_TOL * |want|.
# Counts, frequencies, indices and the config echo must agree exactly.
ABS_TOL = 1e-12
REL_TOL = 1e-9

# Replicates per chunk: at n = 2000 one chunk array holds 4 MB.
CHUNK_ROWS = 256

REPORT_PREFIX = "# effdim-report v1 "


def f_sup(a: float, t: float) -> float:
    """sup over h in [0, 1) of (a h + log(1-h) - t h/(1-h)) / 2."""
    h = (2.0 * a - 1.0 - math.sqrt(4.0 * a * t + 1.0)) / (2.0 * a)
    if h <= 0.0:
        return 0.0
    return 0.5 * (a * h + math.log1p(-h) - t * h / (1.0 - h))


def g_sup(a: float, t: float) -> float:
    """sup over h in [0, 1] of (t h/(1+h) + log(1+h) - a h) / 2."""
    h = min(1.0, max(0.0, (1.0 - 2.0 * a + math.sqrt(4.0 * a * t + 1.0)) / (2.0 * a)))
    if h == 0.0:
        return 0.0
    return 0.5 * (t * h / (1.0 + h) + math.log1p(h) - a * h)


def oracle_dimension(coeffs: np.ndarray, tail_energy: float, eps: float, tau: float) -> int:
    """Smallest minimiser d >= 1 of the tau-risk over the stored horizon."""
    sq = coeffs * coeffs
    beyond = np.append(np.cumsum(sq[::-1])[::-1][1:], 0.0) + tail_energy
    d = np.arange(1, coeffs.size + 1)
    return int(np.argmin(beyond + tau * d * eps * eps)) + 1


def noise(seed: int, first: int, count: int, n: int) -> np.ndarray:
    """Rows first..first+count-1 of the keyed streams, n draws each."""
    out = np.empty((count, n))
    for i in range(count):
        key = np.array([seed % 2**64, (first + i) % 2**64], dtype=np.uint64)
        np.random.Generator(np.random.Philox(key=key)).standard_normal(n, out=out[i])
    return out


def data_chunks(mean: np.ndarray, eps: float, seed: int, first: int, replicates: int):
    """Yield data matrices X = mean + eps * noise, CHUNK_ROWS replicates at a time."""
    for lo in range(0, replicates, CHUNK_ROWS):
        count = min(CHUNK_ROWS, replicates - lo)
        yield mean + eps * noise(seed, first + lo, count, mean.size)


def map_dimensions(cum_sq: np.ndarray, A: float, eps: float) -> np.ndarray:
    """Smallest argmin of crit(d) = -S_d + A eps^2 d for each row of S."""
    d = np.arange(1, cum_sq.shape[1] + 1, dtype=float)
    return np.argmin(A * eps**2 * d - cum_sq, axis=1) + 1


class Posterior:
    """Dimension posteriors of a chunk of rows, with exact interval masses.

    Built from the cumulative sums S_d = sum_{i<=d} X_i^2 of each row.
    """

    def __init__(self, cum_sq: np.ndarray, kappa: float, varkappa: float, eps: float):
        n = cum_sq.shape[1]
        d = np.arange(1, n + 1, dtype=float)
        logw = cum_sq / (2.0 * eps**2) - (varkappa + 0.5 * math.log(kappa + 1.0)) * d
        # mass of {d > n} relative to w(n): sum_{k>=1} e^{-varkappa k}
        lump = 1.0 / math.expm1(varkappa)
        shift = np.maximum(logw.max(axis=1), logw[:, -1] + math.log(lump))
        self.w = np.exp(logw - shift[:, None])
        self.z = self.w.sum(axis=1) + self.w[:, -1] * lump
        self.n = n
        self.varkappa = varkappa

    def mass(self, lo: int, hi: float) -> np.ndarray:
        """Posterior mass of {lo <= D <= hi} per row; hi may be math.inf."""
        rows = self.w.shape[0]
        if lo > hi:
            return np.zeros(rows)
        lo = max(int(lo), 1)
        total = np.zeros(rows)
        top = self.n if math.isinf(hi) else min(int(hi), self.n)
        if lo <= top:
            total += self.w[:, lo - 1:top].sum(axis=1)
        # beyond the data: k = a..b with w(n+k) = w(n) e^{-varkappa k}
        a = max(lo, self.n + 1) - self.n
        q = math.exp(-self.varkappa)
        if math.isinf(hi):
            total += self.w[:, -1] * q**a / (1.0 - q)
        elif hi - self.n >= a:
            b = int(hi) - self.n
            total += self.w[:, -1] * q**a * -math.expm1(-self.varkappa * (b - a + 1)) / (1.0 - q)
        return total / self.z


def signal_for(config: dict):
    """The signal the config names, built with the library's constructors."""
    from effdim.signals import (SmoothnessClassParams, power_law_signal,
                                self_similar_signal, zero_signal)

    kind = config.get("signal", "self-similar")
    if kind == "zero":
        return zero_signal(int(config["signal_N"]))
    if kind == "power-law":
        return power_law_signal(float(config["signal_s"]), float(config["signal_c"]),
                                int(config["signal_N"]))
    if kind == "self-similar":
        params = SmoothnessClassParams(
            s=float(config["signal_s"]), Q=float(config["signal_Q"]),
            alpha=float(config["signal_alpha"]), rho0=float(config["signal_rho0"]),
            N0=int(config["signal_N0"]),
        )
        return self_similar_signal(params, int(config["signal_N"]))
    raise ValueError(f"no reference for signal kind {kind!r}")


def parse_report(text: str) -> tuple[dict, list[dict]]:
    """Header fields and data rows of a report CSV; comment lines are skipped."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2 or not lines[0].startswith(REPORT_PREFIX):
        raise ValueError("not an effdim-report v1 CSV")
    meta = dict(item.split("=", 1) for item in lines[0][len(REPORT_PREFIX):].split())
    columns = lines[1].split(",")
    rows = []
    for ln in lines[2:]:
        if ln.startswith("#"):
            continue
        cells = ln.split(",")
        if len(cells) != len(columns):
            raise ValueError(f"row has {len(cells)} cells, header has {len(columns)}")
        rows.append(dict(zip(columns, cells)))
    return meta, rows


class _Comparison:
    """Collects the disagreements between a parsed report and the reference."""

    def __init__(self):
        self.problems: list[str] = []

    def number(self, where: str, raw: str) -> float:
        try:
            value = float(raw)
        except (TypeError, ValueError):
            self.problems.append(f"{where}: not a number: {raw!r}")
            return math.nan
        if not math.isfinite(value):
            self.problems.append(f"{where}: non-finite value {raw}")
        return value

    def close(self, where: str, raw: str, want: float) -> None:
        got = self.number(where, raw)
        if math.isfinite(got) and not abs(got - want) <= ABS_TOL + REL_TOL * abs(want):
            self.problems.append(f"{where}: {got!r} != reference {want!r}")

    def exact(self, where: str, raw: str, want) -> None:
        got = self.number(where, raw)
        if math.isfinite(got) and got != want:
            self.problems.append(f"{where}: {got!r} != reference {want!r} (exact)")

    def text(self, where: str, got, want: str) -> None:
        if got != want:
            self.problems.append(f"{where}: {got!r} != {want!r}")

    def verdict(self, where: str, raw: str, want: bool, margins) -> None:
        """A 0/1 verdict; a disagreement counts unless a margin is within tolerance."""
        if raw not in ("0", "1"):
            self.problems.append(f"{where}: not a 0/1 flag: {raw!r}")
        elif (raw == "1") != want and all(abs(m) > ABS_TOL + REL_TOL for m in margins):
            self.problems.append(f"{where}: {raw} != reference {int(want)}")


class Reference:
    """Reference report of one workload config, for any operation seed."""

    def __init__(self, command: str, config: dict):
        self.command = command
        self.config = dict(config)
        theta = signal_for(config)
        self.coeffs = np.asarray(theta.coeffs, dtype=float)
        self.tail_energy = float(theta.tail_energy)
        self.kappa = float(config["kappa"])
        self.varkappa = float(config["varkappa"])
        self.A = math.log(self.kappa + 1.0) + 2.0 * self.varkappa
        self.tau = float(config["tau"])
        self.R = int(config["R"])
        self.n = int(config["n"])

    def _mean(self) -> np.ndarray:
        mean = np.zeros(self.n)
        m = min(self.n, self.coeffs.size)
        mean[:m] = self.coeffs[:m]
        return mean

    def check(self, seed: int, text: str) -> list[str]:
        """Every disagreement between a report CSV and the reference."""
        try:
            meta, rows = parse_report(text)
        except ValueError as exc:
            return [f"unparseable report: {exc}"]
        cmp = _Comparison()
        for key in ("R", "n", "kappa", "varkappa", "tau"):
            cmp.exact(f"header {key}", meta.get(key), float(self.config[key]))
        cmp.text("header master_seed", meta.get("master_seed"), str(seed))
        cmp.close("header A", meta.get("A"), self.A)
        if self.command == "smoothness":
            self._check_sweep(cmp, seed, meta, rows)
        else:
            self._check_envelope(cmp, seed, meta, rows)
        return cmp.problems

    def _check_envelope(self, cmp: _Comparison, seed: int, meta: dict, rows: list) -> None:
        cfg = self.config
        theorem = cfg["theorem"]
        eps = float(cfg["eps"])
        offsets = [int(v) for v in cfg["offsets"].split(",")]
        cmp.text("header kind", meta.get("kind"), theorem)
        cmp.text("header theta", meta.get("theta"), cfg["signal"])
        cmp.text("header offsets", meta.get("offsets"), ",".join(map(str, offsets)))
        cmp.exact("header eps", meta.get("eps"), eps)
        d_tau = oracle_dimension(self.coeffs, self.tail_energy, eps, self.tau)
        cmp.exact("header d_tau", meta.get("d_tau"), d_tau)
        if theorem == "overshoot":
            alpha = f_sup(self.A, self.tau)
            cmp.close("header alpha", meta.get("alpha"), alpha)
            bounds = [math.exp(-alpha * m) / alpha for m in offsets]
        elif theorem == "two-sided-i":
            t0 = float(cfg["t0"])
            alpha, beta = f_sup(self.A, t0), g_sup(self.A, self.tau)
            cmp.close("header alpha", meta.get("alpha"), alpha)
            cmp.close("header beta", meta.get("beta"), beta)
            cmp.exact("header t0", meta.get("t0"), t0)
            cmp.exact("header N0", meta.get("N0"), int(cfg["N0"]))
            bounds = [math.exp(-alpha * m) / alpha + math.exp(-beta * m) / beta
                      for m in offsets]
        else:
            raise ValueError(f"no reference for theorem {theorem!r}")

        masses = np.zeros((len(offsets), self.R))
        hits = np.zeros((len(offsets), self.R), dtype=np.int64)
        first = 0
        for x in data_chunks(self._mean(), eps, seed, 0, self.R):
            rows_here = slice(first, first + x.shape[0])
            first += x.shape[0]
            cum_sq = np.cumsum(x * x, axis=1)
            post = Posterior(cum_sq, self.kappa, self.varkappa, eps)
            dhat = map_dimensions(cum_sq, self.A, eps)
            for j, m in enumerate(offsets):
                if theorem == "overshoot":
                    masses[j, rows_here] = post.mass(d_tau + m, math.inf)
                    hits[j, rows_here] = dhat >= d_tau + m
                else:
                    masses[j, rows_here] = (post.mass(1, d_tau - m - 1)
                                            + post.mass(d_tau + m + 1, math.inf))
                    hits[j, rows_here] = (dhat < d_tau - m) | (dhat > d_tau + m)

        if len(rows) != len(offsets):
            cmp.problems.append(f"{len(rows)} rows, reference has {len(offsets)}")
            return
        R = self.R
        for j, (m, row, bound) in enumerate(zip(offsets, rows, bounds)):
            where = f"offset {m}"
            mass = float(np.mean(masses[j]))
            mass_se = float(np.std(masses[j], ddof=1)) / math.sqrt(R)
            freq = int(np.sum(hits[j])) / R
            freq_se = math.sqrt(freq * (1.0 - freq) / R)
            cmp.exact(f"{where} offset", row.get("offset"), m)
            cmp.close(f"{where} posterior_mass", row.get("posterior_mass"), mass)
            cmp.close(f"{where} mass_se", row.get("mass_se"), mass_se)
            cmp.exact(f"{where} dhat_freq", row.get("dhat_freq"), freq)
            cmp.close(f"{where} freq_se", row.get("freq_se"), freq_se)
            cmp.close(f"{where} theory_bound", row.get("theory_bound"), bound)
            cmp.text(f"{where} vacuous", row.get("vacuous"), str(int(bound >= 1.0)))
            mass_margin = bound + 3.0 * mass_se - mass
            freq_margin = bound + 3.0 * freq_se - freq
            cmp.verdict(f"{where} satisfied", row.get("satisfied"),
                        mass_margin >= 0 and freq_margin >= 0, (mass_margin, freq_margin))

    def _check_sweep(self, cmp: _Comparison, seed: int, meta: dict, rows: list) -> None:
        cfg = self.config
        s = float(cfg["signal_s"])
        Q = float(cfg["signal_Q"])
        alpha = float(cfg["signal_alpha"])
        c_lo, c_hi = 0.5, 2.0
        grid = [float(v) for v in cfg["eps_grid"].split(",")]
        cmp.text("header kind", meta.get("kind"), "smoothness")
        for key in ("s", "Q", "alpha", "rho0", "N0"):
            cmp.exact(f"header {key}", meta.get(key), float(cfg[f"signal_{key}"]))
        cmp.exact("header signal_N", meta.get("signal_N"), float(cfg["signal_N"]))
        cmp.exact("header c_lo", meta.get("c_lo"), c_lo)
        cmp.exact("header c_hi", meta.get("c_hi"), c_hi)
        cmp.text("header eps_grid", meta.get("eps_grid"), ",".join(f"{e:g}" for e in grid))
        if len(rows) != len(grid):
            cmp.problems.append(f"{len(rows)} rows, reference has {len(grid)}")
            return
        R = self.R
        mean = self._mean()
        for e_idx, (eps, row) in enumerate(zip(grid, rows)):
            where = f"eps {eps:g}"
            d_tau = oracle_dimension(self.coeffs, self.tail_energy, eps, self.tau)
            dhat = np.concatenate([
                map_dimensions(np.cumsum(x * x, axis=1), self.A, eps)
                for x in data_chunks(mean, eps, seed, e_idx * R, R)
            ])
            defined = dhat[dhat >= 2]
            shat = 0.5 * (math.log(eps**-2) / np.log(defined) - 1.0)
            outside = np.count_nonzero((dhat < c_lo * d_tau) | (dhat > c_hi * d_tau))
            L = math.log(eps**-2)
            cmp.exact(f"{where} eps", row.get("eps"), eps)
            cmp.exact(f"{where} d_tau", row.get("d_tau"), d_tau)
            cmp.exact(f"{where} dhat_median", row.get("dhat_median"), float(np.median(dhat)))
            if defined.size == 0:
                cmp.problems.append(f"{where}: reference has no defined estimate")
                continue
            cmp.close(f"{where} shat_median", row.get("shat_median"), float(np.median(shat)))
            cmp.close(f"{where} median_abs_err", row.get("median_abs_err"),
                      float(np.median(np.abs(shat - s))))
            cmp.exact(f"{where} n_undefined", row.get("n_undefined"), R - defined.size)
            cmp.exact(f"{where} outside_freq", row.get("outside_freq"), outside / R)
            cmp.close(f"{where} ratio", row.get("ratio"),
                      d_tau * (self.tau * eps**-2) ** (-1.0 / (2.0 * s + 1.0)))
            cmp.close(f"{where} bracket_lo", row.get("bracket_lo"), s - math.log(Q) / L)
            cmp.close(f"{where} bracket_hi", row.get("bracket_hi"),
                      s + math.log(1.0 / alpha) / L)


def check_operation(reference: Reference, seed: int, exit_code, error, text) -> list[str]:
    """Why one operation failed, or [] when it succeeded.

    It fails when it raised (exit_code None), exited non-zero (1 means a
    theorem row failed), wrote no report, or disagrees with the reference.
    """
    if exit_code is None:
        return [f"raised: {error}"]
    if exit_code != 0:
        return [f"exit code {exit_code}: {error or 'a theorem row failed'}"]
    if text is None:
        return ["no report written"]
    return reference.check(seed, text)
