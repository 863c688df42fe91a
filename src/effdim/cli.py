"""Command-line front door: signal construction, posterior inspection and
theorem-verification experiments driven by flat key=value config files.

Exit codes: 0 on success (for `verify`: every non-vacuous row satisfied),
1 when a verification row fails, 2 on any configuration or validation
error, including an output path that cannot be written.  Validation runs
before any computation, and output is written atomically, so a failed run
never leaves a partial output file.
"""

from __future__ import annotations

import argparse
import sys

from .experiments import (
    MCConfig,
    _replicates,
    lower_bound_experiment,
    mc_overshoot,
    mc_two_sided,
    mc_undershoot,
    report_csv,
    smoothness_sweep,
)
from .oracle import effective_dimension, risk_curve_csv
from .posterior import PriorParams, pmf, pmf_csv
from .signals import (
    Signal,
    SmoothnessClassParams,
    adversarial_pair,
    load_signal,
    power_law_signal,
    save_signal,
    self_similar_signal,
    zero_signal,
    _fmt,
    _parse,
    _write_atomic,
)

import numpy as np


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(","))


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


# what _parse calls these kinds in its error messages
_int_list.__name__, _float_list.__name__ = "list of integers", "list of numbers"


class Config:
    """Flat key = value file with # comments; typed, error-checked access."""

    def __init__(self, values: dict[str, str], path: str = "<config>"):
        self.values = values
        self.path = path

    @classmethod
    def load(cls, path: str) -> "Config":
        try:
            with open(path) as fh:
                text = fh.read()
        except FileNotFoundError:
            raise ValueError(f"config file not found: {path}")
        values: dict[str, str] = {}
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if not key:
                raise ValueError(f"{path}:{lineno}: empty key")
            values[key] = value
        return cls(values, path)

    def get(self, key: str, kind=str, default=None):
        """The value of key read as kind; default if the key is absent and a
        default is given.  Errors name the path, the key and the text."""
        if key not in self.values:
            if default is not None:
                return default
            raise ValueError(f"{self.path}: missing required key '{key}'")
        return _parse(kind, self.values[key], f"{self.path}: key '{key}'")


def _build_signal(cfg: Config) -> Signal:
    kind = cfg.get("signal")
    if kind == "zero":
        return zero_signal(cfg.get("signal_N", int))
    if kind == "power-law":
        return power_law_signal(
            cfg.get("signal_s", float), cfg.get("signal_c", float), cfg.get("signal_N", int)
        )
    if kind == "self-similar":
        return self_similar_signal(_class_params(cfg), cfg.get("signal_N", int))
    if kind in ("adversarial-short", "adversarial-long"):
        short, long = adversarial_pair(
            cfg.get("tau", float), cfg.get("eps", float),
            cfg.get("L1", int), cfg.get("L2", int), cfg.get("Delta", float),
        )
        return short if kind == "adversarial-short" else long
    if kind == "file":
        return load_signal(cfg.get("signal_path"))
    raise ValueError(
        f"unknown signal kind {kind!r}: expected zero, power-law, self-similar, "
        "adversarial-short, adversarial-long or file"
    )


def _class_params(cfg: Config) -> SmoothnessClassParams:
    return SmoothnessClassParams(
        s=cfg.get("signal_s", float),
        Q=cfg.get("signal_Q", float),
        alpha=cfg.get("signal_alpha", float),
        rho0=cfg.get("signal_rho0", float),
        N0=cfg.get("signal_N0", int),
    )


def _prior(cfg: Config, epsilon: float | None = None) -> PriorParams:
    return PriorParams(
        kappa=cfg.get("kappa", float),
        varkappa=cfg.get("varkappa", float),
        epsilon=cfg.get("eps", float) if epsilon is None else epsilon,
    )


def _mc_config(cfg: Config, replicates: int | None = None) -> MCConfig:
    return MCConfig(
        replicates=replicates or cfg.get("R", int),
        n=cfg.get("n", int),
        master_seed=cfg.get("seed", int),
        offsets=cfg.get("offsets", _int_list, default=(1,)),
    )


def _write_output(cfg: Config, text: str) -> None:
    """Write a command's CSV, atomically, if --out or the config names a path."""
    path = cfg.get("out", default="")
    if path:
        _write_atomic(path, text)


def cmd_oracle(cfg: Config) -> int:
    theta = _build_signal(cfg)
    eps = cfg.get("eps", float)
    tau = cfg.get("tau", float)
    result = effective_dimension(theta, eps, tau)
    _write_output(cfg, risk_curve_csv(theta, eps, tau))
    print(f"d_tau={result.d_tau} r_tau={result.r_tau:.12g}")
    return 0


def cmd_posterior(cfg: Config) -> int:
    prior = _prior(cfg)
    if "data" in cfg.values:
        x = np.array(cfg.get("data", _float_list), dtype=float)
    else:
        theta = _build_signal(cfg)
        # replicate 0 of the library's stream, which enforces the signal
        # horizon; its key (seed, 0) is also how an integer seed is keyed
        mc = _mc_config(cfg, replicates=1)
        x = next(_replicates(theta, prior.epsilon, mc)).x
    post = pmf(x, prior)
    _write_output(cfg, pmf_csv(post))
    print(f"d_hat={post.d_hat}")
    return 0


def cmd_verify(cfg: Config) -> int:
    theorem = cfg.get("theorem")
    mc = _mc_config(cfg)
    if theorem == "lower-bound":
        prior = _prior(cfg)
        report = lower_bound_experiment(
            cfg.get("tau", float), cfg.get("eps", float),
            cfg.get("L1", int), cfg.get("L2", int), cfg.get("Delta", float),
            prior, mc,
        )
        ok = report.satisfied
        print(
            f"p1={report.p1:.6g} p2={report.p2:.6g} sum={report.total:.6g} "
            f"delta_prime={report.delta_prime:.6g} satisfied={int(ok)}"
        )
    else:
        theta = _build_signal(cfg)
        prior = _prior(cfg)
        tau = cfg.get("tau", float)
        label = cfg.get("signal")
        if theorem == "overshoot":
            report = mc_overshoot(theta, prior, tau, mc, label=label)
        elif theorem == "undershoot":
            report = mc_undershoot(theta, prior, tau, mc, label=label)
        elif theorem == "two-sided-i":
            report = mc_two_sided(
                theta, prior, tau, mc,
                t0=cfg.get("t0", float), N0=cfg.get("N0", int), label=label,
            )
        elif theorem == "two-sided-ii":
            report = mc_two_sided(
                theta, prior, tau, mc,
                H0=cfg.get("H0", float), n0=cfg.get("n0", int), label=label,
            )
        else:
            raise ValueError(
                f"unknown theorem {theorem!r}: expected overshoot, undershoot, "
                "two-sided-i, two-sided-ii or lower-bound"
            )
        ok = report.all_satisfied
        for row in report.rows:
            print(
                f"offset={row.offset} mass={row.posterior_mass:.6g} "
                f"freq={row.dhat_freq:.6g} bound={row.theory_bound:.6g} "
                f"vacuous={int(row.vacuous)} satisfied={int(row.satisfied)}"
            )
    _write_output(cfg, report_csv(report))
    return 0 if ok else 1


def cmd_smoothness(cfg: Config) -> int:
    params = _class_params(cfg)
    eps_grid = cfg.get("eps_grid", _float_list)
    prior = _prior(cfg, epsilon=eps_grid[0])
    mc = _mc_config(cfg)
    report = smoothness_sweep(
        params, prior, cfg.get("tau", float), eps_grid, mc,
        signal_N=cfg.get("signal_N", int),
        c_lo=cfg.get("c_lo", float, default=0.5),
        c_hi=cfg.get("c_hi", float, default=2.0),
    )
    for row in report.rows:
        print(
            f"eps={row.eps:g} d_tau={row.d_tau} dhat_median={row.dhat_median:g} "
            f"shat_median={row.shat_median:.6g} ratio={row.ratio:.6g}"
        )
    _write_output(cfg, report_csv(report))
    return 0


def cmd_make_signal(cfg: Config) -> int:
    theta = _build_signal(cfg)
    path = cfg.get("out", default="")
    if not path:
        raise ValueError(f"{cfg.path}: missing output path (key 'out' or --out)")
    save_signal(theta, path)
    print(f"wrote {path}: N={theta.n} tail_energy={_fmt(theta.tail_energy)}")
    return 0


_COMMANDS = {
    "oracle": cmd_oracle,
    "posterior": cmd_posterior,
    "verify": cmd_verify,
    "smoothness": cmd_smoothness,
    "make-signal": cmd_make_signal,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="effdim",
        description="Effective-dimension inference and theorem verification "
        "for the Gaussian sequence model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="flat key = value config file")
        p.add_argument("--out", default=None, help="output path (overrides config)")
        p.add_argument("--seed", type=int, default=None, help="master seed (overrides config)")
    args = parser.parse_args(argv)
    try:
        cfg = Config.load(args.config)
        for key in ("out", "seed"):  # the flags override the config's entries
            if getattr(args, key) is not None:
                cfg.values[key] = str(getattr(args, key))
        return _COMMANDS[args.command](cfg)
    except (ValueError, IndexError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
