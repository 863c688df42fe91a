"""Golden report bytes: every acceptance config, one CLI run per report
command and the three benchmark workload configs, compared byte for byte
with the CSVs committed under tests/golden/.

A refactor of the Monte Carlo code passes only if it reproduces these
files exactly.  To record a deliberate change of the report bytes, run
`PYTHONPATH=src python tests/test_golden.py --write` and say why in the
change log.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

from effdim.cli import main as cli_main
from effdim.experiments import (
    MCConfig,
    lower_bound_experiment,
    mc_overshoot,
    mc_two_sided,
    mc_undershoot,
    report_csv,
    smoothness_sweep,
)
from effdim.posterior import PriorParams
from effdim.signals import (
    SmoothnessClassParams,
    adversarial_pair,
    power_law_signal,
    zero_signal,
)

from helpers import prior_with_A

GOLDEN_DIR = Path(__file__).parent / "golden"

# numpy release the golden files were generated with; NEP 19 does not
# promise that Generator streams stay the same across numpy releases.
GOLDEN_NUMPY = "2.4.6"

KAPPA_A6 = repr(math.e**2 - 1.0)  # with varkappa = 2: A = 6


def c05(label="zero"):
    prior = PriorParams(kappa=math.e**2 - 1.0, varkappa=2.0, epsilon=1.0)
    cfg = MCConfig(replicates=2000, n=20, master_seed=20250105, offsets=(1, 2, 3, 4, 5))
    return report_csv(mc_overshoot(zero_signal(20), prior, 1.0, cfg, label=label))


def c06():
    _, long = adversarial_pair(9.0, 1.0, 3, 3, 1.1)
    cfg = MCConfig(replicates=2000, n=20, master_seed=20250106, offsets=(1, 2, 3))
    report = mc_undershoot(long, prior_with_A(2.0, 0.4, 1.0), 9.0, cfg,
                           label="adversarial-long")
    return report_csv(report)


def c07():
    cfg = MCConfig(replicates=5000, n=16, master_seed=20250107, offsets=(1,))
    report = lower_bound_experiment(1.0, 1.0, 3, 3, 1.1, prior_with_A(2.0, 0.4, 1.0), cfg)
    return report_csv(report)


def c08_i():
    prior = PriorParams(kappa=math.e**2 - 1.0, varkappa=2.0, epsilon=1.0)
    cfg = MCConfig(replicates=2000, n=40, master_seed=20250108, offsets=(6, 8, 10))
    report = mc_two_sided(power_law_signal(2.0, 1.0, 40), prior, 9.0, cfg,
                          t0=1.0, N0=1, label="power-law-s2")
    return report_csv(report)


def c08_ii():
    theta, _ = adversarial_pair(10.0, 1.0, 2, 2, 1.5)
    prior = PriorParams(kappa=math.e**2 - 1.0, varkappa=7.0, epsilon=1.0)
    cfg = MCConfig(replicates=2000, n=60, master_seed=20250109, offsets=(20, 25, 30))
    report = mc_two_sided(theta, prior, 10.0, cfg, H0=19.0, n0=1,
                          label="adversarial-short")
    return report_csv(report)


def c09():
    params = SmoothnessClassParams(s=1.0, Q=1.0, alpha=0.1, rho0=2.0, N0=2)
    prior = PriorParams(kappa=math.e**2 - 1.0, varkappa=0.5, epsilon=0.3)
    cfg = MCConfig(replicates=50, n=128, master_seed=2, offsets=(1,))
    report = smoothness_sweep(params, prior, 1.0, (0.3, 0.1, 0.03, 0.01), cfg,
                              signal_N=512)
    return report_csv(report)


# CLI runs: (command, config text).  The last three are the benchmark
# workloads at one fixed seed, with R cut to 300 for the n = 2000 case.
CLI_RUNS = {
    "cli-verify-undershoot": ("verify", f"""
        theorem = undershoot
        signal = adversarial-long
        tau = 9
        eps = 1
        L1 = 3
        L2 = 3
        Delta = 1.1
        kappa = {math.expm1(1.2)!r}
        varkappa = 0.4
        R = 2000
        n = 20
        seed = 20250106
        offsets = 1,2,3
    """),
    "cli-smoothness": ("smoothness", f"""
        signal_s = 1
        signal_Q = 1
        signal_alpha = 0.1
        signal_rho0 = 2
        signal_N0 = 2
        signal_N = 512
        kappa = {KAPPA_A6}
        varkappa = 0.5
        tau = 1
        eps_grid = 0.3, 0.1, 0.03
        R = 40
        n = 128
        seed = 7
    """),
    "overshoot-n20": ("verify", f"""
        theorem = overshoot
        signal = zero
        signal_N = 20
        eps = 1
        tau = 1
        kappa = {KAPPA_A6}
        varkappa = 2
        R = 2000
        n = 20
        offsets = 1,2,3,4,5
        seed = 20250110
    """),
    "two-sided-n2000": ("verify", f"""
        theorem = two-sided-i
        signal = power-law
        signal_s = 2
        signal_c = 1
        signal_N = 2000
        eps = 1
        tau = 9
        t0 = 1
        N0 = 1
        kappa = {KAPPA_A6}
        varkappa = 2
        R = 300
        n = 2000
        offsets = 6,8,10
        seed = 20250110
    """),
    "smoothness-N1e5": ("smoothness", f"""
        signal_s = 1
        signal_Q = 1
        signal_alpha = 0.1
        signal_rho0 = 2
        signal_N0 = 2
        signal_N = 100000
        kappa = {KAPPA_A6}
        varkappa = 0.5
        tau = 1
        eps_grid = 0.3,0.1,0.03,0.01,0.003
        R = 500
        n = 1024
        seed = 20250110
    """),
}


def cli_report(name, workdir: Path) -> str:
    command, text = CLI_RUNS[name]
    cfg, out = workdir / f"{name}.cfg", workdir / f"{name}.csv"
    cfg.write_text(text)
    cli_main([command, "--config", str(cfg), "--out", str(out)])
    return out.read_text()


LIBRARY_RUNS = {
    "c05": c05,
    "c05-unlabelled": lambda: c05(label=None),
    "c06": c06,
    "c07": c07,
    "c08-i": c08_i,
    "c08-ii": c08_ii,
    "c09": c09,
}

NAMES = [*LIBRARY_RUNS, *CLI_RUNS]


def produce(name, workdir: Path) -> str:
    if name in LIBRARY_RUNS:
        return LIBRARY_RUNS[name]()
    return cli_report(name, workdir)


@pytest.mark.parametrize("name", NAMES)
def test_report_bytes_match_golden(name, tmp_path):
    golden = (GOLDEN_DIR / f"{name}.csv").read_bytes()
    produced = produce(name, tmp_path).encode()
    assert produced == golden, (
        f"{name}: report bytes differ from tests/golden/{name}.csv.  The goldens "
        f"were generated with numpy {GOLDEN_NUMPY}; this run uses numpy "
        f"{np.__version__}, and NEP 19 does not promise identical random "
        "streams across numpy releases."
    )


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    GOLDEN_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in NAMES:
            (GOLDEN_DIR / f"{name}.csv").write_text(produce(name, Path(tmp)))
            print(f"wrote tests/golden/{name}.csv")
