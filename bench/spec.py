"""What the benchmark runs and reports: workloads, metrics and seeds.

This module is imported by the workload process before the timed import of
`effdim.cli`, so it uses the standard library only.
"""

from __future__ import annotations

import hashlib
import math

# kappa = e^2 - 1 in every workload, written exactly as the acceptance suite
# builds it, so the overshoot workload is acceptance criterion c05 reseeded.
KAPPA = repr(math.e**2 - 1.0)

# One operation = one report.  Each workload's config holds the key = value
# lines of its config file; `seed` and `out` are added per operation.
WORKLOADS = {
    "overshoot-n20": {
        "command": "verify",
        "why": "c05 at desk scale: per-replicate Python overhead (Generator, pmf, MAP, "
        "5 region masses on 20-element arrays) dominates",
        "config": {
            "theorem": "overshoot",
            "signal": "zero",
            "signal_N": "20",
            "eps": "1",
            "tau": "1",
            "kappa": KAPPA,
            "varkappa": "2",
            "R": "2000",
            "n": "20",
            "offsets": "1,2,3,4,5",
        },
    },
    "two-sided-n2000": {
        "command": "verify",
        "why": "same layers, array work per replicate dominates (2000 normals, cumsum, "
        "exp), two region masses per offset and the tail-condition check",
        "config": {
            "theorem": "two-sided-i",
            "signal": "power-law",
            "signal_s": "2",
            "signal_c": "1",
            "signal_N": "2000",
            "eps": "1",
            "tau": "9",
            "t0": "1",
            "N0": "1",
            "kappa": KAPPA,
            "varkappa": "2",
            "R": "2000",
            "n": "2000",
            "offsets": "6,8,10",
        },
    },
    "smoothness-N1e5": {
        "command": "smoothness",
        "why": "signal construction dominates: O(N^2) membership block loop and the "
        "10^6-term tail sum; the posterior is used MAP-only",
        "config": {
            "signal_s": "1",
            "signal_Q": "1",
            "signal_alpha": "0.1",
            "signal_rho0": "2",
            "signal_N0": "2",
            "signal_N": "100000",
            "kappa": KAPPA,
            "varkappa": "0.5",
            "tau": "1",
            "eps_grid": "0.3,0.1,0.03,0.01,0.003",
            "R": "500",
            "n": "1024",
        },
    },
}

# (name, unit, better, regression bound as a share of the parent's median).
# failed_ops_ratio is not listed: it is 0 on a correct program, so it is
# carried by the result's `attempted` and `failed` fields and printed beside
# the metrics instead.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("report_p50_s", "s", "lower", 0.24),
    ("report_tail_s", "s", "lower", 0.24),
    ("replicates_per_s", "1/s", "higher", 0.24),
    ("peak_rss_mb", "MiB", "lower", 0.1),
]

# (name, unit, better, the end-to-end metric and workload it should move).
# All values are per traced operation.  On workloads not named, the
# prediction is no change.
PER_LAYER = [
    ("cli.main.calls", "count/op", "lower", "guard: exactly 1"),
    ("cli.self_s", "s/op", "lower", "report_p50_s on overshoot-n20"),
    ("cli.out_bytes", "B/op", "lower", "report_p50_s on overshoot-n20"),
    ("experiments.report.calls", "count/op", "lower", "guard: exactly 1"),
    ("experiments.self_s", "s/op", "lower", "replicates_per_s on overshoot-n20"),
    ("experiments.replicates", "count/op", "higher", "guard: R, or R * len(eps_grid)"),
    ("experiments.report_csv_s", "s/op", "lower", "report_p50_s on overshoot-n20"),
    ("posterior.pmf.calls", "count/op", "lower",
     "replicates_per_s on overshoot-n20 and two-sided-n2000"),
    ("posterior.pmf_s", "s/op", "lower",
     "replicates_per_s on overshoot-n20 and two-sided-n2000"),
    ("posterior.map_dimension.calls", "count/op", "lower", "replicates_per_s on all three"),
    ("posterior.map_dimension_s", "s/op", "lower", "replicates_per_s on all three"),
    ("posterior.region_mass.calls", "count/op", "lower",
     "replicates_per_s on overshoot-n20 and two-sided-n2000"),
    ("posterior.region_mass_s", "s/op", "lower",
     "replicates_per_s on overshoot-n20 and two-sided-n2000"),
    ("posterior.elements", "count/op", "lower",
     "replicates_per_s on overshoot-n20 and two-sided-n2000"),
    ("signals.simulate.calls", "count/op", "lower", "replicates_per_s on all three"),
    ("signals.simulate_s", "s/op", "lower", "replicates_per_s on all three"),
    ("signals.noise_draws", "count/op", "lower", "replicates_per_s on all three"),
    ("signals.construct_s", "s/op", "lower",
     "report_p50_s and setup_s on smoothness-N1e5"),
    ("signals.check_membership_s", "s/op", "lower",
     "report_p50_s and setup_s on smoothness-N1e5"),
    ("oracle.effective_dimension.calls", "count/op", "lower",
     "report_p50_s on smoothness-N1e5"),
    ("oracle.effective_dimension_s", "s/op", "lower", "report_p50_s on smoothness-N1e5"),
    ("oracle.condition_s", "s/op", "lower", "report_p50_s on two-sided-n2000"),
    ("rates.sup.calls", "count/op", "lower", "none: negligible everywhere"),
    ("rates.sup_s", "s/op", "lower", "none: negligible everywhere"),
    ("trace.overhead_ratio", "ratio", "lower", "not applicable"),
    ("trace.wrapper_us", "us", "lower", "not applicable"),
]

RUN_SECONDS = 20
# Fresh processes that measure set-up per run; setup_s is their median.
SETUP_SAMPLES = 5


def replicates_per_op(name: str) -> int:
    """Replicates one operation completes: R, times the grid for a sweep."""
    cfg = WORKLOADS[name]["config"]
    reps = int(cfg["R"])
    if "eps_grid" in cfg:
        reps *= len(cfg["eps_grid"].split(","))
    return reps


def op_seed(name: str, seed: int, k: int) -> int:
    """Master seed of operation k of a run: a 63-bit hash of (workload, seed, k).

    Every operation gets its own noise streams, so no cache can serve a
    repeat.
    """
    digest = hashlib.blake2b(f"{name}:{seed}:{k}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


def config_text(name: str, seed: int, out: str) -> str:
    """The flat key = value config file for one operation."""
    values = dict(WORKLOADS[name]["config"], seed=str(seed), out=out)
    return "".join(f"{k} = {v}\n" for k, v in values.items())


def benchmark_json() -> dict:
    """The BENCHMARK.json this module describes."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": k, "why": w["why"]} for k, w in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER],
    }
