"""Repeat bench/run.py over seeds and summarise the spread of each metric.

    python3 bench/collect.py --runs 10 --out bench/results/entry0.json
    python3 bench/collect.py --runs 5 --workload two-sided-n2000 --traced 0

For every workload it makes --runs untraced runs, seeds 1..runs, and
--traced traced runs, then reports each metric's median, quartiles
(`statistics.quantiles(values, n=4)`) and spread, the distance between the
quartiles as a share of the median.  A metric is steady when its spread is
below a third of its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import spec  # noqa: E402


def one_run(name: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith(f"{name} provenance "):
            result["provenance"] = json.loads(line.split(" provenance ", 1)[1])
            result["provenance"].pop("op_seeds")
        elif f"{name} report_tail_s = " in line:
            result["tail_note"] = line.rsplit("(", 1)[1].rstrip(")")
    return result


def summarise(values: list[float], bound: float | None) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    out = {"values": values, "median": median, "q1": q1, "q3": q3,
           "spread": (q3 - q1) / median if median else None}
    if bound is not None:
        out["bound"] = bound
        out["steady"] = out["spread"] is not None and out["spread"] < bound / 3
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--traced", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS))
    parser.add_argument("--workload", action="append", choices=list(spec.WORKLOADS))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bounds = {n: b for n, _, _, b in spec.END_TO_END}
    summary = {"run_seconds": args.seconds, "workloads": {}}
    for name in args.workload or spec.WORKLOADS:
        seeds = range(args.first_seed, args.first_seed + args.runs)
        runs = [one_run(name, s, args.seconds, 0) for s in seeds]
        traced = [one_run(name, s, args.seconds, 1)
                  for s in range(args.first_seed, args.first_seed + args.traced)]
        entry = {
            "seeds": list(seeds),
            "attempted": sum(r["attempted"] for r in runs + traced),
            "failed": sum(r["failed"] for r in runs + traced),
            "tail_percentiles": sorted({r["tail_note"] for r in runs}),
            "end_to_end": {
                m: summarise([r["metrics"][m]["value"] for r in runs], bounds[m])
                for m in bounds
            },
            "per_layer": {m: [t["metrics"][m]["value"] for t in traced]
                          for m, *_ in spec.PER_LAYER},
            "provenance": [r["provenance"] for r in runs + traced],
        }
        summary["workloads"][name] = entry
        for m, s in entry["end_to_end"].items():
            print(f"{name} {m} median={s['median']:.6g} spread={s['spread']:.4f} "
                  f"bound={s['bound']} steady={s['steady']}", flush=True)
        print(f"{name} attempted={entry['attempted']} failed={entry['failed']} "
              f"tail={entry['tail_percentiles']}", flush=True)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
