"""effdim benchmark: replicates per second through the `effdim` front door.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N     # every workload, both modes

Each workload runs in fresh processes (worker.py) as a closed loop with one
client.  One operation is one `verify` or `smoothness` report written to a
CSV through `effdim.cli.main`; its master seed is derived from the workload
seed and the operation index.  After the timed window every report is
checked here, in this process, against the independent reference in
reference.py.

With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 it carries the per-layer metrics from a run in which every other
operation is traced.  The lines before it name each metric with its unit,
the sample counts, the failed-operation ratio and the provenance.  Work
files and span traces go to .bench_work/ at the repository root.

The benchmark's own tests: python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import spec  # noqa: E402

# report_tail_s is the highest percentile with at least this many samples
# beyond it: the (TAIL_BEYOND+1)-th largest operation time, but never below
# the median.
TAIL_BEYOND = 10


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """(percentile, nearest-rank value) of the tail sample."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(n - TAIL_BEYOND, n // 2 + 1)
    return 100.0 * rank / n, ordered[rank - 1]


def source_digest() -> str:
    """sha256 over the library sources, which identifies the code measured
    when the checkout carries no git metadata."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or None


def provenance(name: str, seed: int) -> dict:
    import numpy

    return {
        "effdim_commit": git_commit(),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "workload": name,
        "seed": seed,
    }


def start_worker(name: str, seed: int, seconds: float, mode: str, first_k: int,
                 work: Path) -> dict:
    """Run worker.py to completion in a fresh process and return its result."""
    work.mkdir(parents=True)
    cmd = [sys.executable, str(BENCH / "worker.py"), name, str(seed), repr(seconds),
           mode, str(first_k), str(work)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=seconds + 150)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process failed ({proc.returncode}):\n{proc.stderr}")
    result = json.loads((work / "result.json").read_text())
    expected = (ROOT / "src" / "effdim").resolve()
    if Path(result["effdim_file"]).resolve().parent != expected:
        raise RuntimeError(f"measured {result['effdim_file']}, not the checkout's effdim")
    return result


def check_ops(name: str, results: list[tuple[Path, dict]]) -> list[str]:
    """Check every operation's report; returns one line per failed operation."""
    import reference

    workload = spec.WORKLOADS[name]
    ref = reference.Reference(workload["command"], workload["config"])
    failures = []
    for work, result in results:
        for op in result["ops"]:
            out = work / f"op{op['k']}.csv"
            text = out.read_text() if out.exists() else None
            problems = reference.check_operation(ref, op["seed"], op["exit_code"],
                                                 op["error"], text)
            if problems:
                failures.append(f"op {op['k']} seed {op['seed']}: " + "; ".join(problems[:3]))
    return failures


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload and return its metrics, counts and provenance."""
    prov = provenance(name, seed)
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        results = []
        if not trace:
            for i in range(spec.SETUP_SAMPLES - 1):
                work = tmp / f"setup{i}"
                results.append((work, start_worker(name, seed, 0.0, "setup", i, work)))
        main_work = tmp / "main"
        main = start_worker(name, seed, seconds, "trace" if trace else "loop",
                            spec.SETUP_SAMPLES - 1, main_work)
        results.append((main_work, main))
        failures = check_ops(name, results)
        if trace:
            kept = WORK / f"trace-{name}-seed{seed}.npz"
            shutil.move(main["trace_file"], kept)
            main["trace_file"] = str(kept)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = sum(len(r["ops"]) for _, r in results)
    prov["loadavg_end"] = list(os.getloadavg())
    prov["op_seeds"] = {op["k"]: op["seed"] for _, r in results for op in r["ops"]}
    timed = [op for op in main["ops"] if not op.get("warmup")]
    out = {"workload": name, "attempted": attempted, "failed": len(failures),
           "failures": failures, "provenance": prov}
    if trace:
        out.update(trace_metrics(main, timed))
    else:
        out.update(end_to_end_metrics(name, [r for _, r in results], main, timed))
    return out


def end_to_end_metrics(name: str, results: list[dict], main: dict, timed: list[dict]) -> dict:
    seconds = [op["seconds"] for op in timed]
    done = [op for op in timed if op["exit_code"] is not None]
    pct, tail = tail_percentile(seconds)
    reps = spec.replicates_per_op(name) * len(done)
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "report_p50_s": statistics.median(seconds),
        "report_tail_s": tail,
        "replicates_per_s": reps / sum(seconds),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    notes = {
        "setup_s": f"median of {len(results)} fresh processes",
        "report_p50_s": f"n={len(seconds)}",
        "report_tail_s": f"p{pct:.4g}, n={len(seconds)}",
        "replicates_per_s": f"{reps} replicates in {sum(seconds):.3f} s",
        "peak_rss_mb": "ru_maxrss of the workload process",
    }
    return {"metrics": metrics, "notes": notes}


def trace_metrics(main: dict, timed: list[dict]) -> dict:
    traced = [op for op in timed if op["traced"]]
    plain = [op for op in timed if not op["traced"]]
    measured = dict(main["layers"])
    measured["cli.out_bytes"] = statistics.mean(op["out_bytes"] for op in traced)
    measured["trace.overhead_ratio"] = statistics.median(
        op["seconds"] for op in traced) / statistics.median(
        op["seconds"] for op in plain) - 1.0
    measured["trace.wrapper_us"] = main["wrapper_us"]
    metrics = {name: measured[name] for name, *_ in spec.PER_LAYER}
    notes = {m: f"per traced operation, n={len(traced)}" for m in metrics}
    notes["trace.overhead_ratio"] = (
        f"traced/untraced report_p50_s - 1, n={len(traced)}/{len(plain)}")
    notes["trace.wrapper_us"] = "one call through an empty wrapper, over a direct call"
    repeat = all(len(set(v)) == 1 for v in main["per_op_counts"].values())
    return {"metrics": metrics, "notes": notes, "counts_repeat": repeat,
            "trace_file": main["trace_file"]}


def emit(out: dict, units: dict) -> None:
    """Human-readable lines for one workload run."""
    name = out["workload"]
    for metric, value in out["metrics"].items():
        print(f"{name} {metric} = {value!r} {units[metric]} ({out['notes'][metric]})")
    ratio = out["failed"] / out["attempted"]
    print(f"{name} failed_ops_ratio = {ratio!r} ratio (ops_attempted={out['attempted']})")
    for line in out["failures"][:10]:
        print(f"{name} FAILED {line}")
    if "counts_repeat" in out:
        print(f"{name} per-operation call counts repeat exactly: {out['counts_repeat']}")
        print(f"{name} trace file: {out['trace_file']}")
    print(f"{name} provenance {json.dumps(out['provenance'])}")


def units() -> dict:
    table = {n: u for n, u, *_ in spec.END_TO_END}
    table.update({n: u for n, u, *_ in spec.PER_LAYER})
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*spec.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=float(spec.RUN_SECONDS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "effdim" / "cli.py").is_file():
        print(f"error: no effdim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    if args.workload == "all":
        runs = [(n, t) for n in spec.WORKLOADS for t in (False, True)]
    else:
        runs = [(args.workload, bool(args.trace))]
    outs = [run_workload(n, args.seed, args.seconds, t) for n, t in runs]
    table = units()
    for out in outs:
        emit(out, table)
    if len(outs) == 1:
        metrics = {k: {"value": v, "unit": table[k]} for k, v in outs[0]["metrics"].items()}
    else:
        metrics = {f"{o['workload']}.{k}": {"value": v, "unit": table[k]}
                   for o in outs for k, v in o["metrics"].items()}
    attempted = sum(o["attempted"] for o in outs)
    failed = sum(o["failed"] for o in outs)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
