"""One workload process: import effdim.cli, warm up, then a closed loop.

Started by run.py as

    python3 bench/worker.py WORKLOAD SEED SECONDS MODE FIRST_K WORKDIR

MODE is `setup` (import and one operation), `loop` (then operations back
to back for SECONDS) or `trace` (the same loop, with every other operation
traced).  One client, one thread: each operation starts when the previous
one returns.  Operation k writes WORKDIR/op<k>.csv; the timings go to
WORKDIR/result.json.  The output is checked afterwards by run.py, in its
own process, so the check adds nothing to this process's peak RSS.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import spec  # noqa: E402  (standard library only)


def run_op(cli, name: str, seed: int, k: int, work: Path) -> dict:
    """One report through the front door; returns its record."""
    s = spec.op_seed(name, seed, k)
    cfg = work / "op.cfg"
    out = work / f"op{k}.csv"
    cfg.write_text(spec.config_text(name, s, str(out)))
    argv = [spec.WORKLOADS[name]["command"], "--config", str(cfg)]
    stdout, stderr = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(argv)
        error = stderr.getvalue().strip() or None
    except Exception as exc:  # an operation that raises is a failed operation
        rc, error = None, repr(exc)
    seconds = time.perf_counter() - t0
    out_bytes = len(stdout.getvalue().encode()) + (out.stat().st_size if out.exists() else 0)
    return {"k": k, "seed": s, "seconds": seconds, "exit_code": rc, "error": error,
            "out_bytes": out_bytes}


def main() -> int:
    name, seed, seconds, mode, first_k, work = sys.argv[1:7]
    seed, seconds, first_k, work = int(seed), float(seconds), int(first_k), Path(work)
    sys.path.insert(0, str(BENCH.parent / "src"))

    t0 = time.perf_counter()
    import effdim.cli as cli

    ops = [run_op(cli, name, seed, first_k, work)]
    setup_s = time.perf_counter() - t0
    ops[0]["warmup"] = True
    result = {"setup_s": setup_s, "effdim_file": cli.__file__}

    if mode in ("loop", "trace"):
        tracer = None
        if mode == "trace":
            import tracing

            tracer = tracing.Tracer()
        k = first_k
        deadline = time.perf_counter() + seconds
        # at least one traced and one untraced operation, however short the window
        while k < first_k + 2 or time.perf_counter() < deadline:
            k += 1
            traced = tracer is not None and k % 2 == 1
            if traced:
                saved = tracing.install(tracer)
            record = run_op(cli, name, seed, k, work)
            if traced:
                tracing.uninstall(saved)
            record["traced"] = traced
            ops.append(record)
        # Linux reports ru_maxrss in KiB
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            result["wrapper_us"] = tracing.calibrate_wrapper_us()
            result["layers"], result["per_op_counts"] = tracing.layer_metrics(tracer)
            trace_file = work / "trace.npz"
            tracing.save(tracer, trace_file)
            result["trace_file"] = str(trace_file)

    result["ops"] = ops
    (work / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
