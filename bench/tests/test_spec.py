"""BENCHMARK.json, the run harness and the seeds agree with each other."""

import json
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spec

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_matches_spec():
    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert on_disk == spec.benchmark_json()


def test_benchmark_json_within_limits():
    bench = spec.benchmark_json()
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in bench[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    assert all(0 < m["bound"] <= 0.25 for m in bench["end_to_end"])
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in bench["workloads"])
    assert 2 <= len(bench["workloads"]) <= 8
    assert 1 <= bench["run_seconds"] <= 60


def test_op_seeds_are_distinct_and_repeatable():
    seeds = [spec.op_seed("overshoot-n20", 3, k) for k in range(1000)]
    assert len(set(seeds)) == 1000
    assert seeds == [spec.op_seed("overshoot-n20", 3, k) for k in range(1000)]
    assert spec.op_seed("overshoot-n20", 3, 0) != spec.op_seed("overshoot-n20", 4, 0)
    assert all(0 <= s < 2**63 for s in seeds)


@pytest.mark.parametrize("n", [5, 11, 19, 20, 21, 47, 125])
def test_tail_keeps_ten_samples_beyond_and_the_median_below(n):
    samples = [float(i) for i in range(n)]
    pct, value = run.tail_percentile(samples)
    beyond = sum(s > value for s in samples)
    assert beyond == min(10, (n - 1) // 2)
    assert pct == pytest.approx(100.0 * (n - beyond) / n)
    assert value >= statistics.median(samples)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "results"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "overshoot-n20", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
