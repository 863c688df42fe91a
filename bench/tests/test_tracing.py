"""The tracing harness: span accounting, installation and repeatable counts."""

import time
from types import SimpleNamespace

import pytest

import spec
import tracing
import worker


def test_self_time_partitions_the_root_span():
    tracer = tracing.Tracer()

    def leaf():
        time.sleep(0.002)
        return SimpleNamespace(n=5)

    leaf = tracer.wrap("signals.simulate", leaf)

    def middle():
        leaf()
        leaf()
        time.sleep(0.001)

    middle = tracer.wrap("experiments.mc_overshoot", middle)
    root = tracer.wrap("cli.main", lambda: (middle(), leaf()))
    root()
    root()
    name, parent, self_time, _ = tracing._spans(tracer)
    roots = parent < 0
    assert roots.sum() == 2
    total = sum(e - s for e, s, r in zip(tracer.end, tracer.start, roots) if r)
    assert self_time.sum() == pytest.approx(total, rel=1e-9)
    assert (self_time >= 0).all()
    metrics, counts = tracing.layer_metrics(tracer)
    assert metrics["cli.main.calls"] == 1.0
    assert metrics["signals.simulate.calls"] == 3.0
    assert metrics["experiments.replicates"] == 2.0  # the third leaf sits under cli.main
    assert metrics["signals.noise_draws"] == 15.0
    assert counts["signals.simulate.calls"] == [3, 3]


def test_uninstall_restores_every_binding():
    import effdim.cli
    import effdim.experiments
    import effdim.signals

    before = (effdim.cli.main, effdim.experiments.pmf, effdim.signals.check_membership)
    saved = tracing.install(tracing.Tracer())
    assert effdim.experiments.pmf is not before[1]
    assert effdim.signals.check_membership.__wrapped__ is before[2]
    tracing.uninstall(saved)
    assert (effdim.cli.main, effdim.experiments.pmf,
            effdim.signals.check_membership) == before


def traced_run(tmp_path, name, seed, ops):
    import effdim.cli

    tracer = tracing.Tracer()
    for k in range(ops):
        saved = tracing.install(tracer)
        try:
            record = worker.run_op(effdim.cli, name, seed, k, tmp_path)
        finally:
            tracing.uninstall(saved)
        assert record["exit_code"] == 0, record["error"]
    return tracing.layer_metrics(tracer)


@pytest.mark.parametrize("name, region_masses", [
    ("overshoot-n20", 10000), ("two-sided-n2000", 12000), ("smoothness-N1e5", 0),
])
def test_call_counts_repeat_exactly(tmp_path, name, region_masses):
    first, first_counts = traced_run(tmp_path, name, seed=1, ops=2)
    second, second_counts = traced_run(tmp_path, name, seed=2, ops=1)
    assert first["posterior.region_mass.calls"] == region_masses
    assert first["experiments.replicates"] == spec.replicates_per_op(name)
    for metric, per_op in first_counts.items():
        assert len(set(per_op)) == 1, metric
        assert second_counts[metric] == per_op[:1], metric
    for metric in first:
        if metric.endswith(".calls") or metric in (
                "experiments.replicates", "posterior.elements", "signals.noise_draws"):
            assert first[metric] == second[metric], metric


def test_wrapper_calibration_is_positive():
    assert 0.0 < tracing.calibrate_wrapper_us(calls=20_000) < 100.0
