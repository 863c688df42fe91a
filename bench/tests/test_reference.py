"""The reference checker: it reproduces the library, and it counts a wrong
report as a failed operation."""

import contextlib
import io
import math

import numpy as np
import pytest

import reference
import spec
from effdim.cli import main as cli_main
from effdim.experiments import MCConfig, mc_overshoot, report_csv
from effdim.posterior import PriorParams
from effdim.signals import zero_signal

OVERSHOOT = spec.WORKLOADS["overshoot-n20"]
C05_SEED = 20250105


@pytest.fixture(scope="module")
def c05_report():
    """Acceptance criterion c05: the overshoot workload's config at seed 20250105."""
    prior = PriorParams(kappa=math.e**2 - 1.0, varkappa=2.0, epsilon=1.0)
    cfg = MCConfig(replicates=2000, n=20, master_seed=C05_SEED, offsets=(1, 2, 3, 4, 5))
    return report_csv(mc_overshoot(zero_signal(20), prior, 1.0, cfg, label="zero"))


@pytest.fixture(scope="module")
def overshoot_ref():
    return reference.Reference(OVERSHOOT["command"], OVERSHOOT["config"])


def replace_cell(text, line_no, column, new):
    lines = text.splitlines()
    cells = lines[line_no].split(",")
    cells[column] = new
    lines[line_no] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_reproduces_mc_overshoot_on_c05(c05_report, overshoot_ref):
    assert overshoot_ref.check(C05_SEED, c05_report) == []
    assert reference.check_operation(overshoot_ref, C05_SEED, 0, None, c05_report) == []


def test_perturbed_mass_is_a_failed_operation(c05_report, overshoot_ref):
    mass = float(c05_report.splitlines()[4].split(",")[1])
    bad = replace_cell(c05_report, 4, 1, repr(mass * (1 + 1e-7)))
    problems = reference.check_operation(overshoot_ref, C05_SEED, 0, None, bad)
    assert problems and "offset 3 posterior_mass" in problems[0]
    # a change well inside the stated tolerance is not a failure
    near = replace_cell(c05_report, 4, 1, repr(mass * (1 + 1e-12)))
    assert overshoot_ref.check(C05_SEED, near) == []


def test_wrong_d_tau_is_a_failed_operation(c05_report, overshoot_ref):
    bad = c05_report.replace(" d_tau=1 ", " d_tau=2 ", 1)
    assert bad != c05_report
    problems = reference.check_operation(overshoot_ref, C05_SEED, 0, None, bad)
    assert any("d_tau" in p for p in problems)


def test_other_seed_frequency_is_exact(c05_report, overshoot_ref):
    assert overshoot_ref.check(C05_SEED + 1, c05_report)


@pytest.mark.parametrize("cell", ["nan", "inf", "x"])
def test_non_finite_or_garbled_value_fails(c05_report, overshoot_ref, cell):
    assert overshoot_ref.check(C05_SEED, replace_cell(c05_report, 3, 2, cell))


def test_raise_exit_code_and_missing_file_fail(overshoot_ref):
    assert reference.check_operation(overshoot_ref, 1, None, "ValueError()", None)
    assert reference.check_operation(overshoot_ref, 1, 1, None, "")
    assert reference.check_operation(overshoot_ref, 1, 2, "error: bad", None)
    assert reference.check_operation(overshoot_ref, 1, 0, None, None)
    assert reference.check_operation(overshoot_ref, 1, 0, None, "garbage\n")


def test_never_calls_posterior_or_experiments(c05_report, monkeypatch):
    import effdim.experiments
    import effdim.posterior

    def forbidden(*args, **kwargs):
        raise AssertionError("the reference called the library under test")

    for module in (effdim.posterior, effdim.experiments):
        for name in module.__all__:
            if callable(getattr(module, name)):
                monkeypatch.setattr(module, name, forbidden)
    ref = reference.Reference(OVERSHOOT["command"], OVERSHOOT["config"])
    assert ref.check(C05_SEED, c05_report) == []


def run_cli(tmp_path, command, config, seed):
    out = tmp_path / "report.csv"
    text = "".join(f"{k} = {v}\n" for k, v in dict(config, seed=seed, out=out).items())
    (tmp_path / "op.cfg").write_text(text)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli_main([command, "--config", str(tmp_path / "op.cfg")])
    return rc, out.read_text()


def small(name, **overrides):
    return dict(spec.WORKLOADS[name]["config"], **overrides)


@pytest.mark.parametrize("name, overrides", [
    ("two-sided-n2000", {"R": "300", "n": "300", "signal_N": "300"}),
    ("smoothness-N1e5", {"R": "100", "n": "256", "signal_N": "3000"}),
])
def test_reproduces_the_other_workloads(tmp_path, name, overrides):
    command = spec.WORKLOADS[name]["command"]
    config = small(name, **overrides)
    rc, text = run_cli(tmp_path, command, config, 77)
    assert rc == 0
    ref = reference.Reference(command, config)
    assert ref.check(77, text) == []
    assert ref.check(78, text)


def test_region_masses_are_exact_beyond_the_data():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 8))
    kappa, varkappa, eps = math.e**2 - 1.0, 0.7, 1.0
    post = reference.Posterior(np.cumsum(x * x, axis=1), kappa, varkappa, eps)
    # brute force: materialise the geometric continuation far past n
    n, far = 8, 400
    d = np.arange(1, n + far + 1, dtype=float)
    s = np.concatenate([np.cumsum(x * x, axis=1),
                        np.repeat(np.sum(x * x, axis=1)[:, None], far, axis=1)], axis=1)
    logw = -varkappa * np.minimum(d, n) + s / 2 - 0.5 * np.minimum(d, n) * math.log(kappa + 1)
    logw[:, n:] -= varkappa * (d[n:] - n)
    w = np.exp(logw - logw.max(axis=1, keepdims=True))
    p = w / w.sum(axis=1, keepdims=True)
    for lo, hi in [(1, math.inf), (3, 5), (7, 12), (9, math.inf), (12, math.inf),
                   (10, 15), (20, 30), (6, 2)]:
        top = n + far if math.isinf(hi) else int(hi)
        want = p[:, lo - 1:top].sum(axis=1) if lo <= top else np.zeros(3)
        assert np.allclose(post.mass(lo, hi), want, rtol=1e-12, atol=1e-15)
    assert np.allclose(post.mass(1, 9) + post.mass(10, math.inf), 1.0)


def test_rates_match_closed_forms():
    assert reference.f_sup(6.0, 1.0) == pytest.approx(0.6534264097200273, abs=1e-12)
    assert reference.g_sup(2.0, 9.0) == pytest.approx(1.5965735902799727, abs=1e-12)
    assert reference.f_sup(2.0, 1.0) == 0.0
    assert reference.g_sup(6.0, 1.0) == 0.0
