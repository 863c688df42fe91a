import math

import numpy as np
import pytest

from effdim.experiments import (
    MCConfig,
    lower_bound_experiment,
    lower_bound_floor,
    mc_overshoot,
    mc_two_sided,
    mc_undershoot,
    report_csv,
    smoothness_estimate,
    smoothness_sweep,
)
from effdim.rates import f_sup, g_sup
from effdim.signals import (
    SmoothnessClassParams,
    adversarial_pair,
    power_law_signal,
    zero_signal,
)

from helpers import prior_with_A


class TestMCConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="replicates"):
            MCConfig(replicates=0, n=10, master_seed=1, offsets=(1,))
        with pytest.raises(ValueError, match="offsets"):
            MCConfig(replicates=10, n=10, master_seed=1, offsets=())
        with pytest.raises(ValueError, match="offsets"):
            MCConfig(replicates=10, n=10, master_seed=1, offsets=(0,))

    def test_non_integral_counts_rejected(self):
        cfg = MCConfig(replicates=100.0, n=np.int64(20), master_seed=-3.0, offsets=(1.0, 2))
        assert (cfg.replicates, cfg.n, cfg.master_seed, cfg.offsets) == (100, 20, -3, (1, 2))
        good = dict(replicates=100, n=20, master_seed=1, offsets=(1,))
        for field, bad in [("replicates", 100.9), ("n", 20.7), ("master_seed", 1.5),
                           ("offsets", (1.5,))]:
            with pytest.raises(ValueError, match=f"{field} must be an integer"):
                MCConfig(**{**good, field: bad})

    def test_seed_message_names_no_bound(self):
        # the seed has no lower bound, so the message must not say ">= -inf"
        with pytest.raises(ValueError, match="^master_seed must be an integer, got 1.5$"):
            MCConfig(replicates=100, n=20, master_seed=1.5, offsets=(1,))


class TestOvershoot:
    def test_requires_A_above_one_plus_tau(self):
        prior = prior_with_A(2.0, 0.4, 1.0)
        cfg = MCConfig(replicates=100, n=10, master_seed=1, offsets=(1,))
        with pytest.raises(ValueError, match=r"A > 1 \+ tau"):
            mc_overshoot(zero_signal(10), prior, 1.5, cfg)

    def test_requires_enough_replicates(self):
        prior = prior_with_A(6.0, 2.0, 1.0)
        cfg = MCConfig(replicates=50, n=10, master_seed=1, offsets=(1,))
        with pytest.raises(ValueError, match="standard errors"):
            mc_overshoot(zero_signal(10), prior, 1.0, cfg)

    def test_zero_signal_rows_satisfied(self):
        prior = prior_with_A(6.0, 2.0, 1.0)
        cfg = MCConfig(replicates=200, n=12, master_seed=5, offsets=(1, 2, 3, 4, 5))
        report = mc_overshoot(zero_signal(12), prior, 1.0, cfg)
        assert report.kind == "overshoot"
        assert report.meta["alpha"] == pytest.approx(f_sup(6.0, 1.0).value, abs=1e-15)
        assert report.meta["d_tau"] == 1
        bounds = [r.theory_bound for r in report.rows]
        assert all(b > 0 for b in bounds)
        assert all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))
        assert not any(r.vacuous for r in report.rows)
        assert report.all_satisfied

    def test_tiny_rate_rows_are_vacuous(self):
        prior = prior_with_A(2.2, 0.5, 1.0)  # barely above 1 + tau
        cfg = MCConfig(replicates=100, n=8, master_seed=2, offsets=(1, 2, 3))
        report = mc_overshoot(zero_signal(8), prior, 1.0, cfg)
        assert all(r.vacuous for r in report.rows)
        assert all(r.theory_bound >= 1.0 for r in report.rows)
        assert report.all_satisfied  # vacuously: no evidence either way


    def test_rejects_n_past_the_horizon_of_a_tail_signal(self):
        # zero-padding would silently drop the certified tail energy
        prior = prior_with_A(6.0, 2.0, 1.0)
        cfg = MCConfig(replicates=100, n=20, master_seed=1, offsets=(1,))
        with pytest.raises(ValueError, match="signal horizon N = 10"):
            mc_overshoot(power_law_signal(2.0, 1.0, 10), prior, 1.0, cfg)


class TestUndershoot:
    def test_requires_A_below_one_plus_tau(self):
        prior = prior_with_A(6.0, 2.0, 1.0)
        cfg = MCConfig(replicates=100, n=10, master_seed=1, offsets=(1,))
        with pytest.raises(ValueError, match=r"A < 1 \+ tau"):
            mc_undershoot(zero_signal(10), prior, 1.0, cfg)

    def test_head_heavy_signal_rows_satisfied(self):
        tau = 9.0
        _, long = adversarial_pair(tau, 1.0, 3, 3, 1.1)
        prior = prior_with_A(2.0, 0.4, 1.0)
        cfg = MCConfig(replicates=200, n=20, master_seed=6, offsets=(1, 2, 3, 7))
        report = mc_undershoot(long, prior, tau, cfg)
        assert report.meta["beta"] == pytest.approx(g_sup(2.0, tau).value, abs=1e-15)
        assert report.meta["d_tau"] == 7
        assert report.all_satisfied
        # offsets at or beyond d_tau leave an empty region
        last = report.rows[-1]
        assert last.offset == 7
        assert last.posterior_mass == 0.0
        assert last.dhat_freq == 0.0

    def test_mass_columns_nonnegative(self):
        prior = prior_with_A(2.0, 0.4, 1.0)
        cfg = MCConfig(replicates=100, n=10, master_seed=7, offsets=(1, 2))
        report = mc_undershoot(zero_signal(10), prior, 2.0, cfg)
        assert all(r.posterior_mass >= 0.0 for r in report.rows)


class TestTwoSided:
    def tail_setup(self):
        theta = power_law_signal(2.0, 1.0, 40)
        prior = prior_with_A(6.0, 2.0, 1.0)
        cfg = MCConfig(replicates=150, n=40, master_seed=8, offsets=(6, 8, 10))
        return theta, prior, cfg

    def test_tail_case_runs_and_satisfies(self):
        theta, prior, cfg = self.tail_setup()
        report = mc_two_sided(theta, prior, 9.0, cfg, t0=1.0, N0=1)
        assert report.kind == "two-sided-i"
        assert report.meta["alpha"] == pytest.approx(f_sup(6.0, 1.0).value, abs=1e-15)
        assert report.meta["beta"] == pytest.approx(g_sup(6.0, 9.0).value, abs=1e-15)
        assert not all(r.vacuous for r in report.rows)
        assert report.all_satisfied

    def test_head_case_runs_and_satisfies(self):
        short, _ = adversarial_pair(10.0, 1.0, 2, 2, 1.5)
        prior = prior_with_A(16.0, 7.0, 1.0)
        cfg = MCConfig(replicates=150, n=60, master_seed=9, offsets=(20, 25, 30))
        report = mc_two_sided(short, prior, 10.0, cfg, H0=19.0, n0=1)
        assert report.kind == "two-sided-ii"
        assert report.meta["alpha"] == pytest.approx(f_sup(16.0, 10.0).value, abs=1e-15)
        assert report.meta["beta"] == pytest.approx(g_sup(16.0, 19.0).value, abs=1e-15)
        assert not all(r.vacuous for r in report.rows)
        assert report.all_satisfied

    def test_sandwich_violations_name_the_inequality(self):
        theta, prior, cfg = self.tail_setup()
        with pytest.raises(ValueError, match=r"A < 1 \+ tau"):
            mc_two_sided(theta, prior, 3.0, cfg, t0=1.0, N0=1)  # A = 6 >= 4
        with pytest.raises(ValueError, match=r"A > 1 \+ t0"):
            mc_two_sided(theta, prior, 9.0, cfg, t0=6.0, N0=1)  # A = 6 <= 7
        short, _ = adversarial_pair(10.0, 1.0, 2, 2, 1.5)
        with pytest.raises(ValueError, match=r"A > 1 \+ tau"):
            mc_two_sided(short, prior_with_A(6.0, 2.0, 1.0), 10.0, cfg, H0=19.0, n0=1)

    def test_membership_failure_reported_before_simulation(self):
        short, _ = adversarial_pair(9.0, 1.0, 3, 3, 1.1)
        prior = prior_with_A(2.0, 0.4, 1.0)
        cfg = MCConfig(replicates=150, n=20, master_seed=10, offsets=(1, 2))
        with pytest.raises(ValueError, match="tail condition membership fails"):
            mc_two_sided(short, prior, 9.0, cfg, t0=0.5, N0=1)

    def test_offsets_must_cover_condition_start(self):
        theta, prior, cfg = self.tail_setup()
        bad = MCConfig(replicates=150, n=40, master_seed=8, offsets=(2, 6))
        with pytest.raises(ValueError, match="offsets must be >= N0"):
            mc_two_sided(theta, prior, 9.0, bad, t0=1.0, N0=4)

    def test_exactly_one_case(self):
        theta, prior, cfg = self.tail_setup()
        with pytest.raises(ValueError, match="exactly one"):
            mc_two_sided(theta, prior, 9.0, cfg, t0=1.0, N0=1, H0=19.0, n0=1)
        with pytest.raises(ValueError, match="exactly one"):
            mc_two_sided(theta, prior, 9.0, cfg)


class TestIndifferenceZone:
    def test_two_tau_combined_runs(self):
        # with 1 + tau1 < A < 1 + tau2 the posterior lives in an interval
        # inflated around [d_tau2, d_tau1]: overshoot control at tau1 plus
        # undershoot control at tau2, checked as two combined runs
        prior = prior_with_A(6.0, 2.0, 1.0)
        tau1, tau2 = 1.0, 9.0
        assert 1.0 + tau1 < prior.A < 1.0 + tau2
        cfg = MCConfig(replicates=200, n=20, master_seed=21, offsets=(1, 2, 3))
        theta_over = zero_signal(20)
        _, theta_under = adversarial_pair(tau2, 1.0, 3, 3, 1.1)
        over = mc_overshoot(theta_over, prior, tau1, cfg)
        under = mc_undershoot(theta_under, prior, tau2, cfg)
        alpha = f_sup(prior.A, tau1).value
        beta = g_sup(prior.A, tau2).value
        for ro, ru in zip(over.rows, under.rows):
            m = ro.offset
            bound = math.exp(-alpha * m) / alpha + math.exp(-beta * m) / beta
            tol = 3.0 * math.hypot(ro.mass_se, ru.mass_se)
            assert ro.posterior_mass + ru.posterior_mass <= bound + tol


class TestLowerBound:
    def test_floor_values(self):
        assert lower_bound_floor(1.1) == pytest.approx(0.16026316928586715, abs=1e-14)
        deltas = np.linspace(1.01, 50.0, 200)
        vals = [lower_bound_floor(d) for d in deltas]
        assert all(0.0 < v < 1.0 for v in vals)
        assert all(b < a for a, b in zip(vals, vals[1:]))
        with pytest.raises(ValueError, match="Delta"):
            lower_bound_floor(1.0)

    def test_experiment_beats_floor(self):
        prior = prior_with_A(2.0, 0.4, 1.0)
        cfg = MCConfig(replicates=500, n=16, master_seed=11, offsets=(1,))
        report = lower_bound_experiment(1.0, 1.0, 3, 3, 1.1, prior, cfg)
        assert report.meta["d_tau_short"] == 1
        assert report.meta["d_tau_long"] == 7
        assert report.delta_prime == pytest.approx(0.16026316928586715, abs=1e-14)
        assert report.total == report.p1 + report.p2
        assert report.satisfied

    def test_eps_mismatch_rejected(self):
        prior = prior_with_A(2.0, 0.4, 1.0)
        cfg = MCConfig(replicates=100, n=16, master_seed=11, offsets=(1,))
        with pytest.raises(ValueError, match="eps"):
            lower_bound_experiment(1.0, 0.5, 3, 3, 1.1, prior, cfg)


class TestSmoothnessEstimate:
    def test_frozen_value(self):
        assert smoothness_estimate(10, 0.1) == pytest.approx(0.5, abs=1e-12)

    def test_exact_inversion(self):
        # dhat = eps^(-2/(2s+1)) exactly recovers s
        assert smoothness_estimate(4, 0.125) == pytest.approx(1.0, abs=1e-12)
        assert smoothness_estimate(10, 0.1) == pytest.approx(0.5, abs=1e-12)

    def test_decreasing_in_dhat(self):
        vals = [smoothness_estimate(d, 0.1) for d in range(2, 30)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_validation(self):
        with pytest.raises(ValueError, match="dhat"):
            smoothness_estimate(1, 0.1)
        with pytest.raises(ValueError, match="eps"):
            smoothness_estimate(5, 1.0)


class TestSmoothnessSweep:
    def small_sweep(self, seed=12):
        params = SmoothnessClassParams(s=1.0, Q=1.0, alpha=0.1, rho0=2.0, N0=2)
        prior = prior_with_A(3.0, 0.5, 0.3)
        cfg = MCConfig(replicates=10, n=64, master_seed=seed, offsets=(1,))
        return smoothness_sweep(params, prior, 1.0, (0.3, 0.1, 0.03), cfg, signal_N=256)

    def test_rejects_n_past_the_signal_horizon(self):
        params = SmoothnessClassParams(s=1.0, Q=1.0, alpha=0.1, rho0=2.0, N0=2)
        cfg = MCConfig(replicates=10, n=64, master_seed=1, offsets=(1,))
        with pytest.raises(ValueError, match="signal horizon N = 32"):
            smoothness_sweep(params, prior_with_A(3.0, 0.5, 0.3), 1.0, (0.3,), cfg,
                             signal_N=32)

    def test_d_tau_nondecreasing(self):
        report = self.small_sweep()
        assert report.d_tau_nondecreasing
        assert [r.eps for r in report.rows] == [0.3, 0.1, 0.03]

    def test_ratio_band_reported(self):
        report = self.small_sweep()
        assert report.ratio_band >= 1.0
        for r in report.rows:
            assert r.ratio == pytest.approx(
                r.d_tau * (1.0 * r.eps**-2) ** (-1.0 / 3.0), rel=1e-12
            )

    def test_grid_must_decrease(self):
        params = SmoothnessClassParams(s=1.0, Q=1.0, alpha=0.1, rho0=2.0, N0=2)
        prior = prior_with_A(3.0, 0.5, 0.3)
        cfg = MCConfig(replicates=10, n=64, master_seed=1, offsets=(1,))
        with pytest.raises(ValueError, match="decreasing"):
            smoothness_sweep(params, prior, 1.0, (0.1, 0.3), cfg, signal_N=256)

    def test_whole_grid_validated_before_any_computation(self, monkeypatch):
        def no_signal(*args, **kwargs):
            raise AssertionError("the signal was built before the grid was checked")

        monkeypatch.setattr("effdim.experiments.self_similar_signal", no_signal)
        params = SmoothnessClassParams(s=1.0, Q=1.0, alpha=0.1, rho0=2.0, N0=2)
        cfg = MCConfig(replicates=10, n=64, master_seed=1, offsets=(1,))
        with pytest.raises(ValueError, match=r"eps_grid values must lie in \(0, 1\)"):
            smoothness_sweep(params, prior_with_A(3.0, 0.5, 0.3), 1.0, (2.0, 0.3), cfg,
                             signal_N=256)

    def test_interval_constants_validated(self):
        params = SmoothnessClassParams(s=1.0, Q=1.0, alpha=0.1, rho0=2.0, N0=2)
        prior = prior_with_A(3.0, 0.5, 0.3)
        cfg = MCConfig(replicates=10, n=64, master_seed=1, offsets=(1,))
        with pytest.raises(ValueError, match="c_lo"):
            smoothness_sweep(params, prior, 1.0, (0.3, 0.1), cfg, signal_N=256,
                             c_lo=1.5, c_hi=2.0)


class TestReportCsv:
    def test_experiment_csv_reproducible(self):
        prior = prior_with_A(6.0, 2.0, 1.0)
        cfg = MCConfig(replicates=100, n=10, master_seed=13, offsets=(1, 2))
        a = report_csv(mc_overshoot(zero_signal(10), prior, 1.0, cfg))
        b = report_csv(mc_overshoot(zero_signal(10), prior, 1.0, cfg))
        assert a == b
        assert a.startswith("# effdim-report v1 ")
        cfg2 = MCConfig(replicates=100, n=10, master_seed=14, offsets=(1, 2))
        c = report_csv(mc_overshoot(zero_signal(10), prior, 1.0, cfg2))
        assert c != a

    def test_label_cannot_corrupt_the_header(self):
        prior = prior_with_A(6.0, 2.0, 1.0)
        cfg = MCConfig(replicates=100, n=10, master_seed=13, offsets=(1,))
        for label in ("my signal", "", "a=b", "tab\there", "zero\n"):
            with pytest.raises(ValueError, match="label must be nonempty"):
                mc_overshoot(zero_signal(10), prior, 1.0, cfg, label=label)
        header = report_csv(mc_overshoot(zero_signal(10), prior, 1.0, cfg, label="my-signal"))
        fields = dict(item.split("=", 1) for item in header.splitlines()[0].split()[3:])
        assert fields["theta"] == "my-signal"

    def test_experiment_csv_columns(self):
        prior = prior_with_A(6.0, 2.0, 1.0)
        cfg = MCConfig(replicates=100, n=10, master_seed=13, offsets=(1, 2))
        text = report_csv(mc_overshoot(zero_signal(10), prior, 1.0, cfg))
        lines = text.strip().splitlines()
        assert lines[1] == (
            "offset,posterior_mass,mass_se,dhat_freq,freq_se,theory_bound,"
            "vacuous,satisfied"
        )
        assert len(lines) == 4

    def test_lower_bound_csv(self):
        prior = prior_with_A(2.0, 0.4, 1.0)
        cfg = MCConfig(replicates=100, n=16, master_seed=15, offsets=(1,))
        report = lower_bound_experiment(1.0, 1.0, 2, 2, 1.2, prior, cfg)
        lines = report_csv(report).strip().splitlines()
        assert lines[1] == "p1,se1,p2,se2,sum,combined_se,delta_prime,satisfied"
        assert len(lines) == 3

    def test_smoothness_csv_has_footer_note(self):
        report = TestSmoothnessSweep().small_sweep()
        text = report_csv(report)
        assert text.startswith("# effdim-report v1 ")
        assert "ambiguous" in text.strip().splitlines()[-1]
