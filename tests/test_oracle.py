import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effdim.oracle import (
    effective_dimension,
    head_condition,
    risk,
    risk_curve_csv,
    tail_condition,
    tau_scaling_identity_check,
)
from effdim.signals import Signal, _suffix_energy, adversarial_pair, power_law_signal, zero_signal

from helpers import cumsum_head_condition, cumsum_tail_condition, naive_effective_dimension


def random_signal(rng, max_n=200):
    n = rng.integers(1, max_n + 1)
    return Signal(rng.normal(scale=2.0, size=n), 0.0)


class TestRisk:
    def test_pure_dimension_cost(self):
        assert risk(3, zero_signal(5), 1.0, 1.0) == pytest.approx(3.0, abs=1e-15)

    def test_hand_enumeration(self):
        theta = Signal([3.0, 2.0, 0.1])
        assert risk(1, theta, 1.0, 1.0) == pytest.approx(5.01, rel=1e-14)
        assert risk(2, theta, 1.0, 1.0) == pytest.approx(2.01, rel=1e-14)
        assert risk(3, theta, 1.0, 1.0) == pytest.approx(3.0, rel=1e-14)

    def test_tau_reweighting_equals_noise_inflation(self):
        theta = Signal([3.0, 2.0, 0.1, 0.7])
        for d in range(1, 5):
            for tau in (0.5, 2.0, 9.0):
                assert risk(d, theta, 1.0, tau) == pytest.approx(
                    risk(d, theta, math.sqrt(tau) * 1.0, 1.0), rel=1e-12
                )

    def test_index_error(self):
        with pytest.raises(IndexError):
            risk(4, Signal([1.0, 2.0, 3.0]), 1.0, 1.0)
        with pytest.raises(IndexError):
            risk(0, Signal([1.0]), 1.0, 1.0)


class TestEffectiveDimension:
    def test_hand_enumeration(self):
        res = effective_dimension(Signal([3.0, 2.0, 0.1]), 1.0, 1.0)
        assert res.d_tau == 2
        assert res.r_tau == pytest.approx(2.01, rel=1e-14)
        assert res.risk_curve == pytest.approx([5.01, 2.01, 3.0], rel=1e-14)

    def test_tie_takes_smallest(self):
        res = effective_dimension(Signal([3.0, 1.0, 0.5]), 1.0, 1.0)
        assert res.risk_curve[0] == pytest.approx(res.risk_curve[1], abs=1e-15)
        assert res.d_tau == 1

    def test_zero_signal(self):
        for tau in (0.5, 1.0, 4.0):
            res = effective_dimension(zero_signal(10), 1.0, tau)
            assert res.d_tau == 1
            assert res.r_tau == pytest.approx(tau, rel=1e-15)

    def test_adversarial_pair_dimensions(self):
        for L1, L2 in [(2, 2), (3, 3), (1, 4)]:
            short, long = adversarial_pair(1.0, 1.0, L1, L2, 1.1)
            assert effective_dimension(short, 1.0, 1.0).d_tau == 1
            assert effective_dimension(long, 1.0, 1.0).d_tau == L1 + L2 + 1

    def test_horizon_precondition(self):
        theta = power_law_signal(0.6, 1.0, 3)  # heavy tail left past N=3
        with pytest.raises(ValueError, match="oracle horizon insufficient"):
            effective_dimension(theta, 0.01, 1.0)

    def test_brute_force_equivalence(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            theta = random_signal(rng)
            eps = 0.1 + 2.0 * rng.random()
            tau = 0.2 + 5.0 * rng.random()
            res = effective_dimension(theta, eps, tau)
            naive_d, naive_r = naive_effective_dimension(theta.coeffs, 0.0, eps, tau)
            assert res.d_tau == naive_d
            assert res.r_tau == pytest.approx(naive_r, rel=1e-12)

    def test_monotone_in_tau(self):
        rng = np.random.default_rng(11)
        taus = [0.25, 0.5, 1.0, 2.0, 4.0, 9.0]
        for _ in range(50):
            theta = random_signal(rng, max_n=100)
            ds = [effective_dimension(theta, 1.0, tau).d_tau for tau in taus]
            assert all(b <= a for a, b in zip(ds, ds[1:]))

    def test_risk_sandwich_above_one(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            theta = random_signal(rng, max_n=100)
            r1 = effective_dimension(theta, 1.0, 1.0).r_tau
            for tau in (1.5, 3.0, 9.0):
                rt = effective_dimension(theta, 1.0, tau).r_tau
                assert r1 - 1e-12 <= rt <= tau * r1 + 1e-12

    def test_risk_sandwich_below_one(self):
        # for 0 < tau < 1: r_tau <= r_1 <= r_tau / tau, tested as written
        rng = np.random.default_rng(13)
        for _ in range(50):
            theta = random_signal(rng, max_n=100)
            r1 = effective_dimension(theta, 1.0, 1.0).r_tau
            for tau in (0.3, 0.7):
                rt = effective_dimension(theta, 1.0, tau).r_tau
                assert rt - 1e-12 <= r1 <= rt / tau + 1e-12

    def test_risk_floor(self):
        rng = np.random.default_rng(14)
        for _ in range(50):
            theta = random_signal(rng, max_n=50)
            eps = 0.2 + rng.random()
            tau = 0.2 + 5.0 * rng.random()
            assert effective_dimension(theta, eps, tau).r_tau >= tau * eps * eps - 1e-12

    def test_first_difference_identity(self):
        theta = power_law_signal(1.0, 2.0, 50)
        eps, tau = 0.5, 2.0
        curve = effective_dimension(theta, eps, tau).risk_curve
        diffs = np.diff(curve)
        expected = tau * eps * eps - theta.coeffs[1:] ** 2
        assert diffs == pytest.approx(expected, abs=1e-12)

    def test_power_law_dimension_grows_as_noise_shrinks(self):
        theta = power_law_signal(1.0, 1.0, 2000)
        eps_grid = [0.5, 0.3, 0.1, 0.05, 0.02]
        ds = [effective_dimension(theta, e, 1.0).d_tau for e in eps_grid]
        assert all(b >= a for a, b in zip(ds, ds[1:]))

    def test_scaling_identity(self):
        rng = np.random.default_rng(15)
        for _ in range(30):
            theta = random_signal(rng, max_n=60)
            for tau in (0.5, 1.0, 2.0, 9.0):
                assert tau_scaling_identity_check(theta, 1.0, tau)
        assert tau_scaling_identity_check(zero_signal(8), 1.0, 3.0)
        theta = power_law_signal(1.0, 1.0, 2000)
        assert tau_scaling_identity_check(theta, 0.1, 4.0)


class TestTailCondition:
    def test_zero_signal_member(self):
        for t0, N0 in [(0.5, 1), (0.1, 3)]:
            report = tail_condition(zero_signal(30), 1.0, 1.0, t0, N0)
            assert report.member
            assert report.first_violation is None

    def test_adversarial_long_is_member(self):
        _, long = adversarial_pair(1.0, 1.0, 3, 3, 1.1)
        report = tail_condition(long, 1.0, 1.0, 0.5, 1)
        assert report.member
        assert report.d_tau == 7
        assert report.horizon_warning  # nothing stored past d_tau, lump decides

    def test_adversarial_short_violates(self):
        short, _ = adversarial_pair(1.0, 1.0, 3, 3, 1.1)
        report = tail_condition(short, 1.0, 1.0, 0.05, 1)
        assert not report.member
        assert report.d_tau == 1
        assert report.first_violation == 1  # every early block violates, N0 first
        # with the checks starting at N0 = L1 + L2 the first violation sits there
        report = tail_condition(short, 1.0, 1.0, 0.05, 6)
        assert not report.member
        assert report.first_violation == 6

    def test_agrees_with_the_cumsum_reference(self):
        # continuous random draws keep every block far from its budget
        # relative to the rounding margin, so verdicts must agree
        rng = np.random.default_rng(41)
        seen = set()
        for _ in range(400):
            n = int(rng.integers(1, 80))
            decay = np.exp(-rng.uniform(0.0, 0.2) * np.arange(n))
            coeffs = rng.normal(size=n) * rng.uniform(0.05, 3.0) * decay
            tau, eps = float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.2, 1.5))
            theta = Signal(coeffs, float(rng.uniform(0.0, 1.0)) * tau * eps * eps)
            t0, N0 = float(rng.uniform(0.05, 0.95)) * tau, int(rng.integers(1, 8))
            report = tail_condition(theta, eps, tau, t0, N0)
            want = cumsum_tail_condition(coeffs, theta.tail_energy, report.d_tau, t0, eps, N0)
            assert report.first_violation == want and report.member == (want is None)
            seen.add((report.member, report.horizon_warning))
        assert len(seen) == 4

    def test_validation(self):
        with pytest.raises(ValueError, match="t0"):
            tail_condition(zero_signal(5), 1.0, 1.0, 1.0, 1)
        with pytest.raises(ValueError, match="N0"):
            tail_condition(zero_signal(5), 1.0, 1.0, 0.5, 0)

    def test_non_integral_start_rejected(self):
        # a non-integral start is an error, never truncated to a smaller start
        theta = zero_signal(30)
        assert tail_condition(theta, 1.0, 1.0, 0.5, 2.0) == tail_condition(theta, 1.0, 1.0, 0.5, 2)
        with pytest.raises(ValueError, match="N0 must be an integer >= 1, got 1.7"):
            tail_condition(theta, 1.0, 1.0, 0.5, 1.7)


class TestHeadCondition:
    def test_adversarial_short_is_member(self):
        short, _ = adversarial_pair(1.0, 1.0, 3, 3, 1.1)
        report = head_condition(short, 1.0, 1.0, 1.5, 1)
        assert report.member and not report.vacuous

    def test_adversarial_long_barely_misses(self):
        _, long = adversarial_pair(1.0, 1.0, 3, 3, 1.1)
        report = head_condition(long, 1.0, 1.0, 1.2, 1)
        assert not report.member
        assert report.first_violation is not None

    def test_zero_signal_single_block_fails(self):
        report = head_condition(zero_signal(10), 1.0, 1.0, 2.0, 1)
        assert not report.member
        assert report.first_violation == 1
        assert not report.vacuous

    def test_vacuous_when_dimension_below_start(self):
        report = head_condition(zero_signal(10), 1.0, 1.0, 2.0, 3)
        assert report.member and report.vacuous
        assert report.d_tau == 1

    def test_agrees_with_the_cumsum_reference(self):
        rng = np.random.default_rng(43)
        seen = set()
        for _ in range(400):
            n = int(rng.integers(1, 80))
            coeffs = rng.normal(size=n) * rng.uniform(0.5, 4.0)
            tau, eps = float(rng.uniform(0.5, 3.0)), float(rng.uniform(0.2, 1.5))
            H0, n0 = tau * float(rng.uniform(1.01, 2.0)), int(rng.integers(1, 6))
            report = head_condition(Signal(coeffs), eps, tau, H0, n0)
            want = cumsum_head_condition(coeffs, report.d_tau, H0, eps, n0)
            assert report.first_violation == want and report.member == (want is None)
            assert report.vacuous == (report.d_tau < n0)
            seen.add((report.member, report.vacuous))
        assert len(seen) == 3

    def test_validation(self):
        with pytest.raises(ValueError, match="H0"):
            head_condition(zero_signal(5), 1.0, 1.0, 0.5, 1)

    def test_non_integral_start_rejected(self):
        # a non-integral start is an error, never truncated to a smaller start
        short, _ = adversarial_pair(1.0, 1.0, 3, 3, 1.1)
        assert head_condition(short, 1.0, 1.0, 1.5, 2.0) == head_condition(short, 1.0, 1.0, 1.5, 2)
        with pytest.raises(ValueError, match="n0 must be an integer >= 1, got 2.9"):
            head_condition(short, 1.0, 1.0, 1.5, 2.9)


class TestRiskCurveCsv:
    def test_structure_and_values(self):
        theta = Signal([3.0, 2.0, 0.1])
        text = risk_curve_csv(theta, 1.0, 1.0)
        lines = text.strip().splitlines()
        assert lines[0] == "d,r_tau,approx_error,dim_cost"
        assert len(lines) == 4
        d, r, a, c = lines[2].split(",")
        assert int(d) == 2
        assert float(r) == pytest.approx(2.01, rel=1e-14)
        assert float(a) == pytest.approx(0.01, rel=1e-12)
        assert float(c) == pytest.approx(2.0, abs=1e-15)
        # r_tau = approx_error + dim_cost on every row
        for line in lines[1:]:
            _, r, a, c = line.split(",")
            assert float(r) == pytest.approx(float(a) + float(c), rel=1e-15)

    def test_r_tau_column_is_the_minimised_curve(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            theta = random_signal(rng, max_n=60)
            eps, tau = float(rng.uniform(0.05, 2.0)), float(rng.uniform(0.1, 10.0))
            curve = effective_dimension(theta, eps, tau).risk_curve
            rows = risk_curve_csv(theta, eps, tau).splitlines()[1:]
            assert np.array_equal([float(row.split(",")[1]) for row in rows], curve)
            for d in range(1, theta.n + 1):
                assert risk(d, theta, eps, tau) == curve[d - 1]

    @settings(max_examples=200, deadline=None)
    @given(
        coeffs=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=60),
        eps=st.floats(1e-3, 10.0),
        tau=st.floats(0.01, 20.0),
        tail_share=st.floats(0.0, 1.0),
    )
    def test_numbers_round_trip(self, coeffs, eps, tau, tail_share):
        theta = Signal(coeffs, tail_share * (tau * eps * eps))
        rows = np.array([
            [float(v) for v in line.split(",")]
            for line in risk_curve_csv(theta, eps, tau).splitlines()[1:]
        ])
        d, r, a, c = rows.T
        assert np.array_equal(d, np.arange(1, theta.n + 1))
        assert np.array_equal(r, effective_dimension(theta, eps, tau).risk_curve)
        assert np.array_equal(a, _suffix_energy(theta) + theta.tail_energy)
        assert np.array_equal(c, tau * eps * eps * d)
