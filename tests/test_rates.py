import math

import numpy as np
import pytest

from effdim.rates import POSITIVITY_TOL, f, f_sup, g, g_sup, penalty_constant

from helpers import grid_max_f, grid_max_g


def closed_form_overshoot_optimum(a, t):
    """Algebraic expansion of f at its stationary point (test-side check)."""
    root = math.sqrt(4.0 * a * t + 1.0)
    return (
        (2.0 * a - 1.0 - root) / 4.0
        + 0.5 * math.log((1.0 + root) / (2.0 * a))
        - (2.0 * a - 1.0 - root) * t / (2.0 * (1.0 + root))
    )


class TestPenaltyConstant:
    def test_formula(self):
        assert penalty_constant(math.e**2 - 1.0, 2.0) == pytest.approx(6.0, abs=1e-12)
        assert penalty_constant(1.9, 0.1) == pytest.approx(1.2647107369924282, abs=1e-12)

    def test_boundary_value_just_above_e_minus_1(self):
        # the formula tends to 2.0 as kappa decreases to e-1 with varkappa = 0.5
        assert penalty_constant(math.e - 1.0 + 1e-12, 0.5) == pytest.approx(2.0, abs=1e-9)

    def test_rejects_kappa_at_or_below_boundary(self):
        with pytest.raises(ValueError, match="kappa must exceed e-1"):
            penalty_constant(math.e - 1.0, 0.5)
        with pytest.raises(ValueError, match="kappa must exceed e-1"):
            penalty_constant(1.0, 0.5)

    def test_rejects_nonpositive_varkappa(self):
        with pytest.raises(ValueError, match="varkappa"):
            penalty_constant(2.0, 0.0)

    def test_rejects_infinite_values(self):
        with pytest.raises(ValueError, match="kappa must exceed e-1 = .* and be finite"):
            penalty_constant(math.inf, 0.5)
        with pytest.raises(ValueError, match="varkappa must be positive and finite"):
            penalty_constant(2.0, math.inf)

    def test_rejects_overflowing_A(self):
        with pytest.raises(ValueError, match="overflows at varkappa = 1e"):
            penalty_constant(7.0, 1e308)

    def test_always_above_one(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            kappa = math.e - 1.0 + 10.0 * rng.random() + 1e-9
            varkappa = 5.0 * rng.random() + 1e-9
            assert penalty_constant(kappa, varkappa) > 1.0


class TestPointwise:
    def test_f_at_zero_is_exactly_zero(self):
        for a, t in [(0.3, 0.2), (4.0, 1.0), (17.5, 12.1)]:
            assert f(0.0, a, t) == 0.0
            assert g(0.0, a, t) == 0.0

    def test_f_values(self):
        assert f(0.5, 4.0, 1.0) == pytest.approx(0.15342640972002735, abs=1e-14)

    def test_g_values(self):
        assert g(1.0, 2.0, 9.0) == pytest.approx(1.5965735902799727, abs=1e-14)

    def test_g_equals_f_of_negated_argument(self):
        rng = np.random.default_rng(1)
        for _ in range(500):
            a = 0.1 + 19.9 * rng.random()
            t = 0.1 + 19.9 * rng.random()
            h = -0.99 + 1.98 * rng.random()
            assert g(h, a, t) == pytest.approx(f(-h, a, t), rel=1e-12, abs=1e-13)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            f(1.0, 2.0, 1.0)
        with pytest.raises(ValueError):
            g(-1.0, 2.0, 1.0)
        with pytest.raises(ValueError):
            f(0.5, -1.0, 1.0)
        with pytest.raises(ValueError):
            f(0.5, 1.0, 0.0)


class TestSuprema:
    def test_f_sup_examples(self):
        res = f_sup(4.0, 1.0)
        assert res.h_star == pytest.approx((7.0 - math.sqrt(17.0)) / 8.0, abs=1e-15)
        assert res.value == pytest.approx(0.21560682768482875, abs=1e-12)
        assert res.positive

        res = f_sup(6.0, 1.0)
        assert res.h_star == pytest.approx(0.5, abs=1e-15)
        assert res.value == pytest.approx(0.5 * (2.0 - math.log(2.0)), abs=1e-14)

    def test_g_sup_examples(self):
        res = g_sup(1.5, 1.0)
        assert res.h_star == pytest.approx((-2.0 + math.sqrt(7.0)) / 3.0, abs=1e-15)
        assert res.value == pytest.approx(0.024599432746640004, abs=1e-12)

        res = g_sup(2.0, 9.0)
        assert res.h_star == 1.0  # stationary point beyond 1, clamped
        assert res.value == pytest.approx(1.5965735902799727, abs=1e-14)

    def test_exact_zero_on_the_critical_line(self):
        for t in (1.0, 2.0, 5.0):
            assert f_sup(t + 1.0, t).value == 0.0
            assert f_sup(t + 1.0, t).h_star == 0.0
            assert g_sup(t + 1.0, t).value == 0.0
        rng = np.random.default_rng(2)
        for _ in range(200):
            t = 0.1 + 19.9 * rng.random()
            assert abs(f_sup(t + 1.0, t).value) <= 1e-12
            assert abs(g_sup(t + 1.0, t).value) <= 1e-12

    def test_sign_trichotomy(self):
        rng = np.random.default_rng(3)
        for _ in range(1000):
            a = 0.1 + 19.9 * rng.random()
            t = 0.1 + 19.9 * rng.random()
            assert (f_sup(a, t).value > 0) == (a > t + 1.0)
            assert (g_sup(a, t).value > 0) == (a < t + 1.0)
            assert f_sup(a, t).positive == (f_sup(a, t).value > POSITIVITY_TOL)

    def test_h_star_domains(self):
        rng = np.random.default_rng(4)
        for _ in range(500):
            a = 0.1 + 19.9 * rng.random()
            t = 0.1 + 19.9 * rng.random()
            assert 0.0 <= f_sup(a, t).h_star < 1.0
            assert 0.0 <= g_sup(a, t).h_star <= 1.0

    def test_matches_grid_search(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            a = 0.1 + 19.9 * rng.random()
            t = 0.1 + 19.9 * rng.random()
            _, fv = grid_max_f(a, t)
            _, gv = grid_max_g(a, t)
            assert f_sup(a, t).value == pytest.approx(fv, abs=1e-8)
            assert g_sup(a, t).value == pytest.approx(gv, abs=1e-8)

    def test_dominates_grid_values(self):
        # the closed-form supremum is an upper bound for every grid value
        rng = np.random.default_rng(6)
        hs_f = np.linspace(0.0, 1.0 - 1e-6, 2001)
        hs_g = np.linspace(0.0, 1.0, 2001)
        for _ in range(50):
            a = 0.1 + 19.9 * rng.random()
            t = 0.1 + 19.9 * rng.random()
            fo = f_sup(a, t).value
            go = g_sup(a, t).value
            assert all(f(h, a, t) <= fo + 1e-10 for h in hs_f[::40])
            assert all(g(h, a, t) <= go + 1e-10 for h in hs_g[::40])

    def test_printed_expansion_agrees(self):
        # the expanded optimum formula should agree with f evaluated at the
        # stationary point; any discrepancy > 1e-9 is flagged by this test
        rng = np.random.default_rng(7)
        count = 0
        while count < 200:
            a = 0.1 + 19.9 * rng.random()
            t = 0.1 + 19.9 * rng.random()
            if a <= t + 1.0:
                continue
            count += 1
            assert f_sup(a, t).value == pytest.approx(
                closed_form_overshoot_optimum(a, t), abs=1e-9
            )

    def test_f_monotone_up_then_down(self):
        # increasing on [0, h_f], decreasing on [h_f, 1): finite differences
        for a, t in [(4.0, 1.0), (6.0, 1.0), (10.0, 2.5)]:
            h_star = f_sup(a, t).h_star
            up = np.linspace(0.0, h_star, 200)
            down = np.linspace(h_star, 1.0 - 1e-4, 200)
            fu = [f(h, a, t) for h in up]
            fd = [f(h, a, t) for h in down]
            assert all(b >= a_ - 1e-12 for a_, b in zip(fu, fu[1:]))
            assert all(b <= a_ + 1e-12 for a_, b in zip(fd, fd[1:]))
