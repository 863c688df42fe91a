import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import effdim.posterior
from effdim.posterior import (
    PriorParams,
    crit,
    log_weights,
    map_dimension,
    pmf,
    pmf_csv,
    posterior_mean_theta,
    region_mass,
)
from effdim.rates import penalty_constant
from effdim.signals import power_law_signal, simulate

from helpers import posterior_oracle, prior_with_A


class TestPriorParams:
    def test_rejects_kappa_at_or_below_boundary(self):
        with pytest.raises(ValueError, match="kappa must exceed e-1"):
            PriorParams(kappa=1.0, varkappa=1.0, epsilon=1.0)
        with pytest.raises(ValueError, match="kappa must exceed e-1"):
            PriorParams(kappa=math.e - 1.0, varkappa=1.0, epsilon=1.0)

    def test_rejects_bad_varkappa_and_eps(self):
        with pytest.raises(ValueError, match="varkappa"):
            PriorParams(kappa=2.0, varkappa=0.0, epsilon=1.0)
        with pytest.raises(ValueError, match="epsilon"):
            PriorParams(kappa=2.0, varkappa=1.0, epsilon=0.0)

    def test_rejects_infinite_values(self):
        with pytest.raises(ValueError, match="kappa must exceed e-1 = .* and be finite"):
            PriorParams(kappa=math.inf, varkappa=1.0, epsilon=1.0)
        with pytest.raises(ValueError, match="varkappa must be positive and finite"):
            PriorParams(kappa=2.0, varkappa=math.inf, epsilon=1.0)
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            PriorParams(kappa=2.0, varkappa=1.0, epsilon=math.inf)

    def test_rejects_overflowing_arithmetic(self):
        # finite inputs whose A, eps^2 or A*eps^2 overflow or underflow
        with pytest.raises(ValueError, match="overflows"):
            PriorParams(kappa=7.0, varkappa=1e308, epsilon=1.0)
        for eps in (1e-170, 1e170):
            with pytest.raises(ValueError, match=r"epsilon\^2 > 0 and A\*epsilon\^2 = .* finite"):
                PriorParams(kappa=7.0, varkappa=2.0, epsilon=eps)
        PriorParams(kappa=7.0, varkappa=2.0, epsilon=1e-150)  # eps^2 = 1e-300 is fine

    def test_penalty_constant_property(self):
        p = PriorParams(kappa=math.e**2 - 1.0, varkappa=2.0, epsilon=1.0)
        assert p.A == pytest.approx(6.0, abs=1e-12)

    def test_A_is_computed_once_and_not_compared(self, monkeypatch):
        calls = []

        def counting(kappa, varkappa):
            calls.append((kappa, varkappa))
            return penalty_constant(kappa, varkappa)

        monkeypatch.setattr(effdim.posterior, "penalty_constant", counting)
        p = PriorParams(kappa=3.0, varkappa=0.7, epsilon=0.5)
        assert all(p.A == penalty_constant(3.0, 0.7) for _ in range(100))
        assert calls == [(3.0, 0.7)]
        assert "A=" not in repr(p)
        assert "A" not in [f.name for f in dataclasses.fields(p) if f.compare]
        assert p == PriorParams(kappa=3.0, varkappa=0.7, epsilon=0.5)
        assert dataclasses.replace(p, varkappa=1.2).A == penalty_constant(3.0, 1.2)


class TestLogWeights:
    def test_zero_data_strictly_decreasing(self):
        p = PriorParams(kappa=math.e**2 - 1.0, varkappa=1.0, epsilon=1.0)
        lw = log_weights(np.zeros(8), p)
        assert np.all(np.diff(lw) < 0)
        assert map_dimension(np.zeros(8), p) == 1

    def test_two_point_ratio_matches_density_form(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            kappa = math.e - 0.5 + 3.0 * rng.random()
            varkappa = 0.2 + 2.0 * rng.random()
            eps = 0.3 + rng.random()
            x = rng.normal(scale=2.0, size=2)
            p = PriorParams(kappa=kappa, varkappa=varkappa, epsilon=eps)
            lw = log_weights(x, p)
            expected = -varkappa - 0.5 * math.log(kappa + 1.0) + x[1] ** 2 / (2 * eps * eps)
            assert lw[1] - lw[0] == pytest.approx(expected, rel=1e-10, abs=1e-12)

    def test_ratio_depends_only_on_window(self):
        p = PriorParams(kappa=3.0, varkappa=0.7, epsilon=0.8)
        rng = np.random.default_rng(22)
        x = rng.normal(size=10)
        y = x.copy()
        y[6:] = rng.normal(size=4)  # perturb beyond the window
        lw_x = log_weights(x, p)
        lw_y = log_weights(y, p)
        for d in range(2, 7):
            for dp in range(1, d):
                assert lw_x[d - 1] - lw_x[dp - 1] == pytest.approx(
                    lw_y[d - 1] - lw_y[dp - 1], rel=1e-12, abs=1e-12
                )


class TestPmf:
    def test_normalization(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n = rng.integers(1, 40)
            x = rng.normal(scale=3.0, size=n)
            p = PriorParams(kappa=2.0 + rng.random(), varkappa=0.1 + rng.random(), epsilon=0.5)
            post = pmf(x, p)
            assert np.sum(post.pmf) + post.tail_mass == pytest.approx(1.0, abs=1e-12)
            assert np.all(post.pmf >= 0.0) and post.tail_mass >= 0.0

    def test_zero_data_geometric_pmf(self):
        p = PriorParams(kappa=math.e**2 - 1.0, varkappa=1.0, epsilon=1.0)
        post = pmf(np.zeros(5), p)
        # weights proportional to exp(-2d): consecutive ratio e^2
        assert post.pmf[0] / post.pmf[1] == pytest.approx(math.e**2, rel=1e-12)

    def test_matches_density_product_oracle(self):
        rng = np.random.default_rng(24)
        for _ in range(25):
            n = rng.integers(2, 7)
            x = rng.normal(scale=2.0, size=n)
            kappa = math.e - 0.5 + 2.0 * rng.random()
            varkappa = 0.3 + rng.random()
            eps = 0.5 + rng.random()
            post = pmf(x, PriorParams(kappa=kappa, varkappa=varkappa, epsilon=eps))
            oracle_pmf, oracle_tail = posterior_oracle(x, kappa, varkappa, eps)
            assert post.pmf == pytest.approx(oracle_pmf, rel=1e-10, abs=1e-13)
            assert post.tail_mass == pytest.approx(oracle_tail, rel=1e-10, abs=1e-13)

    def test_tail_mass_closed_form_ratio(self):
        rng = np.random.default_rng(25)
        x = rng.normal(size=6)
        varkappa = 0.9
        post = pmf(x, PriorParams(kappa=4.0, varkappa=varkappa, epsilon=1.0))
        assert post.tail_mass == pytest.approx(
            post.pmf[-1] / math.expm1(varkappa), rel=1e-12
        )

    def test_large_varkappa_starves_tail(self):
        rng = np.random.default_rng(26)
        for _ in range(10):
            n = rng.integers(5, 20)
            x = rng.normal(scale=2.0, size=n)
            post = pmf(x, PriorParams(kappa=3.0, varkappa=10.0, epsilon=1.0))
            assert post.tail_mass < 1e-4

    def test_varkappa_past_the_exp_overflow(self):
        # e^varkappa overflows a double from varkappa ~ 709.8 on
        x = np.array([3.0, 1.0, 0.5, 0.1])
        for varkappa in (710.0, 1000.0):
            post = pmf(x, PriorParams(kappa=3.0, varkappa=varkappa, epsilon=1.0))
            assert np.isfinite(post.pmf).all() and math.isfinite(post.tail_mass)
            assert np.sum(post.pmf) + post.tail_mass == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_non_finite_posterior_is_rejected(self):
        # X^2 / (2 eps^2) overflows: every log-weight is inf and the max-shift too
        with pytest.raises(ValueError, match="log posterior weights overflow at eps = 1e-160"):
            pmf([1.0, 2.0, 0.5], PriorParams(kappa=7.0, varkappa=2.0, epsilon=1e-160))
        p = PriorParams(kappa=7.0, varkappa=2.0, epsilon=1.0)
        for x in ([1.0, math.nan, 0.5], [math.inf, 1.0], [1e200, 1e200]):
            for fn in (pmf, map_dimension):
                with pytest.raises(ValueError, match="crit.n. = .*must be finite"):
                    fn(x, p)

    def test_overflow_safe_at_small_eps(self):
        x = np.full(30, 5.0)
        post = pmf(x, PriorParams(kappa=3.0, varkappa=1.0, epsilon=0.01))
        assert np.isfinite(post.pmf).all()
        assert np.sum(post.pmf) + post.tail_mass == pytest.approx(1.0, abs=1e-12)

    def test_truncation_stability(self):
        # posteriors from prefixes of length n and 2n agree in total
        # variation once n clears a data-dependent threshold
        theta = power_law_signal(1.0, 1.0, 512)
        p_of = lambda n: pmf(simulate(theta, 0.1, n, (77, 0)).x[:n],
                             PriorParams(kappa=math.e**2 - 1.0, varkappa=2.0, epsilon=0.1))
        threshold = None
        for n in (8, 16, 32, 64, 128, 256):
            a = p_of(n)
            b = p_of(2 * n)
            tv = 0.5 * float(np.sum(np.abs(a.pmf - b.pmf[:n])))
            tv += 0.5 * abs(a.tail_mass - (float(np.sum(b.pmf[n:])) + b.tail_mass))
            if tv < 1e-6:
                threshold = n
                break
        assert threshold is not None, "no prefix length reached TV < 1e-6"
        print(f"truncation stability threshold: n = {threshold}")


class TestMapAndCrit:
    def test_crit_hand_enumeration(self):
        p = prior_with_A(2.0, 0.4, 1.0)
        x = np.array([3.0, 2.0, 0.5, 0.0, 0.0])
        values = [crit(d, x, p) for d in range(1, 6)]
        assert values == pytest.approx([-7.0, -9.0, -7.25, -5.25, -3.25], rel=1e-12)
        assert map_dimension(x, p) == 2

    def test_crit_zero_data(self):
        p = prior_with_A(2.0, 0.4, 1.0)
        x = np.zeros(4)
        assert [crit(d, x, p) for d in range(1, 5)] == pytest.approx(
            [2.0, 4.0, 6.0, 8.0], rel=1e-12
        )
        assert map_dimension(x, p) == 1

    def test_crit_index_error(self):
        p = prior_with_A(2.0, 0.4, 1.0)
        with pytest.raises(IndexError):
            crit(6, np.zeros(5), p)

    def test_map_equals_argmin_crit(self):
        rng = np.random.default_rng(27)
        for _ in range(500):
            n = rng.integers(1, 51)
            x = rng.normal(scale=1.5, size=n)
            p = PriorParams(
                kappa=math.e - 1.0 + 2.0 * rng.random() + 1e-6,
                varkappa=0.1 + 2.0 * rng.random(),
                epsilon=0.3 + rng.random(),
            )
            values = [crit(d, x, p) for d in range(1, n + 1)]
            assert map_dimension(x, p) == int(np.argmin(values)) + 1

    def test_map_equals_argmax_pmf(self):
        rng = np.random.default_rng(28)
        for _ in range(200):
            n = rng.integers(1, 40)
            x = rng.normal(scale=2.0, size=n)
            p = PriorParams(kappa=4.0, varkappa=0.5, epsilon=1.0)
            post = pmf(x, p)
            assert map_dimension(x, p) == int(np.argmax(post.pmf)) + 1

    def test_posterior_map_is_map_dimension(self):
        # data in {0, +-1, +-2} with A*eps^2 = 2 make crit take integer
        # values, so ties between minimizers are common; both paths must
        # take the smallest minimizer of the same criterion array
        p = prior_with_A(2.0, 0.4, 1.0)
        assert p.A == 2.0
        rng = np.random.default_rng(32)
        ties = 0
        for k in range(600):
            n = int(rng.integers(1, 40))
            if k % 2:
                x = rng.choice([0.0, 1.0, -1.0, 2.0, -2.0], size=n)
            else:
                x = rng.normal(scale=1.5, size=n)
            values = np.array([crit(d, x, p) for d in range(1, n + 1)])
            post = pmf(x, p)
            assert post.d_hat == map_dimension(x, p) == int(np.argmin(values)) + 1
            assert post.log_q == -p.varkappa
            ties += int(np.count_nonzero(values == values.min()) > 1)
        assert ties > 50

    def test_unbiased_risk_estimation_at_A_two(self):
        # with A = 2, E[crit(d)] + total energy = r(d, theta, eps)
        theta = power_law_signal(1.0, 1.5, 6)
        eps = 0.8
        p = prior_with_A(2.0, 0.4, eps)
        reps = 10_000
        rng = np.random.default_rng(29)
        xs = theta.coeffs + eps * rng.standard_normal((reps, 6))
        energy = theta.total_energy
        for d in (1, 3, 6):
            crits = -np.sum(xs[:, :d] ** 2, axis=1) + p.A * eps * eps * d
            approx = float(np.sum(theta.coeffs[d:] ** 2)) + theta.tail_energy
            expected = approx + d * eps * eps  # r(d, theta, eps)
            se = float(np.std(crits, ddof=1)) / math.sqrt(reps)
            assert np.mean(crits) + energy == pytest.approx(expected, abs=4.0 * se)


class TestPosteriorMean:
    def test_zero_data(self):
        p = prior_with_A(2.0, 0.4, 1.0)
        assert np.array_equal(posterior_mean_theta(np.zeros(5), p), np.zeros(5))

    def test_truncates_at_map(self):
        p = prior_with_A(2.0, 0.4, 1.0)
        x = np.array([3.0, 2.0, 0.5, 0.0, 0.0])
        assert np.array_equal(posterior_mean_theta(x, p), [3.0, 2.0, 0.0, 0.0, 0.0])

    def test_norm_never_exceeds_data(self):
        rng = np.random.default_rng(30)
        p = PriorParams(kappa=3.0, varkappa=0.8, epsilon=1.0)
        for _ in range(100):
            x = rng.normal(scale=2.0, size=rng.integers(1, 30))
            est = posterior_mean_theta(x, p)
            assert np.linalg.norm(est) <= np.linalg.norm(x) + 1e-15


class TestRegionMass:
    def test_full_range(self):
        p = PriorParams(kappa=3.0, varkappa=0.5, epsilon=1.0)
        post = pmf(np.array([2.0, 1.0, 0.3]), p)
        assert region_mass(post, 1, math.inf) == pytest.approx(1.0, abs=1e-12)

    def test_complement_additivity(self):
        rng = np.random.default_rng(31)
        p = PriorParams(kappa=3.0, varkappa=0.5, epsilon=1.0)
        post = pmf(rng.normal(size=12), p)
        for k in (1, 3, 7, 12):
            total = region_mass(post, 1, k) + region_mass(post, k + 1, math.inf)
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_zero_data_closed_form(self):
        p = PriorParams(kappa=math.e**2 - 1.0, varkappa=1.0, epsilon=1.0)
        post = pmf(np.zeros(6), p)
        assert region_mass(post, 2, math.inf) == pytest.approx(1.0 - post.pmf[0], abs=1e-14)

    def test_empty_region(self):
        p = PriorParams(kappa=3.0, varkappa=0.5, epsilon=1.0)
        post = pmf(np.ones(4), p)
        assert region_mass(post, 3, 2) == 0.0
        assert region_mass(post, 1, 0) == 0.0

    def test_lump_share_is_geometric(self):
        # w(n + k) = w(n) e^(-varkappa k), so every interval past n gets its
        # exact share of the lump
        p = PriorParams(kappa=3.0, varkappa=0.5, epsilon=1.0)
        post = pmf(np.ones(4), p)
        n, tail, q = post.n, post.tail_mass, math.exp(-0.5)
        assert region_mass(post, n + 1, math.inf) == pytest.approx(tail, abs=1e-15)
        assert region_mass(post, n + 2, math.inf) == pytest.approx(tail * q, rel=1e-12)
        assert region_mass(post, n + 3, n + 5) == pytest.approx(
            tail * (q**2 - q**5), rel=1e-12
        )
        assert region_mass(post, 1, n + 50) == pytest.approx(
            1.0 - tail * q**50, abs=1e-12
        )

    def test_beyond_data_matches_density_oracle(self):
        # the lump used to count as 0 for lo > n + 1 and be dropped for a
        # finite hi > n, so a region past the data could look empty
        x = np.array([1.5, -0.3, 0.8])
        kappa, varkappa, eps = 3.0, 0.3, 1.0
        post = pmf(x, PriorParams(kappa, varkappa, eps))
        oracle_pmf, oracle_tail = posterior_oracle(x, kappa, varkappa, eps)
        q = math.exp(-varkappa)
        for lo in (5, 6, 12):
            share = oracle_tail * q ** (lo - 4)
            assert region_mass(post, lo, math.inf) == pytest.approx(share, rel=1e-9)
            assert region_mass(post, lo, lo + 2) == pytest.approx(
                share * (1.0 - q**3), rel=1e-9
            )
        assert region_mass(post, 2, 10) == pytest.approx(
            float(np.sum(oracle_pmf[1:])) + oracle_tail * (1.0 - q**7), rel=1e-9
        )

    def test_cut_lump_is_the_sum_of_its_terms(self):
        # dimension n + k carries pmf(n) e^(-varkappa k); at small varkappa the
        # ratio must come from varkappa itself, since q recovered from the rounded
        # masses is off by an ulp and log(q) ~ -varkappa then loses most digits
        rng = np.random.default_rng(33)
        for varkappa in (1e-9, 1e-6, 1e-3, 0.05, 0.5, 3.0):
            p = PriorParams(kappa=3.0, varkappa=varkappa, epsilon=1.0)
            for _ in range(20):
                post = pmf(rng.normal(size=int(rng.integers(1, 20))), p)
                n, last = post.n, float(post.pmf[-1])
                a = int(rng.integers(1, 30))
                b = a + int(rng.integers(0 if a > 1 else 1, 20))
                terms = math.fsum(last * math.exp(-varkappa * k) for k in range(a, b + 1))
                rest = last * math.exp(-varkappa * a) / -math.expm1(-varkappa)
                # abs=0: the masses can be far below pytest's default 1e-12
                assert region_mass(post, n + a, n + b) == pytest.approx(terms, rel=1e-11, abs=0)
                assert region_mass(post, n + a, math.inf) == pytest.approx(rest, rel=1e-11, abs=0)

    def test_underflowed_lump_has_zero_mass(self):
        # the posterior sits at d = 1; pmf(n) and the lump both underflow to 0
        p = PriorParams(kappa=math.e**2 - 1.0, varkappa=2.0, epsilon=1.0)
        post = pmf(np.r_[30.0, np.zeros(299)], p)
        assert post.tail_mass == 0.0 and post.pmf[-1] == 0.0
        n = post.n
        for lo, hi in [(n + 1, math.inf), (n + 2, math.inf), (n + 3, n + 9), (n, n + 1)]:
            assert region_mass(post, lo, hi) == 0.0
        assert region_mass(post, 1, math.inf) == pytest.approx(1.0, abs=1e-15)

    @settings(max_examples=200, deadline=None)
    @given(
        x=st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=30),
        varkappa=st.floats(0.05, 5.0),
        lo=st.integers(-2, 60),
        width=st.integers(-1, 60),
    )
    def test_additive_and_normalised(self, x, varkappa, lo, width):
        post = pmf(np.array(x), PriorParams(kappa=3.0, varkappa=varkappa, epsilon=1.0))
        hi = lo + width
        assert region_mass(post, 1, math.inf) == pytest.approx(1.0, abs=1e-12)
        split = region_mass(post, lo, hi) + region_mass(post, hi + 1, math.inf)
        assert split == pytest.approx(region_mass(post, lo, math.inf), abs=1e-12)


class TestPmfCsv:
    def test_structure(self):
        p = PriorParams(kappa=3.0, varkappa=0.5, epsilon=1.0)
        post = pmf(np.array([2.0, 0.5]), p)
        lines = pmf_csv(post).strip().splitlines()
        assert lines[0] == "d,pmf,cumulative"
        assert len(lines) == 4
        assert lines[-1].startswith("tail,")
        assert float(lines[-1].split(",")[2]) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        x=st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=60),
        varkappa=st.floats(0.01, 50.0),
        eps=st.floats(0.05, 5.0),
    )
    def test_numbers_round_trip(self, x, varkappa, eps):
        post = pmf(np.array(x), PriorParams(kappa=3.0, varkappa=varkappa, epsilon=eps))
        rows = [line.split(",") for line in pmf_csv(post).splitlines()[1:]]
        assert [r[0] for r in rows] == [*map(str, range(1, post.n + 1)), "tail"]
        masses = np.append(post.pmf, post.tail_mass)
        assert np.array_equal([float(r[1]) for r in rows], masses)
        assert np.array_equal([float(r[2]) for r in rows], np.cumsum(masses))
