import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import zeta

import effdim.signals
from effdim.signals import (
    Signal,
    SmoothnessClassParams,
    adversarial_pair,
    check_membership,
    load_signal,
    power_law_signal,
    save_signal,
    self_similar_signal,
    simulate,
    zero_signal,
    _block_energy,
    _power_tail_bracket,
    _replicate_blocks,
    _suffix_energy,
)

from helpers import loop_membership


class TestSignalType:
    def test_basic_invariants(self):
        s = Signal([1.0, 0.5], 0.25)
        assert s.n == 2
        assert s.total_energy == pytest.approx(1.5, abs=1e-15)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            Signal([], 0.0)
        with pytest.raises(ValueError):
            Signal([1.0], -1e-9)
        with pytest.raises(ValueError):
            Signal([np.inf])
        with pytest.raises(ValueError, match="finite sum of squares"):
            Signal([1e-3, 1e-3, 1e200])  # its energy overflows

    def test_zero_signal_length_must_be_integral(self):
        assert zero_signal(3.0).n == 3 and zero_signal(np.int64(3)).n == 3
        for n in (2.5, 0, "3", math.nan):
            with pytest.raises(ValueError, match="n must be an integer >= 1"):
                zero_signal(n)

    def test_coeffs_are_read_only(self):
        s = Signal([1.0, 2.0])
        with pytest.raises(ValueError):
            s.coeffs[0] = 5.0


class TestSimulate:
    def test_deterministic_bit_for_bit(self):
        theta = power_law_signal(1.0, 1.0, 10)
        a = simulate(theta, 0.3, 25, (42, 7))
        b = simulate(theta, 0.3, 25, (42, 7))
        assert a.x.tobytes() == b.x.tobytes()
        assert a.seed_trace == b.seed_trace

    def test_distinct_replicates_differ(self):
        theta = zero_signal(5)
        a = simulate(theta, 1.0, 5, (42, 0))
        b = simulate(theta, 1.0, 5, (42, 1))
        assert not np.array_equal(a.x, b.x)

    def test_integer_seed_accepted(self):
        theta = zero_signal(3)
        a = simulate(theta, 1.0, 3, 11)
        b = simulate(theta, 1.0, 3, (11, 0))
        assert np.array_equal(a.x, b.x)

    def test_pure_noise_law(self):
        # mean ~ 0 and variance ~ eps^2 at 4 sigma, n = 1e5
        eps, n = 0.7, 100_000
        obs = simulate(zero_signal(1), eps, n, (123, 0))
        assert abs(np.mean(obs.x)) <= 4.0 * eps / math.sqrt(n)
        assert abs(np.var(obs.x, ddof=1) - eps * eps) <= 4.0 * eps * eps * math.sqrt(2.0 / (n - 1))

    def test_strong_signal_containment(self):
        # X_1 within 10 sigma of theta_1 = 10 in at least 99.9% of replicates
        theta = Signal([10.0])
        inside = 0
        reps = 10_000
        for r in range(reps):
            x1 = simulate(theta, 0.01, 1, (9, r)).x[0]
            inside += 9.9 < x1 < 10.1
        assert inside / reps >= 0.999

    def test_zero_padding_beyond_stored_range(self):
        theta = Signal([5.0])
        obs = simulate(theta, 1e-9, 4, (0, 0))
        assert obs.x[0] == pytest.approx(5.0, abs=1e-6)
        assert np.all(np.abs(obs.x[1:]) < 1e-6)

    def test_validation(self):
        with pytest.raises(ValueError):
            simulate(zero_signal(2), 0.0, 2, 0)
        with pytest.raises(ValueError):
            simulate(zero_signal(2), 1.0, 0, 0)

    def test_non_integral_length_rejected(self):
        theta = zero_signal(4)
        assert simulate(theta, 1.0, 3.0, 7).n == 3
        assert simulate(theta, 1.0, np.uint8(3), 7).n == 3
        with pytest.raises(ValueError, match="n must be an integer >= 1, got 2.9"):
            simulate(theta, 1.0, 2.9, 7)

    def test_non_integral_seed_rejected(self):
        # a non-integral seed must not alias an integer seed's stream; seeds have no
        # lower bound, so the message names none
        theta = zero_signal(3)
        one = simulate(theta, 1.0, 3, 1).x
        assert np.array_equal(simulate(theta, 1.0, 3, 1.0).x, one)
        assert np.array_equal(simulate(theta, 1.0, 3, (np.int64(1), 0.0)).x, one)
        for seed, bad in [(1.5, "1.5"), ((1, 2.5), "2.5"), ((-0.5, 0), "-0.5")]:
            with pytest.raises(ValueError, match=f"^seed must be an integer, got {bad}$"):
                simulate(theta, 1.0, 3, seed)


class TestReplicateBlocks:
    @pytest.mark.parametrize("n", [1, 20, 2000])
    @pytest.mark.parametrize("master_seed", [-987654321, 2**63 + 5])
    def test_rows_are_the_keyed_streams(self, monkeypatch, n, master_seed):
        # three rows per block and a last block of one: 5 .. 11 is 3 + 3 + 1
        monkeypatch.setattr(effdim.signals, "BLOCK_ELEMENTS", 3 * n)
        blocks = [b.copy() for b in _replicate_blocks(zero_signal(n), 1.0, n, master_seed, 5, 7)]
        assert [len(b) for b in blocks] == [3, 3, 1]
        for r, row in enumerate(np.concatenate(blocks), start=5):
            key = np.array([master_seed % 2**64, r % 2**64], dtype=np.uint64)
            xi = np.random.Generator(np.random.Philox(key=key)).standard_normal(n)
            assert row.tobytes() == xi.tobytes()

    def test_rows_equal_simulate(self, monkeypatch):
        theta = power_law_signal(1.0, 1.0, 10)
        monkeypatch.setattr(effdim.signals, "BLOCK_ELEMENTS", 16)
        rows = np.concatenate([b.copy() for b in _replicate_blocks(theta, 0.3, 8, -4, 3, 5)])
        for r, row in enumerate(rows, start=3):
            assert row.tobytes() == simulate(theta, 0.3, 8, (-4, r)).x.tobytes()

    def test_horizon_of_a_tail_signal(self):
        with pytest.raises(ValueError, match="exceeds the signal horizon N = 10"):
            next(_replicate_blocks(power_law_signal(1.0, 1.0, 10), 0.3, 11, 1, 0, 1))
        assert next(_replicate_blocks(Signal([1.0]), 0.3, 11, 1, 0, 1)).shape == (1, 11)


class TestPowerLaw:
    def test_coefficients(self):
        theta = power_law_signal(1.0, 1.0, 3)
        assert theta.coeffs == pytest.approx([1.0, 2.0**-1.5, 3.0**-1.5], abs=1e-15)

    def test_non_integral_horizon_rejected(self):
        assert power_law_signal(1.0, 1.0, 8.0).n == power_law_signal(1.0, 1.0, np.int32(8)).n == 8
        with pytest.raises(ValueError, match="N must be an integer >= 1, got 8.5"):
            power_law_signal(1.0, 1.0, 8.5)

    def test_tail_energy_against_zeta(self):
        # independent oracle: c^2 * sum_{i>N} i^-(2s+1) = c^2 * zeta(2s+1, N+1)
        for s, c, N in [(1.0, 1.0, 3), (0.8, 2.0, 10), (2.0, 0.5, 50), (0.3, 1.0, 5)]:
            theta = power_law_signal(s, c, N)
            exact = c * c * float(zeta(2.0 * s + 1.0, N + 1))
            assert theta.tail_energy == pytest.approx(exact, rel=1e-9)
            assert theta.tail_energy >= exact  # stored value is the upper bracket

    @settings(max_examples=300, deadline=None)
    @given(p=st.floats(1.05, 9.0), m=st.integers(0, 10**7))
    def test_tail_bracket_encloses_zeta(self, p, m):
        lower, upper = _power_tail_bracket(p, m)
        exact = float(zeta(p, m + 1))
        assert lower <= exact <= upper
        assert upper - lower <= 1e-11 * exact

    def test_frozen_tail_value(self):
        theta = power_law_signal(1.0, 1.0, 3)
        assert theta.tail_energy == pytest.approx(0.040019866122557256, rel=1e-10)

    def test_strictly_decreasing(self):
        theta = power_law_signal(0.7, 3.0, 40)
        assert np.all(np.diff(theta.coeffs) < 0)

    def test_tail_decreases_with_horizon(self):
        tails = [power_law_signal(1.0, 1.0, N).tail_energy for N in (3, 10, 50, 200)]
        assert all(b < a for a, b in zip(tails, tails[1:]))

    def test_energy_conserved_across_horizons(self):
        totals = [power_law_signal(1.0, 2.0, N).total_energy for N in (3, 17, 101)]
        for t in totals[1:]:
            assert t == pytest.approx(totals[0], rel=1e-12)

    def test_membership_at_its_own_tail_constant(self):
        theta = power_law_signal(1.0, 1.0, 200)
        m = np.arange(1, theta.n + 1, dtype=float)
        q_star = float(np.max(m**2 * (_suffix_energy(theta) + theta.tail_energy)))
        loose = SmoothnessClassParams(s=1.0, Q=q_star * (1 + 1e-9), alpha=0.5, rho0=2.0, N0=1)
        tight = SmoothnessClassParams(s=1.0, Q=q_star * 0.999, alpha=0.5, rho0=2.0, N0=1)
        assert check_membership(theta, loose).in_tail_class
        report = check_membership(theta, tight)
        assert not report.in_tail_class
        assert report.tail_first_violation is not None


class TestAdversarialPair:
    def test_norm_gap_identity(self):
        for tau, eps, L1, L2, Delta in [(1.0, 1.0, 2, 2, 1.1), (9.0, 0.5, 3, 4, 1.7)]:
            short, long = adversarial_pair(tau, eps, L1, L2, Delta)
            gap_sq = float(np.sum((short.coeffs - long.coeffs) ** 2))
            assert gap_sq == pytest.approx(eps * eps * math.log(Delta), rel=1e-12)
            assert math.exp(gap_sq / (eps * eps)) == pytest.approx(Delta, rel=1e-10)

    def test_frozen_coefficients(self):
        short, long = adversarial_pair(1.0, 1.0, 2, 2, 1.1)
        expected = 1.0 - math.sqrt(math.log(1.1)) / 4.0
        assert short.coeffs[0] == pytest.approx(math.sqrt(2.0), abs=1e-15)
        assert short.coeffs[1:] == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(0.9228191329553087, abs=1e-13)
        assert short.n == 5 and long.n == 5
        assert short.tail_energy == 0.0 and long.tail_energy == 0.0

    def test_positivity_precondition_binds(self):
        with pytest.raises(ValueError, match="positivity precondition"):
            adversarial_pair(1.0, 1.0, 1, 1, math.exp(100.0))

    def test_non_integral_lengths_rejected(self):
        for L1, L2 in [(2.5, 3), (3, 1.5), (0, 3)]:
            with pytest.raises(ValueError, match="L[12] must be an integer >= 1"):
                adversarial_pair(1.0, 1.0, L1, L2, 1.1)

    def test_rejects_delta_at_most_one(self):
        with pytest.raises(ValueError, match="Delta"):
            adversarial_pair(1.0, 1.0, 2, 2, 1.0)


class TestSmoothnessClassParams:
    def test_block_start_follows_the_integer_rule(self):
        params = SmoothnessClassParams(s=1.0, Q=1.0, alpha=0.1, rho0=2.0, N0=2.0)
        assert params.N0 == 2 and type(params.N0) is int
        for bad in (2.5, 0, "2"):
            with pytest.raises(ValueError, match="N0 must be an integer >= 1"):
                SmoothnessClassParams(s=1.0, Q=1.0, alpha=0.1, rho0=2.0, N0=bad)


class TestSelfSimilar:
    def test_construction_passes_both_checks(self):
        params = SmoothnessClassParams(s=1.0, Q=1.0, alpha=0.1, rho0=2.0, N0=2)
        theta = self_similar_signal(params, 512)
        report = check_membership(theta, params)
        assert report.in_tail_class
        assert report.blocks_hold
        assert report.n_blocks_checked > 0

    def test_tail_class_sweep_exact(self):
        params = SmoothnessClassParams(s=1.0, Q=1.0, alpha=0.1, rho0=2.0, N0=2)
        theta = self_similar_signal(params, 512)
        m = np.arange(1, theta.n + 1, dtype=float)
        lhs = m**2 * (_suffix_energy(theta) + theta.tail_energy)
        assert np.all(lhs <= params.Q)

    def test_impossible_block_fraction_fails(self):
        # a near-unit block fraction over narrow blocks cannot hold
        params = SmoothnessClassParams(s=1.0, Q=1.0, alpha=0.95, rho0=1.05, N0=2)
        with pytest.raises(ValueError, match="block"):
            self_similar_signal(params, 512)

    def test_horizon_too_small(self):
        params = SmoothnessClassParams(s=1.0, Q=1.0, alpha=0.1, rho0=2.0, N0=64)
        with pytest.raises(ValueError, match="horizon"):
            self_similar_signal(params, 100)


class TestBlockEnergy:
    @settings(max_examples=200, deadline=None)
    @given(
        coeffs=st.lists(st.floats(-1e150, 1e150), min_size=1, max_size=500),
        tail=st.floats(0.0, 1e300),
        data=st.data(),
    )
    def test_values_bracket_the_exact_sum(self, coeffs, tail, data):
        theta = Signal(coeffs, tail)
        n = theta.n
        a = np.array(data.draw(st.lists(st.integers(1, n + 1), min_size=1, max_size=20)))
        b = np.array([data.draw(st.integers(int(lo) - 1, n + 1)) for lo in a])
        lower, upper = _block_energy(theta, a, b)
        exact_beyond = [Fraction(0)]  # exact sum_{i>k} of the stored squares, k = n..0
        for c in reversed(theta.coeffs):
            exact_beyond.append(exact_beyond[-1] + Fraction(float(c)) ** 2)
        exact_beyond.reverse()
        for lo, hi, low, up in zip(a, b, lower, upper):
            stored = exact_beyond[lo - 1] - exact_beyond[min(hi, n)]
            assert Fraction(float(low)) <= stored
            assert stored + (Fraction(tail) if hi > n else 0) <= Fraction(float(up))

    def test_margin_is_a_few_roundings_per_term(self):
        theta = power_law_signal(1.0, 1.0, 1000)
        lower, upper = _block_energy(theta, np.array([1, 10]), np.array([1000, 20]))
        exact = np.array([math.fsum(theta.coeffs**2), math.fsum(theta.coeffs[9:20] ** 2)])
        assert np.all(lower <= exact) and np.all(exact <= upper)
        assert np.all(upper - lower <= 1e-12 * theta.coeffs[0] ** 2)


class TestCheckMembership:
    def test_zero_signal(self):
        params = SmoothnessClassParams(s=1.0, Q=1.0, alpha=0.1, rho0=2.0, N0=1)
        report = check_membership(zero_signal(64), params)
        assert report.in_tail_class
        assert not report.blocks_hold
        assert report.block_first_violation == 1

    def test_constructor_output_is_member(self):
        params = SmoothnessClassParams(s=0.8, Q=2.0, alpha=0.2, rho0=2.0, N0=1)
        theta = self_similar_signal(params, 256)
        report = check_membership(theta, params)
        assert report.in_tail_class and report.blocks_hold

    def test_agrees_with_the_block_loop(self):
        # continuous random draws keep every compared value far from its
        # threshold relative to the rounding margin, so verdicts must agree
        rng = np.random.default_rng(31)
        seen = set()
        for _ in range(300):
            n = int(rng.integers(2, 120))
            s = float(rng.uniform(0.3, 2.0))
            i = np.arange(1, n + 1)
            coeffs = i ** -(s + 0.5) * rng.uniform(0.3, 1.7, n) * rng.choice([-1, 1], n)
            theta = Signal(coeffs, float(rng.uniform(0.0, 2.0)) * n ** (-2.0 * s))
            q_star = float(np.max(i ** (2.0 * s) * (_suffix_energy(theta) + theta.tail_energy)))
            params = SmoothnessClassParams(
                s=s, Q=q_star * float(rng.uniform(0.8, 1.25)),
                alpha=float(rng.uniform(0.01, 0.6)), rho0=float(rng.uniform(1.1, 3.0)),
                N0=int(rng.integers(1, 6)),
            )
            report = check_membership(theta, params)
            got = (report.in_tail_class, report.tail_first_violation, report.blocks_hold,
                   report.block_first_violation, report.n_blocks_checked)
            assert got == loop_membership(theta, params)
            seen.add((got[0], got[2], got[4] > 1))
        assert len(seen) >= 6  # both verdicts of both checks, one block or many


class TestSerialization:
    def test_round_trip_exact(self, tmp_path):
        theta = power_law_signal(1.3, 0.7, 17)
        path = tmp_path / "sig.txt"
        save_signal(theta, path)
        back = load_signal(path)
        assert np.array_equal(back.coeffs, theta.coeffs)
        assert back.tail_energy == theta.tail_energy

    def test_header_format(self, tmp_path):
        theta = Signal([1.0, -2.0], 0.5)
        path = tmp_path / "sig.txt"
        save_signal(theta, path)
        first = path.read_text().splitlines()[0]
        assert first.startswith("# effdim-signal v1 N=2 tail_energy=0.5")

    def test_rejects_non_signal_file(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("hello\n")
        with pytest.raises(ValueError, match="effdim-signal"):
            load_signal(path)

    def test_rejects_length_mismatch(self, tmp_path):
        path = tmp_path / "sig.txt"
        path.write_text("# effdim-signal v1 N=3 tail_energy=0\n1.0\n2.0\n")
        with pytest.raises(ValueError, match="N=3"):
            load_signal(path)

    def test_rejects_header_without_N(self, tmp_path):
        path = tmp_path / "sig.txt"
        path.write_text("# effdim-signal v1 tail_energy=0\n1.0\n")
        with pytest.raises(ValueError, match="header lacks N="):
            load_signal(path)

    def test_header_item_without_equals_is_named(self, tmp_path):
        path = tmp_path / "sig.txt"
        path.write_text("# effdim-signal v1 N=1 tail_energy=0 junk\n1.0\n")
        with pytest.raises(ValueError, match=r"sig.txt: header item 'junk' is not key=value"):
            load_signal(path)

    def test_non_integer_N_is_named(self, tmp_path):
        path = tmp_path / "sig.txt"
        path.write_text("# effdim-signal v1 N=x tail_energy=0\n1.0\n")
        with pytest.raises(ValueError, match=r"sig.txt: header N: cannot read 'x' as int"):
            load_signal(path)

    def test_bad_coefficient_names_its_line(self, tmp_path):
        path = tmp_path / "sig.txt"
        path.write_text("# effdim-signal v1 N=3 tail_energy=0\n1.0\n\nabc\n2.0\n")
        with pytest.raises(ValueError, match=r"sig.txt: line 4: cannot read 'abc' as float"):
            load_signal(path)

    def test_unwritable_path_is_a_value_error(self, tmp_path):
        with pytest.raises(ValueError, match="cannot write"):
            save_signal(Signal([1.0]), tmp_path)  # a directory
        with pytest.raises(ValueError, match="cannot write"):
            save_signal(Signal([1.0]), tmp_path / "absent" / "sig.txt")
        assert list(tmp_path.iterdir()) == []  # no temporary file left behind
