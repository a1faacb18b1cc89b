import itertools
from math import cos, pi, sqrt

import numpy as np
import pytest

from mkbell import measurement
from mkbell.classical import classical_bound
from mkbell.errors import DimensionMismatch, NotNormalized
from mkbell.expansion import expand_terms
from mkbell.measurement import (
    estimate_bell_value,
    joint_distribution,
    sample_outcomes,
    top_state,
    violation_sigmas,
)
from mkbell.quantum import block_scale
from mkbell.spincore import Scenario, Spin
from oracles import (
    apply_term,
    correlation,
    embed,
    extreme_indices,
    full_space_distribution,
    full_space_operator,
    termwise_estimate,
)


def random_state(rng, dim):
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


class TestJointDistribution:
    @pytest.mark.parametrize("n,twice", [(1, 1), (2, 1), (2, 3), (3, 2)])
    def test_probabilities_normalize(self, n, twice):
        # The block Born rule on 2**n amplitudes and the full-space oracle on D.
        scenario = Scenario(n, Spin(twice))
        rng = np.random.default_rng(17)
        for settings in map("".join, itertools.product("AB", repeat=n)):
            for probs in (joint_distribution(random_state(rng, 1 << n), settings),
                          full_space_distribution(
                              scenario, random_state(rng, scenario.global_dimension()),
                              settings)):
                assert np.all(probs >= 0)
                assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n,twice", [(1, 2), (2, 3), (3, 2), (3, 5), (4, 4)])
    def test_block_is_the_full_space_rule_on_the_extreme_levels(self, n, twice):
        # A block state embedded in the full space puts all its mass on the
        # extreme strings, with the block's probabilities there.
        scenario = Scenario(n, Spin(twice))
        rng = np.random.default_rng(23)
        extreme = extreme_indices(scenario)
        for settings in map("".join, itertools.product("AB", repeat=n)):
            x = random_state(rng, 1 << n)
            block = joint_distribution(x, settings)
            full = full_space_distribution(scenario, embed(scenario, x), settings)
            assert np.max(np.abs(full[extreme] - block)) <= 1e-15
            assert np.delete(full, extreme).sum() <= 1e-15

    def test_diagonal_settings_on_basis_state(self):
        scenario = Scenario(2, Spin(1))
        state = np.zeros(4)
        state[2] = 1.0  # party 1 outcome -1/2, party 2 outcome +1/2
        probs = joint_distribution(state, "AA")
        expected = np.zeros(4)
        expected[2] = 1.0
        assert np.allclose(probs, expected, atol=1e-15)
        assert correlation(scenario, probs) == pytest.approx(-0.25, abs=1e-12)

    def test_rejects_bad_inputs(self):
        # n is the number of settings; a state of another length is rejected.
        good = np.array([1.0, 0.0, 0.0, 0.0])
        with pytest.raises(DimensionMismatch, match="state must have length 8"):
            joint_distribution(good, "AAA")
        with pytest.raises(DimensionMismatch):
            joint_distribution(np.ones(3), "AA")
        with pytest.raises(NotNormalized):
            joint_distribution(2 * good, "AA")
        with pytest.raises(ValueError):
            joint_distribution(good, "AC")


class TestTermLaw:
    """The law ``estimate_bell_value`` draws from, checked on the Born-rule
    reference: each shot of term t agrees with sign(c_t) with probability
    p = (1 + r)/2, r = 1 at odd n and cos(pi/4) at even n."""

    @staticmethod
    def agreement(n):
        return (1 + (1.0 if n % 2 else cos(pi / 4))) / 2

    @pytest.mark.parametrize("n", range(1, 11))
    def test_every_term_agrees_with_its_sign_at_p(self, n):
        # The outcome product is negative where an odd number of parties read -s.
        state = top_state(Scenario(n, Spin(1)))
        negative = np.bitwise_count(np.arange(1 << n)) % 2 == 1
        for coeff, labels in expand_terms(n):
            probs = joint_distribution(state, labels)
            agree = probs[negative].sum() if coeff < 0 else probs[~negative].sum()
            assert abs(agree - self.agreement(n)) <= 1e-14, labels

    @pytest.mark.parametrize("n", [2, 4])
    def test_counts_fit_the_born_rule_draws(self, n):
        # Two-sample Kolmogorov-Smirnov test between the agreement counts of
        # the binomial sampler and of the multinomial oracle, pooled over the
        # terms and the seeds 0..49 at 50 shots per setting.  For two samples
        # of m counts, sqrt(m/2) D stays below 2.7 with asymptotic probability
        # 1 - 2 exp(-2 * 2.7**2) > 1 - 1e-6, and the test is conservative on
        # counts: a correct sampler fails with probability below 1e-6.
        scenario, share = Scenario(n, Spin(1)), 50
        shots = share * 4 ** (n // 2)
        unit = 2.0 ** -n

        def counts(estimate):
            signs = [1 if coeff > 0 else -1 for coeff, _ in expand_terms(n)]
            return [round((sign * mean / unit * share + share) / 2)
                    for sign, (_, mean, _) in zip(signs, estimate.per_term)]

        fast, slow = [], []
        for seed in range(50):
            fast += counts(estimate_bell_value(scenario, shots, seed))
            slow += counts(termwise_estimate(scenario, shots, seed))
        grid = np.arange(share + 1)
        gap = np.max(np.abs(np.searchsorted(np.sort(fast), grid, side="right")
                            - np.searchsorted(np.sort(slow), grid, side="right"))) / len(fast)
        assert sqrt(len(fast) / 2) * gap < 2.7


class TestCorrelationAgainstOperator:
    @pytest.mark.parametrize("n,twice", [(2, 1), (2, 2), (3, 1), (3, 2)])
    def test_all_settings_match_expectation(self, n, twice):
        scenario = Scenario(n, Spin(twice))
        rng = np.random.default_rng(n * 10 + twice)
        for _ in range(3):
            state = random_state(rng, scenario.global_dimension())
            op = full_space_operator(scenario)
            per_term = {labels: float(state @ apply_term(op, labels, state))
                        for _, labels in expand_terms(n)}
            for settings in map("".join, itertools.product("AB", repeat=n)):
                born = correlation(scenario, full_space_distribution(scenario, state, settings))
                if settings in per_term:
                    assert born == pytest.approx(per_term[settings], abs=1e-10)


class TestSampling:
    def test_counts_sum_to_shots_and_reproduce(self):
        rng = np.random.default_rng(2)
        probs = joint_distribution(random_state(rng, 4), "AB")
        one = sample_outcomes(probs, 5000, seed=7)
        two = sample_outcomes(probs, 5000, seed=7)
        assert one.outcome_counts.sum() == 5000
        assert np.array_equal(one.outcome_counts, two.outcome_counts)
        assert one.correlation_mean == two.correlation_mean

    def test_counts_keyed_by_outcome_values(self):
        state = np.array([1.0, 0.0, 0.0, 0.0])
        report = sample_outcomes(joint_distribution(state, "AA"), 10, seed=0)
        # Index 0 is the outcome (+1/2, +1/2), whose product is 1/4.
        assert report.outcome_counts.tolist() == [10, 0, 0, 0]
        assert report.correlation_mean == 0.25
        assert report.correlation_stderr == 0.0

    @pytest.mark.parametrize("n,twice", [(1, 1), (2, 3), (3, 1), (5, 2), (8, 1)])
    def test_moments_are_the_outcome_product_sums(self, n, twice):
        # Reference: the count-weighted sums of the product of the spin-1/2
        # outcomes +-1/2, one table entry per joint outcome.  The report is
        # the spin-1/2 one; block_scale turns it into the spin-s one.
        probs = joint_distribution(random_state(np.random.default_rng(n), 1 << n),
                                   "AB" * (n // 2) + "A" * (n % 2))
        products = np.ones(1)
        for _ in range(n):
            products = np.multiply.outer(products, [0.5, -0.5]).reshape(-1)
        report = sample_outcomes(probs, 30_000, seed=n)
        mean = float(report.outcome_counts @ products) / 30_000
        second = float(report.outcome_counts @ products ** 2) / 30_000
        stderr = float(np.sqrt(max(second - mean * mean, 0.0) / 30_000))
        assert (report.correlation_mean, report.correlation_stderr) == (mean, stderr)
        scale = block_scale(Scenario(n, Spin(twice)))
        assert scale * report.correlation_mean == twice ** n * mean
        assert scale * report.correlation_stderr == twice ** n * stderr

    def test_mean_converges_to_born_correlation(self):
        scenario = Scenario(3, Spin(2))
        rng = np.random.default_rng(5)
        state = random_state(rng, 8)
        exact = correlation(scenario,
                            full_space_distribution(scenario, embed(scenario, state), "ABB"))
        report = sample_outcomes(joint_distribution(state, "ABB"), 200_000, seed=99)
        scale = block_scale(scenario)  # (2s)**3 = 8
        mean, stderr = scale * report.correlation_mean, scale * report.correlation_stderr
        assert abs(mean - exact) <= 6 * max(stderr, 1e-6)

    def test_rejects_zero_shots(self):
        probs = joint_distribution(np.array([1.0, 0, 0, 0]), "AA")
        with pytest.raises(ValueError):
            sample_outcomes(probs, 0, seed=1)


class TestBellEstimate:
    def test_reproducible_and_violating(self):
        scenario = Scenario(2, Spin(1))
        one = estimate_bell_value(scenario, 4 * 100_000, seed=42)
        two = estimate_bell_value(scenario, 4 * 100_000, seed=42)
        assert one == two
        assert one.value == pytest.approx(np.sqrt(2) / 2, abs=6 * one.stderr)
        assert violation_sigmas(one, classical_bound(scenario)) > 5

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_spin_s_estimate_scales_spin_half(self, n):
        # The top state of every spin lives on the levels +-s with the spin-1/2
        # amplitudes, so one seed draws the same counts: the paper's
        # spin-independent ratio, seen in simulation.
        shots = 10 ** 6  # 10**6 // 4**(n//2) on each setting context
        half = estimate_bell_value(Scenario(n, Spin(1)), shots, seed=7)
        for twice in range(2, 6):
            scenario = Scenario(n, Spin(twice))
            est = estimate_bell_value(scenario, shots, seed=7)
            assert est.value == pytest.approx(twice ** n * half.value, rel=1e-12, abs=0)
            assert est.stderr == pytest.approx(twice ** n * half.stderr, rel=1e-12, abs=0)

    @pytest.mark.parametrize("n", range(1, 12))
    def test_is_the_termwise_oracle_at_spin_half(self, n):
        scenario = Scenario(n, Spin(1))
        shots = 2000 * 4 ** (n // 2)
        self.assert_oracle(scenario, estimate_bell_value(scenario, shots, seed=42),
                           termwise_estimate(scenario, shots, 42))

    @pytest.mark.parametrize("n,twice,seed", [(2, 2, 0), (3, 3, 7), (4, 15, 123456789),
                                              (6, 5, 2 ** 40), (7, 2, 1)])
    def test_is_the_termwise_oracle_at_other_spins_and_seeds(self, n, twice, seed):
        scenario = Scenario(n, Spin(twice))
        shots = 5000 * 4 ** (n // 2)
        self.assert_oracle(scenario, estimate_bell_value(scenario, shots, seed),
                           termwise_estimate(scenario, shots, seed))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_definite_terms_are_exactly_the_odd_n(self, n):
        # The odd-n shortcut's licence: the sum of |c_t| is 2**(3(n-1)/2),
        # the top eigenvalue over 2**-n, so every term sits at its extreme.
        # At even n the sum is sqrt(2) times more and the outcomes are random.
        total = sum(abs(coeff) for coeff, _ in expand_terms(n))
        assert (total ** 2 == 2 ** (3 * (n - 1))) == (n % 2 == 1)

    @pytest.mark.parametrize("n,twice", [(n, twice) for n in range(1, 12, 2)
                                         for twice in (1, 2, 15)])
    def test_odd_n_builds_and_draws_nothing(self, monkeypatch, n, twice):
        scenario = Scenario(n, Spin(twice))
        shots = 1000 * 4 ** (n // 2)
        expected = termwise_estimate(scenario, shots, 9)

        def forbidden(*args, **kwargs):
            raise AssertionError("built or drew at odd n")

        for name in ("top_state", "joint_distribution", "sample_outcomes"):
            monkeypatch.setattr(measurement, name, forbidden)
        self.assert_same(estimate_bell_value(scenario, shots, 9), expected)

    @pytest.mark.parametrize("n,twice", [(n, twice) for n in range(2, 13, 2)
                                         for twice in (1, 2, 15)])
    def test_even_n_reaches_no_born_rule_reference(self, monkeypatch, n, twice):
        # As at odd n, with the law's spread: one count per term is drawn.
        def forbidden(*args, **kwargs):
            raise AssertionError("reached the Born-rule reference at even n")

        for name in ("top_state", "joint_distribution", "sample_outcomes"):
            monkeypatch.setattr(measurement, name, forbidden)
        estimate = estimate_bell_value(Scenario(n, Spin(twice)), 100 * 4 ** (n // 2), seed=1)
        assert len(estimate.per_term) == 4 ** (n // 2)
        assert estimate.stderr > 0

    @pytest.mark.parametrize("n", [2, 4])
    def test_even_n_draws_once_per_context(self, monkeypatch, n):
        # One count per context, all T from one binomial call on the stream
        # default_rng(seed), with the law's p = cos(pi/8)**2.
        calls = []
        default_rng = np.random.default_rng

        class Recorded:
            def __init__(self, seed):
                calls.append(("default_rng", seed))
                self.rng = default_rng(seed)

            def binomial(self, *args, **kwargs):
                calls.append(("binomial", args, kwargs))
                return self.rng.binomial(*args, **kwargs)

        scenario, terms = Scenario(n, Spin(1)), 4 ** (n // 2)
        expected = estimate_bell_value(scenario, 100 * terms, seed=3)
        monkeypatch.setattr(np.random, "default_rng", Recorded)
        assert estimate_bell_value(scenario, 100 * terms, seed=3) == expected
        assert calls == [("default_rng", 3), ("binomial", (100, pytest.approx(cos(pi / 8) ** 2,
                                                                               rel=1e-15)),
                                              {"size": terms})]

    def test_takes_the_total_shots(self):
        # max(1, shots // T) on each of the T = 4 contexts at n = 2.
        scenario = Scenario(2, Spin(1))
        assert [estimate_bell_value(scenario, shots, seed=0).shots_per_setting
                for shots in (1, 7, 8, 4003)] == [1, 1, 2, 1000]

    def test_a_share_past_one_draw_is_refused(self):
        # 2**63 on each setting is one past what one binomial draw takes; the
        # largest share draws.
        scenario = Scenario(2, Spin(2))
        with pytest.raises(ValueError) as info:
            estimate_bell_value(scenario, 2 ** 63 * 4, seed=1)
        assert str(info.value) == (
            f"shots {2 ** 65} puts {2 ** 63} shots on each setting of n=2, s=1, more "
            "than the 2**63 - 1 one binomial draw takes")
        largest = estimate_bell_value(scenario, (2 ** 63 - 1) * 4 + 3, seed=1)
        assert largest.shots_per_setting == 2 ** 63 - 1
        assert largest.value == pytest.approx(2 * sqrt(2), rel=1e-8)

    def test_shots_below_one_are_refused_before_the_state(self, monkeypatch):
        def no_terms(*args, **kwargs):
            raise AssertionError("expanded the terms before the admission rule")

        monkeypatch.setattr(measurement, "expand_terms", no_terms)
        for shots in (0, -5):
            with pytest.raises(ValueError, match=r"^shots must be >= 1$"):
                estimate_bell_value(Scenario(2, Spin(1)), shots, seed=0)

    @classmethod
    def assert_oracle(cls, scenario, fast, slow):
        """Bit for bit at odd n, where neither draws.  At even n the two draw
        from other streams: the same terms and shares, the law's exact errors,
        and each term's mean, and the value, within 6 standard deviations of
        their difference, sqrt(2) times one estimate's (false failure below
        2e-9 a term)."""
        if scenario.n % 2:
            cls.assert_same(fast, slow)
            return
        n, twice, share = scenario.n, scenario.spin.twice_spin, fast.shots_per_setting
        err = twice ** n * 2.0 ** -n * sqrt(0.5 / share)
        assert share == slow.shots_per_setting
        assert [labels for labels, _, _ in fast.per_term] == [
            labels for _, labels in expand_terms(n)] == [labels for labels, _, _ in slow.per_term]
        for (_, mean, stderr), (_, oracle, _) in zip(fast.per_term, slow.per_term):
            assert stderr == pytest.approx(err, rel=1e-14)
            assert abs(mean - oracle) <= 6 * sqrt(2) * err
        norm = sqrt(sum(coeff * coeff for coeff, _ in expand_terms(n)))
        assert fast.stderr == pytest.approx(norm * err, rel=1e-14)
        assert abs(fast.value - slow.value) <= 6 * sqrt(2) * fast.stderr

    @staticmethod
    def assert_same(fast, slow):
        assert (fast.value, fast.stderr, fast.shots_per_setting) == (
            slow.value, slow.stderr, slow.shots_per_setting)
        assert len(fast.per_term) == len(slow.per_term)
        for mine, oracle in zip(fast.per_term, slow.per_term):
            assert mine == oracle

    def test_sigma_edge_cases(self):
        scenario = Scenario(2, Spin(1))
        bound = classical_bound(scenario)  # 1/2
        est = estimate_bell_value(scenario, 4 * 1000, seed=0)
        frozen = est._replace(value=1.0, stderr=0.0)
        assert violation_sigmas(frozen, bound) == float("inf")
        frozen = est._replace(value=0.0, stderr=0.0)
        assert violation_sigmas(frozen, bound) == float("-inf")
        # On the bound with no spread (every n = 1 estimate): zero sigmas, not -inf.
        frozen = est._replace(value=0.5, stderr=0.0)
        assert violation_sigmas(frozen, bound) == 0.0
