import itertools

import numpy as np
import pytest

from mkbell.errors import DimensionMismatch, NotNormalized
from mkbell.expansion import expand_terms
from mkbell.measurement import (
    estimate_bell_value,
    joint_distribution,
    sample_outcomes,
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
        one = estimate_bell_value(scenario, 100_000, seed=42)
        two = estimate_bell_value(scenario, 100_000, seed=42)
        assert one == two
        assert one.value == pytest.approx(np.sqrt(2) / 2, abs=6 * one.stderr)
        assert violation_sigmas(scenario, one) > 5

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_spin_s_estimate_scales_spin_half(self, n):
        # The top state of every spin lives on the levels +-s with the spin-1/2
        # amplitudes, so one seed draws the same counts: the paper's
        # spin-independent ratio, seen in simulation.
        shots = 10 ** 6 // 4 ** (n // 2)
        half = estimate_bell_value(Scenario(n, Spin(1)), shots, seed=7)
        for twice in range(2, 6):
            scenario = Scenario(n, Spin(twice))
            est = estimate_bell_value(scenario, shots, seed=7)
            assert est.value == pytest.approx(twice ** n * half.value, rel=1e-12, abs=0)
            assert est.stderr == pytest.approx(twice ** n * half.stderr, rel=1e-12, abs=0)

    def test_sigma_edge_cases(self):
        scenario = Scenario(2, Spin(1))
        est = estimate_bell_value(scenario, 1000, seed=0)
        frozen = type(est)(value=1.0, stderr=0.0, per_term=est.per_term)
        assert violation_sigmas(scenario, frozen) == float("inf")
        frozen = type(est)(value=0.0, stderr=0.0, per_term=est.per_term)
        assert violation_sigmas(scenario, frozen) == float("-inf")
        # On the bound with no spread (every n = 1 estimate): zero sigmas, not -inf.
        frozen = type(est)(value=0.5, stderr=0.0, per_term=est.per_term)
        assert violation_sigmas(scenario, frozen) == 0.0
