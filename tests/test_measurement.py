import itertools

import numpy as np
import pytest

from mkbell.errors import DimensionMismatch, NotNormalized
from mkbell.measurement import (
    correlation,
    estimate_bell_value,
    joint_distribution,
    sample_outcomes,
    violation_sigmas,
)
from mkbell.quantum import expectation, largest_eigenpair, top_state
from mkbell.spincore import ExactValue, Scenario, Spin


def random_state(rng, dim):
    v = rng.standard_normal(dim)
    return v / np.linalg.norm(v)


class TestJointDistribution:
    @pytest.mark.parametrize("n,twice", [(1, 1), (2, 1), (2, 3), (3, 2)])
    def test_probabilities_normalize(self, n, twice):
        scenario = Scenario(n, Spin(twice))
        rng = np.random.default_rng(17)
        for settings in map("".join, itertools.product("AB", repeat=n)):
            dist = joint_distribution(scenario, random_state(rng, scenario.global_dimension()), settings)
            assert np.all(dist.probs >= 0)
            assert dist.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_settings_on_basis_state(self):
        scenario = Scenario(2, Spin(1))
        state = np.zeros(4)
        state[2] = 1.0  # party 1 outcome -1/2, party 2 outcome +1/2
        dist = joint_distribution(scenario, state, "AA")
        expected = np.zeros(4)
        expected[2] = 1.0
        assert np.allclose(dist.probs, expected, atol=1e-15)
        assert correlation(dist) == pytest.approx(-0.25, abs=1e-12)

    def test_rejects_bad_inputs(self):
        scenario = Scenario(2, Spin(1))
        good = np.array([1.0, 0.0, 0.0, 0.0])
        with pytest.raises(DimensionMismatch):
            joint_distribution(scenario, good, "AAA")
        with pytest.raises(DimensionMismatch):
            joint_distribution(scenario, np.ones(3), "AA")
        with pytest.raises(NotNormalized):
            joint_distribution(scenario, 2 * good, "AA")
        with pytest.raises(ValueError):
            joint_distribution(scenario, good, "AC")


class TestCorrelationAgainstOperator:
    @pytest.mark.parametrize("n,twice", [(2, 1), (2, 2), (3, 1), (3, 2)])
    def test_all_settings_match_expectation(self, n, twice):
        scenario = Scenario(n, Spin(twice))
        rng = np.random.default_rng(n * 10 + twice)
        for _ in range(3):
            state = random_state(rng, scenario.global_dimension())
            report = expectation(state, scenario)
            per_term = dict(report.per_term)
            for settings in map("".join, itertools.product("AB", repeat=n)):
                born = correlation(joint_distribution(scenario, state, settings))
                if settings in per_term:
                    assert born == pytest.approx(per_term[settings], abs=1e-10)


class TestSampling:
    def test_counts_sum_to_shots_and_reproduce(self):
        scenario = Scenario(2, Spin(1))
        rng = np.random.default_rng(2)
        dist = joint_distribution(scenario, random_state(rng, 4), "AB")
        one = sample_outcomes(dist, 5000, seed=7)
        two = sample_outcomes(dist, 5000, seed=7)
        assert sum(one.counts.values()) == 5000
        assert one.counts == two.counts
        assert one.correlation_mean == two.correlation_mean

    def test_counts_keyed_by_outcome_values(self):
        scenario = Scenario(2, Spin(1))
        state = np.array([1.0, 0.0, 0.0, 0.0])
        report = sample_outcomes(joint_distribution(scenario, state, "AA"), 10, seed=0)
        key = (ExactValue(1, 1), ExactValue(1, 1))
        assert report.counts == {key: 10}
        assert report.correlation_mean == 0.25
        assert report.correlation_stderr == 0.0

    def test_mean_converges_to_born_correlation(self):
        scenario = Scenario(3, Spin(2))
        rng = np.random.default_rng(5)
        dist = joint_distribution(scenario, random_state(rng, 27), "ABB")
        exact = correlation(dist)
        report = sample_outcomes(dist, 200_000, seed=99)
        assert abs(report.correlation_mean - exact) <= 6 * max(report.correlation_stderr, 1e-6)

    def test_rejects_zero_shots(self):
        scenario = Scenario(2, Spin(1))
        dist = joint_distribution(scenario, np.array([1.0, 0, 0, 0]), "AA")
        with pytest.raises(ValueError):
            sample_outcomes(dist, 0, seed=1)


class TestBellEstimate:
    def test_reproducible_and_violating(self):
        scenario = Scenario(2, Spin(1))
        state = largest_eigenpair(scenario).vector
        one = estimate_bell_value(scenario, state, 100_000, seed=42)
        two = estimate_bell_value(scenario, state, 100_000, seed=42)
        assert one == two
        assert one.value == pytest.approx(np.sqrt(2) / 2, abs=6 * one.stderr)
        assert violation_sigmas(scenario, one) > 5

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_spin_s_estimate_scales_spin_half(self, n):
        # The top state of every spin lives on the levels +-s with the spin-1/2
        # amplitudes, so one seed draws the same counts: the paper's
        # spin-independent ratio, seen in simulation.
        shots = 10 ** 6 // 4 ** (n // 2)
        half = estimate_bell_value(Scenario(n, Spin(1)), top_state(Scenario(n, Spin(1))),
                                   shots, seed=7)
        for twice in range(2, 6):
            scenario = Scenario(n, Spin(twice))
            est = estimate_bell_value(scenario, top_state(scenario), shots, seed=7)
            assert est.value == pytest.approx(twice ** n * half.value, rel=1e-12, abs=0)
            assert est.stderr == pytest.approx(twice ** n * half.stderr, rel=1e-12, abs=0)

    def test_sigma_edge_cases(self):
        scenario = Scenario(2, Spin(1))
        state = largest_eigenpair(scenario).vector
        est = estimate_bell_value(scenario, state, 1000, seed=0)
        frozen = type(est)(value=1.0, stderr=0.0, per_term=est.per_term,
                           shots_per_setting=est.shots_per_setting, seed=0)
        assert violation_sigmas(scenario, frozen) == float("inf")
        frozen = type(est)(value=0.0, stderr=0.0, per_term=est.per_term,
                           shots_per_setting=est.shots_per_setting, seed=0)
        assert violation_sigmas(scenario, frozen) == float("-inf")
