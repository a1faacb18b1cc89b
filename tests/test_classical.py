import time
from fractions import Fraction

import numpy as np
import pytest

from mkbell import classical
from mkbell.classical import Strategy, classical_bound, classical_max
from mkbell.errors import CapExceeded
from mkbell.expansion import pair_step
from mkbell.spincore import DEFAULT_DIM_CAP, Scenario, Spin
from oracles import (
    ValueOutOfSpectrum,
    classical_max_enumerated,
    lhv_sample,
    strategy_value,
    twice_value_states,
    value_from_terms,
)


#: (a, b) in {+-1}**2, the sign pairs the classical DP runs on.
SIGN_PAIRS = {(1, 1), (1, -1), (-1, 1), (-1, -1)}


def ev(text):
    return Fraction(text)


class TestBoundFormula:
    @pytest.mark.parametrize(
        "n,twice,expected",
        [
            (2, 1, "1/2"),
            (2, 2, "2"),
            (3, 1, "1/2"),
            (3, 2, "4"),
            (3, 3, "27/2"),
            (4, 2, "8"),
            (6, 1, "1/2"),
        ],
    )
    def test_fixtures(self, n, twice, expected):
        bound = classical_bound(Scenario(n, Spin(twice)))
        assert str(bound) == expected


class TestStrategyValue:
    def test_two_party_all_plus(self):
        scenario = Scenario(2, Spin(1))
        strat = Strategy(a=(ev("1/2"), ev("1/2")), b=(ev("1/2"), ev("1/2")))
        # AA + AB + BA - BB at all +1/2 gives 1/2.
        assert strategy_value(scenario, strat) == ev("1/2")

    def test_rejects_out_of_spectrum(self):
        scenario = Scenario(2, Spin(1))
        strat = Strategy(a=(ev("1"), ev("1/2")), b=(ev("1/2"), ev("1/2")))
        with pytest.raises(ValueOutOfSpectrum):
            strategy_value(scenario, strat)

    def test_rejects_wrong_length(self):
        scenario = Scenario(3, Spin(1))
        strat = Strategy(a=(ev("1/2"),), b=(ev("1/2"),))
        with pytest.raises(ValueOutOfSpectrum):
            strategy_value(scenario, strat)

    @pytest.mark.parametrize("n,twice", [(2, 1), (2, 3), (3, 2), (4, 1), (5, 1)])
    def test_recursion_matches_term_oracle(self, n, twice):
        scenario = Scenario(n, Spin(twice))
        outcomes = [Fraction(t, 2) for t in scenario.spin.twice_outcomes()]
        rng = np.random.default_rng(n * 100 + twice)
        for _ in range(25):
            a = tuple(outcomes[i] for i in rng.integers(0, len(outcomes), n))
            b = tuple(outcomes[i] for i in rng.integers(0, len(outcomes), n))
            strat = Strategy(a=a, b=b)
            assert strategy_value(scenario, strat) == value_from_terms(scenario, strat)


class TestClassicalMax:
    @pytest.mark.parametrize("n", range(2, 7))
    @pytest.mark.parametrize("twice", [1, 2, 3, 4])
    def test_extremal_max_attains_bound(self, n, twice):
        scenario = Scenario(n, Spin(twice))
        result = classical_max(scenario)
        assert result.max_value == classical_bound(scenario)
        assert result.strategies_checked == 4 ** n
        # The reported argmax really evaluates to the maximum.
        assert strategy_value(scenario, result.argmax) == result.max_value

    @pytest.mark.parametrize("n,twice", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
    def test_full_grid_agrees_with_extremal(self, n, twice):
        scenario = Scenario(n, Spin(twice))
        full = classical_max(scenario, extremal_only=False)
        assert full.max_value == classical_max(scenario).max_value
        d = scenario.spin.dimension
        assert full.strategies_checked == d ** (2 * n)

    def test_full_grid_budget(self):
        with pytest.raises(CapExceeded):
            classical_max_enumerated(Scenario(5, Spin(7)), extremal_only=False)

    def test_oracle_budget_counts_table_entries(self):
        # 4**13 strategies fit a budget on strategies, but their table holds
        # 26 * 4**13 int64 entries (14 GB); the oracle raises before allocating.
        with pytest.raises(CapExceeded):
            classical_max_enumerated(Scenario(13, Spin(1)))

    @pytest.mark.parametrize("twice", range(1, 6))
    @pytest.mark.parametrize("n", range(1, 9))
    def test_dp_matches_enumeration(self, n, twice):
        scenario = Scenario(n, Spin(twice))
        assert classical_max(scenario) == classical_max_enumerated(scenario)
        if (twice + 1) ** (2 * n) * 2 * n <= DEFAULT_DIM_CAP:
            assert (classical_max(scenario, extremal_only=False)
                    == classical_max_enumerated(scenario, extremal_only=False))

    @pytest.mark.parametrize("n,twice", [(2, 1), (3, 2), (4, 1)])
    @pytest.mark.parametrize("extremal_only", [True, False])
    def test_certificate_raises_on_a_wrong_state_set(self, monkeypatch, n, twice,
                                                     extremal_only):
        # The all-+s state (1, 1), the DP's maximum and the bound must agree:
        # a set above the bound, one that lacks (1, 1), or one whose last step
        # skipped the halving, is refused.
        states = classical._extremal_states(n)
        assert (1, 1) in states and (-1, -1) in states
        unhalved = {pair_step(m, k, a, b) for m, k in states for a, b in SIGN_PAIRS}
        for wrong in (states | {(2, 1)}, states - {(1, 1)}, unhalved):
            monkeypatch.setattr(classical, "_extremal_states", lambda n, wrong=wrong: wrong)
            with pytest.raises(AssertionError, match="all \\+s attains"):
                classical_max(Scenario(n, Spin(twice)), extremal_only=extremal_only)

    @pytest.mark.parametrize("twice", range(1, 10))
    def test_four_states_per_party(self, twice):
        # Every party leaves the four rotations of (1, 1), the sign pairs; scaled
        # by t (2t)**(n-1), they are the twice-value DP's states.
        for n in range(1, 61):
            states = classical._extremal_states(n)
            assert states == SIGN_PAIRS, n
            scale = twice * (2 * twice) ** (n - 1)
            assert {(scale * m, scale * k) for m, k in states} == twice_value_states(n, twice)

    @pytest.mark.parametrize("n", [2, 3, 60, 10 ** 6])
    def test_dp_stops_at_its_fixed_point(self, monkeypatch, n):
        # Party 2's step returns party 1's set, so the loop ends there: one
        # step, 4 states times 4 sign pairs, at any n.
        calls = []
        monkeypatch.setattr(classical, "pair_step",
                            lambda *args: calls.append(args) or pair_step(*args))
        classical._extremal_states(n)
        assert len(calls) == 16

    def test_huge_n_is_fast(self):
        start = time.perf_counter()
        result = classical_max(Scenario(10 ** 5, Spin(15)))
        assert time.perf_counter() - start < 1.0
        assert result.max_value == Fraction(15 ** 10 ** 5, 2)


class TestLhvSample:
    def test_reproducible(self):
        scenario = Scenario(2, Spin(1))
        one = lhv_sample(scenario, shots=1000, seed=9)
        two = lhv_sample(scenario, shots=1000, seed=9)
        assert one == two

    def test_point_mass_on_argmax_is_exact(self):
        scenario = Scenario(3, Spin(2))
        argmax = classical_max(scenario).argmax
        report = lhv_sample(scenario, shots=100, seed=0,
                            distribution="point_mass", strategy=argmax)
        assert report.mean == float(classical_bound(scenario))
        assert report.stderr == 0.0

    def test_uniform_mean_is_consistent_with_zero(self):
        scenario = Scenario(2, Spin(1))
        report = lhv_sample(scenario, shots=200_000, seed=123)
        assert abs(report.mean) <= 6 * report.stderr

    def test_uniform_never_beats_bound_by_sigmas(self):
        bound = float(classical_bound(Scenario(3, Spin(1))))
        report = lhv_sample(Scenario(3, Spin(1)), shots=200_000, seed=321)
        assert report.mean + 5 * report.stderr < bound + bound  # well below 2x bound
        assert (report.mean - bound) / report.stderr < 5

    def test_rejects_bad_inputs(self):
        scenario = Scenario(2, Spin(1))
        with pytest.raises(ValueError):
            lhv_sample(scenario, shots=0, seed=1)
        with pytest.raises(ValueError):
            lhv_sample(scenario, shots=10, seed=1, distribution="bogus")
        with pytest.raises(ValueError):
            lhv_sample(scenario, shots=10, seed=1, distribution="point_mass")
