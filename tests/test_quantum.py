import numpy as np
import pytest

from mkbell.errors import CapExceeded, NotConverged, NotNormalized
from mkbell.operators import assemble_dense, global_operator
from mkbell.quantum import (
    dense_spectrum,
    expectation,
    largest_eigenpair,
    predicted_quantum_max,
    predicted_ratio,
    spectral_gap,
    top_state,
    violation_ratio,
)
from mkbell.spincore import Scenario, Spin
from oracles import lanczos_top

SQRT2 = np.sqrt(2.0)


class TestPredictions:
    @pytest.mark.parametrize(
        "n,twice,expected",
        [
            (2, 1, SQRT2 / 2),
            (2, 2, 2 * SQRT2),
            (3, 1, 1.0),
            (3, 2, 8.0),
            (3, 3, 27.0),
            (4, 2, 2 ** 4.5),
        ],
    )
    def test_quantum_max_formula(self, n, twice, expected):
        assert predicted_quantum_max(Scenario(n, Spin(twice))) == pytest.approx(
            expected, rel=1e-14
        )

    @pytest.mark.parametrize("n", range(1, 8))
    def test_ratio_formula(self, n):
        assert predicted_ratio(n) == pytest.approx(2 ** ((n - 1) / 2), rel=1e-14)


class TestDenseSpectrum:
    def test_two_party_half(self):
        report = dense_spectrum(Scenario(2, Spin(1)))
        assert np.allclose(report.eigenvalues, [-SQRT2 / 2, 0.0, 0.0, SQRT2 / 2],
                           atol=1e-12)
        assert report.top_value == pytest.approx(SQRT2 / 2, rel=1e-12)
        assert report.degeneracy_of_top == 1
        gap = report.eigenvalues[-1] - report.eigenvalues[-2]
        assert gap == pytest.approx(SQRT2 / 2, rel=1e-9)

    @pytest.mark.parametrize("n,twice", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1), (5, 1)])
    def test_top_matches_prediction(self, n, twice):
        scenario = Scenario(n, Spin(twice))
        report = dense_spectrum(scenario)
        assert report.top_value == pytest.approx(
            predicted_quantum_max(scenario), rel=1e-9
        )
        assert report.degeneracy_of_top == 1

    def test_cap(self):
        with pytest.raises(CapExceeded):
            dense_spectrum(Scenario(8, Spin(2)))


class TestPowerIteration:
    """``largest_eigenpair``: the closed-form state, checked by one matvec."""

    @pytest.mark.parametrize("n,twice", [(2, 1), (2, 3), (3, 1), (3, 2), (4, 1), (5, 1)])
    def test_matches_dense_top(self, n, twice):
        scenario = Scenario(n, Spin(twice))
        result = largest_eigenpair(scenario)
        top = dense_spectrum(scenario).top_value
        assert result.value == pytest.approx(top, rel=1e-8)
        vec = result.vector
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-9)
        residual = np.linalg.norm(assemble_dense(scenario) @ vec - result.value * vec)
        assert residual <= 1e-9 * max(1.0, abs(result.value))

    def test_survives_all_ones_fixed_point(self):
        # For three spin-1 parties the uniform vector sits in a lower
        # eigenspace; the solver must still find the true maximum.
        result = largest_eigenpair(Scenario(3, Spin(2)))
        assert result.value == pytest.approx(8.0, rel=1e-8)
        assert lanczos_top(Scenario(3, Spin(2))).value == pytest.approx(8.0, rel=1e-8)

    def test_not_converged_carries_best_state(self):
        # A matvec that is off by 1e-6 of a shifted vector fails the check.
        scenario = Scenario(3, Spin(5))
        op = global_operator(scenario)
        exact, calls = op.apply, []
        op.apply = lambda v: calls.append(1) or exact(v) + 1e-6 * np.roll(v, 1)
        with pytest.raises(NotConverged) as info:
            largest_eigenpair(scenario, operator=op)
        err = info.value
        assert err.iterations == len(calls) == 1
        assert 1e-9 * err.best_value < err.best_residual < 1e-5
        assert err.best_value == pytest.approx(predicted_quantum_max(scenario), rel=1e-6)

    def test_tolerance_below_rounding_fails_the_check(self):
        scenario = Scenario(4, Spin(3))
        residual = largest_eigenpair(scenario).residual
        assert 0 < residual <= 1e-14 * predicted_quantum_max(scenario)
        with pytest.raises(NotConverged):
            largest_eigenpair(scenario, tol=residual / predicted_quantum_max(scenario) / 2)

    def test_rejects_nonpositive_tol(self):
        with pytest.raises(ValueError):
            largest_eigenpair(Scenario(2, Spin(1)), tol=0.0)


class TestLanczos:
    """The restarted Lanczos oracle against the closed-form eigenpair."""

    def test_repeat_call_is_bit_identical(self):
        scenario = Scenario(3, Spin(3))
        for solve in (largest_eigenpair, lanczos_top):
            first = solve(scenario)
            second = solve(scenario)
            assert np.array_equal(first.vector, second.vector)
            assert first.value == second.value
            assert first.iterations == second.iterations

    @pytest.mark.parametrize("n,twice", [(3, 3), (3, 5), (4, 11)])
    def test_few_matvecs_and_closed_form(self, n, twice):
        scenario = Scenario(n, Spin(twice))
        result = largest_eigenpair(scenario)
        assert result.iterations == 1
        assert result.value == pytest.approx(predicted_quantum_max(scenario), rel=1e-12)
        oracle = lanczos_top(scenario)
        assert oracle.iterations <= 60
        assert oracle.value == pytest.approx(result.value, rel=1e-12)
        assert abs(oracle.vector @ result.vector) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("n,twice", [(3, 3), (3, 5)])
    def test_stable_under_matvec_rounding_noise(self, n, twice):
        # Relative noise of 1e-16 on every matvec stands in for a matvec that
        # differs only in its last bits; the eigenvalue must not move.
        scenario = Scenario(n, Spin(twice))
        clean = largest_eigenpair(scenario)
        for solve, most in ((largest_eigenpair, 1), (lanczos_top, 60)):
            op = global_operator(scenario)
            exact, rng = op.apply, np.random.default_rng(7)
            op.apply = lambda v: exact(v) * (1 + 1e-16 * rng.standard_normal(v.size))
            noisy = solve(scenario, operator=op)
            assert noisy.value == pytest.approx(clean.value, rel=1e-12)
            assert noisy.iterations <= most

    def test_budget_raises_not_converged(self):
        # (3, 5/2) needs 21 Lanczos matvecs at tol 1e-9, so each budget runs out.
        scenario = Scenario(3, Spin(5))
        for max_iter in (1, 2, 7):
            op = global_operator(scenario)
            exact, calls = op.apply, []
            op.apply = lambda v: calls.append(1) or exact(v)
            with pytest.raises(NotConverged) as info:
                lanczos_top(scenario, max_iter=max_iter, operator=op)
            err = info.value
            assert err.iterations == len(calls) == max_iter
            assert np.isfinite(err.best_residual) and err.best_residual > 0
            assert np.isfinite(err.best_value)


class TestExpectation:
    def test_top_state_reproduces_eigenvalue(self):
        scenario = Scenario(3, Spin(1))
        result = largest_eigenpair(scenario)
        report = expectation(result.vector, scenario)
        assert report.value == pytest.approx(result.value, rel=1e-8)

    def test_two_party_half_per_term(self):
        scenario = Scenario(2, Spin(1))
        state = largest_eigenpair(scenario).vector
        report = expectation(state, scenario)
        terms = dict(report.per_term)
        unit = 1.0 / (4 * SQRT2)
        assert terms["AA"] == pytest.approx(unit, abs=1e-9)
        assert terms["AB"] == pytest.approx(unit, abs=1e-9)
        assert terms["BA"] == pytest.approx(unit, abs=1e-9)
        assert terms["BB"] == pytest.approx(-unit, abs=1e-9)
        assert report.value == pytest.approx(SQRT2 / 2, rel=1e-9)

    def test_rejects_unnormalized(self):
        scenario = Scenario(2, Spin(1))
        with pytest.raises(NotNormalized):
            expectation(np.ones(4), scenario)


class TestRatio:
    @pytest.mark.parametrize("n,twice", [(2, 1), (3, 1), (3, 2), (4, 1)])
    def test_matches_prediction(self, n, twice):
        assert violation_ratio(Scenario(n, Spin(twice))) == pytest.approx(
            predicted_ratio(n), rel=1e-8
        )

    @pytest.mark.parametrize("twice", [1, 2, 3])
    def test_independent_of_spin(self, twice):
        assert violation_ratio(Scenario(3, Spin(twice))) == pytest.approx(
            2.0, rel=1e-8
        )


class TestDegeneracy:
    @pytest.mark.parametrize("n,twice", [(2, 1), (3, 1), (3, 2), (4, 1)])
    def test_top_is_isolated(self, n, twice):
        scenario = Scenario(n, Spin(twice))
        eigenvalues = dense_spectrum(scenario).eigenvalues
        assert spectral_gap(scenario) > 0
        assert spectral_gap(scenario) == pytest.approx(
            eigenvalues[-1] - eigenvalues[-2], rel=1e-12)

    @pytest.mark.parametrize("twice", [1, 2, 3, 4])
    def test_one_party_gap_is_the_level_spacing(self, twice):
        eigenvalues = dense_spectrum(Scenario(1, Spin(twice))).eigenvalues
        assert spectral_gap(Scenario(1, Spin(twice))) == eigenvalues[-1] - eigenvalues[-2] == 1.0

    def test_gap_needs_no_cap(self):
        # D = 12**30 is far past any cap; the gap is a formula in n and s.
        scenario = Scenario(30, Spin(11), dim_cap=16)
        assert spectral_gap(scenario) == pytest.approx(
            predicted_quantum_max(scenario) * 2 / 11, rel=1e-15)


class TestTopState:
    @pytest.mark.parametrize("n,twice", [(1, 1), (1, 4), (2, 1), (3, 2), (4, 3), (5, 1)])
    def test_supported_on_extreme_levels(self, n, twice):
        scenario = Scenario(n, Spin(twice))
        state = top_state(scenario).reshape((twice + 1,) * n)
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-15)
        extreme = state[(slice(None, None, twice),) * n]
        assert np.linalg.norm(extreme) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_amplitudes_follow_the_cosine_formula(self, n):
        # Spin 1/2: index bits are the parties, bit 1 the level -1/2.
        state = top_state(Scenario(n, Spin(1)))
        for index, amp in enumerate(state):
            b = bin(index).count("1")
            want = 2 ** ((1 - n) / 2) * np.cos(np.pi * (4 * b - n + 1) / 8)
            assert amp == pytest.approx(want, abs=1e-15)

    def test_cap_checked_before_allocation(self):
        with pytest.raises(CapExceeded):
            top_state(Scenario(9, Spin(2), dim_cap=3 ** 8))
