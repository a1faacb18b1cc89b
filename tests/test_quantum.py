import numpy as np
import pytest

from mkbell.errors import CapExceeded, NotConverged, NotNormalized
from mkbell.operators import assemble_dense, global_operator
from mkbell.quantum import (
    degeneracy_check,
    dense_spectrum,
    expectation,
    largest_eigenpair,
    predicted_quantum_max,
    predicted_ratio,
    violation_ratio,
)
from mkbell.spincore import Scenario, Spin

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

    def test_not_converged_carries_best_state(self):
        # (3, 5/2) needs 21 matvecs at tol 1e-9, so each budget runs out.
        scenario = Scenario(3, Spin(5))
        for max_iter in (1, 2, 7):
            op = global_operator(scenario)
            exact, calls = op.apply, []
            op.apply = lambda v: calls.append(1) or exact(v)
            with pytest.raises(NotConverged) as info:
                largest_eigenpair(scenario, max_iter=max_iter, operator=op)
            err = info.value
            assert err.iterations == len(calls) == max_iter
            assert np.isfinite(err.best_residual) and err.best_residual > 0
            assert np.isfinite(err.best_value)

    def test_rejects_nonpositive_tol(self):
        with pytest.raises(ValueError):
            largest_eigenpair(Scenario(2, Spin(1)), tol=0.0)


class TestLanczos:
    def test_repeat_call_is_bit_identical(self):
        scenario = Scenario(3, Spin(3))
        first = largest_eigenpair(scenario)
        second = largest_eigenpair(scenario)
        assert np.array_equal(first.vector, second.vector)
        assert first.value == second.value
        assert first.iterations == second.iterations

    @pytest.mark.parametrize("n,twice", [(3, 3), (3, 5), (4, 11)])
    def test_few_matvecs_and_closed_form(self, n, twice):
        scenario = Scenario(n, Spin(twice))
        result = largest_eigenpair(scenario)
        assert result.iterations <= 60
        assert result.value == pytest.approx(predicted_quantum_max(scenario), rel=1e-12)

    @pytest.mark.parametrize("n,twice", [(3, 3), (3, 5)])
    def test_stable_under_matvec_rounding_noise(self, n, twice):
        # Relative noise of 1e-16 on every matvec stands in for a matvec that
        # differs only in its last bits; the eigenvalue must not move.
        scenario = Scenario(n, Spin(twice))
        clean = largest_eigenpair(scenario)
        op = global_operator(scenario)
        exact, rng = op.apply, np.random.default_rng(7)
        op.apply = lambda v: exact(v) * (1 + 1e-16 * rng.standard_normal(v.size))
        noisy = largest_eigenpair(scenario, operator=op)
        assert noisy.value == pytest.approx(clean.value, rel=1e-12)
        assert noisy.iterations <= 60


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
        report = degeneracy_check(Scenario(n, Spin(twice)))
        assert report.nondegenerate
        assert report.gap > 0

    def test_cap_bounds_the_qubit_block(self):
        # D = 12**4 is past the cap, but the spin-1/2 block has 16 rows.
        assert degeneracy_check(Scenario(4, Spin(11)), cap=16).gap > 0
        with pytest.raises(CapExceeded):
            degeneracy_check(Scenario(4, Spin(1)), cap=15)
