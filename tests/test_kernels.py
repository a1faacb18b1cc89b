import numpy as np
import pytest

from mkbell.operators import assemble_dense, dense_scaled_terms, global_operator, term_matrix
from mkbell.spincore import Scenario, Spin

SCENARIOS = [(2, 1), (2, 3), (3, 2), (4, 1), (5, 1), (3, 4), (1, 1), (1, 4), (9, 1)]


def _relative_error(got, want):
    return np.abs(got - want).max() / max(1.0, np.abs(want).max())


@pytest.mark.parametrize("n,twice", SCENARIOS)
def test_apply_matches_dense_oracles(n, twice):
    scenario = Scenario(n, Spin(twice))
    op = global_operator(scenario)
    by_terms = dense_scaled_terms(scenario).astype(np.float64) / float(1 << n)
    by_recursion = assemble_dense(scenario)
    rng = np.random.default_rng(11)
    for _ in range(5):
        v = rng.standard_normal(scenario.global_dimension())
        got = op.apply(v)
        assert _relative_error(got, by_terms @ v) <= 1e-12
        assert _relative_error(got, by_recursion @ v) <= 1e-12


def test_apply_matches_term_sum_oracle():
    scenario = Scenario(10, Spin(1))
    op = global_operator(scenario)
    rng = np.random.default_rng(13)
    v = rng.standard_normal(scenario.global_dimension())
    term_sum = np.zeros_like(v)
    for coeff, labels in op.expansion.terms:
        term_sum += coeff * op.apply_term(labels, v)
    assert _relative_error(op.apply(v), term_sum) <= 1e-12


@pytest.mark.parametrize("half_integer", [False, True])
@pytest.mark.parametrize("labels", ["AA", "AB", "BA", "BB", "ABA", "BBB"])
def test_single_term_matches_kron_oracle(labels, half_integer):
    n = len(labels)
    scenario = Scenario(n, Spin(3 if half_integer else 2))
    op = global_operator(scenario)
    dense = term_matrix(scenario, labels)
    rng = np.random.default_rng(3)
    v = rng.standard_normal(scenario.global_dimension())
    assert np.allclose(op.apply_term(labels, v), dense @ v, atol=1e-12)


def test_term_order_is_deterministic():
    scenario = Scenario(4, Spin(3))
    op = global_operator(scenario)
    rng = np.random.default_rng(5)
    v = rng.standard_normal(scenario.global_dimension())
    first = op.apply(v)
    second = op.apply(v)
    assert np.array_equal(first, second)
