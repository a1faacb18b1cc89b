import tracemalloc

import numpy as np
import pytest

from mkbell.expansion import expand_terms, prefactor
from mkbell.operators import assemble_dense, global_operator
from mkbell.spincore import Scenario, Spin
from oracles import apply_term, dense_scaled_terms, term_matrix

SCENARIOS = [(2, 1), (2, 3), (3, 2), (4, 1), (5, 1), (3, 4), (1, 1), (1, 4), (9, 1)]


def _relative_error(got, want):
    return np.abs(got - want).max() / max(1.0, np.abs(want).max())


@pytest.mark.parametrize("n,twice", SCENARIOS)
def test_apply_matches_dense_oracles(n, twice):
    scenario = Scenario(n, Spin(twice))
    op = global_operator(scenario)
    by_terms = dense_scaled_terms(scenario).astype(np.float64) / float(1 << n)
    by_product = assemble_dense(scenario)
    rng = np.random.default_rng(11)
    for _ in range(5):
        v = rng.standard_normal(scenario.global_dimension())
        got = op.apply(v)
        assert got.dtype == np.float64
        assert _relative_error(got, by_terms @ v) <= 1e-12
        assert _relative_error(got, by_product @ v) <= 1e-12


def test_apply_matches_term_sum_oracle():
    scenario = Scenario(10, Spin(1))
    op = global_operator(scenario)
    rng = np.random.default_rng(13)
    v = rng.standard_normal(scenario.global_dimension())
    term_sum = np.zeros_like(v)
    for coeff, labels in expand_terms(scenario.n).terms:
        term_sum += coeff * apply_term(op, labels, v)
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
    assert np.allclose(apply_term(op, labels, v), dense @ v, atol=1e-12)


def test_term_order_is_deterministic():
    scenario = Scenario(4, Spin(3))
    op = global_operator(scenario)
    rng = np.random.default_rng(5)
    v = rng.standard_normal(scenario.global_dimension())
    first = op.apply(v)
    second = op.apply(v)
    assert np.array_equal(first, second)


@pytest.mark.parametrize("n,twice", SCENARIOS)
def test_in_place_sweep_is_bit_identical(n, twice):
    # ``apply`` updates one complex work array in place; the out-of-place
    # sweep a * z + ib * z[::-1] does the same arithmetic, so results agree
    # bit for bit, and the input is left as it was.
    scenario = Scenario(n, Spin(twice))
    op = global_operator(scenario)
    v = np.random.default_rng(17).standard_normal(scenario.global_dimension())
    saved = v.copy()
    z = v.astype(np.complex128)
    d = scenario.local_dimension
    for j in range(n):
        z = z.reshape(d ** j, d, -1)
        z = op._diag_vals * z + 1j * op._anti_vals * z[:, ::-1]
    re, im = prefactor(n)
    assert np.array_equal(op.apply(v), (re * z.real - im * z.imag).reshape(-1))
    assert np.array_equal(v, saved)


def test_apply_holds_two_complex_work_arrays():
    # 16 bytes per entry for the work array and 16 for one party's flipped
    # product: 32 D bytes at the peak, plus NumPy's iterator buffers (the
    # out-of-place sweep a * z + ib * z[:, ::-1] took 52 D).
    scenario = Scenario(16, Spin(1))
    op = global_operator(scenario)
    v = np.random.default_rng(19).standard_normal(scenario.global_dimension())
    tracemalloc.start()
    try:
        op.apply(v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40 * v.size
