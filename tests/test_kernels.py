import tracemalloc

import numpy as np
import pytest

from mkbell.expansion import expand_terms, prefactor
from mkbell.operators import assemble_dense, global_operator
from mkbell.quantum import block_scale
from mkbell.spincore import Scenario, Spin
from oracles import (
    apply_term,
    dense_scaled_terms,
    extreme_indices,
    full_space_operator,
    term_matrix,
)

SCENARIOS = [(2, 1), (2, 3), (3, 2), (4, 1), (5, 1), (3, 4), (1, 1), (1, 4), (9, 1)]


def _relative_error(got, want):
    return np.abs(got - want).max() / max(1.0, np.abs(want).max())


@pytest.mark.parametrize("n,twice", SCENARIOS)
def test_apply_matches_dense_oracles(n, twice):
    # The full-space oracle against both dense oracles, and (2s)**n times the
    # spin-1/2 matvec against them on the extreme block.
    scenario = Scenario(n, Spin(twice))
    block, scale = extreme_indices(scenario), block_scale(scenario)
    by_terms = dense_scaled_terms(scenario).astype(np.float64) / float(1 << n)
    by_product = assemble_dense(scenario)
    rng = np.random.default_rng(11)
    everything = np.arange(scenario.global_dimension())
    for op, rows, factor in ((full_space_operator(scenario), everything, 1.0),
                             (global_operator(scenario), block, scale)):
        sub = np.ix_(rows, rows)
        for _ in range(5):
            v = rng.standard_normal(rows.size)
            got = op.apply(v)
            assert got.dtype == np.float64
            assert _relative_error(factor * got, by_terms[sub] @ v) <= 1e-12
            assert _relative_error(factor * got, by_product[sub] @ v) <= 1e-12


def test_apply_matches_term_sum_oracle():
    scenario = Scenario(10, Spin(1))
    op = global_operator(scenario)
    rng = np.random.default_rng(13)
    v = rng.standard_normal(1 << scenario.n)
    term_sum = np.zeros_like(v)
    for coeff, labels in expand_terms(scenario.n):
        term_sum += coeff * apply_term(full_space_operator(scenario), labels, v)
    assert _relative_error(op.apply(v), term_sum) <= 1e-12


@pytest.mark.parametrize("half_integer", [False, True])
@pytest.mark.parametrize("labels", ["AA", "AB", "BA", "BB", "ABA", "BBB"])
def test_single_term_matches_kron_oracle(labels, half_integer):
    n = len(labels)
    scenario = Scenario(n, Spin(3 if half_integer else 2))
    op = full_space_operator(scenario)
    dense = term_matrix(scenario, labels)
    rng = np.random.default_rng(3)
    v = rng.standard_normal(scenario.global_dimension())
    assert np.allclose(apply_term(op, labels, v), dense @ v, atol=1e-12)


def test_term_order_is_deterministic():
    scenario = Scenario(4, Spin(3))
    op = global_operator(scenario)
    rng = np.random.default_rng(5)
    v = rng.standard_normal(1 << scenario.n)
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
    v = np.random.default_rng(17).standard_normal(1 << n)
    saved = v.copy()
    z = v.astype(np.complex128)
    for j in range(n):
        z = z.reshape(2 ** j, 2, -1)
        z = np.array([[0.5], [-0.5]]) * z + 0.5j * z[:, ::-1]
    re, im = prefactor(n)
    assert np.array_equal(op.apply(v), (re * z.real - im * z.imag).reshape(-1))
    assert np.array_equal(v, saved)


def test_apply_holds_two_complex_work_arrays():
    # 16 bytes per entry for the work array and 16 for one party's flipped
    # product: 32 D bytes at the peak, plus NumPy's iterator buffers (the
    # out-of-place sweep a * z + ib * z[:, ::-1] took 52 D).
    scenario = Scenario(16, Spin(1))
    op = global_operator(scenario)
    v = np.random.default_rng(19).standard_normal(1 << scenario.n)
    tracemalloc.start()
    try:
        op.apply(v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40 * v.size
