import numpy as np
import pytest

from mkbell import measurement, operators
from mkbell.errors import CapExceeded, DimensionMismatch
from mkbell.operators import (
    assemble_dense,
    dense_scaled_product,
    global_operator,
    make_A,
    make_B,
)
from mkbell.spincore import Scenario, Spin
from oracles import (
    apply_term,
    b_rotation,
    commutation_report,
    dense_scaled_terms,
    full_space_operator,
)


def outcomes(spin):
    """The descending outcome list s, s-1, ..., -s, as floats."""
    return [t / 2 for t in spin.twice_outcomes()]


class TestLocalOperators:
    @pytest.mark.parametrize(
        "twice,diag",
        [(1, [0.5, -0.5]), (2, [1.0, 0.0, -1.0]), (3, [1.5, 0.5, -0.5, -1.5])],
    )
    def test_make_A_diagonal(self, twice, diag):
        mat = make_A(Spin(twice)) / 2
        assert np.array_equal(mat, np.diag(diag))

    def test_make_B_half(self):
        mat = make_B(Spin(1)) / 2
        assert np.array_equal(mat, [[0.0, 0.5], [0.5, 0.0]])

    def test_make_B_one(self):
        mat = make_B(Spin(2)) / 2
        assert np.array_equal(mat, [[0, 0, 1], [0, 0, 0], [1, 0, 0]])

    def test_make_B_three_halves(self):
        mat = make_B(Spin(3)) / 2
        expected = np.zeros((4, 4))
        for i, val in enumerate([1.5, 0.5, 0.5, 1.5]):
            expected[i, 3 - i] = val
        assert np.array_equal(mat, expected)

    @pytest.mark.parametrize("twice", range(1, 8))
    def test_spectra_are_the_outcome_set(self, twice):
        spin = Spin(twice)
        for mat in (make_A(spin) / 2, make_B(spin) / 2):
            assert np.allclose(np.linalg.eigvalsh(mat), sorted(outcomes(spin)), atol=1e-12)
            assert np.array_equal(mat, mat.T)


class TestBEigenbasis:
    @pytest.mark.parametrize("twice", range(1, 8))
    def test_eigenpairs(self, twice):
        spin = Spin(twice)
        B = make_B(spin) / 2
        rot = b_rotation(spin)
        assert rot.shape == (spin.dimension, spin.dimension)
        # Row i is the eigenvector for outcome s - i, in descending order.
        for value, vec in zip(outcomes(spin), rot):
            assert np.allclose(B @ vec, value * vec, atol=1e-12)

    @pytest.mark.parametrize("twice", range(1, 8))
    def test_orthonormal(self, twice):
        rot = b_rotation(Spin(twice))
        assert np.allclose(rot @ rot.T, np.eye(twice + 1), atol=1e-12)

    def test_integer_spin_center(self):
        assert np.array_equal(b_rotation(Spin(2))[1], [0.0, 1.0, 0.0])

    def test_closed_form_rows(self):
        r = 1.0 / np.sqrt(2.0)
        assert np.array_equal(b_rotation(Spin(2)), [[r, 0, r], [0, 1, 0], [r, 0, -r]])
        assert np.array_equal(b_rotation(Spin(3)), [[r, 0, 0, r], [0, r, r, 0],
                                                    [0, r, -r, 0], [r, 0, 0, -r]])


SMALL_SCENARIOS = [
    (1, 1), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1), (4, 2), (5, 1), (6, 1),
]


def _dense_pair_recursion(scenario):
    """Oracle: 2**n * M_n by the real pair recursion over Kronecker products,
    M_k = M_{k-1} x (A+B) + K_{k-1} x (A-B), K_k = K_{k-1} x (A+B) + M_{k-1} x (B-A)."""
    a, b = make_A(scenario.spin), make_B(scenario.spin)
    m, k = a, b
    for _ in range(scenario.n - 1):
        m, k = np.kron(m, a + b) + np.kron(k, a - b), np.kron(k, a + b) + np.kron(m, b - a)
    return m


class TestDenseAssembly:
    def test_single_party_is_A(self):
        dense = assemble_dense(Scenario(1, Spin(1)))
        assert np.array_equal(dense, np.diag([0.5, -0.5]))

    def test_two_party_half_top_eigenvalue(self):
        dense = assemble_dense(Scenario(2, Spin(1)))
        assert np.array_equal(dense, dense.T)
        top = np.linalg.eigvalsh(dense)[-1]
        assert top == pytest.approx(np.sqrt(2) / 2, rel=1e-12)

    def test_three_party_spin_one_traceless(self):
        dense = assemble_dense(Scenario(3, Spin(2)))
        assert dense.shape == (27, 27)
        assert np.trace(dense) == 0.0

    @pytest.mark.parametrize("n,twice", SMALL_SCENARIOS)
    def test_paths_agree_exactly(self, n, twice):
        scenario = Scenario(n, Spin(twice))
        product = dense_scaled_product(scenario)
        assert product.dtype == np.int64
        assert np.array_equal(product, dense_scaled_terms(scenario))
        assert np.array_equal(product, _dense_pair_recursion(scenario))

    @pytest.mark.parametrize("n,twice", SMALL_SCENARIOS)
    def test_dense_symmetric(self, n, twice):
        dense = assemble_dense(Scenario(n, Spin(twice)))
        assert np.array_equal(dense, dense.T)

    def test_dense_cap(self):
        with pytest.raises(CapExceeded):
            assemble_dense(Scenario(8, Spin(3)))


class TestApply:
    @pytest.mark.parametrize("n,twice", SMALL_SCENARIOS)
    def test_apply_matches_dense_columns(self, n, twice):
        scenario = Scenario(n, Spin(twice))
        op = full_space_operator(scenario)
        dense = assemble_dense(scenario)
        D = scenario.global_dimension()
        rebuilt = np.column_stack(
            [op.apply(np.eye(D)[:, i]) for i in range(D)]
        )
        assert np.allclose(rebuilt, dense, atol=1e-12)

    def test_apply_random_vectors(self):
        scenario = Scenario(4, Spin(2))
        op = full_space_operator(scenario)
        dense = assemble_dense(scenario)
        rng = np.random.default_rng(7)
        for _ in range(20):
            v = rng.standard_normal(scenario.global_dimension())
            expected = dense @ v
            got = op.apply(v)
            assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_top_eigenvector_reproduced(self):
        scenario = Scenario(2, Spin(1))
        op = global_operator(scenario)
        dense = assemble_dense(scenario)
        w, vecs = np.linalg.eigh(dense)
        top_vec = vecs[:, -1]
        assert np.allclose(op.apply(top_vec), w[-1] * top_vec, atol=1e-12)

    def test_terms_expand_on_first_use(self, monkeypatch):
        # Building the operator and a matvec never expand the terms; a
        # sampled estimate expands them once.
        assert not hasattr(operators, "expand_terms")
        calls = []
        real = measurement.expand_terms
        monkeypatch.setattr(measurement, "expand_terms",
                            lambda n: calls.append(n) or real(n))
        scenario = Scenario(3, Spin(2))
        op = global_operator(scenario)
        op.apply(np.ones(8))
        assert calls == []
        estimate = measurement.estimate_bell_value(scenario, 10, seed=0)
        assert len(estimate.per_term) == 4
        assert calls == [3]

    def test_dimension_mismatch(self):
        scenario = Scenario(2, Spin(1))
        with pytest.raises(DimensionMismatch):
            global_operator(scenario).apply(np.ones(5))
        op = full_space_operator(scenario)
        with pytest.raises(DimensionMismatch):
            apply_term(op, "AB", np.ones(5))
        with pytest.raises(DimensionMismatch):
            apply_term(op, "ABA", np.ones(4))


class TestCommutation:
    def test_three_party_all_commute(self):
        report = commutation_report(Scenario(3, Spin(1)))
        assert report.all_commute
        assert report.commuting.shape == (4, 4)

    def test_five_party_spin_one_all_commute(self):
        assert commutation_report(Scenario(5, Spin(2))).all_commute

    @pytest.mark.parametrize("n", [2, 4])
    def test_even_party_has_noncommuting_pair(self, n):
        report = commutation_report(Scenario(n, Spin(1)))
        assert not report.all_commute
