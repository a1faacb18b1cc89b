import numpy as np
import pytest

from mkbell.errors import CapExceeded, DimensionMismatch
from mkbell.operators import (
    assemble_dense,
    b_eigenbasis,
    b_rotation,
    commutation_report,
    dense_scaled_recursive,
    dense_scaled_terms,
    global_operator,
    make_A,
    make_B,
)
from mkbell.spincore import Scenario, Spin


class TestLocalOperators:
    @pytest.mark.parametrize(
        "twice,diag",
        [(1, [0.5, -0.5]), (2, [1.0, 0.0, -1.0]), (3, [1.5, 0.5, -0.5, -1.5])],
    )
    def test_make_A_diagonal(self, twice, diag):
        mat = make_A(Spin(twice)).matrix
        assert np.array_equal(mat, np.diag(diag))

    def test_make_B_half(self):
        mat = make_B(Spin(1)).matrix
        assert np.array_equal(mat, [[0.0, 0.5], [0.5, 0.0]])

    def test_make_B_one(self):
        mat = make_B(Spin(2)).matrix
        assert np.array_equal(mat, [[0, 0, 1], [0, 0, 0], [1, 0, 0]])

    def test_make_B_three_halves(self):
        mat = make_B(Spin(3)).matrix
        expected = np.zeros((4, 4))
        for i, val in enumerate([1.5, 0.5, 0.5, 1.5]):
            expected[i, 3 - i] = val
        assert np.array_equal(mat, expected)

    @pytest.mark.parametrize("twice", range(1, 8))
    def test_spectra_are_the_outcome_set(self, twice):
        spin = Spin(twice)
        outcomes = sorted(float(v) for v in spin.outcome_values())
        for op in (make_A(spin), make_B(spin)):
            assert np.allclose(np.linalg.eigvalsh(op.matrix), outcomes, atol=1e-12)
            assert np.array_equal(op.matrix, op.matrix.T)


class TestBEigenbasis:
    @pytest.mark.parametrize("twice", range(1, 8))
    def test_eigenpairs(self, twice):
        spin = Spin(twice)
        B = make_B(spin).matrix
        pairs = b_eigenbasis(spin)
        assert len(pairs) == spin.dimension
        seen = []
        for value, vec in pairs:
            lam = float(value)
            seen.append(lam)
            assert np.allclose(B @ vec, lam * vec, atol=1e-12)
        assert seen == sorted(seen, reverse=True)
        assert len(set(seen)) == spin.dimension

    @pytest.mark.parametrize("twice", range(1, 8))
    def test_orthonormal(self, twice):
        rot = b_rotation(Spin(twice))
        assert np.allclose(rot @ rot.T, np.eye(twice + 1), atol=1e-12)

    def test_integer_spin_center(self):
        pairs = b_eigenbasis(Spin(2))
        value, vec = pairs[1]
        assert float(value) == 0.0
        assert np.array_equal(vec, [0.0, 1.0, 0.0])


SMALL_SCENARIOS = [
    (1, 1), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1), (4, 2), (5, 1), (6, 1),
]


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
        assert np.array_equal(
            dense_scaled_recursive(scenario), dense_scaled_terms(scenario)
        )

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
        op = global_operator(scenario)
        dense = assemble_dense(scenario)
        D = scenario.global_dimension()
        rebuilt = np.column_stack(
            [op.apply(np.eye(D)[:, i]) for i in range(D)]
        )
        assert np.allclose(rebuilt, dense, atol=1e-12)

    def test_apply_random_vectors(self):
        scenario = Scenario(4, Spin(2))
        op = global_operator(scenario)
        dense = op.dense()
        rng = np.random.default_rng(7)
        for _ in range(20):
            v = rng.standard_normal(scenario.global_dimension())
            expected = dense @ v
            got = op.apply(v)
            assert np.linalg.norm(got - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_top_eigenvector_reproduced(self):
        scenario = Scenario(2, Spin(1))
        op = global_operator(scenario)
        dense = op.dense()
        w, vecs = np.linalg.eigh(dense)
        top_vec = vecs[:, -1]
        assert np.allclose(op.apply(top_vec), w[-1] * top_vec, atol=1e-12)

    def test_dimension_mismatch(self):
        op = global_operator(Scenario(2, Spin(1)))
        with pytest.raises(DimensionMismatch):
            op.apply(np.ones(5))
        with pytest.raises(DimensionMismatch):
            op.apply_term("AB", np.ones(5))
        with pytest.raises(DimensionMismatch):
            op.apply_term("ABA", np.ones(4))


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
