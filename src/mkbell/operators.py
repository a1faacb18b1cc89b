"""Local observables, their eigenbases, and the assembled global operator.

Matrix entries are half-integers, held as twice-entry integers until the
float conversion boundary.  All dyadic values at desk scale are exactly
representable in float64, so the two dense construction paths (pair
recursion vs. summed Kronecker products of the term expansion) can be
compared entrywise for exact equality.

Tensor index convention: party 1 is the most significant digit of the
mixed-radix global index.  This is fixed here and used everywhere.

The matrix-free matvec reads the pair recursion of ``expansion.py`` as a
matrix-product operator of bond dimension 2 (Schollwöck, Ann. Phys. 326,
96 (2011), arXiv:1008.3477).  With S = A + B and Delta = A - B on party k,

    M_k = M_{k-1} x S + K_{k-1} x Delta,    K_k = K_{k-1} x S - M_{k-1} x Delta,

so for any pair of vectors (x_M, x_K)

    M_k x_M + K_k x_K = M_{k-1} (S x_M - Delta x_K) + K_{k-1} (Delta x_M + S x_K),

with S and Delta acting on party k.  Starting from (x_M, x_K) = (v, 0) and
sweeping parties n, ..., 2 leaves M_1 x_M + K_1 x_K = A x_M + B x_K on
party 1.  Written with p = x_M + x_K and q = x_M - x_K, the update is
(A q + B p, A p - B q), so each party costs four diagonal-or-flip products
of the state, and one matvec is O(n D) rather than O(T n D) over the
T = 4**(n // 2) product terms.  ``dense_scaled_terms`` (the summed term
Kronecker products) stays as the term-level oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt

import numpy as np

from .errors import CapExceeded, DimensionMismatch
from .expansion import TermExpansion, expand_terms
from .spincore import LABEL_B, ExactValue, Scenario, Spin, validate_labels

#: Default cap (rows) for materializing dense global operators.
DENSE_CAP = 1 << 13


@dataclass(frozen=True)
class LocalOperator:
    """A d x d observable with exact half-integer entries (stored doubled)."""

    spin: Spin
    twice_entries: np.ndarray  # int64, entries are 2 * value

    @property
    def matrix(self) -> np.ndarray:
        """Float64 matrix; exact, since all entries are half-integers."""
        return self.twice_entries.astype(np.float64) / 2.0


def make_A(spin: Spin) -> LocalOperator:
    """Diagonal observable diag(s, s-1, ..., -s); row 0 holds +s."""
    twice = np.diag(np.array(spin.twice_outcomes(), dtype=np.int64))
    return LocalOperator(spin, twice)


def make_B(spin: Spin) -> LocalOperator:
    """Anti-diagonal companion: entry (i, d-1-i) = s - min(i, d-1-i)."""
    d = spin.dimension
    twice = np.zeros((d, d), dtype=np.int64)
    for i in range(d):
        twice[i, d - 1 - i] = spin.twice_spin - 2 * min(i, d - 1 - i)
    return LocalOperator(spin, twice)


def b_eigenbasis(spin: Spin) -> list[tuple[ExactValue, np.ndarray]]:
    """Analytic eigenpairs of the anti-diagonal observable.

    Returned in descending eigenvalue order (s, s-1, ..., -s), so entry i is
    the eigenvector for outcome s - i.  For i < d-1-i the eigenvector is the
    symmetric combination (e_i + e_{d-1-i})/sqrt(2) with eigenvalue s - i;
    the mirrored index carries the antisymmetric combination with eigenvalue
    -(s - i); for integer s the middle index keeps e_mid with eigenvalue 0.
    """
    d = spin.dimension
    inv_sqrt2 = 1.0 / sqrt(2.0)
    pairs = []
    for i in range(d):
        mirror = d - 1 - i
        vec = np.zeros(d)
        if i < mirror:
            vec[i] = inv_sqrt2
            vec[mirror] = inv_sqrt2
        elif i > mirror:
            vec[mirror] = inv_sqrt2
            vec[i] = -inv_sqrt2
        else:
            vec[i] = 1.0
        pairs.append((ExactValue(spin.twice_spin - 2 * i, 1), vec))
    return pairs


def b_rotation(spin: Spin) -> np.ndarray:
    """Orthogonal matrix whose row i is the eigenvector for outcome s - i."""
    return np.vstack([vec for _, vec in b_eigenbasis(spin)])


@dataclass
class GlobalOperator:
    """The assembled n-party Bell operator, matrix-free with optional dense form.

    ``apply`` sweeps the recursion's bond-dimension-2 operator over the state
    tensor without materializing the matrix; the two dense paths are retained
    as mutual oracles.
    """

    scenario: Scenario
    expansion: TermExpansion
    _diag_vals: np.ndarray = field(repr=False)  # (d, 1): A's diagonal
    _anti_vals: np.ndarray = field(repr=False)  # (d, 1): B's entry on row i
    _dense: np.ndarray | None = field(default=None, repr=False)

    def _vector(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.scenario.global_dimension(),):
            raise DimensionMismatch(
                f"expected vector of length {self.scenario.global_dimension()}, "
                f"got shape {v.shape}"
            )
        return v

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Matrix-free matvec M @ v by a right-to-left sweep over the parties."""
        v = self._vector(v)
        n, d = self.scenario.n, self.scenario.local_dimension
        a, b = self._diag_vals, self._anti_vals
        if n == 1:
            return (a * v.reshape(d, 1)).reshape(-1)
        # Party n: (x_M, x_K) = (v, 0) becomes (S v, Delta v).
        x = v.reshape(d ** (n - 1), d, 1)
        av, bv = a * x, b * x[:, ::-1]
        x_m, x_k = av + bv, av - bv
        # Parties n-1..2: S x_M - Delta x_K = A q + B p and
        # Delta x_M + S x_K = A p - B q, with p = x_M + x_K, q = x_M - x_K.
        for k in range(n - 2, 0, -1):
            shape = (d ** k, d, -1)
            p = (x_m + x_k).reshape(shape)
            q = (x_m - x_k).reshape(shape)
            x_m = a * q + b * p[:, ::-1]
            x_k = a * p - b * q[:, ::-1]
        # Party 1: A x_M + B x_K.
        x_m, x_k = x_m.reshape(d, -1), x_k.reshape(d, -1)
        return (a * x_m + b * x_k[::-1]).reshape(-1)

    def apply_term(self, labels: str, v: np.ndarray) -> np.ndarray:
        """Matvec of a single unit-coefficient product term."""
        validate_labels(labels)
        if len(labels) != self.scenario.n:
            raise DimensionMismatch("term labels or vector do not match the scenario")
        w = self._vector(v)
        d = self.scenario.local_dimension
        for j, ch in enumerate(labels):
            w = w.reshape(d ** j, d, -1)
            w = self._anti_vals * w[:, ::-1] if ch == LABEL_B else self._diag_vals * w
        return w.reshape(-1)

    def dense(self) -> np.ndarray:
        """Dense symmetric matrix (recursion path), cached."""
        if self._dense is None:
            self._dense = assemble_dense(self.scenario)
        return self._dense


def global_operator(scenario: Scenario) -> GlobalOperator:
    spin = scenario.spin
    d = spin.dimension
    diag_vals = np.array(spin.twice_outcomes(), dtype=np.float64) / 2.0
    anti_vals = np.array(
        [spin.twice_spin - 2 * min(i, d - 1 - i) for i in range(d)], dtype=np.float64
    ) / 2.0
    return GlobalOperator(scenario, expand_terms(scenario.n),
                          diag_vals.reshape(d, 1), anti_vals.reshape(d, 1))


def _check_dense_cap(scenario: Scenario, cap: int):
    if scenario.global_dimension() > cap:
        raise CapExceeded(
            f"dense assembly needs {scenario.global_dimension()} rows, cap is {cap}"
        )


def dense_scaled_recursive(scenario: Scenario, cap: int = DENSE_CAP) -> np.ndarray:
    """Integer matrix 2**n * M_n via the operator pair recursion."""
    _check_dense_cap(scenario, cap)
    a = make_A(scenario.spin).twice_entries
    b = make_B(scenario.spin).twice_entries
    m, k = a, b
    for _ in range(scenario.n - 1):
        m, k = (
            np.kron(m, a + b) + np.kron(k, a - b),
            np.kron(k, a + b) + np.kron(m, b - a),
        )
    return m


def dense_scaled_terms(scenario: Scenario, cap: int = DENSE_CAP) -> np.ndarray:
    """Integer matrix 2**n * M_n by summing term Kronecker products."""
    _check_dense_cap(scenario, cap)
    expansion = expand_terms(scenario.n)
    a = make_A(scenario.spin).twice_entries
    b = make_B(scenario.spin).twice_entries
    local = {0: a, 1: b}
    D = scenario.global_dimension()
    total = np.zeros((D, D), dtype=np.int64)
    for coeff, labels in expansion.terms:
        factor = np.array([[1]], dtype=np.int64)
        for ch in labels:
            factor = np.kron(factor, local[1 if ch == LABEL_B else 0])
        total += coeff * factor
    return total


def assemble_dense(scenario: Scenario, path: str = "recursion", cap: int = DENSE_CAP) -> np.ndarray:
    """Dense float64 M_n, exact (entries are dyadics on the 2**-n grid)."""
    if path == "recursion":
        scaled = dense_scaled_recursive(scenario, cap)
    elif path == "terms":
        scaled = dense_scaled_terms(scenario, cap)
    else:
        raise ValueError(f"unknown assembly path {path!r}")
    return scaled.astype(np.float64) / float(1 << scenario.n)


def term_matrix(scenario: Scenario, labels: str, cap: int = DENSE_CAP) -> np.ndarray:
    """Dense matrix of one product term O_1 x ... x O_n (unit coefficient)."""
    validate_labels(labels)
    if len(labels) != scenario.n:
        raise DimensionMismatch("term labels do not match the scenario")
    _check_dense_cap(scenario, cap)
    a = make_A(scenario.spin).twice_entries
    b = make_B(scenario.spin).twice_entries
    factor = np.array([[1]], dtype=np.int64)
    for ch in labels:
        factor = np.kron(factor, b if ch == LABEL_B else a)
    return factor.astype(np.float64) / float(1 << scenario.n)


@dataclass(frozen=True)
class CommutationReport:
    """Pairwise commutation of the expansion's term operators."""

    scenario: Scenario
    labels: tuple[str, ...]
    commuting: np.ndarray  # bool, (T, T)
    all_commute: bool


def commutation_report(scenario: Scenario, tol: float = 1e-12, cap: int = DENSE_CAP) -> CommutationReport:
    """Check every term pair for commutation (max-norm of the commutator)."""
    expansion = expand_terms(scenario.n)
    mats = [term_matrix(scenario, labels, cap) for _, labels in expansion.terms]
    T = len(mats)
    commuting = np.ones((T, T), dtype=bool)
    for i in range(T):
        for j in range(i + 1, T):
            comm = mats[i] @ mats[j] - mats[j] @ mats[i]
            ok = np.max(np.abs(comm)) < tol
            commuting[i, j] = commuting[j, i] = ok
    return CommutationReport(
        scenario=scenario,
        labels=tuple(labels for _, labels in expansion.terms),
        commuting=commuting,
        all_commute=bool(commuting.all()),
    )
