"""Local observables, their eigenbases, and the assembled global operator.

Matrix entries are half-integers, held as twice-entry integers until the
float conversion boundary.  All dyadic values at desk scale are exactly
representable in float64, so the two dense construction paths (product
form vs. the summed product terms of the expansion) can be compared
entrywise for exact equality.

Tensor index convention: party 1 is the most significant digit of the
mixed-radix global index.  This is fixed here and used everywhere.

Both the matvec and ``dense_scaled_product`` evaluate the product form
M_n = Re[(1 - i)^(n-1) (A + iB) x ... x (A + iB)] derived in
``expansion.py``: the matvec applies A + iB to one party of a complex state
at a time, so it costs O(n D) rather than O(T n D) over the
T = 4**(n // 2) product terms, and the dense path multiplies out the
Kronecker product in Gaussian integers.  ``dense_scaled_terms`` (the summed
product terms) stays as the term-level oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import sqrt

import numpy as np

from .errors import DimensionMismatch
from .expansion import expand_terms, expected_term_count, prefactor
from .spincore import LABEL_A, LABEL_B, Scenario, Spin, validate_labels


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


def b_eigenbasis(spin: Spin) -> list[tuple[Fraction, np.ndarray]]:
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
        pairs.append((Fraction(spin.twice_spin - 2 * i, 2), vec))
    return pairs


def b_rotation(spin: Spin) -> np.ndarray:
    """Orthogonal matrix whose row i is the eigenvector for outcome s - i."""
    return np.vstack([vec for _, vec in b_eigenbasis(spin)])


@dataclass
class GlobalOperator:
    """The assembled n-party Bell operator, matrix-free.

    ``apply`` multiplies the state tensor by the product form party by party
    without materializing the matrix; ``assemble_dense`` builds the matrix.
    """

    scenario: Scenario
    _diag_vals: np.ndarray = field(repr=False)  # (d, 1): A's diagonal
    _anti_vals: np.ndarray = field(repr=False)  # (d, 1): B's entry on row i

    def _vector(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.scenario.global_dimension(),):
            raise DimensionMismatch(
                f"expected vector of length {self.scenario.global_dimension()}, "
                f"got shape {v.shape}"
            )
        return v

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Matrix-free matvec M @ v = Re[(1 - i)^(n-1) (A + iB) x ... x (A + iB) v]."""
        z = self._vector(v).astype(np.complex128)
        d, a, ib = self.scenario.local_dimension, self._diag_vals, 1j * self._anti_vals
        for j in range(self.scenario.n):  # in place: two complex D-arrays per step
            z = z.reshape(d ** j, d, -1)
            flipped = ib * z[:, ::-1]
            z *= a
            z += flipped
            del flipped  # freed before the next step allocates its own
        re, im = prefactor(self.scenario.n)
        return (re * z.real - im * z.imag).reshape(-1)

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


def global_operator(scenario: Scenario) -> GlobalOperator:
    """The matrix-free operator, once a state vector (D entries) is within the cap."""
    scenario.check_entries(f"a state vector of {scenario}")
    spin = scenario.spin
    d = spin.dimension
    diag_vals = np.array(spin.twice_outcomes(), dtype=np.float64) / 2.0
    anti_vals = np.array(
        [spin.twice_spin - 2 * min(i, d - 1 - i) for i in range(d)], dtype=np.float64
    ) / 2.0
    return GlobalOperator(scenario, diag_vals.reshape(d, 1), anti_vals.reshape(d, 1))


def dense_scaled_product(scenario: Scenario) -> np.ndarray:
    """Integer matrix 2**n * M_n = Re[(1 - i)^(n-1) (2A + 2iB) x ... x (2A + 2iB)],
    the Kronecker product held as (real, imaginary) int64 parts."""
    scenario.check_entries(f"a dense matrix of {scenario}",
                           lambda: scenario.global_dimension() ** 2)
    a = make_A(scenario.spin).twice_entries
    b = make_B(scenario.spin).twice_entries
    re, im = np.ones((1, 1), dtype=np.int64), np.zeros((1, 1), dtype=np.int64)
    for _ in range(scenario.n):
        re, im = np.kron(re, a) - np.kron(im, b), np.kron(re, b) + np.kron(im, a)
    c_re, c_im = prefactor(scenario.n)
    return c_re * re - c_im * im


def dense_scaled_terms(scenario: Scenario) -> np.ndarray:
    """Integer matrix 2**n * M_n by summing the expansion's product terms.

    A and B have at most one nonzero per row, so every term is a generalised
    permutation: row r holds the single entry coeff * vals[r] in column
    cols[r], both built party by party.
    """
    scenario.check_entries(f"a dense matrix of {scenario}",
                           lambda: scenario.global_dimension() ** 2)
    expansion = expand_terms(scenario.n)
    d = scenario.local_dimension
    local = {}
    for label, op in ((LABEL_A, make_A(scenario.spin)), (LABEL_B, make_B(scenario.spin))):
        twice = op.twice_entries
        assert (np.count_nonzero(twice, axis=1) <= 1).all()
        col = np.argmax(twice != 0, axis=1)
        local[label] = (col, twice[np.arange(d), col])
    D = scenario.global_dimension()
    rows = np.arange(D)
    total = np.zeros((D, D), dtype=np.int64)
    for coeff, labels in expansion.terms:
        cols = np.zeros(1, dtype=np.int64)
        vals = np.ones(1, dtype=np.int64)
        for ch in labels:
            col, val = local[ch]
            cols = (cols[:, None] * d + col).reshape(-1)
            vals = (vals[:, None] * val).reshape(-1)
        total[rows, cols] += coeff * vals
    return total


def assemble_dense(scenario: Scenario) -> np.ndarray:
    """Dense float64 M_n, exact (entries are dyadics on the 2**-n grid)."""
    return dense_scaled_product(scenario).astype(np.float64) / float(1 << scenario.n)


def term_matrix(scenario: Scenario, labels: str) -> np.ndarray:
    """Dense matrix of one product term O_1 x ... x O_n (unit coefficient)."""
    validate_labels(labels)
    if len(labels) != scenario.n:
        raise DimensionMismatch("term labels do not match the scenario")
    scenario.check_entries(f"a dense matrix of {scenario}",
                           lambda: scenario.global_dimension() ** 2)
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


def commutation_report(scenario: Scenario, tol: float = 1e-12) -> CommutationReport:
    """Check every term pair for commutation (max-norm of the commutator).

    Holds all T term matrices at once, so it counts T D**2 entries."""
    scenario.check_entries(
        f"the term matrices of {scenario}",
        lambda: expected_term_count(scenario.n) * scenario.global_dimension() ** 2)
    expansion = expand_terms(scenario.n)
    mats = [term_matrix(scenario, labels) for _, labels in expansion.terms]
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
