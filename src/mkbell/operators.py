"""Local observables, B's eigenbasis, and the assembled global operator.

Matrix entries are half-integers, held as twice-entry integers until the
float conversion boundary.  All dyadic values at desk scale are exactly
representable in float64, so the product-form dense path here and the
summed product terms of the expansion (a test oracle, ``tests/oracles.py``)
can be compared entrywise for exact equality.

Tensor index convention: party 1 is the most significant digit of the
mixed-radix global index.  This is fixed here and used everywhere.

Both the matvec and ``dense_scaled_product`` evaluate the product form
M_n = Re[(1 - i)^(n-1) (A + iB) x ... x (A + iB)] derived in
``expansion.py``: the matvec applies A + iB to one party of a complex state
at a time, so it costs O(n D) rather than O(T n D) over the
T = 4**(n // 2) product terms, and the dense path multiplies out the
Kronecker product in Gaussian integers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt

import numpy as np

from .errors import DimensionMismatch
from .expansion import prefactor
from .spincore import Scenario, Spin


def _twice_diagonals(spin: Spin) -> tuple[np.ndarray, np.ndarray]:
    """The one definition of A and B, as twice-value int64 arrays: A's
    diagonal, 2(s - i) on row i, and B's anti-diagonal, 2|s - i| on row i in
    column d-1-i.  Each level pair s-p, -(s-p) thus carries (s-p) sigma_z
    and (s-p) sigma_x."""
    twice_a = np.array(spin.twice_outcomes(), dtype=np.int64)
    return twice_a, np.abs(twice_a)


def make_A(spin: Spin) -> np.ndarray:
    """Twice-entry int64 matrix of diag(s, s-1, ..., -s); row 0 holds +s."""
    return np.diag(_twice_diagonals(spin)[0])


def make_B(spin: Spin) -> np.ndarray:
    """Twice-entry int64 matrix of the anti-diagonal companion: entry
    (i, d-1-i) = |s - i| = s - min(i, d-1-i)."""
    return np.diag(_twice_diagonals(spin)[1])[:, ::-1].copy()


def b_rotation(spin: Spin) -> np.ndarray:
    """Orthogonal matrix whose row i is B's eigenvector for outcome s - i.

    B swaps levels i and d-1-i with entry |s - i|, so row i is
    (e_i + e_{d-1-i})/sqrt(2) for s - i > 0, (e_{d-1-i} - e_i)/sqrt(2) for
    s - i < 0, and e_i on the middle level of integer s.
    """
    twice_a, _ = _twice_diagonals(spin)
    d = spin.dimension
    inv_sqrt2 = 1.0 / sqrt(2.0)
    rot = np.zeros((d, d))
    for i, twice in enumerate(twice_a):
        if twice == 0:
            rot[i, i] = 1.0
        else:
            rot[i, d - 1 - i] = inv_sqrt2
            rot[i, i] = inv_sqrt2 if twice > 0 else -inv_sqrt2
    return rot


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


def global_operator(scenario: Scenario) -> GlobalOperator:
    """The matrix-free operator, once a state vector (D entries) is within the cap."""
    scenario.check_entries(f"a state vector of {scenario}")
    twice_a, twice_b = _twice_diagonals(scenario.spin)
    d = scenario.local_dimension
    return GlobalOperator(scenario, (twice_a / 2.0).reshape(d, 1),
                          (twice_b / 2.0).reshape(d, 1))


def dense_scaled_product(scenario: Scenario) -> np.ndarray:
    """Integer matrix 2**n * M_n = Re[(1 - i)^(n-1) (2A + 2iB) x ... x (2A + 2iB)],
    the Kronecker product held as (real, imaginary) int64 parts."""
    scenario.check_entries(f"a dense matrix of {scenario}",
                           lambda: scenario.global_dimension() ** 2)
    a, b = make_A(scenario.spin), make_B(scenario.spin)
    re, im = np.ones((1, 1), dtype=np.int64), np.zeros((1, 1), dtype=np.int64)
    for _ in range(scenario.n):
        re, im = np.kron(re, a) - np.kron(im, b), np.kron(re, b) + np.kron(im, a)
    c_re, c_im = prefactor(scenario.n)
    return c_re * re - c_im * im


def assemble_dense(scenario: Scenario) -> np.ndarray:
    """Dense float64 M_n, exact (entries are dyadics on the 2**-n grid)."""
    return dense_scaled_product(scenario).astype(np.float64) / float(1 << scenario.n)
