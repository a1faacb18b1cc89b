"""Local observables, the matrix-free operator on the extreme block, and
the dense operator.

Matrix entries are half-integers, held as twice-entry integers until the
float conversion boundary.  All dyadic values at desk scale are exactly
representable in float64, so the product-form dense path here and the
summed product terms of the expansion (a test oracle, ``tests/oracles.py``)
can be compared entrywise for exact equality.

Tensor index convention: party 1 is the most significant digit of the
mixed-radix global index.  This is fixed here and used everywhere.

On the extreme levels +-s, where the top eigenvector lies, the spin-s
operator is (2s)**n times the spin-1/2 one (``quantum.py`` docstring), so
``GlobalOperator`` is the spin-1/2 operator, on 2**n entries at any spin.
Its matvec applies the product form
M_n = Re[(1 - i)^(n-1) (A + iB) x ... x (A + iB)] of ``expansion.py`` to
one party of a complex state at a time, in O(n 2**n) rather than over the
T = 4**(n // 2) product terms.  No command runs it:
``quantum.largest_eigenpair`` applies the same product form to the four
residue classes of b mod 4 of the top state, and the tests check it against
this matvec.  The dense path multiplies out the spin-s Kronecker product in
Gaussian integers.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .errors import DimensionMismatch
from .expansion import prefactor
from .spincore import Scenario, Spin

#: A's diagonal at spin 1/2, as a (2, 1) column; B = sigma_x / 2 swaps the levels.
_HALF_A = np.array([[0.5], [-0.5]])


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


class GlobalOperator(namedtuple("GlobalOperator", "scenario")):
    """The spin-1/2 Bell operator on the 2**n extreme levels, matrix-free.

    Index bit j (party 1 most significant) is party j's level: 0 for +s,
    1 for -s.  ``apply`` multiplies by the product form party by party
    without materializing the matrix.
    """

    __slots__ = ()

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Matrix-free matvec M @ v = Re[(1 - i)^(n-1) (A + iB) x ... x (A + iB) v]."""
        n = self.scenario.n
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (1 << n,):
            raise DimensionMismatch(f"expected vector of length {1 << n}, got shape {v.shape}")
        z = v.astype(np.complex128)
        for j in range(n):  # in place: two complex 2**n-arrays per step
            z = z.reshape(1 << j, 2, -1)
            flipped = 0.5j * z[:, ::-1]
            z *= _HALF_A
            z += flipped
            del flipped  # freed before the next step allocates its own
        re, im = prefactor(n)
        return (re * z.real - im * z.imag).reshape(-1)


def global_operator(scenario: Scenario) -> GlobalOperator:
    """The matrix-free operator, once a state vector (2**n entries) is within the cap."""
    scenario.check_entries(f"a state vector of {scenario}")
    return GlobalOperator(scenario)


def dense_scaled_product(scenario: Scenario) -> np.ndarray:
    """Integer matrix 2**n * M_n = Re[(1 - i)^(n-1) (2A + 2iB) x ... x (2A + 2iB)],
    the Kronecker product held as (real, imaginary) int64 parts."""
    # D**2 is at least 2**(2n (bits(D) - 1)), with at most twice those bits.
    scenario.check_entries(f"a dense matrix of {scenario}",
                           lambda: scenario.global_dimension() ** 2,
                           2 * scenario.n * (scenario.spin.dimension.bit_length() - 1))
    a, b = make_A(scenario.spin), make_B(scenario.spin)
    re, im = np.ones((1, 1), dtype=np.int64), np.zeros((1, 1), dtype=np.int64)
    for _ in range(scenario.n):
        re, im = np.kron(re, a) - np.kron(im, b), np.kron(re, b) + np.kron(im, a)
    c_re, c_im = prefactor(scenario.n)
    return c_re * re - c_im * im


def assemble_dense(scenario: Scenario) -> np.ndarray:
    """Dense float64 M_n, exact (entries are dyadics on the 2**-n grid)."""
    return dense_scaled_product(scenario).astype(np.float64) / float(1 << scenario.n)
