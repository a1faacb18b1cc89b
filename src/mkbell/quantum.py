"""Eigen-analysis of the global Bell operator, in closed form.

The operator is real symmetric, so the whole pipeline works over real
vectors.  A dense symmetric eigensolver gives full spectra for small
dimensions and serves as the oracle there.

**Blocks.**  Label the local levels by outcome s, s-1, ..., -s and pair
level s-p with level -(s-p), p = 0, ..., ceil(s)-1.  A is diagonal and B
maps level s-p to level -(s-p) and back with entry s-p, so both map the span
of each level pair into itself, acting there as (s-p) sigma_z and
(s-p) sigma_x; for integer s both vanish on the middle level 0.  The product
space therefore splits into invariant blocks, one for each choice of a level
pair or the middle level at every party.  The product form of
``expansion.py``, M_n = Re[(1 - i)^(n-1) (A_1 + i B_1) x ... x (A_n + i B_n)],
is linear in each party's pair (A_j, B_j).  On the block of level pairs
(p_1, ..., p_n) it is thus prod_j 2(s - p_j) M_n^(1/2), where M_n^(1/2) is
the 2**n x 2**n spin-1/2 operator, and on a block that holds a middle level
it is zero.

**Rank two.**  On a level pair, A + iB = (s-p) v v^T with v = (1, i), and
v^T v = 1 + i^2 = 0.  So on the block of the extreme levels +-s,
Z_n = c u u^T with u = (x)_j v / sqrt(2), a unit vector with u^T u = 0, and
c = (1 - i)^(n-1) (2s)^n.  Write c = |c| e^(i theta).  For
x = sqrt(2) Re(e^(i theta/2) u) and y = sqrt(2) Im(e^(i theta/2) u), which
are orthonormal because u^T u = 0,

    M_n = Re(c u u^T) = |c|/2 (x x^T - y y^T),

so M_n has rank two there, with eigenvalues +-|c|/2 and zeros.  At spin 1/2
the extreme block is the whole space: the spin-1/2 spectrum is
{+-q, 0 x (2**n - 2)} with q = 2**(3(n-1)/2) / 2**n.  The spin-s spectrum is
q and -q scaled by every prod_j 2(s - p_j), plus zeros.

**Top eigenpair.**  The top eigenvalue (2s)**n q = 2**(3(n-1)/2) s**n is
simple and lies in the extreme block; its eigenvector x is Cabello's
multilevel GHZ state (Phys. Rev. A 63, 022104 (2001)), the maximal violator.
With theta = -pi (n-1)/4, the string of extreme levels with b parties at -s
has amplitude

    x_b = 2**((1-n)/2) cos(pi (4b - n + 1) / 8),

and every other amplitude is zero.  ``top_state`` builds x in O(D), and
``largest_eigenpair`` certifies it with one matvec: lam = x.Mx, and the true
residual ||Mx - lam x|| must be at most tol * max(1, |lam|), or
NotConverged is raised.  A wrong state or a wrong operator fails this check.

**Gap.**  For n >= 2 the next eigenvalue is the largest of
(2s)**(n-1) (2s - 2) q (the next largest block scale, s >= 3/2) and 0 (a
zero of the spin-1/2 spectrum), so lambda[-1] - lambda[-2] = top min(1, 1/s).
For n = 1, M_1 = A, whose levels are 1 apart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classical import classical_max
from .errors import DimensionMismatch, NotConverged, NotNormalized
from .operators import GlobalOperator, assemble_dense, global_operator
from .spincore import Scenario


def predicted_quantum_max(scenario: Scenario) -> float:
    """The greatest eigenvalue formula 2**(3(n-1)/2) * s**n."""
    s = scenario.spin.twice_spin / 2.0
    return 2.0 ** (1.5 * (scenario.n - 1)) * s ** scenario.n


def predicted_ratio(n: int) -> float:
    """Quantum-to-classical ratio 2**((n-1)/2)."""
    return 2.0 ** ((n - 1) / 2.0)


@dataclass(frozen=True)
class SpectrumReport:
    """Full dense spectrum, sorted ascending."""

    eigenvalues: np.ndarray
    top_value: float
    degeneracy_of_top: int


@dataclass(frozen=True)
class EigenResult:
    value: float
    vector: np.ndarray
    iterations: int
    residual: float


def dense_spectrum(scenario: Scenario) -> SpectrumReport:
    """All eigenvalues of the dense operator via a symmetric eigensolver;
    ``assemble_dense`` counts its D**2 entries against the cap."""
    eigenvalues = np.linalg.eigvalsh(assemble_dense(scenario))
    top = float(eigenvalues[-1])
    tol = 1e-9 * max(1.0, abs(top))
    degeneracy = int(np.sum(eigenvalues > top - tol))
    return SpectrumReport(eigenvalues=eigenvalues, top_value=top,
                          degeneracy_of_top=degeneracy)


def top_state(scenario: Scenario) -> np.ndarray:
    """The unit top eigenvector: the multilevel GHZ state of the module docstring."""
    scenario.check_entries(f"a state vector of {scenario}")
    n, d = scenario.n, scenario.local_dimension
    b = np.zeros((), dtype=np.uint8)
    for _ in range(n):  # b mod 4 on the extreme strings, b = parties at -s
        b = np.add.outer(b, np.array([0, 1], dtype=np.uint8)) % 4
    amps = 2.0 ** ((1 - n) / 2) * np.cos(np.pi * (4 * np.arange(4) - n + 1) / 8)
    state = np.zeros((d,) * n)
    state[(slice(None, None, d - 1),) * n] = amps[b]  # levels +s and -s of every party
    return state.reshape(-1)


def largest_eigenpair(scenario: Scenario, tol: float = 1e-9,
                      operator: GlobalOperator | None = None) -> EigenResult:
    """The closed-form top eigenpair, certified by one matvec.

    Returns ``top_state`` with lam = x.Mx once the true residual
    ||Mx - lam x|| is at most tol * max(1, |lam|); raises NotConverged,
    carrying lam and the residual, otherwise.  ``iterations`` is the one
    matvec.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    op = operator if operator is not None else global_operator(scenario)
    x = top_state(scenario)
    w = op.apply(x)
    value = float(x @ w)
    residual = float(np.linalg.norm(w - value * x))
    if residual > tol * max(1.0, abs(value)):
        raise NotConverged(
            f"the closed-form top state of {scenario} has residual {residual:.3e}, "
            f"above {tol} relative",
            best_value=value, best_residual=residual, iterations=1,
        )
    return EigenResult(value=value, vector=x, iterations=1, residual=residual)


def spectral_gap(scenario: Scenario) -> float:
    """lambda[-1] - lambda[-2], in closed form (module docstring)."""
    if scenario.n == 1:
        return 1.0
    return predicted_quantum_max(scenario) * min(1.0, 2.0 / scenario.spin.twice_spin)


@dataclass(frozen=True)
class ExpectationReport:
    """Per-term quantum correlations and the coefficient-weighted total."""

    per_term: tuple[tuple[str, float], ...]
    value: float


def expectation(state: np.ndarray, scenario: Scenario,
                operator: GlobalOperator | None = None) -> ExpectationReport:
    """Quantum correlation of each product term in the given state."""
    op = operator if operator is not None else global_operator(scenario)
    state = np.asarray(state, dtype=np.float64)
    if state.shape != (scenario.global_dimension(),):
        raise DimensionMismatch(
            f"state must have length {scenario.global_dimension()}, got {state.shape}"
        )
    norm = float(np.linalg.norm(state))
    if abs(norm - 1.0) > 1e-9:
        raise NotNormalized(f"state norm {norm} is not 1 within 1e-9")
    per_term = []
    total = 0.0
    for coeff, labels in op.expansion.terms:
        corr = float(state @ op.apply_term(labels, state))
        per_term.append((labels, corr))
        total += coeff * corr
    return ExpectationReport(per_term=tuple(per_term), value=total)


def violation_ratio(scenario: Scenario, tol: float = 1e-9) -> float:
    """Quantum maximum divided by the certified classical maximum."""
    quantum = largest_eigenpair(scenario, tol=tol).value
    classical = float(classical_max(scenario).max_value)
    return quantum / classical
