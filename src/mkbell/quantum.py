"""Eigen-analysis of the global Bell operator.

The operator is real symmetric, so the whole pipeline works over real
vectors.  A dense symmetric eigensolver gives full spectra for small
dimensions and serves as the oracle there.

The largest eigenpair comes from restarted Lanczos iteration (Lanczos,
J. Res. Nat. Bur. Standards 45, 255 (1950)) on the matrix-free applier.  A
cycle grows an orthonormal Krylov basis v_0, M v_0, ... of at most
KRYLOV_ROWS rows.  Each new vector is orthogonalised against the whole
basis, twice, since the plain three-term recurrence loses orthogonality as
Ritz values converge (Paige, PhD thesis, London (1971)).  In that basis M
is the tridiagonal matrix of the recurrence coefficients, and its top
eigenpair gives the Ritz vector that starts the next cycle.  A new vector
of negligible length means the basis spans an invariant subspace, and the
cycle ends early with an exact Ritz pair.

The first matvec of each cycle doubles as the stopping test: for the unit
start vector x it gives lam = x.Mx and the true residual ||Mx - lam x||,
and the solver stops once that residual is at most tol * max(1, |lam|).
The eigenvalue error is then at most residual**2 / gap, far below tol when
the gap is of order |lam|.  The first start is a Gaussian vector from a
fixed seed: it almost surely overlaps every eigenvector, so no second start
and no spectral shift are needed, and results are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classical import classical_max
from .errors import CapExceeded, DimensionMismatch, NotConverged, NotNormalized
from .operators import GlobalOperator, assemble_dense, global_operator
from .spincore import Scenario

#: Default cap (rows) for full dense spectra.
SPECTRUM_CAP = 1 << 12

#: Largest Krylov basis, in rows of the global dimension, per Lanczos cycle.
KRYLOV_ROWS = 10

#: Fixed seed of the Gaussian start vector.
_START_SEED = 0x5EED

#: A new Lanczos vector shorter than this fraction of its matvec ends the cycle.
_BREAKDOWN = 1e-12


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

    @property
    def gap(self) -> float:
        """Distance from the top eigenvalue to the next distinct one."""
        return float(self.top_value - self.eigenvalues[-1 - self.degeneracy_of_top])


@dataclass(frozen=True)
class EigenResult:
    value: float
    vector: np.ndarray
    iterations: int
    residual: float


def dense_spectrum(scenario: Scenario, cap: int = SPECTRUM_CAP) -> SpectrumReport:
    """All eigenvalues of the dense operator via a symmetric eigensolver."""
    if scenario.global_dimension() > cap:
        raise CapExceeded(
            f"dense spectrum needs {scenario.global_dimension()} rows, cap is {cap}"
        )
    eigenvalues = np.linalg.eigvalsh(assemble_dense(scenario, cap=cap))
    top = float(eigenvalues[-1])
    tol = 1e-9 * max(1.0, abs(top))
    degeneracy = int(np.sum(eigenvalues > top - tol))
    return SpectrumReport(eigenvalues=eigenvalues, top_value=top,
                          degeneracy_of_top=degeneracy)


def largest_eigenpair(scenario: Scenario, tol: float = 1e-9, max_iter: int = 100_000,
                      operator: GlobalOperator | None = None) -> EigenResult:
    """Largest eigenvalue and unit eigenvector by restarted Lanczos.

    ``max_iter`` is the budget of matvecs and ``iterations`` the number
    used.  Returns once the true residual ||Mx - lam x|| is at most
    tol * max(1, |lam|); raises NotConverged, carrying the best checked
    value and residual, when the budget runs out first.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    op = operator if operator is not None else global_operator(scenario)
    D = scenario.global_dimension()
    rows = min(KRYLOV_ROWS, D)
    basis = np.empty((rows, D))
    x = np.random.default_rng(_START_SEED).standard_normal(D)
    x /= np.linalg.norm(x)
    used = 0
    best_residual, best_value = np.inf, None
    while True:
        basis[0] = x
        alphas, betas = [], []
        for k in range(rows):
            if used >= max_iter:
                raise NotConverged(
                    f"Lanczos did not reach residual {tol} for {scenario} in "
                    f"{used} matvecs; best residual {best_residual:.3e}",
                    best_value=best_value, best_residual=best_residual,
                    iterations=used,
                )
            w = op.apply(basis[k])
            used += 1
            alpha = float(basis[k] @ w)
            if k == 0:
                residual = float(np.linalg.norm(w - alpha * x))
                if residual < best_residual:
                    best_residual, best_value = residual, alpha
                if residual <= tol * max(1.0, abs(alpha)):
                    return EigenResult(value=alpha, vector=x, iterations=used,
                                       residual=residual)
            alphas.append(alpha)
            if k == rows - 1:
                break
            scale = float(np.linalg.norm(w))
            # Full reorthogonalisation, done twice (Paige 1971).
            for _ in range(2):
                w -= basis[:k + 1].T @ (basis[:k + 1] @ w)
            beta = float(np.linalg.norm(w))
            if beta <= _BREAKDOWN * scale:  # the basis spans an invariant subspace
                break
            betas.append(beta)
            basis[k + 1] = w / beta
        _, ritz = np.linalg.eigh(np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1))
        x = ritz[:, -1] @ basis[:len(alphas)]
        x /= np.linalg.norm(x)


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
    """Quantum maximum divided by the enumerated classical maximum."""
    quantum = largest_eigenpair(scenario, tol=tol).value
    classical = float(classical_max(scenario).max_value)
    return quantum / classical


@dataclass(frozen=True)
class GapReport:
    top_value: float
    gap: float
    degeneracy_of_top: int

    @property
    def nondegenerate(self) -> bool:
        return self.degeneracy_of_top == 1


def degeneracy_check(scenario: Scenario, cap: int = SPECTRUM_CAP) -> GapReport:
    """Gap between the two largest eigenvalues, from the dense oracle."""
    report = dense_spectrum(scenario, cap=cap)
    gap = float(report.eigenvalues[-1] - report.eigenvalues[-2])
    return GapReport(top_value=report.top_value, gap=gap,
                     degeneracy_of_top=report.degeneracy_of_top)
