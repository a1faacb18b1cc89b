"""Independent numerical solvers, kept as test oracles for the closed forms.

``lanczos_top`` is restarted Lanczos iteration (Lanczos, J. Res. Nat. Bur.
Standards 45, 255 (1950)) on the matrix-free applier.  A cycle grows an
orthonormal Krylov basis v_0, M v_0, ... of at most KRYLOV_ROWS rows.  Each
new vector is orthogonalised against the whole basis, twice, since the
plain three-term recurrence loses orthogonality as Ritz values converge
(Paige, PhD thesis, London (1971)).  In that basis M is the tridiagonal
matrix of the recurrence coefficients, and its top eigenpair gives the Ritz
vector that starts the next cycle.  A new vector of negligible length means
the basis spans an invariant subspace, and the cycle ends early with an
exact Ritz pair.  The first matvec of each cycle doubles as the stopping
test: for the unit start vector x it gives lam = x.Mx and the true residual
||Mx - lam x||, and the solver stops once that residual is at most
tol * max(1, |lam|).  The first start is a Gaussian vector from a fixed
seed: it almost surely overlaps every eigenvector, so it finds the top
eigenvalue without being told where it lies.

``block_spectrum`` is the spectrum as scaled copies of the spin-1/2
spectrum, one per level-pair block, plus the zero blocks (the block
argument of the ``quantum.py`` docstring), from one dense solve of
dimension 2**n.
"""

from __future__ import annotations

import numpy as np

from mkbell.errors import NotConverged
from mkbell.operators import GlobalOperator, assemble_dense, global_operator
from mkbell.quantum import EigenResult
from mkbell.spincore import Scenario, Spin

#: Largest Krylov basis, in rows of the global dimension, per Lanczos cycle.
KRYLOV_ROWS = 10

#: Fixed seed of the Gaussian start vector.
START_SEED = 0x5EED

#: A new Lanczos vector shorter than this fraction of its matvec ends the cycle.
BREAKDOWN = 1e-12


def lanczos_top(scenario: Scenario, tol: float = 1e-9, max_iter: int = 100_000,
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
    x = np.random.default_rng(START_SEED).standard_normal(D)
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
            if beta <= BREAKDOWN * scale:  # the basis spans an invariant subspace
                break
            betas.append(beta)
            basis[k + 1] = w / beta
        _, ritz = np.linalg.eigh(np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1))
        x = ritz[:, -1] @ basis[:len(alphas)]
        x /= np.linalg.norm(x)


def block_spectrum(scenario: Scenario) -> np.ndarray:
    """The whole spectrum, ascending: the spin-1/2 spectrum times every block
    scale prod_j 2(s - p_j), plus one zero per dimension of the blocks that
    hold a middle level."""
    n, ts = scenario.n, scenario.spin.twice_spin
    qubit = np.linalg.eigvalsh(assemble_dense(Scenario(n, Spin(1))))
    factors = np.arange(ts, 0, -2, dtype=np.float64)  # 2(s - p), one per level pair
    scales = np.ones(1)
    for _ in range(n):
        scales = np.multiply.outer(scales, factors).reshape(-1)
    zeros = scenario.global_dimension() - scales.size * qubit.size
    return np.sort(np.concatenate([np.multiply.outer(scales, qubit).reshape(-1),
                                   np.zeros(zeros)]))
