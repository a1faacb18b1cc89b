"""Eigen-analysis of the global Bell operator.

The operator is real symmetric, so the whole pipeline works over real
vectors.  A dense symmetric eigensolver gives full spectra for small
dimensions and serves as the oracle there.

The exact spectrum for any spin comes from a block decomposition.  Label
the local levels by outcome s, s-1, ..., -s and pair level s-p with level
-(s-p), p = 0, ..., ceil(s)-1.  A is diagonal and B maps level s-p to level
-(s-p) and back with entry s-p, so both map the span of each level pair
into itself, acting there as (s-p) sigma_z and (s-p) sigma_x; for integer
s both vanish on the middle level 0.  The product space therefore splits
into invariant blocks, one for each choice of a level pair or the middle
level at every party.  Every product term of M_n has exactly one factor per
party, so M_n is homogeneous of degree 1 in each party's pair (A_j, B_j).
On the block of level pairs (p_1, ..., p_n) it is thus

    prod_j (s - p_j) M_n(sigma_z, sigma_x) = prod_j 2(s - p_j) M_n^(1/2),

where M_n^(1/2) is the 2**n x 2**n spin-1/2 operator, and on a block that
holds a middle level it is zero.  So the spectrum is the spin-1/2 spectrum
q_1 >= q_2 >= ... scaled by each prod_j 2(s - p_j), plus zeros.  The top
eigenvalue (2s)**n q_1 lies in the block of the extreme levels +-s, where
Cabello's multilevel GHZ states live (Phys. Rev. A 63, 022104 (2001)).  The
next one is the largest of (2s)**n q_2 from the same block,
(2s)**(n-1) (2s-2) q_1 from the next largest scale (s >= 3/2) and 0 (integer
s).  This costs one dense solve of dimension 2**n for any s, and
``dense_spectrum`` stays as the oracle of the full space.

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

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .classical import classical_max
from .errors import CapExceeded, DimensionMismatch, NotConverged, NotNormalized
from .operators import GlobalOperator, assemble_dense, global_operator
from .spincore import Scenario, Spin

#: Default cap (rows) for full dense spectra and for the spin-1/2 block.
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
    """Quantum maximum divided by the certified classical maximum."""
    quantum = largest_eigenpair(scenario, tol=tol).value
    classical = float(classical_max(scenario).max_value)
    return quantum / classical


@dataclass(frozen=True)
class BlockSpectrum:
    """Spectrum of M_n as scaled copies of the spin-1/2 operator's spectrum.

    ``qubit`` holds the 2**n eigenvalues of the spin-1/2 operator, ascending.
    The block of level pairs (p_1, ..., p_n) carries them times the scale
    prod_j 2(s - p_j); ``zeros`` eigenvalues come from the blocks that hold a
    middle level.
    """

    scenario: Scenario
    qubit: np.ndarray

    def scales(self, above: float = 0.0) -> dict[int, int]:
        """Block scales greater than ``above``, with their multiplicities."""
        n, ts = self.scenario.n, self.scenario.spin.twice_spin
        counts = {1: 1}
        for left in range(n - 1, -1, -1):
            grown: dict[int, int] = defaultdict(int)
            for scale, mult in counts.items():
                for factor in range(ts, 0, -2):  # 2(s - p), descending
                    if scale * factor * ts ** left <= above:
                        break
                    grown[scale * factor] += mult
            counts = grown
        return counts

    @property
    def zeros(self) -> int:
        pairs = (self.scenario.spin.twice_spin + 1) // 2
        return self.scenario.global_dimension() - (2 * pairs) ** self.scenario.n

    def eigenvalues(self) -> np.ndarray:
        """The whole multiset, ascending; allocates the global dimension."""
        parts = [np.repeat(scale * self.qubit, mult) for scale, mult in self.scales().items()]
        return np.sort(np.concatenate(parts + [np.zeros(self.zeros)]))


def block_spectrum(scenario: Scenario, cap: int = SPECTRUM_CAP) -> BlockSpectrum:
    """Exact block spectrum from one dense solve of the spin-1/2 operator."""
    rows = 1 << scenario.n
    if rows > cap:
        raise CapExceeded(f"block spectrum needs {rows} rows, cap is {cap}")
    qubit = np.linalg.eigvalsh(assemble_dense(Scenario(scenario.n, Spin(1)), cap=cap))
    return BlockSpectrum(scenario=scenario, qubit=qubit)


@dataclass(frozen=True)
class GapReport:
    top_value: float
    gap: float
    degeneracy_of_top: int

    @property
    def nondegenerate(self) -> bool:
        return self.degeneracy_of_top == 1


def degeneracy_check(scenario: Scenario, cap: int = SPECTRUM_CAP) -> GapReport:
    """Gap between the two largest eigenvalues, read off the block spectrum.

    ``cap`` bounds the spin-1/2 block, 2**n rows, for any spin.  The gap is
    lambda[-1] - lambda[-2] of the full multiset, and the degeneracy counts
    the eigenvalues within 1e-9 * max(1, |top|) of the top, as in
    ``dense_spectrum``; no array of the global dimension is formed.
    """
    blocks = block_spectrum(scenario, cap=cap)
    q = blocks.qubit
    n, ts = scenario.n, scenario.spin.twice_spin
    top = ts ** n * q[-1]
    second = [ts ** n * q[-2]]
    if ts >= 3:
        second.append(ts ** (n - 1) * (ts - 2) * q[-1])
    if ts % 2 == 0:
        second.append(0.0)
    # top >= 1/2, so the zero blocks never reach the top.
    tol = 1e-9 * max(1.0, abs(top))
    degeneracy = sum(mult * int(np.count_nonzero(scale * q > top - tol))
                     for scale, mult in blocks.scales(above=(top - tol) / q[-1]).items())
    return GapReport(top_value=float(top), gap=float(top - max(second)),
                     degeneracy_of_top=degeneracy)
