"""Independent solvers, kept as test oracles for the closed forms and the DP.

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

``matvec_certificate`` is the top-eigenpair certificate on all 2**n
strings of extreme levels that ``mkbell.quantum.largest_eigenpair`` replaces
by its n + 1 symmetric amplitudes: ``top_state`` and one ``GlobalOperator``
matvec, lam = (2s)**n x.Mx and the true residual scaled alike.

``predicted_quantum_max_by_powers`` is the closed-form top eigenvalue as
it was formed before the float range was decided from exponents.

``block_spectrum`` is the spectrum as scaled copies of the spin-1/2
spectrum, one per level-pair block, plus the zero blocks (the block
argument of the ``quantum.py`` docstring), from one dense solve of
dimension 2**n.

``classical_max_enumerated`` is the oracle for the classical certificate
``mkbell.classical.classical_max``: it evaluates every strategy of the
table on NumPy arrays, within the array budget.  ``twice_value_states`` is
the certificate's DP on twice-values (+-2s) instead of halved sign pairs,
every party's step kept, with no early stop.  ``strategy_value`` evaluates
one strategy by the pair recursion, ``value_from_terms`` on the expanded
terms instead, and ``lhv_sample``, the classical control of the simulated
experiment, averages sampled strategies.

The full-space oracle is the spin-s operator on all D = (2s+1)**n levels,
which the commands replace by (2s)**n times the spin-1/2 operator on the
2**n extreme levels: ``full_space_operator`` is the d-level matvec,
``extreme_indices`` locates the extreme levels in the full space, ``embed``
places a 2**n block state, such as ``top_state``, there, ``b_rotation`` is
B's eigenbasis at every level and ``full_space_distribution`` the Born rule
over all D joint outcomes.  ``predicted_correlation`` is each product
term's correlation in the top state, in closed form.

The term-level oracles work one product term at a time: ``pair_recursion``
expands the real pair recursion (M_n, K_n) on label strings,
``dense_scaled_terms`` sums the expansion's dense product terms,
``term_matrix`` and ``apply_term`` give one term as a matrix and as a
matvec, ``commutation_report`` checks the terms pairwise for commutation,
and ``correlation`` is a full-space Born-rule distribution's exact
correlation.  Each dense or full-space oracle counts its entries against
the scenario's array budget.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import sqrt

import numpy as np

from mkbell.classical import ClassicalResult, Strategy, strategy_count
from mkbell.errors import DimensionMismatch, MkBellError, NotConverged
from mkbell.expansion import expand_terms, expected_term_count, pair_step, prefactor
from mkbell.measurement import top_state
from mkbell.operators import (
    GlobalOperator,
    _twice_diagonals,
    assemble_dense,
    global_operator,
    make_A,
    make_B,
)
from mkbell.quantum import block_scale
from mkbell.spincore import LABEL_A, LABEL_B, Scenario, Spin, validate_labels

#: Largest Krylov basis, in rows of the global dimension, per Lanczos cycle.
KRYLOV_ROWS = 10

#: Fixed seed of the Gaussian start vector.
START_SEED = 0x5EED

#: A new Lanczos vector shorter than this fraction of its matvec ends the cycle.
BREAKDOWN = 1e-12


@dataclass(frozen=True)
class Eigenpair:
    """A checked eigenpair: ``iterations`` matvecs gave ``value`` and the true
    residual ||Mx - value x|| of the unit ``vector``."""

    value: float
    vector: np.ndarray
    iterations: int
    residual: float


@dataclass
class FullSpaceOperator:
    """The Bell operator on the full space of D = (2s+1)**n entries,
    matrix-free: the product form applied party by party with the spin-s A
    and B (index convention of ``mkbell.operators``)."""

    scenario: Scenario
    diag: np.ndarray  # (d, 1): A's diagonal
    anti: np.ndarray  # (d, 1): B's entry on row i, in column d-1-i

    def vector(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.scenario.global_dimension(),):
            raise DimensionMismatch(
                f"expected vector of length {self.scenario.global_dimension()}, "
                f"got shape {v.shape}"
            )
        return v

    def apply(self, v: np.ndarray) -> np.ndarray:
        """M @ v = Re[(1 - i)^(n-1) (A + iB) x ... x (A + iB) v]."""
        z = self.vector(v).astype(np.complex128)
        d, a, ib = self.scenario.spin.dimension, self.diag, 1j * self.anti
        for j in range(self.scenario.n):  # in place: two complex D-arrays per step
            z = z.reshape(d ** j, d, -1)
            flipped = ib * z[:, ::-1]
            z *= a
            z += flipped
            del flipped
        re, im = prefactor(self.scenario.n)
        return (re * z.real - im * z.imag).reshape(-1)


def full_space_operator(scenario: Scenario) -> FullSpaceOperator:
    """The full-space matvec, once a state vector (D entries) is within the cap."""
    scenario.check_entries(f"a full-space state vector of {scenario}",
                           scenario.global_dimension)
    twice_a, twice_b = _twice_diagonals(scenario.spin)
    d = scenario.spin.dimension
    return FullSpaceOperator(scenario, (twice_a / 2.0).reshape(d, 1),
                             (twice_b / 2.0).reshape(d, 1))


def extreme_indices(scenario: Scenario) -> np.ndarray:
    """The full-space index of each of the 2**n strings of extreme levels, in
    the block's order: index bit j is 0 for party j's level +s, 1 for -s."""
    d = scenario.spin.dimension
    idx = np.zeros(1, dtype=np.int64)
    for _ in range(scenario.n):
        idx = (idx[:, None] * d + np.array([0, d - 1])).reshape(-1)
    return idx


def embed(scenario: Scenario, x: np.ndarray) -> np.ndarray:
    """The 2**n block vector ``x`` on the extreme levels of the full space
    of D entries, zero elsewhere."""
    scenario.check_entries(f"a full-space state vector of {scenario}",
                           scenario.global_dimension)
    state = np.zeros(scenario.global_dimension())
    state[extreme_indices(scenario)] = x
    return state


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


def full_space_distribution(scenario: Scenario, state: np.ndarray,
                            settings: str) -> np.ndarray:
    """The Born rule on the full space: probabilities over the D joint
    outcomes, mixed-radix with local index i for outcome s - i."""
    validate_labels(settings)
    if len(settings) != scenario.n:
        raise DimensionMismatch(f"settings must have length {scenario.n}")
    state = np.asarray(state, dtype=np.float64)
    D = scenario.global_dimension()
    if state.shape != (D,):
        raise DimensionMismatch(f"state must have length {D}, got {state.shape}")
    d = scenario.spin.dimension
    rot = b_rotation(scenario.spin)
    amps = state.reshape((d,) * scenario.n)
    for j, label in enumerate(settings):
        if label == "B":
            amps = np.moveaxis(np.tensordot(rot, amps, axes=(1, j)), 0, j)
    return (amps ** 2).reshape(-1)


def matvec_certificate(scenario: Scenario, tol: float = 1e-9,
                       operator: GlobalOperator | None = None) -> Eigenpair:
    """The closed-form top state on its 2**n entries, certified by one
    spin-1/2 matvec: lam = (2s)**n x.Mx once the true residual
    (2s)**n ||Mx - x.Mx x|| is at most tol * max(1, |lam|); raises
    NotConverged, carrying both, otherwise."""
    op = operator if operator is not None else global_operator(scenario)
    scale = block_scale(scenario)
    x = top_state(scenario)
    w = op.apply(x)
    half = float(x @ w)
    value = scale * half
    residual = scale * float(np.linalg.norm(w - half * x))
    if residual > tol * max(1.0, abs(value)):
        raise NotConverged(
            f"the 2**n top state of {scenario} has residual {residual:.3e}, above {tol} relative",
            best_value=value, best_residual=residual, iterations=1,
        )
    return Eigenpair(value=value, vector=x, iterations=1, residual=residual)


def lanczos_top(scenario: Scenario, tol: float = 1e-9, max_iter: int = 100_000,
                operator: FullSpaceOperator | None = None) -> Eigenpair:
    """Largest eigenvalue and unit eigenvector by restarted Lanczos on the
    full space.

    ``max_iter`` is the budget of matvecs and ``iterations`` the number
    used.  Returns once the true residual ||Mx - lam x|| is at most
    tol * max(1, |lam|); raises NotConverged, carrying the best checked
    value and residual, when the budget runs out first.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    op = operator if operator is not None else full_space_operator(scenario)
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
                    return Eigenpair(value=alpha, vector=x, iterations=used,
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


def predicted_quantum_max_by_powers(scenario: Scenario) -> float:
    """2**(3(n-1)/2) s**n with the power of two formed first, as the library
    once did: at s = 1/2 that power overflows from n = 684, while the value
    stays finite up to n = 2050."""
    s = scenario.spin.twice_spin / 2.0
    return 2.0 ** (1.5 * (scenario.n - 1)) * s ** scenario.n


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


def _twice_value_table(scenario: Scenario, extremal: bool):
    """Per-party twice-value arrays (a_j, b_j) over all strategy indices,
    in the strategy-index order of the ``mkbell.classical`` docstring."""
    n = scenario.n
    ts = scenario.spin.twice_spin
    d = scenario.spin.dimension
    scenario.check_entries(f"the strategy table of {scenario}",
                           lambda: 2 * n * strategy_count(scenario, extremal))
    count = strategy_count(scenario, extremal)
    idx = np.arange(count, dtype=np.int64)
    a_cols, b_cols = [], []
    if extremal:
        for j in range(n):
            crumb = (idx >> (2 * (n - 1 - j))) & 3
            a_cols.append(np.where(crumb & 2, -ts, ts).astype(np.int64))
            b_cols.append(np.where(crumb & 1, -ts, ts).astype(np.int64))
        return count, a_cols, b_cols
    for j in range(n):
        dig_a = (idx // d ** (2 * (n - 1 - j) + 1)) % d
        dig_b = (idx // d ** (2 * (n - 1 - j))) % d
        a_cols.append((ts - 2 * dig_a).astype(np.int64))
        b_cols.append((ts - 2 * dig_b).astype(np.int64))
    return count, a_cols, b_cols


def _values_scaled(a_cols, b_cols, t: int):
    """Vectorized pair recursion on twice-values; result is 2**n * M_n.

    With twice-values of size at most t = 2s, the values and partial sums over
    the first j + 1 parties stay within 2**j t**(j+1).  The recursion runs in
    int64 while that bound is below 2**63 and on exact Python ints (dtype
    object) from the first party where it is not.
    """
    m = a_cols[0].copy()
    k = b_cols[0].copy()
    for j in range(1, len(a_cols)):
        if m.dtype != object and (1 << j) * t ** (j + 1) >= 1 << 63:
            m, k = m.astype(object), k.astype(object)
        m, k = pair_step(m, k, a_cols[j], b_cols[j])
    return m


def _strategy_at(scenario: Scenario, a_cols, b_cols, index: int) -> Strategy:
    a = tuple(Fraction(int(col[index]), 2) for col in a_cols)
    b = tuple(Fraction(int(col[index]), 2) for col in b_cols)
    return Strategy(a=a, b=b)


def twice_value_states(n: int, t: int) -> set:
    """The reachable final twice-value states (m, k) of the extremal strategies,
    t = 2s: the n-party DP with the factor 2t of each step kept."""
    pairs = ((t, t), (t, -t), (-t, t), (-t, -t))
    states = set(pairs)
    for _ in range(1, n):
        states = {pair_step(m, k, a, b) for m, k in states for a, b in pairs}
    return states


def classical_max_enumerated(scenario: Scenario,
                             extremal_only: bool = True) -> ClassicalResult:
    """Test oracle for ``classical_max``: enumerate every strategy.

    Builds the whole twice-value table, 2n entries per strategy, so it
    raises ``CapExceeded`` before allocating when the table would exceed the
    scenario's ``dim_cap`` entries.
    """
    count, a_cols, b_cols = _twice_value_table(scenario, extremal_only)
    values = _values_scaled(a_cols, b_cols, scenario.spin.twice_spin)
    best = int(np.max(np.abs(values)))
    hits = np.nonzero(values == best)[0]
    if len(hits) == 0:  # maximum only attained with negative sign
        hits = np.nonzero(values == -best)[0]
    index = int(hits[0])
    return ClassicalResult(
        max_value=Fraction(best, 1 << scenario.n),
        argmax=_strategy_at(scenario, a_cols, b_cols, index),
        strategies_checked=count,
    )


def value_from_terms(scenario: Scenario, strategy: Strategy) -> Fraction:
    """Independent oracle: inner product of term coefficients with outcome products."""
    total = Fraction(0)
    for coeff, labels in expand_terms(scenario.n):
        prod = Fraction(coeff)
        for j, ch in enumerate(labels):
            prod = prod * (strategy.a[j] if ch == "A" else strategy.b[j])
        total = total + prod
    return total


class ValueOutOfSpectrum(MkBellError):
    """A strategy assigns an outcome outside the spin's spectrum."""


def spectrum_contains(spin: Spin, value) -> bool:
    """Whether ``value`` lies in the spectrum {-s, ..., s}: 2 * value is an
    integer of size at most 2s and of the parity of 2s."""
    twice = 2 * Fraction(value)
    return (twice.denominator == 1 and abs(twice) <= spin.twice_spin
            and (twice - spin.twice_spin) % 2 == 0)


def strategy_value(scenario: Scenario, strategy: Strategy) -> Fraction:
    """Evaluate the Bell expression on one deterministic strategy, exactly."""
    n = scenario.n
    if len(strategy.a) != n or len(strategy.b) != n:
        raise ValueOutOfSpectrum(f"strategy must assign values for all {n} parties")
    for v in (*strategy.a, *strategy.b):
        if not spectrum_contains(scenario.spin, v):
            raise ValueOutOfSpectrum(f"value {v} not in the spectrum of s={scenario.spin}")
    m, k = strategy.a[0], strategy.b[0]
    for j in range(1, n):
        m, k = pair_step(m, k, strategy.a[j], strategy.b[j])
    return Fraction(m)


@dataclass(frozen=True)
class LhvSampleReport:
    """Empirical Bell value from sampled local-hidden-variable strategies."""

    mean: float
    stderr: float
    shots: int
    seed: int
    distribution: str


def lhv_sample(scenario: Scenario, shots: int, seed: int,
               distribution: str = "uniform_extremal",
               strategy: Strategy | None = None) -> LhvSampleReport:
    """Sample i.i.d. strategies and average the per-shot Bell value.

    ``uniform_extremal`` draws each a_j, b_j = +-s with equal probability;
    ``point_mass`` repeats one fixed strategy.  Uses NumPy's PCG64 generator
    seeded with ``seed``, so reports are reproducible.  The standard error is
    the plug-in standard deviation over shots divided by sqrt(shots).
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    n = scenario.n
    s = scenario.spin.twice_spin / 2.0
    if distribution == "uniform_extremal":
        rng = np.random.default_rng(seed)
        signs = rng.integers(0, 2, size=(shots, 2 * n)) * 2 - 1
        a = signs[:, :n] * s
        b = signs[:, n:] * s
    elif distribution == "point_mass":
        if strategy is None:
            raise ValueError("point_mass distribution needs a strategy")
        strategy_value(scenario, strategy)  # spectrum validation
        a = np.tile([float(v) for v in strategy.a], (shots, 1))
        b = np.tile([float(v) for v in strategy.b], (shots, 1))
    else:
        raise ValueError(f"unknown distribution {distribution!r}")
    m = a[:, 0].copy()
    k = b[:, 0].copy()
    for j in range(1, n):
        m, k = pair_step(m, k, a[:, j], b[:, j])
    mean = float(np.mean(m))
    stderr = float(np.std(m) / np.sqrt(shots))
    return LhvSampleReport(mean=mean, stderr=stderr, shots=shots, seed=seed,
                           distribution=distribution)


def pair_recursion(n: int):
    """The (M_n, K_n) label dicts by the real pair recursion,
    M_k = M_{k-1} (A + B) + K_{k-1} (A - B), K_k = K_{k-1} (A + B) + M_{k-1} (B - A)."""
    m = {"A": 1}
    k = {"B": 1}
    for _ in range(n - 1):
        new_m = defaultdict(int)
        new_k = defaultdict(int)
        for labels, c in m.items():
            new_m[labels + "A"] += c
            new_m[labels + "B"] += c
            new_k[labels + "B"] += c
            new_k[labels + "A"] -= c
        for labels, c in k.items():
            new_m[labels + "A"] += c
            new_m[labels + "B"] -= c
            new_k[labels + "A"] += c
            new_k[labels + "B"] += c
        m = {lab: c for lab, c in new_m.items() if c}
        k = {lab: c for lab, c in new_k.items() if c}
    return m, k


def dense_scaled_terms(scenario: Scenario) -> np.ndarray:
    """Integer matrix 2**n * M_n by summing the expansion's product terms.

    A and B have at most one nonzero per row, so every term is a generalised
    permutation: row r holds the single entry coeff * vals[r] in column
    cols[r], both built party by party.
    """
    scenario.check_entries(f"a dense matrix of {scenario}",
                           lambda: scenario.global_dimension() ** 2)
    d = scenario.spin.dimension
    local = {}
    for label, twice in ((LABEL_A, make_A(scenario.spin)), (LABEL_B, make_B(scenario.spin))):
        assert (np.count_nonzero(twice, axis=1) <= 1).all()
        col = np.argmax(twice != 0, axis=1)
        local[label] = (col, twice[np.arange(d), col])
    D = scenario.global_dimension()
    rows = np.arange(D)
    total = np.zeros((D, D), dtype=np.int64)
    for coeff, labels in expand_terms(scenario.n):
        cols = np.zeros(1, dtype=np.int64)
        vals = np.ones(1, dtype=np.int64)
        for ch in labels:
            col, val = local[ch]
            cols = (cols[:, None] * d + col).reshape(-1)
            vals = (vals[:, None] * val).reshape(-1)
        total[rows, cols] += coeff * vals
    return total


def term_matrix(scenario: Scenario, labels: str) -> np.ndarray:
    """Dense matrix of one product term O_1 x ... x O_n (unit coefficient)."""
    validate_labels(labels)
    if len(labels) != scenario.n:
        raise DimensionMismatch("term labels do not match the scenario")
    scenario.check_entries(f"a dense matrix of {scenario}",
                           lambda: scenario.global_dimension() ** 2)
    a, b = make_A(scenario.spin), make_B(scenario.spin)
    factor = np.array([[1]], dtype=np.int64)
    for ch in labels:
        factor = np.kron(factor, b if ch == LABEL_B else a)
    return factor.astype(np.float64) / float(1 << scenario.n)


def apply_term(op: FullSpaceOperator, labels: str, v: np.ndarray) -> np.ndarray:
    """Matvec of a single unit-coefficient product term on the full space."""
    validate_labels(labels)
    if len(labels) != op.scenario.n:
        raise DimensionMismatch("term labels or vector do not match the scenario")
    w = op.vector(v)
    d = op.scenario.spin.dimension
    for j, ch in enumerate(labels):
        w = w.reshape(d ** j, d, -1)
        w = op.anti * w[:, ::-1] if ch == LABEL_B else op.diag * w
    return w.reshape(-1)


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
    terms = expand_terms(scenario.n)
    mats = [term_matrix(scenario, labels) for _, labels in terms]
    T = len(mats)
    commuting = np.ones((T, T), dtype=bool)
    for i in range(T):
        for j in range(i + 1, T):
            comm = mats[i] @ mats[j] - mats[j] @ mats[i]
            ok = np.max(np.abs(comm)) < tol
            commuting[i, j] = commuting[j, i] = ok
    return CommutationReport(
        scenario=scenario,
        labels=tuple(labels for _, labels in terms),
        commuting=commuting,
        all_commute=bool(commuting.all()),
    )


def correlation(scenario: Scenario, probs: np.ndarray) -> float:
    """Exact correlation sum_m m_1 ... m_n P(m_1, ..., m_n) of a full-space
    distribution of ``scenario`` (``full_space_distribution``)."""
    d = scenario.spin.dimension
    vals = np.array(scenario.spin.twice_outcomes(), dtype=np.float64) / 2.0
    acc = probs.reshape((d,) * scenario.n)
    for _ in range(scenario.n):
        acc = np.tensordot(vals, acc, axes=(0, 0))
    return float(acc)


def predicted_correlation(n: int, s: float, labels: str) -> float:
    """The top state's correlation s**n cos(b pi/2 - pi (n-1)/4) for a product
    term with b letters B.

    On the extreme levels A = s sigma_z and B = s sigma_x, and for
    v = (1, i) sigma_z v = v-bar and sigma_x v = i v-bar.  So a term O with
    b letters B maps u = (x)_j v / sqrt(2) to O u = s**n i**b u-bar.  The top
    state is x = (w + w-bar) / sqrt(2) with w = e^(i theta/2) u and
    theta = -pi (n-1)/4 (``mkbell.quantum`` docstring), and u^T u = 0 kills
    the cross terms: x^T O x = Re(e^(i theta) s**n i**b) (w-bar^T w = 1).
    """
    b = labels.count(LABEL_B)
    return s ** n * np.cos(b * np.pi / 2 - np.pi * (n - 1) / 4)
