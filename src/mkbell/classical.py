"""Exact local-hidden-variable analysis of the Bell expression.

Deterministic strategies assign a predefined outcome to every local
observable.  The expression value is computed by running the pair recursion
on numbers instead of operators; all arithmetic in this module is exact
(twice-value integers internally, dyadic values at the API).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, ValueOutOfSpectrum
from .expansion import expand_terms
from .spincore import ExactValue, Scenario

#: Largest strategy enumeration allowed (extremal or full grid), in strategies.
FULL_GRID_BUDGET = 10 ** 8


@dataclass(frozen=True)
class Strategy:
    """Predefined outcomes (a_j, b_j) for every party's two observables."""

    a: tuple[ExactValue, ...]
    b: tuple[ExactValue, ...]


@dataclass(frozen=True)
class ClassicalResult:
    max_value: ExactValue
    argmax: Strategy
    strategies_checked: int


@dataclass(frozen=True)
class BoundCertificate:
    """Outcome of checking the classical bound 2**(n-1) s**n by enumeration."""

    bound: ExactValue
    achieved: bool
    argmax: Strategy
    strategies_checked: int

    @property
    def holds(self) -> bool:
        return self.achieved


def classical_bound(scenario: Scenario) -> ExactValue:
    """2**(n-1) * s**n, exactly."""
    n = scenario.n
    return ExactValue(scenario.spin.twice_spin ** n, n) * ExactValue(1 << (n - 1))


def strategy_value(scenario: Scenario, strategy: Strategy) -> ExactValue:
    """Evaluate the Bell expression on one deterministic strategy, exactly."""
    n = scenario.n
    if len(strategy.a) != n or len(strategy.b) != n:
        raise ValueOutOfSpectrum(f"strategy must assign values for all {n} parties")
    for v in (*strategy.a, *strategy.b):
        if not scenario.spin.contains(v):
            raise ValueOutOfSpectrum(f"value {v} not in the spectrum of s={scenario.spin}")
    m, k = strategy.a[0], strategy.b[0]
    for j in range(1, n):
        tot = strategy.a[j] + strategy.b[j]
        dif = strategy.a[j] - strategy.b[j]
        m, k = m * tot + k * dif, k * tot - m * dif
    return m


def _twice_value_table(scenario: Scenario, extremal: bool):
    """Per-party twice-value arrays (a_j, b_j) over all strategy indices.

    Strategy indices are mixed-radix with party 1 most significant and, within
    a party, a before b.  Digit 0 maps to the largest outcome +s, so index 0
    is the all-plus strategy and ties resolve to the smallest index.
    """
    n = scenario.n
    ts = scenario.spin.twice_spin
    d = scenario.spin.dimension
    count = 4 ** n if extremal else d ** (2 * n)
    if count > FULL_GRID_BUDGET:
        kind = "extremal enumeration" if extremal else "full grid"
        raise BudgetExceeded(
            f"{kind} has {count} strategies, budget is {FULL_GRID_BUDGET}"
        )
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
        tot = a_cols[j] + b_cols[j]
        dif = a_cols[j] - b_cols[j]
        m, k = m * tot + k * dif, k * tot - m * dif
    return m


def _strategy_at(scenario: Scenario, a_cols, b_cols, index: int) -> Strategy:
    a = tuple(ExactValue(int(col[index]), 1) for col in a_cols)
    b = tuple(ExactValue(int(col[index]), 1) for col in b_cols)
    return Strategy(a=a, b=b)


def classical_max(scenario: Scenario, extremal_only: bool = True) -> ClassicalResult:
    """Exhaustive maximum of |M_n| over deterministic strategies.

    With ``extremal_only`` the 4**n sign patterns a_j, b_j = +-s are
    enumerated; otherwise the full (2s+1)**(2n) outcome grid (small
    instances only).  The argmax is reported for the positive side, ties
    broken by the smallest strategy index.
    """
    count, a_cols, b_cols = _twice_value_table(scenario, extremal_only)
    values = _values_scaled(a_cols, b_cols, scenario.spin.twice_spin)
    best = int(np.max(np.abs(values)))
    hits = np.nonzero(values == best)[0]
    if len(hits) == 0:  # maximum only attained with negative sign
        hits = np.nonzero(values == -best)[0]
    index = int(hits[0])
    return ClassicalResult(
        max_value=ExactValue(best, scenario.n),
        argmax=_strategy_at(scenario, a_cols, b_cols, index),
        strategies_checked=count,
    )


def verify_bound(scenario: Scenario, extremal_only: bool = True) -> BoundCertificate:
    """Certify that no strategy exceeds 2**(n-1) s**n and some strategy attains it."""
    result = classical_max(scenario, extremal_only=extremal_only)
    bound = classical_bound(scenario)
    if result.max_value > bound:
        raise AssertionError(
            f"enumeration found {result.max_value} above the bound {bound} "
            f"for {scenario}"
        )
    return BoundCertificate(
        bound=bound,
        achieved=result.max_value == bound,
        argmax=result.argmax,
        strategies_checked=result.strategies_checked,
    )


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
        tot = a[:, j] + b[:, j]
        dif = a[:, j] - b[:, j]
        m, k = m * tot + k * dif, k * tot - m * dif
    mean = float(np.mean(m))
    stderr = float(np.std(m) / np.sqrt(shots))
    return LhvSampleReport(mean=mean, stderr=stderr, shots=shots, seed=seed,
                           distribution=distribution)


def value_from_terms(scenario: Scenario, strategy: Strategy) -> ExactValue:
    """Independent oracle: inner product of term coefficients with outcome products."""
    expansion = expand_terms(scenario.n)
    total = ExactValue(0)
    for coeff, labels in expansion.terms:
        prod = ExactValue(coeff)
        for j, ch in enumerate(labels):
            prod = prod * (strategy.a[j] if ch == "A" else strategy.b[j])
        total = total + prod
    return total
