"""Exact local-hidden-variable analysis of the Bell expression.

Deterministic strategies assign a predefined outcome to every local
observable.  The expression value is the product form of ``expansion.py``
on numbers instead of operators: starting from z = m + i k = a_1 + i b_1,
each further party multiplies z by (1 - i)(a_j + i b_j) (``pair_step``, on
exact values, Python ints and NumPy arrays), and M_n is the final m.  All
arithmetic in this module is exact (twice-value integers internally, dyadic
values at the API).

**Certificate.**  ``classical_max`` is an exact dynamic program over the
recursion's state.  Going party by party, it keeps a dict from every
reachable (m, k) to the smallest strategy-index prefix that reaches it; the
next party maps each entry through the four sign pairs (a, b) in {+-s}^2,
with prefix ``4 * index + crumb``.  The future of a prefix depends only on
its state, and of two prefixes of one length, the smaller one gives the
smaller index under every completion; so the smallest index reaching each
final state is kept.  The DP is exhaustive by construction and reproduces
enumeration's maximum and its tie-break.

**Four states.**  With t = 2s, the factor (1 - i)(a + i b) of a sign pair
is t, -t i, t i or -t for (+s, +s), (+s, -s), (-s, +s), (-s, -s): the state
is scaled by t and turned by a multiple of 90 degrees.  The first party
gives the four rotations of (s, s), so after every party exactly four
states are live and the DP costs 16 steps per party, O(n) in all.  Only the
cost rests on this; the result does not.

**Full grid.**  M_n is affine in each outcome separately (multilinear), so
|M_n| on the box [-s, s]^(2n) is maximised at a vertex: the full-grid
maximum is the extremal one.  Index 0 (every outcome +s) is the smallest
index on both grids and attains M_n = s (2s)^(n-1) = 2^(n-1) s^n, the
bound itself; so it is the smallest full-grid maximiser.  The code checks
that the extremal DP's argmax is index 0 before reporting it, and
``verify_bound`` raises if a maximum ever exceeds the bound.

Strategy indices are mixed-radix with party 1 most significant and, within a
party, a before b; digit 0 is +s.  ``strategies_checked`` is the size of the
certified set, 4^n sign patterns or (2s+1)^(2n) grid points.  The test
oracle ``classical_max_enumerated`` enumerates the whole table instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, ValueOutOfSpectrum
from .expansion import expand_terms, pair_step
from .spincore import ExactValue, Scenario

#: Largest table the enumeration oracle builds, in int64 entries
#: (strategies x 2n, 128 MiB).
FULL_GRID_BUDGET = 1 << 24


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
    """Outcome of certifying the classical bound 2**(n-1) s**n."""

    bound: ExactValue
    achieved: bool
    argmax: Strategy
    strategies_checked: int


def classical_bound(scenario: Scenario) -> ExactValue:
    """2**(n-1) * s**n, exactly."""
    n = scenario.n
    return ExactValue(scenario.spin.twice_spin ** n, n) * ExactValue(1 << (n - 1))


def strategy_count(scenario: Scenario, extremal_only: bool = True) -> int:
    """Size of the certified set: 4**n sign patterns or (2s+1)**(2n) grid points."""
    return 4 ** scenario.n if extremal_only else scenario.spin.dimension ** (2 * scenario.n)


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
        m, k = pair_step(m, k, strategy.a[j], strategy.b[j])
    return m


def _extremal_states(n: int, t: int) -> dict:
    """Each reachable final twice-value state (m, k) of the extremal
    strategies, mapped to the smallest strategy index that reaches it."""
    pairs = ((t, t), (t, -t), (-t, t), (-t, -t))  # crumbs 0..3
    states = {pair: crumb for crumb, pair in enumerate(pairs)}
    for _ in range(1, n):
        reached = {}
        for (m, k), index in states.items():
            for crumb, (a, b) in enumerate(pairs):
                state = pair_step(m, k, a, b)
                prefix = 4 * index + crumb
                if prefix < reached.get(state, prefix + 1):
                    reached[state] = prefix
        states = reached
    return states


def _extremal_strategy(n: int, t: int, index: int) -> Strategy:
    crumbs = [(index >> (2 * (n - 1 - j))) & 3 for j in range(n)]
    a = tuple(ExactValue(-t if crumb & 2 else t, 1) for crumb in crumbs)
    b = tuple(ExactValue(-t if crumb & 1 else t, 1) for crumb in crumbs)
    return Strategy(a=a, b=b)


def classical_max(scenario: Scenario, extremal_only: bool = True) -> ClassicalResult:
    """Exact maximum of |M_n| over deterministic strategies, by the O(n) DP.

    With ``extremal_only`` the certified set is the 4**n sign patterns
    a_j, b_j = +-s; otherwise the full (2s+1)**(2n) outcome grid, whose
    maximum is the extremal one by multilinearity (module docstring).  The
    argmax is reported for the positive side, ties broken by the smallest
    strategy index.
    """
    n, t = scenario.n, scenario.spin.twice_spin
    states = _extremal_states(n, t)
    best = max(abs(m) for m, _ in states)
    index = min([i for (m, _), i in states.items() if m == best]
                or [i for (m, _), i in states.items() if m == -best])
    if not extremal_only and index != 0:
        raise AssertionError(f"all +s does not attain the extremal maximum for {scenario}")
    return ClassicalResult(
        max_value=ExactValue(best, n),
        argmax=_extremal_strategy(n, t, index),
        strategies_checked=strategy_count(scenario, extremal_only),
    )


def _twice_value_table(scenario: Scenario, extremal: bool):
    """Per-party twice-value arrays (a_j, b_j) over all strategy indices,
    in the strategy-index order of the module docstring."""
    n = scenario.n
    ts = scenario.spin.twice_spin
    d = scenario.spin.dimension
    count = strategy_count(scenario, extremal)
    entries = count * 2 * n
    if entries > FULL_GRID_BUDGET:
        kind = "extremal enumeration" if extremal else "full grid"
        raise BudgetExceeded(
            f"{kind} table has {entries} entries ({count} strategies), "
            f"budget is {FULL_GRID_BUDGET}"
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
        m, k = pair_step(m, k, a_cols[j], b_cols[j])
    return m


def _strategy_at(scenario: Scenario, a_cols, b_cols, index: int) -> Strategy:
    a = tuple(ExactValue(int(col[index]), 1) for col in a_cols)
    b = tuple(ExactValue(int(col[index]), 1) for col in b_cols)
    return Strategy(a=a, b=b)


def classical_max_enumerated(scenario: Scenario,
                             extremal_only: bool = True) -> ClassicalResult:
    """Test oracle for ``classical_max``: enumerate every strategy.

    Builds the whole twice-value table, so it raises ``BudgetExceeded``
    before allocating when the table would exceed ``FULL_GRID_BUDGET``
    entries.
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
            f"the certificate found {result.max_value} above the bound {bound} "
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
        m, k = pair_step(m, k, a[:, j], b[:, j])
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
