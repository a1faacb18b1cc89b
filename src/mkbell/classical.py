"""Exact local-hidden-variable analysis of the Bell expression.

Deterministic strategies assign a predefined outcome to every local
observable.  The expression value is the product form of ``expansion.py``
on numbers instead of operators: starting from z = m + i k = a_1 + i b_1,
each further party multiplies z by (1 - i)(a_j + i b_j) (``pair_step``, on
Fractions and Python ints), and M_n is the final m.  All arithmetic in this
module is exact (twice-value integers internally, ``Fraction`` values at the
API), and the module is pure Python: it never imports NumPy.

**Certificate.**  ``classical_max`` is an exact dynamic program over the
recursion's state.  Going party by party, it keeps the set of reachable
(m, k); the next party maps each state through the four sign pairs (a, b) in
{+-s}^2.  The DP is exhaustive by construction: its largest |m| is the
extremal maximum.

**Four states.**  With t = 2s, the factor (1 - i)(a + i b) of a sign pair
is t, -t i, t i or -t for (+s, +s), (+s, -s), (-s, +s), (-s, -s): the state
is scaled by t and turned by a multiple of 90 degrees.  The first party
gives the four rotations of (s, s), so after every party exactly four
states are live and the DP costs 16 steps per party, O(n) in all.  Only the
cost rests on this; the result does not.

**Full grid.**  M_n is affine in each outcome separately (multilinear), so
|M_n| on the box [-s, s]^(2n) is maximised at a vertex: the full-grid
maximum is the extremal one.  Every outcome +s (strategy index 0, the
smallest on both grids) attains M_n = s (2s)^(n-1) = 2^(n-1) s^n, the bound
itself, so it is the reported argmax.  ``classical_max`` raises unless its
state is among the DP's and its value, the DP's maximum and the bound are
equal.

Strategy indices are mixed-radix with party 1 most significant and, within a
party, a before b; digit 0 is +s.  ``strategies_checked`` is the size of the
certified set, 4^n sign patterns or (2s+1)^(2n) grid points.  The test
oracle ``classical_max_enumerated`` (``tests/oracles.py``) enumerates the
whole table instead; the same file evaluates single strategies and samples
them, the classical control of the simulated experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .expansion import pair_step
from .spincore import Scenario


@dataclass(frozen=True)
class Strategy:
    """Predefined outcomes (a_j, b_j) for every party's two observables."""

    a: tuple[Fraction, ...]
    b: tuple[Fraction, ...]


@dataclass(frozen=True)
class ClassicalResult:
    max_value: Fraction
    argmax: Strategy
    strategies_checked: int


def classical_bound(scenario: Scenario) -> Fraction:
    """2**(n-1) * s**n = (2s)**n / 2, exactly."""
    return Fraction(scenario.spin.twice_spin ** scenario.n, 2)


def strategy_count(scenario: Scenario, extremal_only: bool = True) -> int:
    """Size of the certified set: 4**n sign patterns or (2s+1)**(2n) grid points."""
    return 4 ** scenario.n if extremal_only else scenario.spin.dimension ** (2 * scenario.n)


def _extremal_states(n: int, t: int) -> set:
    """The reachable final twice-value states (m, k) of the extremal strategies."""
    pairs = ((t, t), (t, -t), (-t, t), (-t, -t))
    states = set(pairs)
    for _ in range(1, n):
        states = {pair_step(m, k, a, b) for m, k in states for a, b in pairs}
    return states


def classical_max(scenario: Scenario, extremal_only: bool = True) -> ClassicalResult:
    """Exact maximum of |M_n| over deterministic strategies, by the O(n) DP.

    With ``extremal_only`` the certified set is the 4**n sign patterns
    a_j, b_j = +-s; otherwise the full (2s+1)**(2n) outcome grid, whose
    maximum is the extremal one by multilinearity (module docstring).  The
    argmax is every outcome +s; raise unless it attains both the DP's
    maximum and the bound 2**(n-1) s**n.
    """
    n, t = scenario.n, scenario.spin.twice_spin
    states = _extremal_states(n, t)
    best = Fraction(max(abs(m) for m, _ in states), 1 << n)
    m, k = t, t
    for _ in range(1, n):
        m, k = pair_step(m, k, t, t)
    attained, bound = Fraction(m, 1 << n), classical_bound(scenario)
    if (m, k) not in states or not attained == best == bound:
        raise AssertionError(f"all +s attains {attained}, the DP's maximum is {best} "
                             f"and the bound {bound} for {scenario}")
    plus = (scenario.spin.value,) * n
    return ClassicalResult(
        max_value=best,
        argmax=Strategy(a=plus, b=plus),
        strategies_checked=strategy_count(scenario, extremal_only),
    )
