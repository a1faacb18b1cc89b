"""Exact local-hidden-variable analysis of the Bell expression.

Deterministic strategies assign a predefined outcome to every local
observable.  The expression value is the product form of ``expansion.py``
on numbers instead of operators: starting from z = m + i k = a_1 + i b_1,
each further party multiplies z by (1 - i)(a_j + i b_j) (``pair_step``, on
Fractions and Python ints), and M_n is the final m.  All arithmetic in this
module is exact (small integers internally, ``Fraction`` values at the API),
and the module is pure Python: it never imports NumPy.

**Certificate.**  ``classical_max`` is an exact dynamic program over the
recursion's state.  Going party by party, it keeps the set of reachable
(m, k); the next party maps each state through the four sign patterns
(a, b) in {+-s}^2.  The DP is exhaustive by construction: its largest |m|
is the extremal maximum.  It runs on the sign pairs in {+-1}^2, the
patterns over s, where a + b and a - b are 0 or +-2: each step halves the
new (m, k) exactly, and ``classical_max`` applies the factor divided out,
s^n 2^(n-1) = (2s)^n / 2, once.  The halved factor (1 - i)(a + i b) / 2 is
1, -i, i or -1, so after every party the states are the four rotations of
(1, 1).  The DP stops at the first step that returns the set it started
from, as every later step would too: it stays exhaustive and exact at any
n, in at most 16 small-integer steps.

**Full grid.**  M_n is affine in each outcome separately (multilinear), so
|M_n| on the box [-s, s]^(2n) is maximised at a vertex: the full-grid
maximum is the extremal one.  Every outcome +s (strategy index 0, the
smallest on both grids) attains M_n = s (2s)^(n-1) = 2^(n-1) s^n, the bound
itself, so it is the reported argmax.  On signs it stays at (1, 1):
``classical_max`` raises unless (1, 1) is among the DP's states and its
value, the DP's maximum and the bound are equal.

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


def _extremal_states(n: int) -> set:
    """The reachable final (m, k) of the DP on sign pairs, each step halved, up
    to its fixed point (module docstring): M_n over s**n 2**(n-1)."""
    states = signs = {(1, 1), (1, -1), (-1, 1), (-1, -1)}
    for _ in range(1, n):
        step = {(m // 2, k // 2) for m, k in (
            pair_step(m, k, a, b) for m, k in states for a, b in signs)}
        if step == states:
            break
        states = step
    return states


def classical_max(scenario: Scenario, extremal_only: bool = True) -> ClassicalResult:
    """Exact maximum of |M_n| over deterministic strategies, by the DP on signs.

    With ``extremal_only`` the certified set is the 4**n sign patterns
    a_j, b_j = +-s; otherwise the full (2s+1)**(2n) outcome grid, whose
    maximum is the extremal one by multilinearity (module docstring).  The
    argmax is every outcome +s; raise unless it attains both the DP's
    maximum and the bound 2**(n-1) s**n.
    """
    n, t = scenario.n, scenario.spin.twice_spin
    states = _extremal_states(n)
    unit = Fraction(t ** n, 2)  # s**n 2**(n-1): M_n per unit of the DP's m
    best = unit * max(abs(m) for m, _ in states)
    attained, bound = unit, classical_bound(scenario)  # all +s stays at (1, 1)
    if (1, 1) not in states or not attained == best == bound:
        raise AssertionError(f"all +s attains {attained}, the DP's maximum is {best} "
                             f"and the bound {bound} for {scenario}")
    plus = (scenario.spin.value,) * n
    return ClassicalResult(
        max_value=best,
        argmax=Strategy(a=plus, b=plus),
        strategies_checked=strategy_count(scenario, extremal_only),
    )
