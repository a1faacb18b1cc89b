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
s^n 2^(n-1) = (2s)^n / 2, the bound itself, once.  The halved factor
(1 - i)(a + i b) / 2 is 1, -i, i or -1, so one halved step closes the four
sign pairs, the rotations of (1, 1): party 1 leaves them, and every later
party gives them back.  The DP takes that one step (16 small-integer
``pair_step`` calls) and checks that it closes the set, so it stays
exhaustive and exact at any n.

**Full grid.**  M_n is affine in each outcome separately (multilinear), so
|M_n| on the box [-s, s]^(2n) is maximised at a vertex: the full-grid
maximum is the extremal one.  Every outcome +s (strategy index 0, the
smallest on both grids) attains M_n = s (2s)^(n-1) = 2^(n-1) s^n, the bound
itself, so it is the reported argmax.  On signs it stays at (1, 1), one
unit of m: ``classical_max`` raises unless (1, 1) is among the DP's states
and their largest |m| is that one unit, so that the DP's maximum is the bound.

Strategy indices are mixed-radix with party 1 most significant and, within a
party, a before b; digit 0 is +s.  ``strategies_checked`` is the size of the
certified set, 4^n sign patterns or (2s+1)^(2n) grid points.  The test
oracle ``classical_max_enumerated`` (``tests/oracles.py``) enumerates the
whole table instead; the same file evaluates single strategies and samples
them, the classical control of the simulated experiment.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .expansion import pair_step
from .spincore import Scenario


class Strategy(namedtuple("Strategy", "a b")):
    """Predefined outcomes (a_j, b_j) for every party's two observables, as
    two tuples of Fractions."""

    __slots__ = ()


class ClassicalResult(namedtuple("ClassicalResult", "max_value argmax strategies_checked")):
    """The certified maximum (a Fraction), a ``Strategy`` attaining it and the
    size of the certified set."""

    __slots__ = ()


def classical_bound(scenario: Scenario) -> Fraction:
    """2**(n-1) * s**n = (2s)**n / 2, exactly."""
    return Fraction(scenario.spin.twice_spin ** scenario.n, 2)


def strategy_count(scenario: Scenario, extremal_only: bool = True) -> int:
    """Size of the certified set: 4**n sign patterns or (2s+1)**(2n) grid points."""
    return 4 ** scenario.n if extremal_only else scenario.spin.dimension ** (2 * scenario.n)


def _extremal_states(n: int) -> set:
    """The final (m, k) of the DP on sign pairs, each step halved: M_n over
    s**n 2**(n-1).  One halved step closes the four sign pairs (module
    docstring), so every later party gives them back: for n > 1, take that
    step once and raise unless it does."""
    signs = {(1, 1), (1, -1), (-1, 1), (-1, -1)}
    if n > 1 and signs != {(m // 2, k // 2) for m, k in (
            pair_step(m, k, a, b) for m, k in signs for a, b in signs)}:
        raise AssertionError("one halved step does not close the four sign pairs")
    return signs


def classical_max(scenario: Scenario, extremal_only: bool = True) -> ClassicalResult:
    """Exact maximum of |M_n| over deterministic strategies, by the DP on signs.

    With ``extremal_only`` the certified set is the 4**n sign patterns
    a_j, b_j = +-s; otherwise the full (2s+1)**(2n) outcome grid, whose
    maximum is the extremal one by multilinearity (module docstring).  The
    argmax is every outcome +s, which stays at the DP's state (1, 1) and so
    attains the bound 2**(n-1) s**n, the value of one unit of the DP's m;
    raise unless (1, 1) is among the states and their largest |m| is one unit.
    """
    states = _extremal_states(scenario.n)  # M_n in units of the bound
    if (1, 1) not in states or max(abs(m) for m, _ in states) != 1:
        raise AssertionError(f"all +s attains the bound at the DP's state (1, 1), one unit "
                             f"of m, but the states are {sorted(states)} for {scenario}")
    plus = (scenario.spin.value,) * scenario.n
    return ClassicalResult(
        max_value=classical_bound(scenario),
        argmax=Strategy(a=plus, b=plus),
        strategies_checked=strategy_count(scenario, extremal_only),
    )
