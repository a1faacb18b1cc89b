"""Exact local-hidden-variable analysis of the Bell expression, in closed form.

Deterministic strategies assign a predefined outcome to every local
observable.  The expression value is the product form of ``expansion.py``
on numbers instead of operators: starting from z = m + i k = a_1 + i b_1,
each further party multiplies z by (1 - i)(a_j + i b_j)
(``expansion.pair_step``), and M_n is the final m.  All values in this
module are exact (``Fraction`` and Python ints), and the module is pure
Python: it imports nothing but ``spincore`` from the package, and never
NumPy.

**The bound.**  On the sign patterns a_j, b_j = +-s, write a = s alpha and
b = s beta with (alpha, beta) in {+-1}^2, the four sign pairs, the
rotations of 1 + i.  A party's factor (1 - i)(a + i b) is then
2s times (1 - i)(alpha + i beta) / 2, and that halved factor is 1, -i, i or
-1: it maps the four sign pairs onto themselves.  So after party j, z over
s (2s)^(j-1) is a sign pair, and each of the four is reached, at every j.
A sign pair has |m| = 1, so the largest |M_n| over the 4^n sign patterns is
exactly

    s (2s)^(n-1) = 2^(n-1) s^n = (2s)^n / 2,

attained where every halved factor is 1: every outcome +s.  The tests check the
closure on ``pair_step`` itself, and compare the bound with an enumeration
of every strategy (``classical_max_enumerated``) and with the n-party
state set kept whole (``twice_value_states``), both in ``tests/oracles.py``.

**Full grid.**  M_n is affine in each outcome separately (multilinear), so
|M_n| on the box [-s, s]^(2n) is maximised at a vertex: the full-grid
maximum is the extremal one, with the same argmax.

Strategy indices are mixed-radix with party 1 most significant and, within a
party, a before b; digit 0 is +s, so the argmax, every outcome +s, is
strategy index 0, the smallest on both grids.  ``strategies_checked`` is the
size of the set the bound covers, 4^n sign patterns or (2s+1)^(2n) grid
points.  The same test oracles evaluate single strategies and sample them,
the classical control of the simulated experiment.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .spincore import Scenario


class Strategy(namedtuple("Strategy", "a b")):
    """Predefined outcomes (a_j, b_j) for every party's two observables, as
    two tuples of Fractions."""

    __slots__ = ()


class ClassicalResult(namedtuple("ClassicalResult", "max_value argmax strategies_checked")):
    """The exact maximum (a Fraction), a ``Strategy`` attaining it and the
    size of the set it covers."""

    __slots__ = ()


def classical_bound(scenario: Scenario) -> Fraction:
    """2**(n-1) * s**n = (2s)**n / 2, exactly."""
    return Fraction(scenario.spin.twice_spin ** scenario.n, 2)


def strategy_count(scenario: Scenario, extremal_only: bool = True) -> int:
    """Size of the covered set: 4**n sign patterns or (2s+1)**(2n) grid points."""
    return 4 ** scenario.n if extremal_only else scenario.spin.dimension ** (2 * scenario.n)


def classical_max(scenario: Scenario, extremal_only: bool = True) -> ClassicalResult:
    """Exact maximum of |M_n| over deterministic strategies, in closed form.

    With ``extremal_only`` the covered set is the 4**n sign patterns
    a_j, b_j = +-s; otherwise the full (2s+1)**(2n) outcome grid, whose
    maximum is the extremal one by multilinearity.  The maximum is the bound
    2**(n-1) s**n and the argmax every outcome +s (module docstring).
    """
    plus = (scenario.spin.value,) * scenario.n
    return ClassicalResult(classical_bound(scenario), Strategy(plus, plus),
                           strategy_count(scenario, extremal_only))
