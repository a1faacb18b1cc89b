"""Exact local-hidden-variable analysis of the Bell expression.

Deterministic strategies assign a predefined outcome to every local
observable.  The expression value is the product form of ``expansion.py``
on numbers instead of operators: starting from z = m + i k = a_1 + i b_1,
each further party multiplies z by (1 - i)(a_j + i b_j) (``pair_step``, on
Fractions and Python ints), and M_n is the final m.  All arithmetic in this
module is exact (twice-value integers internally, ``Fraction`` values at the
API), and the module is pure Python: it never imports NumPy.

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
    a = tuple(Fraction(-t if crumb & 2 else t, 2) for crumb in crumbs)
    b = tuple(Fraction(-t if crumb & 1 else t, 2) for crumb in crumbs)
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
        max_value=Fraction(best, 1 << n),
        argmax=_extremal_strategy(n, t, index),
        strategies_checked=strategy_count(scenario, extremal_only),
    )


def verify_bound(scenario: Scenario, extremal_only: bool = True) -> ClassicalResult:
    """Return ``classical_max``'s result; raise if it exceeds 2**(n-1) s**n."""
    result = classical_max(scenario, extremal_only=extremal_only)
    bound = classical_bound(scenario)
    if result.max_value > bound:
        raise AssertionError(
            f"the certificate found {result.max_value} above the bound {bound} "
            f"for {scenario}"
        )
    return result
