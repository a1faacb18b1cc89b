"""Exact domain types: spins, scenarios, observable labels.

Spins are stored as twice-spin integers (units of hbar, hbar = 1) so that
half-integer outcomes never touch floating point.  Every classical value in
the toolkit (an outcome, a strategy value, the bound) is an exact
``fractions.Fraction``; products of n half-integer outcomes have a
denominator dividing 2**n.  ``Spin`` and ``Scenario`` are immutable named
tuples that check their fields when built.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from fractions import Fraction

from .errors import CapExceeded

#: Default array budget: the total number of entries a path may build, as
#: counted by that path and enforced by ``Scenario.check_entries``.  With
#: T = 4**(n//2) terms and at any spin, a state vector counts 2**n, a sampled
#: estimate T 2**n and the expansion n 2**n letters; the CLI's report table
#: counts its cells, rows times 6 or, sampled, 9.  With D = (2s+1)**n, a
#: dense matrix D**2 and, among the test oracles, a full-space state D, the
#: commutation report T D**2 and the enumeration 2n per strategy.
DEFAULT_DIM_CAP = 1 << 24

#: The two observable labels, in canonical order.
LABEL_A = "A"
LABEL_B = "B"
LABELS = (LABEL_A, LABEL_B)


def validate_labels(labels):
    """Check that ``labels`` is a nonempty string over {A, B}; return it."""
    if not labels or any(ch not in LABELS for ch in labels):
        raise ValueError(f"labels must be a nonempty string over 'A'/'B', got {labels!r}")
    return labels


class Spin(namedtuple("Spin", "twice_spin")):
    """A spin quantum number s >= 1/2, stored as the integer 2s."""

    __slots__ = ()

    def __new__(cls, twice_spin: int) -> Spin:
        if not isinstance(twice_spin, int) or twice_spin < 1:
            raise ValueError(f"twice_spin must be an integer >= 1, got {twice_spin!r}")
        return super().__new__(cls, twice_spin)

    @property
    def dimension(self) -> int:
        """Local Hilbert-space dimension 2s + 1."""
        return self.twice_spin + 1

    @property
    def value(self) -> Fraction:
        """s itself, exactly."""
        return Fraction(self.twice_spin, 2)

    def twice_outcomes(self) -> list[int]:
        """Outcomes as twice-value integers, descending 2s, 2s-2, ..., -2s."""
        return [self.twice_spin - 2 * i for i in range(self.dimension)]

    @classmethod
    def from_string(cls, text: str) -> "Spin":
        """Parse "1/2", "1", "3/2", ... (also accepts decimals like "0.5"); reject
        a spin with more digits than Python converts back to text, and a spin <= 0."""
        limit = sys.get_int_max_str_digits()
        too_long = ValueError(f"spin {text!r} has more than {limit} digits, the limit of "
                              "sys.get_int_max_str_digits(), so it cannot be printed")
        try:
            frac = Fraction(text.strip())
        except ZeroDivisionError:
            raise ValueError(f"spin has a zero denominator: {text!r}") from None
        except ValueError:  # a literal past the limit fails to convert at all
            if limit and sum(map(str.isdigit, text)) > limit:
                raise too_long from None
            raise
        if frac.denominator not in (1, 2):
            raise ValueError(f"spin must be a half-integer, got {text!r}")
        if limit and abs(frac.numerator) >= 10 ** limit:
            raise too_long
        if frac <= 0:
            raise ValueError(f"spin must be a positive half-integer, got {text!r}")
        return cls(int(2 * frac))

    def __str__(self) -> str:
        return str(self.value)


class Scenario(namedtuple("Scenario", "n spin dim_cap")):
    """A problem instance: n parties, each holding one spin-s particle, and
    ``dim_cap``, the array budget."""

    __slots__ = ()

    def __new__(cls, n: int, spin: Spin, dim_cap: int = DEFAULT_DIM_CAP) -> Scenario:
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"party count must be an integer >= 1, got {n!r}")
        if not isinstance(dim_cap, int) or dim_cap < 1:
            raise ValueError(f"dim_cap must be an integer >= 1, got {dim_cap!r}")
        return super().__new__(cls, n, spin, dim_cap)

    def global_dimension(self) -> int:
        """The full space's dimension (2s+1)**n, which only the dense path builds."""
        return self.spin.dimension ** self.n

    def check_entries(self, what: str, entries=None) -> None:
        """Raise CapExceeded, before anything is allocated, when ``what``
        would hold more than ``dim_cap`` array entries in all.

        ``entries`` is a callable that forms the count (default: 2**n, one
        state vector).  The count is at least 2**n, so once n reaches the
        cap's bit length this raises before any count such as (2s+1)**n is
        formed.
        """
        cap = self.dim_cap
        if self.n >= cap.bit_length():
            count = f"at least 2**{self.n}"
        else:
            count = entries() if entries else 1 << self.n
        if isinstance(count, str) or count > cap:
            raise CapExceeded(f"{what} would hold {count} entries, which exceeds cap {cap}")

    def __str__(self) -> str:
        return f"n={self.n}, s={self.spin}"
