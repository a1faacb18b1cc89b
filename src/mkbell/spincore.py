"""Exact domain types: spins, scenarios, observable labels.

Spins are stored as twice-spin integers (units of hbar, hbar = 1) so that
half-integer outcomes never touch floating point.  Every classical value in
the toolkit (an outcome, a strategy value, the bound) is an exact
``fractions.Fraction``; products of n half-integer outcomes have a
denominator dividing 2**n.  ``Spin`` and ``Scenario`` are immutable named
tuples that check their fields when built.
"""

from __future__ import annotations

import re
import sys
from collections import namedtuple
from fractions import Fraction

from .errors import CapExceeded

#: Default array budget: the total number of entries a path may build, as
#: counted by that path and decided by ``check_budget``.  At any spin, a
#: state vector counts 2**n, and the expansion n 2**n letters, for ``expand``
#: and a sampled estimate alike; the CLI's report table counts its cells,
#: rows times 6 or, sampled, 9.  With D = (2s+1)**n and T = 4**(n//2) terms,
#: a dense matrix D**2 and, among the test oracles, a full-space state D, the
#: commutation report T D**2 and the enumeration 2n per strategy.
DEFAULT_DIM_CAP = 1 << 24

#: A decimal literal with an exponent; group 1 is the exponent, as ``int`` reads it.
_DECIMAL_EXPONENT = re.compile(r"[-+]?(?=\.?\d)[\d_]*(?:\.[\d_]*)?[eE]([-+]?\d+(?:_\d+)*)")

#: The two observable labels, in canonical order.
LABEL_A = "A"
LABEL_B = "B"
LABELS = (LABEL_A, LABEL_B)


def validate_labels(labels):
    """Check that ``labels`` is a nonempty string over {A, B}; return it."""
    if not labels or any(ch not in LABELS for ch in labels):
        raise ValueError(f"labels must be a nonempty string over 'A'/'B', got {labels!r}")
    return labels


def check_budget(what: str, cap: int, count, unit: str = "entries", least: int = 0) -> None:
    """Raise CapExceeded, before anything is allocated, when ``what`` would
    hold more than ``cap`` ``unit``: the one place that decides the array budget.

    ``count`` is a callable that forms the count, and 2**``least`` a lower
    bound on it.  The count is shown exactly up to 2000 bits and as
    ``at least 2**k`` past that: 2**2000 has 603 digits, fewer than any limit
    Python prints to (640).  It is formed unless 2**least is past both the cap
    and 2**2000, where neither the decision nor the message needs it.  So a
    caller whose count can be huge passes a ``least`` of at least a third of
    its bits, and no count such as (2s+1)**n is formed for a huge n.
    """
    if least >= max(cap.bit_length(), 2000):
        shown = f"at least 2**{least}"
    else:
        total = count()
        if total <= cap:
            return
        bits = total.bit_length()
        shown = total if bits <= 2000 else f"at least 2**{bits - 1}"
    raise CapExceeded(f"{what} would hold {shown} {unit}, which exceeds cap {cap}")


def check_digits(what: str, number: int | str, exp: int = 1, shift: int = 0,
                 error: type[Exception] = ValueError) -> None:
    """Raise ``error`` when ``what`` has more digits than Python converts
    between int and text: the one reader of ``sys.get_int_max_str_digits()``
    (0 sets no limit).

    ``number`` is a literal, whose digit characters are counted, or an int
    that stands for ``number**exp >> shift``.  The power is compared with
    10**limit from bit lengths, and formed only when they do not decide, with
    fewer than twice 10**limit's bits.  An input keeps the default ValueError;
    an integer the CLI prints passes ``CapExceeded``.
    """
    limit = sys.get_int_max_str_digits()
    if not limit:
        return
    if isinstance(number, str):
        over = sum(map(str.isdigit, number)) > limit
    else:
        base, floor = abs(number), 10 ** limit << shift
        bits, top = base.bit_length(), floor.bit_length()
        over = exp * (bits - 1) >= top or exp * bits >= top and base ** exp >= floor
    if over:
        raise error(f"{what} has more than {limit} digits, the limit of "
                    "sys.get_int_max_str_digits()")


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
        a spin with more digits than Python converts back to text
        (``check_digits``), and a spin <= 0.

        The literal is decided before ``Fraction`` converts it: its digit
        characters, and for a decimal exponent e the power 10**|e| that the
        conversion forms, are held to the same limit."""
        what = f"spin {text!r}"
        check_digits(what, text)
        decimal = _DECIMAL_EXPONENT.fullmatch(text.strip())
        if decimal:
            check_digits(what, 10, abs(int(decimal[1])))
        try:
            frac = Fraction(text.strip())
        except ZeroDivisionError:
            raise ValueError(f"spin has a zero denominator: {text!r}") from None
        if frac.denominator not in (1, 2):
            raise ValueError(f"spin must be a half-integer, got {text!r}")
        check_digits(what, frac.numerator)
        if frac <= 0:
            raise ValueError(f"spin must be a positive half-integer, got {text!r}")
        return cls(int(2 * frac))

    def __str__(self) -> str:
        try:
            return str(self.value)
        except ValueError:  # more digits than Python converts to text
            return f"at least 2**{self.twice_spin.bit_length() - 2}"


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

    def check_entries(self, what: str, entries=None, least: int = 0) -> None:
        """``check_budget`` for ``what``, counted in array entries against
        ``dim_cap``.  ``entries`` is a callable that forms the count (default:
        2**n, one state vector), and 2**``least`` a lower bound on it.  Every
        count is at least 2**n, and n is at least a third of the bits of 2**n,
        n 2**n and 2n 4**n; a count with more bits passes ``least``."""
        n = self.n
        check_budget(what, self.dim_cap, entries or (lambda: 1 << n), least=max(n, least))

    def __str__(self) -> str:
        return f"n={self.n}, s={self.spin}"
