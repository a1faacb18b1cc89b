"""Exact domain types: dyadic values, spins, scenarios, observable labels.

Spins are stored as twice-spin integers (units of hbar, hbar = 1) so that
half-integer outcomes never touch floating point.  Every classical value in
the toolkit is a dyadic rational ``numerator / 2**scale``; products of n
half-integer outcomes need scale at most n, so all bound arithmetic is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import CapExceeded

#: Default array budget: the total number of entries a path may build, as
#: counted by that path and enforced by ``Scenario.check_entries``.  With
#: D = (2s+1)**n and T = 4**(n//2) terms, a state vector counts D, a dense
#: matrix D**2, the commutation report T D**2, a sampled estimate T D, the
#: enumeration oracle 2n per strategy and the expansion n 2**n letters.
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


@dataclass(frozen=True)
class ExactValue:
    """A dyadic rational ``numerator / 2**scale`` with exact arithmetic.

    Instances normalize on construction (numerator odd or scale zero), so
    equality and hashing are structural.
    """

    numerator: int
    scale: int = 0

    def __post_init__(self):
        if self.scale < 0:
            raise ValueError("scale must be nonnegative")
        num, sc = int(self.numerator), int(self.scale)
        # Strip min(scale, trailing zero bits) factors of two in one shift.
        shift = min(sc, (num & -num).bit_length() - 1) if num else sc
        num >>= shift
        sc -= shift
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "scale", sc)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_int(cls, value: int) -> "ExactValue":
        return cls(value, 0)

    @classmethod
    def from_fraction(cls, frac: Fraction) -> "ExactValue":
        den = frac.denominator
        if den & (den - 1):
            raise ValueError(f"{frac} is not a dyadic rational")
        return cls(frac.numerator, den.bit_length() - 1)

    @classmethod
    def parse(cls, text: str) -> "ExactValue":
        """Parse "3", "-1/2", or a finite decimal such as "0.5"."""
        return cls.from_fraction(Fraction(text.strip()))

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "ExactValue") -> "ExactValue":
        sc = max(self.scale, other.scale)
        num = (self.numerator << (sc - self.scale)) + (other.numerator << (sc - other.scale))
        return ExactValue(num, sc)

    def __sub__(self, other: "ExactValue") -> "ExactValue":
        return self + (-other)

    def __mul__(self, other: "ExactValue") -> "ExactValue":
        return ExactValue(self.numerator * other.numerator, self.scale + other.scale)

    def __neg__(self) -> "ExactValue":
        return ExactValue(-self.numerator, self.scale)

    def __abs__(self) -> "ExactValue":
        return ExactValue(abs(self.numerator), self.scale)

    def _key(self, other: "ExactValue"):
        return (self.numerator << other.scale, other.numerator << self.scale)

    def __lt__(self, other):
        a, b = self._key(other)
        return a < b

    def __le__(self, other):
        a, b = self._key(other)
        return a <= b

    def __gt__(self, other):
        a, b = self._key(other)
        return a > b

    def __ge__(self, other):
        a, b = self._key(other)
        return a >= b

    def __float__(self) -> float:
        return self.numerator / (1 << self.scale)

    @property
    def is_zero(self) -> bool:
        return self.numerator == 0

    # -- formatting --------------------------------------------------------

    def as_fraction(self) -> Fraction:
        return Fraction(self.numerator, 1 << self.scale)

    def fraction_str(self) -> str:
        if self.scale == 0:
            return str(self.numerator)
        return f"{self.numerator}/{1 << self.scale}"

    def decimal_str(self) -> str:
        """Exact finite decimal representation (dyadics always have one)."""
        if self.scale == 0:
            return str(self.numerator)
        sign = "-" if self.numerator < 0 else ""
        digits = str(abs(self.numerator) * 5 ** self.scale).rjust(self.scale + 1, "0")
        return f"{sign}{digits[:-self.scale]}.{digits[-self.scale:]}"

    def __str__(self) -> str:
        return self.fraction_str()


ZERO = ExactValue(0)
ONE = ExactValue(1)


@dataclass(frozen=True)
class Spin:
    """A spin quantum number s >= 1/2, stored as the integer 2s."""

    twice_spin: int

    def __post_init__(self):
        if not isinstance(self.twice_spin, int) or self.twice_spin < 1:
            raise ValueError(f"twice_spin must be an integer >= 1, got {self.twice_spin!r}")

    @property
    def dimension(self) -> int:
        """Local Hilbert-space dimension 2s + 1."""
        return self.twice_spin + 1

    @property
    def value(self) -> ExactValue:
        """s itself, exactly."""
        return ExactValue(self.twice_spin, 1)

    def outcome_values(self) -> list[ExactValue]:
        """The descending outcome list s, s-1, ..., -s."""
        return [ExactValue(self.twice_spin - 2 * i, 1) for i in range(self.dimension)]

    def twice_outcomes(self) -> list[int]:
        """Outcomes as twice-value integers, descending 2s, 2s-2, ..., -2s."""
        return [self.twice_spin - 2 * i for i in range(self.dimension)]

    def contains(self, value: ExactValue) -> bool:
        """Whether ``value`` lies in the spectrum {-s, ..., s}."""
        if value.scale > 1:
            return False
        twice = value.numerator << (1 - value.scale)
        return abs(twice) <= self.twice_spin and (twice - self.twice_spin) % 2 == 0

    @classmethod
    def from_string(cls, text: str) -> "Spin":
        """Parse "1/2", "1", "3/2", ... (also accepts decimals like "0.5")."""
        frac = Fraction(text.strip())
        if frac.denominator not in (1, 2):
            raise ValueError(f"spin must be a half-integer, got {text!r}")
        return cls(int(2 * frac))

    def __str__(self) -> str:
        return self.value.fraction_str()


@dataclass(frozen=True)
class Scenario:
    """A problem instance: n parties, each holding one spin-s particle."""

    n: int
    spin: Spin
    dim_cap: int = DEFAULT_DIM_CAP

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError(f"party count must be an integer >= 1, got {self.n!r}")

    @property
    def local_dimension(self) -> int:
        return self.spin.dimension

    def global_dimension(self) -> int:
        return self.spin.dimension ** self.n

    def check_entries(self, what: str, entries=None) -> None:
        """Raise CapExceeded, before anything is allocated, when ``what``
        would hold more than ``dim_cap`` array entries in all.

        ``entries()`` counts them (default: the global dimension, one state
        vector).  Every count is at least 2**n, so once n reaches the cap's
        bit length this raises before any count such as (2s+1)**n is formed.
        """
        cap = self.dim_cap
        if self.n >= cap.bit_length():
            count = f"at least 2**{self.n}"
        else:
            count = (entries or self.global_dimension)()
            if count <= cap:
                return
        raise CapExceeded(f"{what} would hold {count} entries, which exceeds cap {cap}")

    def __str__(self) -> str:
        return f"n={self.n}, s={self.spin}"
