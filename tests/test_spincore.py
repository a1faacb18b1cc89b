import importlib
import pkgutil
import sys
import time
from dataclasses import is_dataclass
from fractions import Fraction
from typing import get_type_hints

import pytest

import mkbell
from mkbell.classical import classical_bound
from mkbell.errors import CapExceeded
from mkbell.operators import global_operator
from mkbell.spincore import Scenario, Spin
from oracles import spectrum_contains

class TestExactBound:
    def test_normalization_of_huge_powers_is_fast(self):
        # (2s)**n / 2 at n = 10**5 stays exact and fast.
        start = time.perf_counter()
        bound = classical_bound(Scenario(10 ** 5, Spin(1)))
        assert time.perf_counter() - start < 0.5
        assert bound == Fraction(1, 2)


class TestSpin:
    @pytest.mark.parametrize(
        "twice,expected",
        [
            (1, ["1/2", "-1/2"]),
            (2, ["1", "0", "-1"]),
            (3, ["3/2", "1/2", "-1/2", "-3/2"]),
        ],
    )
    def test_outcome_values(self, twice, expected):
        values = [Fraction(t, 2) for t in Spin(twice).twice_outcomes()]
        assert [str(v) for v in values] == expected

    @pytest.mark.parametrize("twice", range(1, 12))
    def test_outcomes_sum_to_zero_and_match_dimension(self, twice):
        spin = Spin(twice)
        values = spin.twice_outcomes()
        assert len(values) == spin.dimension == twice + 1
        assert all(type(v) is int for v in values)
        assert sum(values) == 0

    def test_contains(self):
        spin = Spin(3)
        assert spectrum_contains(spin, Fraction(1, 2))
        assert spectrum_contains(spin, Fraction(-3, 2))
        assert not spectrum_contains(spin, Fraction(1))  # wrong parity for s=3/2
        assert not spectrum_contains(spin, 1)
        assert not spectrum_contains(spin, Fraction(5, 2))
        assert not spectrum_contains(spin, Fraction(1, 4))
        assert not spectrum_contains(spin, Fraction(1, 3))

    @pytest.mark.parametrize("text", ["1/2", "1", "3/2", "2", "5/2"])
    def test_string_round_trip(self, text):
        assert str(Spin.from_string(text)) == text

    def test_from_decimal_text(self):
        assert Spin.from_string("0.5") == Spin(1)
        assert Spin.from_string("1.5") == Spin(3)

    def test_rejects_bad_spins(self):
        with pytest.raises(ValueError):
            Spin(0)
        with pytest.raises(ValueError):
            Spin.from_string("1/3")

    @pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="no digit limit")
    def test_rejects_a_spin_too_long_to_print(self):
        # A literal of more than ``limit`` digits does not convert at all; it
        # gets the spin's own message, not Python's bare conversion error.
        limit = sys.get_int_max_str_digits()
        assert len(str(Spin.from_string(f"1e{limit - 1}"))) == limit
        assert len(str(Spin.from_string("1" * limit))) == limit
        for text in (f"1e{limit}", f"-1e{limit}", "1" * (limit + 1), "-" + "1" * (limit + 1),
                     "1/" + "2" * (limit + 1)):
            with pytest.raises(ValueError, match=f"^spin '{text[:6]}.* has more than {limit} "
                                                 "digits"):
                Spin.from_string(text)

    @pytest.mark.parametrize("text", ["1/0", "0/0", " 3/0 "])
    def test_zero_denominator_is_a_value_error(self, text):
        with pytest.raises(ValueError, match="zero denominator"):
            Spin.from_string(text)


class TestScenario:
    @pytest.mark.parametrize(
        "n,twice,dim", [(2, 1, 4), (3, 2, 27), (10, 1, 1024)]
    )
    def test_global_dimension(self, n, twice, dim):
        assert Scenario(n, Spin(twice)).global_dimension() == dim

    def test_cap_enforced(self):
        # The cap bounds what is allocated: the operator, not the scenario.
        scenario = Scenario(30, Spin(1))
        with pytest.raises(CapExceeded):
            global_operator(scenario)
        with pytest.raises(CapExceeded):
            global_operator(Scenario(10 ** 6, Spin(1)))
        global_operator(Scenario(30, Spin(1), dim_cap=1 << 31))  # override admits it

    def test_rejects_zero_parties(self):
        with pytest.raises(ValueError):
            Scenario(0, Spin(1))

    @pytest.mark.parametrize("cap", [0, -3, 2.5, "8", None])
    def test_rejects_a_cap_below_one(self, cap):
        with pytest.raises(ValueError, match="dim_cap must be an integer >= 1"):
            Scenario(2, Spin(1), dim_cap=cap)

    def test_smallest_cap_is_one_entry(self):
        scenario = Scenario(1, Spin(1), dim_cap=1)
        with pytest.raises(CapExceeded, match="exceeds cap 1$"):
            scenario.check_entries("a state vector")


MODULES = sorted(info.name for info in pkgutil.iter_modules(mkbell.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_dataclass_resolves_its_type_hints(name):
    # Annotations are strings (``from __future__ import annotations``); each
    # must name something the module binds, even where NumPy loads lazily.
    module = importlib.import_module(f"mkbell.{name}")
    for obj in vars(module).values():
        if isinstance(obj, type) and is_dataclass(obj) and obj.__module__ == module.__name__:
            get_type_hints(obj)
