import importlib
import pkgutil
import re
import sys
import time
from fractions import Fraction
from types import FunctionType
from typing import get_type_hints

import pytest

import mkbell
from mkbell import spincore
from mkbell.classical import ClassicalResult, Strategy, classical_bound
from mkbell.errors import CapExceeded
from mkbell.measurement import BellEstimate, SampleReport
from mkbell.operators import GlobalOperator, global_operator
from mkbell.quantum import EigenResult, SpectrumReport
from mkbell.spincore import DEFAULT_DIM_CAP, Scenario, Spin, check_digits
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
                               r"digits, the limit of sys\.get_int_max_str_digits\(\)$"):
                Spin.from_string(text)

    def test_str_never_raises(self):
        # A spin past the digit limit is shown as the power of two below it,
        # so a Scenario can always name itself (tests/test_budget.py).
        for twice in (2 * 10 ** 5000, 2 * 10 ** 5000 + 1):
            assert str(Spin(twice)) == "at least 2**16609"
        assert str(Scenario(3, Spin(2 * 10 ** 5000))) == "n=3, s=at least 2**16609"

    @pytest.mark.parametrize("text", ["1/0", "0/0", " 3/0 "])
    def test_zero_denominator_is_a_value_error(self, text):
        with pytest.raises(ValueError, match="zero denominator"):
            Spin.from_string(text)


class TestDigitLimit:
    """``check_digits``, the one reader of Python's digit limit, at each
    boundary of its three cases: a literal, an int and a shifted power."""

    @pytest.fixture(autouse=True)
    def short_limit(self):
        default = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        yield
        sys.set_int_max_str_digits(default)

    @pytest.mark.parametrize("number,exp,shift,over", [
        ("1" * 640, 1, 0, False), ("-" + "1" * 641, 1, 0, True),
        (10 ** 640 - 1, 1, 0, False), (-10 ** 640, 1, 0, True),
        (10, 639, 0, False), (10, 640, 0, True),
        (2, 2126, 0, False), (2, 2127, 0, True),  # 2**2126 < 10**640 < 2**2127
        (20, 640, 641, False), (20, 640, 640, True),  # 20**640 >> 640 is 10**640
        (3, 10 ** 12, 0, True),  # decided from bit lengths
    ], ids=lambda value: str(value)[:8])
    def test_boundary(self, number, exp, shift, over):
        if not over:
            check_digits("the value", number, exp, shift)
            return
        with pytest.raises(ValueError) as info:
            check_digits("the value", number, exp, shift)
        assert str(info.value) == ("the value has more than 640 digits, the limit of "
                                   "sys.get_int_max_str_digits()")

    def test_a_printed_result_raises_the_error_it_is_given(self):
        with pytest.raises(CapExceeded, match="^the value has more than 640 digits"):
            check_digits("the value", 10, 640, error=CapExceeded)

    @pytest.mark.parametrize("text,over", [
        ("1e639", False), ("1e640", True), ("-1E640", True), (" 1e640 ", True),
        ("0.5e639", False), ("5e-1", False), ("1e-640", True), ("0e640", True),
        ("1e10000000", True), ("1e-100000000", True), ("1e1_000_000_000", True),
    ])
    def test_a_spin_exponent_is_decided_before_conversion(self, monkeypatch, text, over):
        # Fraction forms 10**|e|, so a short literal may name a huge power;
        # from |e| = 640 on, the literal is refused before Fraction sees it.
        if not over:
            assert Spin.from_string(text) == Spin(int(2 * Fraction(text)))
            return

        def no_conversion(*args):
            raise AssertionError("Fraction converted a literal past the limit")

        monkeypatch.setattr(spincore, "Fraction", no_conversion)
        with pytest.raises(ValueError) as info:
            Spin.from_string(text)
        assert str(info.value) == (f"spin {text!r} has more than 640 digits, the limit "
                                   "of sys.get_int_max_str_digits()")

    def test_no_limit(self):
        sys.set_int_max_str_digits(0)
        check_digits("the value", "1" * 5000)
        check_digits("the value", 10, 5000)


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


class TestRecordContract:
    """``Spin`` and ``Scenario`` are named tuples that check their fields in
    ``__new__``: built by position or keyword, immutable, equal and hashed
    by value, printed as before."""

    def test_positional_and_keyword_construction_agree_with_the_default_cap(self):
        assert Spin(3) == Spin(twice_spin=3)
        built = [Scenario(2, Spin(1)), Scenario(n=2, spin=Spin(1)),
                 Scenario(2, Spin(1), DEFAULT_DIM_CAP), Scenario(2, spin=Spin(1), dim_cap=1 << 24)]
        assert all(scenario == built[0] for scenario in built)
        assert built[0].dim_cap == DEFAULT_DIM_CAP == 1 << 24
        assert Scenario(5, Spin(2), 7) == Scenario(n=5, spin=Spin(2), dim_cap=7)
        assert Scenario(5, Spin(2), 7).dim_cap == 7

    @pytest.mark.parametrize("build,message", [
        (lambda: Spin(0), "twice_spin must be an integer >= 1, got 0"),
        (lambda: Spin(1.5), "twice_spin must be an integer >= 1, got 1.5"),
        (lambda: Scenario(0, Spin(1)), "party count must be an integer >= 1, got 0"),
        (lambda: Scenario(2, Spin(1), dim_cap=0), "dim_cap must be an integer >= 1, got 0"),
    ])
    def test_validation_messages(self, build, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()

    @pytest.mark.parametrize("record,field", [
        (Spin(1), "twice_spin"), (Scenario(2, Spin(1)), "n"),
        (Scenario(2, Spin(1)), "spin"), (Scenario(2, Spin(1)), "dim_cap"),
        (Scenario(2, Spin(1)), "no_such_field"),
    ])
    def test_fields_cannot_be_assigned(self, record, field):
        with pytest.raises(AttributeError):
            setattr(record, field, 3)

    def test_equal_values_hash_equally(self):
        assert hash(Spin(3)) == hash(Spin(twice_spin=3))
        assert hash(Scenario(4, Spin(3))) == hash(Scenario(n=4, spin=Spin(3), dim_cap=1 << 24))
        assert len({Scenario(4, Spin(3)), Scenario(n=4, spin=Spin(twice_spin=3)),
                    Scenario(4, Spin(3), dim_cap=8)}) == 2

    def test_repr_and_str(self):
        scenario = Scenario(2, Spin(1))
        assert repr(scenario) == "Scenario(n=2, spin=Spin(twice_spin=1), dim_cap=16777216)"
        assert str(scenario) == "n=2, s=1/2"
        assert (repr(Spin(3)), str(Spin(3))) == ("Spin(twice_spin=3)", "3/2")

    @pytest.mark.parametrize("record,fields", [
        (Spin, ("twice_spin",)),
        (Scenario, ("n", "spin", "dim_cap")),
        (Strategy, ("a", "b")),
        (ClassicalResult, ("max_value", "argmax", "strategies_checked")),
        (SpectrumReport, ("eigenvalues", "top_value", "degeneracy_of_top")),
        (EigenResult, ("value", "iterations", "residual")),
        (SampleReport, ("outcome_counts", "correlation_mean", "correlation_stderr")),
        (BellEstimate, ("value", "stderr", "per_term", "shots_per_setting")),
        (GlobalOperator, ("scenario",)),
    ])
    def test_every_record_keeps_its_fields(self, record, fields):
        assert record._fields == fields
        assert record.__slots__ == ()


MODULES = sorted(info.name for info in pkgutil.iter_modules(mkbell.__path__))


def _functions(module):
    """Every function ``module`` defines: its own, and its classes' methods,
    ``__new__`` among them, with properties' getters."""
    for obj in vars(module).values():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        members = vars(obj).values() if isinstance(obj, type) else [obj]
        for member in members:
            member = getattr(member, "__func__", getattr(member, "fget", member))
            if isinstance(member, FunctionType):
                yield member


@pytest.mark.parametrize("name", MODULES)
def test_every_dataclass_resolves_its_type_hints(name):
    # Annotations are strings (``from __future__ import annotations``); each
    # must name something the module binds, even where NumPy loads lazily.
    # The records are named tuples, whose fields carry no annotations, so
    # the check runs on every function the module defines, ``__new__`` too.
    module = importlib.import_module(f"mkbell.{name}")
    functions = list(_functions(module))
    assert functions
    for function in functions:
        get_type_hints(function)


def test_type_hint_check_reaches_the_records():
    names = {f.__qualname__ for f in _functions(importlib.import_module("mkbell.spincore"))}
    assert {"Spin.__new__", "Scenario.__new__", "Spin.dimension", "Spin.from_string",
            "validate_labels"} <= names
    assert get_type_hints(Scenario.__new__) == {
        "n": int, "spin": Spin, "dim_cap": int, "return": Scenario}
