import time
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mkbell.classical import classical_bound
from mkbell.errors import CapExceeded
from mkbell.operators import global_operator
from mkbell.spincore import ExactValue, Scenario, Spin

dyadics = st.builds(
    ExactValue,
    numerator=st.integers(min_value=-10 ** 9, max_value=10 ** 9),
    scale=st.integers(min_value=0, max_value=24),
)


class TestExactValue:
    def test_normalization(self):
        assert ExactValue(4, 2) == ExactValue(1, 0)
        assert ExactValue(6, 1) == ExactValue(3, 0)
        assert ExactValue(0, 5) == ExactValue(0, 0)

    @given(st.integers(min_value=-10 ** 30, max_value=10 ** 30),
           st.integers(min_value=0, max_value=120))
    @example(0, 7)
    @example(-3 << 40, 50)
    def test_normalization_matches_fraction(self, numerator, scale):
        value = ExactValue(numerator, scale)
        assert value.as_fraction() == Fraction(numerator, 1 << scale)
        assert value.scale == 0 or value.numerator % 2 == 1
        if numerator == 0:
            assert (value.numerator, value.scale) == (0, 0)

    def test_normalization_of_huge_powers_is_fast(self):
        # 2**(n-1) / 2**n at n = 10**5: one shift, not 10**5 halvings.
        start = time.perf_counter()
        bound = classical_bound(Scenario(10 ** 5, Spin(1)))
        assert time.perf_counter() - start < 0.5
        assert (bound.numerator, bound.scale) == (1, 1)

    def test_basic_arithmetic(self):
        half = ExactValue(1, 1)
        assert half + half == ExactValue(1)
        assert half * half == ExactValue(1, 2)
        assert -half == ExactValue(-1, 1)
        assert abs(ExactValue(-3, 1)) == ExactValue(3, 1)
        assert half - ExactValue(1) == ExactValue(-1, 1)

    def test_comparisons(self):
        assert ExactValue(1, 1) < ExactValue(3, 2)
        assert ExactValue(-1, 1) < ExactValue(0)
        assert ExactValue(81, 1) >= ExactValue(81, 1)

    def test_fraction_str(self):
        assert ExactValue(81, 1).fraction_str() == "81/2"
        assert ExactValue(4, 2).fraction_str() == "1"
        assert ExactValue(-1, 1).fraction_str() == "-1/2"

    def test_decimal_str(self):
        assert ExactValue(1, 1).decimal_str() == "0.5"
        assert ExactValue(-3, 2).decimal_str() == "-0.75"
        assert ExactValue(81, 1).decimal_str() == "40.5"
        assert ExactValue(7).decimal_str() == "7"

    def test_parse(self):
        assert ExactValue.parse("1/2") == ExactValue(1, 1)
        assert ExactValue.parse("-0.25") == ExactValue(-1, 2)
        assert ExactValue.parse("3") == ExactValue(3)
        with pytest.raises(ValueError):
            ExactValue.parse("1/3")

    @given(dyadics, dyadics)
    def test_addition_commutes(self, a, b):
        assert a + b == b + a

    @given(dyadics, dyadics, dyadics)
    def test_addition_associates(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(dyadics, dyadics, dyadics)
    def test_multiplication_distributes(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(dyadics)
    def test_decimal_round_trip(self, a):
        assert ExactValue.parse(a.decimal_str()) == a

    @given(dyadics)
    def test_float_agrees_with_fraction(self, a):
        assert float(a) == a.numerator / 2 ** a.scale


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
        values = Spin(twice).outcome_values()
        assert [v.fraction_str() for v in values] == expected

    @pytest.mark.parametrize("twice", range(1, 12))
    def test_outcomes_sum_to_zero_and_match_dimension(self, twice):
        spin = Spin(twice)
        values = spin.outcome_values()
        assert len(values) == spin.dimension == twice + 1
        total = values[0]
        for v in values[1:]:
            total = total + v
        assert total == ExactValue(0)

    def test_contains(self):
        spin = Spin(3)
        assert spin.contains(ExactValue(1, 1))
        assert not spin.contains(ExactValue(1))  # wrong parity for s=3/2
        assert not spin.contains(ExactValue(5, 1))

    @pytest.mark.parametrize("text", ["1/2", "1", "3/2", "2", "5/2"])
    def test_string_round_trip(self, text):
        assert str(Spin.from_string(text)) == text

    def test_from_decimal_string(self):
        assert Spin.from_string("0.5") == Spin(1)
        assert Spin.from_string("1.5") == Spin(3)

    def test_rejects_bad_spins(self):
        with pytest.raises(ValueError):
            Spin(0)
        with pytest.raises(ValueError):
            Spin.from_string("1/3")


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
