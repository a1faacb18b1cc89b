import itertools
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from mkbell.expansion import expand_terms, expected_term_count, pair_step, prefactor
from oracles import pair_recursion

TWO_PARTY_TERMS = ((1, "AA"), (1, "AB"), (1, "BA"), (-1, "BB"))
THREE_PARTY_MAIN = ((2, "AAB"), (2, "ABA"), (2, "BAA"), (-2, "BBB"))

_SWAP = str.maketrans("AB", "BA")


def test_single_party_base_case():
    assert expand_terms(1) == ((1, "A"),)


@pytest.mark.parametrize("n", [0, -1])
def test_no_parties_is_refused(n):
    with pytest.raises(ValueError, match=f"^n must be >= 1, got {n}$"):
        expand_terms(n)


def test_two_party_terms():
    assert expand_terms(2) == TWO_PARTY_TERMS


def test_three_party_terms():
    assert expand_terms(3) == THREE_PARTY_MAIN


@pytest.mark.parametrize("n", range(1, 11))
def test_term_count(n):
    e = expand_terms(n)
    assert len(e) == expected_term_count(n) == 1 << (2 * (n // 2))


@pytest.mark.parametrize("n", range(1, 61))
def test_term_count_without_expanding(n):
    # The C(n, b) label strings with b letters B survive where
    # Re[(1 - i)^(n-1) i^b] != 0; summed, they are the count expand_terms
    # returns, here up to n = 60, far past any n whose strings fit in memory.
    re, im = 1, 0
    for _ in range(n - 1):
        re, im = re + im, im - re  # times (1 - i)
    count = 0
    for b in range(n + 1):
        if re:
            count += comb(n, b)
        re, im = -im, re  # times i
    assert count == expected_term_count(n)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_odd_n_coefficients(n):
    e = expand_terms(n)
    assert len(e) == 1 << (n - 1)
    magnitude = 1 << ((n - 1) // 2)
    assert all(abs(c) == magnitude for c, _ in e)


@pytest.mark.parametrize("n", range(1, 9))
def test_companion_is_label_swap(n):
    # The recursion's other half K_n is M_n with A and B swapped.
    _, k = pair_recursion(n)
    assert {labels.translate(_SWAP): c for c, labels in expand_terms(n)} == k


@pytest.mark.parametrize("n", range(1, 9))
def test_terms_sorted_and_unique(n):
    e = expand_terms(n)
    labels = [lab for _, lab in e]
    assert labels == sorted(labels)
    assert len(set(labels)) == len(labels)
    assert all(len(lab) == n for lab in labels)
    assert all(c != 0 for c, _ in e)


@pytest.mark.parametrize("n", range(1, 13))
def test_product_form_matches_pair_recursion(n):
    m, _ = pair_recursion(n)
    assert {labels: c for c, labels in expand_terms(n)} == m


@pytest.mark.parametrize("n", range(1, 40))
def test_prefactor(n):
    re, im = prefactor(n)
    assert type(re) is int and type(im) is int
    assert complex(re, im) == (1 - 1j) ** (n - 1)


def _gaussian(m, k, a, b):
    return complex(m, k) * (1 - 1j) * complex(a, b)


def test_pair_step_exact_values():
    values = [Fraction(v, 2) for v in (-3, -1, 1, 5)]
    for m, k, a, b in itertools.product(values, repeat=4):
        re, im = pair_step(m, k, a, b)
        assert isinstance(re, Fraction) and isinstance(im, Fraction)
        want = _gaussian(float(m), float(k), float(a), float(b))
        assert complex(float(re), float(im)) == want


def test_pair_step_ints():
    for m, k, a, b in itertools.product((-7, -2, 0, 3), repeat=4):
        re, im = pair_step(m, k, a, b)
        assert type(re) is int and type(im) is int
        assert complex(re, im) == _gaussian(m, k, a, b)
    big = 3 ** 80  # beyond int64 and float: stays exact
    assert pair_step(big, 0, 1, 0) == (big, -big)


def test_pair_step_float_arrays():
    rng = np.random.default_rng(17)
    m, k, a, b = (rng.integers(-40, 40, size=50) / 2.0 for _ in range(4))
    re, im = pair_step(m, k, a, b)
    assert re.dtype == im.dtype == np.float64
    want = (m + 1j * k) * (1 - 1j) * (a + 1j * b)
    assert np.array_equal(re + 1j * im, want)
