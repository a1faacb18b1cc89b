import itertools
from collections import defaultdict
from fractions import Fraction

import numpy as np
import pytest

from mkbell.expansion import (
    expand_terms,
    expected_term_count,
    mermin_klyshko_pair,
    pair_step,
    prefactor,
    swap_labels,
)

TWO_PARTY_TERMS = ((1, "AA"), (1, "AB"), (1, "BA"), (-1, "BB"))

# The two three-party companions; each is the A<->B mirror of the other.
THREE_PARTY_MAIN = ((2, "AAB"), (2, "ABA"), (2, "BAA"), (-2, "BBB"))
THREE_PARTY_COMPANION = ((-2, "AAA"), (2, "ABB"), (2, "BAB"), (2, "BBA"))


def test_single_party_base_case():
    e = expand_terms(1)
    assert e.terms == ((1, "A"),)
    assert e.companion == ((1, "B"),)


def test_two_party_terms():
    assert expand_terms(2).terms == TWO_PARTY_TERMS


def test_three_party_terms():
    e = expand_terms(3)
    assert e.terms == THREE_PARTY_MAIN
    assert e.companion == THREE_PARTY_COMPANION


@pytest.mark.parametrize("n", range(1, 11))
def test_term_count(n):
    e = expand_terms(n)
    assert e.term_count == expected_term_count(n) == 1 << (2 * (n // 2))
    assert len(e.companion) == e.term_count


@pytest.mark.parametrize("n", [3, 5, 7])
def test_odd_n_coefficients(n):
    e = expand_terms(n)
    assert e.term_count == 1 << (n - 1)
    magnitude = 1 << ((n - 1) // 2)
    assert all(abs(c) == magnitude for c, _ in e.terms)
    assert all(abs(c) == magnitude for c, _ in e.companion)


@pytest.mark.parametrize("n", range(1, 9))
def test_companion_is_label_swap(n):
    e = expand_terms(n)
    assert swap_labels(e.terms) == e.companion
    assert swap_labels(e.companion) == e.terms


@pytest.mark.parametrize("n", range(1, 9))
def test_terms_sorted_and_unique(n):
    e = expand_terms(n)
    labels = [lab for _, lab in e.terms]
    assert labels == sorted(labels)
    assert len(set(labels)) == len(labels)
    assert all(len(lab) == n for lab in labels)
    assert all(c != 0 for c, _ in e.terms)


def test_pair_recursion_step_consistency():
    # One unrolled step: M_3 must equal M_2 (A+B) + K_2 (A-B) termwise.
    m2, k2 = mermin_klyshko_pair(2)
    built = {}
    for lab, c in m2.items():
        built[lab + "A"] = built.get(lab + "A", 0) + c
        built[lab + "B"] = built.get(lab + "B", 0) + c
    for lab, c in k2.items():
        built[lab + "A"] = built.get(lab + "A", 0) + c
        built[lab + "B"] = built.get(lab + "B", 0) - c
    built = {lab: c for lab, c in built.items() if c}
    m3, _ = mermin_klyshko_pair(3)
    assert built == m3


def _pair_recursion(n):
    """Oracle: the (M_n, K_n) label dicts by the real pair recursion,
    M_k = M_{k-1} (A + B) + K_{k-1} (A - B), K_k = K_{k-1} (A + B) + M_{k-1} (B - A)."""
    m = {"A": 1}
    k = {"B": 1}
    for _ in range(n - 1):
        new_m = defaultdict(int)
        new_k = defaultdict(int)
        for labels, c in m.items():
            new_m[labels + "A"] += c
            new_m[labels + "B"] += c
            new_k[labels + "B"] += c
            new_k[labels + "A"] -= c
        for labels, c in k.items():
            new_m[labels + "A"] += c
            new_m[labels + "B"] -= c
            new_k[labels + "A"] += c
            new_k[labels + "B"] += c
        m = {lab: c for lab, c in new_m.items() if c}
        k = {lab: c for lab, c in new_k.items() if c}
    return m, k


@pytest.mark.parametrize("n", range(1, 13))
def test_product_form_matches_pair_recursion(n):
    assert mermin_klyshko_pair(n) == _pair_recursion(n)


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
