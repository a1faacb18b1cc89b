"""The Bell expression as one product over the parties, and its terms.

The n-party expression is the Mermin-Klyshko pair recursion

    M_k = M_{k-1} (A_k + B_k) + K_{k-1} (A_k - B_k)
    K_k = K_{k-1} (A_k + B_k) + M_{k-1} (B_k - A_k)

with M_1 = A_1 and K_1 = B_1.  For Z_k = M_k + i K_k a step is
Z_k = Z_{k-1} (1 - i)(A_k + i B_k), so every party contributes one factor:

    Z_n = M_n + i K_n = (1 - i)^(n-1) (A_1 + i B_1) x ... x (A_n + i B_n),

M_n = Re Z_n and K_n = Im Z_n: Mermin's Re prod_j (sigma_x + i sigma_y)
(PRL 65, 1838 (1990); Belinskii & Klyshko, Phys. Usp. 36, 653 (1993)).  It
holds wherever A_j and B_j take values: strategy outcomes (the proof of
the bound in ``classical.py``, and the tests' strategy values), matrices
and states (``operators.py``) and label strings (here).  ``prefactor`` is
(1 - i)^(n-1) and ``pair_step`` one factor (1 - i)(a + i b), on
(real, imaginary) pairs of exact values, ints or arrays.  The label string
with b letters B has coefficient Re[(1 - i)^(n-1) i^b] in M_n.  For odd n,
(1 - i)^(n-1) is real or imaginary, so half of the coefficients vanish and
2^(n-1) terms survive.
"""

from __future__ import annotations

from itertools import product

from .spincore import LABEL_B, LABELS, Scenario


def pair_step(m, k, a, b):
    """(m + i k) (1 - i)(a + i b) as (real, imaginary), on any numbers or arrays."""
    tot, dif = a + b, a - b
    return m * tot + k * dif, k * tot - m * dif


def prefactor(n: int) -> tuple[int, int]:
    """(1 - i)^(n-1) as exact (real, imaginary) Python ints."""
    re, im = 1, 0
    for _ in range(n - 1):
        re, im = pair_step(re, im, 1, 0)
    return re, im


def expected_term_count(n: int) -> int:
    """2^(2 * floor(n/2)): 2^n terms for even n, 2^(n-1) for odd n."""
    return 1 << (2 * (n // 2))


def check_letters(scenario: Scenario) -> None:
    """CapExceeded unless the n 2**n letters that ``expand_terms(n)`` goes
    through, one string of n letters per choice of labels, fit the
    scenario's array budget: the one rule of ``expand`` and of the sampler,
    checked before either expands."""
    n = scenario.n
    scenario.check_entries(f"the label strings for n={n}", lambda: n << n)


def expand_terms(n: int) -> tuple[tuple[int, str], ...]:
    """Expand the n-party Bell expression into (coefficient, labels) terms.

    The label string with b letters B has coefficient Re[(1 - i)^(n-1) i^b];
    the ``expected_term_count(n)`` nonzero ones (counted exactly in the tests)
    come in sorted order.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    re, im = prefactor(n)
    by_b = (re, -im, -re, im)  # Re[(1 - i)^(n-1) i^b], b mod 4
    terms = []
    for labels in map("".join, product(LABELS, repeat=n)):
        coeff = by_b[labels.count(LABEL_B) % 4]
        if coeff:
            terms.append((coeff, labels))
    return tuple(terms)
