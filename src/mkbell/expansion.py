"""Symbolic expansion of the recursive Bell expression into product terms.

The expression for n parties is built by the pair recursion

    M_k = M_{k-1} (A_k + B_k) + K_{k-1} (A_k - B_k)
    K_k = K_{k-1} (A_k + B_k) + M_{k-1} (B_k - A_k)

with M_1 = A_1 and K_1 = B_1.  K_k is always the A<->B relabeling of M_k,
so a single pass produces both expansions.  Like terms are combined and
zero coefficients dropped, which is where the odd-n cancellation down to
2^(n-1) surviving terms happens.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from .spincore import LABEL_A, LABEL_B


def mermin_klyshko_pair(n: int):
    """Return the (M_n, K_n) expansions as dicts label-string -> int coeff."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    m = {LABEL_A: 1}
    k = {LABEL_B: 1}
    for _ in range(n - 1):
        new_m: dict[str, int] = defaultdict(int)
        new_k: dict[str, int] = defaultdict(int)
        for labels, c in m.items():
            new_m[labels + LABEL_A] += c
            new_m[labels + LABEL_B] += c
            new_k[labels + LABEL_B] += c
            new_k[labels + LABEL_A] -= c
        for labels, c in k.items():
            new_m[labels + LABEL_A] += c
            new_m[labels + LABEL_B] -= c
            new_k[labels + LABEL_A] += c
            new_k[labels + LABEL_B] += c
        m = {lab: c for lab, c in new_m.items() if c}
        k = {lab: c for lab, c in new_k.items() if c}
    return m, k


def expected_term_count(n: int) -> int:
    """2^(2 * floor(n/2)): 2^n terms for even n, 2^(n-1) for odd n."""
    return 1 << (2 * (n // 2))


@dataclass(frozen=True)
class TermExpansion:
    """The Bell expression as sorted (coefficient, label-string) terms.

    ``terms`` is the main expansion; ``companion`` is its A<->B relabeling
    (the K_n member of the recursion pair).
    """

    n: int
    terms: tuple[tuple[int, str], ...]
    companion: tuple[tuple[int, str], ...]

    @property
    def term_count(self) -> int:
        return len(self.terms)

    def as_dict(self) -> dict[str, int]:
        return {labels: c for c, labels in self.terms}


def _sorted_terms(expansion: dict[str, int]):
    return tuple((expansion[labels], labels) for labels in sorted(expansion))


def expand_terms(n: int) -> TermExpansion:
    """Expand the n-party Bell expression, combining like terms."""
    m, k = mermin_klyshko_pair(n)
    result = TermExpansion(n=n, terms=_sorted_terms(m), companion=_sorted_terms(k))
    assert result.term_count == expected_term_count(n)
    return result


def swap_labels(terms):
    """A<->B relabeling of a term tuple, re-sorted canonically."""
    table = str.maketrans(LABEL_A + LABEL_B, LABEL_B + LABEL_A)
    swapped = {labels.translate(table): c for c, labels in terms}
    return _sorted_terms(swapped)
