"""Eigen-analysis of the global Bell operator, in closed form.

The operator is real symmetric, so the whole pipeline works over real
vectors.  A dense symmetric eigensolver gives full spectra for small
dimensions and serves as the oracle there.

**Blocks.**  Label the local levels by outcome s, s-1, ..., -s and pair
level s-p with level -(s-p), p = 0, ..., ceil(s)-1.  A is diagonal and B
maps level s-p to level -(s-p) and back with entry s-p, so both map the span
of each level pair into itself, acting there as (s-p) sigma_z and
(s-p) sigma_x; for integer s both vanish on the middle level 0.  The product
space therefore splits into invariant blocks, one for each choice of a level
pair or the middle level at every party.  The product form of
``expansion.py``, M_n = Re[(1 - i)^(n-1) (A_1 + i B_1) x ... x (A_n + i B_n)],
is linear in each party's pair (A_j, B_j).  On the block of level pairs
(p_1, ..., p_n) it is thus prod_j 2(s - p_j) M_n^(1/2), where M_n^(1/2) is
the 2**n x 2**n spin-1/2 operator, and on a block that holds a middle level
it is zero.

**Rank two.**  On a level pair, A + iB = (s-p) v v^T with v = (1, i), and
v^T v = 1 + i^2 = 0.  So on the block of the extreme levels +-s,
Z_n = c u u^T with u = (x)_j v / sqrt(2), a unit vector with u^T u = 0, and
c = (1 - i)^(n-1) (2s)^n.  Write c = |c| e^(i theta).  For
x = sqrt(2) Re(e^(i theta/2) u) and y = sqrt(2) Im(e^(i theta/2) u), which
are orthonormal because u^T u = 0,

    M_n = Re(c u u^T) = |c|/2 (x x^T - y y^T),

so M_n has rank two there, with eigenvalues +-|c|/2 and zeros.  At spin 1/2
the extreme block is the whole space: the spin-1/2 spectrum is
{+-q, 0 x (2**n - 2)} with q = 2**(3(n-1)/2) / 2**n.  The spin-s spectrum is
q and -q scaled by every prod_j 2(s - p_j), plus zeros.

**Top eigenpair.**  The top eigenvalue (2s)**n q = 2**(3(n-1)/2) s**n is
simple and lies in the extreme block; its eigenvector x is Cabello's
multilevel GHZ state (Phys. Rev. A 63, 022104 (2001)), the maximal violator.
With theta = -pi (n-1)/4, the string of extreme levels with b parties at -s
has amplitude

    x_b = 2**((1-n)/2) cos(pi (4b - n + 1) / 8),

and every other amplitude is zero.  So the commands never leave the
extreme block, where x depends only on b.

**Certificate on n + 1 amplitudes.**  M_n commutes with every permutation
of the parties, so it maps the states symmetric under them, spanned by the
Dicke states with b parties at -s (R. H. Dicke, Phys. Rev. 93, 99 (1954);
G. Toth and O. Guehne, PRL 102, 170503 (2009)), into themselves; on that
span the 2**n norm is the C(n, b)-weighted norm of the n + 1 amplitudes.
Rank one makes M x explicit: A + iB = v v^T / 2 with v = (1, i) at spin 1/2,
so (A + iB) x ... x (A + iB) = 2**-n V V^T with V the string's product of
v entries, i**b, and for a symmetric x

    S = sum_b C(n, b) i**b x_b,    (M x)_b = 2**-n Re[(1 - i)^(n-1) i**b S],
    lam = sum_b C(n, b) x_b (M x)_b,
    residual**2 = sum_b C(n, b) ((M x)_b - lam x_b)**2.

``largest_eigenpair`` evaluates these in O(n) float operations, with no
array: the weights C(n, b) / 2**(n-1) come from exact integer division, and
the powers of two that x_b, S and (1 - i)^(n-1) carry combine into one,
2**(k-1) with k = floor((n-1)/2), applied with ``math.ldexp`` to lam and
the residual ((1 - i)^(n-1) / 2**k is +-1, +-i or +-1 +-i, exactly).  So
every intermediate stays near 1 while the top eigenvalue is a float.  This is
the one-matvec check on the 2**n strings, reduced without approximation to
the symmetric span: lam = (2s)**n x.M^(1/2)x, and the true residual, scaled
alike, must be at most tol * max(1, |lam|), or NotConverged is raised.  A
wrong amplitude or a wrong factor v fails it.  Only sampling needs x on its
2**n entries; ``measurement.top_state`` builds it there.

**Gap.**  For n >= 2 the next eigenvalue is the largest of
(2s)**(n-1) (2s - 2) q (the next largest block scale, s >= 3/2) and 0 (a
zero of the spin-1/2 spectrum), so lambda[-1] - lambda[-2] = top min(1, 1/s).
For n = 1, M_1 = A, whose levels are 1 apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from .classical import classical_max
from .errors import CapExceeded, NotConverged
from .expansion import prefactor
from .spincore import Scenario

#: v = (1, i): at spin 1/2, A + iB = v v^T / 2 on the levels (+1/2, -1/2).
RANK_ONE = (1, 1j)


def predicted_quantum_max(scenario: Scenario) -> float:
    """The greatest eigenvalue formula 2**(3(n-1)/2) s**n, formed as
    ldexp(r s**n, floor(3(n-1)/2)) with r = 1 or sqrt(2), and at s = 1/2 as
    ldexp(r, floor(3(n-1)/2) - n), so that no factor leaves the float range
    before the value does; raises OverflowError past the range."""
    n, twice = scenario.n, scenario.spin.twice_spin
    exponent, odd = divmod(3 * (n - 1), 2)
    r = math.sqrt(2.0) if odd else 1.0
    if twice == 1:  # s**n = 2**-n would underflow first
        return math.ldexp(r, exponent - n)
    top = math.ldexp(r * (twice / 2.0) ** n, exponent)
    if math.isinf(top):  # r s**n alone overflowed
        raise OverflowError(f"the top eigenvalue of {scenario} is past the float range")
    return top


def block_scale(scenario: Scenario) -> float:
    """(2s)**n, the one factor from the spin-1/2 operator to the spin-s one on
    the extreme block; raises CapExceeded when it, the top eigenvalue
    2**(3(n-1)/2) s**n or its ratio 2**((n-1)/2) to the classical bound is not
    a finite float (at s = 1/2 the ratio leaves the range first, from
    n = 2049)."""
    try:
        scale = float(scenario.spin.twice_spin) ** scenario.n
        predicted_quantum_max(scenario)
        predicted_ratio(scenario.n)
    except OverflowError:
        raise CapExceeded(f"the top eigenvalue of {scenario}, or its ratio to the classical "
                          "bound, is past the float range") from None
    return scale


def certificate_scale(scenario: Scenario) -> float:
    """``block_scale``, once the certificate's n + 1 amplitudes are within the
    array budget: the checks ``largest_eigenpair`` makes before it runs."""
    scenario.check_entries(f"the symmetric amplitudes of {scenario}", scenario.n + 1)
    return block_scale(scenario)


def predicted_ratio(n: int) -> float:
    """Quantum-to-classical ratio 2**((n-1)/2)."""
    return 2.0 ** ((n - 1) / 2.0)


@dataclass(frozen=True)
class SpectrumReport:
    """Full dense spectrum, sorted ascending, as a float64 NumPy array."""

    eigenvalues: Any
    top_value: float
    degeneracy_of_top: int


@dataclass(frozen=True)
class EigenResult:
    value: float
    iterations: int
    residual: float


def dense_spectrum(scenario: Scenario) -> SpectrumReport:
    """All eigenvalues of the dense operator via a symmetric eigensolver;
    ``assemble_dense`` counts its D**2 entries against the cap."""
    import numpy as np

    from .operators import assemble_dense

    eigenvalues = np.linalg.eigvalsh(assemble_dense(scenario))
    top = float(eigenvalues[-1])
    tol = 1e-9 * max(1.0, abs(top))
    degeneracy = int(np.sum(eigenvalues > top - tol))
    return SpectrumReport(eigenvalues=eigenvalues, top_value=top,
                          degeneracy_of_top=degeneracy)


def ghz_amplitudes(n: int) -> list[float]:
    """cos(pi (4b - n + 1) / 8) for b = 0, ..., n: the top state's amplitude
    on a string with b parties at -s, times 2**((n-1)/2)."""
    by_class = [math.cos(math.pi * ((4 * b - n + 1) % 16) / 8) for b in range(4)]
    return [by_class[b % 4] for b in range(n + 1)]


def largest_eigenpair(scenario: Scenario, tol: float = 1e-9) -> EigenResult:
    """The closed-form top eigenvalue, certified on the n + 1 symmetric
    amplitudes of its state (module docstring).

    Returns lam = (2s)**n x.Mx, M the spin-1/2 operator and x the GHZ state,
    once the true residual (2s)**n ||Mx - x.Mx x|| is at most
    tol * max(1, |lam|); raises NotConverged, carrying both, otherwise.
    ``iterations`` is the one matvec.  A ``tol`` that is not finite and
    positive raises ValueError: with NaN or infinity the check would pass
    any state.  ``certificate_scale`` runs first.
    """
    if not 0 < tol < float("inf"):
        raise ValueError(f"tol must be finite and positive, got {tol}")
    scale = certificate_scale(scenario)
    n = scenario.n
    # With k = (n-1) // 2 and e = (n-1) % 2: x_b = 2**(-k-e/2) y_b,
    # C(n, b) = 2**(2k+e) w_b, S = 2**(k+e/2) T and (1 - i)^(n-1) = 2**k c, so
    # (Mx)_b = 2**(-1-e/2) g_b with g_b = Re[c p_b T], lam = 2**(k-1) mu and
    # the residual 2**(k-1) rho, mu and rho the w-weighted sums below.
    y = ghz_amplitudes(n)
    w, count, total = [], 1, 1 << (n - 1)
    for b in range(n + 1):  # C(n, b) / 2**(n-1), each correctly rounded
        w.append(count / total)
        count = count * (n - b) // (b + 1)
    v_plus, v_minus = RANK_ONE
    plus, minus = [1], [1]  # powers of v's two entries
    for _ in range(n):
        plus.append(plus[-1] * v_plus)
        minus.append(minus[-1] * v_minus)
    p = [plus[n - b] * minus[b] for b in range(n + 1)]  # i**b for v = (1, i)
    t = complex(math.fsum(wb * pb.real * yb for wb, pb, yb in zip(w, p, y)),
                math.fsum(wb * pb.imag * yb for wb, pb, yb in zip(w, p, y)))
    k, j = (n - 1) // 2, (n - 1) % 8  # (1 - i)^8 = 16
    c = complex(*prefactor(j + 1)) / (1 << j // 2)  # exact: +-1, +-i or +-1 +-i
    g = [(c * pb * t).real for pb in p]
    mu = math.fsum(wb * yb * gb for wb, yb, gb in zip(w, y, g))
    rho = math.sqrt(math.fsum(wb * (gb - mu * yb) ** 2 for wb, yb, gb in zip(w, y, g)))
    value = scale * math.ldexp(mu, k - 1)
    residual = scale * math.ldexp(rho, k - 1)
    if residual > tol * max(1.0, abs(value)):
        raise NotConverged(
            f"the closed-form top state of {scenario} has residual {residual:.3e}, "
            f"above {tol} relative",
            best_value=value, best_residual=residual, iterations=1,
        )
    return EigenResult(value=value, iterations=1, residual=residual)


def spectral_gap(scenario: Scenario) -> float:
    """lambda[-1] - lambda[-2], in closed form (module docstring)."""
    if scenario.n == 1:
        return 1.0
    return predicted_quantum_max(scenario) * min(1.0, 2.0 / scenario.spin.twice_spin)


def violation_ratio(scenario: Scenario, tol: float = 1e-9) -> float:
    """Quantum maximum divided by the certified classical maximum."""
    quantum = largest_eigenpair(scenario, tol=tol).value
    classical = float(classical_max(scenario).max_value)
    return quantum / classical
