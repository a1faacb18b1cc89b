"""Eigen-analysis of the global Bell operator, in closed form.

The operator is real symmetric, so the whole pipeline works over real
vectors.  A dense symmetric eigensolver gives full spectra for small
dimensions, a test oracle.  The module never imports ``classical``: the
commands that print the ratio to the classical bound divide by it
themselves.

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

**Certificate on four numbers.**  M_n commutes with every permutation of
the parties, so it maps the states symmetric under them, spanned by the
Dicke states with b parties at -s (R. H. Dicke, Phys. Rev. 93, 99 (1954);
G. Toth and O. Guehne, PRL 102, 170503 (2009)), into themselves; on that
span the 2**n norm is the C(n, b)-weighted norm of the n + 1 amplitudes.
Rank one makes M x explicit: A + iB = v v^T / 2 with v = (1, i) at spin 1/2,
so (A + iB) x ... x (A + iB) = 2**-n V V^T with V the string's product of
v entries, i**b, and for a symmetric x

    S = sum_b C(n, b) i**b x_b,    (M x)_b = 2**-n Re[(1 - i)^(n-1) i**b S],
    lam = sum_b C(n, b) x_b (M x)_b,
    residual**2 = sum_b C(n, b) ((M x)_b - lam x_b)**2.

x_b and i**b, and so (M x)_b, depend on b only through its residue
r = b mod 4.  Each sum is therefore sum_r W_r f(r) over r = 0, ..., 3, with
the class weights

    W_r = sum_{b = r mod 4} C(n, b) / 2**(n-1) = 1/2 + Re[(1 + i)^n i**-r] / 2**n.

That is the roots-of-unity filter: summing C(n, b) w**(b-r) over b and over
the fourth roots of unity w gives 4 times the class sum, and the sum over b
is (1 + w)^n w**-r, which is 2**n at w = 1 and 0 at w = -1, and at w = +-i
is (1 + i)^n i**-r and its conjugate.  As (1 + i)^n = i**n (1 - i)^n and
(1 - i)^8 = 16, (1 + i)^n / 2**n is i**n (1 - i)^(n mod 8), an exact
Gaussian integer from ``expansion.prefactor``, times 2**(4 floor(n/8) - n).
So each W_r is one rounding of an exact sum, and exactly 0 for a class with
no b in it (n < 3).  ``ghz_amplitudes`` gives the four class values of x,
``class_weights`` the four weights and ``RANK_ONE`` the four phases, and
``largest_eigenpair`` evaluates the sums in O(1) float operations.  The
powers of two that x_b, S and (1 - i)^(n-1) carry combine into one,
2**(k-1) with k = floor((n-1)/2), applied with ``math.ldexp`` to lam and
the residual ((1 - i)^(n-1) / 2**k is +-1, +-i or +-1 +-i, exactly).  So
every intermediate stays near 1 while the top eigenvalue is a float.  This is
the one-matvec check on the 2**n strings, reduced without approximation to
the four classes: lam = (2s)**n x.M^(1/2)x, and the true residual, scaled
alike, must be at most TOLERANCE * max(1, |lam|), or NotConverged is raised.
It is at rounding level for the exact amplitudes; a wrong amplitude or a wrong
factor v fails it.  For the exact amplitudes the weights enter only through
sum_r W_r = 2 and sum_r (-1)**r W_r = 0, so the residual does not check
them; the tests compare them with the exact binomial class sums.
``block_scale`` runs first, as the fail-fast float-range
check; the certificate holds four floats at any n and counts nothing against
the array budget.  No command builds x on its 2**n entries: sampling draws
from each term's law, which the same rank-one argument gives
(``measurement.py`` docstring), and ``measurement.top_state``, which builds
x there by indexing the four class values by b mod 4, is the tests'
Born-rule reference.

**Gap.**  For n >= 2 the next eigenvalue is the largest of
(2s)**(n-1) (2s - 2) q (the next largest block scale, s >= 3/2) and 0 (a
zero of the spin-1/2 spectrum), so lambda[-1] - lambda[-2] = top min(1, 1/s).
For n = 1, M_1 = A, whose levels are 1 apart.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .errors import CapExceeded, NotConverged
from .expansion import prefactor
from .spincore import Scenario

#: v = (1, i): at spin 1/2, A + iB = v v^T / 2 on the levels (+1/2, -1/2).
RANK_ONE = (1, 1j)

#: The certificate's bound on the residual, relative to max(1, |lam|).
TOLERANCE = 1e-9


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
    n = 2049).  It decides the range from exponents, in O(1), so it serves
    as the certificate's fail-fast pre-check."""
    try:
        scale = float(scenario.spin.twice_spin) ** scenario.n
        predicted_quantum_max(scenario)
        predicted_ratio(scenario.n)
    except OverflowError:
        raise CapExceeded(f"the top eigenvalue of {scenario}, or its ratio to the classical "
                          "bound, is past the float range") from None
    return scale


def predicted_ratio(n: int) -> float:
    """Quantum-to-classical ratio 2**((n-1)/2)."""
    return 2.0 ** ((n - 1) / 2.0)


class SpectrumReport(namedtuple("SpectrumReport", "eigenvalues top_value degeneracy_of_top")):
    """Full dense spectrum, sorted ascending, as a float64 NumPy array; its
    greatest value and that value's multiplicity."""

    __slots__ = ()


class EigenResult(namedtuple("EigenResult", "value iterations residual")):
    """The certified top eigenvalue, the matvecs that certified it and its
    true residual."""

    __slots__ = ()


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
    """The top state's four class values y_r = cos(pi (4r - n + 1) / 8),
    r = 0, ..., 3: its amplitude on a string with b parties at -s is
    2**((1-n)/2) y_(b mod 4)."""
    return [math.cos(math.pi * ((4 * r - n + 1) % 16) / 8) for r in range(4)]


def class_weights(n: int) -> list[float]:
    """W_r = sum over b = r (mod 4) of C(n, b) / 2**(n-1), r = 0, ..., 3, each
    one rounding of the exact 1/2 + Re[(1 + i)^n i**-r] / 2**n (module
    docstring)."""
    re, im = prefactor(n % 8 + 1)  # (1 - i)^(n mod 8)
    unit = math.ldexp(1.0, 4 * (n // 8) - n)  # (1 - i)^8 = 16
    return [0.5 + (re, -im, -re, im)[(n - r) % 4] * unit for r in range(4)]


def largest_eigenpair(scenario: Scenario) -> EigenResult:
    """The closed-form top eigenvalue, certified on the four residue classes
    of b mod 4 of its state (module docstring).

    Returns lam = (2s)**n x.Mx, M the spin-1/2 operator and x the GHZ state,
    once the true residual (2s)**n ||Mx - x.Mx x|| is at most
    TOLERANCE * max(1, |lam|); raises NotConverged, carrying both, otherwise.
    ``iterations`` is the one matvec.  ``block_scale`` runs first.
    """
    scale = block_scale(scenario)
    n = scenario.n
    # With k = (n-1) // 2, e = (n-1) % 2 and r = b mod 4: x_b = 2**(-k-e/2) y_r,
    # class r's C(n, b) sum to 2**(2k+e) W_r, S = 2**(k+e/2) T and
    # (1 - i)^(n-1) = 2**k c, so (Mx)_b = 2**(-1-e/2) g_r with g_r = Re[c p_r T],
    # lam = 2**(k-1) mu and the residual 2**(k-1) rho, mu and rho the
    # W-weighted sums below.
    y, w = ghz_amplitudes(n), class_weights(n)
    v_plus, v_minus = RANK_ONE
    p = [v_plus ** (n - r) * v_minus ** r for r in range(4)]  # i**r for v = (1, i)
    t = complex(math.fsum(wr * pr.real * yr for wr, pr, yr in zip(w, p, y)),
                math.fsum(wr * pr.imag * yr for wr, pr, yr in zip(w, p, y)))
    k, j = (n - 1) // 2, (n - 1) % 8  # (1 - i)^8 = 16
    c = complex(*prefactor(j + 1)) / (1 << j // 2)  # exact: +-1, +-i or +-1 +-i
    g = [(c * pr * t).real for pr in p]
    mu = math.fsum(wr * yr * gr for wr, yr, gr in zip(w, y, g))
    rho = math.sqrt(math.fsum(wr * (gr - mu * yr) ** 2 for wr, yr, gr in zip(w, y, g)))
    value = scale * math.ldexp(mu, k - 1)
    residual = scale * math.ldexp(rho, k - 1)
    if residual > TOLERANCE * max(1.0, abs(value)):
        raise NotConverged(
            f"the closed-form top state of {scenario} has residual {residual:.3e}, "
            f"above {TOLERANCE} relative",
            best_value=value, best_residual=residual, iterations=1,
        )
    return EigenResult(value=value, iterations=1, residual=residual)


def spectral_gap(scenario: Scenario) -> float:
    """lambda[-1] - lambda[-2], in closed form (module docstring)."""
    if scenario.n == 1:
        return 1.0
    return predicted_quantum_max(scenario) * min(1.0, 2.0 / scenario.spin.twice_spin)

