"""Projective local measurement simulation and finite-sample Bell estimates.

The top state x lives on the 2**n strings of the extreme levels +-s
(``quantum.py`` docstring), where A and B are s sigma_z and s sigma_x.  So a
term's outcome product is (2s)**n times the spin-1/2 one, +-2**-n: terms are
estimated at spin 1/2, and ``estimate_bell_value`` scales by
``quantum.block_scale`` once.

**One law for every term.**  x is Cabello's multilevel GHZ state (Phys.
Rev. A 63, 022104 (2001)).  By the rank-one argument of ``quantum.py``
(u^T u = 0, so u-bar^T O u = 0 for a product term O), the term with b
letters B has spin-1/2 correlation 2**-n Re(e^(i theta) i**b), with
theta = -pi (n-1)/4 the phase of (1 - i)^(n-1), while its coefficient is
c_t = Re[(1 - i)^(n-1) i**b] = |(1 - i)^(n-1)| Re(e^(i theta) i**b).  So
each correlation is sign(c_t) 2**-n r with r = |c_t| / |(1 - i)^(n-1)|:
r**2 = c_t**2 / 2**(n-1), as |1 - i|**2 = 2.  Each shot, whose product is
+-2**-n, agrees with sign(c_t) with probability p = (1 + r)/2.  r takes one
value over the surviving terms (``expansion.py``): at odd n, (1 - i)^(n-1)
is real or imaginary, so r = 1 and every outcome is definite, Mermin's
perfect correlations (PRL 65, 1838 (1990)); at even n its real and
imaginary parts have one modulus, so r = 1/sqrt(2) and p = cos(pi/8)**2, at
every spin.  Shots are independent, so term t's count k_t of agreeing shots
among its share is Binomial(share, p), and the terms' counts are
independent of one another.  Its estimate sign(c_t) 2**-n (2 k_t - share)/share
is unbiased, with exact standard deviation 2**-n sqrt(1 - r**2)/sqrt(share)
(4 p (1 - p) = 1 - r**2): 0 at odd n, where nothing is drawn, and never 0 at
even n.
``estimate_bell_value`` spends a total number of shots over the T terms;
``shots_per_setting``, the sampler's one admission rule, checks the budget
and splits the shots before anything is built.  ``violation_sigmas`` takes
the classical bound from its caller, so this module imports nothing from
``classical``.

**The Born-rule reference.**  ``top_state``, ``joint_distribution``,
``sample_outcomes`` and ``SampleReport`` build x on its 2**n entries, a
context's 2**n outcome probabilities and multinomial draws from them.  No
command calls them; the tests check the law above against them.  Only
they and an even-n estimate import NumPy, so an odd-n estimate never does.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import repeat
from math import ldexp, sqrt
from typing import Any

from .errors import DimensionMismatch, NotNormalized
from .expansion import check_letters, expand_terms, expected_term_count
from .quantum import block_scale, ghz_amplitudes
from .spincore import Scenario, validate_labels


def top_state(scenario: Scenario) -> Any:
    """The unit top eigenvector on the extreme block, the multilevel GHZ state
    that ``quantum.largest_eigenpair`` certifies, on its 2**n entries: index bit
    j is party j's level, 0 for +s and 1 for -s, and the entry with b bits set
    is 2**((1-n)/2) ``ghz_amplitudes(n)[b % 4]``, as a NumPy array."""
    import numpy as np

    scenario.check_entries(f"a state vector of {scenario}")
    n = scenario.n
    b = np.bitwise_count(np.arange(1 << n))  # the parties at -s
    return 2.0 ** ((1 - n) / 2) * np.array(ghz_amplitudes(n))[b % 4]


def joint_distribution(state: Any, settings: str) -> Any:
    """Born-rule probabilities for measuring ``settings`` on ``state``, a unit
    vector on the 2**n extreme levels, n = len(settings); index bit j (party 1
    most significant) is 0 for party j's outcome +s and 1 for -s."""
    import numpy as np

    validate_labels(settings)
    n = len(settings)
    state = np.asarray(state, dtype=np.float64)
    if state.shape != (1 << n,):
        raise DimensionMismatch(f"state must have length {1 << n}, got {state.shape}")
    norm = float(np.linalg.norm(state))
    if abs(norm - 1.0) > 1e-9:
        raise NotNormalized(f"state norm {norm} is not 1 within 1e-9")
    amps = state.reshape((2,) * n)
    # Row 0 is B's eigenvector for outcome +s on the levels (+s, -s), row 1 for -s.
    rotation = np.array([[1.0, 1.0], [1.0, -1.0]]) / sqrt(2.0)
    for j, label in enumerate(settings):
        if label == "B":
            amps = np.moveaxis(np.tensordot(rotation, amps, axes=(1, j)), 0, j)
    return (amps ** 2).reshape(-1)


class SampleReport(namedtuple("SampleReport",
                              "outcome_counts correlation_mean correlation_stderr")):
    """Finite-sample estimate of one spin-1/2 correlation.

    ``outcome_counts`` is the multinomial count per joint outcome index
    (the index convention of ``joint_distribution``).
    """

    __slots__ = ()


def sample_outcomes(probs: Any, shots: int, seed) -> SampleReport:
    """Draw i.i.d. outcome tuples and estimate the spin-1/2 correlation.

    The multinomial count vector is drawn in one call (identical in law to
    sequential draws) from ``default_rng(seed)``, with the probabilities
    normalised over their 2**n entries.  The standard error uses the plug-in
    sample variance of the spin-1/2 outcome product.
    """
    import numpy as np

    if shots < 1:
        raise ValueError("shots must be >= 1")
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(shots, probs / probs.sum())  # guard against 1e-16 drift
    # Each outcome product is +-2**-n, signed by the index's bit parity: n
    # halvings sum the counts so signed, and the second moment is 4**-n.
    n = probs.size.bit_length() - 1
    signed = counts
    for _ in range(n):
        signed = signed[0::2] - signed[1::2]
    mean = int(signed[0]) * 0.5 ** n / shots
    second = 0.25 ** n
    stderr = float(np.sqrt(max(second - mean * mean, 0.0) / shots))
    return SampleReport(outcome_counts=counts, correlation_mean=mean,
                        correlation_stderr=stderr)


class BellEstimate(namedtuple("BellEstimate", "value stderr per_term shots_per_setting")):
    """Termwise-sampled Bell value with propagated error; ``per_term`` holds a
    (labels, mean, stderr) triple per term, and ``shots_per_setting`` the shots
    each term's context drew, the share of the total that the function of that
    name gives."""

    __slots__ = ()


def shots_per_setting(scenario: Scenario, shots: int) -> int:
    """The shots each of the T = 4**(n//2) setting contexts draws when
    ``estimate_bell_value`` spends ``shots`` in all: ``max(1, shots // T)``.

    This is the sampler's one admission rule, checked in this order: shots
    below 1 raise ValueError; CapExceeded unless the n 2**n letters that
    ``expand_terms`` goes through fit the array budget (``expand``'s rule,
    ``expansion.check_letters``; the T counts are fewer); and a share past
    the 2**63 - 1 one binomial draw takes raises ValueError.  Nothing is
    built."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    check_letters(scenario)
    share = max(1, shots // expected_term_count(scenario.n))
    if share >= 1 << 63:
        raise ValueError(f"shots {shots} puts {share} shots on each setting of "
                         f"{scenario}, more than the 2**63 - 1 one binomial draw takes")
    return share


def estimate_bell_value(scenario: Scenario, shots: int, seed: int) -> BellEstimate:
    """Spend ``shots`` in all, ``shots_per_setting``'s share on each term's
    setting context, and combine each term's mean with its coefficient.

    Each term's count of shots that agree with sign(c_t) follows the law of
    the module docstring.  With r = 1 (odd n) every count is the share and
    nothing is drawn; otherwise all T counts come from one
    ``default_rng(seed).binomial`` call, term t's the t-th.  Each term's mean
    and exact standard deviation are formed at spin 1/2 and scaled by
    (2s)**n.  The combined error, the root sum of squares of the
    coefficient-weighted ones, is |c_t| sqrt(T) times a term's, as every
    term has the same |c_t| and error; no square is formed.
    """
    share = shots_per_setting(scenario, shots)
    scale = block_scale(scenario)
    n = scenario.n
    terms = expand_terms(n)
    c = abs(terms[0][0])  # every surviving term's |c_t|
    r_squared = c * c / 2 ** (n - 1)  # exactly 1 or 1/2 (module docstring)
    r = sqrt(r_squared)
    if r == 1.0:  # every outcome is definite
        counts = repeat(share)
    else:
        import numpy as np

        counts = np.random.default_rng(seed).binomial(share, (1 + r) / 2,
                                                      size=len(terms)).tolist()
    unit = ldexp(1.0, -n)
    stderr = unit * sqrt(1.0 - r_squared) / sqrt(share)
    per_term = []
    value = 0.0
    for (coeff, labels), agree in zip(terms, counts):
        mean = scale * ((unit if coeff > 0 else -unit) * ((2 * agree - share) / share))
        per_term.append((labels, mean, scale * stderr))
        value += coeff * mean
    return BellEstimate(value=value, stderr=scale * (stderr * c * sqrt(len(terms))),
                        per_term=tuple(per_term), shots_per_setting=share)


def violation_sigmas(estimate: BellEstimate, bound) -> float:
    """How many combined standard errors the estimate sits above ``bound``,
    the classical bound; with no spread, +-inf off the bound and 0.0 on it
    (n = 1)."""
    margin = estimate.value - float(bound)
    if estimate.stderr == 0.0:
        return float("inf") if margin > 0 else float("-inf") if margin < 0 else 0.0
    return margin / estimate.stderr
