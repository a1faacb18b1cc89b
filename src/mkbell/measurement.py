"""Projective local measurement simulation and finite-sample Bell estimates.

The top state lives on the 2**n strings of the extreme levels +-s
(``quantum.py`` docstring), where A and B are s sigma_z and s sigma_x.  So
each setting context follows the spin-1/2 Born rule: rotate each party
measuring B into B's eigenbasis, then square amplitudes.  An outcome
product is (2s)**n times the spin-1/2 one, +-2**-n: contexts are sampled at
spin 1/2, and ``estimate_bell_value`` scales by ``quantum.block_scale`` once.
At odd n the top state saturates every term, so each term's outcome product
is definite and ``estimate_bell_value`` returns it without building or
drawing anything (its docstring).  Only even-n sampling builds the state's
2**n entries, from the four certified class values, and only it and the
functions that build arrays import NumPy.
The state is symmetric under every permutation of the parties, so two
contexts with the same number b of B settings have distributions that are,
bit for bit, axis permutations of one another: ``estimate_bell_value``
builds one distribution per b (n + 1 at most, not the T = 4**(n//2)
contexts) and gives each context its permuted copy, the array the termwise
Born rule gives it (``symmetric_distributions``).
``estimate_bell_value`` spends a total number of shots over the T contexts;
``shots_per_setting``, the sampler's one admission rule, checks the budget
and splits the shots before anything is built, at every n.
Sampling uses NumPy's PCG64 generator; per-term streams are derived from
the base seed and the term index through ``numpy.random.SeedSequence``, so
every report is reproducible.
"""

from __future__ import annotations

from collections import namedtuple
from math import ldexp, sqrt
from typing import Any

from .classical import classical_bound
from .errors import DimensionMismatch, NotNormalized
from .expansion import expand_terms, expected_term_count
from .quantum import block_scale, ghz_amplitudes
from .spincore import LABEL_A, LABEL_B, Scenario, validate_labels


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


def symmetric_distributions(state: Any, contexts):
    """Yield ``joint_distribution(state, settings)`` for each of ``contexts``,
    bit for bit, for a ``state`` symmetric under every permutation of the
    parties.  One distribution is built per number b of B settings, for the
    settings "A"*(n-b) + "B"*b, and held; a context with b B's gets it with
    party j's axis taken from its place in the stable sort of the settings.
    """
    canonical = {}
    for settings in contexts:
        n, b = len(settings), settings.count(LABEL_B)
        if b not in canonical:
            canonical[b] = joint_distribution(state, LABEL_A * (n - b) + LABEL_B * b)
        order = sorted(range(n), key=settings.__getitem__)  # A's, then B's
        axes = sorted(range(n), key=order.__getitem__)  # the inverse of order
        yield canonical[b].reshape((2,) * n).transpose(axes).reshape(-1)


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
    below 1 raise ValueError; CapExceeded unless T 2**n entries, the T outcome
    distributions of length 2**n, fit the array budget (the count bounds work:
    the T permuted copies are made one at a time, from the n + 1 held, about
    (n + 2) 2**n entries with the state); and a share past the 2**63 - 1 one
    multinomial draw takes raises ValueError.  Nothing is built."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    n = scenario.n
    scenario.check_entries(f"the outcome distributions of {scenario}",
                           lambda: expected_term_count(n) << n, least=n + 2 * (n // 2))
    share = max(1, shots // expected_term_count(n))
    if share >= 1 << 63:
        raise ValueError(f"shots {shots} puts {share} shots on each setting of "
                         f"{scenario}, more than the 2**63 - 1 one multinomial draw takes")
    return share


def estimate_bell_value(scenario: Scenario, shots: int, seed: int) -> BellEstimate:
    """Spend ``shots`` in all, split evenly across the setting contexts of
    ``top_state``; combine each term's mean with its coefficient.

    ``shots_per_setting`` admits the estimate and gives each context's share
    before anything is built, at every n.  Each term is sampled at spin 1/2;
    its mean and error are scaled by (2s)**n.

    At odd n no term is drawn: every outcome is definite (Mermin's perfect
    correlations, PRL 65, 1838 (1990)).  The T = 2**(n-1) terms each have
    |c_t| = 2**((n-1)/2), and a term's spin-1/2 outcome product is +-2**-n,
    so no state gives more than the sum of |c_t| 2**-n, 2**(3(n-1)/2) 2**-n,
    the top eigenvalue the state attains.  Each term is then at its extreme:
    its product reads sign(c_t) 2**-n on every shot, which any draw returns
    as its mean with plug-in error 0, so term t reads
    (labels, scale ldexp(sign(c_t), -n), 0.0).  At even n the sum of |c_t| is
    sqrt(2) times larger and outcomes are random: term t draws its share from
    the stream seeded by SeedSequence([seed, t]), from a permuted copy of one
    of the n + 1 distributions built per count of B settings
    (``symmetric_distributions``).  The combined standard error, the root
    sum of squares of coefficient-weighted spin-1/2 errors, is scaled once,
    so that no square leaves the float range.
    """
    share = shots_per_setting(scenario, shots)
    scale = block_scale(scenario)
    n = scenario.n
    terms = expand_terms(n)
    if n % 2:  # every outcome is definite: no state, no draw
        moments = ((ldexp(1.0 if coeff > 0 else -1.0, -n), 0.0) for coeff, _ in terms)
    else:
        import numpy as np

        distributions = symmetric_distributions(top_state(scenario),
                                                (labels for _, labels in terms))
        reports = (sample_outcomes(probs, share, np.random.SeedSequence([seed, t]))
                   for t, probs in enumerate(distributions))
        moments = ((report.correlation_mean, report.correlation_stderr) for report in reports)
    per_term = []
    value = 0.0
    var = 0.0
    for (coeff, labels), (mean, stderr) in zip(terms, moments):
        mean = scale * mean
        per_term.append((labels, mean, scale * stderr))
        value += coeff * mean
        var += (coeff * stderr) ** 2
    return BellEstimate(value=value, stderr=scale * sqrt(var),
                        per_term=tuple(per_term), shots_per_setting=share)


def violation_sigmas(scenario: Scenario, estimate: BellEstimate) -> float:
    """How many combined standard errors the estimate sits above the classical
    bound; with no spread, +-inf off the bound and 0.0 on it (n = 1)."""
    margin = estimate.value - float(classical_bound(scenario))
    if estimate.stderr == 0.0:
        return float("inf") if margin > 0 else float("-inf") if margin < 0 else 0.0
    return margin / estimate.stderr
