"""Projective local measurement simulation and finite-sample Bell estimates.

The top state lives on the 2**n strings of the extreme levels +-s
(``quantum.py`` docstring), where A and B are s sigma_z and s sigma_x.  So
each setting context follows the spin-1/2 Born rule: rotate each party
measuring B into B's eigenbasis, then square amplitudes.  An outcome
product is (2s)**n times the spin-1/2 one, +-2**-n: contexts are sampled at
spin 1/2, and ``estimate_bell_value`` scales by ``quantum.block_scale`` once.
Only sampling builds the state's 2**n entries, from the certified amplitudes.
Sampling uses NumPy's PCG64 generator; per-term streams are derived from
the base seed and the term index through ``numpy.random.SeedSequence``, so
every report is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .classical import classical_bound
from .errors import DimensionMismatch, NotNormalized
from .expansion import expand_terms, expected_term_count
from .quantum import block_scale, ghz_amplitudes
from .spincore import Scenario, validate_labels


def top_state(scenario: Scenario) -> np.ndarray:
    """The unit top eigenvector on the extreme block, the multilevel GHZ state
    that ``quantum.largest_eigenpair`` certifies, on its 2**n entries: index bit
    j is party j's level, 0 for +s and 1 for -s, and the entry with b bits set
    is 2**((1-n)/2) ``ghz_amplitudes(n)[b]``."""
    scenario.check_entries(f"a state vector of {scenario}")
    n = scenario.n
    b = np.zeros((), dtype=np.min_scalar_type(n))
    for _ in range(n):  # b = parties at -s
        b = np.add.outer(b, np.array([0, 1], dtype=b.dtype))
    return 2.0 ** ((1 - n) / 2) * np.array(ghz_amplitudes(n))[b].reshape(-1)


#: Row 0 is B's eigenvector for outcome +s on the levels (+s, -s), row 1 for -s.
_B_ROTATION = np.array([[1.0, 1.0], [1.0, -1.0]]) / sqrt(2.0)


def joint_distribution(state: np.ndarray, settings: str) -> np.ndarray:
    """Born-rule probabilities for measuring ``settings`` on ``state``, a unit
    vector on the 2**n extreme levels, n = len(settings); index bit j (party 1
    most significant) is 0 for party j's outcome +s and 1 for -s."""
    validate_labels(settings)
    n = len(settings)
    state = np.asarray(state, dtype=np.float64)
    if state.shape != (1 << n,):
        raise DimensionMismatch(f"state must have length {1 << n}, got {state.shape}")
    norm = float(np.linalg.norm(state))
    if abs(norm - 1.0) > 1e-9:
        raise NotNormalized(f"state norm {norm} is not 1 within 1e-9")
    amps = state.reshape((2,) * n)
    for j, label in enumerate(settings):
        if label == "B":
            amps = np.moveaxis(np.tensordot(_B_ROTATION, amps, axes=(1, j)), 0, j)
    return (amps ** 2).reshape(-1)


@dataclass(frozen=True)
class SampleReport:
    """Finite-sample estimate of one spin-1/2 correlation.

    ``outcome_counts`` is the multinomial count per joint outcome index
    (the index convention of ``joint_distribution``).
    """

    outcome_counts: np.ndarray
    correlation_mean: float
    correlation_stderr: float


def sample_outcomes(probs: np.ndarray, shots: int, seed) -> SampleReport:
    """Draw i.i.d. outcome tuples and estimate the spin-1/2 correlation.

    The multinomial count vector is drawn in one call (identical in law to
    sequential draws) from ``default_rng(seed)``, with the probabilities
    normalised over their 2**n entries.  The standard error uses the plug-in
    sample variance of the spin-1/2 outcome product.
    """
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


@dataclass(frozen=True)
class BellEstimate:
    """Termwise-sampled Bell value with propagated error."""

    value: float
    stderr: float
    per_term: tuple[tuple[str, float, float], ...]  # (labels, mean, stderr)


def check_distribution_budget(scenario: Scenario) -> None:
    """Raise CapExceeded unless the T outcome distributions of length 2**n
    that ``estimate_bell_value`` builds, T 2**n entries, fit the array budget."""
    scenario.check_entries(
        f"the outcome distributions of {scenario}",
        lambda: expected_term_count(scenario.n) << scenario.n)


def estimate_bell_value(scenario: Scenario, shots_per_setting: int, seed: int) -> BellEstimate:
    """Sample every term's context in ``top_state``; combine with its coefficient.

    Term t uses the stream seeded by SeedSequence([seed, t]) and is sampled
    at spin 1/2; its mean and error are scaled by (2s)**n.  The combined
    standard error, the root sum of squares of coefficient-weighted spin-1/2
    errors, is scaled once, so that no square leaves the float range.  The
    budget is checked before the state or any distribution is built.
    """
    check_distribution_budget(scenario)
    scale = block_scale(scenario)
    state = top_state(scenario)
    per_term = []
    value = 0.0
    var = 0.0
    for t, (coeff, labels) in enumerate(expand_terms(scenario.n)):
        report = sample_outcomes(joint_distribution(state, labels), shots_per_setting,
                                 np.random.SeedSequence([seed, t]))
        mean = scale * report.correlation_mean
        per_term.append((labels, mean, scale * report.correlation_stderr))
        value += coeff * mean
        var += (coeff * report.correlation_stderr) ** 2
    return BellEstimate(value=value, stderr=scale * float(np.sqrt(var)),
                        per_term=tuple(per_term))


def violation_sigmas(scenario: Scenario, estimate: BellEstimate) -> float:
    """How many combined standard errors the estimate sits above the classical
    bound; with no spread, +-inf off the bound and 0.0 on it (n = 1)."""
    margin = estimate.value - float(classical_bound(scenario))
    if estimate.stderr == 0.0:
        return float("inf") if margin > 0 else float("-inf") if margin < 0 else 0.0
    return margin / estimate.stderr
