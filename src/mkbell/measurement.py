"""Projective local measurement simulation and finite-sample Bell estimates.

For a fixed per-party setting choice, the joint outcome distribution follows
the Born rule: rotate the state into each measuring party's eigenbasis
(diagonal observable: computational basis; anti-diagonal: its analytic
eigenbasis), then square amplitudes.  Sampling uses NumPy's PCG64 generator;
per-term streams are derived from the base seed and the term index through
``numpy.random.SeedSequence``, so every report is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classical import classical_bound
from .errors import DimensionMismatch, NotNormalized
from .expansion import expand_terms, expected_term_count
from .operators import b_rotation
from .spincore import Scenario, validate_labels


@dataclass(frozen=True)
class JointDistribution:
    """Probability table over joint outcomes for one setting choice.

    ``probs`` is indexed by the mixed-radix outcome tuple (party 1 most
    significant); local index i means outcome s - i.
    """

    scenario: Scenario
    settings: str
    probs: np.ndarray


def joint_distribution(scenario: Scenario, state: np.ndarray, settings: str) -> JointDistribution:
    """Born-rule outcome distribution for measuring ``settings`` on ``state``."""
    validate_labels(settings)
    if len(settings) != scenario.n:
        raise DimensionMismatch(f"settings must have length {scenario.n}")
    state = np.asarray(state, dtype=np.float64)
    D = scenario.global_dimension()
    if state.shape != (D,):
        raise DimensionMismatch(f"state must have length {D}, got {state.shape}")
    norm = float(np.linalg.norm(state))
    if abs(norm - 1.0) > 1e-9:
        raise NotNormalized(f"state norm {norm} is not 1 within 1e-9")
    d = scenario.local_dimension
    rot = b_rotation(scenario.spin)
    amps = state.reshape((d,) * scenario.n)
    for j, label in enumerate(settings):
        if label == "B":
            amps = np.moveaxis(np.tensordot(rot, amps, axes=(1, j)), 0, j)
    return JointDistribution(scenario=scenario, settings=settings,
                             probs=(amps ** 2).reshape(-1))


@dataclass(frozen=True)
class SampleReport:
    """Finite-sample estimate of one correlation.

    ``outcome_counts`` is the multinomial count per global outcome index
    (the index convention of ``JointDistribution.probs``).
    """

    scenario: Scenario
    outcome_counts: np.ndarray
    shots: int
    correlation_mean: float
    correlation_stderr: float
    seed: object


def _outcome_products(scenario: Scenario):
    """Product m_1 ... m_n for every global outcome index."""
    d = scenario.local_dimension
    vals = np.array(scenario.spin.twice_outcomes(), dtype=np.float64) / 2.0
    prod = np.ones(1)
    for _ in range(scenario.n):
        prod = np.multiply.outer(prod, vals).reshape(-1)
    return prod


def sample_outcomes(dist: JointDistribution, shots: int, seed) -> SampleReport:
    """Draw i.i.d. outcome tuples and estimate the correlation.

    The multinomial count vector is drawn in one call (identical in law to
    sequential draws) from ``default_rng(seed)``.  The standard error uses
    the plug-in sample variance of the outcome product.
    """
    if shots < 1:
        raise ValueError("shots must be >= 1")
    rng = np.random.default_rng(seed)
    probs = dist.probs / dist.probs.sum()  # guard against 1e-16 drift
    counts = rng.multinomial(shots, probs)
    products = _outcome_products(dist.scenario)
    mean = float(counts @ products) / shots
    second = float(counts @ products ** 2) / shots
    stderr = float(np.sqrt(max(second - mean * mean, 0.0) / shots))
    return SampleReport(scenario=dist.scenario, outcome_counts=counts, shots=shots,
                        correlation_mean=mean, correlation_stderr=stderr, seed=seed)


@dataclass(frozen=True)
class BellEstimate:
    """Termwise-sampled Bell value with propagated error."""

    value: float
    stderr: float
    per_term: tuple[tuple[str, float, float], ...]  # (labels, mean, stderr)
    shots_per_setting: int
    seed: int


def check_distribution_budget(scenario: Scenario) -> None:
    """Raise CapExceeded unless the T outcome distributions of length D that
    ``estimate_bell_value`` builds, T D entries, fit the array budget."""
    scenario.check_entries(
        f"the outcome distributions of {scenario}",
        lambda: expected_term_count(scenario.n) * scenario.global_dimension())


def estimate_bell_value(scenario: Scenario, state: np.ndarray, shots_per_setting: int,
                        seed: int) -> BellEstimate:
    """Sample every term's setting context and combine with its coefficient.

    Term t uses the stream seeded by SeedSequence([seed, t]); the combined
    standard error is the root sum of squares of coefficient-weighted
    per-term errors.  The budget is checked before the first distribution
    is built (``check_distribution_budget``).
    """
    check_distribution_budget(scenario)
    per_term = []
    value = 0.0
    var = 0.0
    for t, (coeff, labels) in enumerate(expand_terms(scenario.n).terms):
        dist = joint_distribution(scenario, state, labels)
        report = sample_outcomes(dist, shots_per_setting, np.random.SeedSequence([seed, t]))
        per_term.append((labels, report.correlation_mean, report.correlation_stderr))
        value += coeff * report.correlation_mean
        var += (coeff * report.correlation_stderr) ** 2
    return BellEstimate(value=value, stderr=float(np.sqrt(var)),
                        per_term=tuple(per_term),
                        shots_per_setting=shots_per_setting, seed=seed)


def violation_sigmas(scenario: Scenario, estimate: BellEstimate) -> float:
    """How many combined standard errors the estimate sits above the classical bound."""
    margin = estimate.value - float(classical_bound(scenario))
    if estimate.stderr == 0.0:
        return float("inf") if margin > 0 else float("-inf")
    return margin / estimate.stderr
