"""Mermin-Klyshko Bell operators for n spin-s particles.

Constructs the recursive Bell expression, certifies the exact classical
bound by an O(n) dynamic program over the pair recursion, gives the quantum
maximum and its eigenvector in closed form, checked by one matvec, and
checks the violation ratio 2**((n-1)/2) by formula and by simulated
measurement.
"""

from .classical import (
    BoundCertificate,
    ClassicalResult,
    Strategy,
    classical_bound,
    classical_max,
    lhv_sample,
    strategy_value,
    verify_bound,
)
from .errors import (
    CapExceeded,
    DimensionMismatch,
    MkBellError,
    NotConverged,
    NotNormalized,
    ValueOutOfSpectrum,
)
from .expansion import TermExpansion, expand_terms, mermin_klyshko_pair
from .measurement import (
    BellEstimate,
    JointDistribution,
    SampleReport,
    correlation,
    estimate_bell_value,
    joint_distribution,
    sample_outcomes,
)
from .operators import (
    CommutationReport,
    GlobalOperator,
    LocalOperator,
    assemble_dense,
    b_eigenbasis,
    commutation_report,
    global_operator,
    make_A,
    make_B,
)
from .quantum import (
    EigenResult,
    SpectrumReport,
    dense_spectrum,
    expectation,
    largest_eigenpair,
    predicted_quantum_max,
    predicted_ratio,
    spectral_gap,
    top_state,
    violation_ratio,
)
from .spincore import ExactValue, Scenario, Spin

__version__ = "0.1.0"
