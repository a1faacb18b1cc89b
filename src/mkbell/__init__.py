"""Mermin-Klyshko Bell operators for n spin-s particles.

Constructs the recursive Bell expression, certifies the exact classical
bound by an O(n) dynamic program over the pair recursion, gives the quantum
maximum and its eigenvector in closed form, checked by one matvec, and
checks the violation ratio 2**((n-1)/2) by formula and by simulated
measurement.

Names resolve on first access (PEP 562), so importing the package, or the
exact layer ``spincore``, ``errors``, ``expansion`` and ``classical`` alone,
does not import NumPy; the array layer ``operators``, ``quantum`` and
``measurement`` does.
"""

from importlib import import_module

__version__ = "0.1.0"

#: Each exported name, by the module that defines it.
_EXPORTS = {
    "classical": ("BoundCertificate", "ClassicalResult", "Strategy", "classical_bound",
                  "classical_max", "verify_bound"),
    "errors": ("CapExceeded", "DimensionMismatch", "MkBellError", "NotConverged",
               "NotNormalized"),
    "expansion": ("TermExpansion", "expand_terms"),
    "measurement": ("BellEstimate", "JointDistribution", "SampleReport",
                    "estimate_bell_value", "joint_distribution", "sample_outcomes"),
    "operators": ("GlobalOperator", "assemble_dense", "global_operator", "make_A", "make_B"),
    "quantum": ("EigenResult", "SpectrumReport", "dense_spectrum", "largest_eigenpair",
                "predicted_quantum_max", "predicted_ratio", "spectral_gap", "top_state",
                "violation_ratio"),
    "spincore": ("Scenario", "Spin"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_EXPORTS, *_HOME, "__version__"]


def __getattr__(name):
    if name in _EXPORTS:
        return import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
