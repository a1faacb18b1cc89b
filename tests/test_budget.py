"""The one array budget: every path that builds arrays, in the library and
among the dense test oracles, counts their entries against
``Scenario.dim_cap`` and raises before it allocates any."""

import numpy as np
import pytest

import oracles
from mkbell.errors import CapExceeded
from mkbell.measurement import estimate_bell_value, top_state
from mkbell.operators import assemble_dense, dense_scaled_product, global_operator
from mkbell.quantum import dense_spectrum, largest_eigenpair
from mkbell.spincore import Scenario, Spin
from oracles import (
    classical_max_enumerated,
    commutation_report,
    dense_scaled_terms,
    embed,
    full_space_operator,
    term_matrix,
)

#: (path, call on a scenario and its top state, entries as a function of n,
#: D and T = 4**(n//2)).
PATHS = [
    ("largest_eigenpair", lambda sc, x: largest_eigenpair(sc), lambda n, D, T: n + 1),
    ("global_operator", lambda sc, x: global_operator(sc), lambda n, D, T: 2 ** n),
    ("top_state", lambda sc, x: top_state(sc), lambda n, D, T: 2 ** n),
    ("full_space_operator", lambda sc, x: full_space_operator(sc), lambda n, D, T: D),
    ("embed", lambda sc, x: embed(sc, x), lambda n, D, T: D),
    ("assemble_dense", lambda sc, x: assemble_dense(sc), lambda n, D, T: D * D),
    ("dense_scaled_product", lambda sc, x: dense_scaled_product(sc), lambda n, D, T: D * D),
    ("dense_scaled_terms", lambda sc, x: dense_scaled_terms(sc), lambda n, D, T: D * D),
    ("term_matrix", lambda sc, x: term_matrix(sc, "B" * sc.n), lambda n, D, T: D * D),
    ("commutation_report", lambda sc, x: commutation_report(sc), lambda n, D, T: T * D * D),
    ("dense_spectrum", lambda sc, x: dense_spectrum(sc), lambda n, D, T: D * D),
    ("classical_max_enumerated", lambda sc, x: classical_max_enumerated(sc),
     lambda n, D, T: 2 * n * 4 ** n),
    ("classical_max_enumerated_full_grid",
     lambda sc, x: classical_max_enumerated(sc, extremal_only=False),
     lambda n, D, T: 2 * n * D * D),
    ("estimate_bell_value", lambda sc, x: estimate_bell_value(sc, 10, 0),
     lambda n, D, T: T * 2 ** n),
]

#: NumPy constructors the budgeted paths allocate with.
ALLOCATORS = ("array", "asarray", "zeros", "ones", "empty", "arange", "kron", "diag")


@pytest.mark.parametrize("n,twice", [(3, 2), (2, 3), (4, 1)])
@pytest.mark.parametrize("name,call,entries", PATHS, ids=[p[0] for p in PATHS])
def test_boundary(monkeypatch, n, twice, name, call, entries):
    # Rejected at one entry under the count, before any array is built;
    # admitted at the count.
    spin = Spin(twice)
    count = entries(n, spin.dimension ** n, 4 ** (n // 2))
    state = top_state(Scenario(n, spin))

    def no_alloc(*args, **kwargs):
        raise AssertionError(f"{name} allocated past the cap")

    with monkeypatch.context() as patch:
        for alloc in ALLOCATORS:
            patch.setattr(np, alloc, no_alloc)
        with pytest.raises(CapExceeded, match=f"exceeds cap {count - 1}$"):
            call(Scenario(n, spin, dim_cap=count - 1), state)
    call(Scenario(n, spin, dim_cap=count), state)


def test_commutation_report_raises_before_its_first_term_matrix(monkeypatch):
    # 4**6 term matrices of 4096 x 4096 would be 512 GB.
    def no_term(*args, **kwargs):
        raise AssertionError("built a term matrix past the cap")

    monkeypatch.setattr(oracles, "term_matrix", no_term)
    with pytest.raises(CapExceeded, match="exceeds cap 16777216"):
        commutation_report(Scenario(12, Spin(1)))

