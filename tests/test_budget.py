"""The one array budget: every path that builds arrays, in the library and
among the dense test oracles, counts their entries against
``Scenario.dim_cap`` and raises before it allocates any.  Each limit is
decided in one function: the budget in ``spincore.check_budget``, the digit
limit in ``spincore.check_digits``, the float range in
``quantum.block_scale`` and the sampler's admission, its budget and shots
split, in ``measurement.shots_per_setting``, whose budget is ``expand``'s
(``expansion.check_letters``)."""

import ast
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
from mkbell.cli import main
from mkbell.errors import CapExceeded
from mkbell.measurement import estimate_bell_value, top_state
from mkbell.operators import assemble_dense, dense_scaled_product, global_operator
from mkbell.quantum import dense_spectrum
from mkbell.spincore import Scenario, Spin, check_budget
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
    ("estimate_bell_value", lambda sc, x: estimate_bell_value(sc, 10 * 4 ** (sc.n // 2), 0),
     lambda n, D, T: n * 2 ** n),
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



def test_a_count_past_the_digit_limit_is_shown_as_a_power(monkeypatch):
    # D**2 = (2 * 10**3000 + 1)**6 has 18001 digits, more than Python prints;
    # it is at least 2**(2n (bits(D) - 1)), and is not formed.
    least = 6 * ((2 * 10 ** 3000 + 1).bit_length() - 1)

    def no_alloc(*args, **kwargs):
        raise AssertionError("assemble_dense allocated past the cap")

    for alloc in ALLOCATORS:
        monkeypatch.setattr(np, alloc, no_alloc)
    with pytest.raises(CapExceeded) as info:
        assemble_dense(Scenario(3, Spin(2 * 10 ** 3000)))
    assert str(info.value).endswith(f" would hold at least 2**{least} "
                                    "entries, which exceeds cap 16777216")


@pytest.mark.parametrize("n", [3, 1999, 2000])
def test_a_huge_count_is_never_formed(n):
    # D**2 = (2 * 10**4000 + 1)**(2n) has about 53 million bits at n = 2000;
    # forming it takes seconds.  Its bound 2**(2n (bits(D) - 1)) decides.
    start = time.perf_counter()
    with pytest.raises(CapExceeded) as info:
        assemble_dense(Scenario(n, Spin(2 * 10 ** 4000)))
    assert time.perf_counter() - start < 1.0
    least = 2 * n * ((2 * 10 ** 4000 + 1).bit_length() - 1)
    assert str(info.value).endswith(f" would hold at least 2**{least} entries, "
                                    "which exceeds cap 16777216")


@pytest.mark.parametrize("call,shown", [
    (lambda: top_state(Scenario(3, Spin(1), dim_cap=4)),
     "a state vector of n=3, s=1/2 would hold 8"),
    (lambda: global_operator(Scenario(30, Spin(3), dim_cap=4)),
     f"a state vector of n=30, s=3/2 would hold {2 ** 30}"),
    (lambda: estimate_bell_value(Scenario(30, Spin(1)), 10 * 4 ** 15, 0),
     f"the label strings for n=30 would hold {30 * 2 ** 30}"),
    (lambda: dense_scaled_product(Scenario(30, Spin(2))),
     f"a dense matrix of n=30, s=1 would hold {3 ** 60}"),
], ids=["state-8", "state-2**30", "letters-30*2**30", "dense-3**60"])
def test_a_small_count_is_shown_exactly(call, shown):
    # 2**least past the cap no longer stands for a count of at most 2000 bits.
    with pytest.raises(CapExceeded) as info:
        call()
    assert str(info.value).startswith(f"{shown} entries, which exceeds cap ")


@pytest.mark.parametrize("count,least,shown", [
    ((1 << 2000) - 1, 1999, str((1 << 2000) - 1)),
    (1 << 2000, 1999, "at least 2**2000"),
    (1 << 2001, 2000, "at least 2**2000"),
], ids=["2000-bits", "2001-bits-formed", "least-2000-not-formed"])
def test_the_count_is_formed_below_2_to_the_2000(count, least, shown):
    formed = []

    def counted():
        formed.append(count)
        return count

    with pytest.raises(CapExceeded) as info:
        check_budget("the table", 1, counted, "cells", least)
    assert str(info.value) == f"the table would hold {shown} cells, which exceeds cap 1"
    assert formed == ([] if least >= 2000 else [count])


@pytest.mark.parametrize("n", [1999, 2000, 2048])
def test_the_sampled_count_is_shown_with_its_exponent(capsys, n):
    # n 2**n letters, expand's count and message: past 2000 bits the message
    # shows a power of two, the count's own while 2**n is below 2**2000, and
    # 2**n from there on, where the count is not formed; for sample and
    # report --sample alike.
    least = (n << n).bit_length() - 1 if n < 2000 else n
    message = (f"error: the label strings for n={n} would hold at least 2**{least} "
               "entries, which exceeds cap 16777216\n")
    assert (main(["expand", "--n", str(n)]), *capsys.readouterr()) == (3, "", message)
    for argv in (["sample", "--n", str(n), "--spin", "1/2"],
                 ["report", "--grid", f"n={n}..{n}", "s=1/2..1/2", "--sample"]):
        assert (main(argv), *capsys.readouterr()) == (3, "", message)


def test_a_spin_past_the_digit_limit_still_names_its_scenario():
    # str(Spin) cannot raise, so the budget message, which names the scenario,
    # is a CapExceeded and not Python's integer-to-text conversion error.
    spin = Spin(2 * 10 ** 5000)
    with pytest.raises(CapExceeded, match=r"^a dense matrix of n=3, s=at least 2\*\*16609 "):
        assemble_dense(Scenario(3, spin))
    with pytest.raises(CapExceeded, match=r"^a state vector of n=3, s=at least 2\*\*16609 "):
        top_state(Scenario(3, spin, dim_cap=4))


@pytest.mark.parametrize("count,shown", [
    ((1 << 2000) - 1, str((1 << 2000) - 1)), (1 << 2000, "at least 2**2000")],
    ids=["2000-bits", "2001-bits"])
def test_count_is_printed_up_to_2000_bits(count, shown):
    # 2**2000 has 603 digits, within the smallest limit Python allows (640).
    default = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(CapExceeded) as info:
            check_budget("the table", 1, lambda: count, "cells")
        message = str(info.value)
    finally:
        sys.set_int_max_str_digits(default)
    assert message == f"the table would hold {shown} cells, which exceeds cap 1"


#: The function that decides each limit: (module, function).
DECIDERS = {("spincore", "check_budget"), ("spincore", "check_digits"), ("quantum", "block_scale")}


def _sites(matches):
    """(module, innermost enclosing function, line) of every node in
    ``src/mkbell`` that ``matches``."""
    sites = []

    def visit(node, module, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if matches(node):
            sites.append((module, function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, module, function)

    for path in sorted((Path(__file__).resolve().parent.parent / "src" / "mkbell").glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem, None)
    return sites


def _calls(name):
    """``_sites`` of every call of a function or method called ``name``."""
    return _sites(lambda node: isinstance(node, ast.Call) and name in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None)))


def test_the_digit_limit_is_read_in_one_function():
    sites = _calls("get_int_max_str_digits")
    assert sites and {site[:2] for site in sites} == {("spincore", "check_digits")}, sites


def test_every_cap_is_raised_by_the_function_that_decides_it():
    sites = _calls("CapExceeded")
    assert sites and {site[:2] for site in sites} <= DECIDERS, sites


def test_the_sampler_owns_its_admission_rule():
    # The budget, the shots split and the 2**63 limit of one binomial draw
    # are decided in measurement.shots_per_setting; the CLI recounts none.
    for name in ("block_scale", "expected_term_count"):
        assert _calls(name) and "cli" not in {site[0] for site in _calls(name)}, name
    one_draw = ast.dump(ast.parse("1 << 63", mode="eval").body)
    sites = _sites(lambda node: ast.dump(node) == one_draw)
    assert [site[:2] for site in sites] == [("measurement", "shots_per_setting")], sites
