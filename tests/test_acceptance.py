"""End-to-end acceptance checks for the whole toolkit.

Each test is one criterion and prints a single pass/fail line (see
conftest.py).  Tolerances are pinned in-line:

  * exact integer/dyadic checks carry zero tolerance;
  * the top eigenvalue and its simplicity, from the exact block
    certificate and from the dense eigensolver, use 1e-9 relative;
  * the block spectrum and the closed-form gap match the certified
    spectrum, and the dense oracle where it runs, at 1e-12 relative; the
    closed-form top state's residual at the closed-form value is 1e-12
    relative;
  * matrix-free eigenvalues at large dimension, and the Lanczos oracle
    there, use 1e-7 relative;
  * ratio and scaling-law checks use 1e-8;
  * Born-rule consistency uses 1e-10 absolute;
  * every level-pair block of the dense operator is its scale times the
    spin-1/2 operator exactly, and the sum of the predicted term
    correlations is the closed-form maximum at 1e-12 relative;
  * statistical checks use 5 standard errors at 10**6 total shots, and 6
    for each of the many sampled terms (1e-6 absolute where a term has no
    spread).
"""

import functools
import itertools

import numpy as np

from mkbell.classical import classical_bound, classical_max
from mkbell.expansion import expand_terms, expected_term_count
from mkbell.measurement import estimate_bell_value, top_state, violation_sigmas
from mkbell.operators import assemble_dense, dense_scaled_product
from mkbell.quantum import (
    dense_spectrum,
    largest_eigenpair,
    predicted_quantum_max,
    predicted_ratio,
    spectral_gap,
)
from mkbell.spincore import Scenario, Spin
from oracles import (
    apply_term,
    block_spectrum,
    classical_max_enumerated,
    commutation_report,
    correlation,
    dense_scaled_terms,
    embed,
    extreme_indices,
    full_space_distribution,
    full_space_operator,
    lanczos_top,
    lhv_sample,
    pair_recursion,
    predicted_correlation,
    strategy_value,
    violation_ratio,
)

# n in 2..6 crossed with s in 1/2..2, restricted to dense-solver size.
DENSE_GRID = [
    (n, twice)
    for n in range(2, 7)
    for twice in (1, 2, 3, 4)
    if (twice + 1) ** n <= 4096
]

#: The dense eigensolver is a second witness where D <= 1024: all of
#: DENSE_GRID but (5, 2) and (6, 3/2), where it took 4.1 s and 9.7 s on one
#: BLAS thread of a 2-vCPU guest.
DENSE_WITNESS = [(n, twice) for n, twice in DENSE_GRID if (twice + 1) ** n <= 1024]

# Larger scenarios handled only through the matrix-free path.
MATRIX_FREE_CASES = [(10, 1), (6, 2), (4, 15), (5, 15)]


@functools.cache
def _dense_spectrum(n, twice):
    """The dense oracle's spectrum, solved once per scenario for the module."""
    return dense_spectrum(Scenario(n, Spin(twice)))


@functools.cache
def _certified_spectrum(n, twice):
    """The whole spectrum, ascending, fixed exactly by the block decomposition.

    Checks entrywise, on the integer matrices W = 2**n M of spin s and W_half
    of spin 1/2 (``dense_scaled_product``), that W[I, J] is 0 unless I and J
    hold the same level pair p_j at every party j, and is otherwise
    prod_j 2(s - p_j) W_half[bits(I), bits(J)], bit j being 0 at level
    s - p_j and 1 at -(s - p_j).  A middle level has p_j = s, a factor 0.
    So M is, up to a permutation, a direct sum of 2**n-dimensional copies of
    the spin-1/2 operator scaled by c > 0, one per choice of level pairs
    without a middle level, and zeros.  The spin-1/2 spectrum is exactly
    {+-q, 0 x (2**n - 2)}, q = 2**((n-3)/2) (rank-two test, n <= 12), so the
    spectrum is +-c q for every block and zeros.  Raises AssertionError on
    the first row chunk that differs.
    """
    w = dense_scaled_product(Scenario(n, Spin(twice)))
    w_half = dense_scaled_product(Scenario(n, Spin(1)))
    d = twice + 1
    level = np.arange(d)
    pair = np.minimum(level, d - 1 - level)  # level i holds outcome +-(s - pair[i])
    pairs = bits = np.zeros(1, dtype=np.int64)
    scales = np.ones(1, dtype=np.int64)
    for _ in range(n):  # party 1 most significant
        pairs = (pairs[:, None] * d + pair).reshape(-1)
        bits = (bits[:, None] * 2 + (level != pair)).reshape(-1)
        scales = (scales[:, None] * (twice - 2 * pair)).reshape(-1)
    for start in range(0, len(w), 256):  # 256 rows at a time: no D x D temporary
        rows = slice(start, start + 256)
        want = (pairs[rows, None] == pairs) * scales[rows, None] * w_half[np.ix_(bits[rows], bits)]
        assert np.array_equal(w[rows], want), (n, twice, start)
    block = scales[(bits == 0) & (scales > 0)]  # each block's c, at its all-upper row
    q = 2.0 ** ((n - 3) / 2)
    return np.sort(np.concatenate([-q * block, np.zeros(len(w) - 2 * len(block)), q * block]))


def test_classical_bound_is_exact_on_grid():
    """2**(n-1) s**n equals the certified extremal maximum, exactly."""
    for n in range(2, 7):
        for twice in (1, 2, 3, 4):
            scenario = Scenario(n, Spin(twice))
            result = classical_max(scenario)
            assert result.max_value == classical_bound(scenario), (n, twice)
            assert result.strategies_checked == 4 ** n
            assert strategy_value(scenario, result.argmax) == result.max_value


def test_full_outcome_grid_never_beats_extremal_strategies():
    """Enumerating every outcome assignment gives the same maximum, exactly."""
    for n in (2, 3):
        for twice in (1, 2, 3):
            scenario = Scenario(n, Spin(twice))
            full = classical_max_enumerated(scenario, extremal_only=False)
            extremal = classical_max(scenario)
            assert full.max_value == extremal.max_value, (n, twice)
            assert full.strategies_checked == (twice + 1) ** (2 * n)


def _top_is_simple(eigenvalues, predicted):
    """The greatest value is ``predicted`` at 1e-9 relative, and simple."""
    top = eigenvalues[-1]
    return (abs(top - predicted) <= 1e-9 * predicted
            and int(np.sum(eigenvalues > top - 1e-9 * max(1.0, abs(top)))) == 1)


def test_top_eigenvalue_matches_closed_form():
    """Largest eigenvalue equals 2**(3(n-1)/2) s**n: dense grid at 1e-9
    relative with an isolated top eigenvalue, in the spectrum fixed by the
    exact block certificate and, up to D = 1024, in the dense solver's; its
    eigenvector is the closed-form top state (dense residual at the
    closed-form value, 1e-12 relative); large matrix-free cases at 1e-7
    relative, where the Lanczos oracle, started from a random vector, finds
    the same top value at 1e-7 relative."""
    for n, twice in DENSE_GRID:
        scenario = Scenario(n, Spin(twice))
        predicted = predicted_quantum_max(scenario)
        assert _top_is_simple(_certified_spectrum(n, twice), predicted), (n, twice)
        if (n, twice) in DENSE_WITNESS:
            report = _dense_spectrum(n, twice)
            assert _top_is_simple(report.eigenvalues, predicted), (n, twice)
            assert report.degeneracy_of_top == 1, (n, twice)
        # With a simple top, a small residual at the top value pins the vector;
        # the matvec equals the dense product (test_construction_paths_agree).
        x = embed(scenario, top_state(scenario))
        residual = full_space_operator(scenario).apply(x) - predicted * x
        assert np.linalg.norm(residual) <= 1e-12 * predicted, (n, twice)
    for n, twice in MATRIX_FREE_CASES:
        scenario = Scenario(n, Spin(twice))
        result = largest_eigenpair(scenario)
        predicted = predicted_quantum_max(scenario)
        assert abs(result.value - predicted) <= 1e-7 * predicted, (n, twice)
        oracle = lanczos_top(scenario, tol=1e-7)
        assert abs(oracle.value - result.value) <= 1e-7 * result.value, (n, twice)


def test_block_spectrum_matches_dense_oracle():
    """The spin-1/2 spectrum scaled by every level-pair block factor, plus
    the zero blocks, equals the spectrum fixed by the exact block
    certificate on the dense grid, and the dense spectrum up to D = 1024,
    at 1e-12 relative; the closed-form gap top * min(1, 1/s) equals
    lambda[-1] - lambda[-2] of both at 1e-12 relative."""
    for n, twice in DENSE_GRID:
        scenario = Scenario(n, Spin(twice))
        blocks = block_spectrum(scenario)
        spectra = [_certified_spectrum(n, twice)]
        if (n, twice) in DENSE_WITNESS:
            spectra.append(_dense_spectrum(n, twice).eigenvalues)
        for eigenvalues in spectra:
            scale = max(1.0, abs(eigenvalues[-1]))
            assert blocks.shape == eigenvalues.shape, (n, twice)
            assert np.max(np.abs(blocks - eigenvalues)) <= 1e-12 * scale, (n, twice)
            gap = eigenvalues[-1] - eigenvalues[-2]
            assert abs(spectral_gap(scenario) - gap) <= 1e-12 * scale, (n, twice)


def test_extreme_block_is_scaled_spin_half():
    """The premise of the block path, on every block: the dense operator's
    integer matrix 2**n M is zero between different level pairs and on a
    middle level, and on the level pairs p_j it is prod_j 2(s - p_j) times
    the spin-1/2 one, exactly, on the dense grid.  On the extreme levels +-s
    (``extreme_indices``) the factor is (2s)**n."""
    for n, twice in DENSE_GRID:
        scenario = Scenario(n, Spin(twice))
        _certified_spectrum(n, twice)  # raises unless every entry is the block's
        block = extreme_indices(scenario)
        digits = np.array(np.unravel_index(block, (twice + 1,) * n)).T
        assert np.array_equal(digits, twice * np.array(list(itertools.product((0, 1), repeat=n))))


def test_spin_half_spectrum_has_rank_two():
    """The spin-1/2 spectrum is exactly {+-q, 0 x (2**n - 2)}, q = 2**((n-3)/2),
    for n = 1..12, the rank-2 lemma behind the closed forms.

    Exact, on the integer matrix W = 2**n M: W is symmetric; a nonsingular
    2 x 2 pivot P, with C its columns of W and R its rows, has
    det(P) W = C adj(P) R, so W has rank at most two; and with trace 0 and a
    sum of squared entries 2 (2**n q)**2, its two eigenvalues are +-2**n q.
    The entries are at most 32 in magnitude, so the int64 products are
    exact.  The dense eigensolver is a second witness to n = 10 (1e-12
    relative)."""
    for n in range(1, 13):
        w = dense_scaled_product(Scenario(n, Spin(1)))
        # Rows and columns 0 and 1, with 0 and 1 parties at -s: W's entries
        # are Re[(1 - i)^(n-1) i**(b + b')], so det(P) = -2**(n-1).
        (a, b), (c, d) = w[:2, :2].tolist()
        det = a * d - b * c
        assert det != 0, n
        adj_rows = np.array([[d, -b], [-c, a]]) @ w[:2]
        squares = 0
        for start in range(0, len(w), 256):  # 256 rows at a time: no D x D temporary
            rows = w[start:start + 256]
            assert np.array_equal(rows, w[:, start:start + 256].T), n
            assert np.array_equal(det * rows, rows[:, :2] @ adj_rows), n
            squares += int(np.vdot(rows, rows))
        assert int(np.trace(w)) == 0, n
        assert squares == 2 ** (3 * n - 2), n  # 2 (2**n q)**2
        if n <= 10:
            eigenvalues = dense_spectrum(Scenario(n, Spin(1))).eigenvalues
            q = 2.0 ** ((n - 3) / 2)
            want = np.concatenate([[-q], np.zeros(2 ** n - 2), [q]])
            assert np.max(np.abs(eigenvalues - want)) <= 1e-12 * max(1.0, q), n


def test_violation_ratio_matches_prediction_and_is_spin_independent():
    """Quantum-to-classical ratio equals 2**((n-1)/2) at 1e-8 relative and
    agrees across spins at fixed n to 1e-8."""
    by_n = {}
    for n, twice in DENSE_GRID:
        ratio = violation_ratio(Scenario(n, Spin(twice)))
        predicted = predicted_ratio(n)
        assert abs(ratio - predicted) <= 1e-8 * predicted, (n, twice)
        by_n.setdefault(n, []).append(ratio)
    for n, ratios in by_n.items():
        spread = max(ratios) - min(ratios)
        assert spread <= 1e-8 * predicted_ratio(n), n


def test_log_ratio_grows_linearly_in_parties():
    """log2 of the ratio equals (n-1)/2 at 1e-8 for spin 1, n = 2..6."""
    for n in range(2, 7):
        ratio = violation_ratio(Scenario(n, Spin(2)))
        assert abs(np.log2(ratio) - (n - 1) / 2) <= 1e-8, n


def test_term_expansion_structure():
    """Term counts are 4**floor(n/2) for n = 1..10; odd n has 2**(n-1)
    terms with coefficients +-2**((n-1)/2); the two- and three-party
    expansions match their printed forms exactly (the three-party one as
    the relabeled companion K_3 of the pair recursion)."""
    swap = str.maketrans("AB", "BA")
    for n in range(1, 11):
        e = expand_terms(n)
        assert len(e) == expected_term_count(n) == 4 ** (n // 2), n
        if n % 2 == 1:
            assert len(e) == 2 ** (n - 1)
            magnitude = 2 ** ((n - 1) // 2)
            assert all(abs(c) == magnitude for c, _ in e), n
        companion = pair_recursion(n)[1]
        assert {labels.translate(swap): c for c, labels in e} == companion, n
    two = expand_terms(2)
    assert two == ((1, "AA"), (1, "AB"), (1, "BA"), (-1, "BB"))
    three = expand_terms(3)
    assert pair_recursion(3)[1] == {"AAA": -2, "ABB": 2, "BAB": 2, "BBA": 2}
    assert three == ((2, "AAB"), (2, "ABA"), (2, "BAA"), (-2, "BBB"))


def test_term_commutation_pattern():
    """All product terms commute pairwise for odd n; for even n some pair
    fails to commute (commutator norms tested at 1e-12)."""
    for n in (3, 5):
        for twice in (1, 2):
            assert commutation_report(Scenario(n, Spin(twice))).all_commute, (n, twice)
    for n in (2, 4):
        for twice in (1, 2):
            assert not commutation_report(Scenario(n, Spin(twice))).all_commute, (n, twice)


def test_construction_paths_agree():
    """Product-form and termwise dense assembly agree exactly in scaled
    integer arithmetic, and the matrix-free product matches the dense product
    at 1e-12 relative on 100 random vectors per scenario."""
    for n, twice in DENSE_GRID:
        scenario = Scenario(n, Spin(twice))
        assert np.array_equal(
            dense_scaled_product(scenario), dense_scaled_terms(scenario)
        ), (n, twice)
        op = full_space_operator(scenario)
        dense = assemble_dense(scenario)
        rng = np.random.default_rng(1000 * n + twice)
        for _ in range(100):
            v = rng.standard_normal(scenario.global_dimension())
            want = dense @ v
            got = op.apply(v)
            assert np.linalg.norm(got - want) <= 1e-12 * max(
                1.0, np.linalg.norm(want)
            ), (n, twice)


def test_born_rule_consistent_with_operator_expectations():
    """For random states and every setting string, the Born-rule correlation
    equals the operator expectation value at 1e-10 absolute (n up to 4)."""
    cases = [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2)]
    for n, twice in cases:
        scenario = Scenario(n, Spin(twice))
        op = full_space_operator(scenario)
        rng = np.random.default_rng(77 * n + twice)
        for _ in range(3):
            state = rng.standard_normal(scenario.global_dimension())
            state /= np.linalg.norm(state)
            for settings in map("".join, itertools.product("AB", repeat=n)):
                born = correlation(scenario, full_space_distribution(scenario, state, settings))
                operator_value = float(state @ apply_term(op, settings, state))
                assert abs(born - operator_value) <= 1e-10, (n, twice, settings)


def test_simulated_experiment_shows_statistical_violation():
    """At 10**6 total shots the sampled Bell value sits at least 5 standard
    errors above the classical bound and within 5 of the quantum maximum,
    while a local-hidden-variable control never rises 5 standard errors
    above the bound."""
    total_shots = 10 ** 6
    seed = 42
    for n, twice in [(2, 1), (2, 2), (3, 1)]:
        scenario = Scenario(n, Spin(twice))
        estimate = estimate_bell_value(scenario, total_shots, seed)
        assert estimate.shots_per_setting == total_shots // expected_term_count(n)
        assert violation_sigmas(estimate, classical_bound(scenario)) >= 5, (n, twice)
        quantum = predicted_quantum_max(scenario)
        assert abs(estimate.value - quantum) <= 5 * estimate.stderr, (n, twice)
        control = lhv_sample(scenario, total_shots, seed)
        margin = control.mean - float(classical_bound(scenario))
        assert margin / control.stderr < 5, (n, twice)


def test_every_sampled_term_matches_its_prediction():
    """Each sampled term's correlation lies within 6 standard errors of
    s**n cos(b pi/2 - pi (n-1)/4), b the letters B (1e-6 absolute where its
    standard error is 0, at odd n), for n = 2..5 and 2s in {1, 3, 5}, so
    per-term errors cannot cancel in the sum; and the coefficients weight
    the predictions to the closed-form maximum at 1e-12 relative."""
    total_shots = 10 ** 6
    for n in range(2, 6):
        for twice in (1, 3, 5):
            scenario = Scenario(n, Spin(twice))
            s = twice / 2
            estimate = estimate_bell_value(scenario, total_shots, seed=42)
            terms = expand_terms(n)
            for (_, labels), (sampled, mean, stderr) in zip(terms, estimate.per_term):
                assert sampled == labels
                miss = abs(mean - predicted_correlation(n, s, labels))
                assert miss <= (6 * stderr if stderr > 0 else 1e-6), (n, twice, labels)
            total = sum(c * predicted_correlation(n, s, labels) for c, labels in terms)
            predicted = predicted_quantum_max(scenario)
            assert abs(total - predicted) <= 1e-12 * predicted, (n, twice)
