import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from mkbell import quantum
from mkbell.errors import CapExceeded, NotConverged
from mkbell.expansion import expand_terms
from mkbell.measurement import top_state
from mkbell.operators import assemble_dense, global_operator, make_A, make_B
from mkbell.quantum import (
    TOLERANCE,
    block_scale,
    class_weights,
    dense_spectrum,
    ghz_amplitudes,
    largest_eigenpair,
    predicted_quantum_max,
    predicted_ratio,
    spectral_gap,
)
from mkbell.spincore import Scenario, Spin
from oracles import (
    apply_term,
    embed,
    full_space_operator,
    lanczos_top,
    matvec_certificate,
    predicted_quantum_max_by_powers,
    symmetric_certificate,
    violation_ratio,
)

SQRT2 = np.sqrt(2.0)


class TestPredictions:
    @pytest.mark.parametrize(
        "n,twice,expected",
        [
            (2, 1, SQRT2 / 2),
            (2, 2, 2 * SQRT2),
            (3, 1, 1.0),
            (3, 2, 8.0),
            (3, 3, 27.0),
            (4, 2, 2 ** 4.5),
        ],
    )
    def test_quantum_max_formula(self, n, twice, expected):
        assert predicted_quantum_max(Scenario(n, Spin(twice))) == pytest.approx(
            expected, rel=1e-14
        )

    def test_bit_identical_to_the_power_of_two_first_formula(self):
        # Wherever the oracle's 2.0**(1.5(n-1)) * s**n is finite, the value is
        # the same float; where the oracle overflows, so does the value.
        for twice in range(1, 16):
            for n in range(1, 684):
                scenario = Scenario(n, Spin(twice))
                try:
                    old = predicted_quantum_max_by_powers(scenario)
                except OverflowError:
                    old = float("inf")
                if old < float("inf"):
                    assert predicted_quantum_max(scenario) == old, (n, twice)
                else:
                    with pytest.raises(OverflowError):
                        predicted_quantum_max(scenario)

    @pytest.mark.parametrize("n", [684, 1000, 1075, 2048, 2050])
    def test_spin_half_is_finite_up_to_the_float_range(self, n):
        # 2**((n-3)/2): the power of two first overflowed from n = 684.
        scenario = Scenario(n, Spin(1))
        with pytest.raises(OverflowError):
            predicted_quantum_max_by_powers(scenario)
        assert predicted_quantum_max(scenario) == pytest.approx(2.0 ** ((n - 3) / 2), rel=1e-15)

    def test_past_the_float_range_raises(self):
        for n, twice in [(2051, 1), (10 ** 7, 2), (10 ** 4000, 1), (2, 10 ** 200)]:
            with pytest.raises(OverflowError):
                predicted_quantum_max(Scenario(n, Spin(twice)))

    def test_block_scale_needs_the_top_and_the_ratio_in_range(self):
        # At s = 1/2 the ratio 2**((n-1)/2) overflows from n = 2049, before
        # the top eigenvalue does.
        assert block_scale(Scenario(2048, Spin(1))) == 1.0
        for n, twice in [(2049, 1), (2051, 1), (10 ** 7, 2), (10 ** 4000, 1), (2, 10 ** 200)]:
            with pytest.raises(CapExceeded, match="past the float range"):
                block_scale(Scenario(n, Spin(twice)))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_ratio_formula(self, n):
        assert predicted_ratio(n) == pytest.approx(2 ** ((n - 1) / 2), rel=1e-14)


class TestDenseSpectrum:
    def test_two_party_half(self):
        report = dense_spectrum(Scenario(2, Spin(1)))
        assert np.allclose(report.eigenvalues, [-SQRT2 / 2, 0.0, 0.0, SQRT2 / 2],
                           atol=1e-12)
        assert report.top_value == pytest.approx(SQRT2 / 2, rel=1e-12)
        assert report.degeneracy_of_top == 1
        gap = report.eigenvalues[-1] - report.eigenvalues[-2]
        assert gap == pytest.approx(SQRT2 / 2, rel=1e-9)

    @pytest.mark.parametrize("n,twice", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 1), (5, 1)])
    def test_top_matches_prediction(self, n, twice):
        scenario = Scenario(n, Spin(twice))
        report = dense_spectrum(scenario)
        assert report.top_value == pytest.approx(
            predicted_quantum_max(scenario), rel=1e-9
        )
        assert report.degeneracy_of_top == 1

    def test_cap(self):
        with pytest.raises(CapExceeded):
            dense_spectrum(Scenario(8, Spin(2)))


class TestLargestEigenpair:
    """``largest_eigenpair``: the closed-form state, checked by one matvec."""

    @pytest.mark.parametrize("n,twice", [(2, 1), (2, 3), (3, 1), (3, 2), (4, 1), (5, 1)])
    def test_matches_dense_top(self, n, twice):
        scenario = Scenario(n, Spin(twice))
        result = largest_eigenpair(scenario)
        top = dense_spectrum(scenario).top_value
        assert result.value == pytest.approx(top, rel=1e-8)
        vec = top_state(scenario)
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-9)
        full = embed(scenario, vec)
        residual = np.linalg.norm(assemble_dense(scenario) @ full - result.value * full)
        assert residual <= 1e-9 * max(1.0, abs(result.value))

    def test_agrees_with_lanczos_where_the_uniform_vector_is_not_on_top(self):
        # For three spin-1 parties the uniform vector sits in a lower
        # eigenspace; the closed form and Lanczos from a random start both
        # give the true maximum.
        result = largest_eigenpair(Scenario(3, Spin(2)))
        assert result.value == pytest.approx(8.0, rel=1e-8)
        assert lanczos_top(Scenario(3, Spin(2))).value == pytest.approx(8.0, rel=1e-8)

    def test_not_converged_carries_best_state(self, monkeypatch):
        # Amplitudes off by 1e-8 fail the check with the value still right to
        # second order; the amplitudes are built once, for the one matvec.
        scenario = Scenario(3, Spin(5))
        exact, calls = ghz_amplitudes, []

        def shifted(n):
            calls.append(n)
            y = exact(n)
            y[0] += 1e-8
            return y

        monkeypatch.setattr(quantum, "ghz_amplitudes", shifted)
        with pytest.raises(NotConverged) as info:
            largest_eigenpair(scenario)
        err = info.value
        assert err.iterations == len(calls) == 1
        assert 1e-9 * err.best_value < err.best_residual < 1e-5
        assert err.best_value == pytest.approx(predicted_quantum_max(scenario), rel=1e-6)

    def test_tolerance_below_rounding_fails_the_check(self, monkeypatch):
        scenario = Scenario(4, Spin(3))
        residual = largest_eigenpair(scenario).residual
        assert 0 < residual <= 1e-14 * predicted_quantum_max(scenario)
        monkeypatch.setattr(quantum, "TOLERANCE", residual / predicted_quantum_max(scenario) / 2)
        with pytest.raises(NotConverged):
            largest_eigenpair(scenario)


class TestSymmetricCertificate:
    """The certificate on the four residue classes of b mod 4 against the 2**n
    matvec oracle and the n + 1 symmetric-amplitude oracle."""

    @pytest.mark.parametrize("n", range(1, 21))
    def test_agrees_with_the_matvec_oracle(self, n):
        # The oracle at spin s is (2s)**n times its spin-1/2 value and residual
        # (one state and one matvec on 2**n entries), so one matvec serves
        # every spin.
        half = matvec_certificate(Scenario(n, Spin(1)))
        for twice in range(1, 16):
            scenario = Scenario(n, Spin(twice))
            scale = block_scale(scenario)
            oracle = (scale * half.value, scale * half.residual)
            result = largest_eigenpair(scenario)
            assert result.value == pytest.approx(oracle[0], rel=1e-12, abs=0), twice
            for value, residual in ((result.value, result.residual), oracle):
                assert residual <= 1e-9 * max(1.0, abs(value)), twice

    @pytest.mark.parametrize("twice", [1, 2, 3, 15])
    def test_agrees_with_the_symmetric_oracle(self, twice):
        # Same value to 1e-12 and to the 12 printed digits, both residuals
        # within TOLERANCE; past the float range both stop at block_scale.
        for n in [*range(1, 257), 511, 1024, 2047, 2048]:
            scenario = Scenario(n, Spin(twice))
            try:
                oracle = symmetric_certificate(scenario)
            except CapExceeded:
                with pytest.raises(CapExceeded):
                    largest_eigenpair(scenario)
                continue
            result = largest_eigenpair(scenario)
            assert result.value == pytest.approx(oracle.value, rel=1e-12, abs=0), n
            assert f"{result.value:.12g}" == f"{oracle.value:.12g}", n
            for value, residual in ((result.value, result.residual),
                                    (oracle.value, oracle.residual)):
                assert residual <= TOLERANCE * max(1.0, abs(value)), n

    def test_class_weights_are_the_exact_binomial_sums(self):
        # W_r = sum over b = r (mod 4) of C(n, b) / 2**(n-1), correctly
        # rounded, and exactly 0 for a class with no b in it.
        assert class_weights(1) == [1.0, 1.0, 0.0, 0.0]
        assert class_weights(2) == [0.5, 1.0, 0.5, 0.0]
        for n in range(1, 301):
            row = [math.comb(n, b) for b in range(n + 1)]
            exact = [float(Fraction(sum(row[r::4]), 2 ** (n - 1))) for r in range(4)]
            assert class_weights(n) == exact, n

    def test_rank_one_factor_is_a_plus_i_b(self):
        # v v^T / 2 = A + iB at spin 1/2, with make_A, make_B in twice-entries.
        v = np.array(quantum.RANK_ONE)
        assert np.array_equal(np.outer(v, v), make_A(Spin(1)) + 1j * make_B(Spin(1)))

    @pytest.mark.parametrize("factor", [(1, 1j * (1 + 1e-6)), (1, -1j), (1 + 1e-6, 1j)])
    def test_corrupted_factor_fails_the_check(self, monkeypatch, factor):
        monkeypatch.setattr(quantum, "RANK_ONE", factor)
        with pytest.raises(NotConverged, match="residual"):
            largest_eigenpair(Scenario(4, Spin(3)))

    @pytest.mark.parametrize("n", range(1, 13))
    def test_amplitudes_are_the_top_state(self, n):
        # top_state's entry with b bits set is 2**((1-n)/2) cos(pi (4b - n + 1) / 8)
        # for its own b, bit for bit: sampling draws from the amplitudes the
        # certificate checks, and a wrong b mod 4 lookup fails from b = 4.
        y = [math.cos(math.pi * ((4 * bin(index).count("1") - n + 1) % 16) / 8)
             for index in range(1 << n)]
        state = top_state(Scenario(n, Spin(1)))
        assert np.array_equal(state, 2.0 ** ((1 - n) / 2) * np.array(y))

    def test_float_range_bounds_the_amplitudes(self, monkeypatch):
        # The ratio 2**((n-1)/2) leaves the floats at n = 2049 at every spin,
        # before any amplitude is formed; the certificate holds four floats at
        # any n and counts none against the array budget.
        def no_amplitudes(n):
            raise AssertionError(f"formed the amplitudes at n = {n}")

        with monkeypatch.context() as patch:
            patch.setattr(quantum, "ghz_amplitudes", no_amplitudes)
            for twice in (1, 2, 15):
                with pytest.raises(CapExceeded, match="past the float range"):
                    largest_eigenpair(Scenario(2049, Spin(twice)))
        result = largest_eigenpair(Scenario(2048, Spin(1), dim_cap=1))
        assert result.value == pytest.approx(2.0 ** 1022.5, rel=1e-13)


class TestLanczos:
    """The restarted Lanczos oracle against the closed-form eigenpair."""

    def test_repeat_call_is_bit_identical(self):
        scenario = Scenario(3, Spin(3))
        assert largest_eigenpair(scenario) == largest_eigenpair(scenario)
        first, second = lanczos_top(scenario), lanczos_top(scenario)
        assert np.array_equal(first.vector, second.vector)
        assert (first.value, first.iterations) == (second.value, second.iterations)

    @pytest.mark.parametrize("n,twice", [(3, 3), (3, 5), (4, 11)])
    def test_few_matvecs_and_closed_form(self, n, twice):
        scenario = Scenario(n, Spin(twice))
        result = largest_eigenpair(scenario)
        assert result.iterations == 1
        assert result.value == pytest.approx(predicted_quantum_max(scenario), rel=1e-12)
        oracle = lanczos_top(scenario)
        assert oracle.iterations <= 60
        assert oracle.value == pytest.approx(result.value, rel=1e-12)
        assert abs(oracle.vector @ embed(scenario, top_state(scenario))) == pytest.approx(
            1.0, abs=1e-9)

    @pytest.mark.parametrize("n,twice", [(3, 3), (3, 5)])
    def test_stable_under_matvec_rounding_noise(self, n, twice):
        # Relative noise of 1e-16 on every matvec stands in for a matvec that
        # differs only in its last bits; the eigenvalue must not move.
        scenario = Scenario(n, Spin(twice))
        clean = largest_eigenpair(scenario)
        for solve, build, most in ((matvec_certificate, global_operator, 1),
                                   (lanczos_top, full_space_operator, 60)):
            # ``GlobalOperator`` is immutable: the solver gets a noisy stand-in.
            exact, rng = build(scenario).apply, np.random.default_rng(7)
            op = SimpleNamespace(
                apply=lambda v: exact(v) * (1 + 1e-16 * rng.standard_normal(v.size)))
            noisy = solve(scenario, operator=op)
            assert noisy.value == pytest.approx(clean.value, rel=1e-12)
            assert noisy.iterations <= most

    def test_budget_raises_not_converged(self):
        # (3, 5/2) needs 21 Lanczos matvecs at tol 1e-9, so each budget runs out.
        scenario = Scenario(3, Spin(5))
        for max_iter in (1, 2, 7):
            op = full_space_operator(scenario)
            exact, calls = op.apply, []
            op.apply = lambda v: calls.append(1) or exact(v)
            with pytest.raises(NotConverged) as info:
                lanczos_top(scenario, max_iter=max_iter, operator=op)
            err = info.value
            assert err.iterations == len(calls) == max_iter
            assert np.isfinite(err.best_residual) and err.best_residual > 0
            assert np.isfinite(err.best_value)


def _term_correlations(state, scenario):
    """Each product term's correlation <state|term|state>, by label string."""
    op = full_space_operator(scenario)
    return {labels: float(state @ apply_term(op, labels, state))
            for _, labels in expand_terms(scenario.n)}


class TestExpectation:
    def test_top_state_reproduces_eigenvalue(self):
        scenario = Scenario(3, Spin(1))
        result = largest_eigenpair(scenario)
        corr = _term_correlations(top_state(scenario), scenario)
        value = sum(c * corr[labels] for c, labels in expand_terms(3))
        assert value == pytest.approx(result.value, rel=1e-8)

    def test_two_party_half_per_term(self):
        scenario = Scenario(2, Spin(1))
        terms = _term_correlations(top_state(scenario), scenario)
        unit = 1.0 / (4 * SQRT2)
        assert terms["AA"] == pytest.approx(unit, abs=1e-9)
        assert terms["AB"] == pytest.approx(unit, abs=1e-9)
        assert terms["BA"] == pytest.approx(unit, abs=1e-9)
        assert terms["BB"] == pytest.approx(-unit, abs=1e-9)
        value = sum(c * terms[labels] for c, labels in expand_terms(2))
        assert value == pytest.approx(SQRT2 / 2, rel=1e-9)


class TestRatio:
    @pytest.mark.parametrize("n,twice", [(2, 1), (3, 1), (3, 2), (4, 1)])
    def test_matches_prediction(self, n, twice):
        assert violation_ratio(Scenario(n, Spin(twice))) == pytest.approx(
            predicted_ratio(n), rel=1e-8
        )

    @pytest.mark.parametrize("twice", [1, 2, 3])
    def test_independent_of_spin(self, twice):
        assert violation_ratio(Scenario(3, Spin(twice))) == pytest.approx(
            2.0, rel=1e-8
        )


class TestDegeneracy:
    @pytest.mark.parametrize("n,twice", [(2, 1), (3, 1), (3, 2), (4, 1)])
    def test_top_is_isolated(self, n, twice):
        scenario = Scenario(n, Spin(twice))
        eigenvalues = dense_spectrum(scenario).eigenvalues
        assert spectral_gap(scenario) > 0
        assert spectral_gap(scenario) == pytest.approx(
            eigenvalues[-1] - eigenvalues[-2], rel=1e-12)

    @pytest.mark.parametrize("twice", [1, 2, 3, 4])
    def test_one_party_gap_is_the_level_spacing(self, twice):
        eigenvalues = dense_spectrum(Scenario(1, Spin(twice))).eigenvalues
        assert spectral_gap(Scenario(1, Spin(twice))) == eigenvalues[-1] - eigenvalues[-2] == 1.0

    def test_gap_needs_no_cap(self):
        # D = 12**30 is far past any cap; the gap is a formula in n and s.
        scenario = Scenario(30, Spin(11), dim_cap=16)
        assert spectral_gap(scenario) == pytest.approx(
            predicted_quantum_max(scenario) * 2 / 11, rel=1e-15)


class TestTopState:
    @pytest.mark.parametrize("n,twice", [(1, 1), (1, 4), (2, 1), (3, 2), (4, 3), (5, 1)])
    def test_supported_on_extreme_levels(self, n, twice):
        scenario = Scenario(n, Spin(twice))
        state = embed(scenario, top_state(scenario)).reshape((twice + 1,) * n)
        assert np.linalg.norm(state) == pytest.approx(1.0, abs=1e-15)
        extreme = state[(slice(None, None, twice),) * n]
        assert np.linalg.norm(extreme) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_amplitudes_follow_the_cosine_formula(self, n):
        # Spin 1/2: index bits are the parties, bit 1 the level -1/2.
        state = top_state(Scenario(n, Spin(1)))
        for index, amp in enumerate(state):
            b = bin(index).count("1")
            want = 2 ** ((1 - n) / 2) * np.cos(np.pi * (4 * b - n + 1) / 8)
            assert amp == pytest.approx(want, abs=1e-15)

    def test_cap_checked_before_allocation(self):
        scenario = Scenario(9, Spin(2), dim_cap=3 ** 8)
        with pytest.raises(CapExceeded):
            embed(scenario, top_state(scenario))
