import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from mkbell import measurement, operators, quantum
from mkbell.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExpand:
    def test_two_party_json(self, capsys):
        code, out, _ = run(capsys, "expand", "--n", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload == [
            {"coefficient": 1, "labels": "AA"},
            {"coefficient": 1, "labels": "AB"},
            {"coefficient": 1, "labels": "BA"},
            {"coefficient": -1, "labels": "BB"},
        ]

    def test_three_party_csv(self, capsys):
        code, out, _ = run(capsys, "expand", "--n", "3", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "coefficient,labels"
        assert lines[1:] == ["2,AAB", "2,ABA", "2,BAA", "-2,BBB"]

    def test_five_party_bytes(self, capsys):
        # Re[(1 - i)^4 i^b] = -4, 0, 4, 0 for b = 0, 1, 2, 3 (mod 4) letters B.
        terms = [{"coefficient": 4 if labels.count("B") == 2 else -4, "labels": labels}
                 for labels in map("".join, itertools.product("AB", repeat=5))
                 if labels.count("B") % 2 == 0]
        code, out, _ = run(capsys, "expand", "--n", "5")
        assert code == 0
        assert out == json.dumps(terms, indent=2) + "\n"

    @pytest.mark.parametrize("argv", [("--n", "25"), ("--n", "6", "--dim-cap", "32")])
    def test_label_strings_past_cap(self, capsys, monkeypatch, argv):
        # 2**n label strings: exit 3 before any is built.
        def no_expansion(n):
            raise AssertionError("expanded past the cap")

        monkeypatch.setattr("mkbell.expansion.expand_terms", no_expansion)
        code, out, err = run(capsys, "expand", *argv)
        assert (code, out) == (3, "")
        assert "exceeds cap" in err

    def test_budget_counts_letters(self, capsys, monkeypatch):
        # n 2**n = 160 letters at n = 5: printed at cap 160; at 159, exit 3
        # before the expansion runs.
        code, out, _ = run(capsys, "expand", "--n", "5", "--dim-cap", "160")
        assert code == 0
        assert len(json.loads(out)) == 16

        def no_expansion(n):
            raise AssertionError("expanded past the cap")

        monkeypatch.setattr("mkbell.expansion.expand_terms", no_expansion)
        code, out, err = run(capsys, "expand", "--n", "5", "--dim-cap", "159")
        assert (code, out) == (3, "")
        assert "exceeds cap 159" in err


class TestClassicalMax:
    def test_two_party_half(self, capsys):
        code, out, _ = run(capsys, "classical-max", "--n", "2", "--spin", "1/2")
        assert code == 0
        payload = json.loads(out)
        assert payload["bound"] == "1/2"
        assert payload["achieved"] is True
        assert payload["strategies_checked"] == 16
        assert len(payload["argmax_a"]) == 2

    def test_full_grid(self, capsys):
        code, out, _ = run(capsys, "classical-max", "--n", "2", "--spin", "1",
                           "--full-grid")
        assert code == 0
        payload = json.loads(out)
        assert payload["bound"] == "2"
        assert payload["strategies_checked"] == 81

    def test_full_grid_beyond_enumeration(self, capsys):
        code, out, _ = run(capsys, "classical-max", "--n", "6", "--spin", "2",
                           "--full-grid")
        assert code == 0
        payload = json.loads(out)
        assert payload["bound"] == "2048"
        assert payload["achieved"] is True
        assert payload["strategies_checked"] == 5 ** 12

    def test_exact_beyond_int64(self, capsys):
        # Values reach 2**9 * 200**10 > 2**63; int64 arithmetic would wrap.
        code, out, _ = run(capsys, "classical-max", "--n", "10", "--spin", "100")
        assert code == 0
        payload = json.loads(out)
        assert payload["bound"] == "51200000000000000000000"
        assert payload["achieved"] is True
        assert payload["argmax_a"] == payload["argmax_b"] == ["100"] * 10

    @pytest.mark.parametrize("command", ["classical-max", "ratio", "report"])
    def test_extremal_beyond_enumeration(self, capsys, command):
        # 4**14 sign patterns: a 60 GB enumeration table, certified without one.
        code, out, _ = run(capsys, command, "--n", "14", "--spin", "1/2")
        assert code == 0
        payload = json.loads(out)
        if command == "classical-max":
            assert payload["bound"] == "1/2"
            assert payload["achieved"] is True
        elif command == "ratio":
            assert payload["relative_error"] < 1e-8
        else:
            assert payload["rows"][0]["classical"] == "1/2"

    def test_largest_n_under_default_cap(self, capsys):
        start = time.perf_counter()
        code, out, _ = run(capsys, "classical-max", "--n", "24", "--spin", "1/2")
        assert time.perf_counter() - start < 1.0
        assert code == 0
        payload = json.loads(out)
        assert payload["bound"] == "1/2"
        assert payload["achieved"] is True
        assert payload["strategies_checked"] == 4 ** 24

    def test_beyond_dimension_cap(self, capsys):
        # The certificate allocates nothing of the global dimension 2**30.
        code, out, _ = run(capsys, "classical-max", "--n", "30", "--spin", "1/2")
        assert code == 0
        payload = json.loads(out)
        assert payload["bound"] == "1/2"
        assert payload["achieved"] is True
        assert payload["strategies_checked"] == 4 ** 30

    @pytest.mark.parametrize("digits", [640, None])
    @pytest.mark.parametrize("spin,twice,grid", [("1/2", 1, ()), ("1", 2, ("--full-grid",)),
                                                 ("5/2", 5, ())])
    def test_digit_cap(self, capsys, digits, spin, twice, grid):
        # Exit 3 at the first n whose report holds an exact integer longer than
        # Python converts to text: the strategy count 4**n, 9**n or the bound's
        # numerator 5**n.  The DP runs below it only at the short limit.
        default = sys.get_int_max_str_digits()
        limit = 10 ** (digits or default)

        def largest(n):
            numerator = twice ** n if twice % 2 else twice ** n // 2
            return max(numerator, 4 ** n if not grid else (twice + 1) ** (2 * n))

        lo, hi = 1, 2  # largest(lo) < limit <= largest(hi)
        while largest(hi) < limit:
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if largest(mid) < limit else (lo, mid)
        sys.set_int_max_str_digits(digits or default)
        try:
            code, out, err = run(capsys, "classical-max", "--n", str(hi), "--spin", spin, *grid)
            assert (code, out) == (3, "")
            assert "digits" in err
            if digits:
                code, out, _ = run(capsys, "classical-max", "--n", str(lo), "--spin", spin, *grid)
                assert code == 0
                assert json.loads(out)["achieved"] is True
        finally:
            sys.set_int_max_str_digits(default)

    def test_dim_cap_is_not_an_option(self, capsys):
        # The certificate allocates nothing of the global dimension.
        with pytest.raises(SystemExit):
            main(["classical-max", "--n", "2", "--spin", "1/2", "--dim-cap", "8"])

    def test_huge_n_fails_fast(self, capsys):
        # 4**(10**5) has 60206 digits; exit 3 before the certificate runs.
        start = time.perf_counter()
        code, _, err = run(capsys, "classical-max", "--n", str(10 ** 5), "--spin", "1/2")
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert "digits" in err


class TestDimensionCap:
    @pytest.mark.parametrize("command", ["quantum-max", "ratio", "sample", "report"])
    def test_first_n_past_default_cap(self, capsys, monkeypatch, command):
        # 2**25 > 2**24: exit 3 before the top state is built.
        def no_state(*args, **kwargs):
            raise AssertionError("built a state beyond the cap")

        monkeypatch.setattr(quantum, "top_state", no_state)
        code, out, err = run(capsys, command, "--n", "25", "--spin", "1/2")
        assert code == 3
        assert out == ""
        assert "exceeds cap 16777216" in err

    @pytest.mark.parametrize("argv", [
        ("expand", "--n", "20"),
        ("sample", "--n", "14", "--spin", "1/2"),
        ("report", "--grid", "n=13..13", "s=1/2..1/2", "--sample"),
    ])
    def test_past_the_budget_fails_fast(self, capsys, argv):
        # 20 * 2**20 letters, 4**7 * 2**14 and 4**6 * 2**13 outcome probabilities.
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert "exceeds cap 16777216" in err

    def test_huge_n_fails_fast(self, capsys):
        # Forming 3**(10**7) alone takes seconds.
        start = time.perf_counter()
        code, _, err = run(capsys, "quantum-max", "--n", str(10 ** 7), "--spin", "1")
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert "exceeds cap" in err


class TestQuantumMax:
    def test_two_party_half(self, capsys):
        code, out, _ = run(capsys, "quantum-max", "--n", "2", "--spin", "1/2")
        assert code == 0
        payload = json.loads(out)
        assert payload["top_eigenvalue"] == pytest.approx(np.sqrt(2) / 2, rel=1e-8)
        assert payload["predicted"] == pytest.approx(np.sqrt(2) / 2, rel=1e-12)
        assert payload["relative_error"] < 1e-8
        assert payload["gap"] == pytest.approx(np.sqrt(2) / 2, rel=1e-6)

    def test_gap_beyond_dense_spectrum_cap(self, capsys):
        # D = 12**4 is past any dense solve; the gap is top / s in closed form.
        code, out, _ = run(capsys, "quantum-max", "--n", "4", "--spin", "11/2")
        assert code == 0
        payload = json.loads(out)
        assert payload["gap"] == pytest.approx(payload["predicted"] * 2 / 11, rel=1e-11)
        assert payload["iterations"] == 1

    def test_gap_for_every_n_under_the_cap(self, capsys):
        # The spin-1/2 top 2**((n-3)/2) is also the gap: 32 at n = 13.
        code, out, _ = run(capsys, "quantum-max", "--n", "13", "--spin", "1/2")
        assert code == 0
        assert json.loads(out)["gap"] == 32.0

    def test_corrupted_matvec_exits_4(self, capsys, monkeypatch):
        exact = operators.GlobalOperator.apply
        monkeypatch.setattr(operators.GlobalOperator, "apply",
                            lambda self, v: exact(self, v) + 1e-6 * np.roll(v, 1))
        code, out, err = run(capsys, "quantum-max", "--n", "3", "--spin", "1")
        assert (code, out) == (4, "")
        assert "residual" in err

    @pytest.mark.parametrize("argv", [
        ("quantum-max", "--n", "3", "--spin", "1"),
        ("ratio", "--n", "3", "--spin", "3/2"),
        ("sample", "--n", "2", "--spin", "1", "--shots", "4000"),
        ("report", "--grid", "n=1..3", "s=1/2..1", "--sample", "--shots", "4000"),
    ])
    def test_no_dense_eigensolver_on_the_command_path(self, capsys, monkeypatch, argv):
        def no_solve(*args, **kwargs):
            raise AssertionError("called a dense eigensolver")

        monkeypatch.setattr(np.linalg, "eigh", no_solve)
        monkeypatch.setattr(np.linalg, "eigvalsh", no_solve)
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out

    def test_gap_never_assembles_the_full_space(self, capsys, monkeypatch):
        real = operators.assemble_dense

        def qubit_only(scenario, *args, **kwargs):
            if scenario.global_dimension() > 1 << scenario.n:
                raise AssertionError(f"dense assembly of {scenario}")
            return real(scenario, *args, **kwargs)

        monkeypatch.setattr(operators, "assemble_dense", qubit_only)
        monkeypatch.setattr(quantum, "assemble_dense", qubit_only)
        code, out, _ = run(capsys, "quantum-max", "--n", "6", "--spin", "3/2")
        assert code == 0
        # The gap the dense oracle prints from its 4096 x 4096 spectrum.
        assert json.loads(out)["gap"] == 1374.61558263

    def test_dim_cap_exit_code(self, capsys):
        code, _, err = run(capsys, "quantum-max", "--n", "3", "--spin", "1",
                           "--dim-cap", "8")
        assert code == 3
        assert "error" in err


class TestRatio:
    def test_three_party_spin_one(self, capsys):
        code, out, _ = run(capsys, "ratio", "--n", "3", "--spin", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["ratio"] == pytest.approx(2.0, rel=1e-8)
        assert payload["predicted"] == 2.0


class TestSample:
    def test_reproducible_violation(self, capsys):
        args = ("sample", "--n", "2", "--spin", "1/2",
                "--shots", "40000", "--seed", "7")
        code, out1, _ = run(capsys, *args)
        assert code == 0
        code, out2, _ = run(capsys, *args)
        assert code == 0
        assert out1 == out2
        payload = json.loads(out1)
        assert payload["shots_per_setting"] == 10000
        assert payload["classical_bound"] == "1/2"
        assert len(payload["per_term"]) == 4
        assert payload["bell_estimate"] == pytest.approx(
            np.sqrt(2) / 2, abs=8 * payload["bell_stderr"]
        )
        assert payload["sigmas_above_classical"] > 5

    def test_budget_counts_distributions(self, capsys, monkeypatch):
        # 4**2 setting contexts, each a distribution over 2**4 outcomes: 256
        # entries.  At cap 255, exit 3 before the first distribution.
        def no_distribution(*args, **kwargs):
            raise AssertionError("built a distribution past the cap")

        argv = ("sample", "--n", "4", "--spin", "1/2", "--dim-cap")
        with monkeypatch.context() as patch:
            patch.setattr(measurement, "joint_distribution", no_distribution)
            code, out, err = run(capsys, *argv, "255")
        assert (code, out) == (3, "")
        assert "exceeds cap 255" in err
        code, out, _ = run(capsys, *argv, "256")
        assert code == 0
        assert len(json.loads(out)["per_term"]) == 16


class TestReport:
    def test_grid_json(self, capsys):
        code, out, _ = run(capsys, "report", "--grid", "n=2..3", "s=1/2..1")
        assert code == 0
        payload = json.loads(out)
        rows = payload["rows"]
        assert len(rows) == 4
        by_key = {(row["n"], row["s"]): row for row in rows}
        assert by_key[(3, "1")]["classical"] == "4"
        assert by_key[(3, "1")]["quantum"] == pytest.approx(8.0, rel=1e-8)
        assert by_key[(3, "1")]["ratio"] == pytest.approx(2.0, rel=1e-8)

    def test_single_scenario_csv_to_file(self, capsys, tmp_path):
        target = tmp_path / "report.csv"
        code, out, _ = run(capsys, "report", "--n", "2", "--spin", "1/2",
                           "--format", "csv", "--output", str(target))
        assert code == 0
        assert out == ""
        lines = target.read_text().strip().splitlines()
        assert lines[0].startswith("n,s,classical,quantum,ratio")
        assert lines[1].startswith("2,1/2,1/2,")

    def test_bad_grid_exit_code(self, capsys):
        code, _, err = run(capsys, "report", "--grid", "n=2..3", "s=oops")
        assert code == 2
        assert "error" in err

    def test_missing_scenario_is_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["report"])


class TestPayloadKeys:
    @pytest.mark.parametrize("argv,keys,config", [
        (("classical-max", "--n", "2", "--spin", "1/2"),
         ["config", "bound", "achieved", "argmax_a", "argmax_b", "strategies_checked"],
         ["command", "n", "s", "full_grid"]),
        (("quantum-max", "--n", "2", "--spin", "1/2"),
         ["config", "top_eigenvalue", "predicted", "relative_error", "gap", "iterations"],
         ["command", "n", "s", "tol"]),
        (("ratio", "--n", "2", "--spin", "1/2"),
         ["config", "ratio", "predicted", "relative_error"],
         ["command", "n", "s", "tol"]),
        (("sample", "--n", "2", "--spin", "1/2", "--shots", "400"),
         ["config", "shots_per_setting", "per_term", "bell_estimate", "bell_stderr",
          "classical_bound", "quantum_prediction", "sigmas_above_classical"],
         ["command", "n", "s", "shots", "seed"]),
        (("report", "--n", "2", "--spin", "1/2", "--sample", "--shots", "400"),
         ["config", "rows"],
         ["command", "grid", "tol", "sample", "shots", "seed"]),
    ])
    def test_exact_keys(self, capsys, argv, keys, config):
        # n, s and seed appear once, in config.
        code, out, _ = run(capsys, *argv)
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == keys
        assert list(payload["config"]) == config

    def test_expand_and_report_rows(self, capsys):
        code, out, _ = run(capsys, "expand", "--n", "2")
        assert code == 0
        assert {tuple(term) for term in json.loads(out)} == {("coefficient", "labels")}
        code, out, _ = run(capsys, "report", "--n", "2", "--spin", "1/2", "--sample",
                           "--shots", "400")
        assert code == 0
        assert list(json.loads(out)["rows"][0]) == [
            "n", "s", "classical", "quantum", "ratio", "gap",
            "bell_estimate", "bell_stderr", "shots_per_setting"]


class TestImports:
    def test_cli_does_not_import_scipy(self):
        # The CLI's import time and memory stay at numpy's.
        env = dict(os.environ, PYTHONPATH=str(SRC))
        subprocess.run(
            [sys.executable, "-c",
             "import mkbell.cli, sys; assert 'scipy' not in sys.modules"],
            env=env, check=True, timeout=60,
        )


class TestArgs:
    def test_bad_spin_is_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["classical-max", "--n", "2", "--spin", "1/3"])
