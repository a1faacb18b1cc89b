import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from mkbell import operators, quantum
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
        code, out, _ = run(capsys, "classical-max", "--n", "10", "--spin", "100",
                           "--dim-cap", str(10 ** 27))
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

    def test_huge_n_fails_fast(self, capsys):
        # The exact bound alone takes seconds to form at n = 10**5.
        start = time.perf_counter()
        code, _, err = run(capsys, "classical-max", "--n", str(10 ** 5), "--spin", "1/2")
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert "digits" in err


class TestDimensionCap:
    @pytest.mark.parametrize("command", ["quantum-max", "ratio", "sample", "report"])
    def test_first_n_past_default_cap(self, capsys, monkeypatch, command):
        # 2**25 > 2**24: exit 3 before the eigensolver draws its start vector.
        def no_start_vector(*args, **kwargs):
            raise AssertionError("drew a start vector beyond the cap")

        monkeypatch.setattr(np.random, "default_rng", no_start_vector)
        code, out, err = run(capsys, command, "--n", "25", "--spin", "1/2")
        assert code == 3
        assert out == ""
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
        # D = 12**4 exceeds SPECTRUM_CAP; the 16-row spin-1/2 block does not.
        code, out, _ = run(capsys, "quantum-max", "--n", "4", "--spin", "11/2")
        assert code == 0
        gap = json.loads(out)["gap"]
        assert gap is not None and gap > 0

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
