import argparse
import csv
import gc
import hashlib
import importlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import mkbell
import mkbell.cli
from mkbell import classical, measurement, operators, quantum
from mkbell.cli import build_parser, main
from mkbell.quantum import largest_eigenpair
from mkbell.spincore import Scenario, Spin

SRC = Path(__file__).resolve().parent.parent / "src"
PERFBENCH = SRC.parent / "perfbench"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _no_row(*args, **kwargs):
    raise AssertionError("computed a row of a report past the budget")


def one_scenario(command, n, spin):
    """``command``'s argv for the scenario (n, spin): ``report`` reads it as a
    one-row ``--grid``, every other command from ``--n`` and ``--spin``."""
    if command == "report":
        return command, "--grid", f"n={n}..{n}", f"s={spin}..{spin}"
    return command, "--n", str(n), "--spin", spin


def run_or_exit(capsys, *argv):
    # As ``run``, but an argparse error's SystemExit gives the exit code.
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
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

    def test_count_past_the_digit_limit_exits_3(self, capsys):
        # n 2**n letters at n = 14280 have 4303 digits, more than Python prints:
        # the count is shown as a power of two, under a cap of 4300 digits.
        cap = "9" * 4300
        code, out, err = run(capsys, "expand", "--n", "14280", "--dim-cap", cap)
        assert (code, out) == (3, "")
        assert err == ("error: the label strings for n=14280 would hold at least "
                       f"2**{(14280 << 14280).bit_length() - 1} entries, which exceeds cap {cap}\n")

    def test_huge_n_fails_fast(self, capsys):
        # 2**n decides n 2**n letters for an n of 4300 digits; n << n is not formed.
        n = "9" * 4300
        start = time.perf_counter()
        code, out, err = run(capsys, "expand", "--n", n)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert err == (f"error: the label strings for n={n} would hold at least 2**{n} entries, "
                       "which exceeds cap 16777216\n")


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

    @pytest.mark.parametrize("grid", [(), ("--full-grid",)], ids=["signs", "full-grid"])
    def test_bound_is_formed_once(self, capsys, monkeypatch, grid):
        # The printed bound is classical_max's: classical_bound runs once,
        # inside classical_max, and never from the CLI.
        callers = []
        bound = classical.classical_bound

        def counted(scenario):
            callers.append(sys._getframe(1).f_globals["__name__"])
            return bound(scenario)

        monkeypatch.setattr(classical, "classical_bound", counted)
        code, out, err = run(capsys, "classical-max", "--n", "3", "--spin", "3/2", *grid)
        assert (code, err) == (0, "")
        assert callers == ["mkbell.classical"]
        assert json.loads(out)["bound"] == "27/2"

    def test_csv_bytes(self, capsys):
        # Exact fractions in the key,value layout: (2s)**n / 2 = 27/2.  A
        # nested value is one quoted JSON cell.
        code, out, _ = run(capsys, "classical-max", "--n", "3", "--spin", "3/2",
                           "--format", "csv")
        assert code == 0
        assert out == (
            "key,value\n"
            'config,"{""command"": ""classical-max"", ""n"": 3, ""s"": ""3/2"", '
            '""full_grid"": false}"\n'
            "bound,27/2\n"
            "achieved,True\n"
            'argmax_a,"[""3/2"", ""3/2"", ""3/2""]"\n'
            'argmax_b,"[""3/2"", ""3/2"", ""3/2""]"\n'
            "strategies_checked,64\n"
        )

    def test_unwritable_output_exits_2(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, "classical-max", "--n", "2", "--spin", "1/2",
                             "--output", str(target))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and str(target) in err
        assert not target.exists()

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
        code, out, _ = run(capsys, *one_scenario(command, 14, "1/2"))
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
        # numerator 5**n.  The command runs below it only at the short limit.
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
            assert err == (f"error: an integer in the certificate for n={hi}, s={spin} has more "
                           f"than {digits or default} digits, the limit of "
                           "sys.get_int_max_str_digits()\n")
            if digits:
                code, out, _ = run(capsys, "classical-max", "--n", str(lo), "--spin", spin, *grid)
                assert code == 0
                assert json.loads(out)["achieved"] is True
        finally:
            sys.set_int_max_str_digits(default)

    @pytest.mark.parametrize("argv", [("--n", "1000"), ("--n", "1000", "--full-grid"),
                                      ("--n", "8000", "--full-grid")])
    def test_huge_spin_fails_fast(self, capsys, argv):
        # (2 * 10**4000)**n / 2 has millions of digits: the pre-check decides
        # from bit lengths without forming it, or (2s+1)**(2n).
        start = time.perf_counter()
        code, out, err = run(capsys, "classical-max", "--spin", "1e4000", *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert "digits" in err

    def test_full_grid_bytes(self, capsys):
        code, out, _ = run(capsys, "classical-max", "--n", "4", "--spin", "5/2", "--full-grid")
        assert code == 0
        plus = "\n".join(['    "5/2",'] * 3 + ['    "5/2"'])
        assert out == (
            '{\n  "config": {\n    "command": "classical-max",\n    "n": 4,\n'
            '    "s": "5/2",\n    "full_grid": true\n  },\n'
            '  "bound": "625/2",\n  "achieved": true,\n'
            f'  "argmax_a": [\n{plus}\n  ],\n  "argmax_b": [\n{plus}\n  ],\n'
            '  "strategies_checked": 1679616\n}\n'
        )

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
        # 25 2**25 letters > 2**24: sample exits 3 before the terms are
        # expanded; the eigenpair commands build no state at all.
        def no_terms(*args, **kwargs):
            raise AssertionError("expanded the terms beyond the cap")

        monkeypatch.setattr(measurement, "expand_terms", no_terms)
        code, out, err = run(capsys, *one_scenario(command, 25, "1/2"))
        if command == "sample":
            assert (code, out) == (3, "")
            assert "exceeds cap 16777216" in err
            return
        assert (code, err) == (0, "")
        payload = json.loads(out)
        top = {"quantum-max": payload.get("top_eigenvalue"), "ratio": payload.get("ratio"),
               "report": payload.get("rows", [{}])[0].get("quantum")}[command]
        assert top == (4096.0 if command == "ratio" else 2048.0)

    @pytest.mark.parametrize("argv", [
        ("expand", "--n", "20"),
        ("sample", "--n", "20", "--spin", "1/2"),
        ("report", "--grid", "n=20..20", "s=1/2..1/2", "--sample"),
    ])
    def test_past_the_budget_fails_fast(self, capsys, argv):
        # 20 * 2**20 letters, which expand and the sampler both go through.
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert "exceeds cap 16777216" in err

    def test_grid_checks_every_row_before_the_first(self, capsys, monkeypatch):
        # Rows n = 17..19 fit; n = 20 samples 20 * 2**20 > 2**24 letters.
        def no_row(*args, **kwargs):
            raise AssertionError("computed a row of a grid past the budget")

        monkeypatch.setattr(classical, "classical_bound", no_row)
        start = time.perf_counter()
        code, out, err = run(capsys, "report", "--grid", "n=17..20", "s=1/2..1/2",
                             "--sample")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert "the label strings for n=20" in err
        assert "exceeds cap 16777216" in err

    def test_huge_grid_stops_at_its_first_row_past_the_budget(self, capsys, monkeypatch):
        built = []

        def counted(*args, **kwargs):
            built.append(Scenario(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(mkbell.cli, "Scenario", counted)
        start = time.perf_counter()
        code, out, err = run(capsys, "report", "--grid", "n=1..1000000", "s=1/2..1/2")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        # The ratio 2**((n-1)/2) leaves the floats at n = 2049.
        assert err == ("error: the top eigenvalue of n=2049, s=1/2, or its ratio to the "
                       "classical bound, is past the float range\n")
        assert len(built) == 2049

    def test_huge_n_fails_fast(self, capsys):
        # The top eigenvalue, decided from its exponent, is past the float
        # range; no amplitude is formed.
        start = time.perf_counter()
        code, _, err = run(capsys, "quantum-max", "--n", str(10 ** 7), "--spin", "1")
        assert time.perf_counter() - start < 1.0
        assert code == 3
        assert err.startswith("error: the top eigenvalue of n=10000000, s=1, ")
        assert err.endswith(" is past the float range\n")

    @pytest.mark.parametrize("sample,cells", [((), 24), (("--sample", "--shots", "400"), 36)],
                             ids=["plain", "sampled"])
    def test_report_table_counts_its_cells(self, capsys, monkeypatch, sample, cells):
        # Four rows of 6 cells, or 9 sampled; over the cap, exit 3 before the
        # first row.  The sampled rows' own budget, 4 * 2**3 entries, fits.
        argv = ("report", "--grid", "n=2..3", "s=1/2..1", *sample, "--dim-cap")
        with monkeypatch.context() as patch:
            patch.setattr(classical, "classical_bound", _no_row)
            code, out, err = run(capsys, *argv, str(cells - 1))
        assert (code, out) == (3, "")
        assert err == (f"error: the report table of grid n=2..3 s=1/2..1 would hold {cells} "
                       f"cells, which exceeds cap {cells - 1}\n")
        code, out, err = run(capsys, *argv, str(cells))
        assert (code, err) == (0, "")
        assert len(json.loads(out)["rows"]) == 4

    @pytest.mark.parametrize("grid,count", [
        (("n=1..1", "s=1/2..1e300"), "12" + "0" * 300),
        (("n=1..1", "s=1/2..1000000000"), "12000000000"),
        ((f"n=1..{'9' * 4300}", "s=1/2..1/2"), f"at least 2**{(6 * 10 ** 4300).bit_length() - 1}"),
    ], ids=["spin-1e300", "spin-1e9", "n-4300-digits"])
    def test_huge_grid_range_fails_before_its_first_row(self, capsys, monkeypatch, grid,
                                                        count):
        # Row by row, the spin range at n = 1 stays in the float range up to
        # s of about 1e308, and the rows would fill the memory first.
        monkeypatch.setattr(quantum, "largest_eigenpair", _no_row)
        start = time.perf_counter()
        code, out, err = run(capsys, "report", "--grid", *grid)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert err == (f"error: the report table of grid {' '.join(grid)} would hold {count} "
                       "cells, which exceeds cap 16777216\n")

    @pytest.mark.parametrize("argv", [
        (*one_scenario("report", 2, "1/2"), "--dim-cap", "-3"),
        ("sample", "--n", "2", "--spin", "1/2", "--dim-cap", "0"),
    ])
    def test_cap_below_one_is_a_validation_error(self, capsys, argv):
        # --dim-cap is rejected at parse time, before report counts its table.
        code, out, err = run_or_exit(capsys, *argv)
        assert (code, out) == (2, "")
        assert "dim_cap must be an integer >= 1" in err


class TestQuantumMax:
    def test_two_party_half(self, capsys):
        code, out, _ = run(capsys, "quantum-max", "--n", "2", "--spin", "1/2")
        assert code == 0
        payload = json.loads(out)
        assert payload["top_eigenvalue"] == pytest.approx(np.sqrt(2) / 2, rel=1e-8)
        assert payload["predicted"] == pytest.approx(np.sqrt(2) / 2, rel=1e-12)
        assert payload["relative_error"] < 1e-8
        assert payload["gap"] == pytest.approx(np.sqrt(2) / 2, rel=1e-6)

    def test_csv_bytes(self, capsys):
        # key,value rows; the nested config is one JSON cell.
        code, out, err = run(capsys, "quantum-max", "--n", "2", "--spin", "1/2",
                             "--format", "csv")
        assert (code, err) == (0, "")
        assert out == (
            "key,value\n"
            'config,"{""command"": ""quantum-max"", ""n"": 2, ""s"": ""1/2"", ""tol"": 1e-09}"\n'
            "top_eigenvalue,0.707106781187\n"
            "predicted,0.707106781187\n"
            "relative_error,1.57009245868e-16\n"
            "gap,0.707106781187\n"
            "iterations,1\n"
        )

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

    @pytest.mark.parametrize("corrupt", ["factor", "amplitudes"])
    def test_corrupted_certificate_exits_4(self, capsys, monkeypatch, corrupt):
        # A wrong rank-one factor v, or amplitudes off by 1e-6, fail the check.
        if corrupt == "factor":
            monkeypatch.setattr(quantum, "RANK_ONE", (1, 1j * (1 + 1e-6)))
        else:
            exact = quantum.ghz_amplitudes
            monkeypatch.setattr(quantum, "ghz_amplitudes",
                                lambda n: [y + 1e-6 * (b == 1) for b, y in enumerate(exact(n))])
        code, out, err = run(capsys, "quantum-max", "--n", "3", "--spin", "1")
        assert (code, out) == (4, "")
        assert "residual" in err

    @pytest.mark.parametrize("command", ["quantum-max", "ratio", "report"])
    def test_tolerance_below_rounding_exits_4(self, capsys, monkeypatch, command):
        # The residual at (4, 3) is at rounding level, about 1e-16 of the top.
        monkeypatch.setattr(quantum, "TOLERANCE", 1e-20)
        code, out, err = run(capsys, *one_scenario(command, 4, "3"))
        assert (code, out) == (4, "")
        assert err.startswith("error: the closed-form top state of n=4, s=3 has residual ")
        assert err.endswith(" above 1e-20 relative\n")

    def test_runs_past_the_state_budget(self, capsys):
        # Four class values, not 2**500 entries: the closed form to 12 digits.
        start = time.perf_counter()
        code, out, err = run(capsys, "quantum-max", "--n", "500", "--spin", "1/2")
        assert time.perf_counter() - start < 1.0
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["top_eigenvalue"] == payload["predicted"] == float(f"{2 ** 248.5:.12g}")

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
        def no_assembly(scenario, *args, **kwargs):
            raise AssertionError(f"dense assembly of {scenario}")

        monkeypatch.setattr(operators, "assemble_dense", no_assembly)
        code, out, _ = run(capsys, "quantum-max", "--n", "6", "--spin", "3/2")
        assert code == 0
        # The gap the dense oracle prints from its 4096 x 4096 spectrum.
        assert json.loads(out)["gap"] == 1374.61558263

    def test_high_spin_costs_what_spin_half_costs(self, capsys):
        # D = 201**10 entries would be far past the cap; the block has 2**10.
        top = 2 ** 13.5 * 100.0 ** 10
        assert largest_eigenpair(Scenario(10, Spin(200))).value == pytest.approx(top, rel=1e-12)
        code, out, _ = run(capsys, "quantum-max", "--n", "10", "--spin", "100")
        assert code == 0
        assert json.loads(out)["top_eigenvalue"] == float(f"{top:.12g}")


class TestBlockPath:
    @pytest.mark.parametrize("argv", [
        ("quantum-max", "--n", "4", "--spin", "11/2"),
        ("ratio", "--n", "3", "--spin", "3/2"),
        ("sample", "--n", "3", "--spin", "1", "--shots", "4000"),
        ("report", "--grid", "n=1..3", "s=1..5/2", "--sample", "--shots", "4000"),
    ])
    def test_no_full_space_dimension(self, capsys, monkeypatch, argv):
        # Every array the commands build has 2**n entries per state, at any spin.
        def no_dimension(*args, **kwargs):
            raise AssertionError("formed the full-space dimension")

        monkeypatch.setattr(Scenario, "global_dimension", no_dimension)
        monkeypatch.setattr(Spin, "dimension", property(no_dimension))
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out

    def test_sample_budget_is_the_block(self, capsys):
        # 5 2**5 letters at spin 15/2: 160 entries, not 16 * 16**5.
        argv = ("sample", "--n", "5", "--spin", "15/2", "--shots", "4000", "--dim-cap")
        code, out, err = run(capsys, *argv, "159")
        assert (code, out) == (3, "")
        assert "exceeds cap 159" in err
        code, out, _ = run(capsys, *argv, "160")
        assert code == 0
        assert len(json.loads(out)["per_term"]) == 16


class TestFloatRange:
    @pytest.mark.parametrize("n,spin", [("2", "1e200"), ("24", "1e13")])
    @pytest.mark.parametrize("command", ["quantum-max", "ratio", "sample", "report"])
    def test_top_past_the_float_range_exits_3(self, capsys, monkeypatch, command, n, spin):
        # 2**(3(n-1)/2) s**n overflows a float: exit 3 before any array is built.
        def no_state(*args, **kwargs):
            raise AssertionError("built a state past the float range")

        monkeypatch.setattr(measurement, "top_state", no_state)
        code, out, err = run(capsys, *one_scenario(command, n, spin))
        assert (code, out) == (3, "")
        assert "past the float range" in err

    @pytest.mark.parametrize("command", ["quantum-max", "ratio", "report"])
    def test_spin_half_runs_to_the_float_range(self, capsys, command):
        # The ratio 2**((n-1)/2) is finite up to n = 2048, and the top
        # eigenvalue 2**((n-3)/2) with it; forming 2**(3(n-1)/2) first
        # overflowed from n = 684.
        code, out, err = run(capsys, *one_scenario(command, 2048, "1/2"))
        assert (code, err) == (0, "")
        assert ("e+307" if command == "quantum-max" else "e+308") in out
        code, out, err = run(capsys, *one_scenario(command, 2049, "1/2"))
        assert (code, out) == (3, "")
        assert "past the float range" in err

    def test_grid_checks_every_row_before_the_first(self, capsys, monkeypatch):
        # The n = 1 row, s = 1e200, is finite; the n = 2 row is not.
        def no_row(*args, **kwargs):
            raise AssertionError("computed a row of a grid past the float range")

        monkeypatch.setattr(classical, "classical_bound", no_row)
        code, out, err = run(capsys, "report", "--grid", "n=1..2", "s=1e200..1e200")
        assert (code, out) == (3, "")
        assert "the top eigenvalue of n=2" in err

    def test_huge_spin_samples_with_a_finite_error(self, capsys):
        # Each term's stderr is about 1e199; its square would overflow.
        code, out, _ = run(capsys, "sample", "--n", "2", "--spin", "1e100", "--shots", "1000")
        assert code == 0
        payload = json.loads(out)
        assert 0 < payload["bell_stderr"] < float("inf")
        assert payload["bell_estimate"] == pytest.approx(
            payload["quantum_prediction"], abs=6 * payload["bell_stderr"])


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

    @pytest.mark.parametrize("shots", ["0", "-5"])
    def test_nonpositive_shots_are_usage_errors(self, capsys, shots):
        with pytest.raises(SystemExit) as exc:
            main(["sample", "--n", "2", "--spin", "1/2", "--shots", shots])
        assert exc.value.code == 2
        assert "shots must be an integer >= 1" in capsys.readouterr().err

    def test_shots_past_one_draw_are_usage_errors(self, capsys):
        # One binomial draw takes at most 2**63 - 1 shots; n = 1 has one
        # setting, n = 2 four.
        for n, shots, expected in [("1", 2 ** 63 - 1, 0), ("1", 2 ** 63, 2),
                                   ("2", 2 ** 63, 0), ("2", 10 ** 23, 2)]:
            code, out, err = run(capsys, "sample", "--n", n, "--spin", "1/2",
                                 "--shots", str(shots))
            assert code == expected, (n, shots, err)
            if expected:
                assert out == ""
                assert err.startswith(f"error: shots {shots} puts ")

    def test_estimate_on_the_bound_is_zero_sigmas(self, capsys):
        # At n = 1 the quantum and classical maxima are both s and the one
        # term has no spread: the estimate sits on the bound.
        code, out, err = run(capsys, "sample", "--n", "1", "--spin", "3/2")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert (payload["bell_estimate"], payload["bell_stderr"]) == (1.5, 0.0)
        assert payload["classical_bound"] == "3/2"
        assert '"sigmas_above_classical": 0.0\n' in out

    def test_budget_counts_letters(self, capsys, monkeypatch):
        # expand's rule: 4 2**4 = 64 letters, for the 4**2 terms drawn.  At
        # cap 63, exit 3 with expand's message, before the terms are expanded.
        def no_terms(*args, **kwargs):
            raise AssertionError("expanded the terms past the cap")

        argv = ("sample", "--n", "4", "--spin", "1/2", "--dim-cap")
        with monkeypatch.context() as patch:
            patch.setattr(measurement, "expand_terms", no_terms)
            code, out, err = run(capsys, *argv, "63")
        assert (code, out) == (3, "")
        assert err == run(capsys, "expand", "--n", "4", "--dim-cap", "63")[2] == (
            "error: the label strings for n=4 would hold 64 entries, which exceeds cap 63\n")
        code, out, _ = run(capsys, *argv, "64")
        assert code == 0
        assert len(json.loads(out)["per_term"]) == 16

    def test_budget_before_shots_and_before_the_state(self, capsys, monkeypatch):
        # n = 20 fails both the budget (20 * 2**20 letters) and the shots
        # split; like report, sample names the budget, before the terms.
        def no_terms(*args, **kwargs):
            raise AssertionError("expanded the terms before the admission rule")

        monkeypatch.setattr(measurement, "expand_terms", no_terms)
        shots = str(10 ** 30)
        sample = run(capsys, "sample", "--n", "20", "--spin", "1/2", "--shots", shots)
        report = run(capsys, *one_scenario("report", 20, "1/2"), "--sample", "--shots", shots)
        assert sample == report == (3, "", (
            "error: the label strings for n=20 would hold 20971520 entries, which "
            "exceeds cap 16777216\n"))

    @pytest.mark.parametrize("command", [one_scenario("sample", 2, "1/2"),
                                         (*one_scenario("report", 2, "1/2"), "--sample")],
                             ids=["sample", "report"])
    def test_seed_must_be_non_negative(self, capsys, monkeypatch, command):
        # NumPy takes only seeds >= 0: rejected at parse time, not after a row.
        def no_state(*args, **kwargs):
            raise AssertionError("built the top state with a bad seed")

        with monkeypatch.context() as patch:
            patch.setattr(quantum, "largest_eigenpair", no_state)
            for seed in ("-1", "x"):
                code, out, err = run_or_exit(capsys, *command, "--seed", seed)
                assert (code, out) == (2, "")
                assert f"argument --seed: seed must be an integer >= 0, got '{seed}'" in err
        code, out, _ = run(capsys, *command, "--shots", "400", "--seed", "0")
        assert code == 0
        assert json.loads(out)["config"]["seed"] == 0

    def test_odd_twice_spin_csv_bytes(self, capsys):
        # (2s)**n = 27 is not a power of two; odd n has exact correlations.
        code, out, err = run(capsys, "sample", "--n", "3", "--spin", "3/2", "--shots", "1000",
                             "--seed", "7", "--format", "csv")
        assert (code, err) == (0, "")
        per_term = [{"labels": labels, "correlation": 3.375 * sign, "stderr": 0.0}
                    for labels, sign in (("AAB", 1), ("ABA", 1), ("BAA", 1), ("BBB", -1))]
        quoted = json.dumps(per_term).replace('"', '""')
        assert out == (
            "key,value\n"
            'config,"{""command"": ""sample"", ""n"": 3, ""s"": ""3/2"", ""shots"": 1000, '
            '""seed"": 7}"\n'
            "shots_per_setting,250\n"
            f'per_term,"{quoted}"\n'
            "bell_estimate,27.0\n"
            "bell_stderr,0.0\n"
            "classical_bound,27/2\n"
            "quantum_prediction,27.0\n"
            "sigmas_above_classical,inf\n"
        )

    def test_n_12_bytes(self, capsys):
        # n = 12 draws its 4096 agreement counts in one binomial call.
        code, out, err = run(capsys, "sample", "--n", "12", "--spin", "1/2")
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "2eb56ca763023aa834e12f4130f1d03e215a4d0f2859592deade981bbd823ac6")

    def test_certifies_once(self, capsys, monkeypatch):
        calls = []
        certify = quantum.largest_eigenpair
        monkeypatch.setattr(quantum, "largest_eigenpair",
                            lambda scenario: calls.append(scenario) or certify(scenario))
        code, _, err = run(capsys, "sample", "--n", "3", "--spin", "1", "--shots", "1000")
        assert (code, err) == (0, "")
        assert calls == [Scenario(3, Spin(2))]


class TestReport:
    def test_certifies_every_row_once_before_the_first(self, capsys, monkeypatch):
        events = []
        certify, bound = quantum.largest_eigenpair, classical.classical_bound

        def certified(scenario):
            events.append(("quantum", scenario.n, scenario.spin.twice_spin))
            return certify(scenario)

        def classical_row(scenario):
            events.append(("classical", scenario.n, scenario.spin.twice_spin))
            return bound(scenario)

        monkeypatch.setattr(quantum, "largest_eigenpair", certified)
        monkeypatch.setattr(classical, "classical_bound", classical_row)
        code, _, err = run(capsys, "report", "--grid", "n=2..3", "s=1/2..1", "--sample",
                           "--shots", "400")
        assert (code, err) == (0, "")
        rows = [(n, t) for n in (2, 3) for t in (1, 2)]
        assert events == [("quantum", *row) for row in rows] + [("classical", *row) for row in rows]

    @pytest.mark.parametrize("sampled,calls", [(False, 3), (True, 6)])
    def test_checks_the_float_range_only_in_the_certificate_and_the_sampler(
            self, capsys, monkeypatch, sampled, calls):
        # The certificate's first step is the float range, and it runs before
        # the sampled budget; the sampler scales its estimate with the same
        # function.  So a row checks the range once, a sampled row twice, and
        # the CLI never calls it apart.
        scales = []
        block_scale = quantum.block_scale

        def counted(scenario):
            scales.append(scenario.n)
            return block_scale(scenario)

        monkeypatch.setattr(quantum, "block_scale", counted)
        monkeypatch.setattr(measurement, "block_scale", counted)
        argv = ("report", "--grid", "n=2..4", "s=1/2..1/2") + (
            ("--sample", "--shots", "400") if sampled else ())
        assert run(capsys, *argv)[::2] == (0, "")
        assert len(scales) == calls

    def test_sampled_grid_bytes(self, capsys):
        # At n = 2 one seed draws the same counts at every spin: the estimate
        # and its exact error are (2s)**2 times the spin-1/2 ones, 9 times at
        # s = 3/2; the error is 2**-2 sqrt(1/2) / sqrt(2500) times sqrt(4).
        code, out, err = run(capsys, "report", "--grid", "n=2..3", "s=1/2..3/2", "--sample",
                             "--shots", "10000", "--seed", "7")
        assert (code, err) == (0, "")
        keys = ("n", "s", "classical", "quantum", "ratio", "gap", "bell_estimate",
                "bell_stderr", "shots_per_setting")
        rows = [
            (2, "1/2", "1/2", 0.707106781187, 1.41421356237, 0.707106781187, 0.7172,
             0.00707106781187, 2500),
            (2, "1", "2", 2.82842712475, 1.41421356237, 2.82842712475, 2.8688,
             0.0282842712475, 2500),
            (2, "3/2", "9/2", 6.36396103068, 1.41421356237, 4.24264068712, 6.4548,
             0.0636396103068, 2500),
            (3, "1/2", "1/2", 1.0, 2.0, 1.0, 1.0, 0.0, 2500),
            (3, "1", "4", 8.0, 2.0, 8.0, 8.0, 0.0, 2500),
            (3, "3/2", "27/2", 27.0, 2.0, 18.0, 27.0, 0.0, 2500),
        ]
        config = {"command": "report", "grid": ["n=2..3", "s=1/2..3/2"], "tol": 1e-09,
                  "sample": True, "shots": 10000, "seed": 7}
        payload = {"config": config, "rows": [dict(zip(keys, row)) for row in rows]}
        assert out == json.dumps(payload, indent=2) + "\n"

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
        code, out, _ = run(capsys, *one_scenario("report", 2, "1/2"),
                           "--format", "csv", "--output", str(target))
        assert code == 0
        assert out == ""
        lines = target.read_text().strip().splitlines()
        assert lines[0].startswith("n,s,classical,quantum,ratio")
        assert lines[1].startswith("2,1/2,1/2,")

    def test_grid_csv_bytes(self, capsys):
        # One header, then one line per row in grid order; no config.
        code, out, err = run(capsys, "report", "--grid", "n=2..3", "s=1/2..1",
                             "--format", "csv")
        assert (code, err) == (0, "")
        assert out == (
            "n,s,classical,quantum,ratio,gap\n"
            "2,1/2,1/2,0.707106781187,1.41421356237,0.707106781187\n"
            "2,1,2,2.82842712475,1.41421356237,2.82842712475\n"
            "3,1/2,1/2,1.0,2.0,1.0\n"
            "3,1,4,8.0,2.0,8.0\n"
        )

    def test_shots_past_one_draw_exit_before_any_row(self, capsys, monkeypatch):
        def no_row(*args, **kwargs):
            raise AssertionError("computed a row with too many shots per setting")

        monkeypatch.setattr(classical, "classical_bound", no_row)
        code, out, err = run(capsys, "report", "--grid", "n=2..2", "s=1/2..1/2", "--sample",
                             "--shots", str(10 ** 23))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: shots {10 ** 23} puts {10 ** 23 // 4} shots")

    def test_shots_per_setting_matches_sample(self, capsys):
        # The pre-flight's split is the one the row reports, and sample's too.
        code, out, err = run(capsys, "report", "--grid", "n=2..4", "s=1/2..1", "--sample",
                             "--shots", "1000")
        assert (code, err) == (0, "")
        rows = json.loads(out)["rows"]
        assert len(rows) == 6
        for row in rows:
            code, out, err = run(capsys, "sample", "--n", str(row["n"]), "--spin", row["s"],
                                 "--shots", "1000")
            assert (code, err) == (0, "")
            assert row["shots_per_setting"] == json.loads(out)["shots_per_setting"]

    def test_bad_grid_exit_code(self, capsys):
        code, _, err = run(capsys, "report", "--grid", "n=2..3", "s=oops")
        assert code == 2
        assert "error" in err

    def test_missing_scenario_is_usage_error(self, capsys):
        # --grid is report's one required option, and the error names it.
        with pytest.raises(SystemExit) as exc:
            main(["report"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "the following arguments are required: --grid" in captured.err

    def test_repeated_grid_range_exit_code(self, capsys):
        code, out, err = run(capsys, "report", "--grid", "n=2..2", "s=1/2..1/2", "n=3..3")
        assert (code, out) == (2, "")
        assert "grid gives the n range twice" in err

    @pytest.mark.parametrize("scenario", [("--n", "2", "--spin", "1/2"), ("--n", "2"),
                                          ("--spin", "1/2")])
    def test_grid_with_a_scenario_is_usage_error(self, capsys, scenario):
        # report reads its scenarios only from --grid: --n and --spin are
        # unrecognized beside it, and alone they leave --grid missing.
        for grid, expected in [(("--grid", "n=3..3", "s=1..1"),
                                f"unrecognized arguments: {' '.join(scenario)}"),
                               ((), "the following arguments are required: --grid")]:
            code, out, err = run_or_exit(capsys, "report", *scenario, *grid)
            assert (code, out) == (2, "")
            assert expected in err

    @pytest.mark.parametrize("grid,fmt", [
        (("n=4..2", "s=1/2..1/2"), "csv"),
        (("n=4..2", "s=1/2..1/2"), "json"),
        (("n=2..2", "s=3/2..1/2"), "json"),
    ])
    def test_empty_grid_range_exit_code(self, capsys, grid, fmt):
        code, out, err = run(capsys, "report", "--grid", *grid, "--format", fmt)
        assert (code, out) == (2, "")
        assert "empty grid range" in err

    def test_nonpositive_shots_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*one_scenario("report", 2, "1/2"), "--sample", "--shots", "0"])
        assert exc.value.code == 2
        assert "shots must be an integer >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", [("n=1..2",), ("s=1..2",)])
    def test_grid_needs_both_ranges(self, capsys, grid):
        code, out, err = run(capsys, "report", "--grid", *grid)
        assert (code, out) == (2, "")
        assert err == "error: grid must give both an n range and an s range\n"

    @pytest.mark.parametrize("grid", [("n=2..3", "s=1/0..1"), ("n=2..3", "s=1/2..1/0")])
    def test_zero_denominator_in_grid_exit_code(self, capsys, grid):
        code, out, err = run(capsys, "report", "--grid", *grid)
        assert (code, out) == (2, "")
        assert "zero denominator" in err


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
        ((*one_scenario("report", 2, "1/2"), "--sample", "--shots", "400"),
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
        code, out, _ = run(capsys, *one_scenario("report", 2, "1/2"), "--sample",
                           "--shots", "400")
        assert code == 0
        assert list(json.loads(out)["rows"][0]) == [
            "n", "s", "classical", "quantum", "ratio", "gap",
            "bell_estimate", "bell_stderr", "shots_per_setting"]


class TestCsv:
    @pytest.mark.parametrize("argv", [
        ("expand", "--n", "3"),
        ("classical-max", "--n", "3", "--spin", "3/2"),
        ("classical-max", "--n", "2", "--spin", "1", "--full-grid"),
        ("quantum-max", "--n", "2", "--spin", "1/2"),
        ("ratio", "--n", "3", "--spin", "1"),
        ("sample", "--n", "3", "--spin", "3/2", "--shots", "1000"),
        one_scenario("report", 2, "1/2"),
        ("report", "--grid", "n=2..3", "s=1/2..1", "--sample", "--shots", "1000"),
    ], ids=["expand", "classical-max", "classical-max-full-grid", "quantum-max", "ratio",
            "sample", "report", "report-sampled-grid"])
    def test_every_command_round_trips_through_csv_reader(self, capsys, argv):
        # Rows of equal width; a nested value is one cell holding its JSON.
        code, text, _ = run(capsys, *argv, "--format", "csv")
        assert code == 0
        cells = list(csv.reader(io.StringIO(text)))
        assert len({len(row) for row in cells}) == 1
        code, out, _ = run(capsys, *argv)
        payload = json.loads(out)
        rows = payload if isinstance(payload, list) else payload.get("rows")
        if rows:
            assert cells == [list(rows[0]), *([str(v) for v in row.values()] for row in rows)]
            return
        assert cells[0] == ["key", "value"]
        assert [key for key, _ in cells[1:]] == list(payload)
        for key, cell in cells[1:]:
            if isinstance(payload[key], (dict, list)):
                assert json.loads(cell) == payload[key]
            else:
                assert cell == str(payload[key])


class TestImports:
    def test_cli_does_not_import_scipy(self):
        # The CLI's import time and memory stay at numpy's.
        env = dict(os.environ, PYTHONPATH=str(SRC))
        subprocess.run(
            [sys.executable, "-c",
             "import mkbell.cli, sys; assert 'scipy' not in sys.modules"],
            env=env, check=True, timeout=60,
        )


class TestBlasThreads:
    @pytest.mark.parametrize("given,expected", [(None, "1"), ("2", "2")])
    def test_main_pins_one_blas_thread_unless_set(self, capsys, monkeypatch, given, expected):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "unset")  # restored after the test
        if given is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS")
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", given)
        assert run(capsys, "expand", "--n", "2")[0] == 0
        assert os.environ["OPENBLAS_NUM_THREADS"] == expected

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
    def test_sampling_process_runs_one_thread(self):
        # OpenBLAS reads the variable when NumPy loads, inside the command.
        code = ("import contextlib, io, re\n"
                "from mkbell.cli import main\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                "    assert main(['sample', '--n', '2', '--spin', '1/2', '--shots', '400']) == 0\n"
                "print(re.search(r'^Threads:\\s+(\\d+)$', open('/proc/self/status').read(),\n"
                "                re.M).group(1))\n")
        env = {key: value for key, value in os.environ.items()
               if key != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = str(SRC)
        child = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                               text=True, timeout=60)
        assert (child.returncode, child.stderr, child.stdout) == (0, "", "1\n")


def _cli_process(*argv, block_numpy=False, block_dataclasses=False, report_freeze=False):
    # With ``sys.modules["numpy"] = None`` every ``import numpy`` raises.  The
    # freeze report is the last atexit handler to run, the first registered.
    code = ("import runpy, sys\n"
            + ("sys.modules['numpy'] = None\n" if block_numpy else "")
            + ("sys.modules['dataclasses'] = None\n" if block_dataclasses else "")
            + ("import atexit, gc\n"
               "atexit.register(lambda: print('frozen at exit:', gc.get_freeze_count() > 0,\n"
               "                               file=sys.stderr))\n" if report_freeze else "")
            + "sys.argv = ['mkbell', *sys.argv[1:]]\n"
            "runpy.run_module('mkbell.cli', run_name='__main__')\n")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, timeout=60)


class TestProcessEntry:
    @pytest.mark.parametrize("argv,code", [
        (("quantum-max", "--n", "2", "--spin", "1/2"), 0),
        (("quantum-max", "--n", "2", "--spin", "0"), 2),
        (("sample", "--n", "20", "--spin", "1/2"), 3),
    ], ids=["exit-0", "exit-2", "exit-3"])
    def test_the_process_exits_with_the_collector_frozen(self, capsys, monkeypatch, argv, code):
        # ``run`` freezes the collector on every exit path, after ``main``
        # has written its output; atexit handlers still run.
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage to the terminal
        child = _cli_process(*argv, report_freeze=True)
        exit_code, out, err = run_or_exit(capsys, *argv)
        assert exit_code == code
        assert (child.returncode, child.stdout, child.stderr) == (
            code, out, err + "frozen at exit: True\n")

    def test_main_leaves_the_collector_as_it_found_it(self, capsys):
        before = gc.get_freeze_count(), gc.isenabled()
        assert run(capsys, "quantum-max", "--n", "2", "--spin", "1/2")[0] == 0
        assert run_or_exit(capsys, "quantum-max", "--n", "2", "--spin", "0")[0] == 2
        assert run(capsys, "sample", "--n", "20", "--spin", "1/2")[0] == 3
        assert (gc.get_freeze_count(), gc.isenabled()) == before

    def test_the_commands_without_the_classical_bound_leave_classical_out(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        subprocess.run(
            [sys.executable, "-c",
             "import sys\n"
             "from mkbell.cli import main\n"
             "assert main(['quantum-max', '--n', '4', '--spin', '11/2']) == 0\n"
             "assert main(['expand', '--n', '3']) == 0\n"
             "assert 'mkbell.quantum' in sys.modules\n"
             "assert 'mkbell.classical' not in sys.modules\n"],
            env=env, check=True, timeout=60, capture_output=True,
        )

    def test_classical_max_leaves_expansion_out(self):
        # The bound is a closed form: no step of the pair recursion runs.
        env = dict(os.environ, PYTHONPATH=str(SRC))
        subprocess.run(
            [sys.executable, "-c",
             "import sys\n"
             "from mkbell.cli import main\n"
             "assert main(['classical-max', '--n', '4', '--spin', '11/2', '--full-grid']) == 0\n"
             "assert 'mkbell.classical' in sys.modules\n"
             "assert 'mkbell.expansion' not in sys.modules\n"],
            env=env, check=True, timeout=60, capture_output=True,
        )

    def test_the_installed_script_enters_through_run(self):
        tomllib = pytest.importorskip("tomllib")
        with open(SRC.parent / "pyproject.toml", "rb") as fh:
            scripts = tomllib.load(fh)["project"]["scripts"]
        assert scripts == {"mkbell": "mkbell.cli:run"}
        assert callable(mkbell.cli.run)


class TestExactLayerWithoutNumpy:
    @pytest.mark.parametrize("argv", [
        ("classical-max", "--n", "10", "--spin", "1/2"),
        ("classical-max", "--n", "6", "--spin", "1", "--full-grid"),
        ("expand", "--n", "5"),
    ])
    def test_exact_commands_run_without_numpy(self, argv):
        blocked = _cli_process(*argv, block_numpy=True)
        normal = _cli_process(*argv)
        assert (blocked.returncode, blocked.stderr) == (0, "")
        assert normal.returncode == 0
        assert blocked.stdout == normal.stdout

    @pytest.mark.parametrize("argv", [
        ("quantum-max", "--n", "24", "--spin", "3/2"),
        ("ratio", "--n", "30", "--spin", "1/2"),
        ("report", "--grid", "n=1..40", "s=1/2..5/2", "--format", "csv"),
        # Odd n samples no draw: every term's outcome is definite.
        ("sample", "--n", "9", "--spin", "1/2", "--shots", "1000000", "--seed", "5"),
        ("report", "--grid", "n=3..3", "s=1/2..5/2", "--sample"),
    ])
    def test_eigenpair_commands_run_without_numpy(self, argv):
        blocked = _cli_process(*argv, block_numpy=True)
        normal = _cli_process(*argv)
        assert (blocked.returncode, blocked.stderr) == (0, "")
        assert normal.returncode == 0
        assert blocked.stdout == normal.stdout

    def test_eigenpair_commands_leave_numpy_out(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        subprocess.run(
            [sys.executable, "-c",
             "import sys\n"
             "from mkbell.cli import main\n"
             "for argv in (['quantum-max', '--n', '3', '--spin', '1'],\n"
             "             ['ratio', '--n', '3', '--spin', '1'],\n"
             "             ['report', '--grid', 'n=3..3', 's=1..1'],\n"
             "             ['sample', '--n', '9', '--spin', '1/2', '--shots', '1000000']):\n"
             "    assert main(argv) == 0\n"
             "assert 'numpy' not in sys.modules\n"
             "assert 'dataclasses' not in sys.modules\n"
             "assert 'inspect' not in sys.modules\n"],
            env=env, check=True, timeout=60, capture_output=True,
        )

    @pytest.mark.parametrize("argv", [
        ("classical-max", "--n", "10", "--spin", "1/2"),
        ("classical-max", "--n", "6", "--spin", "1", "--full-grid"),
        ("expand", "--n", "5"),
        ("quantum-max", "--n", "4", "--spin", "11/2"),
        ("ratio", "--n", "30", "--spin", "1/2"),
        ("report", "--grid", "n=1..40", "s=1/2..5/2", "--format", "csv"),
        ("sample", "--n", "3", "--spin", "1", "--shots", "1000", "--seed", "5"),
    ])
    def test_commands_run_without_dataclasses(self, argv):
        # The records are named tuples: no command imports ``dataclasses``,
        # which would pull ``inspect`` into every start-up.
        blocked = _cli_process(*argv, block_dataclasses=True)
        normal = _cli_process(*argv)
        assert (blocked.returncode, blocked.stderr) == (0, "")
        assert normal.returncode == 0
        assert blocked.stdout == normal.stdout

    def test_array_command_needs_numpy(self):
        blocked = _cli_process("sample", "--n", "2", "--spin", "1/2",
                               block_numpy=True)
        assert blocked.returncode != 0
        assert "numpy" in blocked.stderr

    def test_cli_import_leaves_numpy_out(self):
        env = dict(os.environ, PYTHONPATH=str(SRC))
        subprocess.run(
            [sys.executable, "-c",
             "import mkbell.cli, sys; assert 'numpy' not in sys.modules"],
            env=env, check=True, timeout=60,
        )

    def test_unknown_names_raise(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            mkbell.no_such_name
        with pytest.raises(ImportError):
            from mkbell import no_such_name  # noqa: F401
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            mkbell.cli.no_such_name

    def test_cli_global_operator_is_the_operators_one(self):
        # The benchmark's self-check reads this alias.
        assert mkbell.cli.global_operator is operators.global_operator


class TestBenchmarkHooks:
    def test_every_trace_hook_resolves(self, monkeypatch):
        # ``perfbench/run.py --self-check`` fails on an absent hook; this is
        # the same check without its workloads.
        monkeypatch.syspath_prepend(str(PERFBENCH))
        tracing = importlib.import_module("tracing")
        apply = operators.GlobalOperator.apply
        with tracing.Trace() as trace:
            assert operators.GlobalOperator.apply is not apply
        assert trace.absent == []
        assert operators.GlobalOperator.apply is apply

    def test_every_hooked_layer_reads_its_attributes(self, capsys, monkeypatch):
        # The span attributes read the hooked functions' arguments and results
        # (``shots`` is sample_outcomes' second positional argument); one tiny
        # command per layer runs under the trace, as traced benchmark runs do.
        # No command reaches the 2**n matvec or the Born-rule reference, which
        # the benchmark still hooks: they are called directly.
        monkeypatch.syspath_prepend(str(PERFBENCH))
        tracing = importlib.import_module("tracing")
        with tracing.Trace() as trace:
            assert run(capsys, "sample", "--n", "2", "--spin", "1/2", "--shots", "400")[0] == 0
            assert run(capsys, "quantum-max", "--n", "3", "--spin", "1")[0] == 0
            assert run(capsys, "classical-max", "--n", "3", "--spin", "1/2")[0] == 0
            assert run(capsys, "classical-max", "--n", "2", "--spin", "1", "--full-grid")[0] == 0
            assert run(capsys, "expand", "--n", "3")[0] == 0
            for n in (2, 3):
                operators.global_operator(Scenario(n, Spin(1))).apply(np.ones(1 << n))
            state = measurement.top_state(Scenario(2, Spin(1)))
            for settings in ("AA", "AB", "BB"):
                measurement.sample_outcomes(measurement.joint_distribution(state, settings),
                                            100, seed=7)
        assert trace.absent == []
        assert [span.attrs for span in trace.named("measurement.sample")] == [{"shots": 100}] * 3
        assert len(trace.named("measurement.distribution")) == 3
        assert {span.attrs["amps"] for span in trace.named("kernels.matvec")} == {4, 8}
        assert len(trace.named("operators.build")) == 2
        assert [span.attrs for span in trace.named("quantum.eigensolve")] == [
            {"scenario": (2, "1/2"), "iterations": 1}, {"scenario": (3, "1"), "iterations": 1}]
        assert [span.attrs for span in trace.named("classical.certify")] == [
            {"strategies": 4 ** 3, "bytes": 4 ** 3 * 2 * 3 * 8},
            {"strategies": 3 ** 4, "bytes": 3 ** 4 * 2 * 2 * 8}]
        assert len(trace.named("expansion")) == 2  # the sampled estimate and expand


#: Each command's options, mapped to whether the option is required.
SURFACE = {
    "expand": {"--n": True, "--dim-cap": False, "--format": False, "--output": False},
    "classical-max": {"--n": True, "--spin": True, "--format": False, "--output": False,
                      "--full-grid": False},
    "quantum-max": {"--n": True, "--spin": True, "--format": False, "--output": False},
    "ratio": {"--n": True, "--spin": True, "--format": False, "--output": False},
    "sample": {"--n": True, "--spin": True, "--dim-cap": False, "--format": False,
               "--output": False, "--shots": False, "--seed": False},
    "report": {"--grid": True, "--dim-cap": False, "--format": False, "--output": False,
               "--sample": False, "--shots": False, "--seed": False},
}


class TestArgs:
    def test_bad_spin_is_usage_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["classical-max", "--n", "2", "--spin", "1/3"])

    @pytest.mark.parametrize("spin", ["abc", "1/2/3"])
    def test_malformed_spin_is_usage_error(self, capsys, spin):
        code, out, err = run_or_exit(capsys, "classical-max", "--n", "2", "--spin", spin)
        assert (code, out) == (2, "")
        assert err.endswith("mkbell classical-max: error: argument --spin: "
                            f"Invalid literal for Fraction: {spin!r}\n")

    def test_spin_too_long_to_print_is_usage_error(self, capsys):
        # Python prints at most 4300 digits by default; 10**4000 still prints.
        # A literal of more than 4300 digits does not even convert, and gets
        # the same message.
        code, out, _ = run(capsys, "classical-max", "--n", "1", "--spin", "1e4000")
        assert code == 0
        assert json.loads(out)["config"]["s"] == "1" + "0" * 4000
        for spin in ("1e5000", "1" * 5000):
            for argv in [("quantum-max", "--n", "2", "--spin", spin),
                         ("sample", "--n", "2", "--spin", spin),
                         ("classical-max", "--n", "1", "--spin", spin),
                         ("report", "--grid", "n=2..2", f"s={spin}..{spin}"),
                         ("report", "--grid", "n=2..2", f"s={spin}..1")]:
                code, out, err = run_or_exit(capsys, *argv)
                assert (code, out) == (2, ""), argv
                assert f"spin '{spin}' has more than 4300 digits" in err
                assert "Traceback" not in err

    @pytest.mark.parametrize("spin", ["1e10000000", "1e-100000000"])
    def test_spin_with_a_huge_exponent_fails_fast(self, capsys, spin):
        # A dozen characters that name 10**(10**7) or 10**-(10**8): refused from
        # the exponent, before the literal is converted.
        start = time.perf_counter()
        code, out, err = run_or_exit(capsys, "classical-max", "--n", "1", "--spin", spin)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        assert err.endswith(f"argument --spin: spin '{spin}' has more than 4300 digits, "
                            "the limit of sys.get_int_max_str_digits()\n")

    @pytest.mark.parametrize("option", ["--shots", "--seed"])
    @pytest.mark.parametrize("command", ["sample", "report"])
    def test_integer_past_the_digit_limit_names_it(self, capsys, command, option):
        # A valid integer too long for int(); the message names the limit, not a range.
        digits = "1" * 5000
        code, out, err = run_or_exit(capsys, *one_scenario(command, 2, "1/2"), option, digits)
        assert (code, out) == (2, "")
        assert f"{option[2:]} '{digits}' has more than 4300 digits" in err
        assert "must be an integer" not in err

    def test_every_integer_option_names_the_digit_limit(self, capsys):
        # Walks the parser, so an option declared later with type=int fails here.
        digits = "1" * 5000
        subparsers = next(action for action in build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction))
        checked = set()
        for command, parser in subparsers.choices.items():
            base = (("expand", "--n", "2") if command == "expand"
                    else one_scenario(command, 2, "1/2"))
            for action in parser._actions:
                if action.type is None or type(action.type("12")) is not int:
                    continue
                option = action.option_strings[-1]
                code, out, err = run_or_exit(capsys, *base, option, digits)
                assert (code, out) == (2, ""), (command, option)
                assert "has more than 4300 digits" in err, (command, option)
                assert "invalid int value" not in err, (command, option)
                checked.add((command, option))
        arrays = {"expand", "sample", "report"}
        assert checked == ({(command, "--n") for command in subparsers.choices
                            if command != "report"}
                           | {(command, "--dim-cap") for command in arrays}
                           | {(command, option) for command in ("sample", "report")
                              for option in ("--shots", "--seed")})

    def test_non_integer_n_names_it(self, capsys):
        code, out, err = run_or_exit(capsys, "quantum-max", "--n", "x", "--spin", "1/2")
        assert (code, out) == (2, "")
        assert "argument --n: n must be an integer, got 'x'" in err

    @pytest.mark.parametrize("argv,text", [
        (("quantum-max", "--n", "2", "--spin", "0"), "0"),
        (("quantum-max", "--n", "2", "--spin=-1/2"), "-1/2"),
        (("report", "--grid", "n=1..2", "s=0..1"), "0"),
    ], ids=["zero", "negative", "grid-bound"])
    def test_nonpositive_spin_names_the_spin(self, capsys, argv, text):
        code, out, err = run_or_exit(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"spin must be a positive half-integer, got {text!r}\n" in err
        assert "twice_spin" not in err

    @pytest.mark.parametrize("token", ["n=x..2", f"n=2..{'1' * 5000}", f"n={'1' * 5000}..2"],
                             ids=["not-an-integer", "hi-past-4300-digits", "lo-past-4300-digits"])
    def test_bad_n_bound_names_the_token(self, capsys, token):
        code, out, err = run(capsys, "report", "--grid", token, "s=1/2..1")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: bad grid token {token!r}: ")
        assert len(err) < len(token) + 100  # the literal once, in the token

    @pytest.mark.parametrize("argv", [
        one_scenario(command, 2, "1/2") for command in ("quantum-max", "ratio", "report")
    ], ids=["quantum-max", "ratio", "report"])
    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0"])
    def test_tol_must_be_finite_and_positive(self, capsys, argv, tol):
        # NaN and infinity would certify any state.  The check runs at the
        # constant quantum.TOLERANCE, and --tol of any value, these included,
        # exits 2 at parse time.
        with pytest.raises(SystemExit) as exc:
            main([*argv, f"--tol={tol}"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"unrecognized arguments: --tol={tol}\n" in captured.err
        assert math.isfinite(quantum.TOLERANCE) and quantum.TOLERANCE > 0

    @pytest.mark.parametrize("command,option", [
        ("quantum-max", "--tol=1e-9"), ("ratio", "--tol=1e-9"), ("report", "--tol=1e-9"),
        ("quantum-max", "--dim-cap=8"), ("ratio", "--dim-cap=8"),
    ])
    def test_certificate_takes_no_tolerance_or_budget(self, capsys, command, option):
        # The residual check runs at quantum.TOLERANCE, and quantum-max and
        # ratio build no array: --tol, and --dim-cap on those two, are
        # unknown options.
        code, out, err = run_or_exit(capsys, *one_scenario(command, 2, "1/2"), option)
        assert (code, out) == (2, "")
        assert f"unrecognized arguments: {option}\n" in err

    @pytest.mark.parametrize("argv", [
        ("expand", "--n", "3"),
        one_scenario("classical-max", 10, "3/2"),
        one_scenario("quantum-max", 500, "1/2"),
        one_scenario("ratio", 500, "1/2"),
        (*one_scenario("sample", 2, "1/2"), "--shots", "400"),
        one_scenario("report", 500, "1/2"),
    ], ids=lambda argv: argv[0])
    def test_certificate_ignores_the_env_budget(self, capsys, monkeypatch, argv):
        # The budget is --dim-cap alone: an ambient MKBELL_DIM_CAP of 1, or one
        # that is no integer, changes no command's output or exit code.  The
        # eigenpair commands certify four class values.
        monkeypatch.delenv("MKBELL_DIM_CAP", raising=False)
        expected = run(capsys, *argv)
        assert (expected[0], expected[2]) == (0, "")
        for env in ("1", "abc"):
            monkeypatch.setenv("MKBELL_DIM_CAP", env)
            assert run(capsys, *argv) == expected, env

    @pytest.mark.parametrize("argv,option", [
        (("report", "--grid", "n=1..1", "s=1/2..1/2", "--grid", "n=3..3", "s=1..1"), "--grid"),
        (("quantum-max", "--n", "2", "--spin", "1/2", "--n", "3"), "--n"),
    ], ids=["report", "quantum-max"])
    def test_repeated_option_is_usage_error(self, capsys, argv, option):
        # argparse alone keeps the last value: the n = 3 row alone, or n = 3.
        code, out, err = run_or_exit(capsys, *argv)
        assert (code, out) == (2, "")
        assert f"error: argument {option}: given more than once\n" in err

    def test_every_option_with_a_value_is_given_once(self, capsys):
        # Walks the parser: each option that takes a value, given twice with
        # the same valid value, exits 2 naming it; a flag may repeat.
        subparsers = next(action for action in build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction))
        values = {"--n": "2", "--spin": "1/2", "--grid": "n=2..2", "--dim-cap": "100",
                  "--format": "json", "--output": os.devnull, "--shots": "400", "--seed": "42"}
        checked = set()
        for command, parser in subparsers.choices.items():
            base = (("expand", "--n", "2") if command == "expand"
                    else one_scenario(command, 2, "1/2"))
            for action in parser._actions:
                option = action.option_strings[-1]
                if isinstance(action, argparse._HelpAction):
                    continue
                if action.nargs == 0:
                    assert run(capsys, *base, option, option)[0] == 0, (command, option)
                    continue
                code, out, err = run_or_exit(capsys, *base, *[option, values[option]] * 2)
                assert (code, out) == (2, ""), (command, option)
                assert f"argument {option}: given more than once" in err, (command, option)
                checked.add((command, option))
        assert checked == ({(command, option) for command, options in SURFACE.items()
                            for option in options}
                           - {("classical-max", "--full-grid"), ("report", "--sample")})

    def test_options_are_declared_on_purpose(self):
        # Each command's options, and which are required, as build_parser
        # declares them: 31 settable values in all.  A new option edits SURFACE.
        subparsers = next(action for action in build_parser()._actions
                          if isinstance(action, argparse._SubParsersAction))
        surface = {command: {action.option_strings[-1]: action.required
                             for action in parser._actions
                             if not isinstance(action, argparse._HelpAction)}
                   for command, parser in subparsers.choices.items()}
        assert surface == SURFACE
        assert sum(map(len, SURFACE.values())) == 31


#: The CLI's bytes over every command, both formats, ``--output`` and each
#: exit 2 and 3 path: (argv, exit code, sha256 of the output, or "" when none
#: is written, stderr).  ``{out}`` is the file ``--output`` writes, hashed in
#: place of stdout; ``{tmp}`` a fresh directory.  An entry changes only on
#: purpose, and CHANGES.md names each change.
SWEEP = [
    ("expand --n 3", 0,
     "566577f174e3067ae919c4b63077ce51edf3734de95365ce8670e3258dea4b1b",
     ""),
    ("expand --n 4 --format csv", 0,
     "1c68ab2d2e3fe6bf3b1289773e56d361efeb2cb38c00a5f0ec5298fe31d2ab7f",
     ""),
    ("expand --n 2 --output {out}", 0,
     "33d62f7e5fe84711e78025561af15bee50e99ef9f7aa7534cceff4e528f58fbb",
     ""),
    ("classical-max --n 3 --spin 1", 0,
     "69329471058bcbd5cd22aeb8c994539e892eaa7c5c5a73c7d456d38f5aa3ad55",
     ""),
    ("classical-max --n 2 --spin 3/2 --full-grid --format csv", 0,
     "0fe10aa78d7b52d04f370bda3a0ab7efc917d030fe6fcf063f2ddadc17477b17",
     ""),
    ("classical-max --n 10 --spin 1/2 --output {out}", 0,
     "89b9f486a2776310e96a69a9d6ad3356af648f6988c3cb806b7c970bbeaa1e1e",
     ""),
    ("classical-max --n 7142 --spin 1/2", 0,
     "25f4e9edcbb6a30b432674848706cd1ab7e07353562e0a03449c0a19fd26dd1e",
     ""),
    ("classical-max --n 30 --spin 15/2 --full-grid", 0,
     "748cf4eb2f33787bab4af2fc29929394ee19f7deb0976ab86db52fafca121351",
     ""),
    ("quantum-max --n 4 --spin 3", 0,
     "dc79ee10076f2cf956902aa898447bf8c94184e8c7525295aff74e9457459d5c",
     ""),
    ("quantum-max --n 5 --spin 1/2 --format csv", 0,
     "14329c9ada09de771f8e947b78e26475accc2394caf8e9736100d874a285e368",
     ""),
    ("quantum-max --n 2 --spin 1 --output {out}", 0,
     "ef82e00697b813a5d48398a9ef89623bdf598719e1632b261608830053bd284b",
     ""),
    ("ratio --n 3 --spin 1", 0,
     "786ebf10ce98b320d6e66a524fd172759fd1af3afe5486c2f4e5ac693b976bfc",
     ""),
    ("ratio --n 6 --spin 5/2 --format csv", 0,
     "78917941274ca862bf151deebd0b5005cb531c71b6ea5ece09ee85f973259945",
     ""),
    ("ratio --n 2048 --spin 1/2 --output {out}", 0,
     "f14f65e108ea5522f95b4fa9b32d0b33850d8a25a6d46cf090c399543cde6845",
     ""),
    ("sample --n 3 --spin 1 --shots 1000 --seed 7", 0,
     "ebc52979a29bcd1468cba4136924a1634d9d548f725e394345e284d068093657",
     ""),
    ("sample --n 4 --spin 3/2 --shots 5000 --format csv", 0,
     "fd3ce2300d7e82a43f93e62c9de5a11c321473fffe99c261d022e480166868d9",
     ""),
    ("sample --n 2 --spin 1/2 --shots 100 --output {out}", 0,
     "93b7505be0565b3473157cd3164beb697aa665428fa71f11269e04296d585010",
     ""),
    # One shot on a setting: the exact error is not 0 (ZERO_SPREAD below).
    ("sample --n 2 --spin 1/2 --shots 4 --seed 5", 0,
     "b816288c1259444ccf6ed83a90b5cee6dba366d6f00980d6d69ae206d69f83ad",
     ""),
    ("sample --n 12 --spin 1/2 --shots 1", 0,
     "0e313fc6f56282813005a98790f6afb5eb33c16c2204f9a2fddccbfda72d6a7c",
     ""),
    ("sample --n 13 --spin 1/2", 0,
     "c979df6531f941dd0949c440b2a11caa4db8e3031471feea736277a93fe08dc7",
     ""),
    ("report --grid n=2..3 s=1/2..1", 0,
     "02bae4872403dee1aa210f9037a1df0ae3b52756c0b72e296550a89b92e46be6",
     ""),
    ("report --grid n=2..3 s=1/2..1 --sample --shots 400 --format csv", 0,
     "9f2243ca9fe6e8bdc96c57df091f8a97b12f95f36350b0e25f1f5da831258c4d",
     ""),
    ("report --grid n=1..2 s=1/2..1/2 --sample --shots 100 --output {out}", 0,
     "8e4a7ccb57da12784516123110f5477f06c80b2efa0890657b3d980e223a3102",
     ""),
    ("report --grid n=10..13 s=1/2..1/2 --sample", 0,
     "331817d8bf643df20889761f96394e825d8f6dbdc1400f480a6d8ec72aa4d320",
     ""),
    ("classical-max --n 2 --spin 1/3", 2,
     "",
     "usage: mkbell classical-max [-h] --n N --spin SPIN [--format {json,csv}]\n"
     "                            [--output OUTPUT] [--full-grid]\n"
     "mkbell classical-max: error: argument --spin: spin must be a half-integer, got "
     "'1/3'\n"),
    ("classical-max --n 1 --spin 1e10000000", 2,
     "",
     "usage: mkbell classical-max [-h] --n N --spin SPIN [--format {json,csv}]\n"
     "                            [--output OUTPUT] [--full-grid]\n"
     "mkbell classical-max: error: argument --spin: spin '1e10000000' has more than "
     "4300 digits, the limit of sys.get_int_max_str_digits()\n"),
    ("quantum-max --n 0 --spin 1", 2,
     "",
     "error: party count must be an integer >= 1, got 0\n"),
    ("quantum-max --n 2 --spin 1 --dim-cap 5", 2,
     "",
     "usage: mkbell [-h] {expand,classical-max,quantum-max,ratio,sample,report} ...\n"
     "mkbell: error: unrecognized arguments: --dim-cap 5\n"),
    ("ratio --n 2 --spin -1", 2,
     "",
     "usage: mkbell ratio [-h] --n N --spin SPIN [--format {json,csv}]\n"
     "                    [--output OUTPUT]\n"
     "mkbell ratio: error: argument --spin: spin must be a positive half-integer, got "
     "'-1'\n"),
    ("sample --n 2 --spin 1 --seed -1", 2,
     "",
     "usage: mkbell sample [-h] --n N --spin SPIN [--dim-cap DIM_CAP]\n"
     "                     [--format {json,csv}] [--output OUTPUT] [--shots SHOTS]\n"
     "                     [--seed SEED]\n"
     "mkbell sample: error: argument --seed: seed must be an integer >= 0, got '-1'\n"),
    ("sample --n 2 --n 3 --spin 1", 2,
     "",
     "usage: mkbell sample [-h] --n N --spin SPIN [--dim-cap DIM_CAP]\n"
     "                     [--format {json,csv}] [--output OUTPUT] [--shots SHOTS]\n"
     "                     [--seed SEED]\n"
     "mkbell sample: error: argument --n: given more than once\n"),
    ("sample --n 2 --spin 1/2 --shots 100000000000000000000", 2,
     "",
     "error: shots 100000000000000000000 puts 25000000000000000000 shots on each "
     "setting of n=2, s=1/2, more than the 2**63 - 1 one binomial draw takes\n"),
    ("report --grid n=3..2 s=1/2..1/2", 2,
     "",
     "error: empty grid range 'n=3..2': LO is above HI\n"),
    ("report --grid n=2..3", 2,
     "",
     "error: grid must give both an n range and an s range\n"),
    ("report --grid x=1..2 s=1..1", 2,
     "",
     "error: bad grid token 'x=1..2'; expected n=LO..HI or s=LO..HI\n"),
    ("report --grid n=0..2 s=1/2..1/2", 2,
     "",
     "error: bad grid token 'n=0..2': n must be an integer >= 1\n"),
    ("report --grid n=0..100000000 s=1/2..1/2", 2,
     "",
     "error: bad grid token 'n=0..100000000': n must be an integer >= 1\n"),
    ("report --grid n=2..2 s=1/2..1/2 --shots 0", 2,
     "",
     "usage: mkbell report [-h] --grid RANGE [RANGE ...] [--dim-cap DIM_CAP]\n"
     "                     [--format {json,csv}] [--output OUTPUT] [--sample]\n"
     "                     [--shots SHOTS] [--seed SEED]\n"
     "mkbell report: error: argument --shots: shots must be an integer >= 1, got '0'\n"),
    ("expand --n 2 --output {tmp}/missing/out.json", 2,
     "",
     "error: [Errno 2] No such file or directory: '{tmp}/missing/out.json'\n"),
    ("expand --n 25", 3,
     "",
     "error: the label strings for n=25 would hold 838860800 entries, which exceeds "
     "cap 16777216\n"),
    ("expand --n 5 --dim-cap 159", 3,
     "",
     "error: the label strings for n=5 would hold 160 entries, which exceeds cap 159\n"),
    ("expand --n 1999", 3,
     "",
     "error: the label strings for n=1999 would hold at least 2**2009 entries, which "
     "exceeds cap 16777216\n"),
    ("sample --n 20 --spin 1/2", 3,
     "",
     "error: the label strings for n=20 would hold 20971520 entries, which exceeds "
     "cap 16777216\n"),
    ("sample --n 30 --spin 1/2", 3,
     "",
     "error: the label strings for n=30 would hold 32212254720 entries, which exceeds "
     "cap 16777216\n"),
    ("sample --n 5 --spin 1 --dim-cap 4", 3,
     "",
     "error: the label strings for n=5 would hold 160 entries, which exceeds cap 4\n"),
    ("report --grid n=2..3 s=1/2..1 --dim-cap 23", 3,
     "",
     "error: the report table of grid n=2..3 s=1/2..1 would hold 24 cells, which "
     "exceeds cap 23\n"),
    ("report --grid n=10..20 s=1/2..1/2 --sample", 3,
     "",
     "error: the label strings for n=20 would hold 20971520 entries, which exceeds "
     "cap 16777216\n"),
    ("report --grid n=30..30 s=1/2..1/2 --sample", 3,
     "",
     "error: the label strings for n=30 would hold 32212254720 entries, which exceeds "
     "cap 16777216\n"),
    ("report --grid n=1..1000000 s=1/2..1/2", 3,
     "",
     "error: the top eigenvalue of n=2049, s=1/2, or its ratio to the classical bound,"
     " is past the float range\n"),
    ("quantum-max --n 2049 --spin 1/2", 3,
     "",
     "error: the top eigenvalue of n=2049, s=1/2, or its ratio to the classical bound,"
     " is past the float range\n"),
    ("classical-max --n 7143 --spin 1/2", 3,
     "",
     "error: an integer in the certificate for n=7143, s=1/2 has more than 4300 "
     "digits, the limit of sys.get_int_max_str_digits()\n"),
    ("classical-max --n 100000 --spin 3/2", 3,
     "",
     "error: an integer in the certificate for n=100000, s=3/2 has more than 4300 "
     "digits, the limit of sys.get_int_max_str_digits()\n"),
]

#: As SWEEP, with quantum.TOLERANCE at 1e-20, below the certificate's
#: rounding: each exit 4 path.
SWEEP_BELOW_ROUNDING = [
    ("quantum-max --n 4 --spin 3", 4,
     "",
     "error: the closed-form top state of n=4, s=3 has residual 3.738e-13, above 1e-20"
     " relative\n"),
    ("ratio --n 4 --spin 3", 4,
     "",
     "error: the closed-form top state of n=4, s=3 has residual 3.738e-13, above 1e-20"
     " relative\n"),
    ("sample --n 4 --spin 3 --shots 100", 4,
     "",
     "error: the closed-form top state of n=4, s=3 has residual 3.738e-13, above 1e-20"
     " relative\n"),
    ("report --grid n=4..4 s=3..3 --format csv", 4,
     "",
     "error: the closed-form top state of n=4, s=3 has residual 3.738e-13, above 1e-20"
     " relative\n"),
    # Every row is certified before the first runs: row 4's certificate fails
    # before row 2049 leaves the float range, or row 13 is sampled.
    ("report --grid n=4..2049 s=1/2..1/2", 4,
     "",
     "error: the closed-form top state of n=4, s=1/2 has residual 2.884e-16, above "
     "1e-20 relative\n"),
    ("report --grid n=4..13 s=1/2..1/2 --sample", 4,
     "",
     "error: the closed-form top state of n=4, s=1/2 has residual 2.884e-16, above "
     "1e-20 relative\n"),
]


#: Sweep entries that put one shot on each setting at even n.
ZERO_SPREAD = ["sample --n 2 --spin 1/2 --shots 4 --seed 5", "sample --n 12 --spin 1/2 --shots 1"]


def _sweep(capsys, tmp_path, argv):
    """``argv``'s exit code, the sha256 of what it wrote ("" for nothing) and
    its stderr, through ``main`` in this process."""
    out_file = tmp_path / "out.txt"
    code, out, err = run_or_exit(capsys, *argv.format(out=out_file, tmp=tmp_path).split())
    if "{out}" in argv:
        assert out == ""
        out = out_file.read_text()
    return code, out and hashlib.sha256(out.encode()).hexdigest(), err.replace(str(tmp_path), "{tmp}")


class TestSweep:
    @pytest.fixture(autouse=True)
    def _usage_width(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage to the terminal

    @pytest.mark.parametrize("argv,code,digest,err", SWEEP, ids=[case[0] for case in SWEEP])
    def test_bytes(self, capsys, tmp_path, argv, code, digest, err):
        assert _sweep(capsys, tmp_path, argv) == (code, digest, err)

    @pytest.mark.parametrize("argv,code,digest,err", SWEEP_BELOW_ROUNDING,
                             ids=[case[0] for case in SWEEP_BELOW_ROUNDING])
    def test_bytes_below_rounding(self, capsys, monkeypatch, tmp_path, argv, code, digest, err):
        monkeypatch.setattr(quantum, "TOLERANCE", 1e-20)
        assert _sweep(capsys, tmp_path, argv) == (code, digest, err)

    def test_a_failing_run_writes_no_file(self, capsys, tmp_path):
        # The payload is whole before the first write, so a command that
        # fails opens no --output file: here row n = 2049 leaves the float
        # range.  _sweep reads {out} whatever the exit code.
        target = tmp_path / "out.txt"
        code, out, err = run(capsys, "report", "--grid", "n=1..1000000", "s=1/2..1/2",
                             "--output", str(target))
        assert (code, out) == (3, "")
        assert err.endswith(" is past the float range\n")
        assert not target.exists()

    @pytest.mark.parametrize("argv", ZERO_SPREAD)
    def test_one_shot_a_setting_has_spread(self, capsys, argv):
        # A single draw's plug-in variance is 0; the exact one is not, so
        # no even n reports a violation of infinite significance.
        code, out, err = run(capsys, *argv.split())
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert payload["shots_per_setting"] == 1
        assert payload["bell_stderr"] > 0
        assert math.isfinite(payload["sigmas_above_classical"])
