"""The benchmark's workloads and the correctness gate on their output.

Each workload is a list of ``mkbell`` commands. Every command is one
operation, and so is every row of a ``report`` grid. The gate recomputes the
paper's closed forms from the command line alone, so it never trusts a value
the program printed:

- classical bound ``2^(n-1) s^n``, exact;
- quantum maximum ``2^(3(n-1)/2) s^n``, to ``EIGEN_RTOL`` relative;
- strategies enumerated: ``4^n``, or ``(2s+1)^(2n)`` on the full grid;
- a sampled Bell estimate lies above the classical bound and within
  ``SIGMA_LIMIT`` standard errors of the quantum maximum.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction

EIGEN_RTOL = 1e-9
#: A fair sample misses by more than 6 standard errors with odds below 1e-8.
SIGMA_LIMIT = 6.0
#: Odd-n states give every sampled term a fixed outcome, so the estimate has
#: no spread (stderr 0) and must equal the prediction up to float rounding.
ZERO_STDERR_ATOL = 1e-6

WORKLOADS = ("qubit-terms", "spin-dim", "grid-sweep", "classical-certify")
EIGEN_COMMANDS = ("sample", "quantum-max", "report")
_EXACT_FRACTION = re.compile(r"-?\d+(/\d+)?")


@dataclass(frozen=True)
class Command:
    """One ``mkbell`` invocation and the report rows it must print."""

    argv: tuple[str, ...]
    rows: tuple[tuple[int, Fraction], ...] = ()

    @property
    def operations(self) -> int:
        return 1 + len(self.rows)

    def option(self, name: str) -> str:
        return self.argv[self.argv.index(name) + 1]

    def scenarios(self) -> list[tuple[int, str]]:
        """(n, s) of every scenario the command constructs."""
        if self.rows:
            return [(n, _spin_text(s)) for n, s in self.rows]
        return [(int(self.option("--n")), self.option("--spin"))]


def _spin_text(s: Fraction) -> str:
    return str(s.numerator) if s.denominator == 1 else f"{s.numerator}/{s.denominator}"


def _grid(n_values, s_twice_values, seed: int) -> Command:
    s_values = [Fraction(t, 2) for t in s_twice_values]
    argv = ("report", "--grid", f"n={n_values[0]}..{n_values[-1]}",
            f"s={_spin_text(s_values[0])}..{_spin_text(s_values[-1])}",
            "--sample", "--seed", str(seed))
    return Command(argv, tuple((n, s) for n in n_values for s in s_values))


def commands(workload: str, seed: int, tiny: bool = False) -> list[Command]:
    """The commands of ``workload``, sized so that one repetition takes about
    2 s, so that a run holds about ten; ``tiny`` gives a sub-second variant."""
    seed &= 0xFFFFFFFF  # mkbell takes a non-negative seed
    if workload == "qubit-terms":
        n = "4" if tiny else "9"
        return [Command(("sample", "--n", n, "--spin", "1/2", "--shots", "1000000",
                         "--seed", str(seed)))]
    if workload == "spin-dim":
        n, s = ("2", "15/2") if tiny else ("4", "11/2")
        return [Command(("quantum-max", "--n", n, "--spin", s))]
    if workload == "grid-sweep":
        return [_grid(range(2, 4) if tiny else range(2, 5),
                      range(1, 3) if tiny else range(1, 6), seed)]
    if workload == "classical-certify":
        return [Command(("classical-max", "--n", "4" if tiny else "10", "--spin", "1/2")),
                Command(("classical-max", "--n", "2" if tiny else "6", "--spin", "1",
                         "--full-grid"))]
    raise ValueError(f"unknown workload {workload!r}")


def classical_bound(n: int, s: Fraction) -> Fraction:
    return Fraction(2) ** (n - 1) * s ** n


def quantum_max(n: int, s: Fraction) -> float:
    return 2.0 ** (1.5 * (n - 1)) * float(s) ** n


def _exact_equals(text, expected: Fraction) -> bool:
    return (isinstance(text, str) and _EXACT_FRACTION.fullmatch(text) is not None
            and Fraction(text) == expected)


def _eigen_error(value, n: int, s: Fraction) -> str | None:
    predicted = quantum_max(n, s)
    if not isinstance(value, (int, float)) or abs(value - predicted) > EIGEN_RTOL * predicted:
        return f"top eigenvalue {value!r} is not {predicted!r}"
    return None


def _sample_error(estimate, stderr, n: int, s: Fraction) -> str | None:
    predicted = quantum_max(n, s)
    bound = classical_bound(n, s)
    if not isinstance(estimate, (int, float)) or not isinstance(stderr, (int, float)):
        return f"sampled estimate {estimate!r} +- {stderr!r} is not numeric"
    if estimate <= bound:
        return f"sampled estimate {estimate} is not above the classical bound {bound}"
    tolerance = SIGMA_LIMIT * stderr if stderr > 0 else ZERO_STDERR_ATOL
    if abs(estimate - predicted) > tolerance:
        return f"sampled estimate {estimate} +- {stderr} misses the prediction {predicted}"
    return None


def _classical_error(payload, n: int, s: Fraction, full_grid: bool) -> str | None:
    bound = classical_bound(n, s)
    if not _exact_equals(payload.get("bound"), bound):
        return f"bound {payload.get('bound')!r} is not exactly {bound}"
    if payload.get("achieved") is not True:
        return "bound not achieved"
    expected = int(2 * s + 1) ** (2 * n) if full_grid else 4 ** n
    if payload.get("strategies_checked") != expected:
        return f"strategies_checked {payload.get('strategies_checked')!r} is not {expected}"
    return None


def _row_error(row, n: int, s: Fraction, sampled: bool) -> str | None:
    if row.get("n") != n or row.get("s") != _spin_text(s):
        return f"row is for n={row.get('n')!r} s={row.get('s')!r}"
    if not _exact_equals(row.get("classical"), classical_bound(n, s)):
        return f"classical {row.get('classical')!r} is not exactly {classical_bound(n, s)}"
    error = _eigen_error(row.get("quantum"), n, s)
    if error is None and sampled:
        error = _sample_error(row.get("bell_estimate"), row.get("bell_stderr"), n, s)
    return error


def check(command: Command, returncode: int, stdout: str) -> dict[str, str]:
    """Failed operations of one run of ``command``, as {operation: reason}.

    The command itself is operation ``"command"``; report rows are
    ``"row <i>"``. A failed command fails all of its rows.
    """
    def fail_all(reason):
        failures = {"command": reason}
        failures.update({f"row {i}": reason for i in range(len(command.rows))})
        return failures

    if returncode != 0:
        return fail_all(f"exit code {returncode}")
    try:
        payload = json.loads(stdout)
    except ValueError:
        return fail_all("output is not JSON")
    if not isinstance(payload, dict):
        return fail_all("output is not a JSON object")
    kind = command.argv[0]
    if kind == "report":
        rows = payload.get("rows")
        if not isinstance(rows, list) or len(rows) != len(command.rows):
            return fail_all(f"expected {len(command.rows)} report rows")
        sampled = "--sample" in command.argv
        failures = {}
        for i, ((n, s), row) in enumerate(zip(command.rows, rows)):
            error = _row_error(row, n, s, sampled) if isinstance(row, dict) else "bad row"
            if error:
                failures[f"row {i}"] = error
        return failures
    n, s = int(command.option("--n")), Fraction(command.option("--spin"))
    if kind == "quantum-max":
        error = _eigen_error(payload.get("top_eigenvalue"), n, s)
    elif kind == "sample":
        error = _sample_error(payload.get("bell_estimate"), payload.get("bell_stderr"), n, s)
    elif kind == "classical-max":
        error = _classical_error(payload, n, s, "--full-grid" in command.argv)
    else:
        raise ValueError(f"no gate for command {kind!r}")
    return {"command": error} if error else {}
