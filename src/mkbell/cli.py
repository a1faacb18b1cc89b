"""Command-line interface tying the toolkit into reproducible reports.

Each command returns its payload; ``main`` writes it, or the error, once.
The payload goes through ``_emit``'s one write path, stdout or ``--output``,
whole before the first write, so a failing command writes nothing; JSON
leaves in its encoder's chunks, never as one string.
Exit codes, each limit decided by one function:

- 0: success.
- 2: a validation error, among them a ``--spin`` or integer literal past the
  digit limit (``spincore.check_digits``), a negative ``--seed``, a
  ``--shots`` that puts more than 2**63 - 1 shots on one setting, the most
  one binomial draw takes (``measurement.shots_per_setting``), an option the
  command does not take and an option that takes a value given twice; or an
  unwritable ``--output``.
- 3: a cap exceeded: the array budget ``--dim-cap``, which counts the
  n 2**n letters of the expansion for ``expand`` and the sampling commands
  alike (``expansion.check_letters``), and ``report``'s table cells
  (``spincore.check_budget``); the digits of a printed exact integer
  (``spincore.check_digits``); or a top eigenvalue or ratio past the float
  range (``quantum.block_scale``).
- 4: numerical non-convergence: the closed-form top eigenpair's residual is
  above ``quantum.TOLERANCE``.

``report`` counts its table's cells against the budget before its first
row.  ``sample`` and every row of ``report`` are certified first, by
``quantum.largest_eigenpair``, whose first step is the float range; when
sampled, each is then admitted by ``measurement.shots_per_setting``, the
sampler's rule for the budget and the shots split.  ``report`` certifies and
admits every row before the first runs.  ``estimate_bell_value`` takes the
total ``--shots`` and returns the share each setting drew, which both
commands print.  ``classical-max`` prints ``classical.classical_max``, the
closed-form bound with its argmax and strategy count; every other command
that prints the bound reads it alone from ``classical.classical_bound``, and
``sample`` passes it to ``measurement.violation_sigmas``.  Each input has one
spelling:
``report`` reads its scenarios only from ``--grid`` (one scenario is
``n=N..N s=S..S``), and the array budget is only ``--dim-cap``.  Each typed
option parses through ``_parsed``; every integer input, the grid's n bounds
too, through ``_integer``, whose message names it.

The eigenpair commands ``quantum-max``, ``ratio`` and ``report`` import
``quantum``, which certifies the top eigenpair on four numbers, its state's
residue classes of b mod 4, in pure Python; ``quantum-max`` and ``ratio``
build no array, so, like ``classical-max``, they take no ``--dim-cap``.
Only the commands that sample, ``sample`` and ``report --sample``, import
``measurement``, which imports NumPy only for an even n, to draw the T
binomial agreement counts, one per term: at odd n every term's outcome is
definite, and the estimate is exact without a draw.  No command builds the
2**n state or its outcome distributions.  ``classical-max`` and ``expand``
run on the pure-Python exact layer; ``classical-max`` loads ``classical``,
which imports nothing from ``expansion``.  Only the commands
that print the classical bound, ``classical-max``, ``ratio``, ``sample`` and
``report``, import ``classical``; ``quantum-max`` and ``expand`` never load
it.  ``ratio`` divides the top eigenvalue by the bound as a float, as each
``report`` row does.

A process enters through ``run``, which exits with ``main``'s code and
freezes the garbage collector on the way out, so that CPython's exit-time
collection has no object to walk.  ``main`` leaves the collector alone: the
tests and the benchmark's traced runs call it in a running process.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import re
import sys
from functools import partial
from itertools import chain, islice

from .errors import CapExceeded, MkBellError, NotConverged
from .spincore import DEFAULT_DIM_CAP, Scenario, Spin, check_budget, check_digits

DEFAULT_SHOTS = 10 ** 6
DEFAULT_SEED = 42


def __getattr__(name):
    # ``perfbench/run.py --self-check`` reads ``cli.global_operator``; it is
    # resolved on access so that loading the CLI does not import NumPy.
    if name == "global_operator":
        from .operators import global_operator
        return global_operator
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _fmt(x):
    """Round a float to 12 significant digits (stable, round-trippable)."""
    return float(f"{x:.12g}")


def _parsed(parse):
    """``parse`` as an argparse type: its ValueError becomes the usage message."""
    def parsed(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
    return parsed


def _integer(name: str, text: str, least: int | None = None, quote: bool = True) -> int:
    """``text`` as an integer, at least ``least`` if given; the ValueError names
    ``name``, and the digit limit (``check_digits``) for a literal too long to
    convert, and repeats ``text`` unless ``quote`` is false."""
    shown = f" {text!r}" if quote else ""
    try:
        value = int(text)
    except ValueError:
        check_digits(name + shown, text)
        value = None
    if value is None or least is not None and value < least:
        floor = "" if least is None else f" >= {least}"
        raise ValueError(f"{name} must be an integer{floor}" + (f", got{shown}" if shown else ""))
    return value


def _config_dict(args, **extra):
    cfg = {"command": args.command, "n": args.n, "s": str(args.spin)}
    cfg.update(extra)
    return cfg


def _emit(args, payload):
    # json.dumps(payload, indent=2) joins these same chunks; written 65536 at
    # a time, the whole text is never one string.
    chunks = iter([_to_csv(payload)] if args.format == "csv" else
                  chain(json.JSONEncoder(indent=2).iterencode(payload), "\n"))
    with open(args.output, "w") if args.output else contextlib.nullcontext(sys.stdout) as fh:
        for block in iter(lambda: "".join(islice(chunks, 65536)), ""):
            fh.write(block)


def _to_csv(payload):
    # ``expand``'s terms and ``report``'s rows are tables (a report's config is
    # left out); every other payload flattens to key,value, a nested value to
    # one quoted JSON cell.
    import csv
    import io

    rows = payload if isinstance(payload, list) else payload.get("rows")
    if rows:
        lines = [list(rows[0]), *(map(str, row.values()) for row in rows)]
    else:
        lines = [["key", "value"], *(
            [key, json.dumps(value) if isinstance(value, (dict, list)) else str(value)]
            for key, value in payload.items())]
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(lines)
    return out.getvalue()


def _cmd_expand(args):
    from .expansion import check_letters, expand_terms

    check_letters(Scenario(args.n, Spin(1), args.dim_cap))  # whatever the spin
    return [{"coefficient": c, "labels": labels} for c, labels in expand_terms(args.n)]


def _cmd_classical_max(args):
    from . import classical

    scenario = Scenario(n=args.n, spin=args.spin)
    # Before either is formed: the bound's numerator (2s)**n, halved for
    # integer s, and the strategy count 4**n or (2s+1)**(2n) are printed.
    t, n = args.spin.twice_spin, args.n
    printed = f"an integer in the certificate for {scenario}"
    check_digits(printed, t, n, 1 - t % 2, CapExceeded)
    check_digits(printed, t + 1 if args.full_grid else 2, 2 * n, error=CapExceeded)
    result = classical.classical_max(scenario, extremal_only=not args.full_grid)
    return {
        "config": _config_dict(args, full_grid=args.full_grid),
        "bound": str(result.max_value),
        "achieved": True,  # every outcome +s attains the bound (classical docstring)
        "argmax_a": [str(v) for v in result.argmax.a],
        "argmax_b": [str(v) for v in result.argmax.b],
        "strategies_checked": result.strategies_checked,
    }


def _cmd_quantum_max(args):
    from . import quantum

    scenario = Scenario(n=args.n, spin=args.spin)
    result = quantum.largest_eigenpair(scenario)
    predicted = quantum.predicted_quantum_max(scenario)
    return {
        "config": _config_dict(args, tol=quantum.TOLERANCE),
        "top_eigenvalue": _fmt(result.value),
        "predicted": _fmt(predicted),
        "relative_error": _fmt(abs(result.value - predicted) / abs(predicted)),
        "gap": _fmt(quantum.spectral_gap(scenario)),
        "iterations": result.iterations,
    }


def _cmd_ratio(args):
    from . import classical, quantum

    scenario = Scenario(n=args.n, spin=args.spin)
    top = quantum.largest_eigenpair(scenario).value
    ratio = top / float(classical.classical_bound(scenario))
    predicted = quantum.predicted_ratio(args.n)
    return {
        "config": _config_dict(args, tol=quantum.TOLERANCE),
        "ratio": _fmt(ratio),
        "predicted": _fmt(predicted),
        "relative_error": _fmt(abs(ratio - predicted) / predicted),
    }


def _cmd_sample(args):
    from . import classical, measurement, quantum

    scenario = Scenario(n=args.n, spin=args.spin, dim_cap=args.dim_cap)
    quantum.largest_eigenpair(scenario)  # certifies the state it samples
    estimate = measurement.estimate_bell_value(scenario, args.shots, args.seed)
    bound = classical.classical_bound(scenario)
    sigmas = measurement.violation_sigmas(estimate, bound)
    return {
        "config": _config_dict(args, shots=args.shots, seed=args.seed),
        "shots_per_setting": estimate.shots_per_setting,
        "per_term": [
            {"labels": labels, "correlation": _fmt(mean), "stderr": _fmt(err)}
            for labels, mean, err in estimate.per_term
        ],
        "bell_estimate": _fmt(estimate.value),
        "bell_stderr": _fmt(estimate.stderr),
        "classical_bound": str(bound),
        "quantum_prediction": _fmt(quantum.predicted_quantum_max(scenario)),
        "sigmas_above_classical": _fmt(sigmas) if sigmas not in (float("inf"), float("-inf")) else str(sigmas),
    }


_GRID_PART = re.compile(r"^(n|s)=(.+?)\.\.(.+)$")


def _parse_grid(tokens):
    ranges = {}
    for token in tokens:
        match = _GRID_PART.match(token)
        if not match:
            raise ValueError(f"bad grid token {token!r}; expected n=LO..HI or s=LO..HI")
        key, lo, hi = match.groups()
        if key in ranges:
            raise ValueError(f"grid gives the {key} range twice, in {token!r}")
        if key == "n":
            bound = partial(_integer, "n", least=1, quote=False)  # the token shows the literal
            try:
                values = range(bound(lo), bound(hi) + 1)
            except ValueError as exc:
                raise ValueError(f"bad grid token {token!r}: {exc}") from None
        else:
            values = range(Spin.from_string(lo).twice_spin, Spin.from_string(hi).twice_spin + 1)
        if not values:
            raise ValueError(f"empty grid range {token!r}: LO is above HI")
        ranges[key] = values
    if len(ranges) < 2:
        raise ValueError("grid must give both an n range and an s range")
    return ranges["n"], ranges["s"]


def _cmd_report(args):
    from . import classical, quantum
    if args.sample:
        from . import measurement

    n_values, twice_spins = _parse_grid(args.grid)
    # The table's cells fit the budget before its first row.  The rows are
    # counted from the range bounds: len() overflows past sys.maxsize.
    check_budget(f"the report table of grid {' '.join(args.grid)}", args.dim_cap, lambda: (
        (n_values[-1] - n_values[0] + 1) * (twice_spins[-1] - twice_spins[0] + 1)
        * (9 if args.sample else 6)), "cells")
    # Every row is certified and, when sampled, admitted before the first
    # runs; row by row, so a huge grid stops at its first row past the float
    # range or the budget.  Each row keeps its top eigenvalue, one float.
    checked = []
    for scenario in (Scenario(n=n, spin=Spin(t), dim_cap=args.dim_cap)
                     for n in n_values for t in twice_spins):
        checked.append((scenario, quantum.largest_eigenpair(scenario).value))
        if args.sample:
            measurement.shots_per_setting(scenario, args.shots)
    rows = []
    for scenario, top in checked:
        bound = classical.classical_bound(scenario)
        row = {
            "n": scenario.n,
            "s": str(scenario.spin),
            "classical": str(bound),
            "quantum": _fmt(top),
            "ratio": _fmt(top / float(bound)),
            "gap": _fmt(quantum.spectral_gap(scenario)),
        }
        if args.sample:
            estimate = measurement.estimate_bell_value(scenario, args.shots, args.seed)
            row.update(bell_estimate=_fmt(estimate.value), bell_stderr=_fmt(estimate.stderr),
                       shots_per_setting=estimate.shots_per_setting)
        rows.append(row)
    config = {
        "command": "report",
        "grid": args.grid,
        "tol": quantum.TOLERANCE,
        "sample": args.sample,
        "shots": args.shots,
        "seed": args.seed,
    }
    return {"config": config, "rows": rows}


class _StoreOnce(argparse.Action):
    """argparse's store, except that a second occurrence of the option is a
    usage error: argparse alone keeps only the last value."""

    def __call__(self, parser, namespace, values, option_string=None):
        given = vars(namespace).setdefault("_given", set())
        if self.dest in given:
            raise argparse.ArgumentError(self, "given more than once")
        given.add(self.dest)
        setattr(namespace, self.dest, values)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mkbell",
        description="Bell operators for n spin-s particles: bounds, maxima, sampling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    options = {
        "--n": dict(type=_parsed(partial(_integer, "n")), help="number of parties"),
        "--spin": dict(type=_parsed(Spin.from_string),
                       help='spin, e.g. "1/2", "1", "3/2" (or "0.5")'),
        "--grid": dict(nargs="+", metavar="RANGE",
                       help="e.g. --grid n=2..4 s=1/2..3/2; one scenario is n=3..3 s=1..1"),
        "--dim-cap": dict(type=_parsed(partial(_integer, "dim_cap", least=1)),
                          default=DEFAULT_DIM_CAP, help=(
            "array budget: the most array entries the command may build "
            f"(default {DEFAULT_DIM_CAP}); at every spin expand and sampling "
            "count the n 2**n letters of the expansion, and report its table's "
            "cells, rows times 6 or, sampled, 9")),
        "--format": dict(choices=("json", "csv"), default="json"),
        "--output": dict(help="write the report to this file"),
        "--full-grid": dict(action="store_true",
                            help="certify the full outcome grid instead of sign patterns"),
        "--sample": dict(action="store_true", help="add sampled Bell estimates"),
        "--shots": dict(type=_parsed(partial(_integer, "shots", least=1)), default=DEFAULT_SHOTS,
                        help="total shots, split evenly across setting contexts"),
        # NumPy takes no negative seed.
        "--seed": dict(type=_parsed(partial(_integer, "seed", least=0)), default=DEFAULT_SEED),
    }
    for command, func, text, required, optional in [
        ("expand", _cmd_expand, "term expansion of the Bell expression",
         "--n", "--dim-cap --format --output"),
        ("classical-max", _cmd_classical_max, "exact classical maximum 2**(n-1) s**n (closed form)",
         "--n --spin", "--format --output --full-grid"),
        ("quantum-max", _cmd_quantum_max, "largest eigenvalue of the Bell operator",
         "--n --spin", "--format --output"),
        ("ratio", _cmd_ratio, "quantum-to-classical violation ratio",
         "--n --spin", "--format --output"),
        ("sample", _cmd_sample, "simulated-measurement Bell estimate",
         "--n --spin", "--dim-cap --format --output --shots --seed"),
        ("report", _cmd_report, "full pipeline over a grid of scenarios",
         "--grid", "--dim-cap --format --output --sample --shots --seed"),
    ]:
        p = sub.add_parser(command, help=text)
        for option in required.split():
            p.add_argument(option, required=True, action=_StoreOnce, **options[option])
        for option in optional.split():
            p.add_argument(option, **{"action": _StoreOnce, **options[option]})
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    # NumPy, loaded only to sample an even n, starts OpenBLAS's thread pool,
    # whose thread busy-waits for about 0.1 s of CPU; no call here uses it.
    # One thread alone cut the CPU time of `sample --n 9 --spin 1/2`, then a
    # drawing command, whole process on a 2-vCPU guest, from 0.43 to 0.31 s
    # (BENCH_per_b_sampling.json).
    # A value the caller set is kept.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    args = build_parser().parse_args(argv)
    try:
        _emit(args, args.func(args))
    except (MkBellError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, CapExceeded) else 4 if isinstance(exc, NotConverged) else 2
    return 0


def run() -> None:
    """The process entry point: exit with ``main``'s code.

    The process is about to end, so its objects need no cyclic collection,
    yet CPython's finalization runs a full one over every tracked object
    (about 2 to 5 ms a command, README; ``gc.disable()`` does not stop it).  ``gc.freeze()``
    moves them out of the collector's reach, so that collection has nothing
    to walk.  atexit handlers, stdio flushes and refcount teardown still run,
    on every exit path: each code, ``--help`` and a traceback.  ``main``
    leaves the collector as it found it, for callers in a running process."""
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    run()
