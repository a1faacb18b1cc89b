"""Command-line interface tying the toolkit into reproducible reports.

Each command returns its payload; ``main`` writes it, or the error, once.
Exit codes: 0 success, 2 validation error (among them a ``--spin`` too long to
print, a negative ``--seed`` and a ``--shots`` that puts more than 2**63 - 1
shots on one setting) or unwritable ``--output``, 3 cap exceeded (the array
budget ``--dim-cap``, digits of a printed exact integer, or a top eigenvalue
or ratio past the float range), 4 numerical non-convergence (the closed-form top
eigenpair fails its residual check).  ``sample`` and every row of
``report`` pass the same checks (``_check_fits``) before any array is built,
and it returns the shots split their estimate draws.  Each typed option parses
through ``_parsed``; every integer input, ``MKBELL_DIM_CAP`` and the grid's n
bounds too, through ``_integer``, whose message names it.

The eigenpair commands ``quantum-max``, ``ratio`` and ``report`` import
``quantum``, which certifies the top eigenpair on its n + 1 symmetric
amplitudes in pure Python, and count those n + 1 entries against the budget.
Only the commands that sample, ``sample`` and ``report --sample``, import
``measurement``, and with it NumPy, to build the 2**n state; ``classical-max``
and ``expand`` run on the pure-Python exact layer.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from functools import partial

from . import classical
from .errors import CapExceeded, MkBellError, NotConverged
from .expansion import expected_term_count
from .spincore import DEFAULT_DIM_CAP, Scenario, Spin

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


def _tolerance(text: str) -> float:
    try:
        tol = float(text)
    except ValueError:
        tol = 0.0
    if not 0 < tol < float("inf"):
        raise ValueError(f"tol must be a finite number > 0, got {text!r}")
    return tol


def _integer(name: str, text: str, least: int | None = None, quote: bool = True) -> int:
    """``text`` as an integer, at least ``least`` if given; the ValueError names
    ``name``, and Python's digit limit for a literal too long to convert, and
    repeats ``text`` unless ``quote`` is false."""
    shown = f" {text!r}" if quote else ""
    try:
        value = int(text)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        if limit and sum(map(str.isdigit, text)) > limit:
            raise ValueError(f"{name}{shown} has more than {limit} digits, the limit of "
                             "sys.get_int_max_str_digits()") from None
        value = None
    if value is None or least is not None and value < least:
        floor = "" if least is None else f" >= {least}"
        raise ValueError(f"{name} must be an integer{floor}" + (f", got{shown}" if shown else ""))
    return value


def _dim_cap(args) -> int:
    if args.dim_cap is not None:
        return args.dim_cap  # a cap below 1 fails in Scenario
    env = os.environ.get("MKBELL_DIM_CAP")
    return _integer("MKBELL_DIM_CAP", env, least=1) if env else DEFAULT_DIM_CAP


def _scenario(args) -> Scenario:
    return Scenario(n=args.n, spin=args.spin, dim_cap=_dim_cap(args))


def _config_dict(args, **extra):
    cfg = {"command": args.command, "n": args.n, "s": str(args.spin)}
    cfg.update(extra)
    return cfg


def _emit(args, payload):
    if args.format == "csv":
        text = _to_csv(payload)
    else:
        text = json.dumps(payload, indent=2) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _to_csv(payload):
    # ``expand``'s terms and ``report``'s rows are tables (a report's config is
    # left out); every other payload flattens to key,value.
    rows = payload if isinstance(payload, list) else payload.get("rows")
    if rows:
        lines = [",".join(rows[0])]
        lines += (",".join(str(value) for value in row.values()) for row in rows)
    else:
        lines = ["key,value"]
        lines += (f"{key},{json.dumps(value) if isinstance(value, (dict, list)) else value}"
                  for key, value in payload.items())
    return "\n".join(lines) + "\n"


def _cmd_expand(args):
    from .expansion import expand_terms

    n = args.n  # n letters in each of 2**n label strings, whatever the spin
    Scenario(n, Spin(1), _dim_cap(args)).check_entries(
        f"the label strings for n={n}", lambda: n << n)
    return [{"coefficient": c, "labels": labels} for c, labels in expand_terms(n)]


def _power_reaches(base: int, exp: int, floor: int) -> bool:
    """base**exp >= floor; the power is formed only when bit lengths do not
    decide, and then has fewer than twice floor's bits."""
    bits, top = base.bit_length(), floor.bit_length()
    if exp * (bits - 1) >= top:
        return True
    return exp * bits >= top and base ** exp >= floor


def _check_printable(scenario, extremal_only):
    """Raise CapExceeded before the DP if the bound's numerator (2s)**n, halved
    for integer s, or the strategy count 4**n or (2s+1)**(2n) has more digits
    than Python converts to text."""
    limit = sys.get_int_max_str_digits()
    t, n, floor = scenario.spin.twice_spin, scenario.n, 10 ** limit
    if limit and (_power_reaches(t, n, floor << (1 - t % 2))
                  or _power_reaches(2 if extremal_only else t + 1, 2 * n, floor)):
        raise CapExceeded(
            f"the certificate for {scenario} prints an integer of more than {limit} "
            "digits, the limit of sys.get_int_max_str_digits()"
        )


def _cmd_classical_max(args):
    scenario = Scenario(n=args.n, spin=args.spin)
    _check_printable(scenario, not args.full_grid)
    result = classical.classical_max(scenario, extremal_only=not args.full_grid)
    bound = classical.classical_bound(scenario)
    return {
        "config": _config_dict(args, full_grid=args.full_grid),
        "bound": str(bound),
        "achieved": result.max_value == bound,
        "argmax_a": [str(v) for v in result.argmax.a],
        "argmax_b": [str(v) for v in result.argmax.b],
        "strategies_checked": result.strategies_checked,
    }


def _cmd_quantum_max(args):
    from . import quantum

    scenario = _scenario(args)
    result = quantum.largest_eigenpair(scenario, tol=args.tol)
    predicted = quantum.predicted_quantum_max(scenario)
    return {
        "config": _config_dict(args, tol=args.tol),
        "top_eigenvalue": _fmt(result.value),
        "predicted": _fmt(predicted),
        "relative_error": _fmt(abs(result.value - predicted) / abs(predicted)),
        "gap": _fmt(quantum.spectral_gap(scenario)),
        "iterations": result.iterations,
    }


def _cmd_ratio(args):
    from . import quantum

    scenario = _scenario(args)
    ratio = quantum.violation_ratio(scenario, tol=args.tol)
    predicted = quantum.predicted_ratio(args.n)
    return {
        "config": _config_dict(args, tol=args.tol),
        "ratio": _fmt(ratio),
        "predicted": _fmt(predicted),
        "relative_error": _fmt(abs(ratio - predicted) / predicted),
    }


def _check_fits(scenario, shots=None):
    """Raise before any array is built unless ``scenario``'s certificate (n + 1
    entries) fits the budget and its top eigenvalue the float range; with
    ``shots``, also its sampled estimate (T 2**n entries, the state's 2**n
    among them) and the shots split.  Return the shots per setting: ``shots``
    split evenly across the T setting contexts, of which one multinomial draw
    takes at most 2**63 - 1."""
    from . import quantum

    quantum.certificate_scale(scenario)
    if shots is None:
        return None
    from . import measurement

    measurement.check_distribution_budget(scenario)
    share = max(1, shots // expected_term_count(scenario.n))
    if share >= 1 << 63:
        raise ValueError(f"--shots {shots} puts {share} shots on each setting of "
                         f"{scenario}, more than the 2**63 - 1 one multinomial draw takes")
    return share


def _cmd_sample(args):
    from . import measurement, quantum

    scenario = _scenario(args)
    shots_per_setting = _check_fits(scenario, args.shots)
    quantum.largest_eigenpair(scenario)  # certifies the state it samples
    estimate = measurement.estimate_bell_value(scenario, shots_per_setting, args.seed)
    sigmas = measurement.violation_sigmas(scenario, estimate)
    return {
        "config": _config_dict(args, shots=args.shots, seed=args.seed),
        "shots_per_setting": shots_per_setting,
        "per_term": [
            {"labels": labels, "correlation": _fmt(mean), "stderr": _fmt(err)}
            for labels, mean, err in estimate.per_term
        ],
        "bell_estimate": _fmt(estimate.value),
        "bell_stderr": _fmt(estimate.stderr),
        "classical_bound": str(classical.classical_bound(scenario)),
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
            bound = partial(_integer, "n", quote=False)  # the token shows the literal
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
    from . import quantum
    if args.sample:
        from . import measurement

    if args.grid:
        n_values, twice_spins = _parse_grid(args.grid)
    else:
        n_values, twice_spins = [args.n], [args.spin.twice_spin]
    dim_cap = _dim_cap(args)
    shots = args.shots if args.sample else None
    # Every row fits before the first runs; built row by row, so a huge grid
    # stops at its first row past the budget.
    checked = [(scenario, _check_fits(scenario, shots)) for scenario in (
        Scenario(n=n, spin=Spin(t), dim_cap=dim_cap) for n in n_values for t in twice_spins)]
    rows = []
    for scenario, shots_per_setting in checked:
        bound = classical.classical_max(scenario).max_value
        result = quantum.largest_eigenpair(scenario, tol=args.tol)
        row = {
            "n": scenario.n,
            "s": str(scenario.spin),
            "classical": str(bound),
            "quantum": _fmt(result.value),
            "ratio": _fmt(result.value / float(bound)),
            "gap": _fmt(quantum.spectral_gap(scenario)),
        }
        if args.sample:
            estimate = measurement.estimate_bell_value(scenario, shots_per_setting, args.seed)
            row["bell_estimate"] = _fmt(estimate.value)
            row["bell_stderr"] = _fmt(estimate.stderr)
            row["shots_per_setting"] = shots_per_setting
        rows.append(row)
    config = {
        "command": "report",
        "grid": args.grid or f"n={args.n} s={args.spin}",
        "tol": args.tol,
        "sample": args.sample,
        "shots": args.shots,
        "seed": args.seed,
    }
    return {"config": config, "rows": rows}


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
        "--grid": dict(nargs="+", metavar="RANGE", help="e.g. --grid n=2..4 s=1/2..3/2"),
        "--dim-cap": dict(type=_parsed(partial(_integer, "dim_cap")), help=(
            "array budget: the most array entries the command may build "
            f"(default {DEFAULT_DIM_CAP}, env MKBELL_DIM_CAP); at every spin the "
            "eigenpair certificate counts n + 1, sampling (which alone imports "
            "NumPy) 4**(n//2) 2**n, expand n 2**n")),
        "--format": dict(choices=("json", "csv"), default="json"),
        "--output": dict(help="write the report to this file"),
        "--full-grid": dict(action="store_true",
                            help="certify the full outcome grid instead of sign patterns"),
        "--tol": dict(type=_parsed(_tolerance), default=1e-9),
        "--sample": dict(action="store_true", help="add sampled Bell estimates"),
        "--shots": dict(type=_parsed(partial(_integer, "shots", least=1)), default=DEFAULT_SHOTS,
                        help="total shots, split evenly across setting contexts"),
        # NumPy takes no negative seed.
        "--seed": dict(type=_parsed(partial(_integer, "seed", least=0)), default=DEFAULT_SEED),
    }
    for command, func, text, required, optional in [
        ("expand", _cmd_expand, "term expansion of the Bell expression",
         "--n", "--dim-cap --format --output"),
        ("classical-max", _cmd_classical_max, "exact classical maximum, certified by a DP on signs",
         "--n --spin", "--format --output --full-grid"),
        ("quantum-max", _cmd_quantum_max, "largest eigenvalue of the Bell operator",
         "--n --spin", "--dim-cap --format --output --tol"),
        ("ratio", _cmd_ratio, "quantum-to-classical violation ratio",
         "--n --spin", "--dim-cap --format --output --tol"),
        ("sample", _cmd_sample, "simulated-measurement Bell estimate",
         "--n --spin", "--dim-cap --format --output --shots --seed"),
        ("report", _cmd_report, "full pipeline for one scenario or a grid",
         "", "--n --spin --grid --dim-cap --format --output --tol --sample --shots --seed"),
    ]:
        p = sub.add_parser(command, help=text)
        for option in required.split():
            p.add_argument(option, required=True, **options[option])
        for option in optional.split():
            p.add_argument(option, **options[option])
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "report":
        if args.grid and (args.n is not None or args.spin is not None):
            parser.error("report takes either --grid or --n and --spin, not both")
        if not args.grid and (args.n is None or args.spin is None):
            parser.error("report needs either --grid or both --n and --spin")
    try:
        _emit(args, args.func(args))
    except (MkBellError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, CapExceeded) else 4 if isinstance(exc, NotConverged) else 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
