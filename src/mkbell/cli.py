"""Command-line interface tying the toolkit into reproducible reports.

Exit codes: 0 success, 2 validation error, 3 cap exceeded (the array budget
``--dim-cap``, or digits of a printed exact integer), 4 numerical
non-convergence (the closed-form top eigenpair fails its one-matvec residual
check).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import classical, measurement, quantum
from .errors import CapExceeded, MkBellError, NotConverged
from .operators import global_operator
from .spincore import DEFAULT_DIM_CAP, Scenario, Spin

DEFAULT_SHOTS = 10 ** 6
DEFAULT_SEED = 42


def _fmt(x):
    """Round a float to 12 significant digits (stable, round-trippable)."""
    return float(f"{x:.12g}")


def _spin_arg(text: str) -> Spin:
    try:
        return Spin.from_string(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _dim_cap(args) -> int:
    if args.dim_cap is not None:
        return args.dim_cap
    env = os.environ.get("MKBELL_DIM_CAP")
    return int(env) if env else DEFAULT_DIM_CAP


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
    # Report payloads carry tabular rows; everything else flattens to key,value.
    if isinstance(payload, dict) and "rows" in payload:
        rows = payload["rows"]
        header = list(rows[0].keys())
        lines = [",".join(header)]
        for row in rows:
            lines.append(",".join("" if row[k] is None else str(row[k]) for k in header))
        return "\n".join(lines) + "\n"
    if isinstance(payload, list):
        lines = ["coefficient,labels"]
        for item in payload:
            lines.append(f"{item['coefficient']},{item['labels']}")
        return "\n".join(lines) + "\n"
    lines = ["key,value"]
    for key, value in payload.items():
        lines.append(f"{key},{json.dumps(value) if isinstance(value, (dict, list)) else value}")
    return "\n".join(lines) + "\n"


def _cmd_expand(args):
    from .expansion import expand_terms

    n = args.n  # n letters in each of 2**n label strings, whatever the spin
    Scenario(n, Spin(1), _dim_cap(args)).check_entries(
        f"the label strings for n={n}", lambda: n << n)
    expansion = expand_terms(n)
    payload = [{"coefficient": c, "labels": labels} for c, labels in expansion.terms]
    _emit(args, payload)


def _check_printable(scenario, extremal_only):
    """Raise CapExceeded before the DP if the bound's numerator or the strategy
    count (at least 4**n, too long once n >= 2 * limit) has more digits than
    Python converts to text."""
    limit = sys.get_int_max_str_digits()
    if limit and (scenario.n >= 2 * limit or 10 ** limit <= max(
            classical.classical_bound(scenario).numerator,
            classical.strategy_count(scenario, extremal_only))):
        raise CapExceeded(
            f"the certificate for {scenario} prints an integer of more than {limit} "
            "digits, the limit of sys.get_int_max_str_digits()"
        )


def _cmd_classical_max(args):
    scenario = Scenario(n=args.n, spin=args.spin)
    _check_printable(scenario, not args.full_grid)
    cert = classical.verify_bound(scenario, extremal_only=not args.full_grid)
    payload = {
        "config": _config_dict(args, full_grid=args.full_grid),
        "bound": cert.bound.fraction_str(),
        "achieved": cert.achieved,
        "argmax_a": [v.fraction_str() for v in cert.argmax.a],
        "argmax_b": [v.fraction_str() for v in cert.argmax.b],
        "strategies_checked": cert.strategies_checked,
    }
    _emit(args, payload)


def _quantum_top(scenario, tol):
    op = global_operator(scenario)
    result = quantum.largest_eigenpair(scenario, tol=tol, operator=op)
    return op, result, quantum.spectral_gap(scenario)


def _cmd_quantum_max(args):
    scenario = _scenario(args)
    _, result, gap = _quantum_top(scenario, args.tol)
    predicted = quantum.predicted_quantum_max(scenario)
    payload = {
        "config": _config_dict(args, tol=args.tol),
        "top_eigenvalue": _fmt(result.value),
        "predicted": _fmt(predicted),
        "relative_error": _fmt(abs(result.value - predicted) / abs(predicted)),
        "gap": _fmt(gap),
        "iterations": result.iterations,
    }
    _emit(args, payload)


def _cmd_ratio(args):
    scenario = _scenario(args)
    ratio = quantum.violation_ratio(scenario, tol=args.tol)
    predicted = quantum.predicted_ratio(args.n)
    payload = {
        "config": _config_dict(args, tol=args.tol),
        "ratio": _fmt(ratio),
        "predicted": _fmt(predicted),
        "relative_error": _fmt(abs(ratio - predicted) / predicted),
    }
    _emit(args, payload)


def _sample_block(scenario, op, state, shots, seed):
    n_terms = op.expansion.term_count
    shots_per_setting = max(1, shots // n_terms)
    estimate = measurement.estimate_bell_value(
        scenario, state, shots_per_setting, seed, operator=op
    )
    sigmas = measurement.violation_sigmas(scenario, estimate)
    return estimate, shots_per_setting, sigmas


def _cmd_sample(args):
    scenario = _scenario(args)
    op = global_operator(scenario)
    state = quantum.largest_eigenpair(scenario, operator=op).vector
    estimate, shots_per_setting, sigmas = _sample_block(
        scenario, op, state, args.shots, args.seed
    )
    payload = {
        "config": _config_dict(args, shots=args.shots, seed=args.seed),
        "shots_per_setting": shots_per_setting,
        "per_term": [
            {"labels": labels, "correlation": _fmt(mean), "stderr": _fmt(err)}
            for labels, mean, err in estimate.per_term
        ],
        "bell_estimate": _fmt(estimate.value),
        "bell_stderr": _fmt(estimate.stderr),
        "classical_bound": classical.classical_bound(scenario).fraction_str(),
        "quantum_prediction": _fmt(quantum.predicted_quantum_max(scenario)),
        "sigmas_above_classical": _fmt(sigmas) if sigmas not in (float("inf"), float("-inf")) else str(sigmas),
    }
    _emit(args, payload)


_GRID_PART = re.compile(r"^(n|s)=(.+?)\.\.(.+)$")


def _parse_grid(tokens):
    n_range = None
    s_range = None
    for token in tokens:
        match = _GRID_PART.match(token)
        if not match:
            raise ValueError(f"bad grid token {token!r}; expected n=LO..HI or s=LO..HI")
        key, lo, hi = match.groups()
        if key == "n":
            n_range = list(range(int(lo), int(hi) + 1))
        else:
            lo_t = Spin.from_string(lo).twice_spin
            hi_t = Spin.from_string(hi).twice_spin
            s_range = [Spin(t) for t in range(lo_t, hi_t + 1)]
    if n_range is None or s_range is None:
        raise ValueError("grid must give both an n range and an s range")
    return n_range, s_range


def _cmd_report(args):
    if args.grid:
        n_values, s_values = _parse_grid(args.grid)
    else:
        n_values, s_values = [args.n], [args.spin]
    dim_cap = _dim_cap(args)
    rows = []
    for n in n_values:
        for spin in s_values:
            scenario = Scenario(n=n, spin=spin, dim_cap=dim_cap)
            cert = classical.verify_bound(scenario)
            op, result, gap = _quantum_top(scenario, args.tol)
            row = {
                "n": n,
                "s": str(spin),
                "classical": cert.bound.fraction_str(),
                "quantum": _fmt(result.value),
                "ratio": _fmt(result.value / float(cert.bound)),
                "gap": _fmt(gap),
            }
            if args.sample:
                estimate, shots_per_setting, sigmas = _sample_block(
                    scenario, op, result.vector, args.shots, args.seed
                )
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
    if args.format == "csv":
        _emit(args, {"rows": rows})
    else:
        _emit(args, {"config": config, "rows": rows})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mkbell",
        description="Bell operators for n spin-s particles: bounds, maxima, sampling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_dim_cap(p):
        p.add_argument("--dim-cap", type=int, default=None, help=(
            "array budget: the most array entries the command may build "
            f"(default {DEFAULT_DIM_CAP}, env MKBELL_DIM_CAP); a state vector "
            "counts (2s+1)**n, sampling 4**(n//2) (2s+1)**n, expand n 2**n"))

    def add_common(p, dim_cap=True):
        p.add_argument("--n", type=int, required=True, help="number of parties")
        p.add_argument("--spin", type=_spin_arg, required=True,
                       help='spin, e.g. "1/2", "1", "3/2" (or "0.5")')
        if dim_cap:
            add_dim_cap(p)
        p.add_argument("--format", choices=("json", "csv"), default="json")
        p.add_argument("--output", default=None, help="write the report to this file")

    p = sub.add_parser("expand", help="term expansion of the Bell expression")
    p.add_argument("--n", type=int, required=True)
    add_dim_cap(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output", default=None)
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("classical-max", help="exact classical maximum, certified by an O(n) DP")
    add_common(p, dim_cap=False)
    p.add_argument("--full-grid", action="store_true",
                   help="certify the full outcome grid instead of sign patterns")
    p.set_defaults(func=_cmd_classical_max)

    p = sub.add_parser("quantum-max", help="largest eigenvalue of the Bell operator")
    add_common(p)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=_cmd_quantum_max)

    p = sub.add_parser("ratio", help="quantum-to-classical violation ratio")
    add_common(p)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=_cmd_ratio)

    p = sub.add_parser("sample", help="simulated-measurement Bell estimate")
    add_common(p)
    p.add_argument("--shots", type=int, default=DEFAULT_SHOTS,
                   help="total shots, split evenly across setting contexts")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("report", help="full pipeline for one scenario or a grid")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--spin", type=_spin_arg, default=None)
    p.add_argument("--grid", nargs="+", default=None,
                   metavar="RANGE", help='e.g. --grid n=2..4 s=1/2..3/2')
    add_dim_cap(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output", default=None)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--sample", action="store_true", help="add sampled Bell estimates")
    p.add_argument("--shots", type=int, default=DEFAULT_SHOTS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "report" and not args.grid and (args.n is None or args.spin is None):
        parser.error("report needs either --grid or both --n and --spin")
    try:
        args.func(args)
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NotConverged as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (MkBellError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
