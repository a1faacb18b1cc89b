"""End-to-end and per-layer benchmark of the ``mkbell`` command line.

Run from the root of a checkout that holds ``src/mkbell``:

    python3 perfbench/run.py --workload spin-dim --seed 1 --seconds 28 --trace 0

``--trace 0`` runs the workload's commands as child processes, exactly as a
user types them, with the package taken from ``src/`` as the Tier-1 suite
takes it. It reports the end-to-end metrics. ``--trace 1`` runs the same
commands in this process through ``mkbell.cli.main``, with spans around each
layer's public functions, and reports the per-layer metrics.

Both modes first run the workload once as a warm-up that is checked but not
measured, then repeat it until ``--seconds`` would be exceeded (at least
three untraced or two traced repetitions). Untraced runs report the mean
wall and CPU time of a repetition and the median of the other metrics;
traced runs report medians. Both check every output against the closed
forms (see ``workloads.py``) and check that repetitions with the same seed
print the same bytes. The last line of stdout
is the result, ``{"correct", "attempted", "failed", "metrics"}``; the line
before it is the full record, with the environment fingerprint.

``--self-check`` runs tiny variants of every workload in a few seconds.
``--compare A B`` compares two records written with ``--out``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import fingerprint as env
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Untraced runs take the median of at least three repetitions, so that one
#: repetition slowed by another tenant of the host does not move the result.
#: Traced runs need two to check that the exact counts repeat. ``setup_s`` is
#: sampled once per repetition, spread over the run, and at least 9 times.
MIN_REPS = 3
MIN_TRACED_REPS = 2
SETUP_SAMPLES = 9

#: End-to-end metric units. ``pass_frac`` is 1 - fail_frac, the share of
#: operations that passed the gate; a ratio that is 0 when all is well
#: cannot carry a relative bound.
E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
             "pass_frac": "ratio"}

#: What a user pays before the first solve: a fresh interpreter imports the
#: CLI and builds the workload's scenarios, and the operator of each
#: eigenproblem. Prints the kernel backend for the fingerprint.
SETUP_CODE = """\
import sys
import mkbell.cli
from mkbell import operators
from mkbell.spincore import Scenario, Spin
for item in sys.argv[1:]:
    n, s, eigen = item.split(":")
    scenario = Scenario(n=int(n), spin=Spin.from_string(s))
    if eigen == "1":
        operators.global_operator(scenario)
try:
    from mkbell.kernels import backend
except ImportError:
    print("absent")
else:
    print(backend())
"""


@dataclass
class Run:
    """One execution of one command."""

    wall_s: float
    returncode: int
    stdout: str
    stderr: str = ""
    cpu_s: float = 0.0
    rss_mb: float = 0.0


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=f"{SRC}{os.pathsep}{path}" if path else str(SRC))


def run_child(argv: list[str]) -> Run:
    """Run ``argv``, capturing output and the child's own resource usage."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=child_env(), cwd=ROOT)
    err = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    out = proc.stdout.read()
    reader.join()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Run(wall, proc.returncode, out.decode(), err[0].decode(),
               usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


def run_inprocess(cli, command: workloads.Command) -> Run:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            returncode = cli.main(list(command.argv))
        except SystemExit as exc:
            returncode = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash fails the operation; the benchmark goes on
            traceback.print_exc()
            returncode = 1
    return Run(time.perf_counter() - start, returncode, out.getvalue(), err.getvalue())


class Gate:
    """Counts operations and failures across the runs of one workload."""

    def __init__(self, commands):
        self.commands = commands
        self.first: dict[int, str] = {}
        self.attempted = 0
        self.messages: list[str] = []

    def check(self, runs: list[Run]):
        for index, (command, run) in enumerate(zip(self.commands, runs)):
            failures = workloads.check(command, run.returncode, run.stdout)
            if self.first.setdefault(index, run.stdout) != run.stdout:
                failures.setdefault("command", "stdout differs from the first run")
            self.attempted += command.operations
            self.messages += [f"{' '.join(command.argv)}: {op}: {reason}"
                              + (f" ({run.stderr.strip()[-300:]})" if run.stderr.strip() else "")
                              for op, reason in failures.items()]

    def flag(self, message: str):
        self.attempted += 1
        self.messages.append(message)

    @property
    def failed(self) -> int:
        return len(self.messages)


def repeat(seconds: float, minimum: int, once):
    """Call ``once()`` until another call would pass ``seconds``."""
    results, start, last = [], time.perf_counter(), 0.0
    while len(results) < minimum or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        results.append(once())
        last = time.perf_counter() - began
    return results


def measure_untraced(commands, seconds: float, gate: Gate):
    scenarios = [f"{n}:{s}:{int(c.argv[0] in workloads.EIGEN_COMMANDS)}"
                 for c in commands for n, s in c.scenarios()]
    setups = []

    def set_up():
        setup = run_child([sys.executable, "-c", SETUP_CODE, *scenarios])
        if setup.returncode != 0:
            raise SystemExit(f"set-up failed:\n{setup.stderr}")
        setups.append(setup)

    def once():
        runs = [run_child([sys.executable, "-m", "mkbell.cli", *c.argv]) for c in commands]
        gate.check(runs)
        return runs

    once()  # warm-up: the first run in a fresh checkout also compiles bytecode

    def measured():
        set_up()
        return once()

    reps = repeat(seconds, MIN_REPS, measured)
    while len(setups) < SETUP_SAMPLES:
        set_up()
    samples = {
        "wall_s": [sum(r.wall_s for r in runs) for runs in reps],
        "cpu_s": [sum(r.cpu_s for r in runs) for runs in reps],
        "setup_s": [s.wall_s for s in setups],
        "peak_rss_mb": [max(r.rss_mb for r in runs) for runs in reps],
    }
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    # The host's speed switches between two levels for tens of seconds at a
    # time. A median snaps to one level; the mean weighs each by the time the
    # run spent in it, and so varies less from run to run.
    metrics["wall_s"] = statistics.fmean(samples["wall_s"])
    metrics["cpu_s"] = statistics.fmean(samples["cpu_s"])
    metrics["pass_frac"] = 1 - gate.failed / gate.attempted
    return metrics, samples, setups[0].stdout.strip(), []


def import_cli():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    return importlib.import_module("mkbell.cli")


def backend_inprocess() -> str:
    try:
        return importlib.import_module("mkbell.kernels").backend()
    except (ImportError, AttributeError):
        return "absent"


def measure_traced(commands, seconds: float, gate: Gate):
    cli = import_cli()

    def once():
        runs = [run_inprocess(cli, c) for c in commands]
        gate.check(runs)
        return runs

    once()  # warm-up: lazy imports and the heap's first growth are paid once
    call_s = tracing.call_overhead_s()

    def traced():
        with tracing.Trace() as trace:
            wall_s = sum(r.wall_s for r in once())
        return trace, wall_s

    reps = repeat(seconds, MIN_TRACED_REPS, traced)
    per_rep = [tracing.layer_metrics(trace, wall, call_s) for trace, wall in reps]
    samples = {name: [m[name] for m in per_rep] for name in per_rep[0]}
    for name in tracing.EXACT_COUNTS:
        if len(set(samples[name])) > 1:
            gate.flag(f"count {name} drifted across traced runs: {samples[name]}")
    metrics = {name: statistics.median(values) for name, values in samples.items()}
    absent = reps[0][0].absent
    for hook in absent:
        print(f"warning: hooked function {hook} is absent; its layer reads 0",
              file=sys.stderr)
    return metrics, samples, backend_inprocess(), absent


def benchmark(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Measure one workload; returns the full record."""
    commands = workloads.commands(workload, seed, tiny=tiny)
    gate = Gate(commands)
    measure = measure_traced if trace else measure_untraced
    values, samples, backend, absent = measure(commands, seconds, gate)
    units = tracing.UNITS if trace else E2E_UNITS
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "commands": [" ".join(c.argv) for c in commands],
        "fingerprint": env.fingerprint(ROOT, backend),
        "attempted": gate.attempted, "failed": gate.failed,
        "failures": gate.messages[:20], "absent": absent,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        "samples": samples,
    }


def report(record):
    for name, metric in record["metrics"].items():
        print(f"{record['workload']:18} {name:28} {metric['value']:>14.6g} {metric['unit']}")
    print(f"{record['workload']:18} {'fail_frac':28} "
          f"{record['failed'] / record['attempted']:>14.6g} ratio "
          f"({record['failed']} of {record['attempted']} operations)")
    for message in record["failures"]:
        print(f"FAILED {message}", file=sys.stderr)


def compare(first_path: str, second_path: str) -> int:
    first, second = (json.loads(Path(p).read_text()) for p in (first_path, second_path))
    problems = env.mismatches(first["fingerprint"], second["fingerprint"])
    if first["workload"] != second["workload"] or first["trace"] != second["trace"]:
        problems.append("different workload or trace mode")
    if problems:
        print("refusing to compare: " + "; ".join(problems), file=sys.stderr)
        return 2
    for name, metric in first["metrics"].items():
        a, b = metric["value"], second["metrics"].get(name, {}).get("value")
        shown = "absent" if b is None else f"{b:.6g}"
        change = "" if b is None or not a else f"{(b - a) / abs(a):+.1%}"
        print(f"{name:28} {a:>14.6g} {shown:>14} {metric['unit']:6} {change}")
    return 0


def self_check() -> int:
    """Tiny runs of every workload; checks metric names, units and the gate."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    cli = import_cli()
    problems = []
    for workload in workloads.WORKLOADS:
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            record = benchmark(workload, 1, 0, trace, tiny=True)
            if record["failed"]:
                problems += record["failures"]
            for metric in declared[section]:
                emitted = record["metrics"].get(metric["name"])
                if emitted is None or emitted["unit"] != metric["unit"]:
                    problems.append(f"{workload}: {metric['name']} emitted as {emitted}")
        for command in workloads.commands(workload, 1, tiny=True):
            stdout, name = run_inprocess(cli, command).stdout, " ".join(command.argv)
            with _misstated(Fraction(3, 2)):
                failures = workloads.check(command, 0, stdout)
            if len(failures) != (len(command.rows) or 1):
                problems.append(f"gate passed {name} against closed forms scaled by 3/2")
            for field, wrong, reason in _corrupted(command, stdout):
                failures = workloads.check(command, 0, wrong)
                if not any(reason in message for message in failures.values()):
                    problems.append(f"gate missed a wrong {field} in {name}: {failures}")
            if not workloads.check(command, 3, stdout):
                problems.append(f"gate passed exit code 3 for {name}")
    with tracing.Trace(tracing.HOOKS + (("gone", "mkbell.quantum", "power_iteration",
                                         None),)) as trace:
        pass
    if trace.absent != ["mkbell.quantum.power_iteration"]:
        problems.append(f"absent hooks reported as {trace.absent}")
    if cli.global_operator is not importlib.import_module("mkbell.operators").global_operator:
        problems.append("a traced alias was not restored")
    for problem in problems:
        print(f"self-check: {problem}", file=sys.stderr)
    print("self-check: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


@contextlib.contextmanager
def _misstated(factor: Fraction):
    """The gate's closed forms, scaled by ``factor`` inside the block."""
    classical, quantum = workloads.classical_bound, workloads.quantum_max
    workloads.classical_bound = lambda n, s: classical(n, s) * factor
    workloads.quantum_max = lambda n, s: quantum(n, s) * float(factor)
    try:
        yield
    finally:
        workloads.classical_bound, workloads.quantum_max = classical, quantum


#: (command, output field the gate checks, a wrong value made from the right
#: one and its record, words of the failure the gate must report).
_CORRUPTIONS = (
    ("quantum-max", "top_eigenvalue", lambda v, r: v * (1 + 1e-7), "top eigenvalue"),
    ("sample", "bell_estimate", lambda v, r: v + 7 * r["bell_stderr"] + 1e-5,
     "misses the prediction"),
    ("sample", "bell_estimate", lambda v, r: -abs(v), "not above the classical bound"),
    ("classical-max", "bound", lambda v, r: str(Fraction(v) + 1), "is not exactly"),
    ("classical-max", "achieved", lambda v, r: False, "not achieved"),
    ("classical-max", "strategies_checked", lambda v, r: v + 1, "strategies_checked"),
    ("report", "classical", lambda v, r: str(Fraction(v) + 1), "is not exactly"),
    ("report", "quantum", lambda v, r: v * (1 + 1e-7), "top eigenvalue"),
    ("report", "bell_estimate", lambda v, r: v + 7 * r["bell_stderr"] + 1e-5,
     "misses the prediction"),
    ("report", "bell_estimate", lambda v, r: -abs(v), "not above the classical bound"),
)


def _corrupted(command: workloads.Command, stdout: str):
    """Copies of ``stdout`` with one checked value (of one row) made wrong."""
    payload = json.loads(stdout)
    records = payload["rows"] if command.rows else [payload]
    for kind, field, make_wrong, reason in _CORRUPTIONS:
        if kind != command.argv[0]:
            continue
        for record in records:
            right = record[field]
            record[field] = make_wrong(right, record)
            yield field, json.dumps(payload), reason
            record[field] = right


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the full record to this file")
    parser.add_argument("--compare", nargs=2, metavar="RECORD")
    parser.add_argument("--self-check", action="store_true")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (SRC / "mkbell" / "cli.py").is_file():
        print(f"error: no mkbell package under {SRC}", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    record = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    report(record)
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
