"""Run the benchmark over several seeds and report how steady each metric is.

    python3 perfbench/stability.py --seeds 10 --baseline perfbench/baseline.json
    python3 perfbench/stability.py --seeds 10 --against perfbench/baseline.json

For every workload it runs ``run.py --trace 0`` once per seed and prints, for
each end-to-end metric, the median, the quartiles (``statistics.quantiles``
with n=4) and their distance as a share of the median, next to the metric's
bound from ``BENCHMARK.json``. The rule, for every metric including
``setup_s``: a spread under a third of the bound is steady; a spread within
the bound is accepted but noted; a larger one is unsteady. With ``--against``
a median that is worse than the earlier summary's by more than the bound is
unsteady too. Two traced runs per workload check that the exact per-layer
counts repeat across processes. The last line names every (workload, metric)
that is not steady, and the exit code is 1 if there is one.

``--baseline FILE`` writes the medians, quartiles and fingerprint there.
Records of the single runs are kept under ``.perfbench-runs/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench-runs"
TRACE_SEEDS = 2


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = RUNS / f"{workload}-seed{seed}-trace{trace}.json"
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), "--out", str(out)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} failed:\n{done.stderr}")
    return json.loads(out.read_text())


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def drift(now: float, before: float, better: str) -> float:
    """How much worse ``now`` is than ``before``, as a share of ``before``."""
    worse = now - before if better == "lower" else before - now
    return worse / before if before else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--baseline", help="write the summary to this file")
    parser.add_argument("--against", help="compare the medians with this summary")
    args = parser.parse_args()
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    earlier = json.loads(Path(args.against).read_text())["workloads"] if args.against else {}
    RUNS.mkdir(exist_ok=True)
    seeds = range(1, args.seeds + 1)
    summary, unsteady = {"workloads": {}}, []
    for workload in workloads.WORKLOADS:
        records = [run(workload, seed, declared["run_seconds"], 0) for seed in seeds]
        failed = sum(r["failed"] for r in records)
        if failed:
            unsteady.append(f"{workload} ({failed} failed operations)")
        entry = {"failed": failed, "end_to_end": {}, "per_layer": {}}
        for metric in declared["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            stats = spread([r["metrics"][name]["value"] for r in records])
            entry["end_to_end"][name] = stats
            verdict = ("steady" if stats["spread"] < bound / 3
                       else "within bound" if stats["spread"] <= bound else "UNSTEADY")
            compared = ""
            if workload in earlier:
                worse = drift(stats["median"], earlier[workload]["end_to_end"][name]["median"],
                              metric["better"])
                compared = f" worse than earlier by {worse:+7.2%}"
                if worse > bound:
                    verdict = "UNSTEADY"
            if verdict != "steady":
                unsteady.append(f"{workload} {name} ({verdict})")
            print(f"{workload:18} {name:12} median {stats['median']:10.5g} "
                  f"IQR/median {stats['spread']:7.2%} bound {bound:5.0%} {verdict:12}{compared}")
        traced = [run(workload, seed, declared["run_seconds"], 1) for seed in seeds[:TRACE_SEEDS]]
        for name in tracing.UNITS:
            values = [r["metrics"][name]["value"] for r in traced]
            entry["per_layer"][name] = statistics.median(values)
            if name in tracing.EXACT_COUNTS and len(set(values)) > 1:
                unsteady.append(f"{workload} {name} (drifted across processes: {values})")
        summary["workloads"][workload] = entry
        summary["fingerprint"] = records[0]["fingerprint"]
    if args.baseline:
        Path(args.baseline).write_text(json.dumps(summary, indent=1) + "\n")
    print("steady" if not unsteady else "NOT steady: " + "; ".join(unsteady))
    return 1 if unsteady else 0


if __name__ == "__main__":
    sys.exit(main())
