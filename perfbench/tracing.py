"""Spans around the public entry points of mkbell's layers.

``Trace`` wraps each hooked function for the duration of a ``with`` block,
records one span per call, and restores the originals on exit. A function is
replaced under every name any loaded ``mkbell`` module binds it to (e.g.
``quantum.global_operator`` and ``cli.global_operator`` as well as
``operators.global_operator``), so calls through an alias are traced too. A
hook whose function no longer exists is reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from dataclasses import dataclass, field


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _matvec(args, kwargs, result):
    return {"amps": int(_arg(args, kwargs, 1, "v").size)}


def _eigensolve(args, kwargs, result):
    scenario = _arg(args, kwargs, 0, "scenario")
    return {"scenario": (scenario.n, str(scenario.spin)),
            "iterations": int(getattr(result, "iterations", 0))}


def _dense(args, kwargs, result):
    dimension = _arg(args, kwargs, 0, "scenario").global_dimension()
    return {"bytes": dimension * dimension * 8}


def _classical(args, kwargs, result):
    n = _arg(args, kwargs, 0, "scenario").n
    strategies = int(result.strategies_checked)
    return {"strategies": strategies, "bytes": strategies * 2 * n * 8}


def _sample(args, kwargs, result):
    return {"shots": int(_arg(args, kwargs, 1, "shots"))}


def _nothing(args, kwargs, result):
    return {}


#: (span name, module, qualified name, attributes taken from a call).
HOOKS = (
    ("kernels.matvec", "mkbell.operators", "GlobalOperator.apply", _matvec),
    ("quantum.eigensolve", "mkbell.quantum", "largest_eigenpair", _eigensolve),
    ("quantum.spectrum", "mkbell.quantum", "dense_spectrum", _nothing),
    ("operators.build", "mkbell.operators", "global_operator", _nothing),
    ("operators.dense", "mkbell.operators", "assemble_dense", _dense),
    ("expansion", "mkbell.expansion", "expand_terms", _nothing),
    ("classical.certify", "mkbell.classical", "classical_max", _classical),
    ("measurement.distribution", "mkbell.measurement", "joint_distribution", _nothing),
    ("measurement.sample", "mkbell.measurement", "sample_outcomes", _sample),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    child_s: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Trace:
    """Spans recorded while the hooks are installed, kept in memory."""

    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def __enter__(self):
        for name, module_name, qualname, describe in self.hooks:
            try:
                owner = importlib.import_module(module_name)
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module_name}.{qualname}")
                continue
            wrapper = self._wrap(name, original, describe)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for module_key, module in list(sys.modules.items()):
                if module_key.split(".")[0] != "mkbell":
                    continue
                for alias, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, alias, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        return False

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, function, describe):
        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, time.perf_counter(), 0.0,
                        self._open[-1] if self._open else None)
            self.spans.append(span)
            self._open.append(index)
            try:
                result = function(*args, **kwargs)
                span.attrs = describe(args, kwargs, result)
                return result
            finally:
                span.end = time.perf_counter()
                self._open.pop()
                if span.parent is not None:
                    self.spans[span.parent].child_s += span.end - span.start
        return traced

    def named(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]


#: Per-layer metric units. Every ``*.s`` time is self time: the span minus
#: the spans of other hooked layers it called, so the layers' times and
#: ``cli.self_s`` add up to the traced wall time.
UNITS = {
    "kernels.matvecs": "count",
    "kernels.matvec.s": "s",
    "kernels.matvec.p50_ms": "ms",
    "kernels.matvec.p90_ms": "ms",
    "kernels.amps_per_s": "1/s",
    "quantum.eigensolves": "count",
    "quantum.iterations": "count",
    "quantum.eigensolve.self_s": "s",
    "quantum.eigensolve_reuse": "ratio",
    "quantum.spectrum.calls": "count",
    "quantum.spectrum.self_s": "s",
    "operators.build.calls": "count",
    "operators.build.s": "s",
    "operators.dense.calls": "count",
    "operators.dense.s": "s",
    "operators.dense.bytes": "B",
    "expansion.calls": "count",
    "expansion.s": "s",
    "classical.strategies": "count",
    "classical.certify.s": "s",
    "classical.strategies_per_s": "1/s",
    "classical.table_bytes": "B",
    "measurement.contexts": "count",
    "measurement.distribution.s": "s",
    "measurement.sample.s": "s",
    "measurement.shots": "count",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}

#: Counts the program makes deterministically; they must repeat exactly.
EXACT_COUNTS = ("kernels.matvecs", "quantum.iterations", "classical.strategies",
                "measurement.contexts")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def call_overhead_s() -> float:
    """Seconds one traced call adds to the call it wraps.

    Times a no-op bare and through a ``Trace`` wrapper, in this process, and
    returns the median difference per call over five batches of calls.
    """
    def noop():
        return None

    calls = 10000
    wrapped = Trace(hooks=())._wrap("noop", noop, _nothing)
    differences = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(calls):
            noop()
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        differences.append((time.perf_counter() - start - bare) / calls)
    return statistics.median(differences)


def layer_metrics(trace: Trace, wall_s: float, call_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run whose wall time was ``wall_s``.

    ``call_s`` is the cost of one traced call (``call_overhead_s``), so
    ``trace.overhead_s`` is the time the spans added to this run. The
    ``*.bytes`` metrics are the largest single table, as they bound peak
    memory.
    """
    def total(name, key=None):
        spans = trace.named(name)
        return sum(span.attrs.get(key, 0) if key else span.self_s for span in spans)

    matvec_ms = [span.self_s * 1e3 for span in trace.named("kernels.matvec")]
    deciles = statistics.quantiles(matvec_ms, n=10) if len(matvec_ms) > 1 else matvec_ms * 9
    solves = trace.named("quantum.eigensolve")
    classical = trace.named("classical.certify")
    return {
        "kernels.matvecs": len(matvec_ms),
        "kernels.matvec.s": total("kernels.matvec"),
        "kernels.matvec.p50_ms": statistics.median(matvec_ms) if matvec_ms else 0.0,
        "kernels.matvec.p90_ms": deciles[8] if deciles else 0.0,
        "kernels.amps_per_s": _ratio(total("kernels.matvec", "amps"),
                                     total("kernels.matvec")),
        "quantum.eigensolves": len(solves),
        "quantum.iterations": total("quantum.eigensolve", "iterations"),
        "quantum.eigensolve.self_s": total("quantum.eigensolve"),
        "quantum.eigensolve_reuse": _ratio(
            len({span.attrs.get("scenario") for span in solves}), len(solves)),
        "quantum.spectrum.calls": len(trace.named("quantum.spectrum")),
        "quantum.spectrum.self_s": total("quantum.spectrum"),
        "operators.build.calls": len(trace.named("operators.build")),
        "operators.build.s": total("operators.build"),
        "operators.dense.calls": len(trace.named("operators.dense")),
        "operators.dense.s": total("operators.dense"),
        "operators.dense.bytes": max(
            (span.attrs.get("bytes", 0) for span in trace.named("operators.dense")), default=0),
        "expansion.calls": len(trace.named("expansion")),
        "expansion.s": total("expansion"),
        "classical.strategies": total("classical.certify", "strategies"),
        "classical.certify.s": total("classical.certify"),
        "classical.strategies_per_s": _ratio(total("classical.certify", "strategies"),
                                             total("classical.certify")),
        "classical.table_bytes": max((span.attrs.get("bytes", 0) for span in classical),
                                     default=0),
        "measurement.contexts": len(trace.named("measurement.distribution")),
        "measurement.distribution.s": total("measurement.distribution"),
        "measurement.sample.s": total("measurement.sample"),
        "measurement.shots": total("measurement.sample", "shots"),
        "cli.self_s": wall_s - sum(span.self_s for span in trace.spans),
        "trace.overhead_s": len(trace.spans) * call_s,
    }
