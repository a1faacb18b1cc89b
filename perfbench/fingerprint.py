"""The environment a benchmark result was measured in."""

from __future__ import annotations

import ctypes
import os
import platform
import subprocess
from importlib import metadata
from pathlib import Path

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Fields that must match before two results may be compared.
COMPARABLE = ("backend", "blas_threads")


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def _output(argv, **kwargs) -> str:
    try:
        done = subprocess.run(argv, capture_output=True, text=True, timeout=30, **kwargs)
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return done.stdout if done.returncode == 0 else ""


def _blas() -> tuple[str | None, int | None]:
    """NumPy's BLAS library and the thread count it runs with."""
    import numpy

    config = numpy.show_config(mode="dicts")
    name = config.get("Build Dependencies", {}).get("blas", {}).get("name")
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        library = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(library, symbol):
                getter = getattr(library, symbol)
                getter.restype = ctypes.c_int
                return name, getter()
    return name, None


def _cpu() -> dict:
    fields = {"Model name": "cpu_model", "L1d cache": "l1d", "L2 cache": "l2",
              "L3 cache": "l3"}
    found = {"cpu_model": platform.processor() or None}
    for line in _output(["lscpu"]).splitlines():
        key, _, value = line.partition(":")
        if key.strip() in fields:
            found[fields[key.strip()]] = value.strip()
    return found


def fingerprint(root: Path, backend: str) -> dict:
    """Commit, backend, library versions, BLAS threading and CPU of this run."""
    commit = _output(["git", "-C", str(root), "rev-parse", "HEAD"],
                     env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent)))
    blas, blas_threads = _blas()
    return {
        "commit": commit.strip() or "unknown",
        "backend": backend,
        "MKBELL_PURE": os.environ.get("MKBELL_PURE"),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "blas": blas,
        "blas_threads": blas_threads,
        "blas_env": {key: os.environ[key] for key in BLAS_THREAD_VARIABLES if key in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
        **_cpu(),
    }


def mismatches(first: dict, second: dict) -> list[str]:
    """Fields that make two fingerprints incomparable."""
    return [f"{key}: {first.get(key)!r} vs {second.get(key)!r}"
            for key in COMPARABLE if first.get(key) != second.get(key)]
