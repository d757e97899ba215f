"""Paths, the program's environment, statistics and run metadata."""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from typing import Any, Dict, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
#: Result files, and subprocess output that must outlive a pipe.
RESULTS = ROOT / "bench" / "results"

#: What a run needs from the source tree besides this directory: the
#: package itself, the golden records the oracle compares against, and
#: the decks the ``cli`` workload lints.
REQUIRED = ("src/repro/__init__.py", "tests/golden", "tests/fixtures")


class SourceTreeMissing(RuntimeError):
    """The benchmark was started outside a checkout of the repository."""


def require_source_tree() -> None:
    missing = [p for p in REQUIRED if not (ROOT / p).exists()]
    if missing:
        raise SourceTreeMissing(
            f"no source tree under {ROOT}: missing {', '.join(missing)}"
        )


def use_source_tree() -> None:
    """Make ``import repro`` load ``src/`` and drop ``REPRO_*`` settings,
    so the in-process workloads run the shipped defaults."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]


def program_env() -> Dict[str, str]:
    """Environment for program subprocesses: the source tree on the
    path and no ``REPRO_*`` settings (logging, faults, caches)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return env


def load_benchmark() -> Dict[str, Any]:
    with open(BENCHMARK_JSON, encoding="utf-8") as handle:
        data: Dict[str, Any] = json.load(handle)
    return data


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    if not values:
        return math.nan
    ordered = sorted(values)
    rank = pct / 100.0 * (len(ordered) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for
    descendant (``ru_maxrss`` is in KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def parse_importtime(stderr: str, after: str = "") -> Dict[str, float]:
    """Total import time, module count and scipy's share from the
    ``-X importtime`` lines of ``stderr`` (those after the ``after``
    marker line, when one is given)."""
    if after:
        _, found, stderr = stderr.partition(after)
        if not found:
            return {"import_ms": 0.0, "modules": 0.0, "scipy_share": 0.0}
    total_us = scipy_us = 0
    modules = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the column header
        self_us = int(fields[0])
        modules += 1
        total_us += self_us
        if fields[2].strip().split(".")[0] == "scipy":
            scipy_us += self_us
    return {
        "import_ms": total_us / 1e3,
        "modules": float(modules),
        "scipy_share": scipy_us / total_us if total_us else 0.0,
    }


# ----------------------------------------------------------------------
# Run metadata
# ----------------------------------------------------------------------
def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "missing"


def run_metadata(seed: int) -> Dict[str, Any]:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        nproc = os.cpu_count() or 1
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": nproc,
        "seed": seed,
    }


def counter_total(counters: Dict[str, float], name: str) -> float:
    """Sum of every labelled series of counter ``name``."""
    prefix = name + "{"
    return float(
        sum(v for k, v in counters.items() if k == name or k.startswith(prefix))
    )


def add_counters(into: Dict[str, float], counters: Dict[str, float]) -> None:
    for key, value in counters.items():
        into[key] = into.get(key, 0.0) + float(value)
