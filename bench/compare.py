"""Compare two sets of untraced result files, metric by metric.

    python -m bench.compare BASE_DIR NEW_DIR

Each directory holds result files of ``python -m bench`` runs (traced
results are ignored).  Every (end-to-end metric, workload) pair is
classified against the bound ``BENCHMARK.json`` fixes for the metric:

* ``unresolved`` -- a side's run-to-run spread (interquartile range
  over median) exceeds the bound, unless every new run reads better
  than every base run;
* ``worse`` -- the new median is worse than the base median by more
  than the bound;
* ``better`` -- at least 10 pairs of runs (paired by seed), the new
  side wins at least 9 in 10 of them (ties count for neither), and the
  medians differ by more than the base runs' interquartile range;
* ``unchanged`` -- anything else.

One row per workload.  Exit status 1 when any pair is worse or
unresolved, and 2 when the runs differ in length (``--seconds``):
such runs are not compared.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple

from .common import load_benchmark

MIN_PAIRS = 10
WIN_SHARE = 0.9

Runs = Dict[str, List[Dict[str, Any]]]


def load_runs(directory: Path) -> Runs:
    runs: Runs = {}
    for path in sorted(directory.glob("*.json")):
        result = json.loads(path.read_text(encoding="utf-8"))
        if result.get("trace") == 0:
            runs.setdefault(result["workload"], []).append(result)
    return runs


def run_lengths(*sides: Runs) -> List[float]:
    """The distinct ``--seconds`` of every run on every side."""
    return sorted({run["seconds"] for side in sides for runs in side.values() for run in runs})


def _quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _pairs(base: List[Dict[str, Any]], new: List[Dict[str, Any]], metric: str) -> List[Tuple[float, float]]:
    """Runs paired by seed (runs of one seed in file order)."""
    def by_seed(runs: List[Dict[str, Any]]) -> Dict[int, List[float]]:
        out: Dict[int, List[float]] = {}
        for run in runs:
            out.setdefault(run["env"]["seed"], []).append(run["metrics"][metric])
        return out

    b, n = by_seed(base), by_seed(new)
    return [pair for seed in sorted(set(b) & set(n)) for pair in zip(b[seed], n[seed])]


def classify(
    base: List[Dict[str, Any]], new: List[Dict[str, Any]], metric: Dict[str, Any]
) -> Tuple[str, float]:
    """The verdict and the relative change of the median (positive =
    better) for one metric on one workload."""
    name, bound = metric["name"], metric["bound"]
    sign = -1.0 if metric["better"] == "lower" else 1.0
    b = [run["metrics"][name] for run in base]
    n = [run["metrics"][name] for run in new]
    b1, b_med, b3 = _quartiles(b)
    n1, n_med, n3 = _quartiles(n)
    change = sign * (n_med - b_med) / abs(b_med) if b_med else 0.0
    noisy = (b3 - b1) / abs(b_med) > bound if b_med else True
    noisy = noisy or ((n3 - n1) / abs(n_med) > bound if n_med else True)
    if noisy and not all(sign * x > sign * y for x in n for y in b):
        return "unresolved", change
    if change < -bound:
        return "worse", change
    pairs = _pairs(base, new, name)
    wins = sum(1 for x, y in pairs if sign * y > sign * x)
    if (
        len(pairs) >= MIN_PAIRS
        and wins >= WIN_SHARE * len(pairs)
        and change > 0
        and abs(n_med - b_med) > b3 - b1
    ):
        return "better", change
    return "unchanged", change


def compare(base: Runs, new: Runs, metrics: List[Dict[str, Any]]) -> Dict[str, Dict[str, Tuple[str, float]]]:
    return {
        workload: {m["name"]: classify(base[workload], new[workload], m) for m in metrics}
        for workload in sorted(set(base) & set(new))
    }


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (load_runs(Path(arg)) for arg in argv)
    lengths = run_lengths(base, new)
    if len(lengths) > 1:
        print(f"runs of different lengths ({lengths} s) are not compared", file=sys.stderr)
        return 2
    metrics = load_benchmark()["end_to_end"]
    verdicts = compare(base, new, metrics)
    if not verdicts:
        print("no workload has untraced results on both sides", file=sys.stderr)
        return 2
    failing = False
    for workload, row in verdicts.items():
        cells = []
        for name, (verdict, change) in row.items():
            failing = failing or verdict in ("worse", "unresolved")
            cells.append(f"{name}={verdict}({change * 100:+.1f}%)")
        runs = f"{len(base[workload])}/{len(new[workload])} runs"
        print(f"{workload:<7} {runs:<10} " + "  ".join(cells))
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
