"""``python -m bench``: run the benchmark from the repository root.

    python -m bench [--workload NAME] [--seed N] [--seconds S]
                    [--trace [0|1]] [--out FILE]

Without ``--workload`` every workload runs in turn, each in a fresh
``python -m bench --workload NAME`` process, so no workload's memory
high-water mark or loaded modules carry over into the next.  For each
one the result file (default ``bench/results/<workload>-s<seed>[-trace].json``)
records the environment, samples, failures and metrics, and standard
output gets one JSON line: ``correct``, ``attempted``, ``failed`` and
the metrics by name and unit -- the end-to-end metrics of
``BENCHMARK.json``, or with ``--trace`` its per-layer metrics.  A
traced run also writes its spans and per-operation counters, held in
memory until the end, to a ``.trace.jsonl`` file beside the result.

``--seconds`` defaults to ``run_seconds`` of ``BENCHMARK.json``, the
length the benchmark's command is given; the result file records it,
and ``bench.compare`` refuses to compare runs of different lengths.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from .common import (
    RESULTS,
    ROOT,
    SourceTreeMissing,
    load_benchmark,
    require_source_tree,
    use_source_tree,
)


def _parse(argv: List[str], benchmark: Dict[str, Any]) -> argparse.Namespace:
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names, help="default: all, each in its own process")
    parser.add_argument("--seed", type=int, default=11)
    parser.add_argument(
        "--seconds", type=float, default=float(benchmark["run_seconds"]),
        help="measured time per run (default: run_seconds of BENCHMARK.json)",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="report the per-layer metrics instead of the end-to-end ones",
    )
    parser.add_argument("--out", type=Path, help="result file (one workload only)")
    args = parser.parse_args(argv)
    if args.out is not None and args.workload is None:
        parser.error("--out needs --workload")
    return args


def _line(result: Dict[str, Any], declared: List[Dict[str, Any]]) -> str:
    units = {m["name"]: m["unit"] for m in declared}
    metrics = {
        name: {"value": result["metrics"][name], "unit": units[name]} for name in units
    }
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


def _write(result: Dict[str, Any], out: Path) -> None:
    out.parent.mkdir(parents=True, exist_ok=True)
    lines = result.pop("trace_lines", None)
    out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    if lines is not None:
        with open(out.with_suffix(".trace.jsonl"), "w", encoding="utf-8") as handle:
            for line in lines:
                handle.write(json.dumps(line, sort_keys=True) + "\n")


def _each_in_own_process(names: List[str], argv: List[str]) -> int:
    """Run every workload as ``python -m bench --workload NAME ARGV``."""
    status = 0
    for name in names:
        proc = subprocess.run(
            [sys.executable, "-m", "bench", "--workload", name, *argv], cwd=ROOT
        )
        status = status or proc.returncode
    return status


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        require_source_tree()
        benchmark = load_benchmark()
    except (SourceTreeMissing, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    args = _parse(argv, benchmark)
    if args.workload is None:
        return _each_in_own_process([w["name"] for w in benchmark["workloads"]], argv)
    use_source_tree()
    from .runner import run

    declared = benchmark["per_layer"] if args.trace else benchmark["end_to_end"]
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    suffix = "-trace" if args.trace else ""
    out = args.out or RESULTS / f"{args.workload}-s{args.seed}{suffix}.json"
    line = _line(result, declared)
    _write(result, out)
    for failure in result["failures"][:5]:
        print(f"bench: {args.workload}: {failure}", file=sys.stderr)
    print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
