"""One benchmark run of one workload: set-up, timed loop, metrics."""

from __future__ import annotations

import time
import traceback
from typing import Any, Dict, List

from .common import median, peak_rss_mb, percentile, run_metadata
from .workloads import SETUP_STARTS, TYPES, Mismatch, Workload


def measure(workload: Workload, seconds: float, traced: bool) -> Dict[str, Any]:
    """Run whole rounds of operations until ``seconds`` would be
    exceeded."""
    op_ms: List[float] = []
    failures: List[str] = []
    attempted = 0
    workload.start(traced)
    try:
        started = time.perf_counter()
        done = 0
        for batch in workload.rounds():
            elapsed = time.perf_counter() - started
            # Whole rounds only, so every run sees the same input mix;
            # stop before the round that would overrun.
            if done and elapsed + elapsed / done > seconds:
                break
            for item in batch:
                attempted += 1
                try:
                    op_ms.append(workload.run_op(item))
                except Mismatch as exc:
                    failures.append(str(exc))
                except Exception:  # noqa: BLE001 - a crashed operation is a failure
                    failures.append(traceback.format_exc(limit=3))
            done += 1
    finally:
        try:
            workload.stop()
        except Mismatch as exc:
            failures.append(str(exc))
    rss = peak_rss_mb()
    failures.extend(workload.check())
    return {"op_ms": op_ms, "attempted": attempted, "failures": failures, "rss": rss}


def end_to_end(
    workload: Workload, op_ms: List[float], rss: float, setup: List[float]
) -> Dict[str, float]:
    """The end-to-end metrics of ``BENCHMARK.json``."""
    return {
        "op_ms.p50": percentile(op_ms, 50.0),
        "op_ms.tail": percentile(op_ms, workload.tail_pct),
        "ops_per_s": len(op_ms) / (sum(op_ms) / 1e3) if op_ms else 0.0,
        "peak_rss_mb": rss,
        "setup_s": median(setup),
    }


def per_layer(
    workload: Workload, plain_ms: List[float], traced_ms: List[float]
) -> Dict[str, float]:
    """The per-layer metrics of ``BENCHMARK.json``: what the workload's
    traced operations saw, and the tracing overhead on their median."""
    metrics = workload.tally.metrics()
    base, seen = median(plain_ms), median(traced_ms)
    metrics["trace.overhead_pct"] = (seen / base - 1.0) * 100.0 if base else 0.0
    return metrics


def run(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, Any]:
    """Everything one ``--workload`` run reports (the result file).

    Untraced, the end-to-end metrics; traced, the per-layer metrics:
    half the time untraced and half traced, so ``trace.overhead_pct``
    compares the two within one run.
    """
    workload = TYPES[name](seed)
    result: Dict[str, Any] = {
        "workload": name,
        "seconds": seconds,
        "trace": int(trace),
        "env": run_metadata(seed),
    }
    failures: List[str] = []
    attempted = 0
    if not trace:
        setup = []
        for _ in range(SETUP_STARTS):
            attempted += 1
            try:
                setup.append(workload.cold_start())
            except Mismatch as exc:
                failures.append(str(exc))
        timed = measure(workload, seconds, traced=False)
        metrics = end_to_end(workload, timed["op_ms"], timed["rss"], setup)
        result["samples"] = {"ops": len(timed["op_ms"]), "setup": len(setup)}
        result["tail_pct"] = workload.tail_pct
        runs = [timed]
    else:
        plain = measure(workload, seconds / 2, traced=False)
        traced = measure(workload, seconds / 2, traced=True)
        metrics = per_layer(workload, plain["op_ms"], traced["op_ms"])
        result["samples"] = {"ops": len(plain["op_ms"]), "traced_ops": len(traced["op_ms"])}
        result["trace_lines"] = workload.tally.lines
        runs = [plain, traced]
    for part in runs:
        attempted += part["attempted"]
        failures.extend(part["failures"])
    result.update(
        attempted=attempted,
        failed=min(len(failures), attempted),
        failures=failures,
        error_ratio=min(len(failures), attempted) / attempted if attempted else 1.0,
        metrics=metrics,
    )
    return result
