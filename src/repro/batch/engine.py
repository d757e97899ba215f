"""Parallel batch synthesis: a process pool over :class:`BatchTask` grids.

The paper's framework is meant to be run in bulk -- spec sweeps, corner
grids, dataset generation -- and each task is embarrassingly parallel.
This engine fans a task list across a :class:`concurrent.futures.\
ProcessPoolExecutor` and streams results back as they complete:

* **Workers return plain JSON records, never live objects.**  A
  :class:`~repro.opamp.result.DesignedOpAmp` carries an ``emit``
  closure and cannot cross a process boundary; the canonical record
  (:meth:`~repro.opamp.result.DesignedOpAmp.to_record`) can, and is
  byte-identical however many workers produced it.
* **Determinism by construction.**  Tasks carry their grid ``index``;
  :func:`synthesize_many` re-sorts by it, so output order never
  depends on completion order and ``--jobs 1`` and ``--jobs 4`` write
  identical files (tests/test_golden_runs.py holds us to that).
* **Resilient.**  Workers run ``synthesize(best_effort=True)`` under
  the task's budget, so a pathological spec yields a failed *record*,
  not a dead run.  A crashed worker (the ``worker.crash`` fault site,
  or a real :class:`BrokenProcessPool`) is retried on a fresh pool; a
  task that keeps dying degrades to an error record.
* **Cached.**  With ``use_cache`` each worker memoizes whole task
  records (namespace ``synth``) and DC operating points (namespace
  ``op``) through :class:`~repro.cache.ResultCache`; a shared
  ``cache_dir`` lets workers and reruns reuse each other's work.
* **Observable.**  With ``observe`` each record carries the worker's
  metrics snapshot, and the parent folds every snapshot into the
  ambient tracer (:meth:`~repro.obs.metrics.MetricsRegistry.\
  merge_snapshot`), so one report covers the whole batch.
"""

from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from ..cache import ResultCache, cache_scope, content_key, process_key, spec_key
from ..kb.specs import OpAmpSpec
from ..obs.spans import current_tracer
from ..obs.log import get_logger
from ..obs.spans import count as metric_count
from ..obs.telemetry import TraceContext, activate_trace, current_trace_context
from ..process.parameters import ProcessParameters
from ..resilience import Budget
from ..resilience.faults import fault_point
from .grid import BatchTask, build_tasks

__all__ = [
    "BatchResult",
    "VOLATILE_KEYS",
    "run_batch",
    "synthesize_many",
    "default_jobs",
]

#: Record keys that legitimately differ between runs (timings, process
#: ids, cache status, metrics, random trace ids).
#: :meth:`BatchResult.canonical` strips them; everything else must be
#: byte-stable.
VOLATILE_KEYS: Tuple[str, ...] = (
    "wall_ms", "worker", "cache", "metrics", "attempts", "trace_id",
)

_log = get_logger("batch")


def default_jobs() -> int:
    """A sensible worker count: the CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
#: Per-process cache instances, keyed by (use_cache, cache_dir): one
#: ResultCache per worker process, shared across the tasks it runs.
_WORKER_CACHES: Dict[Tuple[bool, Optional[str]], Optional[ResultCache]] = {}


def _task_cache(task: BatchTask) -> Optional[ResultCache]:
    key = (task.use_cache, task.cache_dir)
    if key not in _WORKER_CACHES:
        _WORKER_CACHES[key] = (
            ResultCache(disk_dir=task.cache_dir) if task.use_cache else None
        )
    return _WORKER_CACHES[key]


def _sanitize(obj: Any) -> Any:
    """NaN/inf -> None, recursively: records must be strict JSON."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _sanitize(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(value) for value in obj]
    return obj


def _task_key(task: BatchTask) -> str:
    """Content address of everything that shapes a task's record."""
    return content_key(
        "batch_task",
        spec_key(task.spec),
        process_key(task.process),
        list(task.styles) if task.styles is not None else None,
        bool(task.verify),
        bool(task.precheck),
        bool(task.collect_trace),
    )


def _task_budget(task: BatchTask) -> Optional[Budget]:
    if (
        task.budget_wall_ms is None
        and task.budget_style_ms is None
        and task.budget_newton_iterations is None
    ):
        return None
    return Budget(
        wall_ms=task.budget_wall_ms,
        style_ms=task.budget_style_ms,
        newton_iterations=task.budget_newton_iterations,
        label=f"batch[{task.label}]",
    )


def _run_task(task: BatchTask) -> Dict[str, Any]:
    """Execute one task.  Module-level and self-contained: this is the
    function the process pool pickles by reference.

    When the task carries a ``traceparent``, a child
    :class:`~repro.obs.telemetry.TraceContext` is activated for the
    whole execution -- the worker's log lines and the returned record's
    ``trace_id`` correlate back to the originating request -- and the
    record is stamped with the trace id (a volatile key).

    Returns a plain-JSON record.  Raises only for infrastructure
    failures (the ``worker.crash`` fault site, a genuinely broken
    interpreter); synthesis failures of every kind are *contained* in
    the record (``ok: false`` plus failure reports).
    """
    parent = TraceContext.from_traceparent(task.traceparent)
    if parent is None:
        return _execute_task(task)
    with activate_trace(parent.child()) as ctx:
        record = _execute_task(task)
        record["trace_id"] = ctx.trace_id
        return record


def _execute_task(task: BatchTask) -> Dict[str, Any]:
    fault_point("worker.crash")
    started = time.perf_counter()
    cache = _task_cache(task)
    base = {
        "index": task.index,
        "label": task.label,
        "corner": task.corner,
        "process": task.process.name,
    }
    if cache is not None:
        key = _task_key(task)
        hit = cache.get("synth", key)
        if hit is not None:
            record = dict(hit)
            record.update(base)
            record["cache"] = "hit"
            record["wall_ms"] = (time.perf_counter() - started) * 1e3
            record["worker"] = os.getpid()
            _log.info(
                "batch.task_done",
                label=task.label,
                index=task.index,
                ok=bool(record.get("ok")),
                cache="hit",
                wall_ms=round(record["wall_ms"], 3),
            )
            return record

    # Lazy imports keep worker spin-up (and the grid-building parent)
    # from paying for the full designer stack before it is needed.
    from contextlib import ExitStack

    from ..obs.spans import Tracer
    from ..opamp.designer import synthesize

    # Observed tasks get their *own* tracer, shadowing any ambient one:
    # per-task metrics must not bleed into (or snapshot back out of)
    # the parent's registry, or inline runs would double-count when the
    # parent merges the snapshot.  Same isolation a pool worker gets
    # for free from the process boundary.
    tracer = Tracer() if task.observe else None
    with ExitStack() as stack:
        stack.enter_context(cache_scope(cache))
        if tracer is not None:
            stack.enter_context(tracer.activate())
        result = synthesize(
            task.spec,
            task.process,
            styles=task.styles,
            precheck=task.precheck,
            best_effort=True,
            budget=_task_budget(task),
            observe=task.observe,
        )
        record: Dict[str, Any] = dict(base)
        record["ok"] = result.ok
        record["style"] = result.best.style if result.best is not None else None
        record["feasible_styles"] = result.feasible_styles()
        record["design"] = (
            _sanitize(result.best.to_record()) if result.best is not None else None
        )
        record["failures"] = [
            {
                "kind": str(failure.kind),
                "message": failure.message,
                "style": failure.style,
                "recoverable": failure.recoverable,
            }
            for failure in result.failures
        ]
        record["measured"] = None
        if task.verify and result.best is not None:
            from ..opamp.verify import verify_opamp

            try:
                report = verify_opamp(result.best)
                record["measured"] = _sanitize(dict(sorted(report.measured.items())))
                record["verify_notes"] = dict(sorted(report.notes.items()))
            except Exception as exc:  # noqa: BLE001 - verification containment
                record["verify_error"] = f"{type(exc).__name__}: {exc}"
        if task.collect_trace:
            record["trace"] = result.trace.to_dicts()

    if cache is not None and record["ok"]:
        cache.put("synth", key, {k: v for k, v in record.items() if k not in base})
    if tracer is not None:
        # Snapshot *after* verification so its metrics ride along too.
        record["metrics"] = tracer.metrics.snapshot()
    record["cache"] = "miss" if cache is not None else "off"
    record["wall_ms"] = (time.perf_counter() - started) * 1e3
    record["worker"] = os.getpid()
    _log.info(
        "batch.task_done",
        label=task.label,
        index=task.index,
        ok=bool(record.get("ok")),
        cache=record["cache"],
        wall_ms=round(record["wall_ms"], 3),
    )
    return record


def _error_record(task: BatchTask, exc: BaseException, attempts: int) -> Dict[str, Any]:
    """A task that exhausted its retries still yields a record."""
    _log.error(
        "batch.task_failed",
        label=task.label,
        index=task.index,
        attempts=attempts,
        error=f"{type(exc).__name__}: {exc}",
    )
    record: Dict[str, Any] = {
        "index": task.index,
        "label": task.label,
        "corner": task.corner,
        "process": task.process.name,
        "ok": False,
        "style": None,
        "feasible_styles": [],
        "design": None,
        "measured": None,
        "failures": [
            {
                "kind": "worker",
                "message": f"{type(exc).__name__}: {exc}",
                "style": "",
                "recoverable": False,
            }
        ],
        "cache": "off",
        "wall_ms": 0.0,
        "worker": os.getpid(),
        "attempts": attempts,
    }
    parsed = TraceContext.from_traceparent(task.traceparent)
    if parsed is not None:
        record["trace_id"] = parsed.trace_id
    return record


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
@dataclass
class BatchResult:
    """One completed task: the grid coordinate plus its record.

    ``record`` is plain JSON (see :func:`_run_task`); ``attempts``
    counts executions including crash retries (1 on a clean run).
    """

    task: BatchTask
    record: Dict[str, Any]
    attempts: int = 1

    @property
    def index(self) -> int:
        return self.task.index

    @property
    def label(self) -> str:
        return self.task.label

    @property
    def ok(self) -> bool:
        return bool(self.record.get("ok"))

    def canonical(self) -> Dict[str, Any]:
        """The record minus volatile keys (timings, pids, cache
        status): what golden files and cross-``--jobs`` equivalence
        compare."""
        return {
            key: value
            for key, value in self.record.items()
            if key not in VOLATILE_KEYS
        }

    def canonical_json(self) -> str:
        return json.dumps(self.canonical(), sort_keys=True) + "\n"

    def to_json(self) -> str:
        """The full record as one JSONL line."""
        return json.dumps(self.record, sort_keys=True)


def _absorb(record: Dict[str, Any], attempts: int = 1) -> None:
    """Parent-side bookkeeping for one finished record: stamp the
    attempt count (workers can't know how often they were resubmitted),
    merge the worker's metrics snapshot into the ambient tracer and
    count it."""
    record["attempts"] = attempts
    tracer = current_tracer()
    if tracer is not None and record.get("metrics"):
        tracer.metrics.merge_snapshot(record["metrics"])
    metric_count("batch.tasks", status="ok" if record.get("ok") else "failed")


def run_batch(
    tasks: Sequence[BatchTask],
    jobs: int = 1,
    retries: int = 1,
) -> Iterator[BatchResult]:
    """Run a task list, yielding :class:`BatchResult` as tasks finish.

    Args:
        tasks: the grid (see :mod:`repro.batch.grid`).
        jobs: worker processes.  ``jobs <= 1`` runs inline in this
            process -- same worker function, no pool, no pickling --
            which is also what keeps ``--jobs 1`` byte-identical to
            ``--jobs N``.
        retries: how many times a task whose *worker* died (crash /
            broken pool, not a synthesis failure) is re-executed before
            it degrades to an error record.

    Yields results in **completion order**; sort by ``result.index``
    (or use :func:`synthesize_many`) for grid order.

    When a :class:`~repro.obs.telemetry.TraceContext` is ambient, every
    task that does not already carry a ``traceparent`` is stamped with
    a child of it, so worker-side records and log lines share the
    batch's trace id across the process boundary.
    """
    ambient = current_trace_context()
    if ambient is not None:
        tasks = [
            task
            if task.traceparent is not None
            else replace(task, traceparent=ambient.child().to_traceparent())
            for task in tasks
        ]
    if jobs <= 1:
        for task in tasks:
            attempts = 0
            while True:
                attempts += 1
                try:
                    record = _run_task(task)
                    break
                except Exception as exc:  # noqa: BLE001 - worker containment
                    if attempts > retries:
                        record = _error_record(task, exc, attempts)
                        break
                    metric_count("batch.retries")
            _absorb(record, attempts)
            yield BatchResult(task=task, record=record, attempts=attempts)
        return

    pending: Dict[Future, Tuple[BatchTask, int]] = {}
    executor = ProcessPoolExecutor(max_workers=jobs)

    def submit(task: BatchTask, attempts: int) -> None:
        pending[executor.submit(_run_task, task)] = (task, attempts)

    try:
        for task in tasks:
            submit(task, 1)
        while pending:
            done, _ = wait(list(pending), return_when=FIRST_COMPLETED)
            for future in done:
                task, attempts = pending.pop(future)
                try:
                    record = future.result()
                except BrokenProcessPool as exc:
                    # The pool is dead: every in-flight future fails.
                    # Re-arm on a fresh pool and retry the casualties.
                    executor.shutdown(wait=False, cancel_futures=True)
                    executor = ProcessPoolExecutor(max_workers=jobs)
                    casualties = [(task, attempts)] + list(pending.values())
                    pending.clear()
                    for hurt_task, hurt_attempts in casualties:
                        if hurt_attempts > retries:
                            record = _error_record(hurt_task, exc, hurt_attempts)
                            _absorb(record, hurt_attempts)
                            yield BatchResult(hurt_task, record, hurt_attempts)
                        else:
                            metric_count("batch.retries")
                            metric_count("batch.resubmitted")
                            submit(hurt_task, hurt_attempts + 1)
                    # The rest of `done` are poisoned futures from the
                    # dead pool -- their tasks are already among the
                    # resubmitted casualties, so touching them again
                    # would double-count (and KeyError on the cleared
                    # pending map).  Go back to wait() on the new pool.
                    break
                except Exception as exc:  # noqa: BLE001 - worker containment
                    if attempts > retries:
                        record = _error_record(task, exc, attempts)
                    else:
                        metric_count("batch.retries")
                        submit(task, attempts + 1)
                        continue
                _absorb(record, attempts)
                yield BatchResult(task=task, record=record, attempts=attempts)
    finally:
        executor.shutdown(wait=False, cancel_futures=True)


def synthesize_many(
    specs: Sequence[Union[OpAmpSpec, Tuple[str, OpAmpSpec]]],
    process: ProcessParameters,
    corners: Sequence[str] = ("typical",),
    jobs: int = 1,
    retries: int = 1,
    **options: Any,
) -> List[BatchResult]:
    """Batch-synthesize a list of specs; the library-level entry point.

    ``specs`` entries are :class:`~repro.kb.specs.OpAmpSpec` (labelled
    ``spec0``, ``spec1``...) or explicit ``(label, spec)`` pairs.
    ``options`` forward to :class:`BatchTask` (``verify=True``,
    ``use_cache=True``, budgets...).  Results come back **in grid
    order** regardless of ``jobs``, and each record's ``design`` equals
    what a direct ``synthesize(spec, process).best.to_record()`` would
    produce (tests/test_batch.py holds us to that).
    """
    labeled: List[Tuple[str, OpAmpSpec]] = []
    for position, entry in enumerate(specs):
        if isinstance(entry, OpAmpSpec):
            labeled.append((f"spec{position}", entry))
        else:
            label, spec = entry
            labeled.append((str(label), spec))
    tasks = build_tasks(labeled, process, corners=corners, **options)
    results = list(run_batch(tasks, jobs=jobs, retries=retries))
    results.sort(key=lambda result: result.index)
    return results
