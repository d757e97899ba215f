"""Bounded priority admission queue: backpressure as a first-class answer.

The service's failure-first rule for load is simple: **never buffer
without bound, never accept work we already know will be late.**  This
module enforces both at one choke point, so every other component can
assume any job it sees was worth starting:

* **Bounded depth.**  ``submit`` on a full queue raises
  :class:`~repro.errors.QueueOverflow` carrying a ``retry_after_ms``
  hint derived from the measured service-time EWMA -- a structured 429,
  computed in microseconds, instead of an unbounded heap growing until
  the OOM killer arbitrates;
* **Deadline admission.**  A job whose client deadline is provably
  inside the queue's own completion estimate is refused *at admission*
  (:class:`~repro.errors.AdmissionRejected`) -- rejecting in O(1) beats
  burning a worker to compute an answer nobody is waiting for.  Jobs
  that pass carry a started :class:`~repro.resilience.Budget` so the
  deadline keeps being enforced cooperatively during execution;
* **Priorities.**  Lower number dequeues first; FIFO within a
  priority level (a monotonic sequence breaks ties), so two equal
  submissions never reorder and replays stay deterministic;
* **Drain.**  :meth:`drain` flips the queue into reject-everything mode
  and fails every queued-but-unstarted job with a structured
  ``cancelled`` error, which the server streams back to the waiting
  clients -- a drained queue never strands a request without an answer.

The ``serve.queue_overflow`` fault site makes the full-queue path
deterministically testable without generating real overload.
"""

from __future__ import annotations

import asyncio
import heapq
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..errors import AdmissionRejected, QueueOverflow, ServeError
from ..resilience import Budget
from ..resilience.faults import fault_point

__all__ = ["AdmissionQueue", "QueuedJob"]

#: Fallback per-job service-time estimate before any job has finished.
_DEFAULT_SERVICE_MS = 25.0
#: EWMA smoothing for observed service times.
_EWMA_ALPHA = 0.2
#: Floor for retry-after hints: retrying sooner than this is futile.
_MIN_RETRY_AFTER_MS = 10.0


@dataclass(order=True)
class _HeapEntry:
    priority: int
    seq: int
    job: "QueuedJob" = field(compare=False)


@dataclass
class QueuedJob:
    """One admitted unit of work waiting for (or holding) a worker.

    ``future`` resolves to the job's plain-JSON record, or fails with a
    :class:`~repro.errors.ServeError` when the service abandons it
    (drain cancellation, deadline expiry in queue).  ``budget`` is the
    admission-time deadline budget, already started, so execution-side
    checks measure from arrival, not dispatch.
    """

    kind: str
    payload: Any
    request_id: str
    future: "asyncio.Future[Dict[str, Any]]"
    priority: int = 10
    deadline_ms: Optional[float] = None
    budget: Optional[Budget] = None
    #: ``time.perf_counter()`` at admission; the dispatch side subtracts
    #: it to observe the queue-wait latency histogram.
    admitted_at: float = 0.0

    def fail(self, exc: ServeError) -> None:
        if not self.future.done():
            self.future.set_exception(exc)

    def finish(self, record: Dict[str, Any]) -> None:
        if not self.future.done():
            self.future.set_result(record)


class AdmissionQueue:
    """The bounded priority queue gating every job the service runs.

    Single-event-loop discipline: every method is called from the
    server's loop, so plain attributes need no locking; waiting is an
    :class:`asyncio.Event` that :meth:`get` parks on.
    """

    def __init__(self, max_depth: int, workers: int):
        if max_depth <= 0:
            raise ValueError("max_depth must be positive")
        self.max_depth = max_depth
        self.workers = max(1, workers)
        self._heap: List[_HeapEntry] = []
        self._seq = 0
        self._service_ms = _DEFAULT_SERVICE_MS
        self._draining = False
        self._available = asyncio.Event()

    # ------------------------------------------------------------------
    # State
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._heap)

    @property
    def depth(self) -> int:
        return len(self._heap)

    @property
    def draining(self) -> bool:
        return self._draining

    def observe_service_ms(self, elapsed_ms: float) -> None:
        """Fold one finished job's wall time into the EWMA."""
        if elapsed_ms >= 0:
            self._service_ms += _EWMA_ALPHA * (elapsed_ms - self._service_ms)

    def estimate_ms(self, jobs_ahead: Optional[int] = None) -> float:
        """Estimated wait-plus-service for a job admitted now."""
        ahead = self.depth if jobs_ahead is None else jobs_ahead
        waves = ahead / self.workers
        return self._service_ms * (waves + 1.0)

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def admit(
        self,
        kind: str,
        payload: Any,
        request_id: str,
        priority: int = 10,
        deadline_ms: Optional[float] = None,
        jobs_in_request: int = 1,
        jobs_ahead_in_request: int = 0,
    ) -> QueuedJob:
        """Admit one job or raise a structured refusal.

        ``jobs_in_request`` / ``jobs_ahead_in_request`` let a multi-job
        request (a batch grid) be admitted atomically: the depth check
        covers the whole grid so a half-admitted batch can never wedge
        the queue, and the deadline estimate accounts for the caller's
        own earlier jobs.
        """
        if self._draining:
            raise ServeError(
                "server is draining; no new work is being admitted",
                code="draining",
            )
        if fault_point("serve.queue_overflow") is not None:
            # Value-kind chaos fault: behave exactly as if full.
            raise self._overflow(jobs_in_request)
        if self.depth + jobs_in_request - jobs_ahead_in_request > self.max_depth:
            raise self._overflow(jobs_in_request)
        budget: Optional[Budget] = None
        if deadline_ms is not None:
            estimated = self.estimate_ms(
                self.depth + jobs_ahead_in_request
            )
            if deadline_ms < estimated:
                raise AdmissionRejected(
                    f"deadline of {deadline_ms:g} ms cannot be met: "
                    f"estimated completion {estimated:.1f} ms "
                    f"({self.depth} queued, {self.workers} worker(s), "
                    f"~{self._service_ms:.1f} ms/job)",
                    deadline_ms=deadline_ms,
                    estimated_ms=round(estimated, 3),
                    retry_after_ms=self._retry_after(1),
                )
            budget = Budget(
                wall_ms=deadline_ms, label=f"serve[{request_id}]"
            ).start()
        job = QueuedJob(
            kind=kind,
            payload=payload,
            request_id=request_id,
            future=asyncio.get_running_loop().create_future(),
            priority=priority,
            deadline_ms=deadline_ms,
            budget=budget,
            admitted_at=time.perf_counter(),
        )
        self._seq += 1
        heapq.heappush(self._heap, _HeapEntry(priority, self._seq, job))
        self._available.set()
        return job

    def _retry_after(self, excess: int) -> float:
        return max(
            _MIN_RETRY_AFTER_MS,
            self._service_ms * max(1, excess) / self.workers,
        )

    def _overflow(self, jobs_in_request: int) -> QueueOverflow:
        excess = self.depth + jobs_in_request - self.max_depth
        return QueueOverflow(
            f"queue at capacity ({self.depth}/{self.max_depth} deep, "
            f"{jobs_in_request} job(s) requested); retry later",
            depth=self.depth,
            max_depth=self.max_depth,
            retry_after_ms=round(self._retry_after(excess), 3),
        )

    # ------------------------------------------------------------------
    # Dispatch side
    # ------------------------------------------------------------------
    async def get(self) -> QueuedJob:
        """The next job in (priority, arrival) order; waits when empty.

        Jobs whose own deadline expired while queued are failed here
        with a structured ``deadline_expired`` error and skipped --
        admission control's second half: a worker is never dispatched
        for an answer that is already late.
        """
        while True:
            while not self._heap:
                self._available.clear()
                await self._available.wait()
            job = heapq.heappop(self._heap).job
            if job.future.done():
                continue  # cancelled (drain) while queued
            if job.budget is not None and job.budget.exhausted():
                job.fail(
                    ServeError(
                        f"deadline of {job.deadline_ms:g} ms expired after "
                        f"{job.budget.elapsed_ms():.1f} ms in queue",
                        code="deadline_expired",
                    )
                )
                continue
            return job

    # ------------------------------------------------------------------
    # Drain
    # ------------------------------------------------------------------
    def drain(self) -> int:
        """Reject new work and cancel everything still queued.

        Returns the number of jobs cancelled.  In-flight jobs (already
        handed to a worker by :meth:`get`) are untouched: finishing
        them is the drain loop's business, not the queue's.
        """
        self._draining = True
        cancelled = 0
        for entry in self._heap:
            if not entry.job.future.done():
                entry.job.fail(
                    ServeError(
                        "server draining: request was cancelled before a "
                        "worker picked it up",
                        code="cancelled",
                    )
                )
                cancelled += 1
        self._heap.clear()
        self._available.set()
        return cancelled

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        return {
            "depth": self.depth,
            "max_depth": self.max_depth,
            "draining": self._draining,
            "service_ms_ewma": round(self._service_ms, 3),
        }
