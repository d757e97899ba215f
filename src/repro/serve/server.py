"""The synthesis service: an asyncio HTTP/JSON front end engineered
for failure first.

:class:`ReproServer` glues the serve package together around one event
loop:

* connections are parsed by :mod:`repro.serve.protocol` (one request
  per connection, bounded input, structured 4xx for anything
  malformed);
* work is admitted through the bounded
  :class:`~repro.serve.queue.AdmissionQueue` (structured 429 on
  overflow or an unmeetable deadline, *before* a worker is burned);
* per-worker dispatch loops hand jobs to the
  :class:`~repro.serve.supervisor.WorkerSupervisor`, which contains
  worker death and stalls and rebuilds the pool underneath the
  service;
* ``/healthz`` answers for as long as the process lives -- including
  during drain -- while ``/readyz`` degrades honestly (503 while
  draining or while the pool is being rebuilt);
* ``/metrics`` dumps the shared
  :class:`~repro.obs.metrics.MetricsRegistry`, extended with the
  service gauges (queue depth, in-flight, admission rejections, drain
  progress) and with per-job worker metrics merged in;
* SIGTERM/SIGINT trigger :meth:`ReproServer.drain`: stop admitting,
  cancel everything still queued with a structured ``cancelled`` error,
  finish in-flight work against the drain deadline, then exit 0.

The failure contract end to end: **every admitted request gets exactly
one answer** -- a result record, or a structured error explaining which
part of the service gave up and when to retry.  The only request that
gets no answer is one whose client hung up first
(``serve.client_disconnect`` makes that path testable), and that
casualty is contained to its own connection.

:class:`ServerHandle` hosts the same server on a background thread for
tests, examples, and benchmarks.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
import threading
import time
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Set

from ..errors import ReproError, ServeError
from ..obs.spans import Tracer
from ..obs.export import render_metrics, render_prometheus
from ..obs.log import bound as log_bound
from ..obs.log import get_logger
from ..obs.metrics import LATENCY_BUCKETS_MS
from ..obs.telemetry import (
    activate_trace,
    current_trace_context,
    current_trace_id,
    ensure_trace_context,
)
from ..process import builtin_processes
from ..resilience.faults import fault_point
from .jobs import job_callable, make_synth_task
from .protocol import (
    HttpRequest,
    asdict_shallow,
    error_body,
    jsonl_line,
    parse_spec_payload,
    read_request,
    render_response,
    render_stream_head,
    serve_error_body,
    status_for_code,
)
from .queue import AdmissionQueue, QueuedJob
from .supervisor import WorkerSupervisor

__all__ = ["ServeConfig", "ReproServer", "ServerHandle", "run_server"]

_VALID_CORNERS = ("typical", "fast", "slow")

_log = get_logger("serve")


@dataclass
class ServeConfig:
    """Everything the service needs to know, in one picklable place."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; read the bound port off the server
    workers: int = 1
    mode: str = "process"  # "process" (isolation) or "thread" (tests)
    queue_depth: int = 64
    drain_deadline_ms: float = 10_000.0
    job_timeout_ms: Optional[float] = None
    retries: int = 1
    heartbeat_s: Optional[float] = None
    use_cache: bool = False
    cache_dir: Optional[str] = None
    default_process: str = "generic-5um"

    def to_dict(self) -> Dict[str, Any]:
        return asdict_shallow(self)


def _bad(message: str) -> ServeError:
    return ServeError(message, code="bad_request")


async def _discard_input(
    reader: asyncio.StreamReader, limit: int = 8 << 20
) -> None:
    """Read and drop up to ``limit`` bytes of unread request input."""
    try:
        remaining = limit
        while remaining > 0:
            chunk = await asyncio.wait_for(
                reader.read(min(65536, remaining)), timeout=1.0
            )
            if not chunk:
                return
            remaining -= len(chunk)
    except (asyncio.TimeoutError, ConnectionError):
        return


class ReproServer:
    """The long-lived service.  Construct, ``await start()``, then
    either ``await wait_drained()`` or drive it from tests.

    Single-event-loop discipline throughout: connection handlers,
    dispatch loops and drain all run on the loop that called
    :meth:`start`, so shared state needs no locks.
    """

    def __init__(self, config: Optional[ServeConfig] = None):
        self.config = config or ServeConfig()
        if self.config.workers < 1:
            raise ValueError("workers must be >= 1")
        self.tracer = Tracer()
        self.metrics = self.tracer.metrics
        self.supervisor = WorkerSupervisor(
            workers=self.config.workers,
            mode=self.config.mode,
            job_timeout_ms=self.config.job_timeout_ms,
            retries=self.config.retries,
            metrics=self.metrics,
            heartbeat_s=self.config.heartbeat_s,
        )
        # Loop-bound pieces are built in start() so the constructor can
        # run anywhere (py3.9 binds asyncio primitives at creation).
        self.queue: Optional[AdmissionQueue] = None
        self._server: Optional["asyncio.AbstractServer"] = None
        self._drained: Optional[asyncio.Event] = None
        self._idle: Optional[asyncio.Event] = None
        self._dispatch_tasks: List["asyncio.Task[None]"] = []
        self._handler_tasks: Set["asyncio.Task[None]"] = set()
        self._request_seq = 0
        self._in_flight = 0
        self._draining = False
        self._drain_clean = True
        self._drain_summary: Optional[Dict[str, Any]] = None
        self._started_at = time.perf_counter()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "ReproServer":
        cfg = self.config
        self.queue = AdmissionQueue(max_depth=cfg.queue_depth, workers=cfg.workers)
        self._drained = asyncio.Event()
        self._idle = asyncio.Event()
        self._idle.set()
        self.supervisor.start()
        self._server = await asyncio.start_server(
            self._on_connection, host=cfg.host, port=cfg.port
        )
        loop = asyncio.get_running_loop()
        self._dispatch_tasks = [
            loop.create_task(self._dispatch_loop()) for _ in range(cfg.workers)
        ]
        self._started_at = time.perf_counter()
        self.metrics.set_gauge("serve.queue_depth", 0)
        self.metrics.set_gauge("serve.in_flight", 0)
        self.metrics.set_gauge("serve.draining", 0)
        return self

    @property
    def host(self) -> str:
        return self.config.host

    @property
    def port(self) -> int:
        """The actually-bound port (resolves ``port=0`` ephemerals)."""
        assert self._server is not None and self._server.sockets
        return int(self._server.sockets[0].getsockname()[1])

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def drain_clean(self) -> bool:
        """False once any in-flight work had to be abandoned at drain."""
        return self._drain_clean

    def uptime_ms(self) -> float:
        return (time.perf_counter() - self._started_at) * 1e3

    async def wait_drained(self) -> Dict[str, Any]:
        """Park until :meth:`drain` completes; returns its summary."""
        assert self._drained is not None
        await self._drained.wait()
        return dict(self._drain_summary or {})

    # ------------------------------------------------------------------
    # Dispatch: queue -> supervisor -> future
    # ------------------------------------------------------------------
    async def _dispatch_loop(self) -> None:
        """One worker slot: pull, execute, repeat.  ``workers`` copies
        of this loop run concurrently; queue depth bounds what they can
        ever see."""
        assert self.queue is not None
        while True:
            job = await self.queue.get()
            self._update_queue_gauges()
            await self._execute(job)

    async def _execute(self, job: QueuedJob) -> None:
        assert self.queue is not None and self._idle is not None
        self._in_flight += 1
        self._idle.clear()
        self.metrics.set_gauge("serve.in_flight", self._in_flight)
        started = time.perf_counter()
        if job.admitted_at:
            # Admission-to-dispatch wait: the queueing half of latency
            # that service-time histograms alone would hide.
            self.metrics.observe(
                "serve.queue_wait_ms",
                (started - job.admitted_at) * 1e3,
                bounds=LATENCY_BUCKETS_MS,
            )
        status = "ok"
        try:
            payload = job.payload
            if job.kind == "synth" and job.budget is not None:
                # The worker's wall budget is whatever is left of the
                # client deadline *after* queueing -- admission started
                # the clock, execution honours the remainder.
                left = job.budget.remaining_ms()
                if left is not None:
                    current = payload.budget_wall_ms
                    allowed = max(1.0, left)
                    payload = replace(
                        payload,
                        budget_wall_ms=(
                            min(current, allowed) if current is not None else allowed
                        ),
                    )
            record, attempts = await self.supervisor.run(
                job_callable(job.kind), payload
            )
            record = dict(record)
            record["attempts"] = attempts
            snapshot = record.get("metrics")
            if isinstance(snapshot, dict):
                self.metrics.merge_snapshot(snapshot)
            if not record.get("ok", False):
                status = "contained"
            job.finish(record)
        except ServeError as exc:
            status = exc.code
            job.fail(exc)
        except asyncio.CancelledError:
            # Drain gave up on this job: the client still gets a
            # structured answer, never a hang.
            job.fail(
                ServeError(
                    "server drained before this job finished", code="cancelled"
                )
            )
            raise
        except Exception as exc:  # noqa: BLE001 - request isolation
            status = "internal"
            job.fail(
                ServeError(
                    f"unexpected dispatch failure: {type(exc).__name__}: {exc}",
                    code="internal",
                )
            )
        finally:
            elapsed_ms = (time.perf_counter() - started) * 1e3
            self.queue.observe_service_ms(elapsed_ms)
            self.metrics.observe(
                "serve.job_ms", elapsed_ms, bounds=LATENCY_BUCKETS_MS
            )
            self.metrics.inc("serve.jobs", status=status)
            _log.info(
                "serve.job_done",
                request_id=job.request_id,
                kind=job.kind,
                status=status,
                wall_ms=round(elapsed_ms, 3),
            )
            self._in_flight -= 1
            self.metrics.set_gauge("serve.in_flight", self._in_flight)
            if self._in_flight == 0:
                self._idle.set()

    def _update_queue_gauges(self) -> None:
        assert self.queue is not None
        self.metrics.set_gauge("serve.queue_depth", self.queue.depth)

    def _admit(
        self,
        kind: str,
        payload: Any,
        request_id: str,
        priority: int,
        deadline_ms: Optional[float],
        jobs_in_request: int = 1,
        jobs_ahead_in_request: int = 0,
    ) -> QueuedJob:
        assert self.queue is not None
        try:
            job = self.queue.admit(
                kind,
                payload,
                request_id,
                priority=priority,
                deadline_ms=deadline_ms,
                jobs_in_request=jobs_in_request,
                jobs_ahead_in_request=jobs_ahead_in_request,
            )
        except ServeError as exc:
            self.metrics.inc("serve.admission_rejected", reason=exc.code)
            _log.warning(
                "serve.admission_rejected",
                request_id=request_id,
                kind=kind,
                reason=exc.code,
            )
            raise
        self._update_queue_gauges()
        return job

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handler_tasks.add(task)
            task.add_done_callback(self._handler_tasks.discard)
        self._request_seq += 1
        request_id = f"r{self._request_seq:06d}"
        try:
            try:
                request = await read_request(reader)
            except ServeError as exc:
                self.metrics.inc("serve.requests", endpoint="malformed")
                _log.warning(
                    "serve.request_malformed",
                    request_id=request_id,
                    code=exc.code,
                    error=str(exc),
                )
                # Swallow whatever the client is still sending (bounded)
                # so it can finish writing and actually *read* the
                # structured refusal instead of dying on a broken pipe.
                await _discard_input(reader)
                await self._respond_error(writer, exc, request_id)
                return
            if request is None:
                return
            # One trace context per request: continue the client's trace
            # when it sent a valid ``traceparent`` header, start a fresh
            # one otherwise.  Everything downstream -- handler logs,
            # worker subprocesses, the response envelope -- correlates
            # through this ambient context.
            ctx = ensure_trace_context(request.headers.get("traceparent"))
            with activate_trace(ctx), log_bound(request_id=request_id):
                try:
                    await self._route(request, writer, request_id)
                except ServeError as exc:
                    # Answer inside the trace scope so the error
                    # envelope carries the request's trace_id.
                    await self._respond_error(writer, exc, request_id)
                except ReproError as exc:
                    await self._respond_error(
                        writer, _bad(f"{type(exc).__name__}: {exc}"), request_id
                    )
        except ConnectionError:
            # The client hung up mid-response (or the injected
            # serve.client_disconnect fired).  Their loss is contained
            # to this connection; the jobs were already failed by the
            # streaming handler.
            self.metrics.inc("serve.client_disconnects")
        except asyncio.CancelledError:
            raise
        except ServeError as exc:
            await self._respond_error(writer, exc, request_id)
        except ReproError as exc:
            await self._respond_error(
                writer, _bad(f"{type(exc).__name__}: {exc}"), request_id
            )
        except Exception as exc:  # noqa: BLE001 - connection isolation
            body = error_body(
                "internal",
                f"{type(exc).__name__}: {exc}",
                request_id=request_id,
            )
            with contextlib.suppress(Exception):
                await self._send(
                    writer, render_response(500, body), guarded=False
                )
        finally:
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _respond_error(
        self, writer: asyncio.StreamWriter, exc: ServeError, request_id: str
    ) -> None:
        status = status_for_code(exc.code)
        headers: Dict[str, str] = {}
        if exc.retry_after_ms is not None:
            # Whole seconds, rounded up: HTTP Retry-After semantics.
            headers["Retry-After"] = str(max(1, int(-(-exc.retry_after_ms // 1000))))
        self.metrics.inc("serve.responses", status=str(status))
        with contextlib.suppress(ConnectionError):
            await self._send(
                writer,
                render_response(
                    status,
                    serve_error_body(
                        exc, request_id, trace_id=current_trace_id() or ""
                    ),
                    extra_headers=headers or None,
                ),
                guarded=False,
            )

    async def _send(
        self, writer: asyncio.StreamWriter, data: bytes, guarded: bool = True
    ) -> None:
        """Write one response chunk.  ``guarded`` payload writes pass
        the ``serve.client_disconnect`` fault point, so chaos tests can
        sever any data write deterministically; control-plane writes
        (health, errors, stream heads) stay clean."""
        if guarded:
            fault_point("serve.client_disconnect")  # raise-kind site
        writer.write(data)
        await writer.drain()

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    async def _route(
        self,
        request: HttpRequest,
        writer: asyncio.StreamWriter,
        request_id: str,
    ) -> None:
        endpoint = request.path.strip("/") or "root"
        self.metrics.inc("serve.requests", endpoint=endpoint)
        _log.debug(
            "serve.request", method=request.method, endpoint=endpoint
        )
        route = (request.method, request.path)
        started = time.perf_counter()
        status = "ok"
        try:
            if route == ("GET", "/healthz"):
                await self._handle_healthz(writer)
            elif route == ("GET", "/readyz"):
                await self._handle_readyz(writer)
            elif route == ("GET", "/metrics"):
                await self._handle_metrics(request, writer)
            elif route == ("POST", "/synthesize"):
                await self._handle_synthesize(request, writer, request_id)
            elif route == ("POST", "/batch"):
                await self._handle_batch(request, writer, request_id)
            elif route == ("POST", "/lint"):
                await self._handle_simple(request, writer, request_id, kind="lint")
            elif route == ("POST", "/analyze"):
                await self._handle_simple(
                    request, writer, request_id, kind="analyze"
                )
            else:
                raise ServeError(
                    f"no route {request.method} {request.path}; have GET "
                    "/healthz /readyz /metrics and POST /synthesize /batch "
                    "/lint /analyze",
                    code="not_found",
                )
        except ServeError as exc:
            status = exc.code
            raise
        except BaseException:
            status = "error"
            raise
        finally:
            elapsed_ms = (time.perf_counter() - started) * 1e3
            # End-to-end request latency: parse-to-last-byte, per
            # endpoint, on the deterministic log-spaced bucket ladder.
            self.metrics.observe(
                "serve.request_ms",
                elapsed_ms,
                bounds=LATENCY_BUCKETS_MS,
                endpoint=endpoint,
            )
            _log.info(
                "serve.request_done",
                method=request.method,
                endpoint=endpoint,
                status=status,
                wall_ms=round(elapsed_ms, 3),
            )

    # -- control plane -------------------------------------------------
    async def _handle_healthz(self, writer: asyncio.StreamWriter) -> None:
        """Liveness: answers 200 for as long as the loop runs --
        explicitly including the drain window and pool rebuilds."""
        body = {
            "status": "ok",
            "draining": self._draining,
            "uptime_ms": round(self.uptime_ms(), 3),
        }
        self.metrics.inc("serve.responses", status="200")
        await self._send(writer, render_response(200, body), guarded=False)

    async def _handle_readyz(self, writer: asyncio.StreamWriter) -> None:
        """Readiness: honest about every state in which new work would
        be refused or delayed."""
        reason = None
        if self._draining:
            reason = "draining"
        elif self.supervisor.rebuilding:
            reason = "pool_rebuilding"
        body: Dict[str, Any] = {"ready": reason is None}
        if reason is not None:
            body["reason"] = reason
        status = 200 if reason is None else 503
        self.metrics.inc("serve.responses", status=str(status))
        await self._send(writer, render_response(status, body), guarded=False)

    def _metrics_payload(self) -> Dict[str, Any]:
        assert self.queue is not None
        self._update_queue_gauges()
        payload: Dict[str, Any] = {
            "metrics": self.metrics.snapshot(),
            "queue": self.queue.stats(),
            "uptime_ms": round(self.uptime_ms(), 3),
            "pool": {
                "mode": self.supervisor.mode,
                "workers": self.supervisor.workers,
                "generation": self.supervisor.generation,
                "rebuilding": self.supervisor.rebuilding,
            },
        }
        cache = self._shared_cache()
        if cache is not None:
            payload["cache"] = cache.stats_dict()
        return payload

    def _shared_cache(self) -> Optional[Any]:
        """The warm in-process cache served jobs share (thread mode
        shares memory + disk; process mode shares the disk tier, whose
        hits show up in each worker's own stats)."""
        if not self.config.use_cache:
            return None
        from ..batch import engine

        return engine._WORKER_CACHES.get((True, self.config.cache_dir))

    async def _handle_metrics(
        self, request: HttpRequest, writer: asyncio.StreamWriter
    ) -> None:
        payload = self._metrics_payload()
        self.metrics.inc("serve.responses", status="200")
        fmt = request.query.get("format")
        if fmt == "json":
            await self._send(writer, render_response(200, payload), guarded=False)
            return
        if fmt == "text":
            # The legacy human rendering, kept for eyeballs.
            queue = payload["queue"]
            text = (
                render_metrics(payload["metrics"])
                + f"queue: depth={queue['depth']}/{queue['max_depth']} "
                f"draining={queue['draining']} "
                f"service_ms_ewma={queue['service_ms_ewma']}\n"
            )
            await self._send(
                writer,
                render_response(
                    200, text, content_type="text/plain; charset=utf-8"
                ),
                guarded=False,
            )
            return
        # Default: Prometheus text exposition, scrapeable as-is.
        await self._send(
            writer,
            render_response(
                200,
                render_prometheus(payload["metrics"]),
                content_type="text/plain; version=0.0.4; charset=utf-8",
            ),
            guarded=False,
        )

    # -- data plane ----------------------------------------------------
    @staticmethod
    def _request_options(payload: Dict[str, Any]) -> Dict[str, Any]:
        """Queue options every data-plane request understands."""
        priority = payload.get("priority", 10)
        if not isinstance(priority, int) or isinstance(priority, bool):
            raise _bad("'priority' must be an integer (lower runs first)")
        deadline = payload.get("deadline_ms")
        if deadline is not None:
            if not isinstance(deadline, (int, float)) or deadline <= 0:
                raise _bad("'deadline_ms' must be a positive number")
            deadline = float(deadline)
        return {"priority": priority, "deadline_ms": deadline}

    def _resolve_process(self, payload: Dict[str, Any]) -> Any:
        name = str(payload.get("process", self.config.default_process))
        processes = builtin_processes()
        if name not in processes:
            raise _bad(
                f"unknown process {name!r} (have {sorted(processes)})"
            )
        return processes[name]

    def _synth_options(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        budget_ms = payload.get("budget_ms")
        if budget_ms is not None and (
            not isinstance(budget_ms, (int, float)) or budget_ms <= 0
        ):
            raise _bad("'budget_ms' must be a positive number")
        return {
            "verify": bool(payload.get("verify", False)),
            "precheck": bool(payload.get("precheck", False)),
            "budget_wall_ms": float(budget_ms) if budget_ms is not None else None,
            "use_cache": self.config.use_cache,
            "cache_dir": self.config.cache_dir,
            "observe": bool(payload.get("observe", False)),
        }

    async def _handle_synthesize(
        self,
        request: HttpRequest,
        writer: asyncio.StreamWriter,
        request_id: str,
    ) -> None:
        payload = request.json()
        options = self._request_options(payload)
        spec_payload = payload.get("spec")
        if spec_payload is None and "testcase" in payload:
            spec_payload = {"testcase": payload["testcase"]}
        if not isinstance(spec_payload, dict):
            raise _bad(
                "give a 'spec' object (spec fields or {'testcase': 'A'}) "
                "or a top-level 'testcase'"
            )
        label, spec = parse_spec_payload(spec_payload)
        process = self._resolve_process(payload)
        corner = str(payload.get("corner", "typical"))
        if corner not in _VALID_CORNERS:
            raise _bad(
                f"unknown corner {corner!r} (have {list(_VALID_CORNERS)})"
            )
        if corner != "typical":
            process = process.corner(corner)
            label = f"{label}@{corner}"
        ctx = current_trace_context()
        task = make_synth_task(
            index=0,
            label=label,
            spec=spec,
            process=process,
            corner=corner,
            traceparent=(
                ctx.child().to_traceparent() if ctx is not None else None
            ),
            **self._synth_options(payload),
        )
        job = self._admit("synth", task, request_id, **options)
        record = dict(await job.future)
        record["request_id"] = request_id
        if ctx is not None:
            # The worker stamps trace_id itself; setdefault keeps the
            # envelope correlated even for cached/legacy records.
            record.setdefault("trace_id", ctx.trace_id)
        self.metrics.inc("serve.responses", status="200")
        await self._send(writer, render_response(200, record))

    async def _handle_simple(
        self,
        request: HttpRequest,
        writer: asyncio.StreamWriter,
        request_id: str,
        kind: str,
    ) -> None:
        payload = request.json()
        options = self._request_options(payload)
        if kind == "lint" and not isinstance(payload.get("netlist"), str):
            raise _bad("'netlist' must be a string of SPICE card lines")
        if kind == "analyze" and not isinstance(payload.get("spec"), dict):
            raise _bad("'spec' must be an object (spec fields or testcase)")
        job = self._admit(kind, payload, request_id, **options)
        record = dict(await job.future)
        record["request_id"] = request_id
        ctx = current_trace_context()
        if ctx is not None:
            record.setdefault("trace_id", ctx.trace_id)
        self.metrics.inc("serve.responses", status="200")
        await self._send(writer, render_response(200, record))

    async def _handle_batch(
        self,
        request: HttpRequest,
        writer: asyncio.StreamWriter,
        request_id: str,
    ) -> None:
        """A grid request, streamed back as JSONL in grid order.

        Admission is atomic over the whole grid (all jobs or a single
        structured refusal).  Each line is either a task record or a
        structured error for exactly that task; a mid-stream client
        disconnect fails this request's remaining jobs and touches
        nothing else.
        """
        from ..batch.grid import grid_from_config

        payload = request.json()
        options = self._request_options(payload)
        grid_config = {
            key: payload[key]
            for key in ("testcases", "base", "sweeps", "corners")
            if key in payload
        }
        if not grid_config:
            raise _bad(
                "batch request needs 'testcases' and/or 'base' (+ optional "
                "'sweeps', 'corners')"
            )
        process = self._resolve_process(payload)
        tasks = grid_from_config(
            grid_config, process, **self._synth_options(payload)
        )
        ctx = current_trace_context()
        if ctx is not None:
            # Every grid point gets its own child span id under the
            # request's trace, serialized across the pool boundary.
            tasks = [
                replace(task, traceparent=ctx.child().to_traceparent())
                for task in tasks
            ]
        jobs: List[QueuedJob] = []
        admit_error: Optional[ServeError] = None
        for i, task in enumerate(tasks):
            try:
                jobs.append(
                    self._admit(
                        "synth",
                        task,
                        request_id,
                        priority=options["priority"],
                        deadline_ms=options["deadline_ms"],
                        jobs_in_request=len(tasks),
                        jobs_ahead_in_request=i,
                    )
                )
            except ServeError as exc:
                if not jobs:
                    raise  # nothing admitted: whole-request refusal
                admit_error = exc  # drain raced us mid-grid
                break
        self.metrics.inc("serve.responses", status="200")
        await self._send(writer, render_stream_head(200), guarded=False)
        try:
            trace_id = ctx.trace_id if ctx is not None else ""
            for task, job in zip(tasks, jobs):
                try:
                    record = dict(await job.future)
                    record["request_id"] = request_id
                    if ctx is not None:
                        record.setdefault("trace_id", ctx.trace_id)
                    line = jsonl_line(record)
                except ServeError as exc:
                    line = jsonl_line(
                        {
                            **serve_error_body(
                                exc, request_id, trace_id=trace_id
                            ),
                            "index": task.index,
                            "label": task.label,
                        }
                    )
                await self._send(writer, line)
            if admit_error is not None:
                for task in tasks[len(jobs):]:
                    await self._send(
                        writer,
                        jsonl_line(
                            {
                                **serve_error_body(
                                    admit_error, request_id, trace_id=trace_id
                                ),
                                "index": task.index,
                                "label": task.label,
                            }
                        ),
                    )
        except ConnectionError:
            # Client went away mid-stream: fail what's left of *this*
            # request so no worker slot is burned finishing answers
            # nobody will read; every other request is untouched.
            for job in jobs:
                job.fail(
                    ServeError(
                        "client disconnected before reading this result",
                        code="cancelled",
                    )
                )
            raise

    # ------------------------------------------------------------------
    # Drain
    # ------------------------------------------------------------------
    async def drain(
        self, reason: str = "signal", deadline_ms: Optional[float] = None
    ) -> Dict[str, Any]:
        """Graceful shutdown: refuse new work, cancel the queue, finish
        in-flight jobs against the drain deadline, then stop.

        ``/healthz`` keeps answering throughout; the listener closes
        only after the last obligation is settled (or abandoned with a
        structured error at the deadline).
        """
        assert self.queue is not None and self._drained is not None
        assert self._idle is not None
        if self._draining:
            return await self.wait_drained()
        self._draining = True
        started = time.perf_counter()
        deadline = (
            deadline_ms if deadline_ms is not None else self.config.drain_deadline_ms
        )
        self.metrics.set_gauge("serve.draining", 1)
        self.metrics.inc("serve.drains", reason=reason)
        _log.info(
            "serve.drain_begin",
            reason=reason,
            deadline_ms=deadline,
            in_flight=self._in_flight,
            queued=self.queue.depth,
        )
        cancelled = self.queue.drain()
        self.metrics.set_gauge("serve.drain_cancelled", cancelled)
        self._update_queue_gauges()

        # Wait for in-flight jobs, then for their handlers to finish
        # writing, inside one deadline.
        loop = asyncio.get_running_loop()
        current = asyncio.current_task()
        waiters = [loop.create_task(self._idle.wait())]
        waiters += [
            task
            for task in list(self._handler_tasks)
            if task is not current and not task.done()
        ]
        _, pending = await asyncio.wait(waiters, timeout=deadline / 1e3)
        forced = len(pending)
        if forced:
            self._drain_clean = False
            self.metrics.inc("serve.drain_forced", forced)
            for task in pending:
                task.cancel()
            # Cancelling the dispatch loops turns each abandoned job
            # into a structured `cancelled` answer (see _execute).
        for task in self._dispatch_tasks:
            task.cancel()
        await asyncio.gather(*self._dispatch_tasks, return_exceptions=True)
        await asyncio.gather(*waiters, return_exceptions=True)
        self.supervisor.stop()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        elapsed_ms = (time.perf_counter() - started) * 1e3
        self.metrics.set_gauge("serve.drained", 1)
        self._drain_summary = {
            "reason": reason,
            "cancelled_queued": cancelled,
            "forced": forced,
            "clean": self._drain_clean,
            "drain_ms": round(elapsed_ms, 3),
        }
        _log.info("serve.drain_done", **self._drain_summary)
        self._drained.set()
        return dict(self._drain_summary)


# ----------------------------------------------------------------------
# Entrypoints
# ----------------------------------------------------------------------
def run_server(config: Optional[ServeConfig] = None) -> int:
    """Run a server until SIGTERM/SIGINT drains it.  The CLI calls
    this; exit 0 means every obligation was settled inside the drain
    deadline."""

    async def _main() -> int:
        server = ReproServer(config)
        await server.start()
        cfg = server.config
        print(
            f"serving on {server.host}:{server.port} "
            f"(workers={cfg.workers}, mode={cfg.mode}, "
            f"queue_depth={cfg.queue_depth})",
            flush=True,
        )
        loop = asyncio.get_running_loop()

        def _on_signal(name: str) -> None:
            loop.create_task(server.drain(reason=name))

        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, _on_signal, sig.name.lower())
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-POSIX loop: Ctrl-C still lands as KeyboardInterrupt
        summary = await server.wait_drained()
        print(
            f"drained ({summary.get('reason')}): "
            f"{summary.get('cancelled_queued')} queued cancelled, "
            f"{summary.get('forced')} forced, "
            f"clean={summary.get('clean')}",
            flush=True,
        )
        return 0 if server.drain_clean else 1

    return asyncio.run(_main())


class ServerHandle:
    """A server on a background thread, for tests/examples/benchmarks.

    Context-manager friendly::

        with ServerHandle(ServeConfig(mode="thread")) as handle:
            ...  # http://{handle.host}:{handle.port}
    """

    _START_TIMEOUT_S = 15.0

    def __init__(self, config: Optional[ServeConfig] = None):
        self.config = config or ServeConfig(mode="thread")
        self.server: Optional[ReproServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self._port: Optional[int] = None

    # -- lifecycle -----------------------------------------------------
    def start(self) -> "ServerHandle":
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-host", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=self._START_TIMEOUT_S):
            raise ServeError("server thread failed to start in time")
        if self._error is not None:
            raise ServeError(f"server failed to start: {self._error}")
        return self

    def _run(self) -> None:
        async def _amain() -> None:
            self._loop = asyncio.get_running_loop()
            self.server = ReproServer(self.config)
            try:
                await self.server.start()
                self._port = self.server.port
            except Exception as exc:  # noqa: BLE001 - surfaced via start()
                self._error = exc
                self._ready.set()
                return
            self._ready.set()
            await self.server.wait_drained()

        asyncio.run(_amain())

    @property
    def host(self) -> str:
        return self.config.host

    @property
    def port(self) -> int:
        assert self._port is not None, "server not started"
        return self._port

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def drain(
        self, reason: str = "test", deadline_ms: Optional[float] = None
    ) -> Dict[str, Any]:
        """Drain from the caller's thread; returns the drain summary."""
        assert self.server is not None and self._loop is not None
        future = asyncio.run_coroutine_threadsafe(
            self.server.drain(reason=reason, deadline_ms=deadline_ms), self._loop
        )
        timeout = ((deadline_ms or self.config.drain_deadline_ms) / 1e3) + 10.0
        summary = future.result(timeout=timeout)
        if self._thread is not None:
            self._thread.join(timeout=10.0)
        return summary

    def stop(self) -> None:
        if self._thread is None or not self._thread.is_alive():
            return
        with contextlib.suppress(Exception):
            self.drain(reason="stop")
        if self._thread.is_alive():  # pragma: no cover - last resort
            self._thread.join(timeout=5.0)

    def __enter__(self) -> "ServerHandle":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
