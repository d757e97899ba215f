"""The four workloads: seeded inputs, one operation each, its oracle,
and the per-layer numbers of the traced run.

Every workload goes through the surface a user touches: ``cli`` starts
``python -m repro`` once per command, ``verify`` calls ``synthesize``
and ``verify_opamp`` in this process, ``serve`` talks HTTP to a real
``python -m repro serve`` from one closed-loop connection, and
``sweep`` drives ``run_batch`` with the result cache on.  Load comes
from this one process, one operation at a time.

Inputs are generated from the seed alone (:func:`cli_rounds`,
:func:`verify_rounds`, :func:`serve_requests`, :func:`sweep_specs`);
the program receives only those inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import http.client
import itertools
import json
import random
import select
import signal
import subprocess
import sys
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

from . import layers, oracle
from .common import (
    RESULTS,
    ROOT,
    add_counters,
    counter_total,
    median,
    parse_importtime,
    percentile,
    program_env,
)
from .probe import LAYERS_KEY, MARKER

#: Cold starts per run; ``setup_s`` is their median.
SETUP_STARTS = 5
PROCESS = "generic-5um"
PYTHON = sys.executable

#: The paper's test cases A/B/C (``repro.opamp.testcases``), as request
#: fields.  Kept here so the inputs do not move when the program does.
BASE_SPECS: Dict[str, Dict[str, float]] = {
    "A": {
        "gain_db": 45.0,
        "unity_gain_hz": 1.0e6,
        "phase_margin_deg": 60.0,
        "slew_rate": 2.0e6,
        "load_capacitance": 10e-12,
        "output_swing": 4.0,
        "offset_max_mv": 25.0,
    },
    "B": {
        "gain_db": 70.0,
        "unity_gain_hz": 1.0e6,
        "phase_margin_deg": 60.0,
        "slew_rate": 2.0e6,
        "load_capacitance": 10e-12,
        "output_swing": 4.3,
        "offset_max_mv": 2.0,
    },
    "C": {
        "gain_db": 100.0,
        "unity_gain_hz": 2.0e6,
        "phase_margin_deg": 45.0,
        "slew_rate": 5.0e6,
        "load_capacitance": 10e-12,
        "output_swing": 2.5,
        "offset_max_mv": 2.0,
    },
}

#: Perturbation ranges per case: dB added to the gain, factors on UGF,
#: slew rate and load.  ``verify`` stays where every spec synthesizes
#: and every analysis converges.  C is the paper's edge case: its gain
#: only moves down, and its slew rate only up with the UGF held, since
#: slew and UGF scaled together leave it without phase margin.
#: ``serve`` and ``sweep`` range wider, so ~5% of their specs are
#: infeasible -- an ``ok: false`` record, which is a correct answer.
Ranges = Dict[str, Dict[str, Tuple[float, float]]]
VERIFY_RANGES: Ranges = {
    "A": {"gain_db": (-3.0, 3.0), "unity_gain_hz": (0.83, 1.2),
          "slew_rate": (0.83, 1.2), "load_capacitance": (0.7, 1.44)},
    "B": {"gain_db": (-5.0, 5.0), "unity_gain_hz": (0.83, 1.2),
          "slew_rate": (0.83, 1.2), "load_capacitance": (0.7, 1.44)},
    "C": {"gain_db": (-3.0, -1.5), "unity_gain_hz": (1.0, 1.0),
          "slew_rate": (1.05, 1.2), "load_capacitance": (0.8, 1.25)},
}
WIDE_RANGES: Ranges = {
    label: {"gain_db": gain, "unity_gain_hz": (0.7, 1.4),
            "slew_rate": (0.7, 1.4), "load_capacitance": (0.5, 2.0)}
    for label, gain in (("A", (-5.0, 10.0)), ("B", (-10.0, 10.0)), ("C", (-10.0, 0.0)))
}

#: Every this many-th served response (and cache-miss sweep record) is
#: checked against an in-process, uncached ``run_batch`` of its spec.
SPOT_CHECK_EVERY = 50
#: In a traced run, every this many-th ``serve``/``sweep`` operation
#: runs under the program's tracer (see :class:`Tally`).
OBSERVE_EVERY = 50
#: The sweep's tasks go to ``run_batch`` in grids of this many.
SWEEP_GRID = 1000
#: Share of sweep tasks that repeat an earlier spec, drawn uniformly.
SWEEP_REPEAT = 0.25

CLI_COMMANDS: Tuple[Tuple[str, List[str]], ...] = (
    ("synth-A", ["synth", "--testcase", "A"]),
    ("synth-B", ["synth", "--testcase", "B"]),
    ("synth-C", ["synth", "--testcase", "C"]),
    ("lint-ota", ["lint", "tests/fixtures/ota_5t.sp", "--topology"]),
    ("lint-comparator", ["lint", "tests/fixtures/comparator.sp", "--topology"]),
    ("self-check", ["lint", "--self-check", "--dataflow", "--units"]),
)


class Mismatch(Exception):
    """An operation returned something the oracle rejects."""


# ----------------------------------------------------------------------
# Seeded inputs
# ----------------------------------------------------------------------
def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _perturb(rng: random.Random, label: str, ranges: Ranges) -> Dict[str, float]:
    """Case ``label`` with gain, UGF, slew rate and load moved."""
    fields = dict(BASE_SPECS[label])
    for key, (lo, hi) in ranges[label].items():
        if key == "gain_db":
            fields[key] = round(fields[key] + rng.uniform(lo, hi), 3)
        else:
            fields[key] = float(f"{fields[key] * rng.uniform(lo, hi):.4g}")
    return fields


def cli_rounds(seed: int) -> Iterator[List[Tuple[str, List[str]]]]:
    """Seeded shuffles of the six commands, one shuffle per round."""
    rng = _rng("cli", seed)
    while True:
        order = list(CLI_COMMANDS)
        rng.shuffle(order)
        yield order


def verify_rounds(seed: int) -> Iterator[List[Tuple[str, Dict[str, float], bool]]]:
    """Round 0 is the exact cases A, B and C; every later round one
    perturbation of each.  Items are ``(name, spec fields, exact)``."""
    rng = _rng("verify", seed)
    order = sorted(BASE_SPECS)
    rng.shuffle(order)
    yield [(label, dict(BASE_SPECS[label]), True) for label in order]
    for round_index in itertools.count(1):
        rng.shuffle(order)
        yield [
            (f"{label}~{round_index}", _perturb(rng, label, VERIFY_RANGES), False)
            for label in order
        ]


def serve_requests(seed: int) -> Iterator[Dict[str, float]]:
    rng = _rng("serve", seed)
    while True:
        yield _perturb(rng, rng.choice("ABC"), WIDE_RANGES)


def sweep_specs(seed: int) -> Iterator[Tuple[str, Dict[str, float]]]:
    """``(label, spec fields)``; a repeat reuses the earlier label."""
    rng = _rng("sweep", seed)
    seen: List[Tuple[str, Dict[str, float]]] = []
    for index in itertools.count():
        if seen and rng.random() < SWEEP_REPEAT:
            yield seen[rng.randrange(len(seen))]
            continue
        item = (f"s{index}", _perturb(rng, rng.choice("ABC"), WIDE_RANGES))
        seen.append(item)
        yield item


def spec_from(fields: Dict[str, float]) -> Any:
    from repro.kb.specs import OpAmpSpec

    return OpAmpSpec(**fields)


def _process() -> Any:
    from repro.process import builtin_processes

    return builtin_processes()[PROCESS]


def warm_up(workload: str) -> None:
    """One untimed operation of an in-process workload."""
    from repro.batch import build_tasks, run_batch
    from repro.opamp.designer import synthesize
    from repro.opamp.verify import verify_opamp

    spec = spec_from(BASE_SPECS["A"])
    if workload == "verify":
        verify_opamp(synthesize(spec, _process()).best)
    else:
        for _ in run_batch(build_tasks([("warm-up", spec)], _process())):
            pass


def batch_record(label: str, fields: Dict[str, float]) -> str:
    """Canonical JSON of the uncached in-process ``run_batch`` record."""
    from repro.batch import build_tasks, run_batch

    (result,) = run_batch(build_tasks([(label, spec_from(fields))], _process()))
    return canonical(result.record)


def canonical(record: Dict[str, Any]) -> str:
    """A record minus what legitimately differs between runs: the
    batch engine's volatile keys, the grid index and the request id."""
    from repro.batch import VOLATILE_KEYS

    drop = set(VOLATILE_KEYS) | {"index", "request_id", LAYERS_KEY}
    return json.dumps(
        {k: v for k, v in record.items() if k not in drop}, sort_keys=True
    )


def sweep_prefix_ok(seed: int, prefix: int) -> int:
    """``ok`` records among the first ``prefix`` sweep tasks."""
    from repro.batch import build_tasks, run_batch

    specs = itertools.islice(sweep_specs(seed), prefix)
    tasks = build_tasks(
        [(label, spec_from(f)) for label, f in specs], _process(), use_cache=True
    )
    return sum(result.ok for result in run_batch(tasks))


# ----------------------------------------------------------------------
# Traced-run bookkeeping
# ----------------------------------------------------------------------
class Tally:
    """What the traced half of a run saw, summed over its operations.

    Layer times cover ``ops`` operations.  The program's own counters
    and spans cover the ``observed`` operations that ran under a
    :class:`repro.obs.Tracer`: all of them for ``cli`` and ``verify``,
    one in :data:`OBSERVE_EVERY` for ``serve`` and ``sweep``, whose
    ~1 ms synthesis a tracer would slow twofold.  Observed operations
    of those two are left out of their layer times.
    """

    def __init__(self) -> None:
        self.ops = 0
        self.layers: layers.Snapshot = {}
        self.observed = 0
        self.observed_synth = 0.0
        self.counters: Dict[str, float] = {}
        self.span_ms: Dict[str, float] = {}
        self.startup: List[Dict[str, float]] = []
        self.extra: Dict[str, float] = {}
        self.lines: List[Dict[str, Any]] = []

    def observe(
        self, counters: Dict[str, float], spans: List[Dict[str, Any]], synth_calls: float
    ) -> None:
        self.observed += 1
        self.observed_synth += synth_calls
        add_counters(self.counters, counters)
        for s in spans:
            self.span_ms[s["name"]] = self.span_ms.get(s["name"], 0.0) + s["duration_ms"]

    def metrics(self) -> Dict[str, float]:
        n, lay, cnt = self.ops, self.layers, self.counters

        def per_observed(value: float) -> float:
            return value / self.observed if self.observed else 0.0

        def per_synth(value: float) -> float:
            return value / self.observed_synth if self.observed_synth else 0.0

        def spans(prefix: str) -> float:
            return per_observed(
                sum(v for k, v in self.span_ms.items() if k.startswith(prefix))
            )

        def startup(key: str) -> float:
            return median([s[key] for s in self.startup]) if self.startup else 0.0

        candidates = sum(
            counter_total(cnt, f"selection.{kind}")
            for kind in ("feasible", "infeasible", "skipped")
        )
        build_s = sum(lay.get(name, [0, 0.0])[1] for name in ("dc.system", "dc.stamp_plan"))
        out = {
            "startup.import_ms": startup("import_ms"),
            "startup.modules": startup("modules"),
            "startup.scipy_share": startup("scipy_share"),
            "lint.deck_ms": layers.mean_ms(lay, "lint.deck"),
            "lint.topology_ms": layers.mean_ms(lay, "lint.topology"),
            "lint.kb_ms": layers.mean_ms(lay, "lint.kb"),
            "lint.dataflow_ms": layers.mean_ms(lay, "lint.dataflow"),
            "lint.units_ms": layers.mean_ms(lay, "lint.units"),
            "lint.ast_parses": layers.calls(lay, "ast.parse", n),
            "synth.ms": layers.mean_ms(lay, "synth"),
            "kb.plan_steps": per_synth(counter_total(cnt, "plan.steps")),
            "kb.candidates": per_synth(candidates),
            "verify.offset_ms": spans("verify:offset"),
            "verify.ac_ms": spans("verify:ac"),
            "verify.swing_ms": spans("verify:swing"),
            "verify.slew_ms": spans("verify:slew"),
            "dc.solves": per_observed(counter_total(cnt, "dc.solves")),
            "dc.newton_iterations": per_observed(counter_total(cnt, "dc.newton.iterations")),
            "dc.lu_solves": per_observed(counter_total(cnt, "dc.lu_solves")),
            "dc.failures": per_observed(counter_total(cnt, "dc.failures")),
            "dc.device_evals": layers.calls(lay, "dc.device_eval", n),
            "dc.device_eval_ms": layers.mean_ms(lay, "dc.device_eval", n),
            "dc.assemble_ms": layers.self_ms(lay, "dc.assemble", n),
            "dc.lu_ms": layers.mean_ms(lay, "dc.lu", n),
            "dc.system_builds": layers.calls(lay, "dc.system", n),
            "dc.build_ms": build_s * 1e3 / n if n else 0.0,
            "ac.points": per_observed(counter_total(cnt, "ac.points")),
            "ac.ms": spans("ac:"),
            "transient.timesteps": per_observed(counter_total(cnt, "transient.timesteps")),
            "transient.ms": spans("transient:"),
            "batch.task_ms.p50": 0.0,
            "batch.task_ms.p99": 0.0,
            "batch.record_ms": 0.0,
            "cache.hit_ratio": 0.0,
            "cache.get_ms": layers.mean_ms(lay, "cache.get"),
            "cache.put_ms": layers.mean_ms(lay, "cache.put"),
            "cache.key_ms": layers.mean_ms(lay, "cache.key", n),
            "serve.worker_ms.p50": 0.0,
            "serve.overhead_ms.p50": 0.0,
            "serve.queue_wait_ms.p99": 0.0,
            "serve.rejections": 0.0,
        }
        out.update(self.extra)
        return out


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
class Workload:
    """One workload.  A run calls :meth:`cold_start` a few times, then
    :meth:`start`, :meth:`run_op` per input of :meth:`rounds` until the
    time is up, :meth:`stop`, and :meth:`check` for the oracle checks
    that wait until the timed loop is over."""

    name = ""
    #: The latency percentile reported as ``op_ms.tail`` (see README.md).
    tail_pct = 75.0

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.reference = oracle.load_reference()
        self.traced = False
        self.tally = Tally()

    def cold_start(self) -> float:
        raise NotImplementedError

    def start(self, traced: bool) -> None:
        self.traced = traced

    def rounds(self) -> Iterator[List[Any]]:
        raise NotImplementedError

    def run_op(self, item: Any) -> float:
        raise NotImplementedError

    def stop(self) -> None:
        pass

    def check(self) -> List[str]:
        return []


def _run(*command: str) -> Tuple["subprocess.CompletedProcess[str]", float]:
    """Run a process from the repository root; returns it and its wall
    seconds."""
    started = time.perf_counter()
    proc = subprocess.run(
        [PYTHON, *command], cwd=ROOT, env=program_env(),
        capture_output=True, text=True, timeout=120,
    )
    return proc, time.perf_counter() - started


def _probe(*command: str) -> Tuple["subprocess.CompletedProcess[str]", float]:
    """:func:`_run` for a probe process, which must exit 0."""
    proc, elapsed = _run(*command)
    if proc.returncode != 0:
        raise Mismatch(f"{' '.join(command)}: exit {proc.returncode}: {proc.stderr[-500:]}")
    return proc, elapsed


class InProcess(Workload):
    """A workload that runs the program in this process: a cold start is
    a fresh probe process, and the first :meth:`start` warms this one."""

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self._warm = False

    def cold_start(self) -> float:
        return _probe("-m", "bench.probe", "coldstart", self.name)[1]

    def start(self, traced: bool) -> None:
        super().start(traced)
        if not self._warm:
            warm_up(self.name)
            self._warm = True
        if traced:
            proc, _ = _probe("-X", "importtime", "-m", "bench.probe", "coldstart", self.name)
            self.tally.startup.append(parse_importtime(proc.stderr, MARKER))


class Cli(Workload):
    name = "cli"

    def cold_start(self) -> float:
        proc, elapsed = _run("-m", "repro", "--version")
        if proc.returncode != 0 or not proc.stdout.startswith("repro "):
            raise Mismatch(f"--version: exit {proc.returncode}, {proc.stdout!r}")
        return elapsed

    def rounds(self) -> Iterator[List[Any]]:
        return cli_rounds(self.seed)

    def run_op(self, item: Tuple[str, List[str]]) -> float:
        name, argv = item
        if not self.traced:
            proc, elapsed = _run("-m", "repro", *argv)
            code, stdout = proc.returncode, proc.stdout
        else:
            proc, elapsed = _probe("-X", "importtime", "-m", "bench.probe", "cli", *argv)
            probe = json.loads(proc.stdout.splitlines()[-1])
            code, stdout = probe["exit"], probe["stdout"]
            self._record(name, elapsed * 1e3, probe, parse_importtime(proc.stderr, MARKER))
        problems = oracle.check_cli(self.reference, name, code, stdout)
        if problems:
            raise Mismatch("; ".join(problems))
        return elapsed * 1e3

    def _record(
        self, name: str, ms: float, probe: Dict[str, Any], startup: Dict[str, float]
    ) -> None:
        tally = self.tally
        tally.ops += 1
        layers.merge(tally.layers, probe["layers"])
        tally.observe(probe["counters"], probe["spans"], probe["layers"]["synth"][0])
        tally.startup.append(startup)
        tally.lines.append({
            "op": name, "ms": ms, "startup": startup, "layers": probe["layers"],
            "counters": probe["counters"], "spans": probe["spans"],
        })


class Verify(InProcess):
    name = "verify"

    def rounds(self) -> Iterator[List[Any]]:
        return verify_rounds(self.seed)

    def run_op(self, item: Tuple[str, Dict[str, float], bool]) -> float:
        from repro.obs import Tracer
        from repro.opamp import designer
        from repro.opamp.verify import verify_opamp

        name, fields, exact = item
        spec, process = spec_from(fields), _process()
        with contextlib.ExitStack() as tracing:
            if self.traced:
                clock = tracing.enter_context(layers.LayerClock())
                tracer = tracing.enter_context(Tracer().activate())
            started = time.perf_counter()
            result = designer.synthesize(spec, process)
            report = verify_opamp(result.best)
            elapsed_ms = (time.perf_counter() - started) * 1e3
        if self.traced:
            self._record(name, elapsed_ms, tracer, clock)
        problems = oracle.check_measured(
            self.reference, name if exact else None, report.measured, report.notes
        )
        if exact and result.best.record_json() != oracle.golden_design(name):
            problems.append(f"case {name}: design differs from tests/golden")
        if problems:
            raise Mismatch("; ".join(problems))
        return elapsed_ms

    def _record(self, name: str, ms: float, tracer: Any, clock: layers.LayerClock) -> None:
        spans = [s.to_dict() for s in tracer.spans_by_start()]
        counters = tracer.metrics.snapshot()["counters"]
        tally = self.tally
        tally.ops += 1
        layers.merge(tally.layers, clock.snapshot())
        tally.observe(counters, spans, clock.stats["synth"][0])
        tally.lines.append({
            "op": name, "ms": ms, "layers": clock.snapshot(),
            "counters": counters, "spans": spans,
        })


class Serve(Workload):
    name = "serve"
    tail_pct = 99.0
    WARM_UP_REQUESTS = 20

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self._proc: Optional["subprocess.Popen[str]"] = None
        self._stderr: Any = None
        self._port = 0
        self._served = 0
        self._samples: List[Tuple[Dict[str, float], Dict[str, Any]]] = []
        self._client_ms: List[float] = []
        self._worker_ms: List[float] = []

    # -- server lifecycle ------------------------------------------------
    def _spawn(self, traced: bool) -> None:
        if traced:
            command = [PYTHON, "-X", "importtime", "-m", "bench.probe", "serve"]
        else:
            command = [PYTHON, "-m", "repro", "serve"]
        # A file, not a pipe: nothing reads the server's standard error
        # (importtime lines, when traced) until it has exited.
        RESULTS.mkdir(parents=True, exist_ok=True)
        self._stderr_path = RESULTS / f"serve-{self.seed}.stderr"
        self._stderr = open(self._stderr_path, "w+", encoding="utf-8")
        self._proc = subprocess.Popen(
            [*command, "--workers", "1"],
            cwd=ROOT, env=program_env(), stdout=subprocess.PIPE,
            stderr=self._stderr, text=True,
        )
        assert self._proc.stdout is not None
        ready, _, _ = select.select([self._proc.stdout], [], [], 60.0)
        banner = self._proc.stdout.readline() if ready else ""
        if not banner.startswith("serving on "):
            self._shutdown()
            raise Mismatch(f"server did not start: {banner!r}")
        self._port = int(banner.split()[2].rsplit(":", 1)[1])

    def _shutdown(self) -> str:
        """SIGTERM, wait for the drain; returns the server's stderr."""
        proc, self._proc = self._proc, None
        if proc is None:
            return ""
        try:
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            out, _ = proc.communicate()
        self._stderr.seek(0)
        err = self._stderr.read()
        self._stderr.close()
        self._stderr_path.unlink()
        if proc.returncode != 0 or "clean=True" not in out:
            raise Mismatch(f"server drain: exit {proc.returncode}, {out!r}")
        return err

    def _request(self, method: str, path: str, body: Optional[bytes] = None) -> Tuple[int, bytes, float]:
        conn = http.client.HTTPConnection("127.0.0.1", self._port, timeout=60)
        headers = {"Content-Type": "application/json"} if body is not None else {}
        try:
            started = time.perf_counter()
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            data = response.read()
            elapsed_ms = (time.perf_counter() - started) * 1e3
        finally:
            conn.close()
        return response.status, data, elapsed_ms

    def cold_start(self) -> float:
        started = time.perf_counter()
        self._spawn(traced=False)
        try:
            body = json.dumps({"spec": BASE_SPECS["A"]}).encode()
            status, _, _ = self._request("POST", "/synthesize", body)
            elapsed = time.perf_counter() - started
        finally:
            self._shutdown()
        if status != 200:
            raise Mismatch(f"first /synthesize answered {status}")
        return elapsed

    def start(self, traced: bool) -> None:
        super().start(traced)
        self._spawn(traced)
        body = json.dumps({"spec": BASE_SPECS["A"]}).encode()
        for _ in range(self.WARM_UP_REQUESTS):
            status, data, _ = self._request("POST", "/synthesize", body)
            if status != 200:
                self._shutdown()
                raise Mismatch(f"warm-up /synthesize answered {status}: {data[:200]!r}")

    def rounds(self) -> Iterator[List[Any]]:
        return ([fields] for fields in serve_requests(self.seed))

    def run_op(self, fields: Dict[str, float]) -> float:
        self._served += 1
        observed = self.traced and self._served % OBSERVE_EVERY == 0
        payload: Dict[str, Any] = {"spec": fields}
        if observed:
            payload["observe"] = True
        status, data, elapsed_ms = self._request(
            "POST", "/synthesize", json.dumps(payload).encode()
        )
        if status != 200:
            raise Mismatch(f"/synthesize answered {status}: {data[:200]!r}")
        record = json.loads(data)
        if "ok" not in record or "wall_ms" not in record:
            raise Mismatch(f"/synthesize record lacks ok/wall_ms: {sorted(record)}")
        if self._served % SPOT_CHECK_EVERY == 0:
            self._samples.append((fields, record))
        if self.traced:
            self._record(record, elapsed_ms, observed)
        return elapsed_ms

    def _record(self, record: Dict[str, Any], elapsed_ms: float, observed: bool) -> None:
        tally, request_layers = self.tally, record[LAYERS_KEY]
        if observed:
            tally.observe(record["metrics"]["counters"], [], request_layers["synth"][0])
            tally.lines.append({"op": record["request_id"], "ms": elapsed_ms, "record": record})
            return
        tally.ops += 1
        layers.merge(tally.layers, request_layers)
        self._client_ms.append(elapsed_ms)
        self._worker_ms.append(float(record["wall_ms"]))

    def stop(self) -> None:
        if not self.traced:
            self._shutdown()
            return
        status, data, _ = self._request("GET", "/metrics?format=json")
        err = self._shutdown()
        if status != 200:
            raise Mismatch(f"/metrics answered {status}")
        from repro.obs.slo import histogram_quantile

        snapshot = json.loads(data)["metrics"]
        queue_wait = snapshot["histograms"].get("serve.queue_wait_ms")
        overhead = [c - w for c, w in zip(self._client_ms, self._worker_ms)]
        self.tally.extra.update({
            "serve.worker_ms.p50": median(self._worker_ms),
            "serve.overhead_ms.p50": median(overhead),
            "serve.queue_wait_ms.p99": (
                (histogram_quantile(queue_wait, 99.0) or 0.0) if queue_wait else 0.0
            ),
            "serve.rejections": counter_total(
                snapshot["counters"], "serve.admission_rejected"
            ),
        })
        self.tally.startup.append(parse_importtime(err, MARKER))
        self.tally.lines.append({"op": "metrics", "metrics": snapshot})
        self._client_ms, self._worker_ms = [], []

    def check(self) -> List[str]:
        problems = []
        for fields, record in self._samples:
            if canonical(record) != batch_record("spec", fields):
                problems.append(f"served record differs from run_batch for {fields}")
        self._samples = []
        return problems


class Sweep(InProcess):
    name = "sweep"
    # Above p90 the ~1 ms tasks mostly time the machine's own hiccups:
    # across ten runs on a shared 2-vCPU VM, p99 spread 19-32%, p90
    # under 10%.
    tail_pct = 90.0

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self._samples: List[Tuple[str, Dict[str, float], str]] = []
        self._task_ms: List[float] = []

    def start(self, traced: bool) -> None:
        from repro.batch import engine

        super().start(traced)
        # Each half of a run starts from the first task with an empty
        # cache, so both halves see the same hit pattern.
        engine._WORKER_CACHES.clear()
        self._results = self._grid()
        self._digests: Dict[str, str] = {}
        self._done = self._hits = self._prefix_ok = 0
        self._observed_layers: List[layers.Snapshot] = []
        self._clock = layers.LayerClock()
        if traced:
            self._clock.install()

    def _grid(self) -> Iterator[Any]:
        from repro.batch import build_tasks, run_batch

        specs = sweep_specs(self.seed)
        while True:
            grid = itertools.islice(specs, SWEEP_GRID)
            tasks = build_tasks(
                [(label, spec_from(f)) for label, f in grid], _process(), use_cache=True
            )
            yield from run_batch(tasks, jobs=1)

    def rounds(self) -> Iterator[List[Any]]:
        return ([item] for item in sweep_specs(self.seed))

    def run_op(self, item: Tuple[str, Dict[str, float]]) -> float:
        from repro.obs import Tracer

        label, fields = item
        if self.traced and self._done % OBSERVE_EVERY == 0:
            tracer, before = Tracer(), self._clock.snapshot()
            started = time.perf_counter()
            with tracer.activate():
                result = next(self._results)
            elapsed_ms = (time.perf_counter() - started) * 1e3
            own = layers.difference(self._clock.snapshot(), before)
            self._observed_layers.append(own)
            spans = [s.to_dict() for s in tracer.spans_by_start()]
            counters = tracer.metrics.snapshot()["counters"]
            self.tally.observe(counters, spans, own["synth"][0])
            self.tally.lines.append(
                {"op": label, "ms": elapsed_ms, "layers": own, "counters": counters, "spans": spans}
            )
        else:
            started = time.perf_counter()
            result = next(self._results)
            elapsed_ms = (time.perf_counter() - started) * 1e3
            if self.traced:
                self._task_ms.append(elapsed_ms)
        self._check_record(label, fields, result)
        return elapsed_ms

    def _check_record(self, label: str, fields: Dict[str, float], result: Any) -> None:
        if result.label != label:
            raise Mismatch(f"task {result.label} answered for {label}")
        record = result.record
        digest = hashlib.sha256(canonical(record).encode()).hexdigest()
        self._done += 1
        self._hits += record["cache"] == "hit"
        if self._done <= self.reference["sweep"]["prefix"]:
            self._prefix_ok += bool(record["ok"])
        first = self._digests.get(label)
        if first is None:
            self._digests[label] = digest
            if len(self._digests) % SPOT_CHECK_EVERY == 0:
                self._samples.append((label, fields, canonical(record)))
        elif first != digest:
            raise Mismatch(f"{label}: repeat ({record['cache']}) differs from the first answer")

    def stop(self) -> None:
        self._clock.uninstall()
        if not self.traced:
            return
        tally, ms = self.tally, self._task_ms
        tally.ops += len(ms)
        layers.merge(tally.layers, self._clock.snapshot())
        for own in self._observed_layers:
            layers.merge(tally.layers, own, sign=-1.0)
        lay = tally.layers
        inner = sum(lay[name][1] for name in ("synth", "cache.get", "cache.put", "cache.key"))
        tally.extra.update({
            "batch.task_ms.p50": percentile(ms, 50.0),
            "batch.task_ms.p99": percentile(ms, 99.0),
            "batch.record_ms": (sum(ms) - inner * 1e3) / len(ms) if ms else 0.0,
            "cache.hit_ratio": self._hits / self._done if self._done else 0.0,
        })
        self._task_ms = []

    def check(self) -> List[str]:
        problems = [
            f"{label}: cached run_batch record differs from an uncached one"
            for label, fields, seen in self._samples
            if batch_record(label, fields) != seen
        ]
        self._samples = []
        pinned = self.reference["sweep"]
        if self.seed == pinned["seed"] and self._done >= pinned["prefix"]:
            if self._prefix_ok != pinned["ok"]:
                problems.append(
                    f"{self._prefix_ok} ok records in the first {pinned['prefix']} "
                    f"tasks, pinned {pinned['ok']}"
                )
        return problems


TYPES = {cls.name: cls for cls in (Cli, Verify, Serve, Sweep)}
