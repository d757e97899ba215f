"""Section 4.3 CPU time: "usually under 2 minutes of CPU time per op amp"
on a 1987 VAX 11/785.

Times the complete synthesis (breadth-first selection over both styles,
plans, rules, netlist emission) of each test case.  The reproduction
must come in orders of magnitude under the paper's budget on modern
hardware -- we assert an aggressive 5 s per amp.

Each case runs under an observability tracer, and the bench writes
``BENCH_synth.json`` at the repo root: per-testcase wall time plus the
run's span count and deterministic metrics snapshot.  CI uploads the
file as an artifact, seeding the performance trajectory across commits.
"""

import json
import platform
import time
from pathlib import Path

from repro import CMOS_5UM, synthesize
from repro.cli import package_version
from repro.opamp.testcases import paper_test_cases

ROOT = Path(__file__).resolve().parent.parent
BENCH_JSON = ROOT / "BENCH_synth.json"


def _synthesize_all():
    timings = {}
    for label, spec in paper_test_cases().items():
        start = time.perf_counter()
        result = synthesize(spec, CMOS_5UM, observe=True)
        timings[label] = (time.perf_counter() - start, result)
    return timings


def _write_bench_json(timings):
    cases = {}
    for label, (seconds, result) in timings.items():
        report = result.report
        cases[label] = {
            "wall_ms": round(seconds * 1e3, 3),
            "style": result.style,
            "trace_events": len(result.trace),
            "spans": len(report.spans),
            "span_coverage": round(report.span_coverage(), 4),
            "dc_solves": report.counter("dc.solves"),
            "newton_iterations": report.counter("dc.newton.iterations"),
            "metrics": report.metrics,
        }
    payload = {
        "bench": "synth_runtime",
        "version": package_version(),
        "python": platform.python_version(),
        "cases": cases,
    }
    BENCH_JSON.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return payload


def test_runtime_per_opamp(once, benchmark):
    timings = once(benchmark, _synthesize_all)
    _write_bench_json(timings)
    print()
    for label, (seconds, result) in timings.items():
        print(
            f"  case {label}: {seconds * 1e3:7.1f} ms "
            f"({result.style}, {len(result.trace)} trace events, "
            f"{len(result.report.spans)} spans)"
        )
        # The paper's budget was 120 s of VAX CPU; demand < 5 s here.
        assert seconds < 5.0
    print(f"  wrote {BENCH_JSON.name}")


def _bench_mesh(side):
    """DC-heavy workload: a ``side x side`` resistor grid with a corner
    supply and a diagonal of diode-connected NMOS loads (nonlinear, so
    Newton actually iterates).  At side 32 the MNA system has ~1k
    unknowns -- far above the sparse threshold."""
    from repro.circuit import GROUND, Circuit

    c = Circuit(f"bench_mesh{side}")

    def node(i, j):
        return GROUND if i == 0 and j == 0 else f"n{i}_{j}"

    k = 0
    for i in range(side):
        for j in range(side):
            if i + 1 < side:
                c.add_resistor(f"rv{k}", node(i, j), node(i + 1, j), 1e3 + k)
                k += 1
            if j + 1 < side:
                c.add_resistor(f"rh{k}", node(i, j), node(i, j + 1), 1e3 + k)
                k += 1
    c.add_vsource("vdd", node(side - 1, side - 1), GROUND, dc=5.0)
    for m in range(1, 9):
        c.add_mosfet(
            f"m{m}",
            node(m, m),
            node(m, m),
            GROUND,
            GROUND,
            "nmos",
            width=50e-6,
            length=10e-6,
        )
    return c


def _dc_batch_measurements(side=32):
    """Time the cache-cold corner batch under both numeric backends.

    Returns backend -> (wall_ms, counters, results).  Each backend gets
    one small warm-up solve first so lazy imports (scipy.sparse.linalg)
    and first-call overheads don't pollute the cold-path timing; the
    result cache stays off throughout, so every measured solve is a
    genuine cold evaluation.
    """
    import contextlib
    import sys

    from repro.batch import corner_operating_points
    from repro.obs import Tracer

    # The scalar reference simulator is a test oracle under tests/.
    sys.path.insert(0, str(ROOT))
    from tests.numeric_reference import reference_backend

    measurements = {}
    for backend, context in (
        ("scalar", reference_backend),
        ("vectorized", contextlib.nullcontext),
    ):
        with context():
            corner_operating_points(_bench_mesh(4), CMOS_5UM)  # warm-up
            circuit = _bench_mesh(side)
            tracer = Tracer()
            start = time.perf_counter()
            with tracer.activate():
                results = corner_operating_points(circuit, CMOS_5UM)
            wall_ms = (time.perf_counter() - start) * 1e3
            counters = {
                name: tracer.metrics.counter_total(name)
                for name in ("dc.lu_solves", "dc.newton.iterations", "dc.solves")
            }
            measurements[backend] = (wall_ms, counters, results)
    return measurements


def test_dc_batch_vectorized_speedup(once, benchmark):
    """Acceptance for the vectorized sparse core: >= 10x on the
    cache-cold, DC-heavy corner batch, with the Newton trajectory
    provably unchanged (iteration and LU-solve counters match the
    scalar reference exactly)."""
    measurements = once(benchmark, _dc_batch_measurements)
    scalar_ms, scalar_counters, scalar_ops = measurements["scalar"]
    vector_ms, vector_counters, vector_ops = measurements["vectorized"]
    speedup = scalar_ms / vector_ms
    print()
    print(
        f"  corner batch (3 corners, mesh 32x32): scalar {scalar_ms:8.1f} ms, "
        f"vectorized {vector_ms:7.1f} ms ({speedup:.1f}x)"
    )
    print(f"  counters scalar={scalar_counters} vectorized={vector_counters}")

    # Same trajectory, not merely a nearby answer: counter parity +-0.
    assert vector_counters == scalar_counters
    for corner, reference in scalar_ops.items():
        fast = vector_ops[corner]
        assert fast.iterations == reference.iterations
        for node_name, voltage in reference.voltages.items():
            assert abs(fast.voltages[node_name] - voltage) < 1e-6
    assert speedup >= 10.0, f"vectorized core only {speedup:.1f}x faster"

    if BENCH_JSON.exists():
        data = json.loads(BENCH_JSON.read_text(encoding="utf-8"))
    else:  # ran standalone; seed the envelope
        data = {
            "bench": "synth_runtime",
            "version": package_version(),
            "python": platform.python_version(),
            "cases": {},
        }
    data["dc_batch"] = {
        "corners": sorted(scalar_ops),
        "mesh_side": 32,
        "scalar_ms": round(scalar_ms, 3),
        "vectorized_ms": round(vector_ms, 3),
        "speedup": round(speedup, 3),
        "newton_iterations": scalar_counters["dc.newton.iterations"],
        "lu_solves": scalar_counters["dc.lu_solves"],
        "counters_match": vector_counters == scalar_counters,
    }
    BENCH_JSON.write_text(
        json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"  merged dc_batch into {BENCH_JSON.name}")


#: The bundled foreign decks the TOPO6xx acceptance criterion names.
BUNDLED_DECKS = ("ota_5t.sp", "comparator.sp")
FIXTURES = ROOT / "tests" / "fixtures"


def _topology_span_ms(circuit):
    """Median ``lint.topology`` span over a few runs (PR-4 span data)."""
    import statistics

    from repro.lint import lint_topology
    from repro.obs import Tracer

    samples = []
    for _ in range(5):
        tracer = Tracer()
        with tracer.activate():
            lint_topology(circuit, process=CMOS_5UM)
        samples.append(
            sum(
                s.duration_ms
                for s in tracer.spans
                if s.name == "lint.topology"
            )
        )
    return statistics.median(samples)


def _deck_overhead():
    """Per bundled deck: the full ``repro lint`` command wall (what a
    user actually waits for) and the in-process lint pipeline wall,
    against the span-measured topology cost."""
    import subprocess
    import sys

    from repro.circuit.netlist_io import parse_deck
    from repro.lint import lint_spice_deck, lint_topology
    from repro.obs import Tracer

    measurements = {}
    for deck in BUNDLED_DECKS:
        path = FIXTURES / deck
        start = time.perf_counter()
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "analyze",
                "--netlist",
                str(path),
                "--topology",
            ],
            capture_output=True,
            text=True,
        )
        command_ms = (time.perf_counter() - start) * 1e3
        # comparator.sp intentionally warns (TOPO604); worse is a bug.
        assert proc.returncode <= 1, proc.stderr

        text = path.read_text(encoding="utf-8")
        tracer = Tracer()
        with tracer.activate():
            t0 = time.perf_counter()
            lint_spice_deck(text, name=deck, process=CMOS_5UM)
            circuit, _ = parse_deck(text, deck)
            lint_topology(circuit, process=CMOS_5UM)
            pipeline_ms = (time.perf_counter() - t0) * 1e3
        topology_ms = _topology_span_ms(circuit)
        measurements[deck] = (command_ms, pipeline_ms, topology_ms)
    return measurements


def test_topology_pass_overhead(once, benchmark):
    """Acceptance: the structural pass adds <= 10% to ``repro lint``
    wall time on the bundled decks, measured via the span data."""
    measurements = once(benchmark, _deck_overhead)
    section = {}
    print()
    for deck, (command_ms, pipeline_ms, topology_ms) in measurements.items():
        share = topology_ms / command_ms
        section[deck] = {
            "lint_command_wall_ms": round(command_ms, 3),
            "lint_pipeline_ms": round(pipeline_ms, 3),
            "topology_span_ms": round(topology_ms, 3),
            "share_of_command": round(share, 4),
            "share_of_pipeline": round(topology_ms / pipeline_ms, 4),
        }
        print(
            f"  {deck}: topology {topology_ms:6.3f} ms of "
            f"{command_ms:7.1f} ms command wall ({share:.2%}; "
            f"in-process pipeline {pipeline_ms:.2f} ms)"
        )
        assert topology_ms > 0.0, "lint.topology span not recorded"
        assert share <= 0.10, (
            f"{deck}: topology pass adds {share:.1%} to lint wall time"
        )
    if BENCH_JSON.exists():
        data = json.loads(BENCH_JSON.read_text(encoding="utf-8"))
    else:  # ran standalone; seed the envelope
        data = {
            "bench": "synth_runtime",
            "version": package_version(),
            "python": platform.python_version(),
            "cases": {},
        }
    data["topology"] = section
    BENCH_JSON.write_text(
        json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"  merged topology overhead into {BENCH_JSON.name}")
