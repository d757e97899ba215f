"""Command-line interface: ``python -m repro <command>``.

The 1987 tool was driven by specification files; this CLI is its modern
equivalent.  Commands:

* ``synthesize`` (aliases ``design``, ``synth``) -- performance spec
  -> sized schematic (+ optional simulator verification, SPICE export,
  design trace).  The spec comes from the flags or from
  ``--testcase A|B|C`` (``1|2|3`` accepted).  ``--budget-ms`` bounds
  the run's wall clock; ``--best-effort`` turns failures of any kind
  into structured failure reports (exit 3 when no style survives)
  instead of a crashed process -- the batch-workload mode;
  ``--trace-out FILE`` records the run (timed spans + metrics + design
  events) and writes it in ``--trace-format jsonl|chrome|text``;
* ``stats``      -- observability report: run an observed synthesis
  (``--testcase`` or spec flags) and print the span flame summary and
  metrics, or summarize a previously written JSONL trace file;
* ``testcases``  -- regenerate the paper's Table 2 for cases A/B/C;
* ``adc``        -- design a successive-approximation converter;
* ``processes``  -- list the built-in processes / print Table 1;
* ``lint``       -- static diagnostics: ERC over a SPICE deck or a
  synthesized test case, the knowledge-base self-check, the interval
  feasibility pass (``--feasibility``), and the structural topology
  pass (``--topology``: sub-block recognition + TOPO6xx checks).  The
  exit code follows the worst finding (0 clean/info, 1 warning,
  2 error);
* ``analyze``    -- abstract interpretation range report: how each
  design style's plan behaves over the spec inflated to process-corner
  intervals, without running the concrete synthesizer; or, with
  ``--topology``, the structural report for a synthesized test case or
  a foreign deck -- recognized blocks, derived symmetry / matching
  constraints (``--format json`` emits the machine-readable set);
* ``batch``      -- parallel batch synthesis: expand a task grid
  (``--testcase`` cases and/or a base spec crossed over ``--sweep``
  axes and ``--corners``, or a ``--grid`` JSON file), run it on
  ``--jobs`` worker processes with optional result caching
  (``--cache`` / ``--cache-dir``), and emit one JSON record per task
  (JSONL, grid order -- byte-identical for any ``--jobs``);
* ``serve``      -- long-lived HTTP/JSON service over the same
  machinery: bounded admission with structured backpressure, deadline
  admission control, supervised worker pools, honest ``/healthz`` /
  ``/readyz`` / ``/metrics``, and graceful SIGTERM drain.

All quantity arguments accept SPICE suffixes (``10p``, ``2MEG``...).
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, List, Optional

from .errors import ReproError

if TYPE_CHECKING:
    from .kb.specs import OpAmpSpec
    from .process import ProcessParameters

__all__ = ["main", "build_parser", "package_version"]


def package_version() -> str:
    """The package version (``repro --version``), pinned to pyproject.toml."""
    from . import __version__

    return __version__


#: Test-case aliases: the paper labels plus 1/2/3 shorthands.
_TESTCASE_ALIASES = {"1": "A", "2": "B", "3": "C"}


def _process_from_args(args) -> ProcessParameters:
    from .process import builtin_processes, load_technology

    if args.tech:
        return load_technology(args.tech)
    processes = builtin_processes()
    if args.process not in processes:
        raise ReproError(
            f"unknown process {args.process!r}; built-ins: {sorted(processes)}"
        )
    return processes[args.process]


def _add_process_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--process",
        default="generic-5um",
        help="built-in process name (default: generic-5um)",
    )
    parser.add_argument(
        "--tech", default=None, help="technology file overriding --process"
    )


def _add_spec_arguments(
    parser: argparse.ArgumentParser, required: bool = True
) -> None:
    """The OpAmpSpec flags shared by synthesize / analyze / lint."""
    parser.add_argument(
        "--gain-db", required=required, default=None, help="min DC gain, dB"
    )
    parser.add_argument(
        "--ugf",
        required=required,
        default=None,
        help="min unity-gain frequency, Hz",
    )
    parser.add_argument("--pm", default="60", help="min phase margin, deg (soft)")
    parser.add_argument(
        "--slew", required=required, default=None, help="min slew rate, V/s"
    )
    parser.add_argument(
        "--load", required=required, default=None, help="load capacitance, F"
    )
    parser.add_argument(
        "--swing",
        required=required,
        default=None,
        help="min +- output swing, V",
    )
    parser.add_argument("--offset", default="50m", help="max offset, V (default 50m)")
    parser.add_argument("--power-max", default="0", help="max static power, W (0 = off)")


_SPEC_FLAGS = ("gain_db", "ugf", "slew", "load", "swing")


def _spec_from_args(args) -> OpAmpSpec:
    from .kb.specs import OpAmpSpec
    from .units import parse_quantity

    missing = [
        "--" + name.replace("_", "-")
        for name in _SPEC_FLAGS
        if getattr(args, name) is None
    ]
    if missing:
        raise ReproError(
            f"incomplete specification: missing {', '.join(missing)}"
        )
    return OpAmpSpec(
        gain_db=parse_quantity(args.gain_db),
        unity_gain_hz=parse_quantity(args.ugf),
        phase_margin_deg=parse_quantity(args.pm),
        slew_rate=parse_quantity(args.slew),
        load_capacitance=parse_quantity(args.load),
        output_swing=parse_quantity(args.swing),
        offset_max_mv=parse_quantity(args.offset) * 1e3,
        power_max=parse_quantity(args.power_max),
    )


def _read_netlist(path: str) -> str:
    """The netlist file's text, unreadable paths as a clean CLI error."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ReproError(
            f"cannot read netlist {path!r}: {exc.strerror or exc}"
        ) from exc


def _spec_or_testcase(args) -> OpAmpSpec:
    """The specification from ``--testcase`` (if given) or the flags."""
    label = getattr(args, "testcase", None)
    if label:
        from .opamp.testcases import paper_test_cases

        return paper_test_cases()[_TESTCASE_ALIASES.get(label, label)]
    return _spec_from_args(args)


def build_parser() -> argparse.ArgumentParser:
    from .obs.events import TRACE_FORMATS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="OASYS reproduction: knowledge-based analog circuit synthesis",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {package_version()}",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    # synthesize ---------------------------------------------------------
    syn = commands.add_parser(
        "synthesize",
        aliases=["design", "synth"],
        help="spec -> sized op amp schematic",
    )
    _add_spec_arguments(syn, required=False)
    syn.add_argument(
        "--testcase",
        choices=sorted("ABC") + sorted(_TESTCASE_ALIASES),
        default=None,
        help="use the paper's Table 2 case A/B/C (or 1/2/3) as the "
        "specification instead of the spec flags",
    )
    syn.add_argument(
        "--styles",
        choices=["paper", "extended"],
        default="paper",
        help="style catalogue: the paper's two styles, or + folded cascode",
    )
    syn.add_argument("--verify", action="store_true", help="measure with the simulator")
    syn.add_argument("--spice", default=None, help="write the SPICE deck to this file")
    syn.add_argument("--trace", action="store_true", help="print the design trace")
    syn.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="record the run (timed spans + metrics + design events) "
        "and write the trace to FILE",
    )
    syn.add_argument(
        "--trace-format",
        choices=list(TRACE_FORMATS),
        default="jsonl",
        help="trace file format: jsonl (structured records), chrome "
        "(load in Perfetto / chrome://tracing), text (flame summary) "
        "(default: jsonl)",
    )
    syn.add_argument(
        "--precheck",
        action="store_true",
        help="run the static feasibility gate before the plan executor",
    )
    syn.add_argument(
        "--budget-ms",
        default=None,
        type=float,
        help="wall-clock budget for the whole synthesis, milliseconds; "
        "exceeding it raises BudgetExceeded (or, with --best-effort, "
        "yields a partial result)",
    )
    syn.add_argument(
        "--best-effort",
        action="store_true",
        help="never fail the process on an unsynthesizable spec: report "
        "per-style failures (convergence/budget/plan/internal) and exit "
        "3 when no style succeeded",
    )
    _add_process_arguments(syn)

    # testcases ----------------------------------------------------------
    cases = commands.add_parser("testcases", help="regenerate the paper's Table 2")
    cases.add_argument(
        "--no-verify", action="store_true", help="skip the simulator columns"
    )
    _add_process_arguments(cases)

    # adc ----------------------------------------------------------------
    adc = commands.add_parser("adc", help="design a SAR A/D converter")
    adc.add_argument("--bits", type=int, default=8)
    adc.add_argument("--rate", default="20k", help="sample rate, S/s")
    adc.add_argument("--fullscale", default="5", help="input full scale, V")
    _add_process_arguments(adc)

    # processes ----------------------------------------------------------
    procs = commands.add_parser("processes", help="list built-in processes")
    procs.add_argument("--table1", default=None, help="print Table 1 for this process")

    # lint ---------------------------------------------------------------
    lint = commands.add_parser(
        "lint",
        help="static diagnostics (ERC + knowledge-base lint)",
        description="Run the ERC pass over a SPICE deck or a synthesized "
        "built-in test case, and/or the knowledge-base self-check.  The "
        "process exit code is the worst severity found: 0 clean or info, "
        "1 warning, 2 error.",
    )
    lint.add_argument(
        "netlist",
        nargs="?",
        default=None,
        help="SPICE deck to lint (subcircuits are flattened)",
    )
    lint.add_argument(
        "--testcase",
        choices=["A", "B", "C"],
        default=None,
        help="synthesize the paper's Table 2 case and lint its netlist",
    )
    lint.add_argument(
        "--self-check",
        action="store_true",
        help="lint every registered topology template (the CI gate)",
    )
    lint.add_argument(
        "--feasibility",
        action="store_true",
        help="interval feasibility pass (FEAS4xx/RULE5xx): abstractly "
        "execute the design plans over the spec given by --testcase or "
        "the spec flags, or over every built-in test case with "
        "--self-check, without running the concrete synthesizer",
    )
    lint.add_argument(
        "--topology",
        action="store_true",
        help="structural topology pass (TOPO6xx): recognize sub-blocks "
        "over the device-net graph and check diff-pair symmetry, "
        "mirror ratios and tail sharing; applies to the netlist, "
        "--testcase, or every built-in case with --self-check",
    )
    lint.add_argument(
        "--dataflow",
        action="store_true",
        help="whole-plan dataflow pass (FLOW7xx) over every registered "
        "topology template: per-step effect summaries, reaching "
        "definitions and liveness over the plan CFG with rule restart "
        "edges",
    )
    lint.add_argument(
        "--units",
        action="store_true",
        help="dimensional analysis pass (DIM8xx) over every registered "
        "template: propagate V/A/s/m exponent vectors through the plan "
        "arithmetic and flag incompatible equations",
    )
    lint.add_argument(
        "--corner",
        type=float,
        default=0.05,
        help="relative process-corner spread for --feasibility "
        "(default: 0.05)",
    )
    lint.add_argument(
        "--format",
        choices=["text", "json", "github"],
        default="text",
        dest="format",
        help="report rendering (default: text; github emits workflow "
        "annotations)",
    )
    lint.add_argument(
        "--select",
        default=None,
        help="comma-separated diagnostic codes to run exclusively",
    )
    lint.add_argument(
        "--ignore",
        default=None,
        help="comma-separated diagnostic codes to suppress",
    )
    _add_spec_arguments(lint, required=False)
    _add_process_arguments(lint)

    # analyze ------------------------------------------------------------
    analyze = commands.add_parser(
        "analyze",
        help="abstract-interpretation range report for a specification",
        description="Abstractly execute every design style's plan over "
        "the specification inflated to process-corner intervals and "
        "report the resulting variable ranges and feasibility verdicts "
        "(never invoking the concrete synthesizer); or, with "
        "--topology, the structural topology report -- recognized "
        "sub-blocks, derived symmetry/matching constraints and TOPO6xx "
        "findings -- for a synthesized --testcase or a foreign "
        "--netlist deck.  Exit code follows the findings (0 clean/info, "
        "1 warning, 2 error).",
    )
    _add_spec_arguments(analyze, required=False)
    analyze.add_argument(
        "--testcase",
        choices=sorted("ABC") + sorted(_TESTCASE_ALIASES),
        default=None,
        help="use the paper's Table 2 case A/B/C (or 1/2/3) as the "
        "specification instead of the spec flags",
    )
    analyze.add_argument(
        "--netlist",
        default=None,
        metavar="FILE",
        help="SPICE deck to analyze structurally (needs --topology)",
    )
    analyze.add_argument(
        "--topology",
        action="store_true",
        help="structural topology analysis of the synthesized schematic "
        "(--testcase / spec flags) or a parsed deck (--netlist): "
        "recognized blocks, constraints, TOPO6xx diagnostics",
    )
    analyze.add_argument(
        "--dataflow",
        action="store_true",
        help="plan dataflow report for every registered topology "
        "template: per-step effect summaries, rule restart edges, and "
        "the FLOW7xx + DIM8xx findings (static; needs no spec)",
    )
    analyze.add_argument(
        "--format",
        choices=["text", "json"],
        default="text",
        dest="format",
        help="report rendering (default: text)",
    )
    analyze.add_argument(
        "--corner",
        type=float,
        default=0.05,
        help="relative process-corner spread (default: 0.05)",
    )
    _add_process_arguments(analyze)

    # stats --------------------------------------------------------------
    stats = commands.add_parser(
        "stats",
        help="observability report: span flame summary + run metrics",
        description="Run an observed synthesis for --testcase (or the "
        "spec flags) and print the timed-span flame summary and metrics "
        "snapshot, or -- when given a trace file -- summarize a "
        "previously recorded JSONL trace without running anything.",
    )
    stats.add_argument(
        "tracefile",
        nargs="?",
        default=None,
        help="JSONL trace written by synthesize --trace-out (summarized "
        "instead of running a synthesis)",
    )
    stats.add_argument(
        "--testcase",
        choices=sorted("ABC") + sorted(_TESTCASE_ALIASES),
        default=None,
        help="synthesize the paper's Table 2 case under observation",
    )
    stats.add_argument(
        "--cache",
        action="store_true",
        help="synthesize once and verify the design twice under a result "
        "cache (cold run then warm rerun), then print the report and the "
        "hit/miss statistics",
    )
    stats.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="back the --cache run with a persistent disk cache at DIR "
        "(implies --cache)",
    )
    _add_spec_arguments(stats, required=False)
    _add_process_arguments(stats)

    # batch --------------------------------------------------------------
    batch = commands.add_parser(
        "batch",
        help="parallel batch synthesis over a spec grid",
        description="Expand a task grid (test cases and/or a base spec "
        "swept over --sweep axes, crossed with process corners), run it "
        "on a worker pool, and write one JSON record per task (JSONL, "
        "grid order).  Failures are contained per task; the exit code "
        "is 0 when every task produced a design, 3 otherwise.",
    )
    batch.add_argument(
        "--testcase",
        action="append",
        dest="testcases",
        choices=sorted("ABC") + sorted(_TESTCASE_ALIASES),
        default=None,
        help="add a paper Table 2 case to the grid (repeatable)",
    )
    _add_spec_arguments(batch, required=False)
    batch.add_argument(
        "--sweep",
        action="append",
        default=None,
        metavar="NAME=START:STOP:STEP",
        help="sweep a spec axis over the base spec given by the spec "
        "flags: name=start:stop:step, name=v1,v2,... or name=value; "
        "repeatable, axes cross-product (e.g. --sweep gain=60:80:5)",
    )
    batch.add_argument(
        "--corners",
        default="typical",
        help="comma-separated process corners: typical,fast,slow "
        "(default: typical)",
    )
    batch.add_argument(
        "--grid",
        default=None,
        metavar="FILE",
        help="JSON grid file (testcases/base/sweeps/corners); exclusive "
        "with --testcase/--sweep/spec flags",
    )
    batch.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes (default: 1 = inline; 0 = one per CPU)",
    )
    batch.add_argument(
        "--retries",
        type=int,
        default=1,
        help="re-runs for a task whose worker crashed (default: 1)",
    )
    batch.add_argument(
        "--cache",
        action="store_true",
        help="memoize task results and DC operating points in-process "
        "(add --cache-dir to persist across runs)",
    )
    batch.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="disk cache directory shared by workers and reruns "
        "(implies --cache)",
    )
    batch.add_argument(
        "--verify", action="store_true", help="measure each design with the simulator"
    )
    batch.add_argument(
        "--precheck",
        action="store_true",
        help="static feasibility gate before each plan execution",
    )
    batch.add_argument(
        "--styles",
        choices=["paper", "extended"],
        default="paper",
        help="style catalogue (as in synthesize)",
    )
    batch.add_argument(
        "--budget-ms",
        type=float,
        default=None,
        help="wall-clock budget per task, milliseconds",
    )
    batch.add_argument(
        "--observe",
        action="store_true",
        help="collect per-task metrics and print the merged snapshot",
    )
    batch.add_argument(
        "--collect-trace",
        action="store_true",
        help="include each task's design-trace events in its record",
    )
    batch.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="write JSONL records here (default: stdout)",
    )
    _add_process_arguments(batch)

    # serve --------------------------------------------------------------
    serve = commands.add_parser(
        "serve",
        help="long-lived HTTP/JSON synthesis service",
        description="Serve synthesize/batch/lint/analyze over HTTP/JSON "
        "with bounded admission (structured 429 backpressure, deadline "
        "admission control), worker supervision (stalled or dead pools "
        "are replaced under the service), honest /healthz and /readyz, "
        "/metrics, and graceful drain on SIGTERM/SIGINT (exit 0 when "
        "every in-flight request settled inside the drain deadline).",
    )
    serve.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: 127.0.0.1)"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (default: 0 = ephemeral, printed at startup)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="worker pool width (default: 1)",
    )
    serve.add_argument(
        "--mode",
        choices=["process", "thread"],
        default="process",
        help="worker isolation: process pool (default) or in-process "
        "threads (deterministic, for tests and demos)",
    )
    serve.add_argument(
        "--queue-depth",
        type=int,
        default=64,
        metavar="N",
        help="bounded admission queue depth (default: 64); beyond it "
        "requests get a structured 429 with a retry-after hint",
    )
    serve.add_argument(
        "--drain-deadline-ms",
        type=float,
        default=10_000.0,
        metavar="MS",
        help="how long SIGTERM waits for in-flight work (default: 10000)",
    )
    serve.add_argument(
        "--job-timeout-ms",
        type=float,
        default=None,
        metavar="MS",
        help="per-job stall timeout; a job past it gets a structured "
        "worker_stall error and the pool is replaced (default: none)",
    )
    serve.add_argument(
        "--retries",
        type=int,
        default=1,
        help="resubmissions for a job whose worker died (default: 1)",
    )
    serve.add_argument(
        "--heartbeat-s",
        type=float,
        default=None,
        metavar="S",
        help="worker liveness probe period (process mode; default: off)",
    )
    serve.add_argument(
        "--cache",
        action="store_true",
        help="share a warm result cache across served jobs "
        "(add --cache-dir to persist)",
    )
    serve.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="disk cache directory for served jobs (implies --cache)",
    )

    # slo ----------------------------------------------------------------
    slo = commands.add_parser(
        "slo",
        help="evaluate latency/error SLOs",
        description="Evaluate declarative SLO targets against a "
        "recorded JSONL trace (--trace) or a live /metrics endpoint "
        "(--metrics-url).  Exit 0 when every target holds, 4 on any "
        "violation.",
    )
    slo.add_argument(
        "--targets",
        default=None,
        metavar="FILE",
        help="JSON file with {'targets': [{name, p95_ms, ...}, ...]}",
    )
    slo.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="JSONL trace (synthesize --trace-out) to evaluate targets "
        "against (kind=span targets)",
    )
    slo.add_argument(
        "--metrics-url",
        default=None,
        metavar="URL",
        help="live metrics endpoint, e.g. http://host:port/metrics "
        "(kind=histogram targets; '?format=json' is appended if no "
        "query is given)",
    )

    return parser


def _cmd_synthesize(args) -> int:
    from contextlib import nullcontext

    from .obs import RunReport, Tracer
    from .opamp import EXTENDED_STYLES, OPAMP_STYLES, synthesize
    from .circuit import to_spice

    process = _process_from_args(args)
    spec = _spec_or_testcase(args)
    styles = EXTENDED_STYLES if args.styles == "extended" else OPAMP_STYLES
    # One tracer spans synthesis and verification.
    tracer = Tracer() if args.trace_out else None
    with tracer.activate() if tracer is not None else nullcontext():
        result = synthesize(
            spec,
            process,
            styles=styles,
            precheck=args.precheck,
            best_effort=args.best_effort,
            budget_ms=args.budget_ms,
        )
        print(result.summary())
        if result.ok:
            print(result.best.schematic())
        if args.trace:
            print("Design trace")
            print("============")
            print(result.trace.render())
        if result.ok and args.spice:
            deck = to_spice(result.best.standalone_circuit(), process=process)
            with open(args.spice, "w", encoding="utf-8") as handle:
                handle.write(deck)
            print(f"SPICE deck written to {args.spice}")
        if result.ok and args.verify:
            from .opamp import verify_opamp

            report = verify_opamp(result.best)
            print("Simulator verification")
            print("======================")
            for key in sorted(report.measured):
                print(f"  {key:<18} {report.measured[key]:.4g}")
            for key, note in report.notes.items():
                print(f"  {key}: {note}")
    if tracer is not None:
        run = RunReport.from_tracer(
            tracer, result.trace.to_dicts(), result.report.meta
        )
        run.write(args.trace_out, args.trace_format)
        print(
            f"Trace ({args.trace_format}, {len(run.spans)} spans) "
            f"written to {args.trace_out}"
        )
    # A best-effort run with no surviving style: the failure reports
    # (already rendered by summary()) are the product; exit 3 so batch
    # drivers can count them without parsing.
    return 0 if result.ok else 3


def _cmd_testcases(args) -> int:
    from .opamp import synthesize
    from .opamp.testcases import paper_test_cases
    from .reporting import table2_report

    process = _process_from_args(args)
    designs, reports = {}, {}
    for label, spec in paper_test_cases().items():
        print(f"designing case {label}...", file=sys.stderr)
        designs[label] = synthesize(spec, process).best
        if not args.no_verify:
            from .opamp import verify_opamp

            reports[label] = verify_opamp(designs[label])
    print(table2_report(designs, reports or None))
    return 0


def _cmd_adc(args) -> int:
    from .adc import SarAdcSpec, design_sar_adc
    from .units import parse_quantity

    process = _process_from_args(args)
    spec = SarAdcSpec(
        bits=args.bits,
        sample_rate=parse_quantity(args.rate),
        v_full_scale=parse_quantity(args.fullscale),
    )
    adc = design_sar_adc(spec, process)
    print(adc.summary())
    print()
    print(adc.hierarchy.render())
    return 0


def _cmd_processes(args) -> int:
    from .process import builtin_processes
    from .reporting import table1_report

    processes = builtin_processes()
    if args.table1:
        if args.table1 not in processes:
            raise ReproError(f"unknown process {args.table1!r}")
        print(table1_report(processes[args.table1]))
        return 0
    for name, process in processes.items():
        print(
            f"{name:<14} vdd={process.vdd:+.1f} V vss={process.vss:+.1f} V "
            f"Lmin={process.min_length * 1e6:.1f} um "
            f"K'n={process.nmos.kp * 1e6:.0f} uA/V^2"
        )
    return 0


def _cmd_lint(args) -> int:
    from .lint import LintReport, lint_circuit, lint_spice_deck

    select = args.select.split(",") if args.select else None
    ignore = args.ignore.split(",") if args.ignore else None
    spec_flags_given = any(
        getattr(args, name) is not None for name in _SPEC_FLAGS
    )
    targets = [
        bool(args.netlist),
        bool(args.testcase),
        args.self_check,
        args.feasibility and spec_flags_given,
        args.dataflow,
        args.units,
    ]
    if not any(targets):
        raise ReproError(
            "nothing to lint: give a netlist file, --testcase, --self-check, "
            "--dataflow, --units, or --feasibility with specification flags"
        )
    report = LintReport()
    if args.dataflow:
        from .lint import lint_dataflow

        report.extend(lint_dataflow(select=select, ignore=ignore))
    if args.units:
        from .lint import lint_units

        report.extend(lint_units(select=select, ignore=ignore))
    if args.feasibility:
        from .lint import lint_feasibility

        process = _process_from_args(args)
        if spec_flags_given:
            feas_pairs = (("user", _spec_from_args(args)),)
        elif args.testcase:
            from .opamp.testcases import paper_test_cases

            feas_pairs = (
                (args.testcase, paper_test_cases()[args.testcase]),
            )
        elif args.self_check:
            feas_pairs = None  # the whole built-in suite
        else:
            raise ReproError(
                "--feasibility needs a specification: give the spec flags, "
                "--testcase, or --self-check"
            )
        report.extend(
            lint_feasibility(
                specs=feas_pairs,
                process=process,
                corner=args.corner,
                select=select,
                ignore=ignore,
            )
        )
    if args.netlist:
        text = _read_netlist(args.netlist)
        process = _process_from_args(args)
        deck_report = lint_spice_deck(text, process=process, name=args.netlist)
        if select is not None or ignore is not None:
            select_set = set(select) if select is not None else None
            ignore_set = set(ignore or ())
            deck_report = LintReport(
                [
                    d
                    for d in deck_report
                    if d.code not in ignore_set
                    and (select_set is None or d.code in select_set)
                ]
            )
        report.extend(deck_report)
        if args.topology:
            from .circuit.netlist_io import parse_deck
            from .errors import NetlistError
            from .lint import lint_topology

            try:
                circuit, _subckts = parse_deck(text, name=args.netlist)
            except NetlistError:
                # The deck findings above already explain the failure.
                pass
            else:
                _analysis, topo_report = lint_topology(
                    circuit, process=process, select=select, ignore=ignore
                )
                report.extend(topo_report)
    if args.testcase and not args.feasibility:
        from .opamp import synthesize
        from .opamp.testcases import paper_test_cases

        process = _process_from_args(args)
        spec = paper_test_cases()[args.testcase]
        print(f"synthesizing case {args.testcase}...", file=sys.stderr)
        best = synthesize(spec, process).best
        circuit = best.standalone_circuit()
        report.extend(
            lint_circuit(
                circuit,
                process=process,
                select=select,
                ignore=ignore,
            )
        )
        if args.topology:
            from .lint import lint_topology

            _analysis, topo_report = lint_topology(
                circuit, process=process, select=select, ignore=ignore
            )
            report.extend(topo_report)
    if args.self_check:
        from .lint import lint_knowledge_base

        report.extend(lint_knowledge_base())
        if args.topology:
            # Structural regression oracle: every synthesized style must
            # be fully recognized (unrecognized clusters are TOPO601).
            from .lint import lint_topology
            from .opamp import synthesize
            from .opamp.testcases import paper_test_cases

            process = _process_from_args(args)
            for label, spec in sorted(paper_test_cases().items()):
                print(
                    f"synthesizing case {label} for the topology "
                    f"self-check...",
                    file=sys.stderr,
                )
                best = synthesize(spec, process).best
                _analysis, topo_report = lint_topology(
                    best.standalone_circuit(),
                    process=process,
                    select=select,
                    ignore=ignore,
                )
                report.extend(topo_report)
    print(report.render(args.format))
    return report.exit_code()


def _analyze_dataflow(args) -> int:
    import json

    from .lint import LintReport, build_cfg, lint_dataflow, lint_units
    from .lint.kblint import DEFAULT_PRESETS
    from .opamp.designer import OPAMP_CATALOG

    report = LintReport()
    report.extend(lint_dataflow())
    report.extend(lint_units())
    templates = []
    for template in OPAMP_CATALOG:
        plan = template.build_plan()
        rules = list(template.build_rules())
        preset = DEFAULT_PRESETS.get(template.block_type, frozenset())
        cfg = build_cfg(plan, rules, preset=preset)
        summaries = plan.effect_summaries()
        templates.append((template, plan, cfg, summaries))
    if args.format == "json":
        payload = {
            "templates": [
                {
                    "template": f"{t.block_type}/{t.style}",
                    "steps": [s.to_dict() for s in summaries.values()],
                    "restart_edges": [
                        {
                            "rule": e.rule,
                            "source": plan.steps[e.source].name,
                            "target": plan.steps[e.target].name,
                            "recovery": e.recovery,
                        }
                        for e in cfg.restart_edges
                    ],
                }
                for t, plan, cfg, summaries in templates
            ],
            "diagnostics": [d.to_dict() for d in report],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return report.exit_code()
    for t, plan, cfg, summaries in templates:
        print(f"== {t.block_type}/{t.style} ({len(plan)} steps, "
              f"{len(cfg.rules)} rules) ==")
        for summary in summaries.values():
            parts = []
            if summary.reads:
                parts.append("reads " + ", ".join(summary.reads))
            if summary.writes:
                parts.append("writes " + ", ".join(summary.writes))
            if summary.choices_written:
                parts.append("chooses " + ", ".join(summary.choices_written))
            if summary.emits:
                parts.append("emits " + ", ".join(summary.emits))
            if summary.pure:
                parts.append("pure")
            print(f"  {summary.name}: {'; '.join(parts) or '-'}")
        by_rule = {}
        for edge in cfg.restart_edges:
            key = (edge.rule, edge.target, edge.recovery)
            by_rule.setdefault(key, []).append(plan.steps[edge.source].name)
        for (rule, target, recovery), sources in sorted(by_rule.items()):
            kind = "recovery" if recovery else "monitor"
            print(
                f"  rule {rule} ({kind}): restart -> "
                f"{plan.steps[target].name} after {', '.join(sources)}"
            )
        print()
    if len(report):
        print(report.render_text())
    else:
        print("dataflow + units: clean, no diagnostics")
    return report.exit_code()


def _cmd_analyze(args) -> int:
    from .lint import lint_feasibility, render_analysis

    if args.dataflow:
        return _analyze_dataflow(args)
    process = _process_from_args(args)
    if args.topology:
        import json

        from .lint import lint_topology

        if args.netlist:
            from .circuit.netlist_io import parse_deck

            text = _read_netlist(args.netlist)
            circuit, _subckts = parse_deck(text, name=args.netlist)
        else:
            from .opamp import synthesize

            spec = _spec_or_testcase(args)
            print("synthesizing...", file=sys.stderr)
            circuit = synthesize(spec, process).best.standalone_circuit()
        analysis, report = lint_topology(circuit, process=process)
        if args.format == "json":
            payload = analysis.to_dict()
            payload["diagnostics"] = [d.to_dict() for d in report]
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print(analysis.render_text())
            if len(report):
                print()
                print(report.render_text())
        return report.exit_code()
    if args.netlist:
        raise ReproError("--netlist analysis needs --topology")
    spec = _spec_or_testcase(args)
    report = lint_feasibility(spec, process=process, corner=args.corner)
    if args.format == "json":
        print(report.render("json"))
    else:
        print(render_analysis(spec, process=process, corner=args.corner))
        print()
        print(report.render_text())
    return report.exit_code()


def _cmd_stats(args) -> int:
    from .obs.export import summarize_jsonl

    if args.tracefile:
        with open(args.tracefile, "r", encoding="utf-8") as handle:
            print(summarize_jsonl(handle.read()))
        return 0

    from contextlib import nullcontext

    from .cache import ResultCache, cache_scope
    from .obs import RunReport, Tracer
    from .opamp import synthesize

    spec_flags_given = any(
        getattr(args, name) is not None for name in _SPEC_FLAGS
    )
    if not args.testcase and not spec_flags_given:
        raise ReproError(
            "nothing to report on: give a JSONL trace file, --testcase, "
            "or the specification flags"
        )
    process = _process_from_args(args)
    spec = _spec_or_testcase(args)
    cache = None
    if args.cache or args.cache_dir:
        # Loaded before the tracer starts, so the report's span coverage
        # holds the run, not the simulator import.
        from .opamp import verify_opamp

        cache = ResultCache(disk_dir=args.cache_dir)
    # One tracer spans synthesis and, under a cache, both verifications:
    # synthesis itself is analytic, the cache earns its keep on the
    # simulator's DC operating points, so verify twice -- cold then warm.
    tracer = Tracer()
    with cache_scope(cache) if cache else nullcontext(), tracer.activate():
        result = synthesize(spec, process)
        if cache is not None and result.best is not None:
            verify_opamp(result.best)  # cold: populate
            verify_opamp(result.best)  # warm: hits
    assert result.report is not None  # an active tracer guarantees one
    run = RunReport.from_tracer(tracer, result.trace.to_dicts(), result.report.meta)
    print(run.summary())
    if cache is not None:
        print()
        print(cache.render_stats())
    return 0


def _cmd_batch(args) -> int:
    from .batch import (
        build_tasks,
        default_jobs,
        expand_sweeps,
        load_grid,
        parse_sweep,
        run_batch,
    )

    process = _process_from_args(args)
    use_cache = args.cache or bool(args.cache_dir)
    styles = None
    if args.styles == "extended":
        from .opamp import EXTENDED_STYLES

        styles = EXTENDED_STYLES
    options = dict(
        styles=styles,
        verify=args.verify,
        precheck=args.precheck,
        budget_wall_ms=args.budget_ms,
        use_cache=use_cache,
        cache_dir=args.cache_dir,
        observe=args.observe,
        collect_trace=args.collect_trace,
    )
    spec_flags_given = any(
        getattr(args, name) is not None for name in _SPEC_FLAGS
    )
    if args.grid:
        if args.testcases or args.sweep or spec_flags_given:
            raise ReproError(
                "--grid is exclusive with --testcase/--sweep/spec flags "
                "(put them in the grid file)"
            )
        tasks = load_grid(args.grid, process, **options)
    else:
        labeled = []
        for label in args.testcases or ():
            from .opamp.testcases import paper_test_cases

            canon = _TESTCASE_ALIASES.get(label, label)
            labeled.append((f"case-{canon}", paper_test_cases()[canon]))
        sweeps = {}
        for text in args.sweep or ():
            field, values = parse_sweep(text)
            sweeps[field] = values
        if spec_flags_given:
            labeled.extend(expand_sweeps(_spec_from_args(args), sweeps))
        elif sweeps:
            raise ReproError(
                "--sweep needs a base specification (the spec flags)"
            )
        if not labeled:
            raise ReproError(
                "empty grid: give --testcase, spec flags (+ --sweep), "
                "or --grid FILE"
            )
        corners = tuple(
            c.strip() for c in args.corners.split(",") if c.strip()
        )
        tasks = build_tasks(labeled, process, corners=corners, **options)

    jobs = args.jobs if args.jobs > 0 else default_jobs()
    tracer = None
    if args.observe:
        from .obs import Tracer

        tracer = Tracer()

    def run():
        results = list(run_batch(tasks, jobs=jobs, retries=args.retries))
        results.sort(key=lambda r: r.index)
        return results

    if tracer is not None:
        with tracer.activate():
            results = run()
    else:
        results = run()

    lines = "".join(result.to_json() + "\n" for result in results)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(lines)
    else:
        sys.stdout.write(lines)

    ok = sum(1 for r in results if r.ok)
    hits = sum(1 for r in results if r.record.get("cache") == "hit")
    summary = (
        f"batch: {len(results)} tasks on {jobs} worker(s): "
        f"{ok} ok, {len(results) - ok} failed"
    )
    if use_cache:
        summary += f", {hits} cached"
    print(summary, file=sys.stderr)
    if tracer is not None:
        from .obs.export import render_metrics

        print(render_metrics(tracer.metrics.snapshot()), file=sys.stderr)
    return 0 if ok == len(results) else 3


def _cmd_serve(args) -> int:
    from .serve import ServeConfig, run_server

    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=max(1, args.workers),
        mode=args.mode,
        queue_depth=args.queue_depth,
        drain_deadline_ms=args.drain_deadline_ms,
        job_timeout_ms=args.job_timeout_ms,
        retries=args.retries,
        heartbeat_s=args.heartbeat_s,
        use_cache=bool(args.cache or args.cache_dir),
        cache_dir=args.cache_dir,
    )
    return run_server(config)


def _cmd_slo(args) -> int:
    import json as _json

    from .obs.slo import (
        evaluate_snapshot,
        evaluate_trace,
        load_targets,
        render_checks,
    )

    if not args.targets or not (args.trace or args.metrics_url):
        raise ReproError("give --targets FILE with --trace/--metrics-url")
    try:
        targets = load_targets(args.targets)
    except (OSError, ValueError) as exc:
        raise ReproError(f"bad targets file: {exc}") from exc
    if args.trace:
        with open(args.trace, "r", encoding="utf-8") as handle:
            checks = evaluate_trace(handle.read(), targets)
    else:
        import urllib.request

        url = args.metrics_url
        if "?" not in url:
            url += "?format=json"
        with urllib.request.urlopen(url, timeout=30.0) as response:
            payload = _json.loads(response.read().decode("utf-8"))
        # Accept both the serve payload ({"metrics": snapshot, ...})
        # and a bare registry snapshot.
        snapshot = payload.get("metrics", payload)
        checks = evaluate_snapshot(snapshot, targets)
    print(render_checks(checks))
    return 4 if any(not c.ok for c in checks) else 0


_COMMANDS = {
    "synthesize": _cmd_synthesize,
    "design": _cmd_synthesize,  # alias
    "synth": _cmd_synthesize,  # alias
    "testcases": _cmd_testcases,
    "adc": _cmd_adc,
    "processes": _cmd_processes,
    "lint": _cmd_lint,
    "analyze": _cmd_analyze,
    "stats": _cmd_stats,
    "batch": _cmd_batch,
    "serve": _cmd_serve,
    "slo": _cmd_slo,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
