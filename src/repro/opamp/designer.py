"""Top-level OASYS synthesis: design-style selection over op amp styles.

"We currently attempt to design each style, and if both can meet the
specification, select the one with the best match to the specifications,
biasing the choice in favor of the design with the smallest estimated
area.  Area estimates include both active device area and compensation
capacitor area."

:func:`synthesize` designs every registered style to completion
(breadth-first), then picks the winner by (fewest soft-spec violations,
smallest estimated area).  Styles whose plans abort are reported as
infeasible candidates, with their failure reasons preserved.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..errors import SynthesisError
from ..kb.plans import DesignState, PlanExecutor
from ..kb.selection import breadth_first_select
from ..kb.specs import OpAmpSpec
from ..kb.templates import StyleCatalog
from ..kb.trace import DesignTrace
from ..obs.report import RunReport
from ..obs.spans import Tracer, current_tracer
from ..obs.spans import NULL_SPAN, NullSpan
from ..obs.spans import count as metric_count
from ..obs.spans import gauge as metric_gauge
from ..obs.spans import span as obs_span
from ..obs.telemetry import current_trace_id
from ..process.parameters import ProcessParameters
from ..resilience import Budget, FailureReport
from ..resilience.faults import fault_point
from .folded_cascode import FOLDED_CASCODE_TEMPLATE, package_folded_cascode
from .ota_onestage import ONE_STAGE_TEMPLATE, package_one_stage
from .result import DesignedOpAmp, SynthesisResult
from .twostage import TWO_STAGE_TEMPLATE, package_two_stage

__all__ = [
    "OPAMP_CATALOG",
    "OPAMP_STYLES",
    "EXTENDED_STYLES",
    "design_style",
    "synthesize",
]

#: The op amp style catalogue.  The first two entries are the 1987
#: prototype's fixed alternatives; folded_cascode is the Section 5
#: expansion and is *not* part of the default selection set, so the
#: paper's experiments reproduce unchanged.
OPAMP_CATALOG = StyleCatalog("opamp")
OPAMP_CATALOG.register(ONE_STAGE_TEMPLATE)
OPAMP_CATALOG.register(TWO_STAGE_TEMPLATE)
OPAMP_CATALOG.register(FOLDED_CASCODE_TEMPLATE)

#: The paper-faithful default style set.
OPAMP_STYLES: Tuple[str, ...] = ("one_stage", "two_stage")

#: The Section 5 extended set (opt in via ``synthesize(styles=...)``).
EXTENDED_STYLES: Tuple[str, ...] = ("one_stage", "two_stage", "folded_cascode")

_PACKAGERS = {
    "one_stage": package_one_stage,
    "two_stage": package_two_stage,
    "folded_cascode": package_folded_cascode,
}


def design_style(
    style: str,
    spec: OpAmpSpec,
    process: ProcessParameters,
    trace: Optional[DesignTrace] = None,
    strict: bool = False,
    budget: Optional[Budget] = None,
) -> DesignedOpAmp:
    """Design one op amp style to completion (translation + sizing).

    Args:
        strict: run the full ERC lint pass over the packaged netlist and
            refuse (raise :class:`~repro.errors.LintError`) when it has
            any error-severity finding.  The shipped topologies are
            ERC-clean; this is a fast-fail gate for modified templates.
        budget: optional resilience budget carried on the design state;
            the plan executor checks it between steps.

    Raises:
        SynthesisError: when the style cannot meet the specification even
            after its rules have patched the plan.
        LintError: in strict mode, when the packaged netlist fails ERC.
        BudgetExceeded: when the budget trips mid-plan.
    """
    template = OPAMP_CATALOG[style]
    trace = trace if trace is not None else DesignTrace()
    state = DesignState(spec.to_specification(), process, budget=budget)
    state.set("opamp_spec", spec)
    state.set("trace", trace)
    executor = PlanExecutor(template.build_plan(), template.build_rules())
    executor.execute(state, trace=trace, block=f"opamp/{style}")
    fault_point("opamp.package")
    designed = _PACKAGERS[style](state, spec, trace)
    if strict:
        # Imported lazily: repro.lint imports the circuit package.
        from ..lint import assert_erc_clean

        assert_erc_clean(
            designed.standalone_circuit(),
            process=process,
            context=f"opamp/{style}",
        )
    return designed


def synthesize(
    spec: OpAmpSpec,
    process: ProcessParameters,
    styles: Optional[Tuple[str, ...]] = None,
    strict: bool = False,
    precheck: bool = False,
    best_effort: bool = False,
    budget: Optional[Budget] = None,
    budget_ms: Optional[float] = None,
    observe: bool = False,
) -> SynthesisResult:
    """Synthesize a sized op amp schematic from a performance spec.

    This is the OASYS entry point: breadth-first style selection over
    the catalogue, each style designed by its own plan with rule
    patching, winner chosen by (soft violations, estimated area).

    Args:
        spec: performance specification (Table 2 parameters).
        process: fabrication-process description (Table 1 parameters).
        styles: optional style subset (used by the ablation benches).
        strict: ERC-gate every candidate netlist (see
            :func:`design_style`).  A candidate failing the gate is
            isolated like any other candidate failure and recorded in
            its :class:`~repro.resilience.FailureReport`.
        precheck: run the static feasibility gate (interval abstract
            interpretation, see :mod:`repro.lint.feasibility`) before
            the concrete plan executor.  Styles that provably cannot
            design the spec are pruned -- recorded in the trace with
            their failure reasons, never executed -- and when *every*
            style is pruned the whole synthesis fails fast in a few
            milliseconds instead of grinding through doomed plans.
        best_effort: never raise for a failed synthesis.  Candidate
            failures of every kind (convergence / budget / plan /
            internal, including injected faults) are converted to
            :class:`~repro.resilience.FailureReport` entries on the
            returned result; when no style succeeds the result has
            ``best is None`` and ``ok`` False.  This is the batch-
            workload mode: one pathological spec can never take down a
            dataset-generation run.
        budget: resilience budget for the whole call (wall-clock,
            per-style/step scopes, Newton iterations).  Installed as
            the ambient budget for the duration, so nested solver
            loops honour it too.
        budget_ms: convenience: shorthand for
            ``budget=Budget(wall_ms=budget_ms)``.
        observe: record hierarchical timed spans and run metrics for
            this call.  A fresh :class:`~repro.obs.Tracer` is created
            (unless one is already ambient, in which case it is used),
            and the result carries a
            :class:`~repro.obs.RunReport` under ``result.report``.
            When False (the default) and no ambient tracer is active,
            every instrumentation point is a no-op and
            ``result.report`` is None -- observability costs nothing
            unless switched on.

    Returns:
        A :class:`SynthesisResult`; with ``best_effort`` it may be
        partial (check ``result.ok``).

    Raises:
        SynthesisError: when no style can meet the specification (with
            ``precheck``, possibly before any plan executes) -- unless
            ``best_effort``.
        BudgetExceeded: when the budget trips before any style
            succeeds -- unless ``best_effort``.
        LintError: in strict mode, when a candidate netlist fails ERC
            and no other style succeeds -- unless ``best_effort``.
    """
    trace = DesignTrace()
    tracer = current_tracer()
    owned: Optional[Tracer] = None
    if observe and tracer is None:
        owned = Tracer()
        tracer = owned

    def run() -> SynthesisResult:
        if best_effort:
            try:
                return _synthesize(
                    spec, process, styles, strict, precheck, True, budget,
                    budget_ms, trace,
                )
            except Exception as exc:  # noqa: BLE001 - the best-effort contract
                # Last-ditch containment: anything the isolation layers
                # below did not convert (a bug in selection itself, a fault
                # injected outside any candidate) still becomes a report.
                trace.failure("opamp", f"synthesis failed: {exc}")
                return SynthesisResult(
                    best=None,
                    candidates=[],
                    trace=trace,
                    failures=[
                        FailureReport.from_exception(exc, recoverable=False)
                    ],
                )
        return _synthesize(
            spec, process, styles, strict, precheck, False, budget,
            budget_ms, trace,
        )

    if owned is not None:
        with owned.activate():
            result = run()
    else:
        result = run()
    if tracer is not None:
        meta = {
            "label": "synthesize",
            "process": process.name,
            "ok": result.ok,
            "winner": result.best.style if result.best else None,
        }
        trace_id = current_trace_id()
        if trace_id is not None:
            meta["trace_id"] = trace_id
        result.report = RunReport.from_tracer(
            tracer, events=trace.to_dicts(), meta=meta
        )
    return result


def _synthesize(
    spec: OpAmpSpec,
    process: ProcessParameters,
    styles: Optional[Tuple[str, ...]],
    strict: bool,
    precheck: bool,
    best_effort: bool,
    budget: Optional[Budget],
    budget_ms: Optional[float],
    trace: DesignTrace,
) -> SynthesisResult:
    styles = tuple(styles) if styles is not None else OPAMP_STYLES
    if budget is None and budget_ms is not None:
        budget = Budget(wall_ms=budget_ms)
    if budget is not None:
        budget.start()
        budget.check(block="opamp", step="start")
    # Written out twice so the observability-disabled path neither
    # formats span attributes nor pays a context-manager enter/exit.
    if current_tracer() is not None:
        with obs_span(
            "synthesize", category="synthesis", styles=",".join(styles)
        ) as root_span:
            return _synthesize_under_span(
                spec, process, styles, strict, precheck, best_effort,
                budget, trace, root_span,
            )
    return _synthesize_under_span(
        spec, process, styles, strict, precheck, best_effort, budget,
        trace, NULL_SPAN,
    )


def _synthesize_under_span(
    spec: OpAmpSpec,
    process: ProcessParameters,
    styles: Tuple[str, ...],
    strict: bool,
    precheck: bool,
    best_effort: bool,
    budget: Optional[Budget],
    trace: DesignTrace,
    root_span: NullSpan,
) -> SynthesisResult:
    if precheck:
        # Imported lazily: repro.lint imports the circuit package.
        from ..lint import precheck_styles

        with obs_span("precheck", category="synthesis"):
            gate = precheck_styles(spec, process, styles)
        pruned_reports = []
        for style in styles:
            if style in gate.pruned:
                metric_count("selection.pruned", block="opamp", style=style)
                trace.note(
                    f"opamp/{style}",
                    f"precheck: {gate.reason(style)} "
                    f"(abstract pass, {gate.elapsed_ms:.1f} ms)",
                )
                pruned_reports.append(
                    FailureReport.from_exception(
                        SynthesisError(
                            f"precheck: {gate.reason(style)}",
                            block=f"opamp/{style}",
                        ),
                        style=style,
                    )
                )
        if not gate.viable:
            reasons = "; ".join(
                f"{style}: {gate.reason(style)}" for style in styles
            )
            exc = SynthesisError(
                "opamp: specification statically infeasible for every "
                f"style ({reasons})"
            )
            if best_effort:
                return SynthesisResult(
                    best=None,
                    candidates=[],
                    trace=trace,
                    failures=pruned_reports or [FailureReport.from_exception(exc)],
                )
            raise exc
        styles = gate.viable

    def design_one(style: str):
        style_trace = DesignTrace()
        try:
            if budget is not None:
                with budget.style_scope(style, block=f"opamp/{style}"):
                    designed = design_style(
                        style, spec, process, trace=style_trace,
                        strict=strict, budget=budget,
                    )
            else:
                designed = design_style(
                    style, spec, process, trace=style_trace, strict=strict
                )
        finally:
            # Keep whatever the plan recorded, even for failed styles:
            # failure forensics need the trace more than successes do.
            trace.extend(style_trace)
        return designed, designed.area, designed.soft_violation_count()

    def run_selection():
        return breadth_first_select(
            list(styles),
            design_one,
            trace=trace,
            block="opamp",
            budget=budget,
            require_feasible=not best_effort,
        )

    if budget is not None:
        with budget.active():
            winner, candidates = run_selection()
    else:
        winner, candidates = run_selection()

    if winner is not None:
        root_span.set("winner", winner.style)
    root_span.set("feasible", sum(1 for c in candidates if c.feasible))
    root_span.set("candidates", len(candidates))
    if budget is not None:
        # Budget consumption, as gauges: how much of the run's resource
        # envelope this synthesis actually used.
        metric_gauge("budget.elapsed_ms", budget.elapsed_ms())
        metric_gauge(
            "budget.newton_iterations_used", budget.iterations_used
        )
        if budget.wall_ms is not None:
            metric_gauge("budget.wall_ms_limit", budget.wall_ms)

    failures = [c.failure for c in candidates if c.failure is not None]
    return SynthesisResult(
        best=winner.result if winner is not None else None,
        candidates=candidates,
        trace=trace,
        failures=failures,
    )
