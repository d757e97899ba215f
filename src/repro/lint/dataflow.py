"""Pass 5: whole-plan dataflow analysis (effect summaries + FLOW7xx).

The KB pass (:mod:`repro.lint.kblint`) checks each step and rule in
isolation against a linear walk of the plan.  This pass assembles the
*actual* control-flow graph -- sequential step edges plus the restart
edges contributed by recovery and monitor rules -- and runs two classic
dataflow analyses over per-step **effect summaries**:

* MAY-reaching definitions (forward): which variables can possibly be
  defined when a step starts, on *some* execution path;
* liveness (backward): which variables some later step or rule can
  still read.

Effect summaries are derived statically from each callable's AST (the
:func:`~repro.lint.kblint.analyze_callable` machinery), so nothing is
executed.

Like the KB pass, the analysis is optimistic: reaching definitions are
MAY (a conditional write counts as a definition), so a FLOW701 means
the variable is undefined on *every* path -- close to certain a bug.
Writes that survive to plan exit are presumed consumed by the packaging
helpers that read the finished blackboard, so they are never "dead".

Code map:

======= ======== =========================================================
code    severity finding
======= ======== =========================================================
FLOW701 error    a step hard-reads a variable with no reaching definition
                 on any path (preset, earlier step, or rule patch)
FLOW702 warning  a variable is written by several steps but read by none:
                 every write but the last is dead, and the last is
                 unobservable
FLOW703 warning  a rule patch writes a variable that is not live at any
                 of the rule's restart targets (the patch cannot change
                 the resumed execution)
FLOW704 error    a monitor rule's forward restart skips steps that hold
                 the only definition of a variable the resumed suffix
                 hard-reads
FLOW705 warning  a style slot is chosen but never consumed: no step or
                 rule reads it and the template does not declare it
======= ======== =========================================================
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..kb.plans import Plan
from ..kb.rules import Rule
from ..kb.templates import TopologyTemplate
from ..obs.spans import count, span
from .diagnostics import Diagnostic, LintReport, Severity
from .kblint import KbContext, StateUsage, analyze_callable
from .registry import CheckerRegistry

__all__ = [
    "EffectSummary",
    "plan_effect_summaries",
    "rule_effect_summary",
    "RestartEdge",
    "PlanCFG",
    "build_cfg",
    "reaching_definitions",
    "live_variables",
    "DataflowContext",
    "FLOW_REGISTRY",
    "lint_template_dataflow",
    "lint_plan_dataflow",
    "lint_dataflow",
]

#: Registry for the FLOW7xx whole-plan dataflow checkers.
FLOW_REGISTRY = CheckerRegistry("dataflow")

#: Sub-block designer calls counted as spec emissions in a summary.
_EMIT_RE = re.compile(r"(?<![\w])(design_[a-z0-9_]+)\s*\(")


# ----------------------------------------------------------------------
# Effect summaries
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EffectSummary:
    """What one plan step (or rule) does to the design state, as a
    hashable value object.

    This is the exported face of the AST analysis: ``reads`` are hard
    ``state.get`` variables, ``soft_reads`` come from ``get_or``/``has``,
    ``emits`` are the sub-block designer calls (``design_*``) found in
    the source.  ``pure`` steps write nothing -- the contract batch
    caching and compositional style generation can rely on.
    """

    name: str
    reads: Tuple[str, ...] = ()
    soft_reads: Tuple[str, ...] = ()
    writes: Tuple[str, ...] = ()
    choices_read: Tuple[str, ...] = ()
    choices_written: Tuple[str, ...] = ()
    restart_targets: Tuple[str, ...] = ()
    emits: Tuple[str, ...] = ()
    resolved: bool = True

    @property
    def pure(self) -> bool:
        """True when the step observably changes nothing: no variable
        writes, no style choices, no sub-block emissions."""
        return not (self.writes or self.choices_written or self.emits)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "reads": list(self.reads),
            "soft_reads": list(self.soft_reads),
            "writes": list(self.writes),
            "choices_read": list(self.choices_read),
            "choices_written": list(self.choices_written),
            "restart_targets": list(self.restart_targets),
            "emits": list(self.emits),
            "pure": self.pure,
            "resolved": self.resolved,
        }


def _summary_from_usage(name: str, usage: StateUsage) -> EffectSummary:
    emits = sorted(set(_EMIT_RE.findall(usage.source)))
    return EffectSummary(
        name=name,
        reads=tuple(sorted(usage.reads)),
        soft_reads=tuple(sorted(usage.soft_reads)),
        writes=tuple(sorted(usage.writes)),
        choices_read=tuple(sorted(usage.choices_read)),
        choices_written=tuple(sorted(usage.choices_written)),
        restart_targets=tuple(usage.restart_targets),
        emits=tuple(emits),
        resolved=usage.resolved,
    )


def plan_effect_summaries(plan: Plan) -> Dict[str, EffectSummary]:
    """Static effect summaries for every step, keyed by step name, in
    plan order (this backs :meth:`repro.kb.plans.Plan.effect_summaries`)."""
    return {
        step.name: _summary_from_usage(step.name, analyze_callable(step.action))
        for step in plan
    }


def rule_effect_summary(rule: Rule) -> EffectSummary:
    """Combined effect summary of a rule's condition and action."""
    usage = StateUsage()
    usage.merge(analyze_callable(rule.condition))
    usage.merge(analyze_callable(rule.action))
    return _summary_from_usage(rule.name, usage)


# ----------------------------------------------------------------------
# The plan control-flow graph
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RestartEdge:
    """One rule-contributed CFG edge: after step ``source`` (a step
    index), rule ``rule`` may fire and resume execution at step
    ``target``."""

    rule: str
    source: int
    target: int
    recovery: bool


@dataclass
class PlanCFG:
    """The plan's control-flow graph plus per-node effect summaries.

    Nodes are step indices ``0..n-1``; the virtual entry defines the
    preset variables and the virtual exit consumes the exports.
    ``step_usage[i]`` is the AST-derived usage of step ``i``;
    ``rule_usage`` maps rule name to the *combined* condition + action
    usage, and ``rule_writes`` to the action's writes alone (the patch).
    """

    plan: Plan
    rules: List[Rule]
    preset: FrozenSet[str]
    step_usage: List[StateUsage]
    rule_usage: Dict[str, StateUsage]
    rule_writes: Dict[str, Set[str]]
    restart_edges: List[RestartEdge] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.plan.steps)

    def step_names(self) -> List[str]:
        return [step.name for step in self.plan.steps]


def build_cfg(
    plan: Plan,
    rules: Sequence[Rule] = (),
    preset: FrozenSet[str] = frozenset(),
) -> PlanCFG:
    """Assemble the CFG: sequential edges are implicit; every resolvable
    ``Restart`` literal in a rule action contributes edges from each of
    the rule's trigger steps to the restart target.

    Recovery edges whose target lies *after* their source are dropped:
    the executor rejects that jump with a :class:`~repro.errors.PlanError`
    at run time (PLAN202's finding), so no dataflow ever crosses it.
    Monitor rules have no such guard -- their forward edges stay, and
    FLOW704 audits them.
    """
    names = tuple(step.name for step in plan.steps)
    index = {name: i for i, name in enumerate(names)}
    step_usage = [analyze_callable(step.action) for step in plan.steps]
    rule_usage: Dict[str, StateUsage] = {}
    rule_writes: Dict[str, Set[str]] = {}
    edges: List[RestartEdge] = []
    for rule in rules:
        action_usage = analyze_callable(rule.action)
        combined = StateUsage()
        combined.merge(analyze_callable(rule.condition))
        combined.merge(action_usage)
        rule_usage[rule.name] = combined
        rule_writes[rule.name] = set(action_usage.writes)
        targets = [index[t] for t in action_usage.restart_targets if t in index]
        sources = [index[s] for s in rule.trigger_steps(names)]
        for target in sorted(set(targets)):
            for source in sources:
                if rule.on_failure and target > source:
                    continue  # executor raises PlanError on this jump
                edges.append(
                    RestartEdge(
                        rule=rule.name,
                        source=source,
                        target=target,
                        recovery=rule.on_failure,
                    )
                )
    return PlanCFG(
        plan=plan,
        rules=list(rules),
        preset=preset,
        step_usage=step_usage,
        rule_usage=rule_usage,
        rule_writes=rule_writes,
        restart_edges=edges,
    )


# ----------------------------------------------------------------------
# The two dataflow analyses
# ----------------------------------------------------------------------
def reaching_definitions(cfg: PlanCFG) -> List[Set[str]]:
    """MAY-reaching definitions: ``result[i]`` is the set of variables
    that can possibly be defined when step ``i`` starts, on some path.

    ``result[n]`` (one past the last step) is the exit set -- the plan's
    exports.  A restart edge carries its source's out-set *plus* the
    firing rule's patch writes (the patch runs before the jump).  A
    recovery edge optimistically includes the failed source step's own
    writes: the step may have set some of them before raising, and MAY
    analysis must not miss a possible definition.
    """
    n = len(cfg)
    reaching: List[Set[str]] = [set() for _ in range(n + 1)]
    reaching[0] |= cfg.preset
    changed = True
    while changed:
        changed = False
        for i in range(n):
            out = reaching[i] | cfg.step_usage[i].writes
            if not out <= reaching[i + 1]:
                reaching[i + 1] |= out
                changed = True
        for edge in cfg.restart_edges:
            out = (
                reaching[edge.source]
                | cfg.step_usage[edge.source].writes
                | cfg.rule_writes[edge.rule]
            )
            if not out <= reaching[edge.target]:
                reaching[edge.target] |= out
                changed = True
    return reaching


def live_variables(cfg: PlanCFG) -> List[Set[str]]:
    """Backward MAY-liveness: ``result[i]`` is the set of variables some
    step or rule *reachable from the start of step* ``i`` can read
    before redefining them.

    "Read" covers hard and soft reads (``get_or`` defaults still observe
    the variable when it is set).  Rules keep their reads live at every
    step they can fire after.  The exit set is empty: this analysis asks
    "does anything *inside the plan* still read v", which is what dead
    patch detection needs -- exports are handled separately (a write
    reaching exit is presumed consumed by the packaging helpers).
    """
    n = len(cfg)
    live: List[Set[str]] = [set() for _ in range(n + 1)]
    rule_reads_at: List[Set[str]] = [set() for _ in range(n)]
    for rule in cfg.rules:
        usage = cfg.rule_usage[rule.name]
        reads = usage.reads | usage.soft_reads
        names = tuple(step.name for step in cfg.plan.steps)
        index = {name: i for i, name in enumerate(names)}
        for source_name in rule.trigger_steps(names):
            rule_reads_at[index[source_name]] |= reads
    changed = True
    while changed:
        changed = False
        for i in range(n - 1, -1, -1):
            usage = cfg.step_usage[i]
            out = set(live[i + 1]) | rule_reads_at[i]
            for edge in cfg.restart_edges:
                if edge.source == i:
                    out |= live[edge.target]
            new_in = usage.reads | usage.soft_reads | (out - usage.writes)
            if new_in != live[i]:
                live[i] = new_in
                changed = True
    return live


# ----------------------------------------------------------------------
# Registry plumbing
# ----------------------------------------------------------------------
@dataclass
class DataflowContext(KbContext):
    """KB context extended with a cached CFG per template."""

    _cfgs: Dict[str, Optional[PlanCFG]] = field(default_factory=dict)

    def cfg(self, template: TopologyTemplate) -> Optional[PlanCFG]:
        key = f"{template.block_type}/{template.style}"
        if key not in self._cfgs:
            built = self.materialize(template)
            if built is None:
                self._cfgs[key] = None
            else:
                plan, rules = built
                self._cfgs[key] = build_cfg(
                    plan, rules, preset=self.effective_preset(template)
                )
        return self._cfgs[key]


def _floc(template: TopologyTemplate, detail: str = "") -> str:
    base = f"{template.block_type}/{template.style}"
    return f"{base}:{detail}" if detail else base


# ----------------------------------------------------------------------
# Checkers
# ----------------------------------------------------------------------
@FLOW_REGISTRY.register("read-before-write", ["FLOW701"])
def check_read_before_write(
    template: TopologyTemplate, context: DataflowContext
) -> Iterator[Diagnostic]:
    """A step hard-reads a variable that has no reaching definition on
    *any* path through the CFG (including restart paths and rule
    patches): a guaranteed :class:`~repro.errors.DesignError` whenever
    the step runs."""
    cfg = context.cfg(template)
    if cfg is None:
        return
    reaching = reaching_definitions(cfg)
    for i, step in enumerate(cfg.plan.steps):
        usage = cfg.step_usage[i]
        if not usage.resolved:
            continue  # PLAN204 already surfaces the coverage gap
        for name in sorted(usage.reads - reaching[i] - usage.writes):
            yield Diagnostic(
                "FLOW701",
                Severity.ERROR,
                f"step {step.name!r} reads design variable {name!r}, which "
                f"has no definition on any path reaching the step",
                location=_floc(template, step.name),
                suggestion="define the variable in an earlier step (or a "
                "preset), or use state.get_or with a default",
            )


@FLOW_REGISTRY.register("dead-write", ["FLOW702"])
def check_dead_write(
    template: TopologyTemplate, context: DataflowContext
) -> Iterator[Diagnostic]:
    """A variable written by two or more steps but read by no step or
    rule: each write but the last is dead, and even the last cannot be
    observed inside the plan.  Single writes are *not* flagged -- a
    lone write surviving to exit is an export for the packaging
    helpers."""
    cfg = context.cfg(template)
    if cfg is None:
        return
    writers: Dict[str, List[str]] = {}
    readers: Set[str] = set()
    for i, step in enumerate(cfg.plan.steps):
        usage = cfg.step_usage[i]
        readers |= usage.reads | usage.soft_reads
        for name in usage.writes:
            writers.setdefault(name, []).append(step.name)
    for usage in cfg.rule_usage.values():
        readers |= usage.reads | usage.soft_reads
    for name in sorted(writers):
        steps = writers[name]
        if len(steps) < 2 or name in readers:
            continue
        yield Diagnostic(
            "FLOW702",
            Severity.WARNING,
            f"design variable {name!r} is written by steps "
            f"{', '.join(repr(s) for s in steps)} but read by no step or "
            f"rule; every write but the last is dead",
            location=_floc(template, steps[0]),
            suggestion="drop the overwritten writes, or read the variable "
            "where the value was meant to be used",
        )


@FLOW_REGISTRY.register("orphaned-rule-patch", ["FLOW703"])
def check_orphaned_rule_patch(
    template: TopologyTemplate, context: DataflowContext
) -> Iterator[Diagnostic]:
    """A rule patch writes a variable that is not live at any of the
    rule's restart targets and that no rule reads: the patched value
    cannot influence the resumed execution, so the patch is a no-op --
    usually a typo'd variable name."""
    cfg = context.cfg(template)
    if cfg is None:
        return
    live = live_variables(cfg)
    names = cfg.step_names()
    index = {name: i for i, name in enumerate(names)}
    rule_reads: Set[str] = set()
    for usage in cfg.rule_usage.values():
        rule_reads |= usage.reads | usage.soft_reads
    step_reads: Set[str] = set()
    for usage in cfg.step_usage:
        step_reads |= usage.reads | usage.soft_reads
    for rule in cfg.rules:
        action_usage = analyze_callable(rule.action)
        if not action_usage.resolved:
            continue
        targets = [
            index[t] for t in action_usage.restart_targets if t in index
        ]
        for name in sorted(cfg.rule_writes[rule.name]):
            if name in rule_reads:
                continue  # another rule (or this one's condition) observes it
            if targets:
                consumed = any(name in live[t] for t in targets)
            else:
                # No restart: the patch applies in place, so any later
                # reader (steps are conservative: any step) consumes it.
                consumed = name in step_reads
            if consumed:
                continue
            yield Diagnostic(
                "FLOW703",
                Severity.WARNING,
                f"rule {rule.name!r} writes design variable {name!r}, but "
                f"the variable is not live at any of its restart targets; "
                f"the patch cannot change the resumed execution",
                location=_floc(template, rule.name),
                suggestion="check the variable name against what the "
                "restarted steps actually read",
            )


@FLOW_REGISTRY.register("restart-skips-definition", ["FLOW704"])
def check_restart_skips_definition(
    template: TopologyTemplate, context: DataflowContext
) -> Iterator[Diagnostic]:
    """A monitor rule's *forward* restart jumps past steps; if a skipped
    step holds the only definition of a variable the resumed suffix
    hard-reads, the jump lands on a guaranteed missing-variable error.

    Recovery rules cannot jump forward (the executor rejects it), so
    only monitor edges are audited."""
    cfg = context.cfg(template)
    if cfg is None:
        return
    n = len(cfg)
    reaching = reaching_definitions(cfg)
    seen: Set[Tuple[str, int, str]] = set()
    for edge in cfg.restart_edges:
        if edge.recovery or edge.target <= edge.source + 1:
            continue
        skipped = range(edge.source + 1, edge.target)
        skipped_writes: Set[str] = set()
        for i in skipped:
            skipped_writes |= cfg.step_usage[i].writes
        # What is available when the jump lands: everything that could
        # reach the source, plus the source's own writes and the patch.
        available = (
            reaching[edge.source]
            | cfg.step_usage[edge.source].writes
            | cfg.rule_writes[edge.rule]
        )
        for i in range(edge.target, n):
            usage = cfg.step_usage[i]
            needed = usage.reads - usage.writes - available
            for name in sorted(needed & skipped_writes):
                key = (edge.rule, edge.target, name)
                if key in seen:
                    continue
                seen.add(key)
                yield Diagnostic(
                    "FLOW704",
                    Severity.ERROR,
                    f"rule {edge.rule!r} restarts forward at "
                    f"{cfg.plan.steps[edge.target].name!r}, skipping the "
                    f"only definition of {name!r} that step "
                    f"{cfg.plan.steps[i].name!r} needs",
                    location=_floc(template, edge.rule),
                    suggestion="restart at or before the step defining the "
                    "variable, or have the rule patch it",
                )
            available |= usage.writes


@FLOW_REGISTRY.register("unconsumed-choice", ["FLOW705"])
def check_unconsumed_choice(
    template: TopologyTemplate, context: DataflowContext
) -> Iterator[Diagnostic]:
    """A style slot is chosen (``state.choose``) but never consumed: no
    step or rule reads it back and the template does not declare a
    matching sub-block.  The choice decorates the blackboard without
    influencing anything.

    Declared-slot matching is deliberately loose (a declared slot
    matches modulo one leading/trailing underscore qualifier) so
    ``choose("load_mirror", ...)`` satisfies a declared
    ``left_load_mirror`` -- the packager reads the choice per side."""
    cfg = context.cfg(template)
    if cfg is None:
        return
    chosen: Dict[str, str] = {}  # slot -> first choosing step/rule
    read: Set[str] = set()
    for i, step in enumerate(cfg.plan.steps):
        usage = cfg.step_usage[i]
        read |= usage.choices_read
        for slot in sorted(usage.choices_written):
            chosen.setdefault(slot, step.name)
    for rule_name, usage in cfg.rule_usage.items():
        read |= usage.choices_read
        for slot in sorted(usage.choices_written):
            chosen.setdefault(slot, rule_name)
    declared_probes: Set[str] = set()
    for slot, _block_type in template.sub_blocks:
        declared_probes.add(slot)
        parts = slot.split("_")
        if len(parts) > 1:
            declared_probes.add("_".join(parts[1:]))
            declared_probes.add("_".join(parts[:-1]))
    for slot in sorted(chosen):
        if slot in read or slot in declared_probes:
            continue
        yield Diagnostic(
            "FLOW705",
            Severity.WARNING,
            f"style slot {slot!r} is chosen by {chosen[slot]!r} but never "
            f"consumed: no step or rule reads it and no declared sub-block "
            f"matches",
            location=_floc(template, chosen[slot]),
            suggestion="read the choice where the style matters, declare "
            "the sub-block, or drop the choose()",
        )


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def lint_template_dataflow(
    template: TopologyTemplate,
    preset: Optional[FrozenSet[str]] = None,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> LintReport:
    """Run the dataflow pass over one topology template."""
    return FLOW_REGISTRY.run(
        template,
        DataflowContext(preset=preset),
        select=select,
        ignore=ignore,
    )


def lint_plan_dataflow(
    plan: Plan,
    rules: Sequence[Rule] = (),
    preset: Optional[FrozenSet[str]] = None,
    block_type: str = "block",
    sub_blocks: Tuple[Tuple[str, str], ...] = (),
) -> LintReport:
    """Lint a bare plan + rules by wrapping them in an anonymous
    template (mirrors :func:`repro.lint.kblint.lint_plan`)."""
    template = TopologyTemplate(
        block_type=block_type,
        style=plan.name,
        build_plan=lambda: plan,
        build_rules=lambda: list(rules),
        sub_blocks=sub_blocks,
    )
    return lint_template_dataflow(template, preset=preset)


def lint_dataflow(
    catalogs: Optional[Iterable[Any]] = None,
    preset: Optional[FrozenSet[str]] = None,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> LintReport:
    """Dataflow-check every registered template (the CI gate twin of
    :func:`repro.lint.kblint.lint_knowledge_base`)."""
    if catalogs is None:
        from ..opamp.designer import OPAMP_CATALOG  # local: avoid cycles

        catalogs = [OPAMP_CATALOG]
    with span("lint.dataflow", category="lint"):
        report = LintReport()
        for catalog in catalogs:
            for template in catalog:
                report.extend(
                    lint_template_dataflow(
                        template, preset=preset, select=select, ignore=ignore
                    )
                )
        count("lint.dataflow.findings", len(report))
        return report
