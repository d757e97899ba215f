"""Pass 2: static lint over plans, rules and templates (the KB).

The paper's Figure 3 machinery executes plans and fires patch rules at
run time; this pass analyses the same objects *without executing them*.
Plan steps and rule actions are plain Python callables, so the analysis
is source-level: each callable's AST is walked for the
:class:`~repro.kb.plans.DesignState` protocol --
``state.get/set/get_or/has`` for design variables,
``state.choose/choice`` for sub-block style slots, and
``Restart(<step>, ...)`` control literals -- recursing one call deep
into helpers that receive the state.

The analysis is deliberately *optimistic*: anything it cannot resolve
statically (a lambda whose source will not parse, a computed variable
name) is skipped rather than reported, so a diagnostic from this pass is
close to certain.  Unanalysable step actions are surfaced as PLAN204
infos so coverage gaps stay visible.

Code map:

======= ======== =========================================================
code    severity finding
======= ======== =========================================================
PLAN201 error    a step hard-reads a design variable no earlier step (or
                 preset, or rule patch) can have set
PLAN202 error    a rule restarts at a nonexistent step, or a recovery
                 rule's restart target lies after every step it patches
                 (guaranteed :class:`~repro.errors.PlanError` at run time)
PLAN202 warning  a recovery restart target lies after *some* of the steps
                 it patches (fires only for the earlier failures)
PLAN203 error    ``on_failure_steps`` names a step the plan does not have
PLAN204 info     a step action could not be analysed statically
KB301   warning  a rule references a style slot neither declared in the
                 template's sub-blocks nor used by any plan step
KB302   warning  a declared sub-block slot is never produced (mentioned)
                 by any plan step
KB303   error    the template cannot even be materialised (``build_plan``
                 / ``build_rules`` raise, duplicate rule names, ...)
======= ======== =========================================================
"""

from __future__ import annotations

import ast
import inspect
import textwrap
import types
import weakref
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..kb.plans import Plan
from ..kb.rules import Rule
from ..kb.templates import TopologyTemplate
from .diagnostics import Diagnostic, LintReport, Severity
from .registry import KB_REGISTRY

__all__ = [
    "StateUsage",
    "analyze_callable",
    "KbContext",
    "lint_plan",
    "lint_template",
    "lint_knowledge_base",
    "DEFAULT_PRESETS",
]

#: Variables the driver seeds into the state before executing a plan,
#: keyed by block type (see ``opamp/designer.py::design_style``).
DEFAULT_PRESETS: Dict[str, FrozenSet[str]] = {
    "opamp": frozenset({"opamp_spec", "trace"}),
}

#: How many call levels deep the analysis follows state-taking helpers.
_MAX_DEPTH = 3


# ----------------------------------------------------------------------
# Source-level usage analysis
# ----------------------------------------------------------------------
@dataclass
class StateUsage:
    """What one callable (plus its state-taking helpers) does to the
    design state, as far as the source reveals statically."""

    reads: Set[str] = field(default_factory=set)
    soft_reads: Set[str] = field(default_factory=set)
    writes: Set[str] = field(default_factory=set)
    choices_read: Set[str] = field(default_factory=set)
    choices_written: Set[str] = field(default_factory=set)
    restart_targets: List[str] = field(default_factory=list)
    source: str = ""
    resolved: bool = True

    def merge(self, other: "StateUsage") -> None:
        self.reads |= other.reads
        self.soft_reads |= other.soft_reads
        self.writes |= other.writes
        self.choices_read |= other.choices_read
        self.choices_written |= other.choices_written
        self.restart_targets.extend(other.restart_targets)
        self.source += "\n" + other.source
        self.resolved = self.resolved and other.resolved

    @property
    def slots(self) -> Set[str]:
        return self.choices_read | self.choices_written


def _function_node(
    func: types.FunctionType, tree: ast.AST, start_line: int
) -> Optional[ast.AST]:
    """Locate ``func``'s own def/lambda node inside a parsed block."""
    target_line = func.__code__.co_firstlineno - start_line + 1
    name = getattr(func, "__name__", "")
    candidates: List[ast.AST] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name == name or name == "<lambda>":
                candidates.append(node)
        elif isinstance(node, ast.Lambda) and name == "<lambda>":
            candidates.append(node)
    if not candidates:
        return None
    # Prefer the node starting on the callable's own line.
    for node in candidates:
        if node.lineno == target_line:
            return node
    return candidates[0] if len(candidates) == 1 else None


class ParsedCallable(NamedTuple):
    """A callable's dedented source and its own def/lambda node."""

    source: str
    node: ast.AST


#: Weakly keyed, so a parsed function is dropped with the function.
_PARSED: "weakref.WeakKeyDictionary[types.FunctionType, Optional[ParsedCallable]]" = (
    weakref.WeakKeyDictionary()
)


def parse_callable(func: object) -> Optional[ParsedCallable]:
    """``func``'s source and def/lambda node, parsed once per function
    and shared by every static pass (KB lint, dataflow, units,
    feasibility).  None when ``func`` is not a plain function, its
    source is unavailable or unparsable, or its node is ambiguous."""
    if not isinstance(func, types.FunctionType):
        return None
    if func not in _PARSED:
        try:
            lines, start_line = inspect.getsourcelines(func)
            text = textwrap.dedent("".join(lines))
            node = _function_node(func, ast.parse(text), start_line)
        except (OSError, TypeError, SyntaxError):
            node = None
        _PARSED[func] = None if node is None else ParsedCallable(text, node)
    return _PARSED[func]


def _state_param(node: ast.AST) -> Optional[str]:
    """The name of the parameter holding the design state."""
    args = node.args.args if hasattr(node, "args") else []
    for arg in args:
        annotation = getattr(arg, "annotation", None)
        text = ast.dump(annotation) if annotation is not None else ""
        if "DesignState" in text:
            return arg.arg
    for arg in args:
        if arg.arg in ("state", "s", "design_state"):
            return arg.arg
    return args[0].arg if args else None


def _const_str(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


class _UsageVisitor(ast.NodeVisitor):
    def __init__(self, state_name: Optional[str]):
        self.state_name = state_name
        self.usage = StateUsage()
        self.helper_calls: List[str] = []

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        # state.<method>("literal", ...)
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == self.state_name
        ):
            literal = _const_str(node.args[0]) if node.args else None
            if literal is not None:
                if func.attr == "get":
                    self.usage.reads.add(literal)
                elif func.attr == "set":
                    self.usage.writes.add(literal)
                elif func.attr in ("get_or", "has"):
                    self.usage.soft_reads.add(literal)
                elif func.attr == "choice":
                    self.usage.choices_read.add(literal)
                elif func.attr == "choose":
                    self.usage.choices_written.add(literal)
        # Restart("step", ...) control literals.
        callee = ""
        if isinstance(func, ast.Name):
            callee = func.id
        elif isinstance(func, ast.Attribute):
            callee = func.attr
        if callee == "Restart" and node.args:
            target = _const_str(node.args[0])
            if target is not None:
                self.usage.restart_targets.append(target)
        # Helper functions receiving the state: follow them.
        if isinstance(func, ast.Name) and self.state_name is not None:
            passes_state = any(
                isinstance(arg, ast.Name) and arg.id == self.state_name
                for arg in node.args
            )
            if passes_state:
                self.helper_calls.append(func.id)
        self.generic_visit(node)


_ANALYSIS_CACHE: Dict[object, StateUsage] = {}


def analyze_callable(
    func: Callable[..., Any],
    depth: int = _MAX_DEPTH,
    _seen: Optional[Set[object]] = None,
) -> StateUsage:
    """Statically analyse one callable's use of the design state.

    Follows plain-function helpers that are passed the state object, up
    to ``depth`` levels.  Returns a :class:`StateUsage` with
    ``resolved=False`` when the source is unavailable or unparsable.
    """
    cached = _ANALYSIS_CACHE.get(func)
    if cached is not None and _seen is None:
        return cached
    _seen = set(_seen or ())
    usage = StateUsage()
    if not isinstance(func, types.FunctionType) or func in _seen:
        usage.resolved = False
        return usage
    _seen.add(func)
    parsed = parse_callable(func)
    if parsed is None:
        usage.resolved = False
        _ANALYSIS_CACHE[func] = usage
        return usage
    visitor = _UsageVisitor(_state_param(parsed.node))
    visitor.visit(parsed.node)
    usage = visitor.usage
    usage.source = parsed.source
    if depth > 0:
        for helper_name in visitor.helper_calls:
            helper = func.__globals__.get(helper_name)
            if isinstance(helper, types.FunctionType):
                usage.merge(analyze_callable(helper, depth - 1, _seen))
    # Helper recursion may legitimately hit unparsable leaves; the
    # top-level callable itself resolved, which is what PLAN204 tracks.
    usage.resolved = True
    _ANALYSIS_CACHE[func] = usage
    return usage


# ----------------------------------------------------------------------
# Registry plumbing
# ----------------------------------------------------------------------
@dataclass
class KbContext:
    """Context handed to every KB checker; caches the materialised plan
    so each checker does not rebuild it."""

    preset: Optional[FrozenSet[str]] = None
    _materialised: Dict[str, tuple] = field(default_factory=dict)

    def materialize(
        self, template: TopologyTemplate
    ) -> Optional[Tuple[Plan, List[Rule]]]:
        """Build (plan, rules) once; None when the factories raise (the
        integrity checker reports that case)."""
        key = f"{template.block_type}/{template.style}"
        if key not in self._materialised:
            try:
                plan = template.build_plan()
                rules = list(template.build_rules())
                names = [r.name for r in rules]
                if len(set(names)) != len(names):
                    raise ValueError(f"duplicate rule names: {sorted(names)}")
            except Exception as exc:  # noqa: BLE001 - report, don't crash
                self._materialised[key] = (None, exc)
            else:
                self._materialised[key] = ((plan, rules), None)
        built, _exc = self._materialised[key]
        return built

    def materialize_error(self, template: TopologyTemplate) -> Optional[BaseException]:
        self.materialize(template)
        key = f"{template.block_type}/{template.style}"
        return self._materialised[key][1]

    def effective_preset(self, template: TopologyTemplate) -> FrozenSet[str]:
        if self.preset is not None:
            return self.preset
        return DEFAULT_PRESETS.get(template.block_type, frozenset())


def _tloc(template: TopologyTemplate, detail: str = "") -> str:
    base = f"{template.block_type}/{template.style}"
    return f"{base}:{detail}" if detail else base


@KB_REGISTRY.register("template-integrity", ["KB303"], structural=True)
def check_template_integrity(
    template: TopologyTemplate, context: KbContext
) -> Iterator[Diagnostic]:
    """The template's plan and rule factories must produce a coherent
    plan (unique step names, unique rule names) without raising."""
    if context.materialize(template) is None:
        exc = context.materialize_error(template)
        yield Diagnostic(
            "KB303",
            Severity.ERROR,
            f"template cannot be materialised: {exc}",
            location=_tloc(template),
            suggestion="fix build_plan()/build_rules() so they construct "
            "cleanly",
        )


@KB_REGISTRY.register("read-before-set", ["PLAN201", "PLAN204"])
def check_read_before_set(
    template: TopologyTemplate, context: KbContext
) -> Iterator[Diagnostic]:
    """Walking the steps in order, a hard ``state.get`` of a variable
    that no earlier step, preset, or rule patch can have written is a
    guaranteed :class:`~repro.errors.PlanError` on the happy path."""
    built = context.materialize(template)
    if built is None:
        return
    plan, rules = built
    available: Set[str] = set(context.effective_preset(template))
    # Rule actions may patch variables before restarting; optimistic.
    for rule in rules:
        available |= analyze_callable(rule.action).writes
    for step in plan:
        usage = analyze_callable(step.action)
        if not usage.resolved:
            yield Diagnostic(
                "PLAN204",
                Severity.INFO,
                f"step {step.name!r}: action source could not be analysed "
                f"statically (coverage gap)",
                location=_tloc(template, step.name),
            )
            continue
        for name in sorted(usage.reads - available - usage.writes):
            yield Diagnostic(
                "PLAN201",
                Severity.ERROR,
                f"step {step.name!r} reads design variable {name!r} that "
                f"no earlier step sets",
                location=_tloc(template, step.name),
                suggestion="set the variable in an earlier step or switch "
                "to state.get_or with a default",
            )
        available |= usage.writes


@KB_REGISTRY.register("restart-targets", ["PLAN202"])
def check_restart_targets(
    template: TopologyTemplate, context: KbContext
) -> Iterator[Diagnostic]:
    """Every ``Restart`` literal must name a real step; a recovery rule
    must restart at or before the steps whose failures it patches, or
    the executor raises :class:`~repro.errors.PlanError` at run time."""
    built = context.materialize(template)
    if built is None:
        return
    plan, rules = built
    names = {step.name: index for index, step in enumerate(plan)}
    for rule in rules:
        usage = analyze_callable(rule.action)
        for target in usage.restart_targets:
            if target not in names:
                yield Diagnostic(
                    "PLAN202",
                    Severity.ERROR,
                    f"rule {rule.name!r} restarts at nonexistent step "
                    f"{target!r}",
                    location=_tloc(template, rule.name),
                    suggestion=f"use one of: {sorted(names)}",
                )
                continue
            if not rule.on_failure or rule.on_failure_steps is None:
                continue
            failure_indices = [
                names[s] for s in rule.on_failure_steps if s in names
            ]
            if not failure_indices:
                continue
            target_index = names[target]
            if target_index > max(failure_indices):
                yield Diagnostic(
                    "PLAN202",
                    Severity.ERROR,
                    f"recovery rule {rule.name!r} restarts at {target!r} "
                    f"(step {target_index}), after every step it patches; "
                    f"the executor will reject the jump as a restart loop "
                    f"that cannot converge",
                    location=_tloc(template, rule.name),
                    suggestion="restart at or before the failing step",
                )
            elif target_index > min(failure_indices):
                yield Diagnostic(
                    "PLAN202",
                    Severity.WARNING,
                    f"recovery rule {rule.name!r} restarts at {target!r} "
                    f"(step {target_index}), after some of the steps it "
                    f"patches; those earlier failures cannot be recovered",
                    location=_tloc(template, rule.name),
                    suggestion="restart at or before the earliest patched "
                    "step",
                )


@KB_REGISTRY.register("failure-step-names", ["PLAN203"])
def check_failure_step_names(
    template: TopologyTemplate, context: KbContext
) -> Iterator[Diagnostic]:
    """``on_failure_steps`` entries must exist in the plan, else the rule
    can never fire (a silently dead patch)."""
    built = context.materialize(template)
    if built is None:
        return
    plan, rules = built
    names = {step.name for step in plan}
    for rule in rules:
        for step_name in rule.on_failure_steps or ():
            if step_name not in names:
                yield Diagnostic(
                    "PLAN203",
                    Severity.ERROR,
                    f"rule {rule.name!r} scopes to unknown step "
                    f"{step_name!r}; the patch can never fire for it",
                    location=_tloc(template, rule.name),
                    suggestion=f"use one of: {sorted(names)}",
                )


@KB_REGISTRY.register("choice-slots", ["KB301"])
def check_choice_slots(
    template: TopologyTemplate, context: KbContext
) -> Iterator[Diagnostic]:
    """A rule that reads or sets a style slot neither declared in the
    template's sub-blocks nor touched by any plan step is referencing a
    choice nothing will ever consume (usually a typo)."""
    built = context.materialize(template)
    if built is None:
        return
    plan, rules = built
    declared = {slot for slot, _type in template.sub_blocks}
    plan_slots: Set[str] = set()
    for step in plan:
        plan_slots |= analyze_callable(step.action).slots
    known = declared | plan_slots
    for rule in rules:
        rule_slots = (
            analyze_callable(rule.action).slots
            | analyze_callable(rule.condition).slots
        )
        for slot in sorted(rule_slots - known):
            yield Diagnostic(
                "KB301",
                Severity.WARNING,
                f"rule {rule.name!r} references style slot {slot!r}, which "
                f"is neither a declared sub-block nor used by any plan step",
                location=_tloc(template, rule.name),
                suggestion=f"declared slots: {sorted(declared)}",
            )


@KB_REGISTRY.register("unproduced-sub-blocks", ["KB302"])
def check_unproduced_sub_blocks(
    template: TopologyTemplate, context: KbContext
) -> Iterator[Diagnostic]:
    """Every declared sub-block slot should be *produced* by the plan --
    mentioned by some step (name, source, or style choice).  A slot the
    plan never touches is dead weight in the template declaration.

    The mention test is a deliberately loose substring match (slot name,
    or its leading/trailing underscore components) so naming variations
    like ``left_load_mirror`` vs. ``load_mirror`` do not false-positive.
    """
    built = context.materialize(template)
    if built is None:
        return
    plan, _rules = built
    mention_text_parts: List[str] = []
    slots_chosen: Set[str] = set()
    for step in plan:
        usage = analyze_callable(step.action)
        mention_text_parts.append(step.name)
        mention_text_parts.append(usage.source)
        slots_chosen |= usage.slots
    mention_text = "\n".join(mention_text_parts)
    for slot, _block_type in template.sub_blocks:
        if slot in slots_chosen:
            continue
        probes = {slot}
        parts = slot.split("_")
        if len(parts) > 1:
            probes.add("_".join(parts[1:]))  # drop a leading qualifier
            probes.add("_".join(parts[:-1]))  # drop a trailing qualifier
        if any(probe and probe in mention_text for probe in probes):
            continue
        yield Diagnostic(
            "KB302",
            Severity.WARNING,
            f"declared sub-block slot {slot!r} is never produced by any "
            f"plan step",
            location=_tloc(template, slot),
            suggestion="add a plan step designing it, or drop the slot "
            "from the template declaration",
        )


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def lint_template(
    template: TopologyTemplate,
    preset: Optional[FrozenSet[str]] = None,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> LintReport:
    """Run the full KB pass over one topology template."""
    return KB_REGISTRY.run(
        template,
        KbContext(preset=preset),
        select=select,
        ignore=ignore,
    )


def lint_plan(
    plan: Plan,
    rules: Sequence[Rule] = (),
    preset: Optional[FrozenSet[str]] = None,
    block_type: str = "block",
    sub_blocks: Tuple[Tuple[str, str], ...] = (),
) -> LintReport:
    """Lint a bare plan + rules without a template, by wrapping them in
    an anonymous one (useful for unit tests and ad-hoc plans)."""
    template = TopologyTemplate(
        block_type=block_type,
        style=plan.name,
        build_plan=lambda: plan,
        build_rules=lambda: list(rules),
        sub_blocks=sub_blocks,
    )
    return lint_template(template, preset=preset)


def lint_knowledge_base(
    catalogs: Optional[Iterable[Any]] = None,
    preset: Optional[FrozenSet[str]] = None,
) -> LintReport:
    """Self-check every registered template (the CI gate).

    Args:
        catalogs: iterable of :class:`~repro.kb.templates.StyleCatalog`;
            defaults to the op amp catalogue.
        preset: overrides the per-block-type preset variables.
    """
    if catalogs is None:
        from ..opamp.designer import OPAMP_CATALOG  # local: avoid cycles

        catalogs = [OPAMP_CATALOG]
    report = LintReport()
    for catalog in catalogs:
        for template in catalog:
            report.extend(lint_template(template, preset=preset))
    return report
