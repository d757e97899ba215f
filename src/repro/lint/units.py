"""Pass 6: dimensional analysis over plan arithmetic (DIM8xx).

Plan steps compute electrical quantities -- transconductances, currents,
capacitances -- as plain Python floats, so nothing stops a step from
adding a current to a voltage.  This pass runs an abstract interpreter
over each step's AST in the *dimensional* domain: every expression
evaluates to a physical dimension (:class:`repro.units.Dim`, an exponent
vector over V/A/s/m) instead of a number.

Dimensions are seeded from three places and propagated through the
arithmetic:

* specification fields (``spec.load_capacitance`` is farads);
* process parameters (the tables in :mod:`repro.process.parameters`);
* a curated attribute-name table for device results (``.gm`` is A/V).

The domain has two non-dimension values that keep the analysis
optimistic: ``POLY`` for bare numeric literals (a literal is
polymorphic -- ``0.5 * gm`` is a scale factor, ``x + 0.1`` adapts to
``x``) and ``UNKNOWN``, which absorbs anything the analysis cannot
type.  ``min``/``max``/``parallel`` *join* their operands without
flagging, because plans legitimately clamp mixed-provenance quantities
(e.g. a current floor against a gm-derived current).  A DIM801 therefore
fires only when two *concretely known, different* dimensions meet in an
additive position -- close to certain a bug.

Scaled-unit convention: variables stored in scaled units (offsets in
mV, per-micron slopes) keep the unscaled dimension, because scale
factors are dimensionless literals.  ``offset_max_mv`` is volts here.

Code map:

====== ======== ==========================================================
code   severity finding
====== ======== ==========================================================
DIM801 error    two different known dimensions meet in an add/sub/compare
DIM802 warning  a ``state.set`` stores a dimension conflicting with the
                variable's expected dimension (curated table)
DIM803 warning  a transcendental (log/exp/db/trig) of a known
                non-dimensionless quantity
DIM804 info     a stored quantity has a suspicious exponent vector
                (|exponent| > 4 or denominator > 2)
====== ======== ==========================================================
"""

from __future__ import annotations

import ast
import types
from dataclasses import dataclass, field
from fractions import Fraction
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

from ..kb.templates import TopologyTemplate
from ..obs.spans import count, span
from ..process.parameters import PARAMETER_DIMENSIONS, PROCESS_DIMENSIONS
from ..units import (
    AMPERE,
    DIMENSIONLESS,
    FARAD,
    HERTZ,
    JOULE,
    METER,
    OHM,
    SECOND,
    SIEMENS,
    VOLT,
    WATT,
    Dim,
)
from .diagnostics import Diagnostic, LintReport, Severity
from .kblint import KbContext, parse_callable
from .registry import CheckerRegistry

__all__ = [
    "DIM_REGISTRY",
    "SPEC_DIMENSIONS",
    "ATTR_DIMENSIONS",
    "VAR_DIMENSIONS",
    "DimContext",
    "analyze_template_dimensions",
    "lint_template_units",
    "lint_units",
]

#: Registry for the DIM8xx dimensional checkers.
DIM_REGISTRY = CheckerRegistry("units")

#: How many call levels deep the interpreter follows state-taking helpers.
_MAX_DEPTH = 3

VOLT_PER_SECOND = VOLT / SECOND
SQRT_SECOND = SECOND ** Fraction(1, 2)

#: Dimensions of the specification fields plans read (scaled-unit
#: convention: ``offset_max_mv`` stays volts, the mV is a scale factor).
SPEC_DIMENSIONS: Dict[str, Dim] = {
    "gain_db": DIMENSIONLESS,
    "unity_gain_hz": HERTZ,
    "phase_margin_deg": DIMENSIONLESS,
    "slew_rate": VOLT_PER_SECOND,
    "load_capacitance": FARAD,
    "output_swing": VOLT,
    "offset_max_mv": VOLT,
    "power_max": WATT,
    "area_max": METER * METER,
    "input_common_mode": VOLT,
    "input_noise_max_nv": VOLT * SQRT_SECOND,
}

#: Dimensions inferred from attribute names on device / sub-block
#: results (whatever object they hang off).  Curated: only names whose
#: meaning is unambiguous across the code base.
ATTR_DIMENSIONS: Dict[str, Dim] = {
    "gm": SIEMENS,
    "gds": SIEMENS,
    "width": METER,
    "length": METER,
    "vth": VOLT,
    "vov": VOLT,
    "vgs": VOLT,
    "vgs_magnitude": VOLT,
    "vdsat": VOLT,
    "v_required": VOLT,
    "achieved_shift": VOLT,
    "bias_current": AMPERE,
    "cc": FARAD,
    "gm_ratio": DIMENSIONLESS,
    "area": METER * METER,
    "active_area": METER * METER,
    "input_capacitance": FARAD,
    "rout": OHM,
    "rout_min": OHM,
    "rout_down": OHM,
    "rout_up": OHM,
}

#: Expected dimensions of well-known design variables (DIM802 checks
#: ``state.set`` against this).  Curated and deliberately small.
VAR_DIMENSIONS: Dict[str, Dim] = {
    "cc": FARAD,
    "i_tail": AMPERE,
    "l_mult": DIMENSIONLESS,
}

#: Dimensions of module-level numeric constants, by name.  Anything not
#: listed defaults to POLY (a dimensionless scale factor / margin).
GLOBAL_DIMENSIONS: Dict[str, Dim] = {
    "KT": JOULE,
    "IREF_DEFAULT": AMPERE,
}

#: Transcendental functions whose argument must be dimensionless.
_TRANSCENDENTAL = {
    "log", "log10", "log2", "exp", "sin", "cos", "tan",
    "asin", "acos", "atan", "db", "db20",
}

#: Functions returning a dimensionless quantity without an argument check
#: (inverse-dB and angle conversions take dimensionless inputs anyway).
_DIMENSIONLESS_RETURNS = {
    "undb", "undb20", "degrees", "radians", "atan2", "len",
}


# ----------------------------------------------------------------------
# The abstract domain
# ----------------------------------------------------------------------
class _Poly:
    """A bare numeric literal: polymorphic, unifies with anything."""

    def __repr__(self) -> str:
        return "<poly>"


class _Unknown:
    """An untypable value: absorbs every operation, flags nothing."""

    def __repr__(self) -> str:
        return "<unknown>"


POLY = _Poly()
UNKNOWN = _Unknown()


@dataclass(frozen=True)
class _Obj:
    """A structured object the interpreter tracks by kind (the state
    blackboard, the spec, the process, a device-parameter set)."""

    kind: str


_STATE = _Obj("state")
_SPEC = _Obj("spec")
_PROCESS = _Obj("process")
_DEVICE_PARAMS = _Obj("device_params")
_MATH = _Obj("math")

DimValue = Any  # Dim | _Poly | _Unknown | _Obj | Tuple[DimValue, ...]


def _join(a: DimValue, b: DimValue) -> DimValue:
    """Least upper bound without flagging: equal -> itself, POLY adapts,
    anything else -> UNKNOWN."""
    if isinstance(a, _Poly):
        return b
    if isinstance(b, _Poly):
        return a
    if isinstance(a, Dim) and isinstance(b, Dim):
        return a if a == b else UNKNOWN
    if isinstance(a, _Obj) and isinstance(b, _Obj) and a == b:
        return a
    if (
        isinstance(a, tuple)
        and isinstance(b, tuple)
        and len(a) == len(b)
    ):
        return tuple(_join(x, y) for x, y in zip(a, b))
    return UNKNOWN


def _suspicious(dim: Dim) -> bool:
    return any(
        abs(exp) > 4 or exp.denominator > 2 for exp in dim.exponents()
    )


# ----------------------------------------------------------------------
# The abstract interpreter
# ----------------------------------------------------------------------
class _DimInterpreter:
    """Evaluates one template's plan steps (then rules) in the
    dimensional domain, threading the design-variable environment
    through ``state.get``/``state.set`` in plan order."""

    def __init__(self, template: TopologyTemplate):
        self.template = template
        self.env: Dict[str, DimValue] = {}
        self.findings: List[Diagnostic] = []
        self._seen: set = set()
        self.owner = ""

    # -- diagnostics ---------------------------------------------------
    def _emit(
        self,
        code: str,
        severity: Severity,
        message: str,
        suggestion: str = "",
    ) -> None:
        base = f"{self.template.block_type}/{self.template.style}"
        location = f"{base}:{self.owner}" if self.owner else base
        key = (code, location, message)
        if key in self._seen:
            return
        self._seen.add(key)
        self.findings.append(
            Diagnostic(code, severity, message, location=location,
                       suggestion=suggestion)
        )

    # -- callables -----------------------------------------------------
    def run_callable(self, func: Any, owner: str) -> DimValue:
        self.owner = owner
        return self._eval_function(func, [_STATE], depth=_MAX_DEPTH)

    def _eval_function(
        self, func: Any, arg_values: List[DimValue], depth: int
    ) -> DimValue:
        parsed = parse_callable(func) if depth >= 0 else None
        if parsed is None:
            return UNKNOWN
        node = parsed.node
        params = [a.arg for a in node.args.args]
        local: Dict[str, DimValue] = {}
        for name, value in zip(params, arg_values):
            local[name] = value
        for name in params[len(arg_values):]:
            local[name] = UNKNOWN
        returns: List[DimValue] = []
        if isinstance(node, ast.Lambda):
            returns.append(self._eval(node.body, local, func, depth))
        else:
            self._exec_block(node.body, local, func, depth, returns)
        if not returns:
            return UNKNOWN
        result = returns[0]
        for extra in returns[1:]:
            result = _join(result, extra)
        return result

    # -- statements ----------------------------------------------------
    def _exec_block(
        self,
        body: List[ast.stmt],
        local: Dict[str, DimValue],
        func: types.FunctionType,
        depth: int,
        returns: List[DimValue],
    ) -> None:
        for stmt in body:
            self._exec(stmt, local, func, depth, returns)

    def _exec(
        self,
        stmt: ast.stmt,
        local: Dict[str, DimValue],
        func: types.FunctionType,
        depth: int,
        returns: List[DimValue],
    ) -> None:
        if isinstance(stmt, ast.Assign):
            value = self._eval(stmt.value, local, func, depth)
            for target in stmt.targets:
                self._assign(target, value, local)
        elif isinstance(stmt, ast.AugAssign):
            if isinstance(stmt.target, ast.Name):
                current = local.get(stmt.target.id, UNKNOWN)
                rhs = self._eval(stmt.value, local, func, depth)
                op = stmt.op
                fake = ast.BinOp(left=ast.Name(id="_"), op=op,
                                 right=ast.Name(id="_"))
                local[stmt.target.id] = self._binop(fake, current, rhs)
            else:
                self._eval(stmt.value, local, func, depth)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                value = self._eval(stmt.value, local, func, depth)
                if isinstance(stmt.target, ast.Name):
                    local[stmt.target.id] = value
        elif isinstance(stmt, ast.Expr):
            self._eval(stmt.value, local, func, depth)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                returns.append(self._eval(stmt.value, local, func, depth))
        elif isinstance(stmt, ast.If):
            self._eval(stmt.test, local, func, depth)
            then_local = dict(local)
            self._exec_block(stmt.body, then_local, func, depth, returns)
            else_local = dict(local)
            self._exec_block(stmt.orelse, else_local, func, depth, returns)
            for name in set(then_local) | set(else_local):
                a = then_local.get(name, local.get(name, UNKNOWN))
                b = else_local.get(name, local.get(name, UNKNOWN))
                local[name] = _join(a, b)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            iterable = self._eval(stmt.iter, local, func, depth)
            element: DimValue = UNKNOWN
            if isinstance(iterable, tuple) and iterable:
                element = iterable[0]
                for item in iterable[1:]:
                    element = _join(element, item)
            elif isinstance(iterable, Dim):
                element = iterable
            self._assign(stmt.target, element, local)
            self._exec_block(stmt.body, local, func, depth, returns)
            self._exec_block(stmt.orelse, local, func, depth, returns)
        elif isinstance(stmt, ast.While):
            self._eval(stmt.test, local, func, depth)
            self._exec_block(stmt.body, local, func, depth, returns)
        elif isinstance(stmt, ast.With):
            for item in stmt.items:
                self._eval(item.context_expr, local, func, depth)
            self._exec_block(stmt.body, local, func, depth, returns)
        elif isinstance(stmt, ast.Try):
            self._exec_block(stmt.body, local, func, depth, returns)
            for handler in stmt.handlers:
                self._exec_block(handler.body, local, func, depth, returns)
            self._exec_block(stmt.orelse, local, func, depth, returns)
            self._exec_block(stmt.finalbody, local, func, depth, returns)
        elif isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._eval(stmt.exc, local, func, depth)
        # FunctionDef / Import / Pass / Assert bodies are skipped: nested
        # defs are only evaluated when called with the state.

    def _assign(
        self, target: ast.expr, value: DimValue, local: Dict[str, DimValue]
    ) -> None:
        if isinstance(target, ast.Name):
            local[target.id] = value
        elif isinstance(target, (ast.Tuple, ast.List)):
            elements = target.elts
            if isinstance(value, tuple) and len(value) == len(elements):
                for sub, sub_value in zip(elements, value):
                    self._assign(sub, sub_value, local)
            else:
                for sub in elements:
                    self._assign(sub, UNKNOWN, local)
        # Attribute / Subscript targets: not tracked.

    # -- expressions ---------------------------------------------------
    def _eval(
        self,
        node: ast.expr,
        local: Dict[str, DimValue],
        func: types.FunctionType,
        depth: int,
    ) -> DimValue:
        if isinstance(node, ast.Constant):
            if isinstance(node.value, bool) or not isinstance(
                node.value, (int, float)
            ):
                return UNKNOWN
            return POLY
        if isinstance(node, ast.Name):
            return self._eval_name(node.id, local, func)
        if isinstance(node, ast.Attribute):
            return self._eval_attribute(node, local, func, depth)
        if isinstance(node, ast.BinOp):
            left = self._eval(node.left, local, func, depth)
            right = self._eval(node.right, local, func, depth)
            return self._binop(node, left, right)
        if isinstance(node, ast.UnaryOp):
            operand = self._eval(node.operand, local, func, depth)
            if isinstance(node.op, ast.Not):
                return POLY
            return operand
        if isinstance(node, ast.Compare):
            left = self._eval(node.left, local, func, depth)
            for comparator in node.comparators:
                right = self._eval(comparator, local, func, depth)
                self._check_additive(left, right, "comparison")
                left = right
            return POLY
        if isinstance(node, ast.BoolOp):
            result: DimValue = POLY
            for value_node in node.values:
                result = _join(result, self._eval(value_node, local, func, depth))
            return result
        if isinstance(node, ast.IfExp):
            self._eval(node.test, local, func, depth)
            return _join(
                self._eval(node.body, local, func, depth),
                self._eval(node.orelse, local, func, depth),
            )
        if isinstance(node, (ast.Tuple, ast.List)):
            return tuple(
                self._eval(element, local, func, depth)
                for element in node.elts
            )
        if isinstance(node, ast.Subscript):
            base = self._eval(node.value, local, func, depth)
            if isinstance(base, tuple):
                index = node.slice
                if isinstance(index, ast.Constant) and isinstance(
                    index.value, int
                ):
                    if -len(base) <= index.value < len(base):
                        return base[index.value]
                element: DimValue = base[0] if base else UNKNOWN
                for item in base[1:]:
                    element = _join(element, item)
                return element
            if isinstance(base, Dim):
                return base  # homogeneous container of like quantities
            return UNKNOWN
        if isinstance(node, ast.Call):
            return self._eval_call(node, local, func, depth)
        if isinstance(node, ast.Starred):
            return self._eval(node.value, local, func, depth)
        return UNKNOWN

    def _eval_name(
        self, name: str, local: Dict[str, DimValue], func: types.FunctionType
    ) -> DimValue:
        if name in local:
            return local[name]
        if name == "math":
            return _MATH
        value = func.__globals__.get(name)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return GLOBAL_DIMENSIONS.get(name, POLY)
        return UNKNOWN

    def _eval_attribute(
        self,
        node: ast.Attribute,
        local: Dict[str, DimValue],
        func: types.FunctionType,
        depth: int,
    ) -> DimValue:
        base = self._eval(node.value, local, func, depth)
        attr = node.attr
        if base is _STATE:
            if attr == "spec":
                return _SPEC
            if attr == "process":
                return _PROCESS
            return UNKNOWN
        if base is _SPEC:
            return SPEC_DIMENSIONS.get(attr, UNKNOWN)
        if base is _PROCESS:
            if attr in ("nmos", "pmos"):
                return _DEVICE_PARAMS
            if attr in PROCESS_DIMENSIONS:
                return PROCESS_DIMENSIONS[attr]
            return PARAMETER_DIMENSIONS.get(attr, UNKNOWN)
        if base is _DEVICE_PARAMS:
            return PARAMETER_DIMENSIONS.get(attr, UNKNOWN)
        if base is _MATH:
            if attr in ("pi", "e", "tau"):
                return POLY
            return UNKNOWN
        return ATTR_DIMENSIONS.get(attr, UNKNOWN)

    # -- operators -----------------------------------------------------
    def _check_additive(self, a: DimValue, b: DimValue, what: str) -> None:
        if isinstance(a, Dim) and isinstance(b, Dim) and a != b:
            self._emit(
                "DIM801",
                Severity.ERROR,
                f"{what} mixes incompatible dimensions {a} and {b}",
                suggestion="check the equation: one operand is in the "
                "wrong unit",
            )

    def _binop(self, node: ast.BinOp, left: DimValue, right: DimValue) -> DimValue:
        op = node.op
        if isinstance(op, (ast.Add, ast.Sub)):
            self._check_additive(left, right, "addition/subtraction")
            return _join(left, right)
        if isinstance(op, ast.Mult):
            if isinstance(left, Dim) and isinstance(right, Dim):
                return left * right
            if isinstance(left, _Poly):
                return right
            if isinstance(right, _Poly):
                return left
            return UNKNOWN
        if isinstance(op, (ast.Div, ast.FloorDiv)):
            if isinstance(left, Dim) and isinstance(right, Dim):
                return left / right
            if isinstance(right, _Poly) and isinstance(left, (Dim, _Poly)):
                return left
            if isinstance(left, _Poly) and isinstance(right, Dim):
                return DIMENSIONLESS / right
            return UNKNOWN
        if isinstance(op, ast.Pow):
            exponent = node.right
            if isinstance(left, _Poly):
                return POLY
            if not isinstance(left, Dim):
                return UNKNOWN
            if isinstance(exponent, ast.Constant) and isinstance(
                exponent.value, (int, float)
            ):
                try:
                    return left ** exponent.value
                except Exception:  # noqa: BLE001 - bad exponent, not our bug
                    return UNKNOWN
            if isinstance(exponent, ast.UnaryOp) and isinstance(
                exponent.operand, ast.Constant
            ):
                value = exponent.operand.value
                if isinstance(value, (int, float)):
                    sign = -1 if isinstance(exponent.op, ast.USub) else 1
                    try:
                        return left ** (sign * value)
                    except Exception:  # noqa: BLE001
                        return UNKNOWN
            return left if left.is_dimensionless else UNKNOWN
        if isinstance(op, ast.Mod):
            return _join(left, right)
        return UNKNOWN

    # -- calls ---------------------------------------------------------
    def _eval_call(
        self,
        node: ast.Call,
        local: Dict[str, DimValue],
        func: types.FunctionType,
        depth: int,
    ) -> DimValue:
        callee_name = ""
        if isinstance(node.func, ast.Name):
            callee_name = node.func.id
        elif isinstance(node.func, ast.Attribute):
            callee_name = node.func.attr

        # state.<method>(...) protocol calls.
        if isinstance(node.func, ast.Attribute):
            base = self._eval(node.func.value, local, func, depth)
            if base is _STATE:
                return self._eval_state_call(node, local, func, depth)

        args = [self._eval(a, local, func, depth) for a in node.args]
        for keyword in node.keywords:
            self._eval(keyword.value, local, func, depth)

        # Known numeric helpers (call-return table).
        if callee_name in ("min", "max", "parallel"):
            result: DimValue = POLY
            for arg in args:
                result = _join(result, arg)
            return result
        if callee_name in ("abs", "float", "sum"):
            return args[0] if args else UNKNOWN
        if callee_name == "sqrt":
            if args and isinstance(args[0], Dim):
                return args[0].sqrt()
            return args[0] if args else UNKNOWN
        if callee_name in _TRANSCENDENTAL:
            if args and isinstance(args[0], Dim) and not args[0].is_dimensionless:
                self._emit(
                    "DIM803",
                    Severity.WARNING,
                    f"{callee_name}() applied to a quantity of dimension "
                    f"{args[0]}; transcendentals need dimensionless "
                    f"arguments",
                    suggestion="normalise by a reference quantity first",
                )
            return DIMENSIONLESS
        if callee_name in _DIMENSIONLESS_RETURNS:
            return DIMENSIONLESS
        if callee_name == "reconcile_tail_current":
            return (AMPERE, VOLT)
        if callee_name == "capacitor_area":
            return METER * METER
        if callee_name == "thermal_input_noise_nv":
            return VOLT * SQRT_SECOND
        if callee_name == "opamp_spec_of":
            return _SPEC

        # User helpers that receive the state: follow them.
        if isinstance(node.func, ast.Name) and depth > 0:
            target = func.__globals__.get(callee_name)
            if isinstance(target, types.FunctionType) and any(
                value is _STATE for value in args
            ):
                return self._eval_function(target, args, depth - 1)
        return UNKNOWN

    def _eval_state_call(
        self,
        node: ast.Call,
        local: Dict[str, DimValue],
        func: types.FunctionType,
        depth: int,
    ) -> DimValue:
        assert isinstance(node.func, ast.Attribute)
        method = node.func.attr
        literal: Optional[str] = None
        if node.args and isinstance(node.args[0], ast.Constant) and isinstance(
            node.args[0].value, str
        ):
            literal = node.args[0].value
        if method == "get":
            if literal is not None:
                return self.env.get(literal, UNKNOWN)
            return UNKNOWN
        if method == "get_or":
            default = (
                self._eval(node.args[1], local, func, depth)
                if len(node.args) > 1
                else UNKNOWN
            )
            if literal is not None and literal in self.env:
                return _join(self.env[literal], default)
            return default
        if method == "set":
            value = (
                self._eval(node.args[1], local, func, depth)
                if len(node.args) > 1
                else UNKNOWN
            )
            if literal is not None:
                self._record_set(literal, value)
            return UNKNOWN
        if method == "has":
            return POLY
        if method in ("choose", "choice"):
            for arg in node.args[1:]:
                self._eval(arg, local, func, depth)
            return UNKNOWN
        for arg in node.args:
            self._eval(arg, local, func, depth)
        return UNKNOWN

    def _record_set(self, name: str, value: DimValue) -> None:
        expected = VAR_DIMENSIONS.get(name)
        if (
            expected is not None
            and isinstance(value, Dim)
            and value != expected
        ):
            self._emit(
                "DIM802",
                Severity.WARNING,
                f"design variable {name!r} is set to a quantity of "
                f"dimension {value}, expected {expected}",
                suggestion="check the defining equation against the "
                "variable's documented unit",
            )
        if isinstance(value, Dim) and _suspicious(value):
            self._emit(
                "DIM804",
                Severity.INFO,
                f"design variable {name!r} carries the suspicious "
                f"dimension {value} (large or fractional exponents)",
                suggestion="double-check the defining equation; such "
                "dimensions rarely occur in circuit arithmetic",
            )
        if name in self.env:
            self.env[name] = _join(self.env[name], value)
        else:
            self.env[name] = value


# ----------------------------------------------------------------------
# Registry plumbing
# ----------------------------------------------------------------------
def analyze_template_dimensions(
    template: TopologyTemplate,
    materialized: Optional[Tuple[Any, List[Any]]] = None,
) -> List[Diagnostic]:
    """Run the dimensional interpreter over one template's plan and
    rules, in plan order, and return the findings."""
    if materialized is None:
        try:
            plan = template.build_plan()
            rules = list(template.build_rules())
        except Exception:  # noqa: BLE001 - KB303 reports materialisation
            return []
    else:
        plan, rules = materialized
    interpreter = _DimInterpreter(template)
    for step in plan:
        interpreter.run_callable(step.action, step.name)
    for rule in rules:
        interpreter.run_callable(rule.condition, rule.name)
        interpreter.run_callable(rule.action, rule.name)
    return interpreter.findings


@dataclass
class DimContext(KbContext):
    """KB context extended with cached dimensional findings."""

    _dim_findings: Dict[str, List[Diagnostic]] = field(default_factory=dict)

    def findings(self, template: TopologyTemplate) -> List[Diagnostic]:
        key = f"{template.block_type}/{template.style}"
        if key not in self._dim_findings:
            built = self.materialize(template)
            if built is None:
                self._dim_findings[key] = []
            else:
                self._dim_findings[key] = analyze_template_dimensions(
                    template, materialized=built
                )
        return self._dim_findings[key]


@DIM_REGISTRY.register("dimension-mismatch", ["DIM801", "DIM802"])
def check_dimension_mismatch(
    template: TopologyTemplate, context: DimContext
) -> Iterator[Diagnostic]:
    """Two concretely known, different dimensions meeting in an additive
    position (DIM801), or a store conflicting with the variable's
    expected dimension (DIM802)."""
    for finding in context.findings(template):
        if finding.code in ("DIM801", "DIM802"):
            yield finding


@DIM_REGISTRY.register("dimension-usage", ["DIM803", "DIM804"])
def check_dimension_usage(
    template: TopologyTemplate, context: DimContext
) -> Iterator[Diagnostic]:
    """Transcendentals of dimensioned quantities (DIM803) and stores of
    quantities with implausible exponent vectors (DIM804)."""
    for finding in context.findings(template):
        if finding.code in ("DIM803", "DIM804"):
            yield finding


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def lint_template_units(
    template: TopologyTemplate,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> LintReport:
    """Run the dimensional pass over one topology template."""
    return DIM_REGISTRY.run(
        template, DimContext(), select=select, ignore=ignore
    )


def lint_units(
    catalogs: Optional[Iterable[Any]] = None,
    preset: Optional[FrozenSet[str]] = None,
    select: Optional[Iterable[str]] = None,
    ignore: Optional[Iterable[str]] = None,
) -> LintReport:
    """Dimension-check every registered template (the CI gate twin of
    :func:`repro.lint.kblint.lint_knowledge_base`).

    ``preset`` is accepted for signature parity with the other KB-wide
    passes; the dimensional interpreter does not need it (preset
    variables simply evaluate to UNKNOWN until first written).
    """
    del preset
    if catalogs is None:
        from ..opamp.designer import OPAMP_CATALOG  # local: avoid cycles

        catalogs = [OPAMP_CATALOG]
    with span("lint.units", category="lint"):
        report = LintReport()
        for catalog in catalogs:
            for template in catalog:
                report.extend(
                    lint_template_units(template, select=select, ignore=ignore)
                )
        count("lint.units.findings", len(report))
        return report
