"""Interval-arithmetic abstract interpretation of translation plans.

The paper's central conjecture is that each topology template has a
small set of *predictable failure modes* patched by rules.  PR 1's KB
lint checks the plan/rule structure without executing it; this module
goes one level deeper and *abstractly executes* the plans: every design
variable is tracked as a closed :class:`Interval` instead of a point, so
one abstract run covers a whole neighbourhood of specifications (the
process-corner inflation of a concrete spec) at once.

The design constraint that shapes everything here is that the existing
plan-step callables must run **unmodified** over ranges.  Three pieces
make that work:

* :class:`Interval` is a full numeric duck type: arithmetic dunders,
  ``__format__`` (steps build f-string trace details), ``__ceil__`` (the
  grid snapper calls :func:`math.ceil`) -- but deliberately **no**
  ``__float__``, so an Interval can never silently collapse to a point;
* :func:`abstract_numeric_context` temporarily re-points the handful of
  ``math`` functions plan steps use (``sqrt``, ``tan``, ``atan``, ...)
  and the ``min``/``max`` builtins at interval-aware versions; and
* comparisons follow a *definite-else-midpoint* discipline: when the
  operand intervals decide the comparison outright the result is exact;
  when they overlap the comparison falls back to the interval midpoints
  (i.e. the nominal design point) **and raises the context's
  "approximated" flag**.  A :class:`SynthesisError` reached with the
  flag still clean is therefore a *proof* that every specification in
  the interval fails; with the flag set it is only evidence that the
  nominal point fails.

:class:`AbstractDesignState` mirrors ``DesignState`` (it *is* one), and
:func:`interpret_plan` mirrors the concrete ``PlanExecutor`` loop --
including recovery/monitor rule firing with the real budgets -- with two
analysis-grade amendments: unexpected exceptions mark a step *opaque*
(the state degrades to lenient TOP reads instead of crashing), and
restart cycles are forced to terminate by *widening*: after a restart
target has been re-entered :data:`WIDEN_AFTER` times, the design state
is widened against its previous visit; a stable widened state whose rule
still wants to fire is recorded as :class:`CycleEvidence` (the RULE502
diagnostic's raw material) and the loop is cut.

The FEAS4xx / RULE5xx checkers in :mod:`repro.lint.feasibility` consume
the :class:`AbstractRun` records produced here.
"""

from __future__ import annotations

import builtins
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

from ..errors import PlanError, ReproError, SynthesisError
from ..kb.plans import DesignState, Plan, PlanStep
from ..kb.rules import Abort, Restart, Rule
from ..kb.specs import OpAmpSpec, Specification
from ..kb.templates import TopologyTemplate
from ..kb.trace import DesignTrace
from ..process.parameters import ProcessParameters

__all__ = [
    "Interval",
    "as_interval",
    "abstract_numeric_context",
    "AbstractContext",
    "AbstractEvent",
    "AbstractDesignState",
    "AbstractFailure",
    "AbstractRun",
    "CycleEvidence",
    "RuleObservation",
    "StepOutcome",
    "abstract_opamp_spec",
    "interpret_plan",
    "interpret_template",
    "is_physical_name",
    "DEFAULT_CORNER",
    "WIDEN_AFTER",
    "MAX_ANALYSIS_RESTARTS",
]

_INF = float("inf")

#: Default fractional process-corner inflation applied to a concrete
#: specification before abstract execution (+-5 %).
DEFAULT_CORNER = 0.05

#: Number of visits to one restart target before widening engages.
WIDEN_AFTER = 8

#: Hard backstop on abstract restarts, independent of plan budgets.
MAX_ANALYSIS_RESTARTS = 200

# Originals, captured at import time so the interval versions can build
# on them even while the patches are installed.
_ORIG_SQRT = math.sqrt
_ORIG_LOG10 = math.log10
_ORIG_LOG = math.log
_ORIG_EXP = math.exp
_ORIG_TAN = math.tan
_ORIG_ATAN = math.atan
_ORIG_DEGREES = math.degrees
_ORIG_RADIANS = math.radians
_ORIG_ISINF = math.isinf
_ORIG_ISNAN = math.isnan
_ORIG_ISFINITE = math.isfinite
_ORIG_MIN = builtins.min
_ORIG_MAX = builtins.max
_ORIG_CEIL = math.ceil
_ORIG_FLOOR = math.floor


def _finite(x: float) -> bool:
    return -_INF < x < _INF and x == x


# ----------------------------------------------------------------------
# The shared analysis context
# ----------------------------------------------------------------------
@dataclass
class AbstractEvent:
    """One numeric hazard observed during abstract execution.

    ``kind`` is one of ``"div_by_zero"``, ``"domain"`` (sqrt/log of a
    negative, tangent branch crossing), ``"overflow"``, ``"empty"``
    (contradictory interval) or ``"negative"`` (a physical quantity's
    interval is entirely below zero).

    ``definite`` is the *operation-level* certainty (the divisor is
    exactly zero vs merely spans zero); ``path_clean`` records whether
    the execution path was still approximation-free when the event
    fired.  Only ``definite and path_clean`` events are proofs.
    """

    kind: str
    definite: bool
    detail: str
    location: str = ""
    path_clean: bool = True


class AbstractContext:
    """Mutable state shared by every Interval operation in one run."""

    def __init__(self) -> None:
        self.depth = 0
        self.events: List[AbstractEvent] = []
        self.approximated = False
        self.mode = "midpoint"  # or "possible"
        self.location = ""

    @property
    def active(self) -> bool:
        return self.depth > 0

    # -- recording -----------------------------------------------------
    def record(self, kind: str, definite: bool, detail: str) -> None:
        if not self.active:
            return
        self.events.append(
            AbstractEvent(
                kind=kind,
                definite=definite,
                detail=detail,
                location=self.location,
                path_clean=not self.approximated,
            )
        )

    def mark_approximated(self) -> None:
        self.approximated = True

    # -- scoped mode switches ------------------------------------------
    @contextmanager
    def possible(self) -> Iterator[None]:
        """Evaluate comparisons as "possibly true" instead of midpoint."""
        saved = self.mode
        self.mode = "possible"
        try:
            yield
        finally:
            self.mode = saved

    @contextmanager
    def preserving(self) -> Iterator[None]:
        """Run a side-channel probe without polluting the main path:
        the approximation flag and event log are restored afterwards."""
        saved_flag = self.approximated
        saved_events = len(self.events)
        try:
            yield
        finally:
            self.approximated = saved_flag
            del self.events[saved_events:]


_CTX = AbstractContext()


# ----------------------------------------------------------------------
# The Interval domain
# ----------------------------------------------------------------------
Number = Union[int, float]


def as_interval(value: Any) -> Optional["Interval"]:
    """Coerce a value to an Interval, or None when it is not numeric."""
    if isinstance(value, Interval):
        return value
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return Interval(float(value), float(value))
    return None


class Interval:
    """A closed interval ``[lo, hi]`` over the extended reals.

    Sound under ``+ - * / ** abs neg``, ``sqrt``/``log``/``exp``/
    ``tan``/``atan`` (via :func:`abstract_numeric_context`), hulled
    ``min``/``max``, and the grid-snapping ``__ceil__``/``__floor__``.
    Division through zero and domain errors record an
    :class:`AbstractEvent` and widen to TOP rather than raising, so the
    surrounding plan step keeps executing.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Number, hi: Optional[Number] = None):
        if hi is None:
            hi = lo
        lo_f, hi_f = float(lo), float(hi)
        if lo_f != lo_f or hi_f != hi_f:  # NaN endpoint: widen, note it
            _CTX.record("domain", False, "NaN endpoint widened to TOP")
            lo_f, hi_f = -_INF, _INF
        if lo_f > hi_f:
            _CTX.record(
                "empty", True, f"empty interval [{lo_f:g}, {hi_f:g}]"
            )
            lo_f, hi_f = hi_f, lo_f
        self.lo = lo_f
        self.hi = hi_f

    # -- constructors --------------------------------------------------
    @staticmethod
    def top() -> "Interval":
        return Interval(-_INF, _INF)

    @staticmethod
    def point(value: Number) -> "Interval":
        return Interval(float(value), float(value))

    # -- structure -----------------------------------------------------
    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    @property
    def is_top(self) -> bool:
        return self.lo == -_INF and self.hi == _INF

    @property
    def mid(self) -> float:
        """The nominal (midpoint) value; centre of the design corner."""
        if _finite(self.lo) and _finite(self.hi):
            return self.lo + 0.5 * (self.hi - self.lo)
        if self.lo == -_INF and self.hi == _INF:
            return 0.0
        return self.hi if self.lo == -_INF else self.lo

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def contains(self, value: Number) -> bool:
        return self.lo <= float(value) <= self.hi

    def join(self, other: "Interval") -> "Interval":
        """Least upper bound (interval hull)."""
        return Interval(
            self.lo if self.lo <= other.lo else other.lo,
            self.hi if self.hi >= other.hi else other.hi,
        )

    def widen(self, newer: "Interval") -> "Interval":
        """Classic widening: any bound still moving jumps to infinity."""
        lo = self.lo if newer.lo >= self.lo else -_INF
        hi = self.hi if newer.hi <= self.hi else _INF
        return Interval(lo, hi)

    # -- rendering -----------------------------------------------------
    def __repr__(self) -> str:
        return f"Interval({self.lo:g}, {self.hi:g})"

    def __str__(self) -> str:
        return format(self, "")

    def __format__(self, spec: str) -> str:
        if self.is_point:
            return format(self.lo, spec)
        return f"[{format(self.lo, spec)}, {format(self.hi, spec)}]"

    def __hash__(self) -> int:
        return hash(("Interval", self.lo, self.hi))

    # -- comparisons: definite else midpoint (or "possible") -----------
    def _bounds_of(self, other: Any) -> Optional[Tuple[float, float, float]]:
        iv = as_interval(other)
        if iv is None:
            return None
        return iv.lo, iv.hi, iv.mid

    def _decide(
        self,
        other: Any,
        definite_true: Callable[[float, float], bool],
        definite_false: Callable[[float, float], bool],
        midpoint: Callable[[float, float], bool],
    ) -> Any:
        bounds = self._bounds_of(other)
        if bounds is None:
            return NotImplemented
        olo, ohi, omid = bounds
        if definite_true(olo, ohi):
            return True
        if definite_false(olo, ohi):
            return False
        if _CTX.mode == "possible":
            return True
        _CTX.mark_approximated()
        return midpoint(self.mid, omid)

    def __lt__(self, other: Any) -> Any:
        return self._decide(
            other,
            lambda olo, ohi: self.hi < olo,
            lambda olo, ohi: self.lo >= ohi,
            lambda a, b: a < b,
        )

    def __le__(self, other: Any) -> Any:
        return self._decide(
            other,
            lambda olo, ohi: self.hi <= olo,
            lambda olo, ohi: self.lo > ohi,
            lambda a, b: a <= b,
        )

    def __gt__(self, other: Any) -> Any:
        return self._decide(
            other,
            lambda olo, ohi: self.lo > ohi,
            lambda olo, ohi: self.hi <= olo,
            lambda a, b: a > b,
        )

    def __ge__(self, other: Any) -> Any:
        return self._decide(
            other,
            lambda olo, ohi: self.lo >= ohi,
            lambda olo, ohi: self.hi < olo,
            lambda a, b: a >= b,
        )

    def __eq__(self, other: Any) -> Any:
        bounds = self._bounds_of(other)
        if bounds is None:
            return NotImplemented
        olo, ohi, omid = bounds
        if self.is_point and olo == ohi and self.lo == olo:
            return True
        if self.hi < olo or self.lo > ohi:
            return False
        if _CTX.mode == "possible":
            return True
        _CTX.mark_approximated()
        return self.mid == omid

    def __ne__(self, other: Any) -> Any:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __bool__(self) -> bool:
        if self.lo == 0.0 and self.hi == 0.0:
            return False
        if self.lo > 0.0 or self.hi < 0.0:
            return True
        if _CTX.mode == "possible":
            return True
        _CTX.mark_approximated()
        return self.mid != 0.0

    # -- arithmetic ----------------------------------------------------
    def _overflow_guard(self, lo: float, hi: float, *operands: float) -> "Interval":
        if (not _finite(lo) or not _finite(hi)) and all(
            _finite(x) for x in operands
        ):
            _CTX.record(
                "overflow", False, "finite operands produced an infinite bound"
            )
        return Interval(lo, hi)

    def __add__(self, other: Any) -> Any:
        iv = as_interval(other)
        if iv is None:
            return NotImplemented
        return self._overflow_guard(
            self.lo + iv.lo, self.hi + iv.hi, self.lo, self.hi, iv.lo, iv.hi
        )

    __radd__ = __add__

    def __sub__(self, other: Any) -> Any:
        iv = as_interval(other)
        if iv is None:
            return NotImplemented
        return self._overflow_guard(
            self.lo - iv.hi, self.hi - iv.lo, self.lo, self.hi, iv.lo, iv.hi
        )

    def __rsub__(self, other: Any) -> Any:
        iv = as_interval(other)
        if iv is None:
            return NotImplemented
        return iv.__sub__(self)

    @staticmethod
    def _safe_mul(a: float, b: float) -> float:
        if a == 0.0 or b == 0.0:
            return 0.0
        return a * b

    def __mul__(self, other: Any) -> Any:
        iv = as_interval(other)
        if iv is None:
            return NotImplemented
        products = [
            self._safe_mul(a, b)
            for a in (self.lo, self.hi)
            for b in (iv.lo, iv.hi)
        ]
        return self._overflow_guard(
            _ORIG_MIN(products),
            _ORIG_MAX(products),
            self.lo,
            self.hi,
            iv.lo,
            iv.hi,
        )

    __rmul__ = __mul__

    def __truediv__(self, other: Any) -> Any:
        iv = as_interval(other)
        if iv is None:
            return NotImplemented
        if iv.lo == 0.0 and iv.hi == 0.0:
            _CTX.record(
                "div_by_zero", True, "division by a definitely-zero value"
            )
            return Interval.top()
        if iv.lo <= 0.0 <= iv.hi:
            _CTX.record(
                "div_by_zero",
                False,
                f"divisor [{iv.lo:g}, {iv.hi:g}] spans zero",
            )
            return Interval.top()
        quotients = []
        for a in (self.lo, self.hi):
            for b in (iv.lo, iv.hi):
                q = a / b if not (_ORIG_ISINF(a) and _ORIG_ISINF(b)) else float("nan")
                if q != q:  # inf/inf
                    return Interval.top()
                quotients.append(q)
        return self._overflow_guard(
            _ORIG_MIN(quotients),
            _ORIG_MAX(quotients),
            self.lo,
            self.hi,
            iv.lo,
            iv.hi,
        )

    def __rtruediv__(self, other: Any) -> Any:
        iv = as_interval(other)
        if iv is None:
            return NotImplemented
        return iv.__truediv__(self)

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __pos__(self) -> "Interval":
        return self

    def __abs__(self) -> "Interval":
        if self.lo >= 0.0:
            return self
        if self.hi <= 0.0:
            return Interval(-self.hi, -self.lo)
        return Interval(0.0, _ORIG_MAX(-self.lo, self.hi))

    def __pow__(self, exponent: Any, modulo: Any = None) -> Any:
        if modulo is not None:
            return NotImplemented
        exp_iv = as_interval(exponent)
        if exp_iv is None:
            return NotImplemented
        if exp_iv.is_point:
            return self._pow_scalar(exp_iv.lo)
        # Interval exponent: b^e = exp(e * ln b), base must be positive.
        if self.lo <= 0.0:
            _CTX.record(
                "domain",
                self.hi <= 0.0,
                "interval exponentiation of a non-positive base",
            )
            return Interval.top()
        return _interval_exp(exp_iv * _interval_log(self))

    def _pow_scalar(self, p: float) -> "Interval":
        if p == 0.0:
            return Interval(1.0, 1.0)
        if p == float(int(p)):
            n = int(p)
            if n < 0:
                base = self._pow_scalar(float(-n))
                return Interval(1.0, 1.0) / base
            if n % 2 == 0:
                mag = abs(self)
                return self._overflow_guard(
                    self._pow_endpoint(mag.lo, n),
                    self._pow_endpoint(mag.hi, n),
                    self.lo,
                    self.hi,
                )
            return self._overflow_guard(
                self._pow_endpoint(self.lo, n),
                self._pow_endpoint(self.hi, n),
                self.lo,
                self.hi,
            )
        # Fractional power: needs a non-negative base.
        lo = self.lo
        if self.hi < 0.0:
            _CTX.record(
                "domain", True, f"fractional power of a negative value {self!r}"
            )
            return Interval.top()
        if lo < 0.0:
            _CTX.record(
                "domain", False, f"fractional power of possibly-negative {self!r}"
            )
            lo = 0.0
        return self._overflow_guard(
            self._pow_endpoint(lo, p), self._pow_endpoint(self.hi, p), lo, self.hi
        )

    @staticmethod
    def _pow_endpoint(x: float, p: Union[int, float]) -> float:
        try:
            return float(x**p)
        except OverflowError:
            return _INF if x >= 0 or (isinstance(p, int) and p % 2 == 0) else -_INF

    def __rpow__(self, base: Any) -> Any:
        base_iv = as_interval(base)
        if base_iv is None:
            return NotImplemented
        if not base_iv.is_point:
            return base_iv.__pow__(self)
        b = base_iv.lo
        if b <= 0.0:
            _CTX.record("domain", True, f"power with non-positive base {b:g}")
            return Interval.top()
        lo_e, hi_e = (self.lo, self.hi) if b >= 1.0 else (self.hi, self.lo)
        return self._overflow_guard(
            self._pow_endpoint(b, lo_e) if b != 1.0 else 1.0,
            self._pow_endpoint(b, hi_e) if b != 1.0 else 1.0,
            self.lo,
            self.hi,
        )

    # -- rounding family (math.ceil/floor/round dispatch here) ---------
    def _endpoint_map(self, func: Callable[[float], float]) -> "Interval":
        def apply(x: float) -> float:
            if not _finite(x):
                return x
            return float(func(x))

        return Interval(apply(self.lo), apply(self.hi))

    def __ceil__(self) -> "Interval":
        return self._endpoint_map(_ORIG_CEIL)

    def __floor__(self) -> "Interval":
        return self._endpoint_map(_ORIG_FLOOR)

    def __trunc__(self) -> "Interval":
        return self._endpoint_map(math.trunc)

    def __round__(self, ndigits: Optional[int] = None) -> "Interval":
        return self._endpoint_map(lambda x: round(x, ndigits or 0))


# ----------------------------------------------------------------------
# Interval versions of the math functions plan steps use
# ----------------------------------------------------------------------
def _interval_sqrt(iv: Interval) -> Interval:
    if iv.hi < 0.0:
        _CTX.record("domain", True, f"sqrt of definitely-negative {iv!r}")
        return Interval.top()
    lo = iv.lo
    if lo < 0.0:
        _CTX.record("domain", False, f"sqrt of possibly-negative {iv!r}")
        lo = 0.0
    return Interval(_ORIG_SQRT(lo), _ORIG_SQRT(iv.hi) if _finite(iv.hi) else _INF)


def _log_like(iv: Interval, log: Callable[[float], float], name: str) -> Interval:
    if iv.hi <= 0.0:
        _CTX.record("domain", True, f"{name} of definitely-non-positive {iv!r}")
        return Interval.top()
    lo = iv.lo
    if lo <= 0.0:
        _CTX.record("domain", False, f"{name} of possibly-non-positive {iv!r}")
        lo_val = -_INF
    else:
        lo_val = log(lo)
    return Interval(lo_val, log(iv.hi) if _finite(iv.hi) else _INF)


def _interval_log10(iv: Interval) -> Interval:
    return _log_like(iv, _ORIG_LOG10, "log10")


def _interval_log(iv: Interval) -> Interval:
    return _log_like(iv, _ORIG_LOG, "log")


def _interval_exp(iv: Interval) -> Interval:
    def at(x: float) -> float:
        if x == _INF:
            return _INF
        if x == -_INF:
            return 0.0
        try:
            return _ORIG_EXP(x)
        except OverflowError:
            return _INF

    result = Interval(at(iv.lo), at(iv.hi))
    if _finite(iv.lo) and _finite(iv.hi) and not _finite(result.hi):
        _CTX.record("overflow", False, f"exp overflow on {iv!r}")
    return result


_HALF_PI = math.pi / 2.0


def _interval_tan(iv: Interval) -> Interval:
    if not _finite(iv.lo) or not _finite(iv.hi) or iv.width >= math.pi:
        _CTX.record("domain", False, f"tan over a full branch for {iv!r}")
        return Interval.top()
    branch_lo = _ORIG_FLOOR((iv.lo + _HALF_PI) / math.pi)
    branch_hi = _ORIG_FLOOR((iv.hi + _HALF_PI) / math.pi)
    if branch_lo != branch_hi:
        _CTX.record(
            "domain", False, f"tan argument {iv!r} crosses a pole"
        )
        return Interval.top()
    return Interval(_ORIG_TAN(iv.lo), _ORIG_TAN(iv.hi))


def _interval_atan(iv: Interval) -> Interval:
    def at(x: float) -> float:
        if x == _INF:
            return _HALF_PI
        if x == -_INF:
            return -_HALF_PI
        return _ORIG_ATAN(x)

    return Interval(at(iv.lo), at(iv.hi))


def _interval_degrees(iv: Interval) -> Interval:
    return iv * (180.0 / math.pi)


def _interval_radians(iv: Interval) -> Interval:
    return iv * (math.pi / 180.0)


def _interval_isinf(iv: Interval) -> bool:
    lo_inf, hi_inf = _ORIG_ISINF(iv.lo), _ORIG_ISINF(iv.hi)
    if lo_inf and hi_inf and iv.lo == iv.hi:
        return True
    if lo_inf or hi_inf:
        _CTX.mark_approximated()
        return False
    return False


def _interval_isnan(iv: Interval) -> bool:
    return False  # Interval construction widens NaN away


def _interval_isfinite(iv: Interval) -> bool:
    if _finite(iv.lo) and _finite(iv.hi):
        return True
    if iv.lo == iv.hi:  # degenerate infinity
        return False
    _CTX.mark_approximated()
    return _finite(iv.mid)


def _unary_dispatch(
    orig: Callable[..., Any], interval_fn: Callable[[Interval], Any]
) -> Callable[..., Any]:
    def wrapper(x: Any, *args: Any, **kwargs: Any) -> Any:
        if isinstance(x, Interval) and not args and not kwargs:
            return interval_fn(x)
        return orig(x, *args, **kwargs)

    return wrapper


def _extremum_dispatch(
    orig: Callable[..., Any], pick_lo: Callable[..., float]
) -> Callable[..., Any]:
    """Interval-aware ``min``/``max``: the hull of the endpoint extrema."""

    def wrapper(*args: Any, **kwargs: Any) -> Any:
        values: Tuple[Any, ...] = args
        if len(args) == 1 and not isinstance(args[0], Interval):
            try:
                values = tuple(args[0])
            except TypeError:
                values = args
        if kwargs or not values:
            return orig(*args, **kwargs)
        if not any(isinstance(v, Interval) for v in values):
            return orig(*args, **kwargs)
        intervals = [as_interval(v) for v in values]
        if any(iv is None for iv in intervals):
            return orig(*args, **kwargs)
        los = [iv.lo for iv in intervals if iv is not None]
        his = [iv.hi for iv in intervals if iv is not None]
        return Interval(pick_lo(los), pick_lo(his))

    return wrapper


@contextmanager
def abstract_numeric_context() -> Iterator[AbstractContext]:
    """Install the interval-aware ``math``/builtin patches (re-entrant).

    On first entry the shared :class:`AbstractContext` is reset (events
    cleared, approximation flag lowered); nested entries share it.  The
    patches are removed when the outermost context exits, so concrete
    code is never affected outside an abstract run.
    """
    ctx = _CTX
    ctx.depth += 1
    if ctx.depth == 1:
        ctx.events = []
        ctx.approximated = False
        ctx.mode = "midpoint"
        ctx.location = ""
        math.sqrt = _unary_dispatch(_ORIG_SQRT, _interval_sqrt)
        math.log10 = _unary_dispatch(_ORIG_LOG10, _interval_log10)
        math.log = _unary_dispatch(_ORIG_LOG, _interval_log)
        math.exp = _unary_dispatch(_ORIG_EXP, _interval_exp)
        math.tan = _unary_dispatch(_ORIG_TAN, _interval_tan)
        math.atan = _unary_dispatch(_ORIG_ATAN, _interval_atan)
        math.degrees = _unary_dispatch(_ORIG_DEGREES, _interval_degrees)
        math.radians = _unary_dispatch(_ORIG_RADIANS, _interval_radians)
        math.isinf = _unary_dispatch(_ORIG_ISINF, _interval_isinf)
        math.isnan = _unary_dispatch(_ORIG_ISNAN, _interval_isnan)
        math.isfinite = _unary_dispatch(_ORIG_ISFINITE, _interval_isfinite)
        builtins.min = _extremum_dispatch(_ORIG_MIN, _ORIG_MIN)
        builtins.max = _extremum_dispatch(_ORIG_MAX, _ORIG_MAX)
    try:
        yield ctx
    finally:
        ctx.depth -= 1
        if ctx.depth == 0:
            math.sqrt = _ORIG_SQRT
            math.log10 = _ORIG_LOG10
            math.log = _ORIG_LOG
            math.exp = _ORIG_EXP
            math.tan = _ORIG_TAN
            math.atan = _ORIG_ATAN
            math.degrees = _ORIG_DEGREES
            math.radians = _ORIG_RADIANS
            math.isinf = _ORIG_ISINF
            math.isnan = _ORIG_ISNAN
            math.isfinite = _ORIG_ISFINITE
            builtins.min = _ORIG_MIN
            builtins.max = _ORIG_MAX


# ----------------------------------------------------------------------
# Abstract design state
# ----------------------------------------------------------------------
class AbstractDesignState(DesignState):
    """A ``DesignState`` whose variables hold Intervals.

    Behaves identically to the concrete blackboard (plan steps cannot
    tell the difference) except in *lenient* mode, entered after a step
    went opaque: a read of a missing variable returns TOP instead of
    raising, so one broken step cannot cascade into spurious findings.
    """

    def __init__(self, spec: Specification, process: ProcessParameters):
        super().__init__(spec, process)
        self.lenient = False
        self.missing_reads: List[str] = []

    def get(self, name: str) -> Any:
        if name in self.vars:
            return self.vars[name]
        if self.lenient:
            self.missing_reads.append(name)
            return Interval.top()
        raise PlanError(f"design variable {name!r} has not been set")

    def clone(self) -> "AbstractDesignState":
        dup = AbstractDesignState(self.spec, self.process)
        dup.vars = dict(self.vars)
        dup.choices = dict(self.choices)
        dup.lenient = self.lenient
        return dup


# -- physical-quantity naming ------------------------------------------
_PHYSICAL_TOKENS = (
    "width",
    "length",
    "area",
    "power",
    "vov",
    "swing",
    "noise",
    "cap",
    "slew",
    "current",
)
_PHYSICAL_PREFIXES = ("i_", "l_", "c_", "gm", "cc")


def is_physical_name(name: str) -> bool:
    """Heuristic: does this design variable denote a physically
    non-negative quantity (width, length, current, overdrive, ...)?"""
    n = name.lower()
    if n in {"cc", "power", "area", "i_tail"}:
        return True
    if any(token in n for token in _PHYSICAL_TOKENS):
        return True
    return n.startswith(_PHYSICAL_PREFIXES)


# ----------------------------------------------------------------------
# Run records
# ----------------------------------------------------------------------
@dataclass
class StepOutcome:
    """The abstract execution record of one plan-step attempt."""

    step: str
    status: str  # "ok" | "raised" | "opaque"
    message: str = ""
    events: List[AbstractEvent] = field(default_factory=list)


@dataclass
class RuleObservation:
    """Liveness statistics for one rule across an abstract run."""

    name: str
    offered: int = 0
    possibly_applicable: int = 0
    fired: int = 0
    condition_opaque: bool = False


@dataclass
class AbstractFailure:
    """The style's abstract run ended in a SynthesisError."""

    step: str
    message: str
    definite: bool  # approximation-free path: every corner point fails


@dataclass(frozen=True)
class CycleEvidence:
    """A restart cycle that reached a widened fixpoint while its rule
    still wanted to fire: potential non-termination modulo budgets."""

    rule: str
    target: str
    visits: int


@dataclass
class AbstractRun:
    """Everything the FEAS/RULE checkers need from one abstract run."""

    block: str
    style: str
    spec_label: str
    outcomes: List[StepOutcome]
    completed: bool
    failure: Optional[AbstractFailure]
    approximated: bool
    opaque_steps: List[str]
    rule_stats: Dict[str, RuleObservation]
    cycles: List[CycleEvidence]
    restarts: int
    elapsed_ms: float
    final_vars: Dict[str, Any] = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return self.failure is not None

    def events(self) -> List[Tuple[str, AbstractEvent]]:
        """All (step, event) pairs in execution order."""
        pairs = []
        for outcome in self.outcomes:
            for event in outcome.events:
                pairs.append((outcome.step, event))
        return pairs

    def describe(self) -> str:
        if self.failure is not None:
            kind = "provably" if self.failure.definite else "likely"
            return (
                f"{kind} infeasible at step {self.failure.step!r}: "
                f"{self.failure.message}"
            )
        if self.completed:
            return "plan completes over the abstract spec"
        return "analysis inconclusive (abstract run cut short)"


# ----------------------------------------------------------------------
# State widening helpers (restart-cycle termination)
# ----------------------------------------------------------------------
def _widen_state(
    prev: AbstractDesignState, current: AbstractDesignState
) -> AbstractDesignState:
    """Widen ``current`` against the previous visit of the same restart
    target.  Numeric variables widen bound-wise; unstable non-numeric
    values degrade to TOP; unstable choices are dropped."""
    widened = current.clone()
    # sorted(): set-union iteration order depends on PYTHONHASHSEED, and
    # it decides the insertion order of widened.vars -- which leaks into
    # rendered range reports.  Determinism under hash randomization is a
    # repo invariant (tests/test_determinism.py), so iterate name order.
    for name in sorted(set(prev.vars) | set(current.vars)):
        if name not in prev.vars or name not in current.vars:
            widened.vars[name] = Interval.top()
            continue
        pv, cv = prev.vars[name], current.vars[name]
        pi, ci = as_interval(pv), as_interval(cv)
        if pi is not None and ci is not None:
            widened.vars[name] = pi.widen(ci)
        elif pv is cv:
            widened.vars[name] = cv
        elif isinstance(pv, str) and pv == cv:
            widened.vars[name] = cv
        else:
            widened.vars[name] = Interval.top()
    for slot in sorted(set(prev.choices) | set(current.choices)):
        if prev.choices.get(slot) != current.choices.get(slot):
            widened.choices.pop(slot, None)
    return widened


def _states_equal(a: AbstractDesignState, b: AbstractDesignState) -> bool:
    if set(a.vars) != set(b.vars) or a.choices != b.choices:
        return False
    for name, av in a.vars.items():
        bv = b.vars[name]
        ai, bi = as_interval(av), as_interval(bv)
        if ai is not None and bi is not None:
            if ai.lo != bi.lo or ai.hi != bi.hi:
                return False
        elif av is not bv and av != bv:
            return False
    return True


# ----------------------------------------------------------------------
# The abstract plan executor
# ----------------------------------------------------------------------
def interpret_plan(
    plan: Plan,
    rules: List[Rule],
    state: AbstractDesignState,
    block: str = "",
    style: str = "",
    spec_label: str = "",
    max_restarts: int = 10,
) -> AbstractRun:
    """Abstractly execute ``plan`` over ``state``.

    Mirrors the concrete ``PlanExecutor`` loop -- recovery and monitor
    rules fire with their real budgets -- but never raises: failures,
    numeric hazards and rule-liveness statistics are *recorded*, and
    restart cycles are cut by widening so the analysis provably
    terminates regardless of plan budgets.
    """
    block = block or plan.name
    started = time.perf_counter()
    with abstract_numeric_context() as ctx:
        outcomes: List[StepOutcome] = []
        opaque_steps: List[str] = []
        stats = {rule.name: RuleObservation(rule.name) for rule in rules}
        firings = {rule.name: 0 for rule in rules}
        cycles: List[CycleEvidence] = []
        visit_counts: Dict[str, int] = {}
        visit_states: Dict[str, AbstractDesignState] = {}
        restarts = 0
        failure: Optional[AbstractFailure] = None
        completed = False

        def offer_to_rules(
            failed_step: Optional[PlanStep] = None,
        ) -> Optional[Union[Restart, Abort]]:
            for rule in rules:
                if firings[rule.name] >= rule.max_firings:
                    continue
                if failed_step is not None and not rule.on_failure:
                    continue
                if failed_step is None and rule.on_failure:
                    continue
                if (
                    failed_step is not None
                    and rule.on_failure_steps is not None
                    and failed_step.name not in rule.on_failure_steps
                ):
                    continue
                observation = stats[rule.name]
                observation.offered += 1
                # Side-channel liveness probe: could the condition hold
                # *anywhere* in the abstract state?  Never pollutes the
                # main path's approximation flag or event log.
                with ctx.preserving():
                    with ctx.possible():
                        try:
                            possibly = bool(rule.condition(state))
                        except PlanError:
                            possibly = False
                        except Exception:
                            possibly = True
                            observation.condition_opaque = True
                if possibly:
                    observation.possibly_applicable += 1
                # Main-path decision (midpoint fallback marks the flag).
                ctx.location = f"{block}/rule:{rule.name}"
                try:
                    applicable = rule.condition(state)
                except PlanError:
                    continue
                except Exception:
                    ctx.mark_approximated()
                    continue
                if not applicable:
                    continue
                firings[rule.name] += 1
                observation.fired += 1
                try:
                    action = rule.action(state)
                except Exception:
                    ctx.mark_approximated()
                    continue
                if isinstance(action, (Restart, Abort)):
                    return action
            return None

        def note_restart(rule_name: str, target_name: str) -> bool:
            """Track a restart; returns False when widening found a
            stable cycle and the loop must be cut."""
            count = visit_counts.get(target_name, 0) + 1
            visit_counts[target_name] = count
            if count <= WIDEN_AFTER:
                visit_states[target_name] = state.clone()
                return True
            prev = visit_states[target_name]
            widened = _widen_state(prev, state)
            ctx.mark_approximated()
            stable = _states_equal(widened, prev)
            state.vars = widened.vars
            state.choices = widened.choices
            state.lenient = widened.lenient or state.lenient
            visit_states[target_name] = state.clone()
            if stable:
                cycles.append(CycleEvidence(rule_name, target_name, count))
                return False
            return True

        index = 0
        cut = False
        while index < len(plan.steps) and not cut:
            step = plan.steps[index]
            ctx.location = f"{block}/{step.name}"
            events_mark = len(ctx.events)
            before = dict(state.vars)
            status, message = "ok", ""
            try:
                step.action(state)
            except SynthesisError as exc:
                status, message = "raised", str(exc)
            except PlanError as exc:
                status, message = "opaque", f"abstract read failed: {exc}"
            except ReproError as exc:
                status, message = "opaque", f"{type(exc).__name__}: {exc}"
            except Exception as exc:  # noqa: BLE001 - analysis must survive
                status, message = "opaque", f"{type(exc).__name__}: {exc}"

            # Scan variables this step (re)bound for physically
            # impossible (entirely negative) intervals.
            for name, value in state.vars.items():
                if before.get(name) is value:
                    continue
                iv = value if isinstance(value, Interval) else None
                if iv is not None and iv.hi < 0.0 and is_physical_name(name):
                    ctx.record(
                        "negative",
                        True,
                        f"{name} = {iv!r} is entirely negative",
                    )

            outcomes.append(
                StepOutcome(
                    step=step.name,
                    status=status,
                    message=message,
                    events=list(ctx.events[events_mark:]),
                )
            )

            if status == "opaque":
                opaque_steps.append(step.name)
                state.lenient = True
                ctx.mark_approximated()
                index += 1
                continue

            if status == "raised":
                action = offer_to_rules(failed_step=step)
                if action is None or isinstance(action, Abort):
                    reason = message if action is None else action.reason
                    failure = AbstractFailure(
                        step=step.name,
                        message=reason,
                        definite=not ctx.approximated and not opaque_steps,
                    )
                    break
                restarts += 1
                if restarts > max_restarts:
                    failure = AbstractFailure(
                        step=step.name,
                        message="restart budget exhausted while patching",
                        definite=not ctx.approximated and not opaque_steps,
                    )
                    break
                if restarts > MAX_ANALYSIS_RESTARTS:
                    cycles.append(
                        CycleEvidence("<analysis-budget>", step.name, restarts)
                    )
                    cut = True
                    break
                try:
                    target = plan.index_of(action.step)
                except PlanError:
                    cut = True  # PLAN202 territory; nothing sound to do
                    break
                if target > index:
                    cut = True  # recovery may not jump forward (PlanError)
                    break
                if not note_restart(_last_firing(stats), action.step):
                    cut = True
                    break
                index = target
                continue

            # Step succeeded: monitor rules may still redirect the plan.
            action = offer_to_rules(failed_step=None)
            if action is not None:
                if isinstance(action, Abort):
                    failure = AbstractFailure(
                        step=step.name,
                        message=f"aborted by rule: {action.reason}",
                        definite=not ctx.approximated and not opaque_steps,
                    )
                    break
                restarts += 1
                if restarts > max_restarts:
                    failure = AbstractFailure(
                        step=step.name,
                        message="restart budget exhausted",
                        definite=not ctx.approximated and not opaque_steps,
                    )
                    break
                if restarts > MAX_ANALYSIS_RESTARTS:
                    cycles.append(
                        CycleEvidence("<analysis-budget>", step.name, restarts)
                    )
                    break
                try:
                    target = plan.index_of(action.step)
                except PlanError:
                    break
                if not note_restart(_last_firing(stats), action.step):
                    break
                index = target
                continue

            index += 1
        else:
            completed = failure is None

        elapsed_ms = (time.perf_counter() - started) * 1e3
        return AbstractRun(
            block=block,
            style=style,
            spec_label=spec_label,
            outcomes=outcomes,
            completed=completed,
            failure=failure,
            approximated=ctx.approximated,
            opaque_steps=opaque_steps,
            rule_stats=stats,
            cycles=cycles,
            restarts=restarts,
            elapsed_ms=elapsed_ms,
            final_vars=dict(state.vars),
        )


def _last_firing(stats: Dict[str, RuleObservation]) -> str:
    """Name of the rule that fired most recently (best-effort label for
    cycle evidence; exact attribution is kept simple on purpose)."""
    best = ""
    best_count = -1
    for name, observation in stats.items():
        if observation.fired > 0 and observation.fired >= best_count:
            best, best_count = name, observation.fired
    return best or "<unknown>"


# ----------------------------------------------------------------------
# Spec inflation + template entry point
# ----------------------------------------------------------------------
_PM_CEILING = 89.999


def abstract_opamp_spec(spec: OpAmpSpec, corner: float = DEFAULT_CORNER) -> OpAmpSpec:
    """Inflate a concrete spec into interval form: every positive field
    becomes ``[v*(1-corner), v*(1+corner)]`` (zero sentinels stay zero,
    and the phase margin stays inside its (0, 90) domain).

    Must be called inside :func:`abstract_numeric_context` so the
    ``OpAmpSpec.__post_init__`` validation comparisons are accounted to
    the analysis.
    """
    if corner < 0:
        raise PlanError(f"corner must be non-negative, got {corner}")
    updates: Dict[str, Any] = {}
    for name in (
        "gain_db",
        "unity_gain_hz",
        "phase_margin_deg",
        "slew_rate",
        "load_capacitance",
        "output_swing",
        "offset_max_mv",
        "power_max",
        "area_max",
        "input_common_mode",
        "input_noise_max_nv",
    ):
        value = getattr(spec, name)
        if isinstance(value, Interval):
            updates[name] = value
            continue
        if value <= 0:
            continue  # zero sentinels ("unconstrained") stay concrete
        lo, hi = value * (1.0 - corner), value * (1.0 + corner)
        if name == "phase_margin_deg":
            hi = _ORIG_MIN(hi, _ORIG_MAX(float(value), _PM_CEILING))
            hi = _ORIG_MAX(hi, lo)
        updates[name] = Interval(lo, hi)
    return replace(spec, **updates)


def interpret_template(
    template: TopologyTemplate,
    spec: OpAmpSpec,
    process: ProcessParameters,
    corner: float = DEFAULT_CORNER,
    spec_label: str = "",
    max_restarts: int = 10,
) -> AbstractRun:
    """Abstractly execute one template's plan over an inflated spec.

    This is the per-style unit of the feasibility pass: it never invokes
    the concrete ``PlanExecutor`` and never packages a netlist, so it is
    orders of magnitude cheaper than designing the style.
    """
    with abstract_numeric_context():
        aspec = abstract_opamp_spec(spec, corner)
        state = AbstractDesignState(aspec.to_specification(), process)
        state.set("opamp_spec", aspec)
        state.set("trace", DesignTrace())  # sacrificial sink for step notes
        plan = template.build_plan()
        rules = template.build_rules()
        return interpret_plan(
            plan,
            rules,
            state,
            block=f"{template.block_type}/{template.style}",
            style=template.style,
            spec_label=spec_label,
            max_restarts=max_restarts,
        )
