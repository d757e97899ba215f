"""Deterministic fault injection (`chaos engineering <https://principlesofchaos.org/>`_ for the synthesizer).

The resilience layer is only trustworthy if every failure path it
guards is *exercisable on demand*.  This module provides named **fault
points** -- instrumented sites in the production code -- and a
deterministic injector that arms them either programmatically (the
:func:`inject` context manager, for tests) or from the environment
(``REPRO_FAULTS``, for the chaos CI job).

Design constraints:

* **Zero cost when disarmed.**  A disarmed :func:`fault_point` is a
  dict lookup plus a ``None`` check; no clocks, no randomness.
* **Deterministic.**  Faults fire on *hit counts*, never probabilities:
  the n-th visit to a site fires, every run, so a chaos failure
  reproduces exactly.
* **Enumerable.**  Sites self-register at import time via
  :func:`register_fault_site`, so CI can assert each one is both
  reachable and survivable (``REPRO_FAULTS=all``).

Fault kinds:

``raise``
    raise the site's default exception (or one supplied to
    :func:`inject`) at the fault point;
``nan``
    return a :class:`FaultAction` the call site interprets as "corrupt
    this value with NaN" (used by the Newton solver);
``skew``
    return a :class:`FaultAction` carrying a clock skew in
    milliseconds (used by :class:`~repro.resilience.budget.Budget`).

Environment syntax (comma separated)::

    REPRO_FAULTS="dc.newton,plan.step=2"     # arm two sites; plan.step
                                             # fires on its 2nd visit
    REPRO_FAULTS="all"                       # arm every registered site
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from ..errors import ConvergenceError, FaultInjected

__all__ = [
    "FaultAction",
    "FaultSpec",
    "FaultInjector",
    "fault_point",
    "inject",
    "register_fault_site",
    "registered_sites",
    "active_injector",
]


@dataclass(frozen=True)
class FaultAction:
    """A value-type fault the call site must interpret.

    ``kind`` is ``"nan"`` or ``"skew"``; ``value`` is the skew in
    milliseconds for ``"skew"`` (unused for ``"nan"``)."""

    kind: str
    value: float = 0.0


@dataclass(frozen=True)
class _SiteInfo:
    """Registration record for one fault point."""

    description: str
    kind: str  # default fault kind at this site
    make_error: Optional[Callable[[], BaseException]] = None
    default_skew_ms: float = 0.0


#: site name -> registration record.  Populated at import time by the
#: instrumented modules; :func:`registered_sites` exposes it to CI.
_REGISTRY: Dict[str, _SiteInfo] = {}


def register_fault_site(
    site: str,
    description: str,
    kind: str = "raise",
    make_error: Optional[Callable[[], BaseException]] = None,
    default_skew_ms: float = 0.0,
) -> str:
    """Declare a fault point.  Returns ``site`` so modules can bind it.

    Idempotent for identical re-registration (modules may be reloaded
    by test harnesses); conflicting re-registration raises.
    """
    if kind not in ("raise", "nan", "skew"):
        raise FaultInjected(f"unknown fault kind {kind!r} for site {site!r}")
    info = _SiteInfo(description, kind, make_error, default_skew_ms)
    existing = _REGISTRY.get(site)
    if existing is not None and (existing.description, existing.kind) != (
        info.description,
        info.kind,
    ):
        raise FaultInjected(f"fault site {site!r} registered twice with conflicts")
    _REGISTRY[site] = info
    return site


def registered_sites() -> Dict[str, str]:
    """All registered fault points, site -> description.

    Importing :mod:`repro.resilience` pulls in every instrumented
    module, so after that import this map is complete."""
    return {site: info.description for site, info in _REGISTRY.items()}


@dataclass
class FaultSpec:
    """One armed site inside an injector.

    Attributes:
        site: fault-point name.
        kind: ``"raise"`` / ``"nan"`` / ``"skew"`` (defaults to the
            site's registered kind).
        at_hit: 1-based visit number on which the fault fires.
        times: how many consecutive visits fire (-1 = every visit from
            ``at_hit`` on).
        error: exception *factory* for ``raise`` faults (a fresh
            instance per firing, so tracebacks do not alias).
        skew_ms: clock skew for ``skew`` faults.
    """

    site: str
    kind: str = ""
    at_hit: int = 1
    times: int = 1
    error: Optional[Callable[[], BaseException]] = None
    skew_ms: float = 0.0


class FaultInjector:
    """An armed set of fault specs plus per-site hit accounting."""

    def __init__(self, specs: List[FaultSpec]):
        self.specs: Dict[str, FaultSpec] = {}
        for spec in specs:
            if spec.site != "all" and spec.site not in _REGISTRY:
                raise FaultInjected(
                    f"unknown fault site {spec.site!r}; registered: "
                    f"{sorted(_REGISTRY)}"
                )
            self.specs[spec.site] = spec
        self.hits: Dict[str, int] = {}
        #: (site, kind) per firing, in order -- chaos assertions read this.
        self.fired: List[Tuple[str, str]] = []

    # ------------------------------------------------------------------
    def _spec_for(self, site: str) -> Optional[FaultSpec]:
        spec = self.specs.get(site)
        if spec is None:
            spec = self.specs.get("all")
        return spec

    def visit(self, site: str) -> Optional[FaultAction]:
        """Record a visit to ``site``; fire if armed.  May raise."""
        spec = self._spec_for(site)
        if spec is None:
            return None
        count = self.hits.get(site, 0) + 1
        self.hits[site] = count
        if count < spec.at_hit:
            return None
        if spec.times >= 0 and count >= spec.at_hit + spec.times:
            return None
        info = _REGISTRY[site]
        kind = spec.kind or info.kind
        self.fired.append((site, kind))
        if kind == "raise":
            factory = spec.error or info.make_error
            if factory is not None:
                raise factory()
            raise FaultInjected(f"injected fault at {site!r}", site=site)
        if kind == "skew":
            skew = spec.skew_ms or info.default_skew_ms
            return FaultAction("skew", skew)
        return FaultAction("nan")

    def fired_sites(self) -> List[str]:
        return [site for site, _ in self.fired]


# ----------------------------------------------------------------------
# Activation: an explicit stack (tests) over a lazily parsed
# environment injector (chaos CI).
# ----------------------------------------------------------------------
_STACK: List[FaultInjector] = []
_ENV_CACHE: Tuple[Optional[str], Optional[FaultInjector]] = (None, None)


def _parse_env(value: str) -> FaultInjector:
    """Parse ``REPRO_FAULTS``: ``site[=at_hit]`` comma separated, or
    ``all`` to arm every registered site once (on its first visit)."""
    specs: List[FaultSpec] = []
    for chunk in value.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        site, _, at_hit = chunk.partition("=")
        site = site.strip()
        specs.append(
            FaultSpec(site=site, at_hit=int(at_hit) if at_hit.strip() else 1)
        )
    return FaultInjector(specs)


def active_injector() -> Optional[FaultInjector]:
    """The injector consulted by :func:`fault_point`, or None.

    Explicitly pushed injectors (the :func:`inject` context manager)
    shadow the environment; the ``REPRO_FAULTS`` parse is cached per
    distinct value so repeated fault points stay cheap."""
    global _ENV_CACHE
    if _STACK:
        return _STACK[-1]
    value = os.environ.get("REPRO_FAULTS")
    if not value:
        return None
    if _ENV_CACHE[0] != value:
        _ENV_CACHE = (value, _parse_env(value))
    return _ENV_CACHE[1]


def fault_point(site: str) -> Optional[FaultAction]:
    """The production-code hook.  Returns None when disarmed.

    For ``raise`` faults the exception leaves directly from here; for
    value faults (``nan`` / ``skew``) the returned :class:`FaultAction`
    tells the call site what to corrupt."""
    injector = active_injector()
    if injector is None:
        return None
    return injector.visit(site)


class inject:
    """Context manager arming fault sites for a ``with`` block.

    >>> with inject("dc.newton"):
    ...     operating_point(circuit, process)   # first NR rung fails

    Keyword arguments (all optional): ``error`` -- exception factory or
    instance class for ``raise`` faults; ``nan`` / ``skew_ms`` to force
    a value fault; ``at_hit`` / ``times`` for when and how often.  The
    entered object is the :class:`FaultInjector`, so tests can assert
    on ``.fired``.
    """

    def __init__(
        self,
        *sites: str,
        error: Optional[Callable[[], BaseException]] = None,
        nan: bool = False,
        skew_ms: Optional[float] = None,
        at_hit: int = 1,
        times: int = 1,
    ):
        kind = ""
        if nan:
            kind = "nan"
        if skew_ms is not None:
            kind = "skew"
        self._injector = FaultInjector(
            [
                FaultSpec(
                    site=site,
                    kind=kind,
                    at_hit=at_hit,
                    times=times,
                    error=error,
                    skew_ms=skew_ms or 0.0,
                )
                for site in sites
            ]
        )

    def __enter__(self) -> FaultInjector:
        _STACK.append(self._injector)
        return self._injector

    def __exit__(self, *exc_info: object) -> None:
        _STACK.remove(self._injector)


# ----------------------------------------------------------------------
# Core site registrations.  Sites living in modules that resilience
# must not import (simulator, kb, opamp) are registered *here* so the
# registry is complete as soon as repro.resilience is imported, without
# creating import cycles; the instrumented modules reference the site
# by name.
# ----------------------------------------------------------------------


def _convergence_fault() -> BaseException:
    return ConvergenceError("injected fault: Newton refuses to converge", 0)


register_fault_site(
    "dc.newton",
    "Newton solver entry: the current ladder rung fails immediately "
    "with ConvergenceError (exercises rung escalation)",
    make_error=_convergence_fault,
)
register_fault_site(
    "dc.newton.nan",
    "Newton update corruption: the solver state goes NaN mid-iteration "
    "(exercises the non-finite guard and rung escalation)",
    kind="nan",
)


register_fault_site(
    "plan.step",
    "plan executor, before a step action: an unexpected internal error "
    "escapes a plan step (exercises candidate isolation)",
)
register_fault_site(
    "plan.rule",
    "plan executor, before rule evaluation: a rule blows up "
    "(exercises candidate isolation)",
)
register_fault_site(
    "selection.candidate",
    "style selection, before designing a candidate: the designer "
    "callable itself fails (exercises FailureReport taxonomy)",
)
register_fault_site(
    "opamp.package",
    "style packaging: turning a finished design state into a netlist "
    "fails (exercises post-plan isolation)",
)
register_fault_site(
    "analysis.measure",
    "measurement utilities: a performance measurement raises "
    "(exercises verification-path containment)",
)
register_fault_site(
    "cache.corrupt",
    "result-cache read: the fetched payload is poisoned after the read "
    "and before digest verification (exercises cache self-healing: a "
    "corrupt entry must become a recompute, never a wrong answer)",
    kind="nan",
)
register_fault_site(
    "worker.crash",
    "batch worker entry: the worker dies before running its task "
    "(exercises the batch engine's requeue/retry path)",
)
def _client_disconnect_fault() -> BaseException:
    return ConnectionResetError("injected fault: client went away mid-response")


register_fault_site(
    "serve.queue_overflow",
    "serve admission: the bounded request queue reports itself full "
    "even when it is not (exercises structured 429 backpressure: the "
    "client must get a retry-after hint, never a hang)",
    kind="nan",
)
register_fault_site(
    "serve.worker_stall",
    "serve dispatch: the job's worker wedges before doing any work "
    "(exercises supervisor containment: structured worker_stall error "
    "plus pool replacement, never a hung request)",
    kind="nan",
)
register_fault_site(
    "serve.client_disconnect",
    "serve response write: the client connection drops mid-stream "
    "(exercises per-connection isolation: the server abandons that "
    "response and keeps serving everyone else)",
    make_error=_client_disconnect_fault,
)
register_fault_site(
    "budget.clock",
    "budget clock skew: wall-clock jumps forward by skew_ms "
    "(exercises deadline handling without sleeping in tests)",
    kind="skew",
    default_skew_ms=3.6e6,
)


def iter_chaos_sites() -> Iterator[str]:
    """Sites the chaos suite must sample (all of them)."""
    return iter(sorted(_REGISTRY))
