"""DC operating-point solver: damped Newton-Raphson with homotopy.

The solve strategy mirrors SPICE2 practice, formalized as a declarative
:class:`~repro.resilience.RetryLadder` (see
:func:`build_dc_ladder`):

1. *plain* Newton-Raphson from the initial guess, undamped, with a
   short iteration cap and early divergence bail -- the cheap
   quadratic-convergence path for *warm* starts (sweep continuation,
   transient restarts).  From a cold flat start undamped NR mostly
   oscillates, so :func:`operating_point` drops this rung unless an
   initial guess was supplied;
2. *damped* Newton-Raphson: per-iteration voltage-step limiting;
3. on failure, *gmin stepping*: converge with a large gmin shunt on
   every node, then relax gmin decade by decade, re-converging each
   time;
4. on failure, *source stepping*: ramp all independent sources from 0
   to 100 % in increments, converging at each level.

Each rung's failure is chained (``raise ... from``) into the next, the
terminal :class:`~repro.errors.ConvergenceError` carries the
*cumulative* iteration count across every rung, and the full
escalation history can be recorded into a
:class:`~repro.kb.trace.DesignTrace`.

The Newton iteration itself (:func:`newton_batch`) is the simulator's
one Newton loop.  It runs over a batch of systems -- one circuit on
several process corners solves as one batch
(:func:`stacked_operating_points`), a single solve is a batch of one
(:func:`newton_solve`), and so is a transient timestep.

Every Newton iterate's device evaluations flow through
:meth:`MnaSystem.assemble_dc_system` and
:meth:`MnaSystem.assemble_dc_residual`, so the solver is model-agnostic;
they return only the residual and Jacobian.  A converged solve asks the
system for its device operating points once
(:meth:`MnaSystem.package_result`).  The solver cooperates with the
resilience layer: an ambient :class:`~repro.resilience.Budget` is
charged per Newton iteration, and the ``dc.newton`` /
``dc.newton.nan`` fault points make every escalation path exercisable
in tests (see :mod:`repro.resilience.faults`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from ..cache import circuit_key, content_key, current_cache, process_key
from ..circuit.netlist import Circuit
from ..devices.mosfet import MosfetOperatingPoint, Region
from ..errors import ConvergenceError, SimulationError
from ..kb.trace import DesignTrace
from ..obs.metrics import LATENCY_BUCKETS_MS
from ..obs.spans import count as metric_count
from ..obs.spans import observe as metric_observe
from ..obs.spans import span as obs_span
from ..process.parameters import ProcessParameters
from ..resilience import Budget, LadderTrace, RetryLadder, Rung, current_budget
from ..resilience.faults import fault_point
from .assembly import solve_linear
from .mna import MnaSystem, MosfetOperatingPoint, OperatingPointResult

__all__ = [
    "operating_point",
    "stacked_operating_points",
    "newton_solve",
    "newton_batch",
    "build_dc_ladder",
]

#: Absolute voltage tolerance, volts.
VTOL = 1e-9
#: Relative tolerance.
RELTOL = 1e-6
#: Residual current tolerance, amps.
ITOL = 1e-12
#: Largest allowed Newton voltage update per iteration, volts.
MAX_STEP = 1.0
#: Iteration cap for the cheap undamped first rung.
PLAIN_ITERATION_CAP = 25
#: Consecutive residual-norm increases before the plain rung bails.
DIVERGE_AFTER = 5


@dataclass
class _Solved:
    """A converged rung outcome (pre-packaging)."""

    x: np.ndarray
    iterations: int


#: One batch member's Newton outcome: its converged state or its failure.
NewtonOutcome = Union[_Solved, ConvergenceError]


def newton_batch(
    systems: Sequence[MnaSystem],
    x0s: Sequence[np.ndarray],
    gmin: float,
    source_scale: float,
    max_iterations: int = 150,
    max_step: Optional[float] = MAX_STEP,
    diverge_after: Optional[int] = None,
    budget: Optional[Budget] = None,
    block: str = "dc",
) -> List[NewtonOutcome]:
    """(Optionally damped) NR iteration at fixed gmin / source level over
    a batch of same-size systems.

    Every member iterates on its own -- its own damping, convergence
    test and divergence streak -- but a dense batch shares one stacked
    LU call per iteration.  A member that converges or fails leaves the
    batch and the others carry on, so each member takes exactly the
    trajectory it would take alone.  A batch of one is
    :func:`newton_solve`.

    Each iterate x_k is assembled once.  Step k converges when its
    voltage move is within ``VTOL + RELTOL*|x|`` and the KCL residual at
    x_k within ``ITOL``.  A step that passes the voltage test is
    confirmed by :meth:`MnaSystem.assemble_dc_residual` alone; any
    other step is judged by the residual of the full assembly of x_k,
    whose Jacobian then takes step k+1.

    Args:
        systems: one or more systems of equal size (e.g. one circuit on
            several process corners).
        x0s: start vector per member.
        max_step: largest voltage move per iteration (None = undamped).
        diverge_after: a member bails out after this many *consecutive*
            iterations of growing residual norm (None = never; used by
            the cheap plain rung so divergence fails fast).
        budget: explicit iteration/wall budget, charged one iteration
            per active member before its step; when None the ambient
            budget installed by :meth:`repro.resilience.Budget.active`
            is charged instead, so a synthesis-level deadline reaches
            this inner loop without parameter threading.
        block: context for budget errors.

    Returns:
        One outcome per member, in order: its converged state, or the
        :class:`ConvergenceError` it failed with (iteration limit,
        numerically singular Jacobian, non-finite update, divergence).

    Raises:
        BudgetExceeded: when the governing budget trips mid-iteration.
    """
    try:
        fault_point("dc.newton")
    except ConvergenceError as exc:
        return [exc] * len(systems)
    if budget is None:
        budget = current_budget()
    n_nodes = systems[0].n_nodes
    xs = [x0.copy() for x0 in x0s]
    outcomes: List[Optional[NewtonOutcome]] = [None] * len(systems)
    # Full assembly (residual, Jacobian) of each member's x.
    assembled: List[Any] = [None] * len(systems)
    # Members whose last step failed the voltage test and still owes the
    # divergence streak the residual at the point it reached.
    unjudged = [False] * len(systems)
    growth_streaks = [0] * len(systems)
    last_norms = [np.inf] * len(systems)

    def judge(i: int, residual: np.ndarray, v_ok: bool, step: int) -> None:
        """Settle member ``i``'s ``step`` from the residual at its new x."""
        if v_ok and (np.abs(residual[:n_nodes]) <= ITOL * 10 + 1e-9).all():
            outcomes[i] = _Solved(xs[i], step)
            return
        if diverge_after is None:
            return
        norm = float(np.max(np.abs(residual[:n_nodes]))) if n_nodes else 0.0
        if not np.isfinite(norm) or norm > last_norms[i]:
            growth_streaks[i] += 1
            if growth_streaks[i] >= diverge_after:
                outcomes[i] = ConvergenceError(
                    f"diverging: residual grew "
                    f"{growth_streaks[i]} iterations in a row",
                    step,
                )
        else:
            growth_streaks[i] = 0
        if np.isfinite(norm):
            last_norms[i] = norm

    active = list(range(len(systems)))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for iteration in range(1, max_iterations + 1):
            for i in active:
                if unjudged[i]:
                    unjudged[i] = False
                    assembled[i] = systems[i].assemble_dc_system(
                        xs[i], gmin, source_scale
                    )
                    judge(i, assembled[i][0], False, iteration - 1)
            active = [i for i in active if outcomes[i] is None]
            if not active:
                break
            if budget is not None:
                budget.charge_newton(len(active), block=block, step="newton")
            batch = [
                assembled[i]
                or systems[i].assemble_dc_system(xs[i], gmin, source_scale)
                for i in active
            ]
            deltas = _newton_updates(
                [jacobian for _, jacobian in batch],
                [-residual for residual, _ in batch],
            )
            poisoned = (
                any(not isinstance(d, np.linalg.LinAlgError) for d in deltas)
                and fault_point("dc.newton.nan") is not None
            )
            for i, delta in zip(active, deltas):
                if isinstance(delta, np.linalg.LinAlgError):
                    failure = ConvergenceError(
                        f"singular Jacobian: {delta}", iteration
                    )
                    failure.__cause__ = delta
                    outcomes[i] = failure
                    continue
                if poisoned:
                    delta = delta * np.nan
                if not np.isfinite(delta).all():
                    outcomes[i] = ConvergenceError(
                        "non-finite Newton update", iteration
                    )
                    continue

                # Damp: limit the largest voltage move per iteration.
                worst = np.abs(delta[:n_nodes]).max() if n_nodes else 0.0
                if max_step is not None and worst > max_step:
                    delta = delta * (max_step / worst)
                x = xs[i] = xs[i] + delta
                assembled[i] = None
                v_ok = bool(
                    (
                        np.abs(delta[:n_nodes])
                        <= VTOL + RELTOL * np.abs(x[:n_nodes])
                    ).all()
                )
                final = iteration == max_iterations
                if v_ok or (final and diverge_after is not None):
                    residual = systems[i].assemble_dc_residual(
                        x, gmin, source_scale
                    )
                    judge(i, residual, v_ok, iteration)
                else:
                    unjudged[i] = diverge_after is not None
            active = [i for i in active if outcomes[i] is None]
    for i in active:
        outcomes[i] = ConvergenceError(
            f"no convergence in {max_iterations} NR iterations "
            f"(gmin={gmin:g}, scale={source_scale:g})",
            max_iterations,
        )
    return outcomes  # type: ignore[return-value]


def _newton_updates(
    jacobians: List[np.ndarray], rhs: List[np.ndarray]
) -> List[Union[np.ndarray, np.linalg.LinAlgError]]:
    """Solve each member's Newton system, a batch as one stacked LU
    call.  A member whose solve fails gets its error instead."""
    if len(jacobians) > 1:
        try:
            return list(solve_linear(np.stack(jacobians), np.stack(rhs)))
        except np.linalg.LinAlgError:
            pass  # some member is singular: solve one by one to find it
    updates: List[Union[np.ndarray, np.linalg.LinAlgError]] = []
    for jacobian, b in zip(jacobians, rhs):
        try:
            updates.append(solve_linear(jacobian, b))
        except np.linalg.LinAlgError as exc:
            updates.append(exc)
    return updates


def newton_solve(
    system: MnaSystem,
    x0: np.ndarray,
    gmin: float,
    source_scale: float,
    max_iterations: int = 150,
    max_step: Optional[float] = MAX_STEP,
    diverge_after: Optional[int] = None,
    budget: Optional[Budget] = None,
    block: str = "dc",
):
    """One system's NR iteration: a :func:`newton_batch` of one.

    Returns:
        (x, iterations)

    Raises:
        ConvergenceError: if the iteration limit is reached, the
            Jacobian is numerically singular, or the update goes
            non-finite.
        BudgetExceeded: when the governing budget trips mid-iteration.
    """
    (outcome,) = newton_batch(
        [system],
        [x0],
        gmin,
        source_scale,
        max_iterations,
        max_step=max_step,
        diverge_after=diverge_after,
        budget=budget,
        block=block,
    )
    if isinstance(outcome, ConvergenceError):
        raise outcome
    return outcome.x, outcome.iterations


def _rung_settings(rung: str, max_iterations: int) -> Dict[str, Any]:
    """Newton settings of the ``plain`` (undamped, short cap, early
    divergence bail) and ``damped`` ladder rungs."""
    if rung == "plain":
        return {
            "max_iterations": min(max_iterations, PLAIN_ITERATION_CAP),
            "max_step": None,
            "diverge_after": DIVERGE_AFTER,
        }
    return {"max_iterations": max_iterations}


def build_dc_ladder(
    system: MnaSystem,
    x0: np.ndarray,
    max_iterations: int = 150,
    budget: Optional[Budget] = None,
    block: str = "dc",
) -> RetryLadder:
    """The default DC escalation ladder over ``system``.

    Declarative and extensible: callers may take the returned ladder
    and :meth:`~repro.resilience.RetryLadder.extended` /
    :meth:`~repro.resilience.RetryLadder.without` it, or supply their
    own via ``operating_point(..., ladder_factory=...)``.
    """

    def newton_rung(rung: str) -> Callable[[Optional[BaseException]], _Solved]:
        def solve(last: Optional[BaseException]) -> _Solved:
            x, used = newton_solve(
                system,
                x0,
                1e-12,
                1.0,
                budget=budget,
                block=block,
                **_rung_settings(rung, max_iterations),
            )
            return _Solved(x, used)

        return solve

    def gmin_stepping(last: Optional[BaseException]) -> _Solved:
        x = x0.copy()
        total = 0
        try:
            for exponent in range(3, 13):
                gmin = 10.0 ** (-exponent)
                x, used = newton_solve(
                    system, x, gmin, 1.0, max_iterations, budget=budget, block=block
                )
                total += used
            x, used = newton_solve(
                system, x, 1e-12, 1.0, max_iterations, budget=budget, block=block
            )
            total += used
        except ConvergenceError as exc:
            raise ConvergenceError(
                f"gmin stepping stalled at gmin={gmin:g}: {exc}",
                total + exc.iterations,
                rung="gmin",
            ) from exc
        return _Solved(x, total)

    def source_stepping(last: Optional[BaseException]) -> _Solved:
        x = x0.copy()
        total = 0
        try:
            for scale in np.linspace(0.1, 1.0, 19):
                x, used = newton_solve(
                    system,
                    x,
                    1e-12,
                    float(scale),
                    max_iterations,
                    budget=budget,
                    block=block,
                )
                total += used
        except ConvergenceError as exc:
            raise ConvergenceError(
                f"source stepping stalled at {float(scale) * 100:.0f} % "
                f"drive: {exc}",
                total + exc.iterations,
                rung="source",
            ) from exc
        return _Solved(x, total)

    def exhausted(trace: LadderTrace, last: BaseException) -> BaseException:
        return ConvergenceError(
            f"{block}: DC operating point failed after "
            f"{' -> '.join(trace.rungs_tried)} "
            f"({trace.total_iterations} total iterations): {last}",
            trace.total_iterations,
            rung=trace.attempts[-1].rung if trace.attempts else "",
        )

    return RetryLadder(
        rungs=(
            Rung("plain", newton_rung("plain"), description="undamped NR, short cap"),
            Rung("damped", newton_rung("damped"), description="step-limited NR"),
            Rung("gmin", gmin_stepping, description="gmin homotopy"),
            Rung("source", source_stepping, description="source ramp homotopy"),
        ),
        retry_on=(ConvergenceError,),
        exhausted=exhausted,
    )


# ----------------------------------------------------------------------
# Operating-point memoization (repro.cache hook)
# ----------------------------------------------------------------------
def _op_cache_key(
    circuit: Circuit,
    process: ProcessParameters,
    initial_guess: Optional[Dict[str, float]],
    max_iterations: int,
    vth_shifts: Optional[Dict[str, float]],
    source_values: Optional[Mapping[str, float]] = None,
) -> str:
    """Content address of one DC solve: netlist + process + solver
    inputs.  Solver *strategy* (the ladder) is not part of the key: a
    converged operating point is a property of the circuit, not of the
    homotopy that found it."""
    parts: List[Any] = [
        "operating_point",
        circuit_key(circuit),
        process_key(process),
        dict(initial_guess or {}),
        max_iterations,
        dict(vth_shifts or {}),
    ]
    if source_values:  # only when given: netlist-value solves keep old keys
        parts.append(_normalized(source_values))
    return content_key(*parts)


def _normalized(source_values: Optional[Mapping[str, float]]) -> Dict[str, float]:
    return {name.lower(): float(v) for name, v in (source_values or {}).items()}


def _op_to_payload(result: OperatingPointResult) -> Dict[str, object]:
    """Serialize a converged operating point for the cache."""
    return {
        "voltages": dict(result.voltages),
        "source_currents": dict(result.source_currents),
        "iterations": result.iterations,
        "device_ops": {
            name: {
                "region": op.region.value,
                "ids": op.ids,
                "vgs": op.vgs,
                "vds": op.vds,
                "vbs": op.vbs,
                "vth": op.vth,
                "vdsat": op.vdsat,
                "gm": op.gm,
                "gds": op.gds,
                "gmbs": op.gmbs,
                "cgs": op.cgs,
                "cgd": op.cgd,
                "cgb": op.cgb,
                "cbd": op.cbd,
                "cbs": op.cbs,
                "reversed_mode": op.reversed_mode,
            }
            for name, op in result.device_ops.items()
        },
    }


def _op_from_payload(
    payload: Dict[str, object],
    circuit: Circuit,
    source_values: Optional[Mapping[str, float]],
) -> OperatingPointResult:
    """Rebuild a fresh :class:`OperatingPointResult` from cached JSON
    (fresh dicts every time: cached state is never aliased).  Its source
    voltages are the solve's inputs, part of the key that found it."""
    device_ops = {
        str(name): MosfetOperatingPoint(
            region=Region(fields.pop("region")),
            **fields,
        )
        for name, fields in (
            (n, dict(f)) for n, f in dict(payload["device_ops"]).items()  # type: ignore[arg-type]
        )
    }
    from ..circuit.elements import VoltageSource

    driven = _normalized(source_values)
    return OperatingPointResult(
        voltages={str(k): float(v) for k, v in dict(payload["voltages"]).items()},  # type: ignore[arg-type]
        source_currents={
            str(k): float(v)
            for k, v in dict(payload["source_currents"]).items()  # type: ignore[arg-type]
        },
        device_ops=device_ops,
        iterations=int(payload["iterations"]),  # type: ignore[arg-type]
        source_voltages={
            element.name.lower(): driven.get(element.name.lower(), element.dc)
            for element in circuit.elements
            if isinstance(element, VoltageSource)
        },
    )


# ----------------------------------------------------------------------
# Solves
# ----------------------------------------------------------------------
def _initial_vector(
    system: MnaSystem, initial_guess: Optional[Dict[str, float]]
) -> np.ndarray:
    """Start vector: seeded node voltages, everything else 0."""
    x0 = np.zeros(system.size)
    for node, voltage in (initial_guess or {}).items():
        if node in system.node_index:
            x0[system.node_index[node]] = voltage
    return x0


def _count_solve(attempts: Iterable[Tuple[str, int]]) -> None:
    """Counters of one converged solve, from its (rung, iterations)
    attempts: one LU factor-and-solve per Newton iteration."""
    attempts = list(attempts)
    total = sum(iterations for _, iterations in attempts)
    metric_count("dc.solves")
    metric_count("dc.lu_solves", n=total)
    metric_observe("dc.iterations_per_solve", total)
    for rung, iterations in attempts:
        metric_count("dc.newton.iterations", n=iterations, rung=rung)


def operating_point(
    circuit: Union[Circuit, MnaSystem],
    process: ProcessParameters,
    initial_guess: Optional[Dict[str, float]] = None,
    max_iterations: int = 150,
    vth_shifts: Optional[Dict[str, float]] = None,
    budget: Optional[Budget] = None,
    trace: Optional[DesignTrace] = None,
    ladder_factory: Optional[
        Callable[[MnaSystem, np.ndarray, int, Optional[Budget], str], RetryLadder]
    ] = None,
    source_values: Optional[Mapping[str, float]] = None,
) -> OperatingPointResult:
    """Solve the DC operating point of ``circuit``.

    Args:
        circuit: the netlist (validated here), or an :class:`MnaSystem`
            built from a validated one, which brings its own
            ``vth_shifts`` and must have been built with ``process``.
        process: process parameters providing the MOSFET models.
        initial_guess: optional node-voltage seeds (unlisted nodes start
            at 0 V).
        max_iterations: NR budget per homotopy step.
        vth_shifts: optional per-device threshold perturbations, volts
            (Monte Carlo mismatch hook; see :class:`MnaSystem`).
        budget: explicit resilience budget charged per Newton
            iteration; defaults to the ambient budget, if any.
        trace: optional design trace; the ladder escalation history is
            recorded into it as ``ladder`` events.
        ladder_factory: override the escalation ladder (defaults to
            :func:`build_dc_ladder`); called as
            ``factory(system, x0, max_iterations, budget, block)``.
        source_values: independent-source values of this solve, name ->
            volts or amps (see :meth:`MnaSystem.set_source_values`).

    Returns:
        A converged :class:`OperatingPointResult` whose ``iterations``
        is the cumulative count across every ladder rung attempted.

    Raises:
        ConvergenceError: if all ladder rungs fail; ``iterations`` is
            cumulative across rungs and the per-rung history is
            available via the ``__cause__`` chain.
        SimulationError: ``source_values`` names a non-source, or a
            system comes with another process or ``vth_shifts``.
        BudgetExceeded: when the governing budget trips mid-solve.
    """
    system: Optional[MnaSystem] = None
    if isinstance(circuit, MnaSystem):
        system, circuit = circuit, circuit.circuit
        if vth_shifts is not None or process != system.process:
            raise SimulationError(
                f"{circuit.name}: a built system keeps its process and vth_shifts"
            )
        vth_shifts = system.vth_shifts
    if system is None:
        circuit.validate()

    # Deterministic memoization: with an ambient ResultCache, identical
    # (netlist, process, guess, mismatch) solves are answered from the
    # cache.  Custom ladder factories opt out -- they exist precisely to
    # observe the solve, not just its answer.
    cache = current_cache() if ladder_factory is None else None
    op_key = ""
    if cache is not None:
        op_key = _op_cache_key(
            circuit, process, initial_guess, max_iterations, vth_shifts,
            source_values,
        )
        cached = cache.get("op", op_key)
        if cached is not None:
            metric_count("dc.cache_hits")
            return _op_from_payload(cached, circuit, source_values)

    if system is None:
        system = MnaSystem(circuit, process, vth_shifts=vth_shifts)
    system.set_source_values(source_values)
    x0 = _initial_vector(system, initial_guess)

    block = f"dc/{circuit.name}"
    factory = ladder_factory or build_dc_ladder
    ladder = factory(system, x0, max_iterations, budget, block)
    if ladder_factory is None and not (initial_guess and np.any(x0)):
        # Cold start: undamped NR from a flat guess mostly oscillates
        # its full cap away before the damped rung redoes the work, so
        # the cheap rung only pays for itself on warm starts.
        ladder = ladder.without("plain")
    solve_started = time.perf_counter()
    with obs_span(
        f"dc:{circuit.name}", category="sim",
        block=block, nodes=system.n_nodes,
    ) as solve_span:
        try:
            solved, ladder_trace = ladder.climb()
        except ConvergenceError as exc:
            metric_count("dc.failures")
            metric_count("dc.newton.iterations", n=exc.iterations, rung="failed")
            metric_observe(
                "dc.solve_ms",
                (time.perf_counter() - solve_started) * 1e3,
                bounds=LATENCY_BUCKETS_MS,
                status="failed",
            )
            if trace is not None:
                trace.ladder(block, exc.rung or "?", f"exhausted: {exc}")
            raise
        solve_span.set("iterations", ladder_trace.total_iterations)
        solve_span.set("rung", ladder_trace.succeeded_on())
        _count_solve(
            (attempt.rung, attempt.iterations) for attempt in ladder_trace.attempts
        )
        metric_observe(
            "dc.solve_ms",
            (time.perf_counter() - solve_started) * 1e3,
            bounds=LATENCY_BUCKETS_MS,
            status="ok",
        )
    if trace is not None and len(ladder_trace.attempts) > 1:
        for attempt in ladder_trace.attempts:
            outcome = "converged" if attempt.ok else f"failed ({attempt.error})"
            trace.ladder(
                block,
                attempt.rung,
                f"attempt {attempt.attempt}: {outcome} "
                f"after {attempt.iterations} iterations",
            )
    result = system.package_result(solved.x, ladder_trace.total_iterations)
    if cache is not None:
        cache.put("op", op_key, _op_to_payload(result))
    return result


def stacked_operating_points(
    circuit: Circuit,
    processes: Mapping[str, ProcessParameters],
    initial_guess: Optional[Dict[str, float]] = None,
    max_iterations: int = 150,
) -> Dict[str, OperatingPointResult]:
    """DC operating points of one circuit on several processes at once.

    Every process's system runs the rung a solo :func:`operating_point`
    tries first (plain NR from a warm guess, damped NR from a cold one)
    in one :func:`newton_batch`, so a dense batch shares one stacked LU
    per iteration and a corner that converges there reports exactly the
    voltages and iteration count of its solo solve.  A corner that fails
    that rung climbs the full solo ladder.  The op cache is not used.

    Args:
        circuit: the netlist, shared by every corner.
        processes: label -> process parameters (e.g. corner name ->
            cornered process).
        initial_guess / max_iterations: as for :func:`operating_point`.

    Returns:
        label -> converged :class:`OperatingPointResult`, one per entry
        of ``processes`` (same labels, same order).
    """
    labels = list(processes)
    if not labels:
        return {}
    circuit.validate()
    systems = [MnaSystem(circuit, processes[label]) for label in labels]
    x0 = _initial_vector(systems[0], initial_guess)
    rung = "plain" if initial_guess and np.any(x0) else "damped"
    results: Dict[str, OperatingPointResult] = {}
    with obs_span(
        f"dc.corners:{circuit.name}",
        category="sim",
        corners=len(labels),
        nodes=systems[0].n_nodes,
    ) as corner_span:
        outcomes = newton_batch(
            systems,
            [x0] * len(systems),
            1e-12,
            1.0,
            block=f"dc.corners/{circuit.name}",
            **_rung_settings(rung, max_iterations),
        )
        for label, system, outcome in zip(labels, systems, outcomes):
            if isinstance(outcome, _Solved):
                _count_solve([(rung, outcome.iterations)])
                results[label] = system.package_result(outcome.x, outcome.iterations)
        corner_span.set("batched", len(results))
        corner_span.set("fallback", len(labels) - len(results))
        metric_count("dc.corner_batch.solves", n=len(results))
    for label in labels:
        if label not in results:
            # Failed its first rung in the batch: the full escalation
            # ladder takes over for this corner alone.
            metric_count("dc.corner_batch.fallbacks")
            results[label] = operating_point(
                circuit,
                processes[label],
                initial_guess=initial_guess,
                max_iterations=max_iterations,
            )
    return {label: results[label] for label in labels}
