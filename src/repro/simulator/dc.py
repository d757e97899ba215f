"""DC operating-point solver: damped Newton-Raphson with homotopy.

The solve strategy mirrors SPICE2 practice: a fixed escalation over
four rungs, cheapest first (:data:`_RUNGS`):

1. *plain* Newton-Raphson from the initial guess, undamped, with a
   short iteration cap and early divergence bail -- the cheap
   quadratic-convergence path for *warm* starts (sweep continuation,
   transient restarts).  From a cold flat start undamped NR mostly
   oscillates, so :func:`operating_point` skips this rung unless an
   initial guess was supplied;
2. *damped* Newton-Raphson: per-iteration voltage-step limiting;
3. on failure, *gmin stepping*: converge with a large gmin shunt on
   every node, then relax gmin decade by decade, re-converging each
   time;
4. on failure, *source stepping*: ramp all independent sources from 0
   to 100 % in increments, converging at each level.

Only a :class:`~repro.errors.ConvergenceError` moves the solve to the
next rung; anything else (a budget trip, a bug) propagates at once.
Each rung's failure is chained (``__cause__``) into the next, the
terminal :class:`~repro.errors.ConvergenceError` carries the
*cumulative* iteration count across every rung, and the full
escalation history can be recorded into a
:class:`~repro.kb.trace.DesignTrace`.

The Newton iteration itself (:func:`newton_solve`) is the simulator's
one Newton loop: every rung runs it, and so does a transient timestep.
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
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Tuple,
    Union,
)

import numpy as np

from ..cache import circuit_key, content_key, current_cache, process_key
from ..circuit.netlist import Circuit
from ..devices.mosfet import MosfetOperatingPoint, Region
from ..errors import ConvergenceError, SimulationError
from ..kb.trace import DesignTrace
from ..obs.log import get_logger
from ..obs.metrics import LATENCY_BUCKETS_MS
from ..obs.spans import count as metric_count
from ..obs.spans import observe as metric_observe
from ..obs.spans import span as obs_span
from ..process.parameters import ProcessParameters
from ..resilience import Budget, current_budget
from ..resilience.faults import fault_point
from .assembly import solve_linear
from .mna import MnaSystem, OperatingPointResult

__all__ = ["operating_point", "newton_solve"]

#: The ladder's ``ladder.rung_failed`` lines keep the resilience
#: layer's logger name, which log consumers filter on.
_log = get_logger("resilience")

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
) -> Tuple[np.ndarray, int]:
    """(Optionally damped) NR iteration at fixed gmin / source level.

    Each iterate x_k is assembled once.  Step k converges when its
    voltage move is within ``VTOL + RELTOL*|x|`` and the KCL residual at
    x_k within ``ITOL``.  A step that passes the voltage test is
    confirmed by :meth:`MnaSystem.assemble_dc_residual` alone; any
    other step is judged by the residual of the full assembly of x_k,
    whose Jacobian then takes step k+1.

    Args:
        system: the system to solve (an :class:`MnaSystem`, or anything
            with its ``n_nodes`` and two DC assemblies).
        x0: start vector (not modified).
        max_step: largest voltage move per iteration (None = undamped).
        diverge_after: bail out after this many *consecutive*
            iterations of growing residual norm (None = never; used by
            the cheap plain rung so divergence fails fast).
        budget: explicit iteration/wall budget, charged one iteration
            before each step; when None the ambient budget installed by
            :meth:`repro.resilience.Budget.active` is charged instead,
            so a synthesis-level deadline reaches this inner loop
            without parameter threading.
        block: context for budget errors.

    Returns:
        (x, iterations)

    Raises:
        ConvergenceError: if the iteration limit is reached, the
            Jacobian is numerically singular, the update goes
            non-finite or the residual diverges.
        BudgetExceeded: when the governing budget trips mid-iteration.
    """
    fault_point("dc.newton")
    if budget is None:
        budget = current_budget()
    n_nodes = system.n_nodes
    x = x0.copy()
    # Full assembly (residual, Jacobian) of x, when taken.
    assembled: Optional[Tuple[np.ndarray, np.ndarray]] = None
    # The last step failed the voltage test and still owes the
    # divergence streak the residual at the point it reached.
    unjudged = False
    growth_streak = 0
    last_norm = np.inf

    def judge(residual: np.ndarray, v_ok: bool, step: int) -> bool:
        """Settle ``step`` from the residual at the new x: True when it
        converged; raises once the residual has grown too long."""
        nonlocal growth_streak, last_norm
        if v_ok and (np.abs(residual[:n_nodes]) <= ITOL * 10 + 1e-9).all():
            return True
        if diverge_after is None:
            return False
        norm = float(np.max(np.abs(residual[:n_nodes]))) if n_nodes else 0.0
        if not np.isfinite(norm) or norm > last_norm:
            growth_streak += 1
            if growth_streak >= diverge_after:
                raise ConvergenceError(
                    f"diverging: residual grew "
                    f"{growth_streak} iterations in a row",
                    step,
                )
        else:
            growth_streak = 0
        if np.isfinite(norm):
            last_norm = norm
        return False

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for iteration in range(1, max_iterations + 1):
            if unjudged:
                unjudged = False
                assembled = system.assemble_dc_system(x, gmin, source_scale)
                judge(assembled[0], False, iteration - 1)
            if budget is not None:
                budget.charge_newton(1, block=block, step="newton")
            residual, jacobian = assembled or system.assemble_dc_system(
                x, gmin, source_scale
            )
            try:
                delta = solve_linear(jacobian, -residual)
            except np.linalg.LinAlgError as exc:
                raise ConvergenceError(
                    f"singular Jacobian: {exc}", iteration
                ) from exc
            if fault_point("dc.newton.nan") is not None:
                delta = delta * np.nan
            if not np.isfinite(delta).all():
                raise ConvergenceError("non-finite Newton update", iteration)

            # Damp: limit the largest voltage move per iteration.
            worst = np.abs(delta[:n_nodes]).max() if n_nodes else 0.0
            if max_step is not None and worst > max_step:
                delta = delta * (max_step / worst)
            x = x + delta
            assembled = None
            v_ok = bool(
                (np.abs(delta[:n_nodes]) <= VTOL + RELTOL * np.abs(x[:n_nodes])).all()
            )
            final = iteration == max_iterations
            if v_ok or (final and diverge_after is not None):
                residual = system.assemble_dc_residual(x, gmin, source_scale)
                if judge(residual, v_ok, iteration):
                    return x, iteration
            else:
                unjudged = diverge_after is not None
    raise ConvergenceError(
        f"no convergence in {max_iterations} NR iterations "
        f"(gmin={gmin:g}, scale={source_scale:g})",
        max_iterations,
    )


# ----------------------------------------------------------------------
# The escalation: four rungs, cheapest first
# ----------------------------------------------------------------------
def _plain(
    system: MnaSystem,
    x0: np.ndarray,
    max_iterations: int,
    budget: Optional[Budget],
    block: str,
) -> Tuple[np.ndarray, int]:
    """Undamped NR with a short cap and an early divergence bail."""
    return newton_solve(
        system, x0, 1e-12, 1.0, min(max_iterations, PLAIN_ITERATION_CAP),
        max_step=None, diverge_after=DIVERGE_AFTER, budget=budget, block=block,
    )


def _damped(
    system: MnaSystem,
    x0: np.ndarray,
    max_iterations: int,
    budget: Optional[Budget],
    block: str,
) -> Tuple[np.ndarray, int]:
    """Step-limited NR."""
    return newton_solve(
        system, x0, 1e-12, 1.0, max_iterations, budget=budget, block=block
    )


def _gmin_stepping(
    system: MnaSystem,
    x0: np.ndarray,
    max_iterations: int,
    budget: Optional[Budget],
    block: str,
) -> Tuple[np.ndarray, int]:
    """gmin homotopy: 1 mS on every node, relaxed a decade at a time."""
    x = x0
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
    return x, total


def _source_stepping(
    system: MnaSystem,
    x0: np.ndarray,
    max_iterations: int,
    budget: Optional[Budget],
    block: str,
) -> Tuple[np.ndarray, int]:
    """Source homotopy: every independent source ramped 10 % -> 100 %."""
    x = x0
    total = 0
    try:
        for scale in np.linspace(0.1, 1.0, 19):
            x, used = newton_solve(
                system, x, 1e-12, float(scale), max_iterations,
                budget=budget, block=block,
            )
            total += used
    except ConvergenceError as exc:
        raise ConvergenceError(
            f"source stepping stalled at {float(scale) * 100:.0f} % "
            f"drive: {exc}",
            total + exc.iterations,
            rung="source",
        ) from exc
    return x, total


_Strategy = Callable[
    [MnaSystem, np.ndarray, int, Optional[Budget], str], Tuple[np.ndarray, int]
]

#: The DC escalation, cheapest first: (name, strategy).  A strategy is
#: called as ``strategy(system, x0, max_iterations, budget, block)`` and
#: returns ``(x, iterations)`` or raises :class:`ConvergenceError`.  A
#: new rung is one more entry here.
_RUNGS = (
    ("plain", _plain),
    ("damped", _damped),
    ("gmin", _gmin_stepping),
    ("source", _source_stepping),
)

#: One rung's attempt: (rung, iterations, error text or None if it converged).
_Attempt = Tuple[str, int, Optional[str]]


def _climb(
    rungs: Iterable[Tuple[str, _Strategy]],
    system: MnaSystem,
    x0: np.ndarray,
    max_iterations: int,
    budget: Optional[Budget],
    block: str,
) -> Tuple[np.ndarray, List[_Attempt]]:
    """Run ``rungs`` in order until one converges.

    Returns the converged x and every attempt made.  Only a
    :class:`ConvergenceError` moves on to the next rung; it is chained
    to the previous rung's unless it already has a cause.  When every
    rung fails, the terminal error counts every attempt's iterations
    and is raised from the last rung's.
    """
    attempts: List[_Attempt] = []
    last_error: Optional[ConvergenceError] = None
    for name, strategy in rungs:
        began = time.monotonic()
        error: Optional[ConvergenceError] = None
        try:
            # Each rung runs once; ``attempt`` stays in the span, the log
            # line and the trace text for their readers.
            with obs_span(f"rung:{name}", category="ladder", rung=name, attempt=1):
                x, iterations = strategy(system, x0, max_iterations, budget, block)
        except ConvergenceError as exc:
            if last_error is not None and exc.__cause__ is None:
                exc.__cause__ = last_error
            last_error = error = exc
            iterations = int(exc.iterations or 0)
        elapsed_ms = (time.monotonic() - began) * 1e3
        attempts.append((name, iterations, None if error is None else str(error)))
        metric_count(
            "ladder.attempts", rung=name, outcome="ok" if error is None else "failed"
        )
        metric_observe(
            "ladder.rung_ms", elapsed_ms, bounds=LATENCY_BUCKETS_MS, rung=name
        )
        if error is not None:
            _log.warning(
                "ladder.rung_failed",
                rung=name,
                attempt=1,
                iterations=iterations,
                elapsed_ms=round(elapsed_ms, 3),
                error=str(error),
            )
        if iterations:
            metric_count("ladder.iterations", n=iterations, rung=name)
        if error is None:
            return x, attempts
    assert last_error is not None  # at least one rung ran
    total = sum(iterations for _, iterations, _ in attempts)
    raise ConvergenceError(
        f"{block}: DC operating point failed after "
        f"{' -> '.join(name for name, _, _ in attempts)} "
        f"({total} total iterations): {last_error}",
        total,
        rung=attempts[-1][0],
    ) from last_error


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


def _count_solve(attempts: List[_Attempt]) -> int:
    """Count one converged solve from its attempts (one LU
    factor-and-solve per Newton iteration); returns its iterations."""
    total = sum(iterations for _, iterations, _ in attempts)
    metric_count("dc.solves")
    metric_count("dc.lu_solves", n=total)
    metric_observe("dc.iterations_per_solve", total)
    for rung, iterations, _ in attempts:
        metric_count("dc.newton.iterations", n=iterations, rung=rung)
    return total


def operating_point(
    circuit: Union[Circuit, MnaSystem],
    process: ProcessParameters,
    initial_guess: Optional[Dict[str, float]] = None,
    max_iterations: int = 150,
    vth_shifts: Optional[Dict[str, float]] = None,
    budget: Optional[Budget] = None,
    trace: Optional[DesignTrace] = None,
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
    # cache.
    cache = current_cache()
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
    rungs = _RUNGS
    if not (initial_guess and np.any(x0)):
        # Cold start: undamped NR from a flat guess mostly oscillates
        # its full cap away before the damped rung redoes the work, so
        # the cheap rung only pays for itself on warm starts.
        rungs = _RUNGS[1:]
    solve_started = time.perf_counter()
    with obs_span(
        f"dc:{circuit.name}", category="sim",
        block=block, nodes=system.n_nodes,
    ) as solve_span:
        try:
            x, attempts = _climb(rungs, system, x0, max_iterations, budget, block)
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
        total = _count_solve(attempts)
        solve_span.set("iterations", total)
        solve_span.set("rung", attempts[-1][0])
        metric_observe(
            "dc.solve_ms",
            (time.perf_counter() - solve_started) * 1e3,
            bounds=LATENCY_BUCKETS_MS,
            status="ok",
        )
    if trace is not None and len(attempts) > 1:
        for rung, iterations, error in attempts:
            outcome = "converged" if error is None else f"failed ({error})"
            trace.ladder(
                block, rung, f"attempt 1: {outcome} after {iterations} iterations"
            )
    result = system.package_result(x, total)
    if cache is not None:
        cache.put("op", op_key, _op_to_payload(result))
    return result

