"""Transient analysis with trapezoidal integration.

Used by the verification layer to measure slew rate and settling of
synthesized op amps (unity-gain step response), standing in for the
paper's SPICE transient runs.

Capacitors (explicit elements and the MOSFET intrinsic/junction
capacitances evaluated quasi-statically at each accepted timepoint) are
replaced by their trapezoidal companion models, held in one
:class:`_CompanionBank`.  The device capacitances come from
:meth:`~repro.simulator.assembly.StampPlan.device_capacitances` at the
t=0 point and at each accepted step; no Newton iterate computes them.
The bank selects its live branches once per timestep, and every
assembly of that step appends their entries to the DC scatter.

Independent sources may be driven by waveforms via ``stimuli`` (source
name -> ``f(t)``).  The t=0 operating point and every timestep solve
one :class:`~repro.simulator.mna.MnaSystem`.  A timestep sets the
stimuli at its end time as the system's source values and the bank as
its companions, then runs :func:`~repro.simulator.dc.newton_solve`: the
DC solver's damped Newton loop and convergence test, without the retry
ladder.  So every timestep charges the ambient
:class:`~repro.resilience.Budget` and passes the ``dc.newton`` /
``dc.newton.nan`` fault points, and a step that fails raises a
:class:`~repro.errors.ConvergenceError` naming its time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..circuit.elements import GROUND
from ..circuit.netlist import Circuit
from ..errors import ConvergenceError, SimulationError
from ..obs.spans import count as metric_count
from ..obs.spans import span as obs_span
from ..process.parameters import ProcessParameters
from .assembly import CompanionBranches, with_ground
from .dc import newton_solve, operating_point
from .mna import MnaSystem

__all__ = ["TransientResult", "transient_analysis", "step_waveform"]


@dataclass
class TransientResult:
    """Waveforms from a transient run.

    Attributes:
        times: seconds, ascending, including t=0.
        waveforms: node name -> voltage array aligned with ``times``.
    """

    times: np.ndarray
    waveforms: Dict[str, np.ndarray]

    def voltage(self, node: str) -> np.ndarray:
        if node == GROUND:
            return np.zeros_like(self.times)
        try:
            return self.waveforms[node]
        except KeyError:
            raise SimulationError(f"no node named {node!r} in transient result") from None


def step_waveform(
    low: float, high: float, t_step: float, t_rise: float = 1e-9
) -> Callable[[float], float]:
    """A step from ``low`` to ``high`` at ``t_step`` with linear rise."""

    def wave(t: float) -> float:
        if t <= t_step:
            return low
        if t >= t_step + t_rise:
            return high
        return low + (high - low) * (t - t_step) / t_rise

    return wave


class _CompanionBank:
    """Struct-of-arrays trapezoidal companion state for all capacitor
    branches at once (explicit caps first, then the five MOSFET cap
    branches per device), from the state ``x`` and the device
    capacitances ``caps`` there (``(devices, 5)``, as
    :meth:`~repro.simulator.assembly.StampPlan.device_capacitances`
    returns them).

    :meth:`begin_step` selects the live (C > 0) :attr:`branches` of
    the step being solved, of length ``h``, with their conductance
    ``geq`` and history current ``ieq``; their entries join every
    assembly of that step."""

    def __init__(self, system: MnaSystem, x: np.ndarray, caps: np.ndarray):
        node_a: List[int] = []
        node_b: List[int] = []
        explicit: List[float] = []
        for cap in system.circuit.capacitors:
            node_a.append(system.index_of(cap.node_a))
            node_b.append(system.index_of(cap.node_b))
            explicit.append(cap.capacitance)
        self.explicit = len(explicit)
        for a, b in _device_cap_branches(system):
            node_a.append(a)
            node_b.append(b)
        self.branches = CompanionBranches(
            system.stamp_plan,
            np.asarray(node_a, dtype=np.intp),
            np.asarray(node_b, dtype=np.intp),
        )
        self.cap = np.concatenate((np.asarray(explicit, dtype=float), caps.ravel()))
        self.v_prev = self.branch_voltages(x)
        self.i_prev = np.zeros(self.cap.size)
        self.h = 0.0

    def branch_voltages(self, x: np.ndarray) -> np.ndarray:
        xp = with_ground(x)
        return xp[self.branches.node_a] - xp[self.branches.node_b]

    def begin_step(self, h: float) -> None:
        """Prepare the companion entries of a step of length ``h``."""
        self.h = h
        live = np.flatnonzero(self.cap > 0.0)
        geq = 2.0 * self.cap[live] / h
        self.branches.select(live, geq, geq * self.v_prev[live] + self.i_prev[live])

    def accept(self, x_next: np.ndarray, caps: np.ndarray) -> None:
        """Trapezoidal history update after a converged timestep; the
        device capacitances ``caps`` follow its operating point
        quasi-statically."""
        v_new = self.branch_voltages(x_next)
        geq = 2.0 * self.cap / self.h
        self.i_prev = geq * (v_new - self.v_prev) - self.i_prev
        self.v_prev = v_new
        self.cap[self.explicit :] = caps.ravel()


def _device_cap_branches(system: MnaSystem) -> List[Tuple[int, int]]:
    """Terminal pairs carrying MOSFET capacitances, device by device in
    the order of :meth:`MosfetModel.capacitances`: (g,s) cgs, (g,d) cgd,
    (g,b) cgb, (b,d) cbd, (b,s) cbs."""
    branches = []
    for element in system.circuit.mosfets:
        d = system.index_of(element.drain)
        g = system.index_of(element.gate)
        s = system.index_of(element.source)
        b = system.index_of(element.bulk)
        branches.extend([(g, s), (g, d), (g, b), (b, d), (b, s)])
    return branches


def transient_analysis(
    circuit: Circuit,
    process: ProcessParameters,
    t_stop: float,
    t_step: float,
    stimuli: Optional[Dict[str, Callable[[float], float]]] = None,
    max_iterations: int = 100,
) -> TransientResult:
    """Run a fixed-step trapezoidal transient.

    The initial condition is the DC operating point with all stimuli
    evaluated at t=0.

    Args:
        circuit / process: netlist and process.
        t_stop: final time, seconds.
        t_step: fixed integration step, seconds.
        stimuli: optional waveform per independent-source name; sources
            not listed hold their DC value.
        max_iterations: NR budget per timestep.

    Returns:
        :class:`TransientResult`.

    Raises:
        SimulationError: bad time range, or a stimulus names no source.
        ConvergenceError: the t=0 operating point or a timestep (named
            by its time ``t``) does not converge.
        BudgetExceeded: when the ambient budget trips mid-run.
    """
    if t_stop <= 0 or t_step <= 0 or t_step > t_stop:
        raise SimulationError(f"bad transient range t_stop={t_stop}, t_step={t_step}")
    stimuli = dict(stimuli or {})

    circuit.validate()
    system = MnaSystem(circuit, process)
    # Initial condition: DC solve with t=0 stimulus values.
    op0 = operating_point(
        system, process, source_values={k: f(0.0) for k, f in stimuli.items()}
    )
    x = np.zeros(system.size)
    for node, index in system.node_index.items():
        x[index] = op0.voltages[node]
    for pos, source in enumerate(system.vsources):
        x[system.branch_index(pos)] = op0.source_currents[source.name.lower()]

    plan = system.stamp_plan
    bank = _CompanionBank(system, x, plan.device_capacitances(x))
    system.companions = bank
    times = [0.0]
    history = [x]
    with obs_span(f"transient:{circuit.name}", category="sim") as tran_span:
        t = 0.0
        while t < t_stop - 1e-15:
            h = min(t_step, t_stop - t)
            t += h
            bank.begin_step(h)
            system.set_source_values({k: f(t) for k, f in stimuli.items()})
            try:
                x, _ = newton_solve(
                    system, x, 1e-12, 1.0, max_iterations,
                    block=f"transient/{circuit.name}",
                )
            except ConvergenceError as exc:
                raise ConvergenceError(
                    f"transient step failed at t={t:g}: {exc}", exc.iterations
                ) from exc
            bank.accept(x, plan.device_capacitances(x))
            times.append(t)
            history.append(x)
        tran_span.set("timesteps", len(times) - 1)
        metric_count("transient.analyses")
        metric_count("transient.timesteps", n=len(times) - 1)

    stacked = np.vstack(history)
    waveforms = {
        node: stacked[:, index] for node, index in system.node_index.items()
    }
    return TransientResult(times=np.asarray(times), waveforms=waveforms)
