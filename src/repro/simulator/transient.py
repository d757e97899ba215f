"""Transient analysis with trapezoidal integration.

Used by the verification layer to measure slew rate and settling of
synthesized op amps (unity-gain step response), standing in for the
paper's SPICE transient runs.

Capacitors (explicit elements and the MOSFET intrinsic/junction
capacitances evaluated quasi-statically at each accepted timepoint) are
replaced by their trapezoidal companion models, held in one
:class:`_CompanionBank`.

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
from .assembly import _NodeGather
from .dc import newton_solve, operating_point
from .mna import MnaSystem, MosfetOperatingPoint

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
    branches per device), from the state ``x`` and its ``device_ops``.
    ``h`` is the length of the step being solved."""

    def __init__(
        self,
        system: MnaSystem,
        device_ops: Dict[str, MosfetOperatingPoint],
        x: np.ndarray,
    ):
        node_a: List[int] = []
        node_b: List[int] = []
        caps: List[float] = []
        for cap in system.circuit.capacitors:
            node_a.append(system.index_of(cap.node_a))
            node_b.append(system.index_of(cap.node_b))
            caps.append(cap.capacitance)
        self.explicit = len(caps)
        self.device_branches = _device_cap_branches(system)
        for name, a, b, kind in self.device_branches:
            node_a.append(a)
            node_b.append(b)
            caps.append(getattr(device_ops[name], kind))
        self.node_a = np.asarray(node_a, dtype=np.intp)
        self.node_b = np.asarray(node_b, dtype=np.intp)
        self.va = _NodeGather(node_a)
        self.vb = _NodeGather(node_b)
        self.cap = np.asarray(caps, dtype=float)
        self.v_prev = self.branch_voltages(x)
        self.i_prev = np.zeros(self.cap.size)
        self.h = 0.0

    def branch_voltages(self, x: np.ndarray) -> np.ndarray:
        return self.va(x) - self.vb(x)

    def stamp(
        self, residual: np.ndarray, jacobian: Optional[np.ndarray], x: np.ndarray
    ) -> None:
        """Companion stamps for every live (C > 0) branch; the Jacobian
        is skipped when None."""
        live = np.flatnonzero(self.cap > 0.0)
        if not live.size:
            return
        a = self.node_a[live]
        b = self.node_b[live]
        geq = 2.0 * self.cap[live] / self.h
        ieq = geq * self.v_prev[live] + self.i_prev[live]
        current = geq * self.branch_voltages(x)[live] - ieq
        a_live = a >= 0
        b_live = b >= 0
        both = a_live & b_live
        np.add.at(residual, a[a_live], current[a_live])
        np.add.at(residual, b[b_live], -current[b_live])
        if jacobian is None:
            return
        np.add.at(jacobian, (a[a_live], a[a_live]), geq[a_live])
        np.add.at(jacobian, (b[b_live], b[b_live]), geq[b_live])
        np.add.at(jacobian, (a[both], b[both]), -geq[both])
        np.add.at(jacobian, (b[both], a[both]), -geq[both])

    def accept(
        self, x_next: np.ndarray, device_ops: Dict[str, MosfetOperatingPoint]
    ) -> None:
        """Trapezoidal history update after a converged timestep; the
        device capacitances follow its operating point quasi-statically."""
        v_new = self.branch_voltages(x_next)
        geq = 2.0 * self.cap / self.h
        self.i_prev = geq * (v_new - self.v_prev) - self.i_prev
        self.v_prev = v_new
        for i, (name, _a, _b, kind) in enumerate(self.device_branches):
            self.cap[self.explicit + i] = getattr(device_ops[name], kind)


def _device_cap_branches(system: MnaSystem) -> List[Tuple[str, int, int, str]]:
    """Terminal pairs carrying MOSFET capacitances: (device, a, b, kind)."""
    branches = []
    for element in system.circuit.mosfets:
        d = system.index_of(element.drain)
        g = system.index_of(element.gate)
        s = system.index_of(element.source)
        b = system.index_of(element.bulk)
        name = element.name.lower()
        branches.extend(
            [
                (name, g, s, "cgs"),
                (name, g, d, "cgd"),
                (name, g, b, "cgb"),
                (name, b, d, "cbd"),
                (name, b, s, "cbs"),
            ]
        )
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

    bank = _CompanionBank(system, op0.device_ops, x)
    system.companions = bank
    times = [0.0]
    history = [x]
    with obs_span(f"transient:{circuit.name}", category="sim") as tran_span:
        t = 0.0
        while t < t_stop - 1e-15:
            bank.h = min(t_step, t_stop - t)
            t += bank.h
            system.set_source_values({k: f(t) for k, f in stimuli.items()})
            try:
                x, device_ops, _ = newton_solve(
                    system, x, 1e-12, 1.0, max_iterations,
                    block=f"transient/{circuit.name}",
                )
            except ConvergenceError as exc:
                raise ConvergenceError(
                    f"transient step failed at t={t:g}: {exc}", exc.iterations
                ) from exc
            bank.accept(x, device_ops)
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
