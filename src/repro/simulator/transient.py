"""Transient analysis with trapezoidal integration.

Used by the verification layer to measure slew rate and settling of
synthesized op amps (unity-gain step response), standing in for the
paper's SPICE transient runs.

Capacitors (explicit elements and the MOSFET intrinsic/junction
capacitances evaluated quasi-statically at each accepted timepoint) are
replaced by their trapezoidal companion models.

Independent sources may be driven by waveforms via ``stimuli`` (source
name -> ``f(t)``): the t=0 operating point and every timestep solve one
:class:`~repro.simulator.mna.MnaSystem` with the stimuli at that time as
its source values.  Each timestep is solved by its own damped NR
(``_solve_timestep``), with no retry ladder and a convergence test 100x
looser (``100 * VTOL``) than the DC solver's: on
:func:`~repro.simulator.dc.newton_batch` slew moved under 4e-11 relative
but the transient took 1.5-2x as long, because each of its iterates
assembles twice (the Jacobian system, then a residual-only check).
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
from .assembly import _NodeGather, solve_linear
from .dc import MAX_STEP, RELTOL, VTOL, operating_point
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
    branches per device)."""

    def __init__(
        self, node_a: List[int], node_b: List[int], caps: List[float]
    ):
        self.node_a = np.asarray(node_a, dtype=np.intp)
        self.node_b = np.asarray(node_b, dtype=np.intp)
        self.va = _NodeGather(node_a)
        self.vb = _NodeGather(node_b)
        self.cap = np.asarray(caps, dtype=float)
        self.v_prev = np.zeros(self.cap.size)
        self.i_prev = np.zeros(self.cap.size)

    def branch_voltages(self, x: np.ndarray) -> np.ndarray:
        return self.va(x) - self.vb(x)

    def stamp(
        self,
        residual: np.ndarray,
        jacobian: np.ndarray,
        x: np.ndarray,
        h: float,
    ) -> None:
        """Companion stamps for every live (C > 0) branch."""
        live = np.flatnonzero(self.cap > 0.0)
        if not live.size:
            return
        a = self.node_a[live]
        b = self.node_b[live]
        geq = 2.0 * self.cap[live] / h
        ieq = geq * self.v_prev[live] + self.i_prev[live]
        current = geq * self.branch_voltages(x)[live] - ieq
        a_live = a >= 0
        b_live = b >= 0
        both = a_live & b_live
        np.add.at(residual, a[a_live], current[a_live])
        np.add.at(residual, b[b_live], -current[b_live])
        np.add.at(jacobian, (a[a_live], a[a_live]), geq[a_live])
        np.add.at(jacobian, (b[b_live], b[b_live]), geq[b_live])
        np.add.at(jacobian, (a[both], b[both]), -geq[both])
        np.add.at(jacobian, (b[both], a[both]), -geq[both])

    def accept(self, x_next: np.ndarray, h: float) -> None:
        """Trapezoidal history update after a converged timestep."""
        v_new = self.branch_voltages(x_next)
        geq = 2.0 * self.cap / h
        self.i_prev = geq * (v_new - self.v_prev) - self.i_prev
        self.v_prev = v_new


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
    strict: bool = False,
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
        strict: additionally run the full ERC lint pass and raise
            :class:`~repro.errors.LintError` on any error-severity
            finding before integrating.

    Returns:
        :class:`TransientResult`.

    Raises:
        SimulationError: bad time range, or a stimulus names no source.
    """
    if strict:
        from ..lint import assert_erc_clean  # local: avoid import cycle

        assert_erc_clean(circuit, process=process, context="transient_analysis")
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

    with obs_span(f"transient:{circuit.name}", category="sim") as tran_span:
        times, history = _integrate(
            system, x, op0, t_stop, t_step, stimuli, max_iterations
        )
        tran_span.set("timesteps", len(times) - 1)
        metric_count("transient.analyses")
        metric_count("transient.timesteps", n=len(times) - 1)

    stacked = np.vstack(history)
    waveforms = {
        node: stacked[:, index] for node, index in system.node_index.items()
    }
    return TransientResult(times=np.asarray(times), waveforms=waveforms)


def _integrate(
    system: MnaSystem,
    x: np.ndarray,
    op0,
    t_stop: float,
    t_step: float,
    stimuli: Dict[str, Callable[[float], float]],
    max_iterations: int,
):
    """Fixed-step integration from the initial state ``x``: one
    :class:`_CompanionBank` holds every capacitor branch, companion
    stamps/updates are whole-bank array operations.  Each step drives
    the sources at its end time.
    Returns (times, per-step unknown vectors)."""
    node_a: List[int] = []
    node_b: List[int] = []
    caps: List[float] = []
    for cap in system.circuit.capacitors:
        node_a.append(system.index_of(cap.node_a))
        node_b.append(system.index_of(cap.node_b))
        caps.append(cap.capacitance)
    explicit_count = len(caps)
    device_branches = _device_cap_branches(system)
    for name, a, b, kind in device_branches:
        node_a.append(a)
        node_b.append(b)
        caps.append(getattr(op0.device_ops[name], kind))
    bank = _CompanionBank(node_a, node_b, caps)
    bank.v_prev = bank.branch_voltages(x)

    times = [0.0]
    history = [x.copy()]

    t = 0.0
    while t < t_stop - 1e-15:
        h = min(t_step, t_stop - t)
        t_next = t + h
        system.set_source_values({k: f(t_next) for k, f in stimuli.items()})
        x_next, device_ops = _solve_timestep(
            system, x, t_next, h, bank, max_iterations
        )
        bank.accept(x_next, h)
        # Refresh device capacitance values quasi-statically.
        for i, (name, _a, _b, kind) in enumerate(device_branches):
            bank.cap[explicit_count + i] = getattr(device_ops[name], kind)
        x = x_next
        t = t_next
        times.append(t)
        history.append(x.copy())
    return times, history


def _solve_timestep(
    system: MnaSystem,
    x_prev: np.ndarray,
    t: float,
    h: float,
    bank: _CompanionBank,
    max_iterations: int,
):
    """Damped NR for one trapezoidal timestep over the companion bank, at
    the source values set on ``system``."""
    x = x_prev.copy()
    n_nodes = system.n_nodes
    plan = system.stamp_plan
    for iteration in range(1, max_iterations + 1):
        residual, jacobian, device_ops = plan.assemble_dc_dense(x, 1e-12, 1.0)
        bank.stamp(residual, jacobian, x, h)
        try:
            delta = solve_linear(jacobian, -residual)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(
                f"transient singular Jacobian at t={t:g}: {exc}", iteration
            ) from exc
        worst = np.max(np.abs(delta[:n_nodes])) if n_nodes else 0.0
        if worst > MAX_STEP:
            delta = delta * (MAX_STEP / worst)
        x = x + delta
        if np.all(np.abs(delta[:n_nodes]) <= VTOL * 100 + RELTOL * np.abs(x[:n_nodes])):
            return x, device_ops
    raise ConvergenceError(
        f"transient NR failed at t={t:g} ({max_iterations} iterations)",
        max_iterations,
    )
