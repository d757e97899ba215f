"""Modified nodal analysis: unknown numbering, model binding, stamping.

The MNA unknown vector is ``[node voltages..., vsource branch currents...]``
with ground eliminated.  :class:`MnaSystem` binds a :class:`~repro.circuit.
netlist.Circuit` to a :class:`~repro.process.parameters.ProcessParameters`
(creating one :class:`~repro.devices.mosfet.MosfetModel` per transistor)
and provides the residual/Jacobian assembly used by the DC solver and the
frequency-grid solve used by the AC, noise and mismatch analyses.
Source values and a transient timestep's capacitor companions are
solve inputs, so a loop that varies them builds its system once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..circuit.elements import GROUND, CurrentSource, VoltageSource
from ..circuit.netlist import Circuit
from ..devices.mosfet import MosfetModel, MosfetOperatingPoint
from ..errors import SimulationError
from ..obs.spans import count as metric_count
from ..process.parameters import ProcessParameters
from .assembly import StampPlan

__all__ = ["MnaSystem", "OperatingPointResult"]


@dataclass
class OperatingPointResult:
    """A converged DC operating point.

    Attributes:
        voltages: node name -> DC voltage (ground implicit at 0).
        source_currents: voltage-source name -> branch current (flowing
            from the positive terminal through the source).
        device_ops: MOSFET name -> :class:`MosfetOperatingPoint`.
        iterations: NR iterations used (total across homotopy steps).
        source_voltages: voltage-source name -> its value in this solve.
    """

    voltages: Dict[str, float]
    source_currents: Dict[str, float]
    device_ops: Dict[str, MosfetOperatingPoint]
    iterations: int = 0
    source_voltages: Dict[str, float] = field(default_factory=dict, repr=False)

    def voltage(self, node: str) -> float:
        if node == GROUND:
            return 0.0
        try:
            return self.voltages[node]
        except KeyError:
            raise SimulationError(f"no node named {node!r} in result") from None

    def device(self, name: str) -> MosfetOperatingPoint:
        try:
            return self.device_ops[name.lower()]
        except KeyError:
            raise SimulationError(f"no MOSFET named {name!r} in result") from None

    def supply_current(self, source_name: str) -> float:
        try:
            return self.source_currents[source_name.lower()]
        except KeyError:
            raise SimulationError(f"no source named {source_name!r}") from None

    def total_power(self) -> float:
        """Total power delivered by all voltage sources, watts (positive =
        dissipated in the circuit)."""
        power = 0.0
        for name, current in self.source_currents.items():
            # P = V * I with I flowing out of the + terminal through the
            # circuit; our branch current convention makes delivered power
            # -V*I_branch.
            power += -self.source_voltages[name] * current
        return power


class MnaSystem:
    """Numbering, model binding and matrix assembly for one circuit.

    Args:
        circuit / process: the netlist and its process.
        vth_shifts: optional per-device threshold perturbations, volts
            (instance name -> delta applied to ``vto``) -- the hook the
            Monte Carlo mismatch analysis uses to model random Vth
            variation without editing the netlist.
    """

    def __init__(
        self,
        circuit: Circuit,
        process: ProcessParameters,
        vth_shifts: Optional[Dict[str, float]] = None,
    ):
        from dataclasses import replace as dc_replace

        metric_count("dc.system_builds")
        self.circuit = circuit
        self.process = process
        self.vth_shifts = dict(vth_shifts or {})
        self.nodes: List[str] = circuit.internal_nodes()
        self.node_index: Dict[str, int] = {n: i for i, n in enumerate(self.nodes)}
        self.vsources: List[VoltageSource] = [
            e for e in circuit.elements if isinstance(e, VoltageSource)
        ]
        self.isources: List[CurrentSource] = [
            e for e in circuit.elements if isinstance(e, CurrentSource)
        ]
        self.set_source_values()
        #: A transient timestep's capacitor companions, whose ``branches``
        #: (:class:`~repro.simulator.assembly.CompanionBranches`) join
        #: every DC assembly; None: open, as at DC.
        self.companions: Any = None
        self.n_nodes = len(self.nodes)
        self.size = self.n_nodes + len(self.vsources)
        shifts = {k.lower(): v for k, v in (vth_shifts or {}).items()}
        self.models: Dict[str, MosfetModel] = {}
        for mosfet in circuit.mosfets:
            params = process.device(mosfet.polarity)
            key = mosfet.name.lower()
            if key in shifts:
                params = dc_replace(params, vto=params.vto + shifts[key])
            self.models[key] = MosfetModel(
                params,
                mosfet.effective_width,
                mosfet.length,
                process.min_drain_width,
                process.cox,
            )
        self._stamp_plan: Optional[StampPlan] = None

    # ------------------------------------------------------------------
    # Index helpers
    # ------------------------------------------------------------------
    def index_of(self, node: str) -> int:
        """MNA index of a node, or -1 for ground."""
        if node == GROUND:
            return -1
        return self.node_index[node]

    def branch_index(self, source_position: int) -> int:
        return self.n_nodes + source_position

    def set_source_values(self, values: Optional[Mapping[str, float]] = None) -> None:
        """Drive the independent sources for the next solves: ``values``
        maps source names to volts or amps; every source not named holds
        its netlist ``dc``.  Raises SimulationError for a name that is
        not an independent source of this circuit."""
        value = {s.name.lower(): s.dc for s in self.vsources + self.isources}
        for name, v in (values or {}).items():
            if name.lower() not in value:
                raise SimulationError(f"no independent source named {name!r}")
            value[name.lower()] = float(v)
        self.vsource_values = np.array([value[s.name.lower()] for s in self.vsources])
        self.isource_values = np.array([value[s.name.lower()] for s in self.isources])

    # ------------------------------------------------------------------
    # Nonlinear DC assembly
    # ------------------------------------------------------------------
    @property
    def stamp_plan(self) -> StampPlan:
        """The compiled per-system stamp pattern (built lazily, shared
        by every assembly this system performs -- including every
        Newton iteration and retry-ladder rung)."""
        if self._stamp_plan is None:
            self._stamp_plan = StampPlan(self)
        return self._stamp_plan

    def assemble_dc_system(
        self,
        x: np.ndarray,
        gmin: float = 1e-12,
        source_scale: float = 1.0,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Residual F(x) and dense Jacobian J(x).

        The residual convention is KCL: F[node] = sum of currents
        *leaving* the node through elements minus injected source
        currents; voltage source rows hold ``V(p) - V(n)`` minus the
        source's value, as last set by :meth:`set_source_values`.
        Capacitors carry the currents of :attr:`companions`.  Devices
        contribute only what the stamp reads
        (:meth:`MosfetModel.evaluate`); a converged solve's full
        operating points come from :meth:`package_result`.

        Args:
            x: current unknown vector.
            gmin: conductance from every node to ground (homotopy aid).
            source_scale: multiplies all independent sources (source
                stepping).
        """
        return self.stamp_plan.assemble_dc_dense(x, gmin, source_scale)

    def assemble_dc_residual(
        self,
        x: np.ndarray,
        gmin: float = 1e-12,
        source_scale: float = 1.0,
    ) -> np.ndarray:
        """Residual only (no Jacobian work): how the Newton loop confirms
        a step that already passes its voltage test."""
        return self.stamp_plan.assemble_dc_residual(x, gmin, source_scale)

    # ------------------------------------------------------------------
    # Small-signal solve (complex, over a frequency grid)
    # ------------------------------------------------------------------
    def solve_ac(
        self,
        freqs: np.ndarray,
        device_ops: Dict[str, MosfetOperatingPoint],
        rhs: np.ndarray,
    ) -> np.ndarray:
        """Small-signal solutions at every frequency in ``freqs`` (Hz).

        The system is linearised at ``device_ops`` (gm/gds/caps of a
        converged operating point) and excited by ``rhs``: a vector
        (e.g. :meth:`StampPlan.ac_rhs`) gives an ``(F, size)`` result,
        a ``(size, k)`` block of excitation columns an ``(F, size, k)``
        one.  The whole grid solves as one stacked LU call.

        Raises:
            SimulationError: naming the first frequency whose matrix
                is singular.
        """
        plan = self.stamp_plan
        omegas = 2.0 * np.pi * freqs
        g_vals, c_vals = plan.ac_entry_values(device_ops)
        stack = plan.assemble_ac_stacked(omegas, g_vals, c_vals)
        columns = rhs if rhs.ndim == 2 else rhs[:, None]
        try:
            solution = np.linalg.solve(
                stack, np.broadcast_to(columns, (freqs.size, *columns.shape))
            )
        except np.linalg.LinAlgError as exc:
            # Re-solve point by point so the error names the frequency.
            for k, frequency in enumerate(freqs):
                try:
                    np.linalg.solve(stack[k], columns)
                except np.linalg.LinAlgError as point_exc:
                    raise SimulationError(
                        f"AC solve failed at {frequency:g} Hz: {point_exc}"
                    ) from point_exc
            raise SimulationError(f"AC solve failed: {exc}") from exc
        return solution if rhs.ndim == 2 else solution[..., 0]

    # ------------------------------------------------------------------
    # Result packaging
    # ------------------------------------------------------------------
    def package_result(self, x: np.ndarray, iterations: int) -> OperatingPointResult:
        """The converged solution ``x`` as a result, with its device
        operating points."""
        voltages = {node: float(x[i]) for node, i in self.node_index.items()}
        currents = {
            source.name.lower(): float(x[self.branch_index(pos)])
            for pos, source in enumerate(self.vsources)
        }
        return OperatingPointResult(
            voltages=voltages,
            source_currents=currents,
            device_ops=self.stamp_plan.device_operating_points(x),
            iterations=iterations,
            source_voltages={
                source.name.lower(): float(value)
                for source, value in zip(self.vsources, self.vsource_values)
            },
        )
