"""Scalar reference simulator: the oracle the vectorized core is tested against.

The production simulator has one numeric path per analysis: the
:class:`~repro.simulator.assembly.StampPlan` scatter for DC and AC
assembly, one stacked small-signal solve for AC, noise and mismatch,
and the companion-bank stamps of a transient timestep.  This module
keeps the obvious element-by-element versions of the same
computations -- the *specification* the plan replays --
so the differential suites can pit the two against each other:

* :func:`assemble_dc_reference` / :func:`assemble_ac_reference` walk
  ``circuit.elements`` one device at a time and stamp through closures;
* :func:`device_operating_points_reference` /
  :func:`device_capacitances_reference` walk them the same way for a
  converged solve's device operating points and the transient's
  device capacitances, each read by device name and capacitance kind;
* :func:`solve_ac_reference` assembles and solves one frequency at a
  time;
* :class:`CompanionBankReference` stamps the transient's trapezoidal
  companions with one object per capacitor branch (its own branch
  list, derived from the capacitance kinds), from
  :meth:`CompanionBankReference.stamp` inside the reference DC
  assembly.  A timestep is a DC Newton solve with those stamps, so the
  reference needs no loop of its own: it swaps the stamping in and the
  production loop runs it.

:func:`reference_backend` swaps all of them into the live simulator at
once, so a whole pipeline -- ``operating_point``,
``ac_analysis``, ``verify_opamp`` -- can be replayed on the reference
and compared byte for byte.  It is a context manager for
library code; pytest tests use the ``monkeypatch`` form,
:func:`patch_reference_backend`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Tuple

import numpy as np

from repro.circuit.elements import (
    Capacitor,
    CurrentSource,
    Mosfet,
    Resistor,
    VoltageSource,
)
from repro.devices.mosfet import MosfetOperatingPoint
from repro.errors import SimulationError
from repro.simulator import transient as transient_module
from repro.simulator.assembly import StampPlan
from repro.simulator.mna import MnaSystem

__all__ = [
    "assemble_dc_reference",
    "device_operating_points_reference",
    "device_capacitances_reference",
    "assemble_ac_reference",
    "solve_ac_reference",
    "CompanionBankReference",
    "reference_backend",
    "patch_reference_backend",
]


# ----------------------------------------------------------------------
# DC assembly
# ----------------------------------------------------------------------
def assemble_dc_reference(
    system: MnaSystem,
    x: np.ndarray,
    gmin: float = 1e-12,
    source_scale: float = 1.0,
) -> Tuple[np.ndarray, np.ndarray]:
    """Residual F(x) and dense Jacobian J(x), element by element.

    The residual convention is KCL: F[node] = sum of currents *leaving*
    the node through elements minus injected source currents; voltage
    source rows hold ``V(p) - V(n)`` minus the source's value.  Sources
    take the system's per-solve values (``vsource_values`` /
    ``isource_values``), ``gmin`` shunts every node to ground and
    ``source_scale`` multiplies every independent source.
    """
    size = system.size
    residual = np.zeros(size)
    jacobian = np.zeros((size, size))
    index_of = system.index_of

    def volt(idx: int) -> float:
        return 0.0 if idx < 0 else float(x[idx])

    def add_j(row: int, col: int, value: float) -> None:
        if row >= 0 and col >= 0:
            jacobian[row, col] += value

    def add_f(row: int, value: float) -> None:
        if row >= 0:
            residual[row] += value

    # gmin to ground on every node keeps the matrix non-singular.
    for i in range(system.n_nodes):
        residual[i] += gmin * x[i]
        jacobian[i, i] += gmin

    isource_value = dict(zip(map(id, system.isources), system.isource_values))
    for element in system.circuit.elements:
        if isinstance(element, Resistor):
            a = index_of(element.node_a)
            b = index_of(element.node_b)
            g = 1.0 / element.resistance
            v = volt(a) - volt(b)
            add_f(a, g * v)
            add_f(b, -g * v)
            add_j(a, a, g)
            add_j(a, b, -g)
            add_j(b, a, -g)
            add_j(b, b, g)
        elif isinstance(element, Capacitor):
            continue  # open at DC
        elif isinstance(element, CurrentSource):
            p = index_of(element.positive)
            n = index_of(element.negative)
            i_dc = isource_value[id(element)] * source_scale
            # The current leaves the positive node through the source.
            add_f(p, i_dc)
            add_f(n, -i_dc)
        elif isinstance(element, Mosfet):
            model = system.models[element.name.lower()]
            d = index_of(element.drain)
            g = index_of(element.gate)
            s = index_of(element.source)
            b = index_of(element.bulk)
            op = model.operating_point(
                volt(g) - volt(s), volt(d) - volt(s), volt(b) - volt(s)
            )
            # op.ids enters the drain and exits the source; partials are
            # dId/dVg = gm, dId/dVd = gds, dId/dVb = gmbs and
            # dId/dVs = -(gm + gds + gmbs).
            add_f(d, op.ids)
            add_f(s, -op.ids)
            gm, gds, gmbs = op.gm, op.gds, op.gmbs
            g_s = -(gm + gds + gmbs)
            add_j(d, g, gm)
            add_j(d, d, gds)
            add_j(d, b, gmbs)
            add_j(d, s, g_s)
            add_j(s, g, -gm)
            add_j(s, d, -gds)
            add_j(s, b, -gmbs)
            add_j(s, s, -g_s)
        elif isinstance(element, VoltageSource):
            pass  # handled below with branch rows
        else:  # pragma: no cover
            raise SimulationError(f"unsupported element {type(element).__name__}")

    for position, source in enumerate(system.vsources):
        row = system.branch_index(position)
        p = index_of(source.positive)
        n = index_of(source.negative)
        i_branch = float(x[row])
        # KCL: the branch current leaves the positive node.
        add_f(p, i_branch)
        add_f(n, -i_branch)
        add_j(p, row, 1.0)
        add_j(n, row, -1.0)
        value = system.vsource_values[position]
        residual[row] = volt(p) - volt(n) - value * source_scale
        add_j(row, p, 1.0)
        add_j(row, n, -1.0)

    if system.companions is not None:
        system.companions.stamp(residual, jacobian, x)
    return residual, jacobian


def _dc_residual_reference(
    system: MnaSystem, x: np.ndarray, gmin: float = 1e-12, source_scale: float = 1.0
) -> np.ndarray:
    return assemble_dc_reference(system, x, gmin, source_scale)[0]


# ----------------------------------------------------------------------
# Device operating points and capacitances
# ----------------------------------------------------------------------
#: A MOSFET's capacitances in the order of a ``(devices, 5)`` row; the
#: two letters after ``c`` name the branch's terminals.
CAP_KINDS = ("cgs", "cgd", "cgb", "cbd", "cbs")


def _mosfet_terminals(system: MnaSystem, element: Mosfet) -> Dict[str, int]:
    return {
        "d": system.index_of(element.drain),
        "g": system.index_of(element.gate),
        "s": system.index_of(element.source),
        "b": system.index_of(element.bulk),
    }


def device_operating_points_reference(
    plan: StampPlan, x: np.ndarray
) -> Dict[str, MosfetOperatingPoint]:
    """:meth:`StampPlan.device_operating_points`: every MOSFET's full
    operating point at ``x``, element by element, by lowercase name."""
    system = plan.system
    ops: Dict[str, MosfetOperatingPoint] = {}
    for element in system.circuit.elements:
        if not isinstance(element, Mosfet):
            continue
        volt = {
            terminal: 0.0 if idx < 0 else float(x[idx])
            for terminal, idx in _mosfet_terminals(system, element).items()
        }
        key = element.name.lower()
        ops[key] = system.models[key].operating_point(
            volt["g"] - volt["s"], volt["d"] - volt["s"], volt["b"] - volt["s"]
        )
    return ops


def device_capacitances_reference(plan: StampPlan, x: np.ndarray) -> np.ndarray:
    """:meth:`StampPlan.device_capacitances`: one row per MOSFET in
    element order, each capacitance read by name (:data:`CAP_KINDS`)
    from :func:`device_operating_points_reference`."""
    ops = device_operating_points_reference(plan, x)
    rows = [[getattr(op, kind) for kind in CAP_KINDS] for op in ops.values()]
    return np.array(rows, dtype=float).reshape(-1, len(CAP_KINDS))


# ----------------------------------------------------------------------
# AC assembly and the per-frequency solve
# ----------------------------------------------------------------------
def assemble_ac_reference(
    system: MnaSystem,
    omega: float,
    device_ops: Dict[str, MosfetOperatingPoint],
    source_overrides: Optional[Dict[str, complex]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Complex MNA matrix and excitation vector at ``omega``, element by
    element (``source_overrides`` replaces sources' ``ac`` amplitudes)."""
    size = system.size
    matrix = np.zeros((size, size), dtype=complex)
    rhs = np.zeros(size, dtype=complex)
    overrides = {k.lower(): v for k, v in (source_overrides or {}).items()}
    index_of = system.index_of

    def add(row: int, col: int, value: complex) -> None:
        if row >= 0 and col >= 0:
            matrix[row, col] += value

    def add_rhs(row: int, value: complex) -> None:
        if row >= 0:
            rhs[row] += value

    def stamp_admittance(a: int, b: int, y: complex) -> None:
        add(a, a, y)
        add(b, b, y)
        add(a, b, -y)
        add(b, a, -y)

    for element in system.circuit.elements:
        if isinstance(element, Resistor):
            stamp_admittance(
                index_of(element.node_a),
                index_of(element.node_b),
                1.0 / element.resistance,
            )
        elif isinstance(element, Capacitor):
            stamp_admittance(
                index_of(element.node_a),
                index_of(element.node_b),
                1j * omega * element.capacitance,
            )
        elif isinstance(element, CurrentSource):
            amplitude = overrides.get(element.name.lower(), element.ac)
            add_rhs(index_of(element.positive), -amplitude)
            add_rhs(index_of(element.negative), amplitude)
        elif isinstance(element, Mosfet):
            op = device_ops.get(element.name.lower())
            if op is None:
                raise SimulationError(
                    f"device {element.name} missing from operating point"
                )
            d = index_of(element.drain)
            g = index_of(element.gate)
            s = index_of(element.source)
            b = index_of(element.bulk)
            # VCCS: i_d = gm*vgs + gds*vds + gmbs*vbs; exits the source.
            gm, gds, gmbs = op.gm, op.gds, op.gmbs
            g_s = -(gm + gds + gmbs)
            add(d, g, gm)
            add(d, d, gds)
            add(d, b, gmbs)
            add(d, s, g_s)
            add(s, g, -gm)
            add(s, d, -gds)
            add(s, b, -gmbs)
            add(s, s, -g_s)
            stamp_admittance(g, s, 1j * omega * op.cgs)
            stamp_admittance(g, d, 1j * omega * op.cgd)
            stamp_admittance(g, b, 1j * omega * op.cgb)
            stamp_admittance(b, d, 1j * omega * op.cbd)
            stamp_admittance(b, s, 1j * omega * op.cbs)
        elif isinstance(element, VoltageSource):
            pass
        else:  # pragma: no cover
            raise SimulationError(f"unsupported element {type(element).__name__}")

    for position, source in enumerate(system.vsources):
        row = system.branch_index(position)
        p = index_of(source.positive)
        n = index_of(source.negative)
        add(p, row, 1.0)
        add(n, row, -1.0)
        add(row, p, 1.0)
        add(row, n, -1.0)
        rhs[row] = overrides.get(source.name.lower(), source.ac)

    return matrix, rhs


def solve_ac_reference(
    system: MnaSystem,
    freqs: np.ndarray,
    device_ops: Dict[str, MosfetOperatingPoint],
    rhs: np.ndarray,
) -> np.ndarray:
    """:meth:`MnaSystem.solve_ac`, one assembly and dense solve per point."""
    solution = np.empty((freqs.size, *rhs.shape), dtype=complex)
    for k, frequency in enumerate(freqs):
        matrix, _ = assemble_ac_reference(system, 2.0 * np.pi * frequency, device_ops)
        try:
            solution[k] = np.linalg.solve(matrix, rhs)
        except np.linalg.LinAlgError as exc:
            raise SimulationError(
                f"AC solve failed at {frequency:g} Hz: {exc}"
            ) from exc
    return solution


# ----------------------------------------------------------------------
# Transient
# ----------------------------------------------------------------------
class _CapState:
    """Trapezoidal companion state for one capacitor branch a->b."""

    __slots__ = ("node_a", "node_b", "capacitance", "v_prev", "i_prev")

    def __init__(self, node_a: int, node_b: int, capacitance: float):
        self.node_a = node_a
        self.node_b = node_b
        self.capacitance = capacitance
        self.v_prev = 0.0
        self.i_prev = 0.0

    def voltage(self, x: np.ndarray) -> float:
        va = 0.0 if self.node_a < 0 else float(x[self.node_a])
        vb = 0.0 if self.node_b < 0 else float(x[self.node_b])
        return va - vb


class CompanionBankReference:
    """The transient's capacitor companion bank (the transient loop's
    contract with the production ``_CompanionBank``: built from the
    state and its device capacitances, ``begin_step(h)`` before each
    step's solve, ``accept`` after it) with one :class:`_CapState` per
    branch, stamped and updated one branch at a time.  Its device
    branches are its own: each MOSFET's terminal pair per capacitance
    kind, in the element and :data:`CAP_KINDS` order of
    :func:`device_capacitances_reference`."""

    def __init__(self, system: MnaSystem, x: np.ndarray, caps: np.ndarray):
        self.states = [
            _CapState(
                system.index_of(cap.node_a),
                system.index_of(cap.node_b),
                cap.capacitance,
            )
            for cap in system.circuit.capacitors
        ]
        self.device_states = []
        for element in system.circuit.elements:
            if not isinstance(element, Mosfet):
                continue
            terminals = _mosfet_terminals(system, element)
            for kind in CAP_KINDS:
                state = _CapState(terminals[kind[1]], terminals[kind[2]], 0.0)
                self.device_states.append(state)
                self.states.append(state)
        self._set_device_caps(caps)
        for state in self.states:
            state.v_prev = state.voltage(x)
        self.h = 0.0

    def begin_step(self, h: float) -> None:
        self.h = h

    def stamp(
        self, residual: np.ndarray, jacobian: Optional[np.ndarray], x: np.ndarray
    ) -> None:
        for state in self.states:
            if state.capacitance <= 0:
                continue
            geq = 2.0 * state.capacitance / self.h
            current = geq * state.voltage(x) - (geq * state.v_prev + state.i_prev)
            a, b = state.node_a, state.node_b
            if a >= 0:
                residual[a] += current
            if b >= 0:
                residual[b] -= current
            if jacobian is None:
                continue
            if a >= 0:
                jacobian[a, a] += geq
                if b >= 0:
                    jacobian[a, b] -= geq
            if b >= 0:
                jacobian[b, b] += geq
                if a >= 0:
                    jacobian[b, a] -= geq

    def accept(self, x_next: np.ndarray, caps: np.ndarray) -> None:
        for state in self.states:
            v_new = state.voltage(x_next)
            geq = 2.0 * state.capacitance / self.h
            state.i_prev = geq * (v_new - state.v_prev) - state.i_prev
            state.v_prev = v_new
        # Device capacitances follow the new operating point.
        self._set_device_caps(caps)

    def _set_device_caps(self, caps: np.ndarray) -> None:
        assert caps.size == len(self.device_states)
        for state, capacitance in zip(self.device_states, caps.ravel()):
            state.capacitance = float(capacitance)


# ----------------------------------------------------------------------
# Whole-simulator switch
# ----------------------------------------------------------------------
def _reference_patches():
    """(owner, attribute, replacement) for every production numeric path."""
    return (
        (MnaSystem, "assemble_dc_system", assemble_dc_reference),
        (MnaSystem, "assemble_dc_residual", _dc_residual_reference),
        (MnaSystem, "solve_ac", solve_ac_reference),
        (StampPlan, "device_operating_points", device_operating_points_reference),
        (StampPlan, "device_capacitances", device_capacitances_reference),
        (transient_module, "_CompanionBank", CompanionBankReference),
    )


@contextmanager
def reference_backend() -> Iterator[None]:
    """Run the live simulator on the scalar reference inside the block."""
    saved = [(owner, name, getattr(owner, name)) for owner, name, _ in _reference_patches()]
    try:
        for owner, name, replacement in _reference_patches():
            setattr(owner, name, replacement)
        yield
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


def patch_reference_backend(monkeypatch) -> None:
    """:func:`reference_backend` for a pytest ``monkeypatch`` fixture."""
    for owner, name, replacement in _reference_patches():
        monkeypatch.setattr(owner, name, replacement)
