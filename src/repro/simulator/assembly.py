"""Vectorized array-oriented MNA assembly: the simulator's hot path.

This module compiles a circuit's stamp pattern **once** per
:class:`~repro.simulator.mna.MnaSystem` into a :class:`StampPlan`:

* devices grouped by type into index/value arrays (resistor terminal
  indices, MOSFET terminal indices, source rows...);
* one global COO entry list per assembly kind (DC Jacobian, DC
  residual, AC matrix) recorded in the order an element-by-element
  stamper would apply it.  A DC assembly is one ``np.bincount`` per
  array over the flat entry bins: ``np.bincount`` adds each bin's
  weights in entry order starting from 0.0, exactly as the stamper
  accumulates them, so the result is bit for bit the same.  The AC
  matrix stack is one ``np.add.at``, which applies duplicate indices in
  entry order too.

Node voltages are read from ``x`` padded with one trailing 0.0
(:func:`with_ground`), so ground (index -1) reads 0 V without a mask;
entries on a ground row or column land in one spare bin past the end.
A transient timestep's capacitor companions append their entries to
the same DC scatter (:class:`CompanionBranches`, selected once per
step; see :mod:`repro.simulator.transient`).

Every system assembles dense and solves with ``np.linalg.solve``.  The
largest bundled testbench has 20 unknowns; larger decks take the same
path, only more slowly.  The element-by-element stampers the plan is
differential-tested against live in the test suite
(``tests/numeric_reference.py``), not here.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuit.elements import (
    Capacitor,
    CurrentSource,
    Mosfet,
    Resistor,
    VoltageSource,
)
from ..errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from ..devices.mosfet import MosfetModel, MosfetOperatingPoint, Region
    from .mna import MnaSystem

__all__ = ["CompanionBranches", "StampPlan", "solve_linear", "with_ground"]

_GROUND = np.zeros(1)


def with_ground(x: np.ndarray) -> np.ndarray:
    """``x`` with one trailing 0.0: indexed by node, ground (-1) reads 0 V."""
    return np.concatenate((x, _GROUND))


def solve_linear(jacobian: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve one Newton step ``jacobian @ delta = rhs`` with
    ``np.linalg.solve``.  A singular matrix raises
    :class:`numpy.linalg.LinAlgError`, the one failure its caller,
    :func:`~repro.simulator.dc.newton_solve`, catches.
    """
    return np.linalg.solve(jacobian, rhs)


class _EntryRecorder:
    """COO entries in scalar-stamp order, tagged by value group.

    The group tags let an assembly list each group's values together
    and take them into entry order in one step (:func:`_entry_order`),
    so a single ordered scatter reproduces the interleaved scalar
    accumulation exactly.
    """

    def __init__(self) -> None:
        self._rows: List[int] = []
        self._cols: List[int] = []
        self._groups: List[int] = []

    def add(self, group: int, row: int, col: int) -> None:
        self._groups.append(group)
        self._rows.append(row)
        self._cols.append(col)

    def finish(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        rows = np.asarray(self._rows, dtype=np.intp)
        cols = np.asarray(self._cols, dtype=np.intp)
        groups = np.asarray(self._groups, dtype=np.intp)
        return rows, cols, groups


# Value groups for the DC Jacobian entry list.
_JG_GMIN, _JG_RES, _JG_MOS, _JG_VS = range(4)
# Value groups for the DC residual entry list.
_FG_GMIN, _FG_RES, _FG_ISRC, _FG_MOS, _FG_VS = range(5)
# Value groups for the AC matrix entry list (split into a static
# conductance array, a static capacitance array, and the per-OP MOSFET
# fills; entry value at omega is g + j*omega*c).
_AG_STATIC, _AG_MOS_G, _AG_MOS_C = range(3)


def _entry_order(
    groups: np.ndarray, layout: Sequence[Tuple[int, int]]
) -> np.ndarray:
    """The index array that takes values listed group by group into
    entry order.  ``layout`` gives the listing order as (group, k): a
    group whose devices each record k consecutive entries lists all
    devices' first entries, then all their second entries, and so on."""
    listed = np.concatenate(
        [
            np.flatnonzero(groups == group).reshape(-1, k).T.ravel()
            for group, k in layout
        ]
    )
    assert listed.size == groups.size
    order = np.empty_like(listed)
    order[listed] = np.arange(listed.size)
    return order


class CompanionBranches:
    """Capacitor companion branches ``node_a`` -> ``node_b`` placed in
    ``plan``'s DC scatter.  Their bins follow the plan's own, each
    branch's in the order of the element-by-element stamp: the
    residual's (a) then (b), the Jacobian's (a,a), (b,b), (a,b), (b,a).

    :meth:`select` sets the branches of one timestep; while the plan's
    system holds companions whose ``branches`` are these, every DC
    assembly appends the selected branches' entries to its own."""

    def __init__(self, plan: "StampPlan", node_a: np.ndarray, node_b: np.ndarray):
        self.plan = plan
        self.node_a = a = node_a
        self.node_b = b = node_b
        self._f_bins = np.stack((plan._bins(a), plan._bins(b)))
        self._j_bins = np.stack(
            (plan._bins(a, a), plan._bins(b, b), plan._bins(a, b), plan._bins(b, a))
        )
        self.select(np.zeros(0, dtype=np.intp), np.zeros(0), np.zeros(0))

    def select(self, live: np.ndarray, geq: np.ndarray, ieq: np.ndarray) -> None:
        """The branches ``live`` carry conductance ``geq`` and history
        current ``ieq``; every other branch is open."""
        self.f_bins = np.concatenate((self.plan.f_bins, self._f_bins[:, live].ravel()))
        self.j_bins = np.concatenate((self.plan.j_bins, self._j_bins[:, live].ravel()))
        self.j_vals = np.concatenate((geq, geq, -geq, -geq))
        self.live_a = self.node_a[live]
        self.live_b = self.node_b[live]
        self.geq = geq
        self.ieq = ieq


class StampPlan:
    """Per-system compiled stamp pattern (see module docstring).

    Index arrays are built once in ``__init__`` by walking the elements
    in stamp order; numeric assemblies then only touch NumPy (and read
    the system's current source values and capacitor companions).  The AC
    layout is built lazily on first AC assembly (DC solves never need
    it).
    """

    def __init__(self, system: "MnaSystem"):
        self.system = system
        self.size = system.size
        self.n_nodes = system.n_nodes

        index_of = system.index_of
        jac = _EntryRecorder()
        res = _EntryRecorder()

        res_a: List[int] = []
        res_b: List[int] = []
        res_g: List[float] = []
        mos_keys: List[str] = []
        mos_names: List[str] = []
        mos_d: List[int] = []
        mos_g: List[int] = []
        mos_s: List[int] = []
        mos_b: List[int] = []

        # gmin shunt on every node comes first in stamp order.
        for i in range(self.n_nodes):
            jac.add(_JG_GMIN, i, i)
            res.add(_FG_GMIN, i, i)

        for element in system.circuit.elements:
            if isinstance(element, Resistor):
                a = index_of(element.node_a)
                b = index_of(element.node_b)
                res_a.append(a)
                res_b.append(b)
                res_g.append(1.0 / element.resistance)
                res.add(_FG_RES, a, a)
                res.add(_FG_RES, b, b)
                jac.add(_JG_RES, a, a)
                jac.add(_JG_RES, a, b)
                jac.add(_JG_RES, b, a)
                jac.add(_JG_RES, b, b)
            elif isinstance(element, Capacitor):
                continue  # open at DC
            elif isinstance(element, CurrentSource):
                p = index_of(element.positive)
                n = index_of(element.negative)
                res.add(_FG_ISRC, p, p)
                res.add(_FG_ISRC, n, n)
            elif isinstance(element, Mosfet):
                key = element.name.lower()
                mos_keys.append(key)
                mos_names.append(element.name)
                d = index_of(element.drain)
                g = index_of(element.gate)
                s = index_of(element.source)
                b = index_of(element.bulk)
                mos_d.append(d)
                mos_g.append(g)
                mos_s.append(s)
                mos_b.append(b)
                res.add(_FG_MOS, d, d)
                res.add(_FG_MOS, s, s)
                jac.add(_JG_MOS, d, g)
                jac.add(_JG_MOS, d, d)
                jac.add(_JG_MOS, d, b)
                jac.add(_JG_MOS, d, s)
                jac.add(_JG_MOS, s, g)
                jac.add(_JG_MOS, s, d)
                jac.add(_JG_MOS, s, b)
                jac.add(_JG_MOS, s, s)
            elif isinstance(element, VoltageSource):
                pass  # branch rows handled below
            else:  # pragma: no cover
                raise SimulationError(
                    f"unsupported element {type(element).__name__}"
                )

        vs_p: List[int] = []
        vs_n: List[int] = []
        vs_row: List[int] = []
        for position, source in enumerate(system.vsources):
            row = system.branch_index(position)
            p = index_of(source.positive)
            n = index_of(source.negative)
            vs_p.append(p)
            vs_n.append(n)
            vs_row.append(row)
            res.add(_FG_VS, p, p)
            res.add(_FG_VS, n, n)
            jac.add(_JG_VS, p, row)
            jac.add(_JG_VS, n, row)
            jac.add(_JG_VS, row, p)
            jac.add(_JG_VS, row, n)

        # --- resistor group -------------------------------------------
        self.res_a = np.asarray(res_a, dtype=np.intp)
        self.res_b = np.asarray(res_b, dtype=np.intp)
        self.res_g = np.asarray(res_g, dtype=float)
        g = self.res_g
        self.res_j_static = np.column_stack((g, -g, -g, g)).ravel()
        # --- MOSFETs ---------------------------------------------------
        self.mos_keys = mos_keys
        self.mos_names = mos_names
        self.mos_models: List["MosfetModel"] = [system.models[k] for k in mos_keys]
        #: (drain, gate, source, bulk) rows of node indices, read in one
        #: gather from :func:`with_ground` of ``x``.
        self.mos_terminals = np.asarray(
            (mos_d, mos_g, mos_s, mos_b), dtype=np.intp
        ).reshape(4, -1)
        # --- voltage sources ------------------------------------------
        self.vs_p = np.asarray(vs_p, dtype=np.intp)
        self.vs_n = np.asarray(vs_n, dtype=np.intp)
        self.vs_rows = np.asarray(vs_row, dtype=np.intp)
        self.vs_j_static = np.tile(
            np.array([1.0, -1.0, 1.0, -1.0]), len(vs_row)
        )

        # --- global entry lists ---------------------------------------
        # An assembly lists its values group by group (see the layouts
        # below) and takes them into entry order with one index array.
        j_rows, j_cols, j_groups = jac.finish()
        self.j_order = _entry_order(
            j_groups, ((_JG_GMIN, 1), (_JG_RES, 1), (_JG_MOS, 8), (_JG_VS, 1))
        )
        self.j_bins = self._bins(j_rows, j_cols)
        f_rows, _f_cols, f_groups = res.finish()
        self.f_order = _entry_order(
            f_groups,
            ((_FG_GMIN, 1), (_FG_RES, 2), (_FG_ISRC, 2), (_FG_MOS, 2), (_FG_VS, 2)),
        )
        self.f_bins = self._bins(f_rows)

        self._ac_ready = False
        self._devices_at: Optional[bytes] = None
        self._devices: Tuple = ()  # the last _evaluate_mosfets result

    def _bins(
        self, rows: np.ndarray, cols: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Flat scatter bins: a residual entry's row, or a Jacobian
        entry's ``row * size + col``.  An entry on a ground row or
        column goes to the spare bin past the end (``size`` for the
        residual, ``size**2`` for the Jacobian), which the assembly
        drops."""
        size = self.size
        if cols is None:
            return np.where(rows >= 0, rows, size)
        return np.where((rows >= 0) & (cols >= 0), rows * size + cols, size * size)

    # ------------------------------------------------------------------
    # Device evaluation
    # ------------------------------------------------------------------
    def _bias(self, x: np.ndarray) -> Tuple[List[float], List[float], List[float]]:
        """Every MOSFET's (vgs, vds, vbs), as lists of floats."""
        vd, vg, vs, vb = with_ground(x)[self.mos_terminals]
        return (vg - vs).tolist(), (vd - vs).tolist(), (vb - vs).tolist()

    def _evaluate_mosfets(
        self, x: np.ndarray
    ) -> Tuple[np.ndarray, List["Region"], Tuple[List[float], ...]]:
        """Every MOSFET's Newton stamp values at ``x``: a ``(4, devices)``
        array of (ids, gm, gds, gmbs), the regions and the bias.  The
        model is evaluated device by device (scalar, for bit-identity
        with the element-by-element stamper).  The last evaluation is
        kept, keyed by the bytes of ``x``: a solve that starts where the
        last one converged (the next timestep, sweep point or homotopy
        level) reuses it, and so does a capacitance lookup at the point
        a solve converged to."""
        at = x.tobytes()
        if at == self._devices_at:
            return self._devices
        bias = self._bias(x)
        columns = list(
            zip(
                *[
                    model.evaluate(vgs, vds, vbs)
                    for model, vgs, vds, vbs in zip(self.mos_models, *bias)
                ]
            )
        )
        stamps = np.array(columns[:4], dtype=float).reshape(4, -1)
        regions = list(columns[4]) if columns else []
        self._devices_at, self._devices = at, (stamps, regions, bias)
        return self._devices

    def device_capacitances(self, x: np.ndarray) -> np.ndarray:
        """``(devices, 5)`` array of every MOSFET's (cgs, cgd, cgb, cbd,
        cbs) at ``x``."""
        _, regions, bias = self._evaluate_mosfets(x)
        caps = [
            model.capacitances(region, vgs, vds, vbs)
            for model, region, vgs, vds, vbs in zip(self.mos_models, regions, *bias)
        ]
        return np.array(caps, dtype=float).reshape(-1, 5)

    def device_operating_points(
        self, x: np.ndarray
    ) -> Dict[str, "MosfetOperatingPoint"]:
        """Every MOSFET's full operating point at ``x``, by lowercase
        instance name."""
        return {
            key: model.operating_point(vgs, vds, vbs)
            for key, model, vgs, vds, vbs in zip(
                self.mos_keys, self.mos_models, *self._bias(x)
            )
        }

    # ------------------------------------------------------------------
    # DC assembly
    # ------------------------------------------------------------------
    def _residual(
        self, x: np.ndarray, gmin: float, source_scale: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """The residual at ``x``, with the device stamp values it was
        built from."""
        xp = with_ground(x)
        stamps = self._evaluate_mosfets(x)[0]
        ids = stamps[0]
        gv = self.res_g * (xp[self.res_a] - xp[self.res_b])
        inj = self.system.isource_values * source_scale
        i_branch = x[self.vs_rows]
        f_vals = np.concatenate(
            (gmin * x[: self.n_nodes], gv, -gv, inj, -inj, ids, -ids,
             i_branch, -i_branch)
        )[self.f_order]
        bins = self.f_bins
        companions = self.system.companions
        if companions is not None:
            branches = companions.branches
            bins = branches.f_bins
            current = (
                branches.geq * (xp[branches.live_a] - xp[branches.live_b])
                - branches.ieq
            )
            f_vals = np.concatenate((f_vals, current, -current))
        residual = np.bincount(bins, f_vals, minlength=self.size + 1)[: self.size]
        if self.vs_rows.size:
            # Branch equations are assigned, not accumulated.
            residual[self.vs_rows] = (
                xp[self.vs_p]
                - xp[self.vs_n]
                - self.system.vsource_values * source_scale
            )
        return residual, stamps

    def assemble_dc_dense(
        self, x: np.ndarray, gmin: float, source_scale: float
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Residual and dense Jacobian, one ``np.bincount`` each."""
        residual, (_ids, gm, gds, gmbs) = self._residual(x, gmin, source_scale)
        g_s = -(gm + gds + gmbs)
        j_vals = np.concatenate(
            (np.full(self.n_nodes, gmin), self.res_j_static,
             gm, gds, gmbs, g_s, -gm, -gds, -gmbs, -g_s, self.vs_j_static)
        )[self.j_order]
        bins = self.j_bins
        companions = self.system.companions
        if companions is not None:
            bins = companions.branches.j_bins
            j_vals = np.concatenate((j_vals, companions.branches.j_vals))
        cells = self.size * self.size
        jacobian = np.bincount(bins, j_vals, minlength=cells + 1)[:cells]
        return residual, jacobian.reshape(self.size, self.size)

    def assemble_dc_residual(
        self, x: np.ndarray, gmin: float, source_scale: float
    ) -> np.ndarray:
        """The residual only (the Newton convergence check)."""
        return self._residual(x, gmin, source_scale)[0]

    # ------------------------------------------------------------------
    # AC assembly
    # ------------------------------------------------------------------
    def _build_ac(self) -> None:
        """Record the AC entry list (stamp order: elements first, then
        voltage-source rows; each admittance stamp is
        (a,a),(b,b),(a,b),(b,a))."""
        system = self.system
        index_of = system.index_of
        rec = _EntryRecorder()
        g_static: List[float] = []
        c_static: List[float] = []

        def stamp_admittance(group: int, a: int, b: int) -> None:
            rec.add(group, a, a)
            rec.add(group, b, b)
            rec.add(group, a, b)
            rec.add(group, b, a)

        def push_static(g_value: float, c_value: float, count: int = 1) -> None:
            g_static.extend([g_value, g_value, -g_value, -g_value] * count)
            c_static.extend([c_value, c_value, -c_value, -c_value] * count)

        isrc_rhs: List[Tuple[str, int, int, complex]] = []
        for element in system.circuit.elements:
            if isinstance(element, Resistor):
                a = index_of(element.node_a)
                b = index_of(element.node_b)
                stamp_admittance(_AG_STATIC, a, b)
                push_static(1.0 / element.resistance, 0.0)
            elif isinstance(element, Capacitor):
                a = index_of(element.node_a)
                b = index_of(element.node_b)
                stamp_admittance(_AG_STATIC, a, b)
                push_static(0.0, element.capacitance)
            elif isinstance(element, CurrentSource):
                isrc_rhs.append(
                    (
                        element.name.lower(),
                        index_of(element.positive),
                        index_of(element.negative),
                        element.ac,
                    )
                )
            elif isinstance(element, Mosfet):
                d = index_of(element.drain)
                g = index_of(element.gate)
                s = index_of(element.source)
                b = index_of(element.bulk)
                rec.add(_AG_MOS_G, d, g)
                rec.add(_AG_MOS_G, d, d)
                rec.add(_AG_MOS_G, d, b)
                rec.add(_AG_MOS_G, d, s)
                rec.add(_AG_MOS_G, s, g)
                rec.add(_AG_MOS_G, s, d)
                rec.add(_AG_MOS_G, s, b)
                rec.add(_AG_MOS_G, s, s)
                stamp_admittance(_AG_MOS_C, g, s)
                stamp_admittance(_AG_MOS_C, g, d)
                stamp_admittance(_AG_MOS_C, g, b)
                stamp_admittance(_AG_MOS_C, b, d)
                stamp_admittance(_AG_MOS_C, b, s)
            elif isinstance(element, VoltageSource):
                pass
            else:  # pragma: no cover
                raise SimulationError(
                    f"unsupported element {type(element).__name__}"
                )

        vs_rhs: List[Tuple[str, int, complex]] = []
        for position, source in enumerate(system.vsources):
            row = system.branch_index(position)
            p = index_of(source.positive)
            n = index_of(source.negative)
            rec.add(_AG_STATIC, p, row)
            rec.add(_AG_STATIC, n, row)
            rec.add(_AG_STATIC, row, p)
            rec.add(_AG_STATIC, row, n)
            g_static.extend([1.0, -1.0, 1.0, -1.0])
            c_static.extend([0.0, 0.0, 0.0, 0.0])
            vs_rhs.append((source.name.lower(), row, source.ac))

        rows, cols, groups = rec.finish()
        self.ac_total = rows.size
        self.ac_g_base = np.zeros(self.ac_total)
        self.ac_c_base = np.zeros(self.ac_total)
        acp_static = np.flatnonzero(groups == _AG_STATIC)
        self.ac_g_base[acp_static] = np.asarray(g_static, dtype=float)
        self.ac_c_base[acp_static] = np.asarray(c_static, dtype=float)
        self.acp_mos_g = np.flatnonzero(groups == _AG_MOS_G)
        self.acp_mos_c = np.flatnonzero(groups == _AG_MOS_C)
        mask = (rows >= 0) & (cols >= 0)
        self.ac_mask = mask
        self.ac_rows_valid = rows[mask]
        self.ac_cols_valid = cols[mask]
        self._isrc_rhs = isrc_rhs
        self._vs_rhs = vs_rhs
        self._ac_ready = True

    def ac_entry_values(
        self, device_ops: Dict[str, "MosfetOperatingPoint"]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Frequency-independent (conductance, capacitance) entry
        arrays; the matrix entries at ``omega`` are ``g + 1j*omega*c``.
        """
        if not self._ac_ready:
            self._build_ac()
        g_vals = self.ac_g_base.copy()
        c_vals = self.ac_c_base.copy()
        count = len(self.mos_keys)
        if count:
            gm = np.empty(count)
            gds = np.empty(count)
            gmbs = np.empty(count)
            cgs = np.empty(count)
            cgd = np.empty(count)
            cgb = np.empty(count)
            cbd = np.empty(count)
            cbs = np.empty(count)
            for i, (key, name) in enumerate(zip(self.mos_keys, self.mos_names)):
                op = device_ops.get(key)
                if op is None:
                    raise SimulationError(
                        f"device {name} missing from operating point"
                    )
                gm[i] = op.gm
                gds[i] = op.gds
                gmbs[i] = op.gmbs
                cgs[i] = op.cgs
                cgd[i] = op.cgd
                cgb[i] = op.cgb
                cbd[i] = op.cbd
                cbs[i] = op.cbs
            g_s = -(gm + gds + gmbs)
            g_vals[self.acp_mos_g] = np.column_stack(
                (gm, gds, gmbs, g_s, -gm, -gds, -gmbs, -g_s)
            ).ravel()
            c_vals[self.acp_mos_c] = np.column_stack(
                (
                    cgs, cgs, -cgs, -cgs,
                    cgd, cgd, -cgd, -cgd,
                    cgb, cgb, -cgb, -cgb,
                    cbd, cbd, -cbd, -cbd,
                    cbs, cbs, -cbs, -cbs,
                )
            ).ravel()
        return g_vals, c_vals

    def ac_rhs(self, overrides: Optional[Dict[str, complex]] = None) -> np.ndarray:
        """Excitation vector (frequency-independent); ``overrides`` maps
        source names to AC amplitudes replacing the netlist ``ac`` values."""
        if not self._ac_ready:
            self._build_ac()
        overrides = {k.lower(): v for k, v in (overrides or {}).items()}
        rhs = np.zeros(self.size, dtype=complex)
        for name, p, n, ac in self._isrc_rhs:
            amplitude = overrides.get(name, ac)
            if p >= 0:
                rhs[p] -= amplitude
            if n >= 0:
                rhs[n] += amplitude
        for name, row, ac in self._vs_rhs:
            rhs[row] = overrides.get(name, ac)
        return rhs

    def assemble_ac_stacked(
        self,
        omegas: np.ndarray,
        g_vals: np.ndarray,
        c_vals: np.ndarray,
    ) -> np.ndarray:
        """All frequencies as one (F, size, size) matrix stack."""
        stacked_vals = g_vals[None, :] + np.multiply.outer(
            1j * omegas, c_vals
        )
        count = omegas.size
        matrix = np.zeros((count, self.size, self.size), dtype=complex)
        np.add.at(
            matrix,
            (
                np.arange(count)[:, None],
                self.ac_rows_valid[None, :],
                self.ac_cols_valid[None, :],
            ),
            stacked_vals[:, self.ac_mask],
        )
        return matrix

