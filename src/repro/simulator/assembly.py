"""Vectorized array-oriented MNA assembly: the simulator's hot path.

This module compiles a circuit's stamp pattern **once** per
:class:`~repro.simulator.mna.MnaSystem` into a :class:`StampPlan`:

* devices grouped by type into index/value arrays (resistor terminal
  indices, MOSFET terminal indices, source rows...);
* one global COO entry list per assembly kind (DC Jacobian, DC
  residual, AC matrix) recorded in the order an element-by-element
  stamper would apply it, so a single ``np.add.at`` scatter reproduces
  that accumulation bit for bit (``np.add.at`` applies duplicate
  indices sequentially in entry order).

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
    from ..devices.mosfet import MosfetModel, MosfetOperatingPoint
    from .mna import MnaSystem

__all__ = ["StampPlan", "solve_linear"]


def solve_linear(jacobian: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve ``jacobian @ delta = rhs`` with ``np.linalg.solve``.

    A ``(B, n, n)`` stack with ``(B, n)`` right-hand sides solves as one
    call (one LU per member).  A singular matrix raises
    :class:`numpy.linalg.LinAlgError`, the one failure its caller,
    ``newton_batch``, catches.
    """
    if jacobian.ndim == 3:
        return np.linalg.solve(jacobian, rhs[..., None])[..., 0]
    return np.linalg.solve(jacobian, rhs)


class _NodeGather:
    """Vectorized ``volt()``: gather x[index] with ground (-1) -> 0.0."""

    __slots__ = ("index", "mask")

    def __init__(self, indices: Sequence[int]):
        arr = np.asarray(indices, dtype=np.intp)
        self.index = np.maximum(arr, 0)
        self.mask = arr >= 0

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return np.where(self.mask, x[self.index], 0.0)


class _EntryRecorder:
    """COO entries in scalar-stamp order, tagged by value group.

    ``positions(group)`` returns where a device group's values land in
    the global entry list, so each group fills its slice of one flat
    ``vals`` array and a single ordered ``np.add.at`` reproduces the
    interleaved scalar accumulation exactly.
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
        mos_bind: List[Tuple[str, str, "MosfetModel"]] = []
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
                mos_bind.append((key, element.name, system.models[key]))
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
        self.res_va = _NodeGather(res_a)
        self.res_vb = _NodeGather(res_b)
        self.res_g = np.asarray(res_g, dtype=float)
        g = self.res_g
        self.res_j_static = np.column_stack((g, -g, -g, g)).ravel()
        # --- MOSFETs ---------------------------------------------------
        self.mos_bind = mos_bind
        self.mos_vd = _NodeGather(mos_d)
        self.mos_vg = _NodeGather(mos_g)
        self.mos_vs = _NodeGather(mos_s)
        self.mos_vb = _NodeGather(mos_b)
        # --- voltage sources ------------------------------------------
        self.vs_vp = _NodeGather(vs_p)
        self.vs_vn = _NodeGather(vs_n)
        self.vs_rows = np.asarray(vs_row, dtype=np.intp)
        self.vs_j_static = np.tile(
            np.array([1.0, -1.0, 1.0, -1.0]), len(vs_row)
        )

        # --- global entry lists ---------------------------------------
        j_rows, j_cols, j_groups = jac.finish()
        self.j_total = j_rows.size
        self.jp_gmin = np.flatnonzero(j_groups == _JG_GMIN)
        self.jp_res = np.flatnonzero(j_groups == _JG_RES)
        # A group whose devices each record k consecutive entries keeps
        # its positions as (k, devices), filled from a tuple of k arrays.
        self.jp_mos = np.flatnonzero(j_groups == _JG_MOS).reshape(-1, 8).T
        self.jp_vs = np.flatnonzero(j_groups == _JG_VS)
        j_mask = (j_rows >= 0) & (j_cols >= 0)
        self.j_mask = j_mask
        self.j_rows_valid = j_rows[j_mask]
        self.j_cols_valid = j_cols[j_mask]

        f_rows, _f_cols, f_groups = res.finish()
        self.f_total = f_rows.size
        self.fp_gmin = np.flatnonzero(f_groups == _FG_GMIN)
        self.fp_res = np.flatnonzero(f_groups == _FG_RES).reshape(-1, 2).T
        self.fp_isrc = np.flatnonzero(f_groups == _FG_ISRC).reshape(-1, 2).T
        self.fp_mos = np.flatnonzero(f_groups == _FG_MOS).reshape(-1, 2).T
        self.fp_vs = np.flatnonzero(f_groups == _FG_VS).reshape(-1, 2).T
        f_mask = f_rows >= 0
        self.f_mask = f_mask
        self.f_rows_valid = f_rows[f_mask]

        self._ac_ready = False
        self._devices_at: Optional[bytes] = None
        self._devices: Tuple = ()  # the last _evaluate_mosfets result

    # ------------------------------------------------------------------
    # DC assembly
    # ------------------------------------------------------------------
    def _evaluate_mosfets(
        self, x: np.ndarray
    ) -> Tuple[
        Dict[str, "MosfetOperatingPoint"],
        np.ndarray,
        np.ndarray,
        np.ndarray,
        np.ndarray,
    ]:
        """Per-device model evaluation (kept scalar for bit-identity
        with the element-by-element stamper), results collected into
        arrays.  The last evaluation is kept, keyed by the bytes of
        ``x``: a solve that starts where the last one converged (the
        next timestep, sweep point or homotopy level) reuses it."""
        at = x.tobytes()
        if at == self._devices_at:
            return self._devices
        ops: Dict[str, "MosfetOperatingPoint"] = {}
        count = len(self.mos_bind)
        ids = np.empty(count)
        gm = np.empty(count)
        gds = np.empty(count)
        gmbs = np.empty(count)
        vd = self.mos_vd(x)
        vg = self.mos_vg(x)
        vs = self.mos_vs(x)
        vb = self.mos_vb(x)
        vgs = vg - vs
        vds = vd - vs
        vbs = vb - vs
        for i, (key, _name, model) in enumerate(self.mos_bind):
            op = model.evaluate(float(vgs[i]), float(vds[i]), float(vbs[i]))
            ops[key] = op
            ids[i] = op.ids
            gm[i] = op.gm
            gds[i] = op.gds
            gmbs[i] = op.gmbs
        self._devices_at, self._devices = at, (ops, ids, gm, gds, gmbs)
        return self._devices

    def _dc_entry_values(
        self,
        x: np.ndarray,
        gmin: float,
        source_scale: float,
        with_jacobian: bool = True,
    ) -> Tuple[
        np.ndarray, Optional[np.ndarray], Dict[str, "MosfetOperatingPoint"]
    ]:
        """Fill the flat residual/Jacobian entry-value arrays."""
        ops, ids, gm, gds, gmbs = self._evaluate_mosfets(x)
        f_vals = np.empty(self.f_total)
        f_vals[self.fp_gmin] = gmin * x[: self.n_nodes]
        gv = self.res_g * (self.res_va(x) - self.res_vb(x))
        f_vals[self.fp_res] = (gv, -gv)
        inj = self.system.isource_values * source_scale
        f_vals[self.fp_isrc] = (inj, -inj)
        f_vals[self.fp_mos] = (ids, -ids)
        i_branch = x[self.vs_rows]
        f_vals[self.fp_vs] = (i_branch, -i_branch)
        if not with_jacobian:
            return f_vals, None, ops
        j_vals = np.empty(self.j_total)
        j_vals[self.jp_gmin] = gmin
        j_vals[self.jp_res] = self.res_j_static
        g_s = -(gm + gds + gmbs)
        j_vals[self.jp_mos] = (gm, gds, gmbs, g_s, -gm, -gds, -gmbs, -g_s)
        j_vals[self.jp_vs] = self.vs_j_static
        return f_vals, j_vals, ops

    def _residual_from(
        self, f_vals: np.ndarray, x: np.ndarray, source_scale: float
    ) -> np.ndarray:
        residual = np.zeros(self.size)
        np.add.at(residual, self.f_rows_valid, f_vals[self.f_mask])
        if self.vs_rows.size:
            # Branch equations are assigned, not accumulated.
            residual[self.vs_rows] = (
                self.vs_vp(x)
                - self.vs_vn(x)
                - self.system.vsource_values * source_scale
            )
        return residual

    def assemble_dc_dense(
        self, x: np.ndarray, gmin: float, source_scale: float
    ) -> Tuple[np.ndarray, np.ndarray, Dict[str, "MosfetOperatingPoint"]]:
        """Vectorized dense assembly."""
        f_vals, j_vals, ops = self._dc_entry_values(x, gmin, source_scale)
        assert j_vals is not None
        jacobian = np.zeros((self.size, self.size))
        np.add.at(
            jacobian,
            (self.j_rows_valid, self.j_cols_valid),
            j_vals[self.j_mask],
        )
        residual = self._residual_from(f_vals, x, source_scale)
        if self.system.companions is not None:
            self.system.companions.stamp(residual, jacobian, x)
        return residual, jacobian, ops

    def assemble_dc_residual(
        self, x: np.ndarray, gmin: float, source_scale: float
    ) -> Tuple[np.ndarray, Dict[str, "MosfetOperatingPoint"]]:
        """Residual + device ops only (the Newton convergence check)."""
        f_vals, _, ops = self._dc_entry_values(
            x, gmin, source_scale, with_jacobian=False
        )
        residual = self._residual_from(f_vals, x, source_scale)
        if self.system.companions is not None:
            self.system.companions.stamp(residual, None, x)
        return residual, ops

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
        count = len(self.mos_bind)
        if count:
            gm = np.empty(count)
            gds = np.empty(count)
            gmbs = np.empty(count)
            cgs = np.empty(count)
            cgd = np.empty(count)
            cgb = np.empty(count)
            cbd = np.empty(count)
            cbs = np.empty(count)
            for i, (key, name, _model) in enumerate(self.mos_bind):
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

