"""Level-1 (square-law) MOSFET model.

This is the model class SPICE2 used when the paper's circuits were
hand-verified in 1987: square-law drain current with channel-length
modulation, first-order body effect, Meyer-style intrinsic gate
capacitances, overlap capacitances, and depletion junction capacitances.

The model is written so that drain current and its derivatives are
*continuous* across the cutoff/triode/saturation boundaries, which
Newton-Raphson convergence depends on:

* triode and saturation currents both carry the ``(1 + lambda*vds)``
  factor, making Ids and dIds/dVds continuous at ``vds = vov``;
* a tiny subthreshold exponential tail replaces the hard Ids=0 cutoff so
  the Jacobian never goes exactly singular for an off device.

Polarity and drain/source reversal are handled by exact reflections:

* PMOS: ``I_ext(vgs,vds,vbs) = -I_n(-vgs,-vds,-vbs)``, which leaves the
  derivatives w.r.t. the *external* voltages unchanged in sign;
* reversed operation (external ``vds`` of the reflected frame negative):
  the level-1 device is source/drain symmetric, so
  ``I(vgs,vds,vbs) = -I(vgs-vds, -vds, vbs-vds)``, and the chain rule
  gives the exact Jacobian entries.

Consequently :class:`MosfetOperatingPoint` stores the *signed* partial
derivatives ``gm = dId/dVgs``, ``gds = dId/dVds``, ``gmbs = dId/dVbs`` in
the external frame; they are positive in normal forward operation for
both polarities and may legitimately change sign in reversed mode.

The model answers three questions.  :meth:`MosfetModel.evaluate` gives
what a Newton stamp reads -- ``(ids, gm, gds, gmbs, region)`` -- and is
what every Newton iterate calls.  :meth:`MosfetModel.capacitances` gives
the five capacitances that AC and the transient linearize.
:meth:`MosfetModel.operating_point` combines the two into a
:class:`MosfetOperatingPoint`, with the same arithmetic.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Tuple

from ..errors import TechnologyError
from ..process.parameters import (
    DeviceParams,
    estimate_junction_area,
    estimate_junction_perimeter,
)

__all__ = ["Region", "MosfetOperatingPoint", "MosfetModel"]

#: Softplus smoothing voltage, volts.  The effective overdrive is
#: ``vov_eff = V0 * ln(1 + exp(vov / V0))``, which equals ``vov`` to within
#: a part in 1e9 for vov > 40*V0 and decays exponentially below threshold,
#: so the current and its derivatives are smooth everywhere in vgs while
#: remaining electrically negligible for an off device.
_SMOOTH_V0 = 0.02

#: Exponent clamp so exp() never overflows.
_EXP_CLAMP = 40.0


def _smooth_overdrive(vov: float) -> Tuple[float, float]:
    """Softplus-smoothed overdrive and its derivative d(vov_eff)/d(vov)."""
    x = vov / _SMOOTH_V0
    if x > _EXP_CLAMP:
        return vov, 1.0
    if x < -_EXP_CLAMP:
        tail = math.exp(-_EXP_CLAMP)
        return _SMOOTH_V0 * tail, tail
    exp_x = math.exp(x)
    return _SMOOTH_V0 * math.log1p(exp_x), exp_x / (1.0 + exp_x)


class Region(enum.Enum):
    """DC operating region of a MOSFET."""

    CUTOFF = "cutoff"
    TRIODE = "triode"
    SATURATION = "saturation"


@dataclass(frozen=True)
class MosfetOperatingPoint:
    """DC operating point plus small-signal parameters of one device.

    Sign conventions follow SPICE: ``ids`` is the current flowing into the
    drain terminal (negative for PMOS in normal operation); ``gm``,
    ``gds`` and ``gmbs`` are the signed partials of that current with
    respect to the external vgs/vds/vbs.  Capacitances are magnitudes.
    """

    region: Region
    ids: float
    vgs: float
    vds: float
    vbs: float
    vth: float
    vdsat: float
    gm: float
    gds: float
    gmbs: float
    cgs: float
    cgd: float
    cgb: float
    cbd: float
    cbs: float
    reversed_mode: bool = False

    @property
    def vov(self) -> float:
        """Effective gate overdrive in the internal NMOS frame, volts."""
        return abs(self.vgs) - abs(self.vth) if self.vth else abs(self.vgs)

    @property
    def saturated(self) -> bool:
        return self.region is Region.SATURATION

    def output_resistance(self) -> float:
        """Small-signal output resistance 1/|gds|, ohms (inf if gds = 0)."""
        return math.inf if self.gds == 0 else 1.0 / abs(self.gds)


class MosfetModel:
    """A sized MOSFET bound to its process parameters.

    Args:
        params: per-polarity process parameters.
        width / length: drawn geometry, metres.
        drain_width: drain/source diffusion extension for junction
            capacitance estimates, metres.
        cox: process gate-oxide capacitance, F/m^2.
    """

    def __init__(
        self,
        params: DeviceParams,
        width: float,
        length: float,
        drain_width: float,
        cox: float,
    ):
        if width <= 0 or length <= 0:
            raise TechnologyError(f"bad geometry W={width} L={length}")
        if cox <= 0:
            raise TechnologyError(f"bad cox {cox}")
        self.params = params
        self.width = width
        self.length = length
        self.drain_width = drain_width
        self.cox = cox
        self.beta = params.beta(width, length)
        self.lam = params.lambda_at(length)
        self._sign = 1.0 if params.polarity == "nmos" else -1.0
        self._cox_area = cox * width * length
        self._vto = abs(params.vto)
        self._sqrt_phi = math.sqrt(params.phi)
        #: Zero-bias junction capacitance of one drain/source diffusion.
        self._cj_zero_bias = params.cj * estimate_junction_area(
            width, drain_width
        ) + params.cjsw * estimate_junction_perimeter(width, drain_width)

    # ------------------------------------------------------------------
    # Core NMOS-frame current (vds >= 0 only)
    # ------------------------------------------------------------------
    def threshold(self, vbs: float) -> float:
        """Body-effect-adjusted threshold magnitude (internal NMOS frame).

        ``vbs`` must already be in the internal frame (reflected for PMOS).
        """
        p = self.params
        if p.gamma == 0.0:
            return self._vto
        # phi - vbs must stay positive; a forward-biased body (vbs > 0) is
        # clamped at a small depletion value rather than producing NaN.
        arg = max(p.phi - vbs, 0.01)
        return self._vto + p.gamma * (math.sqrt(arg) - self._sqrt_phi)

    def _forward(
        self, vgs: float, vds: float, vbs: float
    ) -> Tuple[Region, float, float, float, float]:
        """NMOS-frame current and partials for ``vds >= 0``.

        Returns (region, ids, d/dvgs, d/dvds, d/dvbs).
        """
        p = self.params
        vth = self.threshold(vbs)
        vov = vgs - vth
        beta = self.beta
        lam = self.lam

        # All region formulas use the smoothed overdrive, so Ids is smooth
        # in vgs across the cutoff boundary; d_vov below is the partial
        # w.r.t. the raw vov (the softplus slope is folded in).
        vov_eff, slope = _smooth_overdrive(vov)
        clm = 1.0 + lam * vds

        if vov <= 0.0:
            region = Region.CUTOFF
        elif vds >= vov_eff:
            region = Region.SATURATION
        else:
            region = Region.TRIODE

        if vds >= vov_eff:
            ids = 0.5 * beta * vov_eff * vov_eff * clm
            d_vov = beta * vov_eff * clm * slope
            d_vds = 0.5 * beta * vov_eff * vov_eff * lam
        else:
            ids = beta * (vov_eff - 0.5 * vds) * vds * clm
            d_vov = beta * vds * clm * slope
            d_vds = (
                beta * (vov_eff - vds) * clm
                + beta * (vov_eff - 0.5 * vds) * vds * lam
            )

        # vth depends on vbs: dI/dvbs = d_vov * (-dvth/dvbs).  Inside the
        # forward-bias clamp of threshold() vth is constant, so the
        # derivative there is exactly zero.
        if p.gamma > 0.0 and (p.phi - vbs) > 0.01:
            dvth_dvbs = -p.gamma / (2.0 * math.sqrt(p.phi - vbs))
        else:
            dvth_dvbs = 0.0
        return region, ids, d_vov, d_vds, -d_vov * dvth_dvbs

    # ------------------------------------------------------------------
    # Public evaluation in the external frame
    # ------------------------------------------------------------------
    def evaluate(
        self, vgs: float, vds: float, vbs: float
    ) -> Tuple[float, float, float, float, Region]:
        """What a Newton stamp reads at a bias point given in the
        external (SPICE) frame: ``(ids, gm, gds, gmbs, region)``."""
        s = self._sign
        xvgs, xvds, xvbs = s * vgs, s * vds, s * vbs
        if xvds >= 0.0:
            region, i_n, du, dw, db = self._forward(xvgs, xvds, xvbs)
            # PMOS reflection leaves derivative signs unchanged (s^2 = 1).
            return s * i_n, du, dw, db, region
        # I(vgs,vds,vbs) = -F(vgs-vds, -vds, vbs-vds) with F the forward
        # function; chain rule gives the exact partials.
        region, f, fu, fw, fb = self._forward(xvgs - xvds, -xvds, xvbs - xvds)
        return s * -f, -fu, fu + fw + fb, -fb, region

    def capacitances(
        self, region: Region, vgs: float, vds: float, vbs: float
    ) -> Tuple[float, float, float, float, float]:
        """``(cgs, cgd, cgb, cbd, cbs)`` at an external-frame bias point
        whose region :meth:`evaluate` returned: what AC and the
        transient linearize, and what no Newton iterate reads."""
        s = self._sign
        xvds = s * vds
        cgs, cgd, cgb = self._gate_capacitances(region)
        cbd, cbs = self._junction_capacitances(xvds, s * vbs)
        if xvds < 0.0:
            return cgd, cgs, cgb, cbs, cbd
        return cgs, cgd, cgb, cbd, cbs

    def operating_point(
        self, vgs: float, vds: float, vbs: float
    ) -> MosfetOperatingPoint:
        """The full operating point at an external-frame bias point:
        :meth:`evaluate` and :meth:`capacitances` plus the threshold
        and saturation voltage of the internal frame."""
        ids, gm, gds, gmbs, region = self.evaluate(vgs, vds, vbs)
        cgs, cgd, cgb, cbd, cbs = self.capacitances(region, vgs, vds, vbs)
        s = self._sign
        xvgs, xvds, xvbs = s * vgs, s * vds, s * vbs
        reversed_mode = xvds < 0.0
        if reversed_mode:
            xvgs, xvbs = xvgs - xvds, xvbs - xvds
        vth = self.threshold(xvbs)
        return MosfetOperatingPoint(
            region=region,
            ids=ids,
            vgs=vgs,
            vds=vds,
            vbs=vbs,
            vth=s * vth,
            vdsat=_smooth_overdrive(xvgs - vth)[0],
            gm=gm,
            gds=gds,
            gmbs=gmbs,
            cgs=cgs,
            cgd=cgd,
            cgb=cgb,
            cbd=cbd,
            cbs=cbs,
            reversed_mode=reversed_mode,
        )

    # ------------------------------------------------------------------
    # Capacitances
    # ------------------------------------------------------------------
    def _gate_capacitances(self, region: Region) -> Tuple[float, float, float]:
        """Meyer intrinsic caps plus overlaps, by region (internal frame)."""
        p = self.params
        c_ox = self._cox_area
        c_ov_s = p.cgso * self.width
        c_ov_d = p.cgdo * self.width
        c_ov_b = p.cgbo * self.length
        if region is Region.CUTOFF:
            cgs = c_ov_s
            cgd = c_ov_d
            cgb = c_ox + c_ov_b
        elif region is Region.SATURATION:
            cgs = (2.0 / 3.0) * c_ox + c_ov_s
            cgd = c_ov_d
            cgb = c_ov_b
        else:  # triode: split evenly (Meyer, small-vds limit)
            cgs = 0.5 * c_ox + c_ov_s
            cgd = 0.5 * c_ox + c_ov_d
            cgb = c_ov_b
        return cgs, cgd, cgb

    def _junction_capacitances(self, vds: float, vbs: float) -> Tuple[float, float]:
        """Reverse-biased drain/source junction caps (internal frame)."""
        pb = self.params.pb
        c_zero = self._cj_zero_bias

        def depletion(vj: float) -> float:
            # Standard (1 - V/pb)^-1/2 with forward-bias clamping.
            ratio = max(1.0 - vj / pb, 0.5)
            return 1.0 / math.sqrt(ratio)

        return c_zero * depletion(vbs - vds), c_zero * depletion(vbs)

    # ------------------------------------------------------------------
    # Design-equation helpers (used by sizing plans)
    # ------------------------------------------------------------------
    def saturation_current(self, vov: float, vds: float = 0.0) -> float:
        """Square-law saturation current for a given overdrive, amps."""
        if vov <= 0:
            return 0.0
        return 0.5 * self.beta * vov * vov * (1.0 + self.lam * abs(vds))

    def gm_at_current(self, ids: float) -> float:
        """Saturation gm = sqrt(2 * beta * Id), siemens."""
        if ids <= 0:
            return 0.0
        return math.sqrt(2.0 * self.beta * abs(ids))

    def active_area(self) -> float:
        """Gate area plus both diffusion areas, m^2 (the paper's active-
        device-area estimate)."""
        gate = self.width * self.length
        diffusion = 2.0 * estimate_junction_area(self.width, self.drain_width)
        return gate + diffusion

    def __repr__(self) -> str:
        return (
            f"MosfetModel({self.params.polarity}, W={self.width * 1e6:.2f}u, "
            f"L={self.length * 1e6:.2f}u)"
        )
