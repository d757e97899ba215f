"""The fully differential op amp style (Section 5 extension).

"...more op amp topologies (e.g., folded cascade and fully differential
styles)."  This module completes that named list with a fully
differential one-stage amplifier, including a *real* common-mode
feedback (CMFB) loop -- the part that makes fully differential design
qualitatively different:

* NMOS source-coupled pair with PMOS current-source loads; both outputs
  are high-impedance, so the output *common mode* is undefined without
  feedback;
* the CMFB senses the output common mode with two large matched
  resistors, compares it to mid-supply with a small auxiliary
  differential amplifier (an NMOS pair with a PMOS mirror load -- the
  existing sub-block designers again), and closes the loop by driving
  the PMOS load gates;
* differential behaviour: twice the single-ended swing, no systematic
  offset (by symmetry), and common-mode disturbances rejected by the
  loop.

Because a fully differential amplifier has four signal ports, it does
not share :class:`~repro.opamp.result.DesignedOpAmp`'s single-ended
emit contract; it is a stand-alone designer with its own result type
and verification helper, not a catalogue entry -- demonstrating that
the framework's pieces (plans, sub-block designers, simulator) compose
outside the fixed op amp selector too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict

from ..circuit.builder import CircuitBuilder
from ..circuit.netlist import Circuit
from ..errors import SynthesisError
from ..kb.blocks import Block
from ..kb.plans import DesignState, Plan, PlanExecutor, PlanStep
from ..kb.specs import OpAmpSpec
from ..kb.trace import DesignTrace
from ..process.parameters import ProcessParameters
from ..simulator.ac import ac_analysis
from ..simulator.dc import operating_point
from ..subblocks import (
    BiasSpec,
    DiffPairSpec,
    MirrorSpec,
    design_bias,
    design_current_mirror,
    design_diff_pair,
    emit_bias,
    emit_diff_pair,
    emit_mirror,
)
from ..subblocks.sizing import size_for_vov
from ..units import db20
from .common import (
    GAIN_MARGIN,
    GBW_MARGIN,
    IREF_DEFAULT,
    SLEW_MARGIN,
    opamp_spec_of,
    reconcile_tail_current,
    supply_checks,
)

__all__ = [
    "DesignedFdOpAmp",
    "design_fully_differential",
    "verify_fd_opamp",
]

#: Common-mode sensing resistance per leg, ohms.  Large enough not to
#: load the outputs (they see Rcm in parallel with ro's of MOhms /
#: these are 10 MOhm), small enough to bias the aux amp input.
R_SENSE = 10e6

#: Load-device overdrive ceiling, volts.
VOV_LOAD_MAX = 0.5

#: Auxiliary (CMFB) amplifier tail current, amps.
I_AUX = 10e-6


@dataclass
class DesignedFdOpAmp:
    """A designed fully differential amplifier.

    Attributes:
        spec: the driving specification (swing is interpreted as the
            *differential* swing, which symmetry doubles relative to a
            single-ended stage).
        performance: predicted values (gain_db is the differential gain).
        emit: ``emit(builder, inp, inn, outp, outn)``.
    """

    spec: OpAmpSpec
    process: ProcessParameters
    performance: Dict[str, float]
    area: float
    hierarchy: Block
    emit: Callable[[CircuitBuilder, str, str, str, str], None]
    trace: DesignTrace

    def standalone_circuit(self) -> Circuit:
        builder = CircuitBuilder("fd_opamp", self.process)
        builder.supplies()
        builder.vsource("inp", "inp", "0", dc=0.0)
        builder.vsource("inn", "inn", "0", dc=0.0)
        builder.capacitor("loadp", "outp", "0", self.spec.load_capacitance)
        builder.capacitor("loadn", "outn", "0", self.spec.load_capacitance)
        self.emit(builder, "inp", "inn", "outp", "outn")
        return builder.build()


# ----------------------------------------------------------------------
# Plan steps
# ----------------------------------------------------------------------
def _check_specification(state: DesignState) -> str:
    """Screen the spec, halving the swing first: ``output_swing`` is the
    *differential* requirement, and symmetry provides twice the
    single-ended reach."""
    spec = opamp_spec_of(state)
    import dataclasses

    single_ended_view = dataclasses.replace(
        spec, output_swing=spec.output_swing / 2.0
    )
    supply_checks(single_ended_view, state.process)
    return "specification screened (differential swing halved per side)"


def _budget_currents(state: DesignState) -> str:
    spec = opamp_spec_of(state)
    # Differential slew: the full steered tail charges one side's load.
    i_slew = SLEW_MARGIN * spec.slew_rate * spec.load_capacitance
    gm1 = GBW_MARGIN * 2.0 * math.pi * spec.unity_gain_hz * spec.load_capacitance
    i_tail, vov1 = reconcile_tail_current(gm1, i_slew)
    state.set("gm1", gm1)
    state.set("i_tail", i_tail)
    state.set("vov1", vov1)
    return f"Itail = {i_tail * 1e6:.1f} uA, gm1 = {gm1 * 1e6:.1f} uS"


def _design_pair_and_loads(state: DesignState) -> str:
    spec = opamp_spec_of(state)
    process = state.process
    pair = design_diff_pair(
        DiffPairSpec(
            polarity="nmos",
            gm=state.get("gm1"),
            i_tail=state.get("i_tail"),
            length=process.min_length,
        ),
        process,
    )
    state.set("pair", pair)
    # Loads: PMOS current sources; their vov sets the per-side swing up.
    # The differential swing is twice the single-ended one; budget half
    # the spec per side.
    half = process.supply_span / 2.0
    vov_load = min(VOV_LOAD_MAX, 0.9 * (half - spec.output_swing / 2.0))
    a_lin = GAIN_MARGIN * 10.0 ** (spec.gain_db / 20.0)
    # Gain = gm1 / (gds2 + gds4): solve the shared length.
    g_total = state.get("gm1") / a_lin
    i_half = state.get("i_tail") / 2.0
    lambda_sum_target = g_total / i_half
    n, p = process.device("nmos"), process.device("pmos")
    lambda_b_sum = n.lambda_b + p.lambda_b
    if lambda_sum_target <= lambda_b_sum:
        raise SynthesisError(
            f"differential gain {spec.gain_db:.0f} dB beyond the one-stage "
            f"style at any channel length"
        )
    l_um = (n.lambda_a + p.lambda_a) / (lambda_sum_target - lambda_b_sum)
    length = max(process.min_length, l_um * 1e-6)
    if length > 4.0 * process.min_length:
        raise SynthesisError(
            f"differential gain {spec.gain_db:.0f} dB needs L = "
            f"{length * 1e6:.1f} um, beyond budget"
        )
    pair = design_diff_pair(
        DiffPairSpec(
            polarity="nmos",
            gm=state.get("gm1"),
            i_tail=state.get("i_tail"),
            length=length,
        ),
        process,
    )
    load = size_for_vov(p, process, i_half, vov_load, length)
    state.set("pair", pair)
    state.set("load", load)
    state.set("l_stage", length)
    gain = state.get("gm1") / (pair.device.gds + load.gds)
    state.set("gain_db", db20(gain))
    return f"L = {length * 1e6:.1f} um, gain {db20(gain):.1f} dB"


def _design_tail_and_bias(state: DesignState) -> str:
    process = state.process
    pair = state.get("pair")
    mirror = design_current_mirror(
        MirrorSpec(
            polarity="nmos",
            i_in=IREF_DEFAULT,
            i_out=state.get("i_tail"),
            rout_min=1.0,
            headroom=process.supply_span / 2.0 - pair.vgs,
            length_max=2.0 * process.min_length,
        ),
        process,
        block="fd/tail_mirror",
    )
    state.set("mirror_tail", mirror)
    bias = design_bias(
        BiasSpec(
            polarity="nmos",
            i_ref=IREF_DEFAULT,
            taps=(("tail", state.get("i_tail")), ("aux_tail", I_AUX)),
            length=process.min_length,
        ),
        process,
    )
    state.set("bias", bias)
    return "tail + bias sized"


def _design_cmfb(state: DesignState) -> str:
    """The CMFB auxiliary amplifier: a small NMOS pair comparing the
    sensed common mode to ground, with a PMOS mirror load whose output
    drives the main load gates."""
    process = state.process
    aux_gm = 2.0 * (I_AUX / 2.0) / 0.25  # vov 0.25 at half the aux tail
    aux_pair = design_diff_pair(
        DiffPairSpec(
            polarity="nmos", gm=aux_gm, i_tail=I_AUX, length=process.min_length
        ),
        process,
    )
    aux_mirror = design_current_mirror(
        MirrorSpec(
            polarity="pmos",
            i_in=I_AUX / 2.0,
            i_out=I_AUX / 2.0,
            rout_min=1.0,
            headroom=2.0,
            length_max=2.0 * process.min_length,
        ),
        process,
        block="fd/cmfb_mirror",
        styles=("simple",),
    )
    state.set("aux_pair", aux_pair)
    state.set("aux_mirror", aux_mirror)
    return f"CMFB aux amp: gm {aux_pair.gm * 1e6:.0f} uS, Rsense {R_SENSE / 1e6:.0f} MOhm"


def _assemble(state: DesignState) -> str:
    spec = opamp_spec_of(state)
    process = state.process
    half = process.supply_span / 2.0
    pair, load = state.get("pair"), state.get("load")
    swing_single_up = half - load.vov
    swing_single_down = half - state.get("mirror_tail").v_required - pair.vov
    swing_diff = 2.0 * min(swing_single_up, swing_single_down)
    if swing_diff < spec.output_swing * 0.98:
        raise SynthesisError(
            f"differential swing +-{swing_diff:.2f} V below "
            f"+-{spec.output_swing:.2f} V"
        )
    i_total = state.get("i_tail") + I_AUX + IREF_DEFAULT
    power = i_total * process.supply_span
    area = (
        pair.area
        + 2.0 * load.active_area(process)
        + state.get("mirror_tail").area
        + state.get("bias").area
        + state.get("aux_pair").area
        + state.get("aux_mirror").area
    )
    performance = {
        "gain_db": state.get("gain_db"),
        "unity_gain_hz": spec.unity_gain_hz * GBW_MARGIN,
        "phase_margin_deg": 85.0,  # load-compensated single stage
        "slew_rate": state.get("i_tail") / spec.load_capacitance,
        "output_swing": swing_diff,
        "offset_mv": 0.0,  # no systematic offset by symmetry
        "power": power,
        "area": area,
        "compensation_cap": 0.0,
    }
    state.set("performance", performance)
    state.set("area", area)
    violations = [v for v in spec.to_specification().compare(performance) if v.hard]
    if violations:
        raise SynthesisError("; ".join(str(v) for v in violations))
    return f"diff swing +-{swing_diff:.2f} V, power {power * 1e3:.2f} mW"


def _build_plan() -> Plan:
    return Plan(
        "fully_differential",
        [
            PlanStep("check_specification", _check_specification),
            PlanStep("budget_currents", _budget_currents),
            PlanStep("design_pair_and_loads", _design_pair_and_loads),
            PlanStep("design_tail_and_bias", _design_tail_and_bias),
            PlanStep("design_cmfb", _design_cmfb),
            PlanStep("assemble", _assemble),
        ],
    )


# ----------------------------------------------------------------------
# Emission / packaging / verification
# ----------------------------------------------------------------------
def _make_emitter(state: DesignState):
    pair = state.get("pair")
    load = state.get("load")
    bias = state.get("bias")
    aux_pair = state.get("aux_pair")
    aux_mirror = state.get("aux_mirror")

    def emit(
        builder: CircuitBuilder, inp: str, inn: str, outp: str, outn: str
    ) -> None:
        uid = builder.fresh_name("fd")

        def node(name: str) -> str:
            return f"{uid}.{name}"

        tail, ref = node("tail"), node("ref")
        vcm_s, vbp, aux_tail, aux_d = (
            node("vcm_s"),
            node("vbp"),
            node("aux_tail"),
            node("aux_d"),
        )

        # Main stage: pair + PMOS current-source loads gated by the CMFB.
        emit_diff_pair(builder, pair, inp, inn, outn, outp, tail, prefix=uid)
        builder.pmos(f"{uid}_ml1", outn, vbp, "vdd", load.width, length=load.length)
        builder.pmos(f"{uid}_ml2", outp, vbp, "vdd", load.width, length=load.length)

        # Common-mode sense.
        builder.resistor(f"{uid}_rs1", outp, vcm_s, R_SENSE)
        builder.resistor(f"{uid}_rs2", outn, vcm_s, R_SENSE)

        # CMFB auxiliary amplifier: +input senses vcm_s, -input is the
        # mid-supply target (ground); its mirror output drives vbp.
        emit_diff_pair(
            builder, aux_pair, vcm_s, "0", aux_d, vbp, aux_tail, prefix=f"{uid}_aux"
        )
        emit_mirror(builder, aux_mirror, aux_d, vbp, builder.vdd_node, prefix=f"{uid}_am")

        # Bias: master + main tail + aux tail.
        builder.isource(f"{uid}_iref", builder.vdd_node, ref, dc=IREF_DEFAULT)
        emit_bias(
            builder,
            bias,
            ref,
            {"tail": tail, "aux_tail": aux_tail},
            builder.vss_node,
            prefix=f"{uid}_bias",
        )

    return emit


def design_fully_differential(
    spec: OpAmpSpec, process: ProcessParameters
) -> DesignedFdOpAmp:
    """Design a fully differential one-stage amplifier with CMFB.

    ``spec.output_swing`` is interpreted as the required *differential*
    swing.

    Raises:
        SynthesisError: when the style cannot meet the specification.
    """
    trace = DesignTrace()
    state = DesignState(spec.to_specification(), process)
    state.set("opamp_spec", spec)
    PlanExecutor(_build_plan()).execute(state, trace=trace, block="opamp/fd")

    hierarchy = Block("opamp", "opamp", style="fully_differential")
    hierarchy.add_child(Block("input_pair", "diff_pair", style="nmos_pair"))
    hierarchy.add_child(Block("loads", "current_source_loads", style="pmos"))
    hierarchy.add_child(
        Block("tail_mirror", "current_mirror", style=state.get("mirror_tail").style)
    )
    hierarchy.add_child(Block("cmfb", "cmfb_loop", style="resistor_sense_aux_amp"))
    hierarchy.add_child(Block("bias", "bias_network", style="nmos_master"))

    return DesignedFdOpAmp(
        spec=spec,
        process=process,
        performance=dict(state.get("performance")),
        area=state.get("area"),
        hierarchy=hierarchy,
        emit=_make_emitter(state),
        trace=trace,
    )


def verify_fd_opamp(amp: DesignedFdOpAmp) -> Dict[str, float]:
    """Measure the fully differential amplifier with the simulator.

    Returns:
        ``{"gain_db"``: differential DC gain;
        ``"cm_gain_db"``: common-mode DC gain (should be far below the
        differential gain thanks to the CMFB);
        ``"output_cm_error_v"``: how far the CMFB holds the output
        common mode from its mid-supply target``}``.
    """
    builder = CircuitBuilder("fd_tb", amp.process)
    builder.supplies()
    builder.vsource("inp", "inp", "0", dc=0.0, ac=0.5)
    builder.vsource("inn", "inn", "0", dc=0.0, ac=-0.5)
    builder.capacitor("loadp", "outp", "0", amp.spec.load_capacitance)
    builder.capacitor("loadn", "outn", "0", amp.spec.load_capacitance)
    amp.emit(builder, "inp", "inn", "outp", "outn")
    circuit = builder.build()

    op = operating_point(circuit, amp.process)
    cm_error = 0.5 * (op.voltage("outp") + op.voltage("outn"))

    freqs = [10.0]
    ac_dm = ac_analysis(circuit, amp.process, op, freqs)
    v_dm = abs(ac_dm.voltage("outp")[0] - ac_dm.voltage("outn")[0])
    ac_cm = ac_analysis(
        circuit, amp.process, op, freqs, source_overrides={"vinp": 1.0, "vinn": 1.0}
    )
    v_cm = abs(ac_cm.voltage("outp")[0] + ac_cm.voltage("outn")[0]) / 2.0

    return {
        "gain_db": db20(max(v_dm, 1e-12)),
        "cm_gain_db": db20(max(v_cm, 1e-12)),
        "output_cm_error_v": cm_error,
    }
