"""OASYS reproduction: knowledge-based analog circuit synthesis.

A from-scratch Python reproduction of R. Harjani, R. A. Rutenbar and
L. R. Carley, "A Prototype Framework for Knowledge-Based Analog Circuit
Synthesis", DAC 1987 -- the OASYS system -- together with every substrate
it needs: process descriptions, level-1 device models, a netlist layer,
an MNA circuit simulator, the plan/rule knowledge-base framework,
reusable sub-block designers, and the one-stage / two-stage CMOS op amp
synthesis plans.

Quickstart::

    from repro import OpAmpSpec, synthesize, CMOS_5UM

    spec = OpAmpSpec(gain_db=65, unity_gain_hz=1e6, phase_margin_deg=60,
                     slew_rate=2e6, load_capacitance=10e-12,
                     output_swing=3.0)
    result = synthesize(spec, CMOS_5UM)
    print(result.summary())

Importing the package loads no submodule: each exported name imports
its module on first use, so ``repro.synthesize`` loads synthesis only
and ``repro.verify_opamp`` loads the simulator.
"""

from importlib import import_module
from typing import Any

#: Exported name -> the module it is imported from, on first use.
_EXPORTS = {
    # errors
    "ReproError": ".errors",
    "UnitError": ".errors",
    "TechnologyError": ".errors",
    "SpecificationError": ".errors",
    "NetlistError": ".errors",
    "SimulationError": ".errors",
    "ConvergenceError": ".errors",
    "SynthesisError": ".errors",
    "PlanError": ".errors",
    # process
    "DeviceParams": ".process",
    "ProcessParameters": ".process",
    "load_technology": ".process",
    "loads_technology": ".process",
    "dump_technology": ".process",
    "CMOS_5UM": ".process",
    "CMOS_3UM": ".process",
    "CMOS_1P2UM": ".process",
    "builtin_processes": ".process",
    # circuit
    "Circuit": ".circuit",
    "CircuitBuilder": ".circuit",
    "to_spice": ".circuit",
    "schematic_report": ".circuit",
    # kb
    "OpAmpSpec": ".kb",
    "Specification": ".kb",
    "SpecEntry": ".kb",
    "SpecKind": ".kb",
    "Block": ".kb",
    "DesignState": ".kb",
    "DesignTrace": ".kb",
    "Plan": ".kb",
    "PlanStep": ".kb",
    "PlanExecutor": ".kb",
    "Rule": ".kb",
    # opamp
    "synthesize": ".opamp",
    "verify_opamp": ".opamp.verify",
    "measure_rejection": ".opamp.verify",
    "DesignedOpAmp": ".opamp",
    "SynthesisResult": ".opamp",
    "VerificationReport": ".opamp.verify",
    "OPAMP_STYLES": ".opamp",
    "EXTENDED_STYLES": ".opamp",
    # applications
    "ClosedLoopSpec": ".applications.closed_loop",
    "design_closed_loop_amp": ".applications.closed_loop",
    "verify_closed_loop": ".applications.closed_loop",
}


def __getattr__(name: str) -> Any:
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(_EXPORTS[name], __name__), name)


__all__ = list(_EXPORTS)

__version__ = "1.0.0"
