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

Importing the package loads synthesis only: the names that need the
simulator (verification and the closed-loop application) load it on
first use.
"""

from importlib import import_module
from typing import Any

from .errors import (
    ConvergenceError,
    NetlistError,
    PlanError,
    ReproError,
    SimulationError,
    SpecificationError,
    SynthesisError,
    TechnologyError,
    UnitError,
)
from .process import (
    CMOS_1P2UM,
    CMOS_3UM,
    CMOS_5UM,
    DeviceParams,
    ProcessParameters,
    builtin_processes,
    dump_technology,
    load_technology,
    loads_technology,
)
from .circuit import Circuit, CircuitBuilder, schematic_report, to_spice
from .kb import (
    Block,
    DesignState,
    DesignTrace,
    OpAmpSpec,
    Plan,
    PlanExecutor,
    PlanStep,
    Rule,
    SpecEntry,
    SpecKind,
    Specification,
)
from .opamp import (
    EXTENDED_STYLES,
    OPAMP_STYLES,
    DesignedOpAmp,
    SynthesisResult,
    synthesize,
)

#: Exported name -> the module that defines it, imported on first use.
_SIMULATING = {
    "verify_opamp": ".opamp.verify",
    "measure_rejection": ".opamp.verify",
    "VerificationReport": ".opamp.verify",
    "ClosedLoopSpec": ".applications.closed_loop",
    "design_closed_loop_amp": ".applications.closed_loop",
    "verify_closed_loop": ".applications.closed_loop",
}


def __getattr__(name: str) -> Any:
    if name not in _SIMULATING:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(_SIMULATING[name], __name__), name)


__all__ = [
    # errors
    "ReproError",
    "UnitError",
    "TechnologyError",
    "SpecificationError",
    "NetlistError",
    "SimulationError",
    "ConvergenceError",
    "SynthesisError",
    "PlanError",
    # process
    "DeviceParams",
    "ProcessParameters",
    "load_technology",
    "loads_technology",
    "dump_technology",
    "CMOS_5UM",
    "CMOS_3UM",
    "CMOS_1P2UM",
    "builtin_processes",
    # circuit
    "Circuit",
    "CircuitBuilder",
    "to_spice",
    "schematic_report",
    # kb
    "OpAmpSpec",
    "Specification",
    "SpecEntry",
    "SpecKind",
    "Block",
    "DesignState",
    "DesignTrace",
    "Plan",
    "PlanStep",
    "PlanExecutor",
    "Rule",
    # opamp
    "synthesize",
    "verify_opamp",
    "measure_rejection",
    "DesignedOpAmp",
    "SynthesisResult",
    "VerificationReport",
    "OPAMP_STYLES",
    "EXTENDED_STYLES",
    # applications
    "ClosedLoopSpec",
    "design_closed_loop_amp",
    "verify_closed_loop",
]

__version__ = "1.0.0"
