"""OASYS op amp synthesis (Section 4) -- the paper's core contribution.

Two op amp design styles are understood, exactly as in the prototype:

* a one-stage operational transconductance amplifier
  (:mod:`repro.opamp.ota_onestage` -- the symmetrical, three-mirror OTA);
* a two-stage unbuffered (Miller-compensated) amplifier
  (:mod:`repro.opamp.twostage`), whose plan owns the feedback
  compensation design one level above the sub-blocks.

:func:`~repro.opamp.designer.synthesize` runs breadth-first design-style
selection over both templates and picks the feasible design with the
smallest estimated area (active devices plus compensation capacitor).
:mod:`repro.opamp.verify` measures a synthesized amplifier with the
in-repo simulator, standing in for the paper's SPICE verification.
The names that need the simulator load it on first use, so importing
this package loads synthesis only.
"""

from importlib import import_module
from typing import Any

from .result import DesignedOpAmp, SynthesisResult
from .compensation import CompensationDesign, design_compensation
from .designer import EXTENDED_STYLES, OPAMP_STYLES, design_style, synthesize

#: Exported name -> the module that defines it, imported on first use.
_SIMULATING = {
    "verify_opamp": ".verify",
    "measure_rejection": ".verify",
    "measure_input_noise": ".verify",
    "input_noise_spectrum": ".verify",
    "VerificationReport": ".verify",
    "DesignedFdOpAmp": ".fully_differential",
    "design_fully_differential": ".fully_differential",
    "verify_fd_opamp": ".fully_differential",
}


def __getattr__(name: str) -> Any:
    if name not in _SIMULATING:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(_SIMULATING[name], __name__), name)


__all__ = [
    "DesignedOpAmp",
    "SynthesisResult",
    "CompensationDesign",
    "design_compensation",
    "synthesize",
    "design_style",
    "OPAMP_STYLES",
    "EXTENDED_STYLES",
    "verify_opamp",
    "measure_rejection",
    "measure_input_noise",
    "input_noise_spectrum",
    "VerificationReport",
    "DesignedFdOpAmp",
    "design_fully_differential",
    "verify_fd_opamp",
]
