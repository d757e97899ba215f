"""Small-signal noise analysis.

"Input noise" is one of the performance parameters the paper names in
Section 2.1; this module measures it.  Around a converged operating
point, every noisy element contributes a current-noise source between
two nodes:

* MOSFET channel thermal noise: ``S_id = 4 k T (2/3) gm`` between drain
  and source;
* MOSFET flicker noise: gate-referred PSD ``kf / (Cox W L f)``, injected
  as ``gm^2``-scaled drain current noise;
* resistor thermal noise: ``S_i = 4 k T / R``.

The complex MNA matrix is factored once per analysis frequency and all
noise sources are solved as one multi-RHS system
(:meth:`~repro.simulator.mna.MnaSystem.solve_ac`); the output PSD is
the incoherent sum ``sum_k |H_k(f)|^2 S_k(f)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from ..circuit.elements import Mosfet, Resistor
from ..circuit.netlist import Circuit
from ..errors import SimulationError
from ..process.parameters import ProcessParameters
from .mna import MnaSystem, OperatingPointResult

__all__ = ["NoiseResult", "noise_analysis"]

#: Boltzmann constant times 300 K, joules.
KT = 1.380649e-23 * 300.0


@dataclass
class NoiseResult:
    """Output-referred noise over a frequency grid.

    Attributes:
        frequencies: hertz, ascending.
        output_psd: total output noise PSD, V^2/Hz, per frequency.
        contributions: element name -> its share of the output PSD.
    """

    frequencies: np.ndarray
    output_psd: np.ndarray
    contributions: Dict[str, np.ndarray]

    def input_referred_density(self, gain_magnitude: np.ndarray) -> np.ndarray:
        """Input-referred density given |H(f)| of the signal path."""
        gain_magnitude = np.asarray(gain_magnitude, dtype=float)
        if gain_magnitude.shape != self.output_psd.shape:
            raise SimulationError("gain array shape mismatch")
        safe = np.where(gain_magnitude > 0, gain_magnitude, np.nan)
        return np.sqrt(self.output_psd) / safe

    def dominant_contributor(self, index: int = 0) -> str:
        """Element contributing most output noise at a frequency index."""
        return max(self.contributions, key=lambda k: self.contributions[k][index])

    def integrated_output_rms(self) -> float:
        """Total RMS output noise integrated across the swept band, volts
        (trapezoidal in linear frequency)."""
        trapezoid = getattr(np, "trapezoid", None) or np.trapz
        return float(np.sqrt(trapezoid(self.output_psd, self.frequencies)))


def noise_analysis(
    circuit: Circuit,
    process: ProcessParameters,
    op: OperatingPointResult,
    frequencies: Sequence[float],
    output_node: str,
) -> NoiseResult:
    """Compute output-referred noise at ``output_node``.

    Args:
        circuit / process: as for the AC analysis.
        op: converged DC operating point.
        frequencies: analysis grid, hertz.
        output_node: node whose voltage noise is reported.

    Returns:
        :class:`NoiseResult`.
    """
    system = MnaSystem(circuit, process)
    freqs = np.asarray(list(frequencies), dtype=float)
    if freqs.size == 0 or np.any(freqs <= 0):
        raise SimulationError("noise analysis needs positive frequencies")
    out_index = system.index_of(output_node)
    if out_index < 0:
        raise SimulationError(f"cannot report noise at ground ({output_node!r})")

    # Collect the noise branches: (name, node_a, node_b, white PSD,
    # flicker gain).  PSD at f is ``s_thermal + flicker_gain / f``.
    branches = []
    for element in circuit.elements:
        if isinstance(element, Resistor):
            branches.append(
                (
                    element.name,
                    system.index_of(element.node_a),
                    system.index_of(element.node_b),
                    4.0 * KT / element.resistance,
                    0.0,
                )
            )
        elif isinstance(element, Mosfet):
            name = element.name.lower()
            device_op = op.device_ops.get(name)
            if device_op is None:
                raise SimulationError(f"device {element.name} missing from OP")
            gm = abs(device_op.gm)
            model = system.models[name]
            params = model.params
            s_thermal = 4.0 * KT * (2.0 / 3.0) * gm
            flicker_gain = 0.0
            if params.kf > 0.0:
                c_gate = process.cox * model.width * model.length
                flicker_gain = params.kf * gm * gm / c_gate
            branches.append(
                (
                    element.name,
                    system.index_of(element.drain),
                    system.index_of(element.source),
                    s_thermal,
                    flicker_gain,
                )
            )

    if not branches:
        raise SimulationError("circuit has no noisy elements")

    # One RHS column per noise branch: unit current from node_a to
    # node_b (entering b, leaving a).  Frequency-independent.
    rhs = np.zeros((system.size, len(branches)), dtype=complex)
    for col, (_name, a, b, _st, _fl) in enumerate(branches):
        if a >= 0:
            rhs[a, col] -= 1.0
        if b >= 0:
            rhs[b, col] += 1.0

    # transfer[k, col]: output-node response to branch col at freqs[k].
    transfer = system.solve_ac(freqs, op.device_ops, rhs)[:, out_index, :]

    total = np.zeros(freqs.size)
    contributions = {}
    for col, (name, _a, _b, s_thermal, flicker_gain) in enumerate(branches):
        share = (np.abs(transfer[:, col]) ** 2) * (
            s_thermal + flicker_gain / freqs
        )
        contributions[name] = share
        total += share

    return NoiseResult(frequencies=freqs, output_psd=total, contributions=contributions)

