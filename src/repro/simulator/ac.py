"""Small-signal AC analysis.

Linearises every MOSFET at a converged DC operating point and solves the
complex MNA system over a frequency grid.  This is the machinery behind
the paper's Figure 6 (gain-phase plot of a synthesized op amp).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from ..circuit.elements import GROUND
from ..circuit.netlist import Circuit
from ..errors import SimulationError
from ..obs.spans import count as metric_count
from ..obs.spans import span as obs_span
from ..process.parameters import ProcessParameters
from .mna import MnaSystem, OperatingPointResult

__all__ = ["ACResult", "ac_analysis", "log_frequencies"]


@dataclass
class ACResult:
    """Result of an AC sweep.

    Attributes:
        frequencies: hertz, ascending.
        phasors: node name -> complex array aligned with ``frequencies``.
    """

    frequencies: np.ndarray
    phasors: Dict[str, np.ndarray]

    def voltage(self, node: str) -> np.ndarray:
        if node == GROUND:
            return np.zeros_like(self.frequencies, dtype=complex)
        try:
            return self.phasors[node]
        except KeyError:
            raise SimulationError(f"no node named {node!r} in AC result") from None

    def transfer(self, output: str, reference: Optional[str] = None) -> np.ndarray:
        """Complex transfer function V(output) [/ V(reference)]."""
        out = self.voltage(output)
        if reference is None:
            return out
        ref = self.voltage(reference)
        safe = np.where(np.abs(ref) > 0, ref, np.nan)
        return out / safe

    def magnitude_db(self, node: str) -> np.ndarray:
        magnitude = np.abs(self.voltage(node))
        with np.errstate(divide="ignore"):
            return 20.0 * np.log10(magnitude)

    def phase_deg(self, node: str, unwrap: bool = True) -> np.ndarray:
        angles = np.angle(self.voltage(node))
        if unwrap:
            angles = np.unwrap(angles)
        return np.degrees(angles)


def log_frequencies(start: float, stop: float, points_per_decade: int = 20) -> np.ndarray:
    """Logarithmic frequency grid, hertz."""
    if start <= 0 or stop <= start:
        raise SimulationError(f"bad frequency range [{start}, {stop}]")
    decades = np.log10(stop / start)
    count = max(2, int(round(decades * points_per_decade)) + 1)
    return np.logspace(np.log10(start), np.log10(stop), count)


def ac_analysis(
    circuit: Circuit,
    process: ProcessParameters,
    op: OperatingPointResult,
    frequencies: Sequence[float],
    source_overrides: Optional[Dict[str, complex]] = None,
    strict: bool = False,
) -> ACResult:
    """Run an AC sweep around the given operating point.

    Args:
        circuit / process: as for the DC solve (must be the same pair used
            to produce ``op``).
        op: converged operating point supplying device linearisations.
        frequencies: sweep points, hertz.
        source_overrides: optional map of source name -> complex AC value,
            overriding the netlist ``ac`` fields (lets CMRR/PSRR analyses
            re-excite the same circuit without editing it).
        strict: additionally run the full ERC lint pass and raise
            :class:`~repro.errors.LintError` on any error-severity
            finding before assembling the AC system.

    Returns:
        :class:`ACResult` with a phasor array per node.
    """
    if strict:
        from ..lint import assert_erc_clean  # local: avoid import cycle

        assert_erc_clean(circuit, process=process, context="ac_analysis")
    system = MnaSystem(circuit, process)
    freqs = np.asarray(list(frequencies), dtype=float)
    if freqs.size == 0 or np.any(freqs <= 0):
        raise SimulationError("AC sweep needs positive frequencies")
    with obs_span(
        f"ac:{circuit.name}", category="sim", points=int(freqs.size)
    ):
        solution = system.solve_ac(
            freqs, op.device_ops, system.stamp_plan.ac_rhs(source_overrides)
        )
        metric_count("ac.analyses")
        metric_count("ac.points", n=int(freqs.size))
        metric_count("ac.lu_solves", n=int(freqs.size))
    phasors = {
        node: solution[:, index] for node, index in system.node_index.items()
    }
    return ACResult(frequencies=freqs, phasors=phasors)

