"""DC transfer sweeps (the machinery behind output-swing measurements):
one built system re-solved at each source value; a failed point is None.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..circuit.elements import CurrentSource, VoltageSource
from ..circuit.netlist import Circuit
from ..errors import ConvergenceError, SimulationError
from ..process.parameters import ProcessParameters
from .dc import operating_point
from .mna import MnaSystem, OperatingPointResult

__all__ = ["SweepResult", "dc_sweep"]


@dataclass
class SweepResult:
    """Result of a DC source sweep.

    Attributes:
        source: the swept source's name.
        values: swept source values (volts, or amps).
        points: one operating point per value, ``None`` where the solve
            did not converge (callers may treat it as out of range).
    """

    source: str
    values: np.ndarray
    points: List[Optional[OperatingPointResult]]

    def voltages(self, node: str) -> np.ndarray:
        """``node``'s voltage per point, NaN where the point failed."""
        return np.array(
            [np.nan if p is None else p.voltage(node) for p in self.points]
        )

    def __len__(self) -> int:
        return len(self.points)


def dc_sweep(
    circuit: Circuit,
    process: ProcessParameters,
    source_name: str,
    values: Sequence[float],
) -> SweepResult:
    """Sweep an independent source's value, re-solving the OP at each point.

    The circuit is validated and built once; each point warm-starts from
    the last converged one (continuation).  A point whose solve fails is
    recorded as ``None``.

    Raises:
        SimulationError: if ``source_name`` is not an independent source
            (NetlistError if no element has that name or the circuit is
            invalid).
    """
    if not isinstance(circuit[source_name], (VoltageSource, CurrentSource)):
        raise SimulationError(f"{source_name!r} is not an independent source")
    circuit.validate()
    system = MnaSystem(circuit, process)

    points: List[Optional[OperatingPointResult]] = []
    guess: Dict[str, float] = {}
    swept = np.asarray(list(values), dtype=float)
    for value in swept:
        try:
            op = operating_point(
                system, process, initial_guess=guess, source_values={source_name: value}
            )
        except ConvergenceError:
            op = None
        else:
            guess = dict(op.voltages)
        points.append(op)
    return SweepResult(source=source_name, values=swept, points=points)
