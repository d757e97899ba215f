"""Corner-batched point evaluation for the batch layer.

:func:`corner_operating_points` is the batch-facing face of
:func:`repro.simulator.dc.stacked_operating_points`: given one
circuit and a base process, it expands the requested corner names via
:meth:`~repro.process.parameters.ProcessParameters.corner` (the same
expansion :func:`repro.batch.grid.build_tasks` applies to task grids)
and solves every corner's DC operating point as one Newton batch.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..circuit.netlist import Circuit
from ..errors import SpecificationError
from ..process.parameters import ProcessParameters
from ..simulator.dc import stacked_operating_points
from ..simulator.mna import OperatingPointResult
from .grid import CORNERS

__all__ = ["corner_operating_points"]


def corner_operating_points(
    circuit: Circuit,
    process: ProcessParameters,
    corners: Sequence[str] = CORNERS,
    initial_guess: Optional[Dict[str, float]] = None,
    max_iterations: int = 150,
) -> Dict[str, OperatingPointResult]:
    """All process corners of one circuit solved as one Newton batch.

    Args:
        circuit: the netlist, shared by every corner.
        process: base (typical) process; non-typical corners are
            derived with ``process.corner(name)``.
        corners: corner names, each one of :data:`repro.batch.CORNERS`.
        initial_guess / max_iterations: forwarded to the solver.

    Returns:
        corner name -> converged operating point, in ``corners`` order.
    """
    for corner in corners:
        if corner not in CORNERS:
            raise SpecificationError(
                f"unknown corner {corner!r} (have {list(CORNERS)})"
            )
    processes: Dict[str, ProcessParameters] = {
        corner: (process if corner == "typical" else process.corner(corner))
        for corner in corners
    }
    return stacked_operating_points(
        circuit,
        processes,
        initial_guess=initial_guess,
        max_iterations=max_iterations,
    )
