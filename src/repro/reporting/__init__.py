"""Report generators that regenerate the paper's tables and figures.

* :mod:`repro.reporting.table` -- plain-text tables (Table 1, Table 2);
* :mod:`repro.reporting.gainphase` -- the Figure 6 gain-phase data/plot;
* :mod:`repro.reporting.area_gain` -- the Figure 7 area-versus-gain
  sweep with topology-change points.

Importing the package loads no submodule: each exported name imports
the submodule that defines it on first use, so the tables load no
simulator.
"""

from importlib import import_module
from typing import Any

#: Exported name -> the submodule that defines it, imported on first use.
_EXPORTS = {
    "render_table": ".table",
    "table1_report": ".table",
    "table2_report": ".table",
    "GainPhasePoint": ".gainphase",
    "gain_phase_series": ".gainphase",
    "render_gain_phase": ".gainphase",
    "AreaGainPoint": ".area_gain",
    "area_gain_sweep": ".area_gain",
    "render_area_gain": ".area_gain",
}


def __getattr__(name: str) -> Any:
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(_EXPORTS[name], __name__), name)


__all__ = list(_EXPORTS)
