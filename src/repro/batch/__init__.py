"""Parallel batch synthesis over spec grids, corners and test cases.

The 1987 prototype synthesizes one op amp per invocation; real use of
such a framework is *bulk* -- characterization sweeps, dataset
generation, corner grids.  This package adds that workload tier:

* :mod:`repro.batch.grid` -- the task model: specs x corners x run
  options expanded into a flat, deterministic, picklable task list
  (``--sweep gain=60:80:5`` parsing, JSON grid files);
* :mod:`repro.batch.engine` -- the execution engine: a process pool
  with streaming results, crash retry, per-task budgets, optional
  result caching (:mod:`repro.cache`) and per-worker metrics merged
  into the parent's tracer.

Library use::

    from repro.batch import synthesize_many
    from repro.process import generic_2um

    results = synthesize_many([spec_a, spec_b], generic_2um(),
                              corners=("typical", "slow"), jobs=4,
                              use_cache=True)
    for r in results:                     # grid order, always
        print(r.label, r.ok, r.record["design"]["area_m2"])

CLI use: ``repro batch --testcase A --sweep gain=60:80:5 --jobs 4
--cache --out results.jsonl`` (see ``repro batch --help``).

Importing the package loads no submodule: each exported name imports
the submodule that defines it on first use, so building and running a
grid loads no simulator until a task verifies or a caller asks for
:func:`~repro.batch.corners.corner_operating_points`.
"""

from importlib import import_module
from typing import Any

#: Exported name -> the submodule that defines it, imported on first use.
_EXPORTS = {
    "BatchTask": ".grid",
    "BatchResult": ".engine",
    "VOLATILE_KEYS": ".engine",
    "CORNERS": ".grid",
    "SWEEP_FIELDS": ".grid",
    "parse_sweep": ".grid",
    "sweep_values": ".grid",
    "expand_sweeps": ".grid",
    "build_tasks": ".grid",
    "grid_from_config": ".grid",
    "load_grid": ".grid",
    "run_batch": ".engine",
    "synthesize_many": ".engine",
    "default_jobs": ".engine",
    "corner_operating_points": ".corners",
}


def __getattr__(name: str) -> Any:
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(_EXPORTS[name], __name__), name)


__all__ = list(_EXPORTS)
