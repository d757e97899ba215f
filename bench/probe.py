"""Probe processes: the program, started fresh, seen from inside.

Run from the repository root as ``python -m bench.probe KIND ...``:

* ``coldstart WORKLOAD`` -- import ``repro`` and run one warm-up
  operation of an in-process workload (``verify`` or ``sweep``), then
  exit.  Timed from outside, this is one ``setup_s`` sample.
* ``cli ARGV...`` -- run ``repro.cli.main(ARGV)`` with the layer
  wrappers installed and a tracer active; print one JSON line with the
  exit code, the command's output and the per-layer numbers.
* ``serve ARGV...`` -- run ``repro.cli.main(["serve", *ARGV])`` with
  the layer wrappers installed; every synthesis record the worker
  returns carries that request's layer times under :data:`LAYERS_KEY`.

Under ``python -X importtime`` the import lines after :data:`MARKER`
on standard error are the program's own.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import sys
from typing import Any, Dict, List

from .common import use_source_tree
from .layers import LayerClock, difference

MARKER = "bench.probe: program starts\n"
#: Record key under which a traced server's worker returns the layer
#: times of one request.
LAYERS_KEY = "bench_layers"


def _coldstart(workload: str) -> int:
    import repro  # noqa: F401 - the import is what is being timed

    from .workloads import warm_up

    warm_up(workload)
    return 0


def _cli(argv: List[str]) -> int:
    import repro.cli
    from repro.obs import Tracer

    clock = LayerClock()
    tracer = Tracer()
    out = io.StringIO()
    with clock, tracer.activate(), contextlib.redirect_stdout(out):
        code = repro.cli.main(argv)
    print(
        json.dumps(
            {
                "exit": code,
                "stdout": out.getvalue(),
                "layers": clock.snapshot(),
                "counters": tracer.metrics.snapshot()["counters"],
                "spans": [s.to_dict() for s in tracer.spans_by_start()],
            }
        )
    )
    return 0


def _serve(argv: List[str]) -> int:
    import repro.cli
    from repro.serve import jobs

    clock = LayerClock()
    run_synth_task = jobs.run_synth_task

    @functools.wraps(run_synth_task)
    def measured(task: Any) -> Dict[str, Any]:
        before = clock.snapshot()
        record = run_synth_task(task)
        record[LAYERS_KEY] = difference(clock.snapshot(), before)
        return record

    # The pool forks its worker after this point, so the worker runs
    # the wrapped job function and the wrapped layers.
    with clock:
        jobs.run_synth_task = measured
        try:
            return repro.cli.main(["serve", *argv])
        finally:
            jobs.run_synth_task = run_synth_task


def main(argv: List[str]) -> int:
    if not argv or argv[0] not in ("coldstart", "cli", "serve"):
        print("usage: python -m bench.probe coldstart|cli|serve ...", file=sys.stderr)
        return 2
    use_source_tree()
    if argv[0] == "coldstart":
        from . import workloads  # noqa: F401 - loaded before the program's imports
    sys.stderr.write(MARKER)
    sys.stderr.flush()
    kind, rest = argv[0], argv[1:]
    if kind == "coldstart":
        return _coldstart(rest[0])
    if kind == "cli":
        return _cli(rest)
    return _serve(rest)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
