"""Output oracle: what each workload's operations must return.

``bench/reference.json`` pins the simulator measurements of the paper's
A/B/C designs (with tolerances), each ``cli`` command's exit code and
output marker, and the count of ``ok`` sweep records at the default
seed.  The A/B/C designs themselves are compared byte for byte with
``tests/golden/case_*.json``.

Regenerate the measured numbers (after a change that is meant to move
them) with ``python -m bench.oracle --update``.
"""

from __future__ import annotations

import json
import math
import sys
from typing import Any, Dict, List, Mapping, Optional

from .common import ROOT, use_source_tree

REFERENCE = ROOT / "bench" / "reference.json"
GOLDEN = ROOT / "tests" / "golden"

#: Measured keys every verified design must report.
REQUIRED_MEASURED = (
    "gain_db",
    "offset_mv",
    "output_swing",
    "phase_margin_deg",
    "power",
    "slew_rate",
    "unity_gain_hz",
)


def load_reference() -> Dict[str, Any]:
    with open(REFERENCE, encoding="utf-8") as handle:
        data: Dict[str, Any] = json.load(handle)
    return data


def golden_design(label: str) -> str:
    return (GOLDEN / f"case_{label}.json").read_text(encoding="utf-8")


def check_cli(
    reference: Mapping[str, Any], name: str, code: int, stdout: str
) -> List[str]:
    expected = reference["cli"][name]
    problems = []
    if code != expected["exit"]:
        problems.append(f"{name}: exit {code}, expected {expected['exit']}")
    if expected["marker"] not in stdout:
        problems.append(f"{name}: output lacks {expected['marker']!r}")
    return problems


def _within(key: str, got: float, want: float, tolerance: Mapping[str, Any]) -> bool:
    rule = tolerance.get(key, tolerance["default"])
    if "abs" in rule:
        return abs(got - want) <= rule["abs"]
    return abs(got - want) <= rule["rel"] * abs(want)


def check_measured(
    reference: Mapping[str, Any],
    label: Optional[str],
    measured: Mapping[str, float],
    notes: Mapping[str, str],
) -> List[str]:
    """Every required key present and finite, no failed analysis, and --
    for an exact paper case ``label`` -- every pinned value in tolerance."""
    problems = [f"verify note {key}: {note}" for key, note in notes.items()]
    for key in REQUIRED_MEASURED:
        value = measured.get(key)
        if value is None or not math.isfinite(value):
            problems.append(f"measured {key} missing or not finite: {value}")
    if label is None:
        return problems
    pinned = reference["verify"]["measured"][label]
    tolerance = reference["verify"]["tolerance"]
    for key, want in pinned.items():
        got = measured.get(key)
        if got is None or not _within(key, float(got), want, tolerance):
            problems.append(f"case {label} {key}: got {got}, pinned {want}")
    return problems


# ----------------------------------------------------------------------
# Regeneration
# ----------------------------------------------------------------------
def _measure_cases() -> Dict[str, Dict[str, float]]:
    from repro.opamp.designer import synthesize
    from repro.opamp.verify import verify_opamp
    from repro.process import builtin_processes

    from .workloads import BASE_SPECS, PROCESS, spec_from

    process = builtin_processes()[PROCESS]
    out = {}
    for label, fields in sorted(BASE_SPECS.items()):
        report = verify_opamp(synthesize(spec_from(fields), process).best)
        out[label] = {k: float(v) for k, v in sorted(report.measured.items())}
    return out


def update() -> None:
    use_source_tree()
    from .workloads import sweep_prefix_ok

    reference = load_reference()
    reference["verify"]["measured"] = _measure_cases()
    sweep = reference["sweep"]
    sweep["ok"] = sweep_prefix_ok(sweep["seed"], sweep["prefix"])
    REFERENCE.write_text(json.dumps(reference, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: python -m bench.oracle --update")
    update()
