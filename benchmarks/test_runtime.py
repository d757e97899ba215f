"""Section 4.3 CPU time: "usually under 2 minutes of CPU time per op amp"
on a 1987 VAX 11/785.

Times the complete synthesis (breadth-first selection over both styles,
plans, rules, netlist emission) of each test case.  The reproduction
must come in orders of magnitude under the paper's budget on modern
hardware -- we assert an aggressive 5 s per amp.  Per-layer timings of
the same work are the repo benchmark's job (``python -m bench``).
"""

import time

from repro import CMOS_5UM, synthesize
from repro.opamp.testcases import paper_test_cases


def _synthesize_all():
    timings = {}
    for label, spec in paper_test_cases().items():
        start = time.perf_counter()
        result = synthesize(spec, CMOS_5UM, observe=True)
        timings[label] = (time.perf_counter() - start, result)
    return timings


def test_runtime_per_opamp(once, benchmark):
    timings = once(benchmark, _synthesize_all)
    print()
    for label, (seconds, result) in timings.items():
        print(
            f"  case {label}: {seconds * 1e3:7.1f} ms "
            f"({result.style}, {len(result.trace)} trace events, "
            f"{len(result.report.spans)} spans)"
        )
        # The paper's budget was 120 s of VAX CPU; demand < 5 s here.
        assert seconds < 5.0
