"""Determinism under hash randomization.

Python randomizes ``hash(str)`` per process (``PYTHONHASHSEED``), so
any code path that iterates a set or relies on dict-of-set ordering can
silently produce run-dependent output.  The repo's contract is stronger:
**the same inputs produce the same bytes in every process**, because
golden files, content-addressed cache keys and batch reruns all compare
bytes across process boundaries.

These tests launch fresh interpreters under different hash seeds and
compare their output byte-for-byte: the sized-schematic record, the
cache keys, and the abstract-interpretation report (whose widening loop
once iterated a set union -- see ``_widen_state`` in
``repro/lint/absint.py``).
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
SRC = str(ROOT / "src")

RECORD_SCRIPT = """
import sys
from repro.opamp.designer import synthesize
from repro.opamp.testcases import paper_test_cases
from repro.process import CMOS_5UM
spec = paper_test_cases()[sys.argv[1]]
sys.stdout.write(synthesize(spec, CMOS_5UM).best.record_json())
"""

KEYS_SCRIPT = """
import sys
from repro.cache import kb_fingerprint, process_key, spec_key
from repro.opamp.testcases import paper_test_cases
from repro.process import CMOS_5UM
for label, spec in sorted(paper_test_cases().items()):
    print(label, spec_key(spec))
print("process", process_key(CMOS_5UM))
print("kb", kb_fingerprint())
"""

ANALYZE_SCRIPT = """
from repro.lint import render_analysis
from repro.opamp.testcases import paper_test_cases
from repro.process import CMOS_5UM
spec = paper_test_cases()["A"]
print(render_analysis(spec, process=CMOS_5UM, corner=0.05))
"""

TOPOLOGY_SCRIPT = """
import sys
from repro.lint import analyze_topology
from repro.opamp.designer import synthesize
from repro.opamp.testcases import paper_test_cases
from repro.process import CMOS_5UM
spec = paper_test_cases()[sys.argv[1]]
circuit = synthesize(spec, CMOS_5UM).best.standalone_circuit()
analysis = analyze_topology(circuit)
sys.stdout.write(analysis.to_json())
sys.stdout.write(analysis.constraints.to_json())
"""


OP_SCRIPT = """
import json
import sys
from repro.opamp.designer import synthesize
from repro.opamp.testcases import paper_test_cases
from repro.process import CMOS_5UM
from repro.simulator import operating_point
spec = paper_test_cases()[sys.argv[1]]
circuit = synthesize(spec, CMOS_5UM).best.standalone_circuit()
op = operating_point(circuit, CMOS_5UM)
record = {
    "voltages": op.voltages,
    "source_currents": op.source_currents,
    "iterations": op.iterations,
}
sys.stdout.write(json.dumps(record, indent=2, sort_keys=True))
"""


#: Runs the rest of the script on the scalar reference simulator.
REFERENCE_PRELUDE = """
from tests.numeric_reference import reference_backend
reference_backend().__enter__()
"""


def _run(
    script: str, seed: str, *argv: str, extra_env=None, prelude: str = ""
) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        (SRC, str(ROOT), env.get("PYTHONPATH", ""))
    )
    env["PYTHONHASHSEED"] = seed
    env.pop("REPRO_CACHE_DIR", None)
    env.pop("REPRO_FAULTS", None)
    env.pop("REPRO_LOG", None)
    if extra_env:
        env.update(extra_env)
    proc = subprocess.run(
        [sys.executable, "-c", prelude + script, *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


SEEDS = ("0", "12345")


class TestHashSeedIndependence:
    @pytest.mark.parametrize("label", ["A", "B"])
    def test_sized_schematic_bytes(self, label):
        outputs = [_run(RECORD_SCRIPT, seed, label) for seed in SEEDS]
        assert outputs[0] == outputs[1]
        assert outputs[0].strip().endswith("}")

    def test_cache_keys(self):
        outputs = [_run(KEYS_SCRIPT, seed) for seed in SEEDS]
        assert outputs[0] == outputs[1]
        assert "kb " in outputs[0]

    def test_abstract_interpretation_report(self):
        # Exercises the widening loop that iterates var-set unions.
        # The report embeds a wall-clock "elapsed=" figure; timing is
        # legitimately run-dependent, everything else must not be.
        import re

        def stable(text: str) -> str:
            return re.sub(r"elapsed=\S+ ms", "elapsed=X ms", text)

        outputs = [stable(_run(ANALYZE_SCRIPT, seed)) for seed in SEEDS]
        assert outputs[0] == outputs[1]

    def test_structured_logging_does_not_perturb_output(self, tmp_path):
        # Turning on structured logging must not change the produced
        # record: log lines go to REPRO_LOG, stdout stays byte-identical
        # to an unlogged run, across hash seeds.
        plain = _run(RECORD_SCRIPT, "0", "A")
        logged = []
        for seed in SEEDS:
            log_path = tmp_path / f"repro-{seed}.log"
            logged.append(
                _run(
                    RECORD_SCRIPT,
                    seed,
                    "A",
                    extra_env={
                        "REPRO_LOG": str(log_path),
                        "REPRO_LOG_LEVEL": "debug",
                    },
                )
            )
        assert logged[0] == logged[1] == plain

    @pytest.mark.parametrize("label", ["A", "C"])
    def test_topology_analysis_bytes(self, label):
        # Motif matching and canonicalization walk graph adjacency; the
        # emitted analysis and constraint JSON must not depend on the
        # interpreter's hash seed.
        outputs = [_run(TOPOLOGY_SCRIPT, seed, label) for seed in SEEDS]
        assert outputs[0] == outputs[1]
        assert '"fingerprint"' in outputs[0]
        assert '"symmetric_pairs"' in outputs[0]


class TestAssemblyBackendParity:
    """The vectorized numeric core is byte-invisible end to end.

    :func:`tests.numeric_reference.reference_backend` swaps every
    assembly and solve back to the scalar reference walk; a fresh
    interpreter on either backend (and either hash seed) must emit
    identical sized-schematic records and identical DC operating-point
    bytes.
    """

    @pytest.mark.parametrize("label", ["A", "B"])
    def test_record_bytes_backend_invariant(self, label):
        default = _run(RECORD_SCRIPT, "0", label)
        for seed in SEEDS:
            forced = _run(RECORD_SCRIPT, seed, label, prelude=REFERENCE_PRELUDE)
            assert forced == default

    @pytest.mark.parametrize("label", ["A", "C"])
    def test_operating_point_bytes_backend_invariant(self, label):
        default = _run(OP_SCRIPT, "0", label)
        assert '"iterations"' in default
        for seed in SEEDS:
            forced = _run(OP_SCRIPT, seed, label, prelude=REFERENCE_PRELUDE)
            assert forced == default
