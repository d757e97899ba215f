"""Each command loads only what it runs.

Synthesis and lint never simulate, so they must not import the
simulator, numpy or networkx; verification loads the simulator on first
use.  Each check runs in a fresh interpreter so ``sys.modules`` starts
empty.
"""

import json

import pytest

from .test_determinism import ROOT, _run

#: Runs ``repro.cli.main`` on argv and prints the heavy modules it loaded.
COMMAND_SCRIPT = """
import contextlib, io, json, sys
from repro.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    main(sys.argv[1:])
print(json.dumps(sorted(
    m for m in sys.modules
    if m.split('.')[0] in ('networkx', 'numpy') or m.startswith('repro.simulator')
)))
"""

OTA_DECK = str(ROOT / "tests" / "fixtures" / "ota_5t.sp")


def _heavy_modules(*argv: str) -> list:
    return json.loads(_run(COMMAND_SCRIPT, "0", *argv))


@pytest.mark.parametrize(
    "argv",
    [
        ("synth", "--testcase", "A"),
        ("lint", OTA_DECK, "--topology"),
        ("lint", "--self-check", "--dataflow", "--units"),
    ],
    ids=["synth", "lint-topology", "lint-self-check"],
)
def test_command_loads_no_simulator(argv):
    assert _heavy_modules(*argv) == []


def test_verify_loads_the_simulator():
    loaded = _heavy_modules("synth", "--testcase", "A", "--verify")
    assert "repro.simulator" in loaded
    assert "numpy" in loaded
    assert not any(m.split(".")[0] == "networkx" for m in loaded)


def test_lazy_names_resolve():
    script = (
        "import repro, repro.opamp\n"
        "namespace = {}\n"
        "exec('from repro import *', namespace)\n"
        "assert set(repro.__all__) <= set(namespace)\n"
        "assert all(getattr(repro.opamp, n) for n in repro.opamp.__all__)\n"
        "from repro.opamp.fully_differential import verify_fd_opamp\n"
        "assert repro.opamp.verify_fd_opamp is verify_fd_opamp\n"
        "assert namespace['verify_opamp'] is repro.opamp.verify_opamp\n"
        "try:\n"
        "    repro.no_such_name\n"
        "except AttributeError:\n"
        "    print('ok')\n"
    )
    assert _run(script, "0").strip() == "ok"
