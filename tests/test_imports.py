"""Each command loads only what it runs.

Synthesis and lint never simulate, so they must not import the
simulator, numpy or networkx; verification loads the simulator on first
use.  Each command loads only the lint passes it runs: synthesis needs
ERC alone, for ``Circuit.validate``.  Each check runs in a fresh
interpreter so ``sys.modules`` starts empty.
"""

import json

import pytest

from .test_determinism import ROOT, _run

#: Runs ``repro.cli.main`` on argv and prints the heavy modules and the
#: lint submodules it loaded.
COMMAND_SCRIPT = """
import contextlib, io, json, sys
from repro.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    main(sys.argv[1:])
print(json.dumps([
    sorted(
        m for m in sys.modules
        if m.split('.')[0] in ('networkx', 'numpy')
        or m.startswith('repro.simulator')
    ),
    sorted(m[len('repro.lint.'):] for m in sys.modules if m.startswith('repro.lint.')),
]))
"""

OTA_DECK = str(ROOT / "tests" / "fixtures" / "ota_5t.sp")


def _loaded(*argv: str) -> list:
    return json.loads(_run(COMMAND_SCRIPT, "0", *argv))


def _heavy_modules(*argv: str) -> list:
    return _loaded(*argv)[0]


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


@pytest.mark.parametrize(
    "argv",
    [("synth", "--testcase", "A"), ("synth", "--testcase", "A", "--verify")],
    ids=["synth", "synth-verify"],
)
def test_synth_loads_erc_only(argv):
    assert _loaded(*argv)[1] == ["diagnostics", "erc", "registry"]


@pytest.mark.parametrize(
    "argv, unused",
    [
        (
            ("lint", OTA_DECK, "--topology"),
            {"absint", "feasibility", "dataflow", "units", "oracle"},
        ),
        (
            ("lint", "--self-check", "--dataflow", "--units"),
            {"absint", "feasibility", "topology", "motifs", "constraints", "oracle"},
        ),
    ],
    ids=["lint-topology", "lint-self-check"],
)
def test_lint_loads_only_its_passes(argv, unused):
    assert not unused & set(_loaded(*argv)[1])


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
        "import importlib, repro.lint\n"
        "from repro.lint import oracle\n"
        "for n in repro.lint.__all__:\n"
        "    module = importlib.import_module(repro.lint._EXPORTS[n], 'repro.lint')\n"
        "    assert getattr(repro.lint, n) is getattr(module, n), n\n"
        "assert not set(oracle.__all__) & set(repro.lint.__all__)\n"
        "try:\n"
        "    repro.lint.no_such_name\n"
        "except AttributeError:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('repro.lint.no_such_name resolved')\n"
        "try:\n"
        "    repro.no_such_name\n"
        "except AttributeError:\n"
        "    print('ok')\n"
    )
    assert _run(script, "0").strip() == "ok"
