"""Each command loads only what it runs.

Synthesis, lint, batch and the service never simulate, so they must not
import the simulator, numpy or networkx; verification loads the
simulator on first use.  Each command loads only the lint passes it
runs: synthesis needs ERC alone, for ``Circuit.validate``, and a deck
lint loads no knowledge base.  ``--version`` loads the CLI and nothing
it does not print.  Each check runs in a fresh interpreter so
``sys.modules`` starts empty.
"""

import json

import pytest

from .test_determinism import ROOT, _run

#: Prints the ``repro``, numpy and networkx modules loaded so far.
PRINT_LOADED = """
print(json.dumps(sorted(
    m for m in sys.modules if m.split('.')[0] in ('networkx', 'numpy', 'repro')
)))
"""

#: Runs ``repro.cli.main`` on argv, requires exit code 0 (a usage error
#: exits 2 and fails the run), then :data:`PRINT_LOADED`.
COMMAND_SCRIPT = """
import contextlib, io, json, sys
from repro.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(sys.argv[1:]) == 0
""" + PRINT_LOADED

#: Runs ``repro --version``, requires it to exit 0, then
#: :data:`PRINT_LOADED`.
VERSION_SCRIPT = """
import contextlib, io, json, sys
from repro.cli import main
try:
    with contextlib.redirect_stdout(io.StringIO()):
        main(["--version"])
except SystemExit as exit:
    assert exit.code == 0, exit.code
else:
    raise AssertionError("--version did not exit")
""" + PRINT_LOADED

#: Runs one case-A task through ``run_batch`` and through the service's
#: worker function (``verify`` from argv), then :data:`PRINT_LOADED`.
SERVE_SCRIPT = """
import json, sys
import repro.serve
from repro.batch import build_tasks, run_batch
from repro.opamp.testcases import paper_test_cases
from repro.process import CMOS_5UM
from repro.serve.jobs import run_synth_task
tasks = build_tasks(
    [("A", paper_test_cases()["A"])], CMOS_5UM, verify=sys.argv[1] == "verify"
)
assert all(r.ok for r in run_batch(tasks, jobs=1))
assert run_synth_task(tasks[0])["ok"]
""" + PRINT_LOADED

OTA_DECK = str(ROOT / "tests" / "fixtures" / "ota_5t.sp")


def _is_heavy(module: str) -> bool:
    return module.split(".")[0] in ("networkx", "numpy") or module.startswith(
        ("repro.simulator", "repro.devices")
    )


def _loaded(*argv: str) -> list:
    """``[heavy modules, repro.lint submodules]`` a command loaded."""
    modules = _modules(*argv)
    return [
        [m for m in modules if _is_heavy(m)],
        [m[len("repro.lint."):] for m in modules if m.startswith("repro.lint.")],
    ]


def _modules(*argv: str) -> list:
    """The ``repro``, numpy and networkx modules a command loaded."""
    return json.loads(_run(COMMAND_SCRIPT, "0", *argv))


def _heavy_modules(*argv: str) -> list:
    return _loaded(*argv)[0]


@pytest.mark.parametrize(
    "argv",
    [
        ("synth", "--testcase", "A"),
        ("lint", OTA_DECK, "--topology"),
        ("lint", "--self-check", "--dataflow", "--units"),
        ("batch", "--testcase", "A", "--jobs", "1"),
        ("stats", "--testcase", "A"),
        ("testcases", "--no-verify"),
        ("processes", "--table1", "generic-5um"),
    ],
    ids=[
        "synth",
        "lint-topology",
        "lint-self-check",
        "batch",
        "stats",
        "testcases-no-verify",
        "processes",
    ],
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


def test_version_loads_only_the_cli():
    # The parser reads --trace-format's choices from the leaf
    # repro.obs.events; nothing else is imported to print a version.
    assert json.loads(_run(VERSION_SCRIPT, "0")) == [
        "repro",
        "repro.cli",
        "repro.errors",
        "repro.obs",
        "repro.obs.events",
    ]


def test_deck_lint_loads_no_knowledge_base():
    modules = _modules("lint", OTA_DECK, "--topology")
    assert "repro.lint.topology" in modules
    assert not [
        m
        for m in modules
        if m.startswith(("repro.kb", "repro.opamp", "repro.subblocks"))
        or m == "repro.lint.kblint"
    ]


def test_serve_and_batch_load_no_simulator():
    loaded = json.loads(_run(SERVE_SCRIPT, "0", "synth"))
    assert "repro.serve.server" in loaded
    assert "repro.batch.engine" in loaded
    assert [m for m in loaded if _is_heavy(m)] == []


def test_verified_batch_task_loads_the_simulator():
    loaded = json.loads(_run(SERVE_SCRIPT, "0", "verify"))
    assert "repro.simulator" in loaded
    assert "repro.devices.mosfet" in loaded
    assert "numpy" in loaded


def test_lazy_names_resolve():
    script = (
        "import importlib, repro, repro.opamp\n"
        "namespace = {}\n"
        "exec('from repro import *', namespace)\n"
        "assert set(repro.__all__) <= set(namespace)\n"
        "assert all(getattr(repro.opamp, n) for n in repro.opamp.__all__)\n"
        "from repro.opamp.fully_differential import verify_fd_opamp\n"
        "assert repro.opamp.verify_fd_opamp is verify_fd_opamp\n"
        "assert namespace['verify_opamp'] is repro.opamp.verify_opamp\n"
        "for name in ('repro', 'repro.obs', 'repro.batch', 'repro.lint',\n"
        "             'repro.reporting'):\n"
        "    package = importlib.import_module(name)\n"
        "    assert package.__all__ == list(package._EXPORTS), name\n"
        "    for n in package.__all__:\n"
        "        module = importlib.import_module(package._EXPORTS[n], name)\n"
        "        assert getattr(package, n) is getattr(module, n), (name, n)\n"
        "    try:\n"
        "        package.no_such_name\n"
        "    except AttributeError:\n"
        "        pass\n"
        "    else:\n"
        "        raise AssertionError(f'{name}.no_such_name resolved')\n"
        "from repro.lint import oracle\n"
        "assert not set(oracle.__all__) & set(repro.lint.__all__)\n"
        "print('ok')\n"
    )
    assert _run(script, "0").strip() == "ok"
