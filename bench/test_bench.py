"""Self-test of the benchmark: ``python -m pytest bench/``.

Drives each workload object for a handful of operations (cold start,
start, operations, stop, oracle check) into the metric functions a full
run uses, without changing how long a real run measures, and checks
names, inputs, process isolation and the comparison rules.
"""

from __future__ import annotations

import itertools
import json
import math
import re
import shutil
import subprocess
import sys

import pytest

import bench.__main__ as bench_main
from bench import compare, runner, workloads
from bench.common import ROOT, load_benchmark, peak_rss_mb, use_source_tree

use_source_tree()

BENCHMARK = load_benchmark()
NAME = re.compile(r"[A-Za-z0-9_.-]+")
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


def _names(section: str):
    return [m["name"] for m in BENCHMARK[section]]


def test_benchmark_names_are_valid_and_unique():
    names = WORKLOADS + _names("end_to_end") + _names("per_layer")
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    assert sorted(WORKLOADS) == sorted(workloads.TYPES)


def test_setup_time_has_the_largest_bound():
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


GENERATORS = {
    "cli": workloads.cli_rounds,
    "verify": workloads.verify_rounds,
    "serve": workloads.serve_requests,
    "sweep": workloads.sweep_specs,
}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_inputs_depend_on_the_seed_alone(name):
    def inputs(seed):
        return json.dumps(list(itertools.islice(GENERATORS[name](seed), 200))).encode()

    assert inputs(11) == inputs(11)
    assert inputs(11) != inputs(12)


def test_sweep_repeats_earlier_specs():
    specs = list(itertools.islice(workloads.sweep_specs(11), 4000))
    repeats = len(specs) - len({label for label, _ in specs})
    assert 0.2 < repeats / len(specs) < 0.3


def _drive(workload, traced, ops):
    """``ops`` operations through the calls a run makes, oracle included."""
    workload.start(traced)
    try:
        items = itertools.chain.from_iterable(workload.rounds())
        op_ms = [workload.run_op(item) for item in itertools.islice(items, ops)]
    finally:
        workload.stop()
    assert workload.check() == []
    return op_ms


@pytest.mark.parametrize("name", WORKLOADS)
def test_a_few_operations_report_every_end_to_end_metric(name):
    workload = workloads.TYPES[name](seed=3)
    setup = [workload.cold_start()]
    op_ms = _drive(workload, traced=False, ops=3)
    metrics = runner.end_to_end(workload, op_ms, peak_rss_mb(), setup)
    assert sorted(metrics) == sorted(_names("end_to_end"))
    assert all(math.isfinite(v) and v > 0 for v in metrics.values())


@pytest.mark.parametrize("name", WORKLOADS)
def test_a_few_traced_operations_report_every_per_layer_metric(name):
    workload = workloads.TYPES[name](seed=3)
    plain = _drive(workload, traced=False, ops=2)
    traced = _drive(workload, traced=True, ops=2)
    metrics = runner.per_layer(workload, plain, traced)
    assert sorted(metrics) == sorted(_names("per_layer"))
    assert all(math.isfinite(v) for v in metrics.values())
    assert workload.tally.lines


def test_every_workload_runs_in_a_process_of_its_own(monkeypatch):
    """Without ``--workload``, no workload runs in this process, so none
    inherits another's memory high-water mark (``peak_rss_mb``)."""
    commands = []

    def fake_run(command, **kwargs):
        commands.append(command)
        return subprocess.CompletedProcess(command, 0)

    def in_process(*args, **kwargs):
        raise AssertionError("a workload ran in the dispatching process")

    monkeypatch.setattr(bench_main.subprocess, "run", fake_run)
    monkeypatch.setattr(runner, "run", in_process)
    assert bench_main.main(["--seed", "5", "--trace", "1"]) == 0
    assert commands == [
        [sys.executable, "-m", "bench", "--workload", name, "--seed", "5", "--trace", "1"]
        for name in WORKLOADS
    ]


def test_without_the_source_tree_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "cli"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def _runs(values, seconds=20.0):
    return [
        {"env": {"seed": i}, "seconds": seconds, "metrics": {"op_ms.p50": v}}
        for i, v in enumerate(values)
    ]


def test_compare_refuses_runs_of_different_lengths(tmp_path, capsys):
    for side, seconds in (("base", 20.0), ("new", 10.0)):
        (tmp_path / side).mkdir()
        for i, run in enumerate(_runs([100, 101], seconds)):
            run.update(workload="cli", trace=0)
            (tmp_path / side / f"cli-s{i}.json").write_text(json.dumps(run))
    assert compare.main([str(tmp_path / "base"), str(tmp_path / "new")]) == 2
    assert "different lengths" in capsys.readouterr().err


METRIC = {"name": "op_ms.p50", "better": "lower", "bound": 0.1}


@pytest.mark.parametrize(
    "base, new, verdict",
    [
        ([100, 101, 99, 100, 102], [101, 100, 99, 102, 100], "unchanged"),
        ([100, 101, 99, 100, 102], [120, 121, 119, 120, 122], "worse"),
        ([100, 150, 60, 100, 140], [100, 101, 99, 100, 102], "unresolved"),
        ([100 + i % 3 for i in range(10)], [80 + i % 3 for i in range(10)], "better"),
        # a clear gain on too few pairs is not claimed
        ([100, 101, 99, 100, 102], [80, 81, 79, 80, 82], "unchanged"),
    ],
)
def test_compare_rules(base, new, verdict):
    assert compare.classify(_runs(base), _runs(new), METRIC)[0] == verdict
