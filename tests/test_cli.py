"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_synthesize_requires_core_args(self, capsys):
        # Spec flags are optional at parse time (--testcase can supply
        # them), so an incomplete spec is a runtime error, not argparse's.
        args = build_parser().parse_args(["synthesize", "--gain-db", "60"])
        assert args.command == "synthesize"
        assert main(["synthesize", "--gain-db", "60"]) == 1
        assert "incomplete specification" in capsys.readouterr().err

    def test_suffixes_accepted(self):
        args = build_parser().parse_args(
            [
                "synthesize",
                "--gain-db", "60",
                "--ugf", "1MEG",
                "--slew", "2MEG",
                "--load", "10p",
                "--swing", "3.5",
            ]
        )
        assert args.command == "synthesize"
        assert args.load == "10p"


class TestCommands:
    def test_processes_lists_builtins(self, capsys):
        assert main(["processes"]) == 0
        out = capsys.readouterr().out
        assert "generic-5um" in out
        assert "generic-3um" in out

    def test_processes_table1(self, capsys):
        assert main(["processes", "--table1", "generic-5um"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_processes_table1_unknown(self, capsys):
        assert main(["processes", "--table1", "nope"]) == 1
        assert "error" in capsys.readouterr().err

    def test_synthesize_basic(self, capsys):
        code = main(
            [
                "synthesize",
                "--gain-db", "45",
                "--ugf", "1MEG",
                "--slew", "2MEG",
                "--load", "10p",
                "--swing", "3.5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Selected style" in out
        assert "Schematic" in out

    def test_synthesize_with_trace_and_spice(self, capsys, tmp_path):
        deck_path = tmp_path / "amp.cir"
        code = main(
            [
                "synthesize",
                "--gain-db", "45",
                "--ugf", "1MEG",
                "--slew", "2MEG",
                "--load", "10p",
                "--swing", "3.5",
                "--trace",
                "--spice", str(deck_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Design trace" in out
        assert deck_path.exists()
        assert ".end" in deck_path.read_text()

    def test_synthesize_extended_styles(self, capsys):
        code = main(
            [
                "synthesize",
                "--gain-db", "90",
                "--ugf", "1MEG",
                "--slew", "2MEG",
                "--load", "10p",
                "--swing", "3.4",
                "--offset", "2m",
                "--styles", "extended",
            ]
        )
        assert code == 0
        assert "folded_cascode" in capsys.readouterr().out

    def test_synthesize_impossible_spec_fails_cleanly(self, capsys):
        code = main(
            [
                "synthesize",
                "--gain-db", "140",
                "--ugf", "1MEG",
                "--slew", "2MEG",
                "--load", "10p",
                "--swing", "3.5",
            ]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_synthesize_bad_quantity(self, capsys):
        code = main(
            [
                "synthesize",
                "--gain-db", "sixty",
                "--ugf", "1MEG",
                "--slew", "2MEG",
                "--load", "10p",
                "--swing", "3.5",
            ]
        )
        assert code == 1

    def test_unknown_process(self, capsys):
        code = main(
            [
                "synthesize",
                "--gain-db", "45",
                "--ugf", "1MEG",
                "--slew", "2MEG",
                "--load", "10p",
                "--swing", "3.5",
                "--process", "exotic-90nm",
            ]
        )
        assert code == 1
        assert "unknown process" in capsys.readouterr().err

    def test_tech_file_override(self, capsys, tmp_path):
        from repro.process import CMOS_3UM, dump_technology

        tech = tmp_path / "p.tech"
        tech.write_text(dump_technology(CMOS_3UM))
        code = main(
            [
                "synthesize",
                "--gain-db", "45",
                "--ugf", "1MEG",
                "--slew", "2MEG",
                "--load", "10p",
                "--swing", "3.5",
                "--tech", str(tech),
            ]
        )
        assert code == 0
        assert "generic-3um" in capsys.readouterr().out

    def test_adc_command(self, capsys):
        assert main(["adc", "--bits", "8", "--rate", "20k"]) == 0
        out = capsys.readouterr().out
        assert "8-bit SAR ADC" in out
        assert "comparator" in out

    def test_testcases_no_verify(self, capsys):
        assert main(["testcases", "--no-verify"]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "one_stage" in out and "two_stage" in out


GOOD_DECK = """* divider
v1 vdd 0 DC 5
r1 vdd mid 1k
r2 mid 0 1k
.end
"""

WARN_DECK = """* cap-coupled node
v1 vdd 0 DC 5
r1 vdd 0 1k
c1 vdd mid 1p
c2 mid 0 1p
.end
"""

BAD_DECK = """* dangling subckt port
.subckt blk a b ghost
r1 a b 1k
.ends
v1 vdd 0 DC 5
x1 vdd n1 n2 blk
r2 n1 0 1k
r3 n2 0 1k
.end
"""


class TestLintCommand:
    def test_requires_a_target(self, capsys):
        assert main(["lint"]) == 1
        assert "nothing to lint" in capsys.readouterr().err

    def test_clean_deck_exits_zero(self, capsys, tmp_path):
        deck = tmp_path / "ok.cir"
        deck.write_text(GOOD_DECK)
        assert main(["lint", str(deck)]) == 0
        assert "clean: no diagnostics" in capsys.readouterr().out

    def test_warning_deck_exits_one(self, capsys, tmp_path):
        deck = tmp_path / "warn.cir"
        deck.write_text(WARN_DECK)
        assert main(["lint", str(deck)]) == 1
        assert "ERC104" in capsys.readouterr().out

    def test_error_deck_exits_two(self, capsys, tmp_path):
        deck = tmp_path / "bad.cir"
        deck.write_text(BAD_DECK)
        assert main(["lint", str(deck)]) == 2
        assert "ERC110" in capsys.readouterr().out

    def test_json_format(self, capsys, tmp_path):
        import json

        deck = tmp_path / "bad.cir"
        deck.write_text(BAD_DECK)
        assert main(["lint", str(deck), "--format", "json"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["exit_code"] == 2
        assert any(d["code"] == "ERC110" for d in payload["diagnostics"])

    def test_ignore_filter_downgrades_exit(self, capsys, tmp_path):
        deck = tmp_path / "warn.cir"
        deck.write_text(WARN_DECK)
        assert main(["lint", str(deck), "--ignore", "ERC104"]) == 0

    def test_self_check_clean(self, capsys):
        assert main(["lint", "--self-check"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_testcase_lints_clean(self, capsys):
        assert main(["lint", "--testcase", "A"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_github_format_emits_workflow_annotations(self, capsys, tmp_path):
        deck = tmp_path / "warn.cir"
        deck.write_text(WARN_DECK)
        assert main(["lint", str(deck), "--format", "github"]) == 1
        out = capsys.readouterr().out
        assert "::warning " in out
        assert "title=ERC104" in out

    def test_github_format_anchors_existing_files(self, capsys, tmp_path):
        deck = tmp_path / "bad.cir"
        deck.write_text(BAD_DECK)
        assert main(["lint", str(deck), "--format", "github"]) == 2
        out = capsys.readouterr().out
        assert "::error " in out
        assert f"file={deck}" in out  # location resolves to the real file

    def test_github_format_escapes_messages(self):
        from repro.lint import Diagnostic, LintReport, Severity

        report = LintReport(
            [
                Diagnostic(
                    "ERC101",
                    Severity.ERROR,
                    "line one\nline two with 100%",
                    location="opamp/two_stage/step",
                )
            ]
        )
        rendered = report.render("github")
        line = rendered.splitlines()[0]
        assert line.startswith("::error title=ERC101::")
        assert "\n" not in line and "%0A" in line
        assert "100%25" in line
        assert "[opamp/two_stage/step]" in line  # free-form location in body

    def test_unknown_format_rejected(self):
        from repro.lint import LintReport

        with pytest.raises(Exception, match="text/json/github"):
            LintReport().render("yaml")

    def test_synthesized_spice_export_lints_clean(self, capsys, tmp_path):
        deck_path = tmp_path / "amp.cir"
        assert (
            main(
                [
                    "synthesize",
                    "--gain-db", "45",
                    "--ugf", "1MEG",
                    "--slew", "2MEG",
                    "--load", "10p",
                    "--swing", "3.5",
                    "--spice", str(deck_path),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["lint", str(deck_path)]) == 0


#: The issue's seeded infeasible spec as CLI flags: 100 dB at 100 MHz
#: into 50 pF on a 1 mW budget.
INFEASIBLE_FLAGS = [
    "--gain-db", "100",
    "--ugf", "100MEG",
    "--slew", "50MEG",
    "--load", "50p",
    "--swing", "1.0",
    "--power-max", "1m",
]

CASE_A_FLAGS = [
    "--gain-db", "45",
    "--ugf", "1MEG",
    "--slew", "2MEG",
    "--load", "10p",
    "--swing", "3.5",
]


class TestFeasibilityCLI:
    def test_feasibility_alone_needs_a_spec(self, capsys):
        assert main(["lint", "--feasibility"]) == 1
        assert "nothing to lint" in capsys.readouterr().err

    def test_feasibility_self_check_is_clean(self, capsys):
        assert main(["lint", "--self-check", "--feasibility"]) == 0
        out = capsys.readouterr().out
        # the pass runs (informational findings or a clean report)
        assert "error(s)" in out or "clean" in out

    def test_feasibility_testcase_labels_diagnostics(self, capsys):
        assert main(["lint", "--feasibility", "--testcase", "B"]) == 0
        out = capsys.readouterr().out
        assert "spec user" not in out  # labelled with the test case name

    def test_feasibility_infeasible_spec_exits_two(self, capsys):
        code = main(["lint", "--feasibility", *INFEASIBLE_FLAGS])
        assert code == 2
        out = capsys.readouterr().out
        assert "FEAS403" in out
        assert "provably infeasible" in out

    def test_feasibility_select_filters_codes(self, capsys):
        code = main(
            ["lint", "--feasibility", *INFEASIBLE_FLAGS, "--select", "FEAS403"]
        )
        assert code == 2
        out = capsys.readouterr().out
        assert "FEAS403" in out and "FEAS405" not in out

    def test_feasibility_github_format(self, capsys):
        code = main(
            [
                "lint", "--feasibility", "--format", "github",
                *INFEASIBLE_FLAGS,
            ]
        )
        assert code == 2
        assert "::error title=FEAS403::" in capsys.readouterr().out


class TestAnalyzeCommand:
    def test_analyze_feasible_spec(self, capsys):
        assert main(["analyze", *CASE_A_FLAGS]) == 0
        out = capsys.readouterr().out
        assert "Feasibility analysis" in out
        assert "style one_stage" in out and "style two_stage" in out
        assert "plan completes over the abstract spec" in out

    def test_analyze_infeasible_spec_exits_two(self, capsys):
        assert main(["analyze", *INFEASIBLE_FLAGS]) == 2
        out = capsys.readouterr().out
        assert "infeasible" in out
        assert "FEAS403" in out

    def test_analyze_requires_spec_flags(self, capsys):
        # Spec flags are optional at parse time (a --testcase or
        # --topology run needs none), but a feasibility analysis with an
        # incomplete spec is still an error.
        assert main(["analyze", "--gain-db", "60"]) == 1
        assert "incomplete specification" in capsys.readouterr().err

    def test_analyze_accepts_testcase_label(self, capsys):
        assert main(["analyze", "--testcase", "A"]) == 0
        assert "Feasibility analysis" in capsys.readouterr().out


class TestSynthesizePrecheck:
    def test_precheck_passes_feasible_spec_through(self, capsys):
        assert main(["synthesize", "--precheck", *CASE_A_FLAGS]) == 0
        assert "Selected style" in capsys.readouterr().out

    def test_precheck_fails_fast_on_infeasible_spec(self, capsys):
        code = main(["synthesize", "--precheck", *INFEASIBLE_FLAGS])
        assert code == 1
        assert "statically infeasible" in capsys.readouterr().err


class TestVersionFlag:
    def test_version_prints_and_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ")
        from repro.cli import package_version

        assert package_version() in out

    def test_version_matches_pyproject(self):
        import re
        from pathlib import Path

        from repro.cli import package_version

        pyproject = Path(__file__).parent.parent / "pyproject.toml"
        project = re.search(
            r'^\[project\]$.*?^version = "([^"]+)"$',
            pyproject.read_text(encoding="utf-8"),
            re.MULTILINE | re.DOTALL,
        )
        assert project is not None
        assert package_version() == project.group(1)


class TestObservabilityCli:
    def test_synth_alias_with_testcase_number(self, capsys):
        assert main(["synth", "--testcase", "1"]) == 0
        assert "Selected style" in capsys.readouterr().out

    def test_trace_out_chrome_is_valid(self, capsys, tmp_path):
        import json

        path = tmp_path / "trace.json"
        assert (
            main(
                [
                    "synth",
                    "--testcase",
                    "A",
                    "--trace-out",
                    str(path),
                    "--trace-format",
                    "chrome",
                ]
            )
            == 0
        )
        assert "Trace (chrome" in capsys.readouterr().out
        data = json.loads(path.read_text(encoding="utf-8"))
        events = data["traceEvents"]
        assert any(
            e["ph"] == "X" and e["name"] == "synthesize" for e in events
        )
        assert data["otherData"]["metrics"]["counters"]

    def test_trace_out_jsonl_feeds_stats(self, capsys, tmp_path):
        path = tmp_path / "trace.jsonl"
        assert (
            main(
                ["synthesize", *CASE_A_FLAGS, "--trace-out", str(path)]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "JSONL trace:" in out
        assert "synthesize" in out

    def test_trace_out_covers_verification(self, capsys, tmp_path):
        import json

        path = tmp_path / "trace.jsonl"
        argv = ["synth", "--testcase", "A", "--verify", "--trace-out", str(path)]
        assert main(argv) == 0
        out = capsys.readouterr().out
        # The trace is written after verification, not before it.
        assert out.index("Simulator verification") < out.index("Trace (jsonl")
        records = [json.loads(line) for line in path.read_text().splitlines()]
        by_type = {}
        for record in records:
            by_type.setdefault(record["type"], []).append(record)
        names = {span["name"] for span in by_type["span"]}
        assert {"synthesize", "verify:offset", "verify:ac"} <= names
        [metrics] = by_type["metrics"]
        assert metrics["metrics"]["counters"]["dc.solves"] > 0
        # The design-trace events and run metadata are still there.
        assert any(e["kind"] == "plan_start" for e in by_type["event"])
        [meta] = by_type["meta"]
        assert meta["label"] == "synthesize" and meta["winner"] == "one_stage"

    def test_stats_runs_observed_synthesis(self, capsys):
        assert main(["stats", "--testcase", "B"]) == 0
        out = capsys.readouterr().out
        assert "Run report:" in out
        assert "plan.steps" in out

    def test_stats_cache_reports_the_verifications(self, capsys):
        import re

        assert main(["stats", "--testcase", "A", "--cache"]) == 0
        out = capsys.readouterr().out
        report, _, cache_table = out.partition("\nCache")
        assert "verify:offset" in report
        hits = re.search(r"^\s*dc\.cache_hits\s+(\d+)", report, re.MULTILINE)
        assert hits and int(hits.group(1)) > 0
        assert "op" in cache_table

    def test_stats_without_input_errors(self, capsys):
        assert main(["stats"]) == 1
        assert "nothing to report on" in capsys.readouterr().err
