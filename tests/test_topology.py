"""Topology analyzer tests: recognition, constraints, TOPO6xx checkers.

The synthesized schematics are the structural regression oracle: every
style the designer emits must be *fully* recognized (coverage 1.0).
The derived constraint sets for the paper test cases are pinned
byte-for-byte under ``tests/golden/``; regenerate consciously with::

    REPRO_UPDATE_GOLDEN=1 python -m pytest tests/test_topology.py
"""

import dataclasses
import json
import os
from pathlib import Path

import pytest

from repro import CMOS_5UM, OpAmpSpec
from repro.circuit import Circuit
from repro.lint import analyze_topology, lint_topology
from repro.opamp import design_fully_differential
from repro.opamp.designer import EXTENDED_STYLES, design_style, synthesize
from repro.opamp.testcases import paper_test_cases

GOLDEN_DIR = Path(__file__).parent / "golden"
UPDATE = os.environ.get("REPRO_UPDATE_GOLDEN") == "1"
CASES = sorted(paper_test_cases())


def _case_circuit(label: str) -> Circuit:
    spec = paper_test_cases()[label]
    return synthesize(spec, CMOS_5UM).best.standalone_circuit()


def _style_circuit(style: str) -> Circuit:
    if style == "folded_cascode":
        spec = OpAmpSpec(
            gain_db=85.0,
            unity_gain_hz=1e6,
            phase_margin_deg=60.0,
            slew_rate=2e6,
            load_capacitance=10e-12,
            output_swing=3.0,
            offset_max_mv=2.0,
        )
    else:
        spec = paper_test_cases()["A"]
    return design_style(style, spec, CMOS_5UM).standalone_circuit()


def _rebuild_with(circuit: Circuit, **replacements) -> Circuit:
    """Copy ``circuit`` with named elements swapped for modified clones."""
    out = Circuit(circuit.name)
    for element in circuit.elements:
        out.add(replacements.get(element.name, element))
    return out


# ----------------------------------------------------------------------
# Every emitted style is fully recognized
# ----------------------------------------------------------------------
class TestSelfCheckCoverage:
    @pytest.mark.parametrize("label", CASES)
    def test_paper_case_fully_recognized(self, label):
        analysis = analyze_topology(_case_circuit(label))
        assert analysis.coverage == 1.0, analysis.render_text()

    @pytest.mark.parametrize("style", EXTENDED_STYLES)
    def test_registered_style_fully_recognized(self, style):
        analysis = analyze_topology(_style_circuit(style))
        assert analysis.coverage == 1.0, analysis.render_text()

    def test_fully_differential_fully_recognized(self):
        spec = OpAmpSpec(
            gain_db=45.0,
            unity_gain_hz=1e6,
            phase_margin_deg=60.0,
            slew_rate=2e6,
            load_capacitance=10e-12,
            output_swing=6.0,
            offset_max_mv=5.0,
        )
        amp = design_fully_differential(spec, CMOS_5UM)
        analysis, report = lint_topology(
            amp.standalone_circuit(), process=CMOS_5UM
        )
        assert analysis.coverage == 1.0, analysis.render_text()
        assert report.exit_code() == 0, report.render("text")

    @pytest.mark.parametrize("label", CASES)
    def test_paper_case_topology_clean(self, label):
        _, report = lint_topology(_case_circuit(label), process=CMOS_5UM)
        assert report.exit_code() == 0, report.render("text")

    @pytest.mark.parametrize("style", EXTENDED_STYLES)
    def test_registered_style_topology_clean(self, style):
        _, report = lint_topology(_style_circuit(style), process=CMOS_5UM)
        assert report.exit_code() == 0, report.render("text")


# ----------------------------------------------------------------------
# Recognized structure matches the known designs
# ----------------------------------------------------------------------
class TestRecognizedBlocks:
    def test_case_a_block_kinds(self):
        analysis = analyze_topology(_case_circuit("A"))
        kinds = sorted(b.kind for b in analysis.blocks)
        assert kinds.count("simple_mirror") == 4
        assert kinds.count("diff_pair") == 1

    def test_case_b_has_output_stage(self):
        analysis = analyze_topology(_case_circuit("B"))
        kinds = {b.kind for b in analysis.blocks}
        assert "common_source" in kinds
        assert "diff_pair" in kinds

    def test_case_c_has_cascode_mirrors(self):
        analysis = analyze_topology(_case_circuit("C"))
        kinds = [b.kind for b in analysis.blocks]
        assert kinds.count("cascode_mirror") == 2
        assert "source_follower" in kinds

    def test_block_membership_lookup(self):
        analysis = analyze_topology(_case_circuit("A"))
        pair = analysis.blocks_of("diff_pair")[0]
        for device in pair.devices:
            assert analysis.view.block_of(device) is pair

    def test_to_dict_roundtrips_through_json(self):
        analysis = analyze_topology(_case_circuit("B"))
        payload = json.loads(analysis.to_json())
        assert payload["coverage"] == 1.0
        assert payload["fingerprint"] == analysis.fingerprint
        assert len(payload["blocks"]) == len(analysis.blocks)


class TestDesignerMotifCrossReference:
    def test_every_designer_motif_is_registered(self):
        from repro.lint import MOTIF_REGISTRY
        from repro.subblocks import DESIGNER_MOTIFS

        registered = {m.kind for m in MOTIF_REGISTRY.motifs()}
        for emitter, kinds in sorted(DESIGNER_MOTIFS.items()):
            missing = set(kinds) - registered
            assert not missing, f"{emitter}: unknown motif kinds {missing}"

    def test_designs_exercise_the_cross_reference(self):
        # The union of blocks over all styles covers every kind the
        # mirror/pair/gm emitters produce in shipped designs.
        from repro.subblocks import DESIGNER_MOTIFS

        seen = set()
        for label in CASES:
            seen |= {b.kind for b in analyze_topology(_case_circuit(label)).blocks}
        for emitter in ("emit_mirror", "emit_diff_pair", "emit_gm_stage"):
            assert seen & set(DESIGNER_MOTIFS[emitter]), emitter


# ----------------------------------------------------------------------
# Constraint sets are pinned byte-for-byte
# ----------------------------------------------------------------------
def _constraints_path(label: str) -> Path:
    return GOLDEN_DIR / f"constraints_{label}.json"


@pytest.fixture(scope="module")
def golden_constraints():
    """label -> pinned bytes; regenerates under REPRO_UPDATE_GOLDEN=1."""
    if UPDATE:
        GOLDEN_DIR.mkdir(exist_ok=True)
        for label in CASES:
            analysis = analyze_topology(_case_circuit(label))
            _constraints_path(label).write_text(
                analysis.constraints.to_json(), encoding="utf-8"
            )
    out = {}
    for label in CASES:
        path = _constraints_path(label)
        if not path.exists():
            pytest.fail(
                f"missing golden file {path}; regenerate with "
                "REPRO_UPDATE_GOLDEN=1"
            )
        out[label] = path.read_text(encoding="utf-8")
    return out


class TestConstraintGolden:
    @pytest.mark.parametrize("label", CASES)
    def test_constraints_match_golden_bytes(self, golden_constraints, label):
        analysis = analyze_topology(_case_circuit(label))
        assert analysis.constraints.to_json() == golden_constraints[label]

    @pytest.mark.parametrize("label", CASES)
    def test_golden_is_canonical_json(self, golden_constraints, label):
        text = golden_constraints[label]
        payload = json.loads(text)
        assert (
            json.dumps(payload, indent=2, sort_keys=True) + "\n" == text
        )

    def test_pair_constraint_present_for_case_a(self, golden_constraints):
        payload = json.loads(golden_constraints["A"])
        pairs = {
            (p["a"], p["b"]) for p in payload["symmetric_pairs"]
        }
        assert ("mota1_m1", "mota1_m2") in pairs


# ----------------------------------------------------------------------
# Seeded defects fire the checkers
# ----------------------------------------------------------------------
class TestSeededDefects:
    def test_asymmetric_pair_fires_topo602(self):
        circuit = _case_circuit("A")
        analysis = analyze_topology(circuit)
        pair = analysis.blocks_of("diff_pair")[0]
        victim = circuit.mosfet(pair.role("b"))
        broken = _rebuild_with(
            circuit,
            **{victim.name: dataclasses.replace(victim, width=victim.width * 1.3)},
        )
        _, report = lint_topology(broken, process=CMOS_5UM)
        codes = [d.code for d in report]
        assert "TOPO602" in codes
        assert report.exit_code() == 2

    def test_missized_mirror_fires_topo603(self):
        circuit = _case_circuit("A")
        analysis = analyze_topology(circuit)
        # The n mirror spans both pair drains via the turnaround; the
        # directly pair-spanning check needs a mirror whose input is a
        # pair drain: the lp/rp loads qualify.
        pair = analysis.blocks_of("diff_pair")[0]
        drains = {pair.net("out_a"), pair.net("out_b")}
        spanning = next(
            b
            for b in analysis.blocks_of("simple_mirror")
            if b.net("input") in drains
        )
        victim = circuit.mosfet(spanning.role("out[0]"))
        broken = _rebuild_with(
            circuit,
            **{victim.name: dataclasses.replace(victim, width=victim.width * 2)},
        )
        _, report = lint_topology(broken, process=CMOS_5UM)
        assert any(d.code == "TOPO603" for d in report)

    def test_cascode_leg_mismatch_fires_topo603(self):
        circuit = _case_circuit("C")
        analysis = analyze_topology(circuit)
        cascode = analysis.blocks_of("cascode_mirror")[0]
        victim = circuit.mosfet(cascode.role("out_cascode[0]"))
        broken = _rebuild_with(
            circuit,
            **{victim.name: dataclasses.replace(victim, width=victim.width * 1.7)},
        )
        _, report = lint_topology(broken, process=CMOS_5UM)
        assert any(
            d.code == "TOPO603" and "cascode leg" in d.message for d in report
        )

    def test_unrecognized_cluster_fires_topo601(self):
        c = Circuit("odd")
        c.add_vsource("vdd", "vdd", "0", 5.0)
        c.add_vsource("vin", "in", "0", 2.5)
        # Source-degenerated common source: the resistor lifts the
        # source off the rail, so no motif matches the transistor.
        c.add_mosfet("m1", "out", "in", "s", "0", "nmos", 10e-6, 5e-6)
        c.add_resistor("rs", "s", "0", 1e3)
        c.add_resistor("r1", "vdd", "out", 10e3)
        analysis, report = lint_topology(c)
        assert analysis.coverage < 1.0
        diags = [d for d in report if d.code == "TOPO601"]
        assert len(diags) == 1
        assert "m1" in diags[0].message

    def test_disjoint_clusters_fire_topo601_each_in_order(self):
        c = Circuit("odd")
        c.add_vsource("vdd", "vdd", "0", 5.0)
        c.add_vsource("vin", "in", "0", 2.5)
        c.add_vsource("vin2", "in2", "0", 2.5)
        # Three degenerated common sources: 'mz' alone, and 'ma' driving
        # 'mb' (one cluster through net 'outa'); 'mz' is declared first.
        for name, gate in (("mz", "in2"), ("mb", "outa"), ("ma", "in")):
            out, src = f"out{name[1]}", f"s{name[1]}"
            c.add_mosfet(name, out, gate, src, "0", "nmos", 10e-6, 5e-6)
            c.add_resistor(f"rs{name[1]}", src, "0", 1e3)
            c.add_resistor(f"r{name[1]}", "vdd", out, 10e3)
        _, report = lint_topology(c)
        diags = [d for d in report if d.code == "TOPO601"]
        assert [d.location for d in diags] == ["odd:ma", "odd:mz"]
        assert "ma, mb matched" in diags[0].message

    def test_shared_tail_fires_topo604(self):
        circuit = _case_circuit("A")
        analysis = analyze_topology(circuit)
        tail = analysis.blocks_of("diff_pair")[0].net("tail")
        extra = Circuit(circuit.name)
        for element in circuit.elements:
            extra.add(element)
        # A stray gate sensing the tail net (a stray *source* would
        # break pair recognition itself and surface as TOPO601).
        extra.add_mosfet(
            "mstray", "vdd", tail, "0", "0", "nmos", 10e-6, 5e-6
        )
        _, report = lint_topology(extra)
        diags = [d for d in report if d.code == "TOPO604"]
        assert diags and "mstray" in diags[0].message
