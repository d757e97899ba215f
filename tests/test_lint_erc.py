"""ERC lint pass: one positive trigger per diagnostic code, clean runs
over every shipped topology and paper test case, the reworked
collect-all ``Circuit.validate``, subcircuit deck parsing, ERC104
against the rank of the simulator's DC matrix, and the strict gates in
the designer and before a simulation."""

import json
from pathlib import Path

import numpy as np
import pytest

from repro import CMOS_5UM, OpAmpSpec
from repro.circuit import Circuit, from_spice, to_spice
from repro.circuit.elements import GROUND
from repro.circuit.netlist_io import parse_deck
from repro.errors import LintError, NetlistError
from repro.lint import (
    ERC_REGISTRY,
    Diagnostic,
    LintReport,
    Severity,
    assert_erc_clean,
    lint_circuit,
    lint_spice_deck,
    validation_diagnostics,
)
from repro.opamp import design_fully_differential, synthesize
from repro.opamp.designer import design_style
from repro.opamp.testcases import paper_test_cases
from repro.simulator import ac_analysis, operating_point, transient_analysis
from repro.simulator.mna import MnaSystem
from repro.simulator.transient import step_waveform

FIXTURES = Path(__file__).parent / "fixtures"


def _grounded_anchor(circuit):
    """A minimal legal grounded sub-network to hang fixtures off."""
    circuit.add_vsource("vref", "anchor", GROUND, 1.0)
    circuit.add_resistor("ranchor", "anchor", GROUND, 1e3)


def broken_circuit():
    """A circuit with a dangling node (ERC101) for the strict gates."""
    c = Circuit("broken")
    _grounded_anchor(c)
    c.add_resistor("rstub", "anchor", "floating", 1e3)
    return c


# ----------------------------------------------------------------------
# One positive trigger per code
# ----------------------------------------------------------------------
class TestErcTriggers:
    def test_erc100_empty(self):
        report = lint_circuit(Circuit("c"))
        assert report.codes() == ["ERC100"]
        assert report.has_errors

    def test_erc101_dangling(self):
        c = Circuit("c")
        _grounded_anchor(c)
        c.add_resistor("r1", "anchor", "floating", 1e3)
        assert lint_circuit(c).codes() == ["ERC101"]

    def test_erc102_no_ground(self):
        c = Circuit("c")
        c.add_resistor("r1", "a", "b", 1e3)
        c.add_resistor("r2", "a", "b", 2e3)
        assert lint_circuit(c).codes() == ["ERC102"]

    def test_erc103_island(self):
        c = Circuit("c")
        _grounded_anchor(c)
        c.add_resistor("r1", "x", "y", 1e3)
        c.add_resistor("r2", "x", "y", 2e3)
        report = lint_circuit(c)
        assert report.codes() == ["ERC103"]
        # Both island nodes are reported individually.
        assert len(report.by_code("ERC103")) == 2

    def test_erc104_cap_coupled_node(self):
        c = Circuit("c")
        _grounded_anchor(c)
        c.add_capacitor("c1", "anchor", "mid", 1e-12)
        c.add_capacitor("c2", "mid", GROUND, 1e-12)
        report = lint_circuit(c)
        assert report.codes() == ["ERC104"]
        assert report.max_severity() is Severity.WARNING

    def test_erc104_isource_only_node(self):
        c = Circuit("c")
        _grounded_anchor(c)
        c.add_isource("i1", "anchor", "mid", 1e-6)
        c.add_isource("i2", "mid", GROUND, 1e-6)
        assert "ERC104" in lint_circuit(c).codes()

    def test_erc104_not_fired_when_resistor_parallels_isource(self):
        c = Circuit("c")
        _grounded_anchor(c)
        c.add_isource("i1", "anchor", "mid", 1e-6)
        c.add_resistor("rpar", "anchor", "mid", 1e6)
        c.add_resistor("rdn", "mid", GROUND, 1e6)
        assert lint_circuit(c).codes() == []

    @pytest.mark.parametrize(
        "deck, floating",
        [
            ((FIXTURES / "erc104_isource_cap.sp").read_text(), True),
            ((FIXTURES / "erc104_parallel_isources.sp").read_text(), True),
            (
                "v1 anchor 0 DC 1\ni1 anchor mid DC 1u\n"
                "r1 anchor mid 1k\nc2 mid 0 1p\n.end\n",
                False,
            ),
        ],
        ids=["cap-parallels-isource", "parallel-isources", "resistor-parallels-isource"],
    )
    def test_erc104_matches_singular_dc_matrix(self, deck, floating):
        # A current source is open at DC whatever shares its node pair:
        # ERC104 fires exactly when the DC Jacobian (no gmin) is singular.
        c = from_spice(deck)
        system = MnaSystem(c, CMOS_5UM)
        _, jacobian = system.assemble_dc_system(np.zeros(system.size), 0.0)
        singular = bool(np.linalg.matrix_rank(jacobian) < system.size)
        report = lint_circuit(c)
        assert singular is floating
        assert report.codes() == (["ERC104"] if floating else [])
        if floating:
            assert "'mid'" in report.by_code("ERC104")[0].message

    def test_erc104_gate_is_no_dc_path(self):
        # 'g' joins ground only through two MOSFET gates.
        c = Circuit("c")
        c.add_vsource("vdd", "vdd", GROUND, 5.0)
        c.add_mosfet("m1", "vdd", "g", GROUND, GROUND, "nmos", 10e-6, 5e-6)
        c.add_mosfet("m2", "vdd", "g", GROUND, GROUND, "nmos", 10e-6, 5e-6)
        report = lint_circuit(c)
        assert report.codes() == ["ERC104", "ERC105"]
        assert "'g'" in report.by_code("ERC104")[0].message

    def test_erc105_undriven_gate(self):
        c = Circuit("c")
        c.add_vsource("vdd", "vdd", GROUND, 5.0)
        c.add_mosfet("m1", "vdd", "g", GROUND, GROUND, "nmos", 10e-6, 5e-6)
        c.add_capacitor("c1", "g", GROUND, 1e-12)
        c.add_capacitor("c2", "g", "vdd", 1e-12)
        assert "ERC105" in lint_circuit(c).codes()

    def test_erc105_diode_connection_counts_as_driver(self):
        c = Circuit("c")
        c.add_vsource("vdd", "vdd", GROUND, 5.0)
        c.add_resistor("rbias", "vdd", "g", 1e5)
        c.add_mosfet("m1", "g", "g", GROUND, GROUND, "nmos", 10e-6, 5e-6)
        assert "ERC105" not in lint_circuit(c).codes()

    def test_erc106_nmos_bulk_above_low_rail(self):
        c = Circuit("c")
        c.add_vsource("vdd", "vdd", GROUND, 5.0)
        c.add_mosfet("m1", "vdd", "d", "d", "vdd", "nmos", 10e-6, 5e-6)
        c.add_resistor("r1", "d", GROUND, 1e3)
        report = lint_circuit(c)
        assert "ERC106" in report.codes()
        assert report.max_severity() is Severity.WARNING

    def test_erc106_source_tied_bulk_exempt(self):
        c = Circuit("c")
        c.add_vsource("vdd", "vdd", GROUND, 5.0)
        c.add_mosfet("m1", "vdd", "d", "d", "d", "nmos", 10e-6, 5e-6)
        c.add_resistor("r1", "d", GROUND, 1e3)
        assert "ERC106" not in lint_circuit(c).codes()

    def test_erc107_below_min_geometry(self):
        c = Circuit("c")
        c.add_vsource("vdd", "d", GROUND, 5.0)
        c.add_mosfet("m1", "d", "d", GROUND, GROUND, "nmos", 1e-7, 1e-7)
        report = lint_circuit(c, process=CMOS_5UM)
        # Both W and L violations on the same device.
        assert len(report.by_code("ERC107")) == 2

    def test_erc107_needs_process(self):
        c = Circuit("c")
        c.add_vsource("vdd", "d", GROUND, 5.0)
        c.add_mosfet("m1", "d", "d", GROUND, GROUND, "nmos", 1e-7, 1e-7)
        assert "ERC107" not in lint_circuit(c).codes()

    def test_erc108_supply_short(self):
        c = Circuit("c")
        c.add_vsource("v1", "a", GROUND, 5.0)
        c.add_vsource("v2", "a", GROUND, 3.0)
        c.add_resistor("r1", "a", GROUND, 1e3)
        assert "ERC108" in lint_circuit(c).codes()

    def test_erc109_mirror_length_mismatch(self):
        c = Circuit("c")
        c.add_vsource("vdd", "vdd", GROUND, 5.0)
        c.add_isource("i1", "vdd", "ref", 10e-6)
        c.add_mosfet("m1", "ref", "ref", GROUND, GROUND, "nmos", 10e-6, 5e-6)
        c.add_mosfet("m2", "out", "ref", GROUND, GROUND, "nmos", 10e-6, 10e-6)
        c.add_resistor("rl", "vdd", "out", 1e4)
        report = lint_circuit(c)
        assert "ERC109" in report.codes()
        [diag] = report.by_code("ERC109")
        assert "m2" in diag.message and "m1" in diag.message

    def test_erc109_matched_mirror_clean(self):
        c = Circuit("c")
        c.add_vsource("vdd", "vdd", GROUND, 5.0)
        c.add_isource("i1", "vdd", "ref", 10e-6)
        c.add_mosfet("m1", "ref", "ref", GROUND, GROUND, "nmos", 10e-6, 5e-6)
        c.add_mosfet("m2", "out", "ref", GROUND, GROUND, "nmos", 20e-6, 5e-6)
        c.add_resistor("rl", "vdd", "out", 1e4)
        assert "ERC109" not in lint_circuit(c).codes()

    def test_erc110_dangling_subckt_port(self):
        deck = """* fixture
.subckt mir iref iout unused
m1 iref iref 0 0 nmos W=10u L=5u
m2 iout iref 0 0 nmos W=10u L=5u
.ends
v1 vdd 0 DC 5
x1 n1 n2 n3 mir
r1 vdd n1 1k
r2 vdd n2 1k
r3 vdd n3 1k
.end
"""
        report = lint_spice_deck(deck, name="fixture")
        assert "ERC110" in report.codes()
        [diag] = report.by_code("ERC110")
        assert "unused" in diag.message


# ----------------------------------------------------------------------
# Shipped designs are clean
# ----------------------------------------------------------------------
def _fd_spec():
    return OpAmpSpec(
        gain_db=45.0,
        unity_gain_hz=1e6,
        phase_margin_deg=60.0,
        slew_rate=2e6,
        load_capacitance=10e-12,
        output_swing=6.0,
        offset_max_mv=5.0,
    )


def _fc_spec():
    return OpAmpSpec(
        gain_db=85.0,
        unity_gain_hz=1e6,
        phase_margin_deg=60.0,
        slew_rate=2e6,
        load_capacitance=10e-12,
        output_swing=3.0,
        offset_max_mv=2.0,
    )


class TestShippedDesignsClean:
    @pytest.mark.parametrize("label", sorted(paper_test_cases()))
    def test_paper_test_case_lints_clean(self, label):
        spec = paper_test_cases()[label]
        amp = synthesize(spec, CMOS_5UM).best
        report = lint_circuit(amp.standalone_circuit(), process=CMOS_5UM)
        assert not report.has_errors, report.render_text()
        assert len(report) == 0, report.render_text()

    @pytest.mark.parametrize("style", ["one_stage", "two_stage", "folded_cascode"])
    def test_registered_topology_lints_clean(self, style):
        spec = _fc_spec() if style == "folded_cascode" else paper_test_cases()["A"]
        amp = design_style(style, spec, CMOS_5UM, strict=True)
        report = lint_circuit(amp.standalone_circuit(), process=CMOS_5UM)
        assert len(report) == 0, report.render_text()

    def test_fully_differential_lints_clean(self):
        amp = design_fully_differential(_fd_spec(), CMOS_5UM)
        report = lint_circuit(amp.standalone_circuit(), process=CMOS_5UM)
        assert len(report) == 0, report.render_text()


# ----------------------------------------------------------------------
# validate() on top of the ERC structural subset
# ----------------------------------------------------------------------
class TestValidateCollectsAll:
    def test_validate_reports_every_violation_at_once(self):
        c = Circuit("multi")
        c.add_resistor("r1", "a", "b", 1e3)  # no ground anywhere
        c.add_resistor("r2", "a", "c", 1e3)  # b and c dangle
        with pytest.raises(NetlistError) as excinfo:
            c.validate()
        message = str(excinfo.value)
        # One raise, all findings: missing ground + two dangling nodes.
        assert "ground" in message
        assert message.count("dangling") == 2
        assert "violation(s)" in message

    def test_validation_diagnostics_structural_only(self):
        c = Circuit("c")
        _grounded_anchor(c)
        c.add_capacitor("c1", "anchor", "mid", 1e-12)
        c.add_capacitor("c2", "mid", GROUND, 1e-12)
        # ERC104 is a quality warning, not structural: validate passes.
        assert validation_diagnostics(c) == []
        c.validate()

    def test_structural_checkers_marked(self):
        structural = {c.name for c in ERC_REGISTRY.checkers(structural_only=True)}
        assert structural == {
            "empty-circuit",
            "ground-reference",
            "dangling-node",
            "ground-reachability",
        }


# ----------------------------------------------------------------------
# Subcircuit deck parsing
# ----------------------------------------------------------------------
class TestSubcktParsing:
    DECK = """* hierarchical deck
.subckt mir iref iout
m1 iref iref 0 0 nmos W=10u L=5u
m2 iout iref 0 0 nmos W=20u L=5u
.ends
v1 vdd 0 DC 5
r1 vdd nref 100k
x1 nref nout mir
r2 vdd nout 50k
.end
"""

    def test_flattening(self):
        circuit, subckts = parse_deck(self.DECK, name="top")
        assert sorted(subckts) == ["mir"]
        assert subckts["mir"].ports == ("iref", "iout")
        names = [e.name for e in circuit.elements]
        assert "mx1.m1" in names and "mx1.m2" in names
        assert "nref" in circuit.nodes and "nout" in circuit.nodes
        circuit.validate()

    def test_from_spice_flattens_instances(self):
        circuit = from_spice(self.DECK, name="top")
        assert circuit.transistor_count() == 2

    def test_nested_instances(self):
        deck = """* nested
.subckt leaf a b
r1 a b 1k
.ends
.subckt pair x y
xl x mid leaf
xr mid y leaf
.ends
v1 p 0 DC 1
x1 p 0 pair
.end
"""
        circuit, subckts = parse_deck(deck)
        assert sorted(subckts) == ["leaf", "pair"]
        assert len(circuit) == 3  # v1 + two flattened resistors
        circuit.validate()

    def test_unknown_subckt_rejected(self):
        with pytest.raises(NetlistError, match="unknown subcircuit"):
            from_spice("x1 a b ghost\n")

    def test_port_count_mismatch_rejected(self):
        deck = ".subckt s a b\nr1 a b 1k\n.ends\nx1 n1 s\n"
        with pytest.raises(NetlistError, match="port"):
            from_spice(deck)

    def test_unclosed_subckt_rejected(self):
        with pytest.raises(NetlistError, match="never closed"):
            from_spice(".subckt s a b\nr1 a b 1k\n")

    def test_recursive_subckt_rejected(self):
        deck = ".subckt s a b\nx1 a b s\n.ends\n"
        with pytest.raises(NetlistError, match="cycle|itself"):
            parse_deck(deck)

    def test_roundtrip_deck_lints_clean(self):
        amp = synthesize(paper_test_cases()["A"], CMOS_5UM).best
        deck = to_spice(amp.standalone_circuit(), process=CMOS_5UM)
        report = lint_spice_deck(deck, process=CMOS_5UM)
        assert len(report) == 0, report.render_text()


# ----------------------------------------------------------------------
# Strict gates
# ----------------------------------------------------------------------
class TestStrictGates:
    # A simulation is gated by one assert_erc_clean call before the
    # solve: the solver itself never runs the lint pass.
    def test_operating_point_strict_rejects(self):
        circuit = broken_circuit()
        with pytest.raises(LintError) as excinfo:
            assert_erc_clean(circuit, process=CMOS_5UM, context="operating_point")
            operating_point(circuit, CMOS_5UM)
        assert excinfo.value.report is not None
        assert "ERC101" in excinfo.value.report.codes()

    def test_ac_analysis_strict_rejects(self):
        circuit = broken_circuit()
        with pytest.raises(LintError) as excinfo:
            assert_erc_clean(circuit, process=CMOS_5UM, context="ac_analysis")
            ac_analysis(circuit, CMOS_5UM, None, [1e3])
        assert "ERC101" in excinfo.value.report.codes()

    def test_transient_strict_rejects(self):
        circuit = broken_circuit()
        with pytest.raises(LintError) as excinfo:
            assert_erc_clean(circuit, process=CMOS_5UM, context="transient_analysis")
            transient_analysis(
                circuit,
                CMOS_5UM,
                t_stop=1e-6,
                t_step=1e-7,
                stimuli={"vref": step_waveform(0.0, 1.0, 1e-7)},
            )
        assert "ERC101" in excinfo.value.report.codes()

    def test_operating_point_strict_accepts_clean(self):
        c = Circuit("ok")
        _grounded_anchor(c)
        assert len(assert_erc_clean(c, process=CMOS_5UM)) == 0
        result = operating_point(c, CMOS_5UM)
        assert result is not None

    def test_designer_strict_rejects_bad_packager(self, monkeypatch):
        from repro.opamp import designer as designer_module

        original = designer_module._PACKAGERS["one_stage"]

        class BadNetlistAmp:
            def __init__(self, inner):
                self._inner = inner

            def __getattr__(self, item):
                return getattr(self._inner, item)

            def standalone_circuit(self):
                return broken_circuit()

        monkeypatch.setitem(
            designer_module._PACKAGERS,
            "one_stage",
            lambda state, spec, trace: BadNetlistAmp(original(state, spec, trace)),
        )
        with pytest.raises(LintError) as excinfo:
            design_style("one_stage", paper_test_cases()["A"], CMOS_5UM, strict=True)
        assert "ERC101" in excinfo.value.report.codes()

    def test_designer_non_strict_does_not_gate(self, monkeypatch):
        from repro.opamp import designer as designer_module

        original = designer_module._PACKAGERS["one_stage"]

        class BadNetlistAmp:
            def __init__(self, inner):
                self._inner = inner

            def __getattr__(self, item):
                return getattr(self._inner, item)

            def standalone_circuit(self):
                return broken_circuit()

        monkeypatch.setitem(
            designer_module._PACKAGERS,
            "one_stage",
            lambda state, spec, trace: BadNetlistAmp(original(state, spec, trace)),
        )
        amp = design_style("one_stage", paper_test_cases()["A"], CMOS_5UM)
        assert amp.standalone_circuit().name == "broken"

    def test_synthesize_strict_clean_designs_pass(self):
        result = synthesize(paper_test_cases()["A"], CMOS_5UM, strict=True)
        assert result.best is not None


# ----------------------------------------------------------------------
# Report plumbing
# ----------------------------------------------------------------------
class TestReport:
    def test_exit_codes(self):
        assert LintReport().exit_code() == 0
        info = LintReport([Diagnostic("ERC100", Severity.INFO, "x")])
        assert info.exit_code() == 0
        warn = LintReport([Diagnostic("ERC100", Severity.WARNING, "x")])
        assert warn.exit_code() == 1
        err = LintReport([Diagnostic("ERC100", Severity.ERROR, "x")])
        assert err.exit_code() == 2

    def test_json_rendering(self):
        report = lint_circuit(broken_circuit())
        payload = json.loads(report.to_json())
        assert payload["summary"]["errors"] == 1
        assert payload["diagnostics"][0]["code"] == "ERC101"
        assert payload["summary"]["exit_code"] == 2

    def test_text_rendering_orders_worst_first(self):
        report = LintReport(
            [
                Diagnostic("ERC104", Severity.WARNING, "warn here"),
                Diagnostic("ERC101", Severity.ERROR, "err here"),
            ]
        )
        text = report.render_text()
        assert text.index("ERC101") < text.index("ERC104")
        assert "1 error(s), 1 warning(s)" in text

    def test_assert_erc_clean_attaches_report(self):
        with pytest.raises(LintError) as excinfo:
            assert_erc_clean(broken_circuit(), context="gate")
        assert str(excinfo.value).startswith("gate:")
        assert excinfo.value.report.has_errors

    def test_select_and_ignore_filters(self):
        c = Circuit("c")
        _grounded_anchor(c)
        c.add_resistor("r1", "anchor", "floating", 1e3)
        assert lint_circuit(c, select=["ERC102"]).codes() == []
        assert lint_circuit(c, ignore=["ERC101"]).codes() == []
        assert lint_circuit(c, select=["ERC101"]).codes() == ["ERC101"]
