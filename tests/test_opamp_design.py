"""Tests for the op amp designers: compensation, styles, selection."""

import pytest

from repro import CMOS_5UM, OpAmpSpec, synthesize
from repro.errors import SynthesisError
from repro.opamp.compensation import (
    design_compensation,
    phase_margin_two_stage,
)
from repro.opamp.common import capacitor_area, reconcile_tail_current
from repro.opamp.designer import OPAMP_STYLES, design_style
from repro.opamp.testcases import SPEC_A, SPEC_B, SPEC_C, paper_test_cases


def easy_spec(**overrides):
    base = dict(
        gain_db=45.0,
        unity_gain_hz=1e6,
        phase_margin_deg=60.0,
        slew_rate=2e6,
        load_capacitance=10e-12,
        output_swing=3.5,
    )
    base.update(overrides)
    return OpAmpSpec(**base)


class TestCompensation:
    def test_classic_022_rule(self):
        # PM = 60 deg with gm6/gm1 = 10 reproduces Cc ~ 0.22 CL.
        comp = design_compensation(10e-12, 60.0)
        assert comp.cc == pytest.approx(0.22 * 10e-12, rel=0.02)

    def test_predicted_pm_matches_target(self):
        comp = design_compensation(10e-12, 55.0)
        assert comp.predicted_pm_deg(10e-12) == pytest.approx(55.0, abs=0.1)

    def test_higher_pm_needs_bigger_cc(self):
        loose = design_compensation(10e-12, 45.0)
        tight = design_compensation(10e-12, 70.0)
        assert tight.cc > loose.cc

    def test_unreachable_target_raises(self):
        # With gm ratio 2 the zero costs ~27 deg; asking for 85 fails.
        with pytest.raises(SynthesisError):
            design_compensation(10e-12, 85.0, gm_ratio=2.0)

    def test_cc_floor(self):
        comp = design_compensation(1e-15, 45.0, cc_min=0.5e-12)
        assert comp.cc == 0.5e-12

    def test_pm_model_monotone_in_cc(self):
        pm_small = phase_margin_two_stage(1e-12, 10e-12, 10.0)
        pm_large = phase_margin_two_stage(4e-12, 10e-12, 10.0)
        assert pm_large > pm_small

    def test_bad_inputs(self):
        with pytest.raises(SynthesisError):
            design_compensation(-1e-12, 60.0)
        with pytest.raises(SynthesisError):
            design_compensation(10e-12, 95.0)
        with pytest.raises(SynthesisError):
            phase_margin_two_stage(0.0, 10e-12, 10.0)


class TestCommonHelpers:
    def test_reconcile_raises_current_for_weak_inversion(self):
        i, vov = reconcile_tail_current(gm=100e-6, i_slew_floor=1e-6)
        assert vov == pytest.approx(0.10)
        assert i == pytest.approx(100e-6 * 0.10)

    def test_reconcile_respects_slew_floor(self):
        i, vov = reconcile_tail_current(gm=100e-6, i_slew_floor=50e-6)
        assert i == pytest.approx(50e-6)
        assert vov == pytest.approx(0.5)

    def test_reconcile_infeasible_overdrive(self):
        with pytest.raises(SynthesisError):
            reconcile_tail_current(gm=10e-6, i_slew_floor=100e-6)

    def test_capacitor_area_scales(self):
        small = capacitor_area(1e-12, CMOS_5UM)
        large = capacitor_area(4e-12, CMOS_5UM)
        assert large == pytest.approx(4 * small)


class TestStyleDesigners:
    def test_one_stage_easy_spec(self):
        amp = design_style("one_stage", easy_spec(), CMOS_5UM)
        assert amp.style == "one_stage"
        assert amp.performance["gain_db"] >= 45.0
        assert amp.performance["compensation_cap"] == 0.0
        assert amp.meets_spec()

    def test_two_stage_easy_spec(self):
        amp = design_style("two_stage", easy_spec(), CMOS_5UM)
        assert amp.performance["gain_db"] >= 45.0
        assert amp.performance["compensation_cap"] > 0.0
        assert amp.meets_spec()

    def test_netlist_valid_and_counts(self):
        for style in OPAMP_STYLES:
            amp = design_style(style, easy_spec(), CMOS_5UM)
            circuit = amp.standalone_circuit()
            circuit.validate()
            assert circuit.transistor_count() >= 8

    def test_two_stage_has_miller_cap_in_netlist(self):
        amp = design_style("two_stage", easy_spec(), CMOS_5UM)
        circuit = amp.standalone_circuit()
        caps = [c.name for c in circuit.capacitors]
        assert any("_cc" in name for name in caps)

    def test_schematic_report_renders(self):
        amp = design_style("one_stage", easy_spec(), CMOS_5UM)
        report = amp.schematic()
        assert "transistors" in report

    def test_hierarchy_tree(self):
        amp = design_style("two_stage", easy_spec(), CMOS_5UM)
        names = [b.name for b in amp.hierarchy.children]
        assert "input_pair" in names
        assert "load_mirror" in names
        assert "compensation" in names

    def test_unknown_style_raises(self):
        with pytest.raises(Exception):
            design_style("fully_differential", easy_spec(), CMOS_5UM)

    def test_trace_has_plan_events(self):
        amp = design_style("one_stage", easy_spec(), CMOS_5UM)
        assert amp.trace.count("plan_start") >= 1
        assert amp.trace.count("plan_done") >= 1
        assert len(amp.trace.steps_for("opamp/one_stage")) >= 15


class TestSelection:
    def test_easy_spec_selects_smaller_one_stage(self):
        result = synthesize(easy_spec(gain_db=40.0, output_swing=4.0), CMOS_5UM)
        assert result.style == "one_stage"
        assert len(result.feasible_styles()) == 2
        one = result.candidate("one_stage")
        two = result.candidate("two_stage")
        assert one.cost < two.cost

    def test_style_subset_restriction(self):
        result = synthesize(easy_spec(), CMOS_5UM, styles=("two_stage",))
        assert result.style == "two_stage"
        assert len(result.candidates) == 1

    def test_impossible_spec_raises_with_all_reasons(self):
        impossible = easy_spec(gain_db=140.0)
        with pytest.raises(SynthesisError) as excinfo:
            synthesize(impossible, CMOS_5UM)
        message = str(excinfo.value)
        assert "one_stage" in message
        assert "two_stage" in message

    def test_summary_text(self):
        result = synthesize(easy_spec(), CMOS_5UM)
        text = result.summary()
        assert "Selected style" in text
        assert "gain_db" in text


class TestPaperCases:
    """The qualitative outcomes of Table 2, per the paper's prose."""

    def test_case_a_selects_one_stage(self):
        result = synthesize(SPEC_A, CMOS_5UM)
        assert result.style == "one_stage"
        # Two-stage is also feasible but bigger (the paper: "eliminated
        # on that basis").
        two = result.candidate("two_stage")
        assert two.feasible
        assert result.candidate("one_stage").cost < two.cost

    def test_case_b_selects_simple_two_stage(self):
        result = synthesize(SPEC_B, CMOS_5UM)
        assert result.style == "two_stage"
        assert not result.candidate("one_stage").feasible
        styles = {b.name: b.style for b in result.best.hierarchy.children}
        assert styles["load_mirror"] == "simple"
        assert "level_shifter" not in styles

    def test_case_c_selects_complex_two_stage(self):
        result = synthesize(SPEC_C, CMOS_5UM)
        assert result.style == "two_stage"
        styles = {b.name: b.style for b in result.best.hierarchy.children}
        assert styles["load_mirror"] == "cascode"
        assert styles["tail_mirror"] == "cascode"
        assert "level_shifter" in styles

    def test_case_c_fires_cascode_rule(self):
        result = synthesize(SPEC_C, CMOS_5UM)
        rule_names = [e.step for e in result.trace.rule_firings]
        assert "cascode_first_stage" in rule_names
        assert result.trace.count("restart") >= 1

    def test_case_b_one_stage_fails_on_mirror_conspiracy(self):
        """The gain/offset/swing conspiracy: the one-stage load mirror
        cannot meet the gain (rout) within the swing headroom."""
        with pytest.raises(SynthesisError):
            design_style("one_stage", SPEC_B, CMOS_5UM)

    def test_all_cases_fast(self):
        """The paper: 'usually under 2 minutes of CPU time per op amp'
        on a 1987 VAX; the reproduction must be far faster."""
        import time

        start = time.time()
        for spec in paper_test_cases().values():
            synthesize(spec, CMOS_5UM)
        assert time.time() - start < 30.0
