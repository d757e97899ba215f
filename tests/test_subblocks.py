"""Tests for the sub-block designers: sizing helpers, mirrors, pairs,
level shifters, gm stages and bias networks.

Several tests close the loop: they emit the designed sub-block into a
netlist, bias it with the in-repo simulator, and check the measured
currents/small-signal values against the designer's predictions.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.circuit import GROUND, CircuitBuilder
from repro.errors import SynthesisError
from repro.kb import DesignTrace
from repro.process import CMOS_5UM
from repro.simulator import operating_point
from repro.subblocks import (
    BiasSpec,
    DiffPairSpec,
    GmStageSpec,
    LevelShifterSpec,
    MirrorSpec,
    design_bias,
    design_current_mirror,
    design_diff_pair,
    design_gm_stage,
    design_level_shifter,
    emit_bias,
    emit_diff_pair,
    emit_mirror,
)
from repro.subblocks.sizing import (
    VOV_MAX,
    VOV_MIN,
    WIDTH_MAX,
    size_for_gm_id,
    size_for_vov,
    snap_width,
)


class TestSizingHelpers:
    def test_size_for_vov_square_law(self):
        dev = size_for_vov(CMOS_5UM.nmos, CMOS_5UM, 10e-6, 0.25, 5e-6)
        # Check Id = beta/2 * vov^2 self-consistency.
        beta = CMOS_5UM.nmos.beta(dev.width, dev.length)
        assert 0.5 * beta * dev.vov**2 == pytest.approx(10e-6, rel=1e-6)

    def test_size_for_vov_snapping_lowers_vov(self):
        # Snapping can only widen the device, so actual vov <= requested.
        dev = size_for_vov(CMOS_5UM.nmos, CMOS_5UM, 10e-6, 0.3, 5e-6)
        assert dev.vov <= 0.3 + 1e-9

    def test_size_for_gm_id(self):
        dev = size_for_gm_id(CMOS_5UM.nmos, CMOS_5UM, 100e-6, 10e-6, 5e-6)
        assert dev.gm == pytest.approx(100e-6, rel=0.02)

    def test_vov_out_of_range_rejected(self):
        with pytest.raises(SynthesisError):
            size_for_vov(CMOS_5UM.nmos, CMOS_5UM, 10e-6, VOV_MIN / 2, 5e-6)
        with pytest.raises(SynthesisError):
            size_for_vov(CMOS_5UM.nmos, CMOS_5UM, 10e-6, VOV_MAX * 2, 5e-6)

    def test_width_limit_enforced(self):
        with pytest.raises(SynthesisError, match="width"):
            # Huge current at tiny vov -> absurd width.
            size_for_vov(CMOS_5UM.nmos, CMOS_5UM, 0.1, VOV_MIN, 5e-6)

    def test_snap_width_grid(self):
        w = snap_width(10.3e-6, CMOS_5UM)
        assert w == pytest.approx(10.5e-6)

    def test_snap_width_minimum(self):
        assert snap_width(1e-6, CMOS_5UM) == pytest.approx(CMOS_5UM.min_width)

    def test_vgs_magnitude(self):
        dev = size_for_vov(CMOS_5UM.nmos, CMOS_5UM, 10e-6, 0.25, 5e-6)
        assert dev.vgs_magnitude == pytest.approx(1.0 + dev.vov, rel=1e-6)

    @given(
        st.floats(min_value=1e-6, max_value=200e-6),
        st.floats(min_value=0.12, max_value=1.0),
    )
    @settings(max_examples=50)
    def test_sizing_roundtrip_property(self, ids, vov):
        from hypothesis import assume

        # Combinations whose width exceeds the design limit legitimately
        # raise; the invariant under test concerns successful sizings.
        beta = 2.0 * ids / (vov * vov)
        assume(beta * 5e-6 / CMOS_5UM.nmos.kp < WIDTH_MAX * 0.99)
        dev = size_for_vov(CMOS_5UM.nmos, CMOS_5UM, ids, vov, 5e-6)
        # gm * vov / 2 must equal Id at the actual design point.
        assert dev.gm * dev.vov / 2 == pytest.approx(ids, rel=1e-6)


class TestCurrentMirror:
    def spec(self, **overrides):
        base = dict(
            polarity="nmos",
            i_in=20e-6,
            i_out=20e-6,
            rout_min=1e5,
            headroom=2.0,
            length_max=20e-6,
        )
        base.update(overrides)
        return MirrorSpec(**base)

    def test_simple_wins_on_area_when_feasible(self):
        mirror = design_current_mirror(self.spec(), CMOS_5UM)
        assert mirror.style == "simple"
        assert mirror.transistor_count == 2

    def test_cascode_selected_for_high_rout(self):
        mirror = design_current_mirror(self.spec(rout_min=5e8), CMOS_5UM)
        assert mirror.style == "cascode"
        assert mirror.transistor_count == 4

    def test_cascode_heuristic_equal_widths_min_length(self):
        """The paper's quoted heuristic: cascode devices at minimum
        length, all four widths equal."""
        mirror = design_current_mirror(self.spec(rout_min=5e8), CMOS_5UM)
        widths = {dev.width for _, dev in mirror.devices}
        assert len(widths) == 1
        assert mirror.device("ref_cascode").length == CMOS_5UM.min_length
        assert mirror.device("out_cascode").length == CMOS_5UM.min_length

    def test_infeasible_when_headroom_too_small_for_cascode(self):
        with pytest.raises(SynthesisError):
            design_current_mirror(
                self.spec(rout_min=50e6, headroom=0.6), CMOS_5UM
            )

    def test_rout_unreachable_raises(self):
        with pytest.raises(SynthesisError, match="no design style"):
            design_current_mirror(self.spec(rout_min=1e13), CMOS_5UM)

    def test_ratio_mirror(self):
        mirror = design_current_mirror(self.spec(i_out=60e-6), CMOS_5UM)
        ref = mirror.device("ref")
        out = mirror.device("out")
        assert out.width / ref.width == pytest.approx(3.0, rel=0.1)

    def test_simple_length_solved_from_rout(self):
        """A harder rout target makes the simple style solve a longer
        channel (style fixed to isolate the length logic)."""
        easy = design_current_mirror(
            self.spec(rout_min=1e5), CMOS_5UM, styles=("simple",)
        )
        hard = design_current_mirror(
            self.spec(rout_min=8e6), CMOS_5UM, styles=("simple",)
        )
        assert hard.device("ref").length > easy.device("ref").length
        assert hard.rout >= 8e6

    def test_cascode_smaller_than_long_simple_at_high_rout(self):
        """At demanding rout the 4T cascode beats the long-channel simple
        mirror on area -- which is why area-based selection cascades."""
        simple = design_current_mirror(
            self.spec(rout_min=8e6), CMOS_5UM, styles=("simple",)
        )
        chosen = design_current_mirror(self.spec(rout_min=8e6), CMOS_5UM)
        assert chosen.style == "cascode"
        assert chosen.area < simple.area

    def test_length_budget_enforced(self):
        # rout needs L beyond length_max for simple, and cascode is
        # blocked by headroom: infeasible.
        with pytest.raises(SynthesisError):
            design_current_mirror(
                self.spec(rout_min=8e6, length_max=6e-6, headroom=0.6), CMOS_5UM
            )

    def test_pole_frequencies(self):
        simple = design_current_mirror(self.spec(), CMOS_5UM)
        assert len(simple.pole_frequencies_hz(CMOS_5UM)) == 1
        cascode = design_current_mirror(self.spec(rout_min=5e8), CMOS_5UM)
        poles = cascode.pole_frequencies_hz(CMOS_5UM)
        assert len(poles) == 2
        assert all(p > 0 for p in poles)

    def test_trace_records_selection(self):
        trace = DesignTrace()
        design_current_mirror(self.spec(), CMOS_5UM, trace=trace, block="load")
        assert trace.count("selection") >= 2

    def test_bad_spec_rejected(self):
        with pytest.raises(SynthesisError):
            MirrorSpec("nmos", -1e-6, 1e-6, 1e5, 2.0, 20e-6)

    def test_wide_swing_opt_in_only(self):
        """The default catalogue stays the paper's (simple, cascode)."""
        from repro.subblocks.current_mirror import (
            EXTENDED_MIRROR_STYLES,
            MIRROR_STYLES,
        )

        assert MIRROR_STYLES == ("simple", "cascode")
        assert "wide_swing" in EXTENDED_MIRROR_STYLES

    def test_wide_swing_low_headroom_high_rout(self):
        """Wide-swing reaches cascode-grade rout where the classic
        cascode no longer fits the headroom."""
        from repro.subblocks.current_mirror import EXTENDED_MIRROR_STYLES

        spec = self.spec(rout_min=5e8, headroom=0.7)
        # Classic catalogue: infeasible (cascode needs vth + 2 vov).
        with pytest.raises(SynthesisError):
            design_current_mirror(spec, CMOS_5UM)
        mirror = design_current_mirror(
            spec, CMOS_5UM, styles=EXTENDED_MIRROR_STYLES
        )
        assert mirror.style == "wide_swing"
        assert mirror.rout >= 5e8
        assert mirror.v_required <= 0.7

    def test_wide_swing_simulated(self):
        """The emitted wide-swing mirror copies the current with every
        stacked device saturated at only ~0.8 V of output headroom."""
        from repro.subblocks.current_mirror import EXTENDED_MIRROR_STYLES

        mirror = design_current_mirror(
            self.spec(rout_min=5e8, headroom=0.8),
            CMOS_5UM,
            styles=EXTENDED_MIRROR_STYLES,
        )
        b = CircuitBuilder("tb", CMOS_5UM, vss_node=GROUND)
        b.vsource("dd", "vdd", GROUND, dc=5.0)
        b.isource("ref", "vdd", "in", dc=20e-6)
        b.vsource("probe", "out", GROUND, dc=0.8)
        emit_mirror(b, mirror, "in", "out", GROUND)
        op = operating_point(b.build(), CMOS_5UM)
        assert op.device("mmoutc").ids == pytest.approx(20e-6, rel=0.1)
        for name in ("mmref", "mmrefc", "mmout", "mmoutc"):
            assert op.device(name).saturated, name

    def test_simple_mirror_simulated_copy(self):
        """Emit a designed simple mirror and verify the copy accuracy in
        the simulator."""
        mirror = design_current_mirror(self.spec(), CMOS_5UM)
        b = CircuitBuilder("tb", CMOS_5UM, vss_node=GROUND)
        b.vsource("dd", "vdd", GROUND, dc=5.0)
        b.isource("ref", "vdd", "in", dc=20e-6)
        b.resistor("rl", "vdd", "out", 50e3)
        emit_mirror(b, mirror, "in", "out", GROUND)
        op = operating_point(b.build(), CMOS_5UM)
        assert op.device("mmout").ids == pytest.approx(20e-6, rel=0.05)

    def test_cascode_mirror_simulated_copy_and_rout(self):
        mirror = design_current_mirror(self.spec(rout_min=5e8), CMOS_5UM)
        b = CircuitBuilder("tb", CMOS_5UM, vss_node=GROUND)
        b.vsource("dd", "vdd", GROUND, dc=5.0)
        b.isource("ref", "vdd", "in", dc=20e-6)
        b.vsource("probe", "out", GROUND, dc=3.0)
        emit_mirror(b, mirror, "in", "out", GROUND)
        op = operating_point(b.build(), CMOS_5UM)
        assert op.device("mmoutc").ids == pytest.approx(20e-6, rel=0.05)
        # All four devices saturated at 3 V output.
        for name in ("mmref", "mmrefc", "mmout", "mmoutc"):
            assert op.device(name).saturated


class TestDiffPair:
    def test_gm_achieved(self):
        pair = design_diff_pair(
            DiffPairSpec("nmos", gm=100e-6, i_tail=20e-6, length=5e-6), CMOS_5UM
        )
        assert pair.gm == pytest.approx(100e-6, rel=0.02)

    def test_vov_is_itail_over_gm(self):
        pair = design_diff_pair(
            DiffPairSpec("nmos", gm=100e-6, i_tail=20e-6, length=5e-6), CMOS_5UM
        )
        assert pair.vov == pytest.approx(20e-6 / 100e-6, rel=0.05)

    def test_area_counts_both_halves(self):
        pair = design_diff_pair(
            DiffPairSpec("nmos", gm=100e-6, i_tail=20e-6, length=5e-6), CMOS_5UM
        )
        assert pair.area == pytest.approx(
            2 * pair.device.active_area(CMOS_5UM), rel=1e-9
        )

    def test_input_capacitance_positive(self):
        pair = design_diff_pair(
            DiffPairSpec("pmos", gm=50e-6, i_tail=10e-6, length=5e-6), CMOS_5UM
        )
        assert pair.input_capacitance(CMOS_5UM) > 0

    def test_weak_inversion_request_rejected(self):
        # gm too large for the current -> vov below trusted range.
        with pytest.raises(SynthesisError):
            design_diff_pair(
                DiffPairSpec("nmos", gm=1e-3, i_tail=10e-6, length=5e-6), CMOS_5UM
            )

    def test_simulated_balance(self):
        """Emitted pair splits the tail current evenly at balance and
        shows the designed gm."""
        pair = design_diff_pair(
            DiffPairSpec("nmos", gm=100e-6, i_tail=20e-6, length=5e-6), CMOS_5UM
        )
        b = CircuitBuilder("tb", CMOS_5UM)
        b.vsource("dd", "vdd", GROUND, dc=5.0)
        b.vsource("ss", "vss", GROUND, dc=-5.0)
        b.vsource("icm", "cm", GROUND, dc=0.0)
        b.resistor("r1", "vdd", "d1", 50e3)
        b.resistor("r2", "vdd", "d2", 50e3)
        b.isource("tail", "t", "vss", dc=20e-6)
        emit_diff_pair(b, pair, "cm", "cm", "d1", "d2", "t")
        op = operating_point(b.build(), CMOS_5UM)
        i1 = op.device("mm1").ids
        i2 = op.device("mm2").ids
        assert i1 == pytest.approx(i2, rel=1e-3)
        assert i1 + i2 == pytest.approx(20e-6, rel=1e-3)
        assert op.device("mm1").gm == pytest.approx(pair.gm, rel=0.1)


class TestLevelShifter:
    def test_achieves_requested_shift(self):
        shifter = design_level_shifter(
            LevelShifterSpec("nmos", shift=1.3, i_bias=10e-6, length=5e-6), CMOS_5UM
        )
        assert shifter.achieved_shift == pytest.approx(1.3, abs=0.05)

    def test_shift_below_vth_rejected(self):
        with pytest.raises(SynthesisError, match="below"):
            design_level_shifter(
                LevelShifterSpec("nmos", shift=0.9, i_bias=10e-6, length=5e-6),
                CMOS_5UM,
            )

    def test_huge_shift_rejected(self):
        with pytest.raises(SynthesisError, match="above"):
            design_level_shifter(
                LevelShifterSpec("nmos", shift=4.0, i_bias=10e-6, length=5e-6),
                CMOS_5UM,
            )

    def test_follower_gain_below_unity(self):
        shifter = design_level_shifter(
            LevelShifterSpec("nmos", shift=1.3, i_bias=10e-6, length=5e-6), CMOS_5UM
        )
        assert 0.9 < shifter.gain < 1.0


class TestGmStage:
    def test_minimum_current_for_gm(self):
        stage = design_gm_stage(
            GmStageSpec("pmos", gm=200e-6, vov_max=1.0, length=5e-6), CMOS_5UM
        )
        # Picks the smallest trusted overdrive: I = gm*VOV_MIN/2.
        assert stage.bias_current == pytest.approx(200e-6 * VOV_MIN / 2, rel=1e-6)

    def test_slew_floor_respected(self):
        stage = design_gm_stage(
            GmStageSpec("pmos", gm=200e-6, vov_max=1.0, length=5e-6, i_min=50e-6),
            CMOS_5UM,
        )
        assert stage.bias_current == pytest.approx(50e-6)
        assert stage.vov == pytest.approx(2 * 50e-6 / 200e-6, rel=0.05)

    def test_swing_conflict_raises(self):
        # Big current floor + small vov budget -> infeasible.
        with pytest.raises(SynthesisError, match="swing"):
            design_gm_stage(
                GmStageSpec(
                    "pmos", gm=100e-6, vov_max=0.3, length=5e-6, i_min=100e-6
                ),
                CMOS_5UM,
            )

    def test_no_headroom_rejected_at_spec(self):
        with pytest.raises(SynthesisError):
            GmStageSpec("pmos", gm=100e-6, vov_max=-0.1, length=5e-6)


class TestBias:
    def spec(self):
        return BiasSpec(
            polarity="nmos",
            i_ref=20e-6,
            taps=(("tail", 20e-6), ("stage2", 80e-6)),
            length=5e-6,
        )

    def test_legs_sized_by_ratio(self):
        bias = design_bias(self.spec(), CMOS_5UM)
        assert bias.leg("stage2").width / bias.leg("tail").width == pytest.approx(
            4.0, rel=0.1
        )

    def test_unknown_tap_raises(self):
        bias = design_bias(self.spec(), CMOS_5UM)
        with pytest.raises(SynthesisError):
            bias.leg("nope")

    def test_common_overdrive(self):
        bias = design_bias(self.spec(), CMOS_5UM)
        assert bias.leg("tail").vov == pytest.approx(bias.master.vov, rel=0.05)

    def test_simulated_taps(self):
        bias = design_bias(self.spec(), CMOS_5UM)
        b = CircuitBuilder("tb", CMOS_5UM, vss_node=GROUND)
        b.vsource("dd", "vdd", GROUND, dc=5.0)
        b.isource("iref", "vdd", "ref", dc=20e-6)
        b.resistor("r1", "vdd", "tail_node", 20e3)
        b.resistor("r2", "vdd", "s2_node", 10e3)
        emit_bias(
            b,
            bias,
            "ref",
            {"tail": "tail_node", "stage2": "s2_node"},
            GROUND,
        )
        op = operating_point(b.build(), CMOS_5UM)
        assert op.device("mbias_m_tail").ids == pytest.approx(20e-6, rel=0.05)
        assert op.device("mbias_m_stage2").ids == pytest.approx(80e-6, rel=0.05)
