"""Tests for the closed-loop application layer."""

import pytest

from repro.applications import (
    ClosedLoopSpec,
    design_closed_loop_amp,
    verify_closed_loop,
)
from repro.applications.closed_loop import translate_to_opamp_spec
from repro.errors import SpecificationError, SynthesisError
from repro.process import CMOS_5UM


@pytest.fixture(scope="module")
def gain10():
    return design_closed_loop_amp(
        ClosedLoopSpec(gain=10.0, bandwidth_hz=5e4, gain_error=0.02), CMOS_5UM
    )


@pytest.fixture(scope="module")
def gain10_report(gain10):
    return verify_closed_loop(gain10)


class TestTranslation:
    def test_loop_gain_budget(self):
        spec = ClosedLoopSpec(gain=10.0, bandwidth_hz=5e4, gain_error=0.01)
        opamp_spec = translate_to_opamp_spec(spec)
        # A_ol >= G / eps = 1000 -> 60 dB.
        assert opamp_spec.gain_db == pytest.approx(60.0, abs=0.1)

    def test_bandwidth_times_gain(self):
        spec = ClosedLoopSpec(gain=10.0, bandwidth_hz=5e4)
        assert translate_to_opamp_spec(spec).unity_gain_hz == pytest.approx(5e5)

    def test_loading_factor_raises_gain(self):
        spec = ClosedLoopSpec(gain=10.0, bandwidth_hz=5e4)
        base = translate_to_opamp_spec(spec, 1.0)
        loaded = translate_to_opamp_spec(spec, 10.0)
        assert loaded.gain_db == pytest.approx(base.gain_db + 20.0, abs=0.1)

    def test_bad_specs(self):
        with pytest.raises(SpecificationError):
            ClosedLoopSpec(gain=0.5, bandwidth_hz=1e4)
        with pytest.raises(SpecificationError):
            ClosedLoopSpec(gain=10.0, bandwidth_hz=-1.0)
        with pytest.raises(SpecificationError):
            ClosedLoopSpec(gain=10.0, bandwidth_hz=1e4, gain_error=0.5)


class TestDesign:
    def test_feedback_ratio(self, gain10):
        assert gain10.nominal_gain == pytest.approx(10.0, rel=1e-9)
        assert gain10.r1 + gain10.r2 == pytest.approx(100e3)

    def test_resistive_feedback_forces_low_rout_style(self, gain10):
        """The high-rout OTA can meet the unloaded gain spec but dies
        under the feedback network's loading; the two-stage wins."""
        assert gain10.opamp.style == "two_stage"

    def test_unity_follower_has_no_network(self):
        follower = design_closed_loop_amp(
            ClosedLoopSpec(gain=1.0, bandwidth_hz=1e5), CMOS_5UM
        )
        assert follower.r2 == 0.0
        circuit = follower.build_circuit()
        assert not any(e.name.startswith("rf") for e in circuit.elements)

    def test_impossible_accuracy_raises(self):
        with pytest.raises(SynthesisError, match="loads away|no design style"):
            design_closed_loop_amp(
                ClosedLoopSpec(gain=500.0, bandwidth_hz=1e4, gain_error=0.001),
                CMOS_5UM,
            )


class TestVerified:
    def test_gain_within_budget(self, gain10, gain10_report):
        assert gain10_report["gain"] == pytest.approx(10.0, rel=0.02)
        assert gain10_report["gain_error"] <= gain10.spec.gain_error

    def test_bandwidth_met(self, gain10, gain10_report):
        assert gain10_report["bandwidth_hz"] >= gain10.spec.bandwidth_hz

    def test_no_peaking(self, gain10_report):
        """Gain peaking above ~1 dB would mean the loop is ringing; the
        conservative PM translation keeps the response flat."""
        assert gain10_report["peaking_db"] < 1.0

    def test_follower_tracks_exactly(self):
        follower = design_closed_loop_amp(
            ClosedLoopSpec(gain=1.0, bandwidth_hz=1e5), CMOS_5UM
        )
        report = verify_closed_loop(follower)
        assert report["gain"] == pytest.approx(1.0, rel=5e-3)

    def test_gain_100(self):
        stage = design_closed_loop_amp(
            ClosedLoopSpec(gain=100.0, bandwidth_hz=5e3, gain_error=0.05),
            CMOS_5UM,
        )
        report = verify_closed_loop(stage)
        assert report["gain_error"] <= 0.05
        assert report["bandwidth_hz"] >= 5e3