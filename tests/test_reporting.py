"""Tests for the reporting package (tables, gain-phase, area-gain)."""

import pytest

from repro import CMOS_5UM, OpAmpSpec, synthesize
from repro.reporting import (
    area_gain_sweep,
    gain_phase_series,
    render_area_gain,
    render_gain_phase,
    render_table,
    table1_report,
    table2_report,
)
from repro.reporting.area_gain import AreaGainPoint, topology_changes
from repro.reporting.gainphase import GainPhasePoint


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


@pytest.fixture(scope="module")
def amp():
    return synthesize(easy_spec(), CMOS_5UM).best


class TestRenderTable:
    def test_alignment(self):
        text = render_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert "---" in lines[1]
        assert len(lines) == 4

    def test_title(self):
        text = render_table(["x"], [["1"]], title="My Table")
        assert text.startswith("My Table")

    def test_ragged_rows_padded(self):
        text = render_table(["a", "b", "c"], [["1"]])
        assert "1" in text


class TestTable1:
    def test_contains_process_name(self):
        report = table1_report(CMOS_5UM)
        assert CMOS_5UM.name in report

    def test_fourteen_parameters(self):
        report = table1_report(CMOS_5UM)
        data_lines = [l for l in report.splitlines()[3:] if l.strip()]
        assert len(data_lines) == 14


class TestTable2:
    def test_spec_and_achieved_columns(self, amp):
        report = table2_report({"X": amp})
        assert "X spec" in report
        assert "X achieved" in report
        assert "X measured" not in report

    def test_measured_column_with_reports(self, amp):
        from repro.opamp.verify import VerificationReport

        fake = VerificationReport(measured={"gain_db": 50.0})
        report = table2_report({"X": amp}, {"X": fake})
        assert "X measured" in report
        assert "50.0" in report

    def test_selected_style_row(self, amp):
        report = table2_report({"X": amp})
        assert amp.style in report

    def test_unconstrained_entries_dashed(self, amp):
        # power_max defaults to 0 (unconstrained) -> "-" in the spec col.
        report = table2_report({"X": amp})
        assert "-" in report


class TestGainPhase:
    def test_series_spans_axis(self, amp):
        series = gain_phase_series(amp, f_start=1.0, f_stop=10e6, points_per_decade=2)
        assert series[0].frequency_hz == pytest.approx(1.0)
        assert series[-1].frequency_hz == pytest.approx(10e6)
        assert len(series) == 15

    def test_gain_falls_phase_lags(self, amp):
        series = gain_phase_series(amp)
        assert series[0].gain_db > series[-1].gain_db
        assert series[-1].phase_deg < -45.0

    def test_render_contains_every_point(self, amp):
        series = [
            GainPhasePoint(1.0, 40.0, 0.0),
            GainPhasePoint(1e3, 20.0, -45.0),
        ]
        text = render_gain_phase(series)
        assert "40.0" in text
        assert "-45.0" in text
        assert "*" in text and "o" in text

    def test_render_empty(self):
        assert "empty" in render_gain_phase([])


class TestAreaGain:
    def test_sweep_skips_infeasible(self):
        points = area_gain_sweep(
            easy_spec(),
            CMOS_5UM,
            gains_db=[40.0, 130.0],  # 130 dB is infeasible for any style
            loads_f=[10e-12],
        )
        gains = {p.gain_db for p in points}
        assert 40.0 in gains
        assert 130.0 not in gains

    def test_topology_changes_detected(self):
        points = [
            AreaGainPoint(40.0, 1e-12, "s", 1.0, "load:simple"),
            AreaGainPoint(50.0, 1e-12, "s", 1.2, "load:simple"),
            AreaGainPoint(60.0, 1e-12, "s", 3.0, "load:cascode"),
        ]
        changes = topology_changes(points)
        assert len(changes) == 1
        assert changes[0].gain_db == 60.0

    def test_no_change_within_constant_topology(self):
        points = [
            AreaGainPoint(40.0, 1e-12, "s", 1.0, "x"),
            AreaGainPoint(50.0, 1e-12, "s", 1.0, "x"),
        ]
        assert topology_changes(points) == []

    def test_render_groups_by_load(self):
        points = [
            AreaGainPoint(40.0, 5e-12, "one_stage", 1e-8, "x"),
            AreaGainPoint(40.0, 20e-12, "one_stage", 2e-8, "x"),
        ]
        text = render_area_gain(points)
        assert "Load 5 pF" in text
        assert "Load 20 pF" in text

    def test_render_empty(self):
        assert "no feasible" in render_area_gain([])
