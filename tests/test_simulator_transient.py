"""Transient analysis and DC sweep tests."""

import math

import numpy as np
import pytest

from repro.circuit import GROUND, Circuit
from repro.errors import ConvergenceError, SimulationError
from repro.process import CMOS_5UM
from repro.simulator import MnaSystem, dc_sweep, transient_analysis
from repro.simulator import sweep as sweep_module
from repro.simulator.transient import step_waveform


def _count_system_builds(monkeypatch):
    builds = []
    build = MnaSystem.__init__

    def counting(self, *args, **kwargs):
        builds.append(args[0].name)
        build(self, *args, **kwargs)

    monkeypatch.setattr(MnaSystem, "__init__", counting)
    return builds


class TestStepWaveform:
    def test_levels(self):
        wave = step_waveform(0.0, 1.0, t_step=1e-6, t_rise=1e-9)
        assert wave(0.0) == 0.0
        assert wave(1e-6) == 0.0
        assert wave(1e-6 + 1e-9) == 1.0
        assert wave(1.0) == 1.0

    def test_linear_rise(self):
        wave = step_waveform(0.0, 2.0, t_step=0.0, t_rise=1e-6)
        assert wave(0.5e-6) == pytest.approx(1.0)


class TestRcTransient:
    def test_rc_charging_curve(self):
        """RC step response must match the analytic exponential."""
        circuit = Circuit("rc")
        circuit.add_vsource("vin", "in", GROUND, dc=0.0)
        circuit.add_resistor("r1", "in", "out", 1e3)
        circuit.add_capacitor("c1", "out", GROUND, 1e-9)
        tau = 1e-6
        result = transient_analysis(
            circuit,
            CMOS_5UM,
            t_stop=5e-6,
            t_step=5e-9,
            stimuli={"vin": step_waveform(0.0, 1.0, t_step=0.0, t_rise=1e-9)},
        )
        v_out = result.voltage("out")
        times = result.times
        # Compare at 1, 2, 3 tau.
        for n_tau in (1.0, 2.0, 3.0):
            k = np.argmin(np.abs(times - n_tau * tau))
            expected = 1.0 - math.exp(-times[k] / tau)
            assert v_out[k] == pytest.approx(expected, abs=0.02)

    def test_initial_condition_from_dc(self):
        circuit = Circuit("rc")
        circuit.add_vsource("vin", "in", GROUND, dc=2.0)
        circuit.add_resistor("r1", "in", "out", 1e3)
        circuit.add_capacitor("c1", "out", GROUND, 1e-9)
        result = transient_analysis(circuit, CMOS_5UM, t_stop=1e-7, t_step=1e-9)
        assert result.voltage("out")[0] == pytest.approx(2.0, abs=1e-3)

    def test_times_monotone(self):
        circuit = Circuit("rc")
        circuit.add_vsource("vin", "in", GROUND, dc=1.0)
        circuit.add_resistor("r1", "in", "out", 1e3)
        circuit.add_capacitor("c1", "out", GROUND, 1e-9)
        result = transient_analysis(circuit, CMOS_5UM, t_stop=1e-7, t_step=1e-9)
        assert np.all(np.diff(result.times) > 0)
        assert result.times[-1] == pytest.approx(1e-7, rel=1e-6)

    def test_bad_time_range_rejected(self):
        circuit = Circuit("rc")
        circuit.add_vsource("vin", "in", GROUND, dc=1.0)
        circuit.add_resistor("r1", "in", GROUND, 1e3)
        with pytest.raises(SimulationError):
            transient_analysis(circuit, CMOS_5UM, t_stop=-1.0, t_step=1e-9)
        with pytest.raises(SimulationError):
            transient_analysis(circuit, CMOS_5UM, t_stop=1e-9, t_step=1e-6)

    def test_stimulus_must_name_a_source(self):
        circuit = Circuit("rc")
        circuit.add_vsource("vin", "in", GROUND, dc=1.0)
        circuit.add_resistor("r1", "in", GROUND, 1e3)
        with pytest.raises(SimulationError, match="no independent source"):
            transient_analysis(
                circuit, CMOS_5UM, t_stop=1e-8, t_step=1e-9,
                stimuli={"r1": step_waveform(0.0, 1.0, t_step=0.0)},
            )

    def test_one_system_for_the_initial_point_and_every_step(self, monkeypatch):
        builds = _count_system_builds(monkeypatch)
        circuit = Circuit("rc")
        circuit.add_vsource("vin", "in", GROUND, dc=0.0)
        circuit.add_resistor("r1", "in", "out", 1e3)
        circuit.add_capacitor("c1", "out", GROUND, 1e-9)
        result = transient_analysis(
            circuit, CMOS_5UM, t_stop=1e-7, t_step=1e-9,
            stimuli={"vin": step_waveform(0.5, 1.0, t_step=5e-8, t_rise=1e-9)},
        )
        assert builds == ["rc"]
        # t=0 sits at the stimulus value, not the netlist's 0 V.
        assert result.voltage("in")[0] == pytest.approx(0.5, abs=1e-9)
        assert result.voltage("in")[-1] == pytest.approx(1.0, abs=1e-9)


class TestMosfetTransient:
    def test_inverter_switches(self):
        circuit = Circuit("inv")
        circuit.add_vsource("vdd", "vdd", GROUND, dc=5.0)
        circuit.add_vsource("vin", "in", GROUND, dc=0.0)
        circuit.add_mosfet("mp", "out", "in", "vdd", "vdd", "pmos", 30e-6, 5e-6)
        circuit.add_mosfet("mn", "out", "in", GROUND, GROUND, "nmos", 10e-6, 5e-6)
        circuit.add_capacitor("cl", "out", GROUND, 1e-12)
        result = transient_analysis(
            circuit,
            CMOS_5UM,
            t_stop=2e-7,
            t_step=5e-10,
            stimuli={"vin": step_waveform(0.0, 5.0, t_step=2e-8, t_rise=1e-9)},
        )
        v_out = result.voltage("out")
        assert v_out[0] == pytest.approx(5.0, abs=0.1)   # input low -> out high
        assert v_out[-1] == pytest.approx(0.0, abs=0.1)  # input high -> out low

    def test_current_source_slew_on_capacitor(self):
        """A current step into a capacitor ramps linearly: dV/dt = I/C."""
        circuit = Circuit("ramp")
        circuit.add_isource("i1", GROUND, "out", dc=0.0)
        circuit.add_capacitor("c1", "out", GROUND, 1e-9)
        circuit.add_resistor("r1", "out", GROUND, 1e9)  # DC path
        result = transient_analysis(
            circuit,
            CMOS_5UM,
            t_stop=1e-4,
            t_step=1e-6,
            stimuli={"i1": step_waveform(0.0, 1e-6, t_step=0.0, t_rise=1e-9)},
        )
        v_out = result.voltage("out")
        slope = (v_out[-1] - v_out[50]) / (result.times[-1] - result.times[50])
        assert slope == pytest.approx(1e-6 / 1e-9, rel=0.01)


class TestDcSweep:
    def test_inverter_transfer_curve(self):
        circuit = Circuit("inv")
        circuit.add_vsource("vdd", "vdd", GROUND, dc=5.0)
        circuit.add_vsource("vin", "in", GROUND, dc=0.0)
        circuit.add_mosfet("mp", "out", "in", "vdd", "vdd", "pmos", 30e-6, 5e-6)
        circuit.add_mosfet("mn", "out", "in", GROUND, GROUND, "nmos", 10e-6, 5e-6)
        circuit.add_resistor("rl", "out", GROUND, 1e9)
        sweep = dc_sweep(circuit, CMOS_5UM, "vin", np.linspace(0, 5, 21))
        v_out = sweep.voltages("out")
        assert v_out[0] == pytest.approx(5.0, abs=0.05)
        assert v_out[-1] == pytest.approx(0.0, abs=0.05)
        # Monotone non-increasing transfer curve.
        assert np.all(np.diff(v_out) <= 1e-6)

    def test_sweep_non_source_rejected(self):
        circuit = Circuit("x")
        circuit.add_vsource("vin", "a", GROUND, dc=1.0)
        circuit.add_resistor("r1", "a", GROUND, 1e3)
        with pytest.raises(SimulationError):
            dc_sweep(circuit, CMOS_5UM, "r1", [0.0, 1.0])

    def test_sweep_length(self):
        circuit = Circuit("x")
        circuit.add_vsource("vin", "a", GROUND, dc=1.0)
        circuit.add_resistor("r1", "a", GROUND, 1e3)
        sweep = dc_sweep(circuit, CMOS_5UM, "vin", [0.0, 0.5, 1.0])
        assert len(sweep) == 3
        assert sweep.voltages("a")[1] == pytest.approx(0.5, rel=1e-6)

    def test_sweep_builds_one_system(self, monkeypatch):
        builds = _count_system_builds(monkeypatch)
        circuit = Circuit("x")
        circuit.add_vsource("vin", "a", GROUND, dc=1.0)
        circuit.add_resistor("r1", "a", GROUND, 1e3)
        dc_sweep(circuit, CMOS_5UM, "vin", np.linspace(0.0, 1.0, 5))
        assert builds == ["x"]

    def test_failed_point_is_none_and_the_sweep_goes_on(self, monkeypatch):
        circuit = Circuit("x")
        circuit.add_vsource("vin", "a", GROUND, dc=1.0)
        circuit.add_resistor("r1", "a", GROUND, 1e3)
        solve = sweep_module.operating_point
        guesses = []

        def failing_at_half(system, process, initial_guess, source_values):
            guesses.append(dict(initial_guess))
            if source_values["vin"] == 0.5:
                raise ConvergenceError("planted", 1)
            return solve(
                system, process, initial_guess=initial_guess,
                source_values=source_values,
            )

        monkeypatch.setattr(sweep_module, "operating_point", failing_at_half)
        sweep = dc_sweep(circuit, CMOS_5UM, "vin", [0.0, 0.5, 1.0])
        assert sweep.points[1] is None
        v_a = sweep.voltages("a")
        assert math.isnan(v_a[1])
        assert v_a[2] == pytest.approx(1.0, rel=1e-6)
        # The point after the hole warm-starts from the last converged one.
        assert guesses[2] == guesses[1]

    def test_sweep_a_current_source(self):
        circuit = Circuit("i")
        circuit.add_isource("i1", GROUND, "a", dc=0.0)
        circuit.add_resistor("r1", "a", GROUND, 1e3)
        sweep = dc_sweep(circuit, CMOS_5UM, "i1", [1e-3, 2e-3])
        assert sweep.voltages("a") == pytest.approx([1.0, 2.0], rel=1e-6)
