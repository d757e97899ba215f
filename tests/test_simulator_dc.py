"""DC operating-point solver tests against hand-calculable circuits."""

import math

import pytest

from repro.circuit import GROUND, Circuit
from repro.errors import SimulationError
from repro.process import CMOS_3UM, CMOS_5UM
from repro.simulator import MnaSystem, operating_point
from repro.simulator.dc import _op_cache_key


class TestLinearCircuits:
    def test_resistive_divider(self):
        c = Circuit("divider")
        c.add_vsource("vin", "a", GROUND, dc=10.0)
        c.add_resistor("r1", "a", "mid", 1e3)
        c.add_resistor("r2", "mid", GROUND, 1e3)
        op = operating_point(c, CMOS_5UM)
        assert op.voltage("mid") == pytest.approx(5.0, rel=1e-6)

    def test_source_current(self):
        c = Circuit("loop")
        c.add_vsource("v1", "a", GROUND, dc=5.0)
        c.add_resistor("r1", "a", GROUND, 1e3)
        op = operating_point(c, CMOS_5UM)
        # Branch current is measured flowing INTO the + terminal; a source
        # delivering power therefore reads negative: -5 mA here.
        assert op.supply_current("v1") == pytest.approx(-5e-3, rel=1e-6)

    def test_current_source_into_resistor(self):
        c = Circuit("isrc")
        c.add_isource("i1", GROUND, "out", dc=1e-3)  # pushes into out
        c.add_resistor("r1", "out", GROUND, 2e3)
        op = operating_point(c, CMOS_5UM)
        assert op.voltage("out") == pytest.approx(2.0, rel=1e-6)

    def test_capacitor_open_at_dc(self):
        c = Circuit("rc")
        c.add_vsource("vin", "a", GROUND, dc=3.0)
        c.add_resistor("r1", "a", "out", 1e3)
        c.add_capacitor("c1", "out", GROUND, 1e-9)
        op = operating_point(c, CMOS_5UM)
        assert op.voltage("out") == pytest.approx(3.0, rel=1e-4)

    def test_ground_voltage_is_zero(self):
        c = Circuit("simple")
        c.add_vsource("v1", "a", GROUND, dc=1.0)
        c.add_resistor("r1", "a", GROUND, 1e3)
        op = operating_point(c, CMOS_5UM)
        assert op.voltage(GROUND) == 0.0

    def test_series_sources(self):
        c = Circuit("series")
        c.add_vsource("v1", "a", GROUND, dc=2.0)
        c.add_vsource("v2", "b", "a", dc=3.0)
        c.add_resistor("r1", "b", GROUND, 1e3)
        op = operating_point(c, CMOS_5UM)
        assert op.voltage("b") == pytest.approx(5.0, rel=1e-6)

    def test_unknown_node_raises(self):
        c = Circuit("simple")
        c.add_vsource("v1", "a", GROUND, dc=1.0)
        c.add_resistor("r1", "a", GROUND, 1e3)
        op = operating_point(c, CMOS_5UM)
        with pytest.raises(SimulationError):
            op.voltage("missing")


class TestMosfetBias:
    def test_diode_connected_nmos(self):
        """A diode-connected NMOS fed by a current source settles at the
        square-law gate voltage."""
        c = Circuit("diode")
        c.add_isource("ibias", "vdd_node", "d", dc=10e-6)
        c.add_vsource("vdd", "vdd_node", GROUND, dc=5.0)
        c.add_mosfet("m1", "d", "d", GROUND, GROUND, "nmos", 50e-6, 5e-6)
        op = operating_point(c, CMOS_5UM)
        v = op.voltage("d")
        # V = VT + sqrt(2*I/beta), beta = 24u * 10 = 240u
        beta = CMOS_5UM.nmos.kp * 10
        expected = 1.0 + math.sqrt(2 * 10e-6 / beta)
        # lambda makes it slightly lower; allow a few percent
        assert v == pytest.approx(expected, rel=0.05)
        assert op.device("m1").saturated

    def test_nmos_common_source_amplifier_bias(self):
        """NMOS with resistive load: check KCL balance by hand."""
        c = Circuit("cs")
        c.add_vsource("vdd", "vdd", GROUND, dc=5.0)
        c.add_vsource("vg", "g", GROUND, dc=1.5)
        c.add_resistor("rl", "vdd", "d", 100e3)
        c.add_mosfet("m1", "d", "g", GROUND, GROUND, "nmos", 10e-6, 5e-6)
        op = operating_point(c, CMOS_5UM)
        vd = op.voltage("d")
        ids = op.device("m1").ids
        # KCL at drain: (5 - vd)/100k = ids
        assert (5.0 - vd) / 100e3 == pytest.approx(ids, rel=1e-4)
        assert 0.0 < vd < 5.0

    def test_cmos_inverter_midpoint(self):
        c = Circuit("inverter")
        c.add_vsource("vdd", "vdd", GROUND, dc=5.0)
        c.add_vsource("vin", "in", GROUND, dc=2.5)
        # PMOS 3x wider compensates mobility: switch point near mid-rail.
        c.add_mosfet("mp", "out", "in", "vdd", "vdd", "pmos", 30e-6, 5e-6)
        c.add_mosfet("mn", "out", "in", GROUND, GROUND, "nmos", 10e-6, 5e-6)
        c.add_resistor("rl", "out", GROUND, 1e9)  # leak to define node
        op = operating_point(c, CMOS_5UM)
        assert 1.5 < op.voltage("out") < 3.5

    def test_inverter_rails(self):
        c = Circuit("inverter")
        c.add_vsource("vdd", "vdd", GROUND, dc=5.0)
        c.add_vsource("vin", "in", GROUND, dc=0.0)
        c.add_mosfet("mp", "out", "in", "vdd", "vdd", "pmos", 30e-6, 5e-6)
        c.add_mosfet("mn", "out", "in", GROUND, GROUND, "nmos", 10e-6, 5e-6)
        c.add_resistor("rl", "out", GROUND, 1e9)
        op = operating_point(c, CMOS_5UM)
        # Input low -> PMOS on -> output within a few mV of the rail.
        assert op.voltage("out") == pytest.approx(5.0, abs=0.05)

    def test_nmos_current_mirror_copies(self):
        c = Circuit("mirror")
        c.add_vsource("vdd", "vdd", GROUND, dc=5.0)
        c.add_isource("iref", "vdd", "ref", dc=20e-6)
        c.add_mosfet("m1", "ref", "ref", GROUND, GROUND, "nmos", 50e-6, 5e-6)
        c.add_mosfet("m2", "out", "ref", GROUND, GROUND, "nmos", 50e-6, 5e-6)
        c.add_resistor("rl", "vdd", "out", 50e3)
        op = operating_point(c, CMOS_5UM)
        i_out = op.device("m2").ids
        # Mirror ratio 1:1 within lambda mismatch (few percent).
        assert i_out == pytest.approx(20e-6, rel=0.1)

    def test_mirror_ratio_2to1(self):
        c = Circuit("mirror2")
        c.add_vsource("vdd", "vdd", GROUND, dc=5.0)
        c.add_isource("iref", "vdd", "ref", dc=20e-6)
        c.add_mosfet("m1", "ref", "ref", GROUND, GROUND, "nmos", 25e-6, 5e-6)
        c.add_mosfet("m2", "out", "ref", GROUND, GROUND, "nmos", 50e-6, 5e-6)
        c.add_resistor("rl", "vdd", "out", 25e3)
        op = operating_point(c, CMOS_5UM)
        assert op.device("m2").ids == pytest.approx(40e-6, rel=0.1)

    def test_pmos_mirror(self):
        c = Circuit("pmirror")
        c.add_vsource("vdd", "vdd", GROUND, dc=5.0)
        c.add_isource("iref", "ref", GROUND, dc=20e-6)  # pulls from PMOS
        c.add_mosfet("m1", "ref", "ref", "vdd", "vdd", "pmos", 60e-6, 5e-6)
        c.add_mosfet("m2", "out", "ref", "vdd", "vdd", "pmos", 60e-6, 5e-6)
        c.add_resistor("rl", "out", GROUND, 50e3)
        op = operating_point(c, CMOS_5UM)
        # PMOS drain current is negative (flows out of drain into load).
        assert -op.device("m2").ids == pytest.approx(20e-6, rel=0.1)

    def test_device_op_accessible(self):
        c = Circuit("diode")
        c.add_isource("ibias", GROUND, "d", dc=10e-6)
        c.add_mosfet("m1", "d", "d", GROUND, GROUND, "nmos", 50e-6, 5e-6)
        op = operating_point(c, CMOS_5UM)
        assert op.device("M1").ids == pytest.approx(10e-6, rel=1e-3)
        with pytest.raises(SimulationError):
            op.device("m99")

    def test_total_power_positive(self):
        c = Circuit("divider")
        c.add_vsource("v1", "a", GROUND, dc=10.0)
        c.add_resistor("r1", "a", GROUND, 1e3)
        op = operating_point(c, CMOS_5UM)
        assert op.total_power() == pytest.approx(0.1, rel=1e-6)

    def test_iterations_reported(self):
        c = Circuit("divider")
        c.add_vsource("v1", "a", GROUND, dc=1.0)
        c.add_resistor("r1", "a", GROUND, 1e3)
        op = operating_point(c, CMOS_5UM)
        assert op.iterations >= 1


class TestConvergenceMachinery:
    def test_initial_guess_respected(self):
        c = Circuit("diode")
        c.add_isource("ibias", GROUND, "d", dc=10e-6)
        c.add_mosfet("m1", "d", "d", GROUND, GROUND, "nmos", 50e-6, 5e-6)
        baseline = operating_point(c, CMOS_5UM)
        seeded = operating_point(
            c, CMOS_5UM, initial_guess={"d": baseline.voltage("d")}
        )
        assert seeded.voltage("d") == pytest.approx(baseline.voltage("d"), abs=1e-6)
        assert seeded.iterations <= baseline.iterations

    def test_stacked_diode_chain(self):
        """A 4-high stack of diode-connected devices is a classic
        convergence torture test."""
        c = Circuit("stack")
        c.add_vsource("vdd", "vdd", GROUND, dc=10.0)
        c.add_resistor("rbias", "vdd", "n4", 100e3)
        prev = GROUND
        for k in range(1, 5):
            node = f"n{k}"
            c.add_mosfet(f"m{k}", node, node, prev, GROUND, "nmos", 20e-6, 5e-6)
            prev = node
        op = operating_point(c, CMOS_5UM)
        # Each stage drops more than a threshold.
        assert op.voltage("n4") > 4 * 1.0
        # Current through rbias equals drain current of each device.
        i_r = (10.0 - op.voltage("n4")) / 100e3
        assert op.device("m1").ids == pytest.approx(i_r, rel=1e-3)


def _divider():
    c = Circuit("divider")
    c.add_vsource("vin", "a", GROUND, dc=1.0)
    c.add_resistor("r1", "a", "b", 1e3)
    c.add_resistor("r2", "b", GROUND, 1e3)
    return c


class TestSourceValues:
    """Independent-source values are an input of the solve."""

    def test_built_system_solves_at_given_values(self):
        system = MnaSystem(_divider(), CMOS_5UM)
        op = operating_point(system, CMOS_5UM, source_values={"VIN": 4.0})
        assert op.voltage("b") == pytest.approx(2.0, rel=1e-9)
        # A solve that names no values is back at the netlist value.
        assert operating_point(system, CMOS_5UM).voltage("b") == pytest.approx(0.5)

    def test_total_power_uses_the_driven_value(self):
        op = operating_point(_divider(), CMOS_5UM, source_values={"vin": 2.0})
        assert op.total_power() == pytest.approx(2.0**2 / 2e3, rel=1e-6)

    def test_current_source_value(self):
        c = Circuit("isrc")
        c.add_isource("i1", GROUND, "out", dc=1e-3)
        c.add_resistor("r1", "out", GROUND, 2e3)
        op = operating_point(c, CMOS_5UM, source_values={"i1": 2e-3})
        assert op.voltage("out") == pytest.approx(4.0, rel=1e-6)

    def test_unknown_source_rejected(self):
        with pytest.raises(SimulationError, match="no independent source"):
            operating_point(_divider(), CMOS_5UM, source_values={"r1": 1.0})

    def test_built_system_keeps_its_own_process_and_shifts(self):
        system = MnaSystem(_divider(), CMOS_5UM)
        with pytest.raises(SimulationError):
            operating_point(system, CMOS_3UM)
        with pytest.raises(SimulationError):
            operating_point(system, CMOS_5UM, vth_shifts={"m1": 0.01})

    def test_plain_solve_keeps_its_op_cache_key(self):
        # The key a solve without source values has always had.
        assert _op_cache_key(_divider(), CMOS_5UM, None, 150, None) == (
            "b8d0b66f4eeba7a118df7aa8ffed7bfc2dd4afb0dc5e1ee166cdbfd5392a4cfc"
        )
        assert _op_cache_key(_divider(), CMOS_5UM, None, 150, None, {}) == (
            _op_cache_key(_divider(), CMOS_5UM, None, 150, None)
        )
        assert _op_cache_key(
            _divider(), CMOS_5UM, None, 150, None, {"vin": 1.0}
        ) != _op_cache_key(_divider(), CMOS_5UM, None, 150, None)
