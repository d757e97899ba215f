"""Tests for the operating-point report."""

from repro.circuit import GROUND, Circuit
from repro.process import CMOS_5UM
from repro.simulator import op_report, operating_point


def biased_pair() -> Circuit:
    c = Circuit("bias_check")
    c.add_vsource("vdd", "vdd", GROUND, dc=5.0)
    c.add_vsource("vg_on", "gon", GROUND, dc=2.0)
    c.add_vsource("vg_off", "goff", GROUND, dc=0.2)
    c.add_vsource("vg_lin", "glin", GROUND, dc=4.5)
    c.add_resistor("r1", "vdd", "d1", 100e3)
    c.add_resistor("r2", "vdd", "d2", 100e3)
    c.add_resistor("r3", "vdd", "d3", 5e3)
    c.add_mosfet("m_sat", "d1", "gon", GROUND, GROUND, "nmos", 10e-6, 5e-6)
    c.add_mosfet("m_off", "d2", "goff", GROUND, GROUND, "nmos", 10e-6, 5e-6)
    c.add_mosfet("m_lin", "d3", "glin", GROUND, GROUND, "nmos", 100e-6, 5e-6)
    return c


class TestOpReport:
    def test_flags(self):
        circuit = biased_pair()
        op = operating_point(circuit, CMOS_5UM)
        report = op_report(circuit, op)
        lines = {line.split()[0]: line for line in report.splitlines() if line.startswith("m_")}
        assert "!off" in lines["m_off"]
        assert "!lin" in lines["m_lin"]
        assert "!off" not in lines["m_sat"] and "!lin" not in lines["m_sat"]

    def test_edge_flag(self):
        c = Circuit("edge")
        c.add_vsource("vdd", "vdd", GROUND, dc=5.0)
        c.add_vsource("vg", "g", GROUND, dc=3.0)
        # Drain held just above vdsat (vov = 2.0): vds = 2.1 -> ~edge.
        c.add_vsource("vd", "d", GROUND, dc=2.1)
        c.add_mosfet("m1", "d", "g", GROUND, GROUND, "nmos", 10e-6, 5e-6)
        c.add_resistor("rload", "vdd", "d", 1e6)
        op = operating_point(c, CMOS_5UM)
        assert "~edge" in op_report(c, op)

    def test_contains_nodes_and_power(self):
        circuit = biased_pair()
        op = operating_point(circuit, CMOS_5UM)
        report = op_report(circuit, op, title="my bench")
        assert "my bench" in report
        assert "Node voltages" in report
        assert "Supply power" in report
        assert "d1" in report
