"""Newton solver edge cases and retry-ladder determinism properties.

Covers the failure modes that the escalation ladder must convert into
structured, chained :class:`~repro.errors.ConvergenceError`s --
singular Jacobians, non-finite updates, zero-iteration budgets -- plus
hypothesis properties that the whole solve path is deterministic: the
same circuit solved twice yields bit-identical voltages, identical
iteration counts, and an identical rung history.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit import GROUND, Circuit
from repro.errors import BudgetExceeded, ConvergenceError
from repro.kb.trace import DesignTrace
from repro.process import CMOS_5UM
from repro.resilience import Budget, inject
from repro.simulator import operating_point
from repro.simulator.dc import newton_solve


class _FakeSystem:
    """Minimal stand-in for MnaSystem: scripted residual/Jacobian, with
    a count of each kind of assembly."""

    def __init__(self, assemble, n_nodes=2):
        self._assemble = assemble
        self.n_nodes = n_nodes
        self.size = n_nodes
        self.calls = {"system": 0, "residual": 0}

    def assemble_dc_system(self, x, gmin, source_scale):
        self.calls["system"] += 1
        return self._assemble(x, gmin, source_scale)

    def assemble_dc_residual(self, x, gmin, source_scale):
        self.calls["residual"] += 1
        return self._assemble(x, gmin, source_scale)[0]


def _cube_root_of_8(x, gmin, scale):
    """F = (x0**3 - 8, x1 - 1): converges in a handful of steps."""
    residual = np.array([x[0] ** 3 - 8.0, x[1] - 1.0])
    return residual, np.diag([3.0 * x[0] ** 2, 1.0])


class TestNewtonEdgeCases:
    def test_singular_jacobian_raises_convergence_error(self):
        def assemble(x, gmin, scale):
            return np.ones(2), np.zeros((2, 2))

        system = _FakeSystem(assemble)
        with pytest.raises(ConvergenceError, match="singular Jacobian"):
            newton_solve(system, np.zeros(2), 1e-12, 1.0)

    def test_singular_jacobian_chains_linalg_error(self):
        def assemble(x, gmin, scale):
            return np.ones(2), np.zeros((2, 2))

        system = _FakeSystem(assemble)
        with pytest.raises(ConvergenceError) as excinfo:
            newton_solve(system, np.zeros(2), 1e-12, 1.0)
        assert isinstance(excinfo.value.__cause__, np.linalg.LinAlgError)
        assert excinfo.value.iterations == 1

    def test_non_finite_update_raises(self):
        def assemble(x, gmin, scale):
            return np.array([np.inf, 0.0]), np.eye(2)

        system = _FakeSystem(assemble)
        with pytest.raises(ConvergenceError, match="non-finite"):
            newton_solve(system, np.zeros(2), 1e-12, 1.0)

    def test_nan_residual_raises(self):
        def assemble(x, gmin, scale):
            return np.array([np.nan, np.nan]), np.eye(2)

        system = _FakeSystem(assemble)
        with pytest.raises(ConvergenceError, match="non-finite"):
            newton_solve(system, np.zeros(2), 1e-12, 1.0)

    def test_zero_iteration_budget_fails_immediately(self):
        system = _FakeSystem(_cube_root_of_8)
        with pytest.raises(ConvergenceError, match="no convergence in 0"):
            newton_solve(system, np.ones(2), 1e-12, 1.0, max_iterations=0)
        assert system.calls == {"system": 0, "residual": 0}

    def test_zero_iteration_error_carries_zero_count(self):
        system = _FakeSystem(lambda x, g, s: (np.zeros(2), np.eye(2)))
        with pytest.raises(ConvergenceError) as excinfo:
            newton_solve(system, np.zeros(2), 1e-12, 1.0, max_iterations=0)
        assert excinfo.value.iterations == 0

    @pytest.mark.parametrize("diverge_after", [None, 3])
    def test_each_iterate_is_assembled_once(self, diverge_after):
        """One full assembly per Newton iteration (its residual judges
        the last step, its Jacobian takes the next) and one residual-only
        check, for the step that converges."""
        system = _FakeSystem(_cube_root_of_8)
        budget = Budget(newton_iterations=100).start()
        x, iterations = newton_solve(
            system,
            np.ones(2),
            1e-12,
            1.0,
            max_step=None,
            diverge_after=diverge_after,
            budget=budget,
        )
        assert x[0] == pytest.approx(2.0) and iterations > 3
        assert system.calls == {"system": iterations, "residual": 1}
        assert budget.iterations_used == iterations

    def test_tripped_budget_assembles_nothing(self):
        system = _FakeSystem(_cube_root_of_8)
        budget = Budget(newton_iterations=0).start()
        with pytest.raises(BudgetExceeded):
            newton_solve(system, np.ones(2), 1e-12, 1.0, budget=budget)
        assert system.calls == {"system": 0, "residual": 0}

    def test_divergence_bail_is_early(self):
        """A residual that grows every iteration trips the streak bail."""

        def assemble(x, gmin, scale):
            # Push the solution point further out each call; the
            # residual at the updated point keeps growing.
            r = np.array([10.0 * (1.0 + abs(float(x[0]))), 0.0])
            return r, np.eye(2)

        system = _FakeSystem(assemble)
        with pytest.raises(ConvergenceError, match="diverging") as excinfo:
            newton_solve(
                system,
                np.zeros(2),
                1e-12,
                1.0,
                max_iterations=100,
                max_step=None,
                diverge_after=3,
            )
        assert excinfo.value.iterations < 100

    def test_singular_chain_raises_linalg_taxonomy(self):
        """A genuinely singular 70-node chain fails through the one
        error taxonomy: ``np.linalg.solve``'s LinAlgError is caught by
        newton_solve and surfaced as the chained ConvergenceError the
        ladder retries."""
        c = Circuit("singular_mesh")
        for i in range(70):
            c.add_resistor(f"r{i}", f"n{i}", f"n{i + 1}", 1e3)
        c.add_resistor("rg", "n70", GROUND, 1e3)
        # Two contradictory voltage sources across the same node pair:
        # duplicate branch rows make the MNA matrix exactly singular.
        c.add_vsource("v1", "n0", GROUND, dc=1.0)
        c.add_vsource("v2", "n0", GROUND, dc=2.0)
        with pytest.raises(ConvergenceError) as excinfo:
            operating_point(c, CMOS_5UM)
        chain = []
        exc = excinfo.value
        while exc is not None:
            chain.append(exc)
            exc = exc.__cause__
        assert any(isinstance(e, np.linalg.LinAlgError) for e in chain)
        assert type(excinfo.value) is ConvergenceError

    def test_zero_newton_budget_trips_budget_exceeded(self):
        c = Circuit("divider")
        c.add_vsource("vin", "a", GROUND, dc=10.0)
        c.add_resistor("r1", "a", "mid", 1e3)
        c.add_resistor("r2", "mid", GROUND, 1e3)
        budget = Budget(newton_iterations=0, label="edge")
        budget.start()
        with pytest.raises(BudgetExceeded) as excinfo:
            operating_point(c, CMOS_5UM, budget=budget)
        assert excinfo.value.step == "newton"

    def test_max_iterations_zero_exhausts_whole_ladder(self):
        c = Circuit("divider")
        c.add_vsource("vin", "a", GROUND, dc=10.0)
        c.add_resistor("r1", "a", "mid", 1e3)
        c.add_resistor("r2", "mid", GROUND, 1e3)
        with pytest.raises(ConvergenceError) as excinfo:
            operating_point(c, CMOS_5UM, max_iterations=0)
        # Terminal error names the escalation path and chains causes.
        assert "damped" in str(excinfo.value)
        assert excinfo.value.__cause__ is not None


def _mos_testbench(w=50e-6, l=10e-6, vgs=3.0, vdd=5.0):
    c = Circuit("nmos_tb")
    c.add_vsource("vdd", "d", GROUND, dc=vdd)
    c.add_vsource("vg", "g", GROUND, dc=vgs)
    c.add_resistor("rd", "d", "drain", 10e3)
    c.add_mosfet("m1", "drain", "g", GROUND, GROUND, "nmos", width=w, length=l)
    return c


class TestLadderDeterminism:
    """The solve path is a pure function of (circuit, process, guess)."""

    @given(
        r1=st.floats(min_value=100.0, max_value=1e6),
        r2=st.floats(min_value=100.0, max_value=1e6),
        vin=st.floats(min_value=-10.0, max_value=10.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_linear_solve_bitwise_deterministic(self, r1, r2, vin):
        def solve():
            c = Circuit("divider")
            c.add_vsource("vin", "a", GROUND, dc=vin)
            c.add_resistor("r1", "a", "mid", r1)
            c.add_resistor("r2", "mid", GROUND, r2)
            return operating_point(c, CMOS_5UM)

        first, second = solve(), solve()
        assert first.voltage("mid") == second.voltage("mid")  # bitwise
        assert first.iterations == second.iterations

    @given(
        w=st.floats(min_value=5e-6, max_value=500e-6),
        vgs=st.floats(min_value=0.0, max_value=5.0),
    )
    @settings(max_examples=15, deadline=None)
    def test_nonlinear_solve_bitwise_deterministic(self, w, vgs):
        first = operating_point(_mos_testbench(w=w, vgs=vgs), CMOS_5UM)
        second = operating_point(_mos_testbench(w=w, vgs=vgs), CMOS_5UM)
        assert first.voltage("drain") == second.voltage("drain")
        assert first.iterations == second.iterations

    def test_ladder_escalation_history_deterministic(self):
        """With the first rungs fault-failed, both runs climb the same
        rungs in the same order with identical iteration counts."""

        def climb_once():
            trace = DesignTrace()
            with inject("dc.newton", at_hit=1, times=2):
                op = operating_point(_mos_testbench(), CMOS_5UM, trace=trace)
            return op, [(e.step, e.detail) for e in trace.events if e.kind == "ladder"]

        (op_a, history_a), (op_b, history_b) = climb_once(), climb_once()
        assert [rung for rung, _ in history_a] == ["damped", "gmin", "source"]
        assert history_a == history_b
        assert op_a.iterations == op_b.iterations
        assert op_a.voltages == op_b.voltages

    @given(at_hit=st.integers(min_value=1, max_value=3))
    @settings(max_examples=6, deadline=None)
    def test_fault_hit_position_reproducible(self, at_hit):
        """Firing the nan fault at the same hit index twice produces the
        same escalation record -- fault injection is deterministic."""

        def run():
            with inject("dc.newton.nan", at_hit=at_hit) as injector:
                op = operating_point(_mos_testbench(), CMOS_5UM)
            return op, list(injector.fired)

        (op_a, fired_a), (op_b, fired_b) = run(), run()
        assert fired_a == fired_b
        assert op_a.iterations == op_b.iterations
        assert op_a.voltage("drain") == op_b.voltage("drain")
