"""Unit tests for the resilience layer: budgets, the DC solver's retry
ladder, failure taxonomy, and the fault-injection harness itself."""

import pytest

from repro.circuit import GROUND, Circuit
from repro.errors import (
    BudgetExceeded,
    ConvergenceError,
    FaultInjected,
    PlanError,
    SynthesisError,
)
from repro.kb.trace import DesignTrace
from repro.obs import Tracer
from repro.process import CMOS_5UM
from repro.resilience import (
    Budget,
    FailureKind,
    FailureReport,
    FaultSpec,
    classify_exception,
    current_budget,
    inject,
    registered_sites,
)
from repro.resilience.faults import FaultInjector, active_injector, fault_point
from repro.simulator import dc as dc_module
from repro.simulator import operating_point


class FakeClock:
    """A manually advanced monotonic clock (seconds)."""

    def __init__(self):
        self.t = 100.0

    def __call__(self):
        return self.t

    def advance_ms(self, ms):
        self.t += ms / 1e3


# ----------------------------------------------------------------------
# Budget
# ----------------------------------------------------------------------
class TestBudget:
    def test_inert_until_started(self):
        budget = Budget(wall_ms=0)
        budget.check(block="b", step="s")  # no raise: not started
        assert not budget.started
        assert budget.elapsed_ms() == 0.0

    def test_zero_wall_budget_trips_immediately(self):
        budget = Budget(wall_ms=0, clock=FakeClock()).start()
        # Any elapsed time > 0 trips; force 1 ms.
        budget._clock.advance_ms(1)
        with pytest.raises(BudgetExceeded) as excinfo:
            budget.check(block="opamp/one_stage", step="partition_gain")
        err = excinfo.value
        assert err.block == "opamp/one_stage"
        assert err.step == "partition_gain"
        assert err.limit_ms == 0
        assert err.elapsed_ms > 0

    def test_unbounded_budget_never_trips(self):
        clock = FakeClock()
        budget = Budget(clock=clock).start()
        clock.advance_ms(1e9)
        budget.check()
        budget.charge_newton(10**6)

    def test_elapsed_and_remaining(self):
        clock = FakeClock()
        budget = Budget(wall_ms=100, clock=clock).start()
        clock.advance_ms(30)
        assert budget.elapsed_ms() == pytest.approx(30, abs=1)
        assert budget.remaining_ms() == pytest.approx(70, abs=1)

    def test_newton_iteration_budget(self):
        budget = Budget(newton_iterations=3).start()
        budget.charge_newton(1)
        budget.charge_newton(1)
        with pytest.raises(BudgetExceeded) as excinfo:
            budget.charge_newton(1, block="dc/tb", step="newton")
        assert "iteration budget" in str(excinfo.value)
        assert excinfo.value.block == "dc/tb"
        assert budget.exhausted()

    def test_style_scope_trips_without_touching_global(self):
        clock = FakeClock()
        budget = Budget(wall_ms=1000, style_ms=10, clock=clock).start()
        with pytest.raises(BudgetExceeded) as excinfo:
            with budget.style_scope("two_stage", block="opamp/two_stage"):
                clock.advance_ms(50)
        assert excinfo.value.scope == "style:two_stage"
        assert not budget.exhausted()  # global still has headroom

    def test_step_scope_checked_by_inner_checks(self):
        clock = FakeClock()
        budget = Budget(step_ms=5, clock=clock).start()
        with pytest.raises(BudgetExceeded) as excinfo:
            with budget.step_scope("size_devices", block="opamp"):
                clock.advance_ms(20)
                budget.check(block="opamp", step="size_devices")  # inner
        assert excinfo.value.scope == "step:size_devices"

    def test_scope_removed_after_exit(self):
        clock = FakeClock()
        budget = Budget(style_ms=10, clock=clock).start()
        with budget.style_scope("a"):
            pass
        clock.advance_ms(50)
        budget.check()  # old scope must not linger

    def test_ambient_installation(self):
        budget = Budget(wall_ms=1000)
        assert current_budget() is None
        with budget.active() as installed:
            assert installed is budget
            assert current_budget() is budget
        assert current_budget() is None

    def test_clock_skew_fault(self):
        budget = Budget(wall_ms=10).start()
        with inject("budget.clock", skew_ms=1e6):
            with pytest.raises(BudgetExceeded):
                budget.check(block="opamp", step="x")

    def test_start_idempotent(self):
        clock = FakeClock()
        budget = Budget(wall_ms=100, clock=clock).start()
        clock.advance_ms(60)
        budget.start()  # must not reset the baseline
        assert budget.elapsed_ms() == pytest.approx(60, abs=1)


# ----------------------------------------------------------------------
# Retry ladder
# ----------------------------------------------------------------------
def _nmos_testbench():
    c = Circuit("nmos_tb")
    c.add_vsource("vdd", "d", GROUND, dc=5.0)
    c.add_vsource("vg", "g", GROUND, dc=3.0)
    c.add_resistor("rd", "d", "drain", 10e3)
    c.add_mosfet(
        "m1", "drain", "g", GROUND, GROUND, "nmos", width=50e-6, length=10e-6
    )
    return c


#: A warm start near the testbench's operating point (drain ~2.55 V).
_WARM = {"d": 5.0, "g": 3.0, "drain": 2.0}


def _climb(**kwargs):
    """One traced DC solve of the NMOS testbench: (result or error,
    ``ladder.*`` counters, the design trace's ladder events)."""
    tracer, trace = Tracer(), DesignTrace()
    with tracer.activate():
        try:
            outcome = operating_point(
                _nmos_testbench(), CMOS_5UM, trace=trace, **kwargs
            )
        except (ConvergenceError, BudgetExceeded) as exc:
            outcome = exc
    counters = {
        key: value
        for key, value in tracer.metrics.snapshot()["counters"].items()
        if key.startswith("ladder.")
    }
    events = [(e.step, e.detail) for e in trace.events if e.kind == "ladder"]
    return outcome, counters, events


class TestRetryLadder:
    """The DC solve's fixed escalation, plain -> damped -> gmin ->
    source, driven through :func:`operating_point`."""

    def test_first_rung_success_skips_rest(self):
        result, counters, events = _climb(initial_guess=_WARM)
        assert result.iterations == 2
        assert counters == {
            "ladder.attempts{outcome=ok,rung=plain}": 1,
            "ladder.iterations{rung=plain}": 2,
        }
        assert events == []  # one attempt: no escalation to record

    def test_cold_start_skips_plain(self):
        result, counters, _ = _climb()
        assert counters == {
            "ladder.attempts{outcome=ok,rung=damped}": 1,
            "ladder.iterations{rung=damped}": result.iterations,
        }

    def test_escalation_chains_causes(self, monkeypatch):
        raised = []

        def recording(strategy):
            def run(*args):
                try:
                    return strategy(*args)
                except ConvergenceError as exc:
                    raised.append(exc)
                    raise

            return run

        monkeypatch.setattr(
            dc_module,
            "_RUNGS",
            tuple((name, recording(strategy)) for name, strategy in dc_module._RUNGS),
        )
        with inject("dc.newton", at_hit=1, times=2):
            result, _, events = _climb()
        assert [rung for rung, _ in events] == ["damped", "gmin", "source"]
        fault = "injected fault: Newton refuses to converge"
        assert [detail for _, detail in events] == [
            f"attempt 1: failed ({fault}) after 0 iterations",
            "attempt 1: failed (gmin stepping stalled at gmin=0.001: "
            f"{fault}) after 0 iterations",
            f"attempt 1: converged after {result.iterations} iterations",
        ]
        damped, gmin = raised
        assert damped.__cause__ is None  # the first rung has nothing to chain
        # gmin stepping chains its own stalled step, not the damped rung.
        assert str(gmin.__cause__) == fault and gmin.__cause__ is not damped

        # A rung failing without a cause of its own is chained to the
        # previous rung's failure.
        raised.clear()
        with inject("dc.newton", at_hit=1, times=2):
            _climb(initial_guess=_WARM)
        plain, damped = raised
        assert damped.__cause__ is plain

    def test_exhaustion_raises_with_chain_and_iterations(self):
        error, counters, events = _climb(max_iterations=2)
        assert type(error) is ConvergenceError
        assert error.rung == "source"
        assert str(error).startswith(
            "dc/nmos_tb: DC operating point failed after damped -> gmin -> "
            f"source ({error.iterations} total iterations): source stepping"
        )
        per_rung = [
            counters[f"ladder.iterations{{rung={rung}}}"]
            for rung in ("damped", "gmin", "source")
        ]
        assert per_rung[0] == 2
        assert error.iterations == sum(per_rung) == 16
        assert isinstance(error.__cause__, ConvergenceError)
        assert error.__cause__.rung == "source"
        assert events == [("source", f"exhausted: {error}")]

    def test_non_retryable_propagates_immediately(self):
        budget = Budget(newton_iterations=3, label="edge").start()
        error, counters, events = _climb(budget=budget)
        assert isinstance(error, BudgetExceeded)
        # The budget tripped inside the damped rung: no attempt was
        # counted, so no gmin or source rung was tried.
        assert counters == {}
        assert events == []


# ----------------------------------------------------------------------
# Failure taxonomy
# ----------------------------------------------------------------------
class TestFailureReports:
    def test_classification(self):
        assert classify_exception(ConvergenceError("x")) is FailureKind.CONVERGENCE
        assert classify_exception(BudgetExceeded("x")) is FailureKind.BUDGET
        assert classify_exception(SynthesisError("x")) is FailureKind.PLAN
        assert classify_exception(PlanError("x")) is FailureKind.PLAN
        assert classify_exception(ValueError("x")) is FailureKind.INTERNAL
        assert classify_exception(FaultInjected("x")) is FailureKind.INTERNAL

    def test_harvests_context_from_synthesis_error(self):
        exc = SynthesisError("too slow", block="opamp/two_stage", step="comp")
        report = FailureReport.from_exception(exc, style="two_stage")
        assert report.kind is FailureKind.PLAN
        assert report.block == "opamp/two_stage"
        assert report.step == "comp"
        assert report.style == "two_stage"
        assert report.traceback == ""  # only internal errors keep one

    def test_internal_errors_keep_traceback_and_chain(self):
        try:
            try:
                raise ConvergenceError("inner")
            except ConvergenceError as inner:
                raise RuntimeError("outer bug") from inner
        except RuntimeError as exc:
            report = FailureReport.from_exception(exc)
        assert report.kind is FailureKind.INTERNAL
        assert "outer bug" in report.traceback
        assert any("inner" in link for link in report.chain)

    def test_render(self):
        report = FailureReport.from_exception(
            ConvergenceError("diverged", iterations=42, rung="gmin"),
            style="one_stage",
        )
        text = report.render()
        assert "[convergence]" in text
        assert "one_stage" in text
        assert "diverged" in text


# ----------------------------------------------------------------------
# Fault harness
# ----------------------------------------------------------------------
class TestFaultHarness:
    def test_disarmed_is_none(self):
        assert fault_point("plan.step") is None

    def test_registry_is_populated(self):
        sites = registered_sites()
        for expected in (
            "dc.newton",
            "dc.newton.nan",
            "plan.step",
            "plan.rule",
            "selection.candidate",
            "opamp.package",
            "analysis.measure",
            "budget.clock",
        ):
            assert expected in sites, expected

    def test_unknown_site_rejected(self):
        with pytest.raises(FaultInjected):
            FaultInjector([FaultSpec(site="no.such.site")])

    def test_raise_fault_fires_once_by_default(self):
        with inject("plan.step") as injector:
            with pytest.raises(FaultInjected) as excinfo:
                fault_point("plan.step")
            assert excinfo.value.site == "plan.step"
            assert fault_point("plan.step") is None  # second visit clean
        assert injector.fired == [("plan.step", "raise")]

    def test_at_hit_and_times(self):
        with inject("plan.step", at_hit=2, times=2) as injector:
            assert fault_point("plan.step") is None
            with pytest.raises(FaultInjected):
                fault_point("plan.step")
            with pytest.raises(FaultInjected):
                fault_point("plan.step")
            assert fault_point("plan.step") is None
        assert len(injector.fired) == 2

    def test_unlimited_times(self):
        with inject("plan.step", times=-1):
            for _ in range(5):
                with pytest.raises(FaultInjected):
                    fault_point("plan.step")

    def test_default_error_for_dc_newton_is_convergence(self):
        with inject("dc.newton"):
            with pytest.raises(ConvergenceError):
                fault_point("dc.newton")

    def test_nan_fault_returns_action(self):
        with inject("dc.newton.nan"):
            action = fault_point("dc.newton.nan")
        assert action is not None and action.kind == "nan"

    def test_nested_injectors_shadow(self):
        with inject("plan.step"):
            with inject("plan.rule") as inner:
                # Outer spec is shadowed while the inner one is active.
                assert fault_point("plan.step") is None
                with pytest.raises(FaultInjected):
                    fault_point("plan.rule")
            assert inner.fired_sites() == ["plan.rule"]

    def test_env_activation(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "plan.step=2")
        injector = active_injector()
        assert injector is not None
        assert fault_point("plan.step") is None  # hit 1 (below at_hit)
        with pytest.raises(FaultInjected):
            fault_point("plan.step")
        monkeypatch.delenv("REPRO_FAULTS")
        assert active_injector() is None

    def test_env_all(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "all")
        with pytest.raises(FaultInjected):
            fault_point("plan.step")
        # Per-site accounting: another site still fires its own first hit.
        with pytest.raises(FaultInjected):
            fault_point("plan.rule")
