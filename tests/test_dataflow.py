"""Tests for the whole-plan dataflow pass (repro.lint.dataflow).

The mutant step functions live at module level because the analyses are
AST-based and need real, importable source (``inspect.getsourcelines``
cannot see functions defined in a REPL or exec string).
"""

from typing import Any, Dict, Optional

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.kb.plans import DesignState, Plan, PlanStep
from repro.kb.rules import Restart, Rule
from repro.lint import (
    EffectSummary,
    build_cfg,
    lint_dataflow,
    lint_template_dataflow,
    live_variables,
    plan_effect_summaries,
    reaching_definitions,
    rule_effect_summary,
)
from repro.lint.kblint import StateUsage
from repro.lint.oracle import MUTATIONS, _PRESET, run_mutation_oracle

# ----------------------------------------------------------------------
# Module-level plan steps (the AST analysis needs real source)
# ----------------------------------------------------------------------


def _writes_alpha(state: DesignState) -> None:
    state.set("alpha", state.spec.gain_db)


def _writes_beta(state: DesignState) -> None:
    state.set("beta", state.spec.unity_gain_hz)


def _writes_gamma(state: DesignState) -> None:
    state.set("gamma", 3.0)


def _writes_delta(state: DesignState) -> None:
    state.set("delta", state.get_or("missing_ok", 1.0))


_INDEPENDENT_STEPS = (
    PlanStep("alpha", _writes_alpha),
    PlanStep("beta", _writes_beta),
    PlanStep("gamma", _writes_gamma),
    PlanStep("delta", _writes_delta),
)


def _reader(state: DesignState) -> None:
    state.set("total", state.get("alpha") + state.get("beta"))


def _chooser(state: DesignState) -> None:
    state.choose("load", "cascode")


def _choice_reader(state: DesignState) -> None:
    state.set("style_used", state.choice("load", "simple"))


def _emitting(state: DesignState) -> None:
    state.set("stage1", design_input_stage(state))


def design_input_stage(state: DesignState) -> str:  # noqa: D103 - emit target
    return "input_stage"


def _monitor_cond(state: DesignState) -> bool:
    return state.get_or("alpha", 0.0) > 90.0


def _monitor_back(state: DesignState) -> Restart:
    return Restart("alpha", "re-derive")


def _recovery_forward(state: DesignState) -> Restart:
    return Restart("gamma", "skip ahead")


# ----------------------------------------------------------------------
# Effect summaries
# ----------------------------------------------------------------------
class TestEffectSummaries:
    def test_pure_property(self):
        assert EffectSummary("x", reads=("a",)).pure
        assert not EffectSummary("x", writes=("a",)).pure
        assert not EffectSummary("x", choices_written=("slot",)).pure
        assert not EffectSummary("x", emits=("design_mirror",)).pure

    def test_to_dict_round_trip(self):
        summary = EffectSummary(
            "s", reads=("a",), writes=("b",), emits=("design_x",)
        )
        d = summary.to_dict()
        assert d["name"] == "s"
        assert d["reads"] == ["a"]
        assert d["writes"] == ["b"]
        assert d["emits"] == ["design_x"]
        assert d["pure"] is False
        assert d["resolved"] is True

    def test_plan_effect_summaries(self):
        plan = Plan("p", [PlanStep("alpha", _writes_alpha),
                          PlanStep("total", _reader)])
        summaries = plan_effect_summaries(plan)
        assert list(summaries) == ["alpha", "total"]
        assert summaries["alpha"].writes == ("alpha",)
        assert summaries["total"].reads == ("alpha", "beta")
        assert summaries["total"].writes == ("total",)

    def test_plan_exports_summaries(self):
        plan = Plan("p", [PlanStep("alpha", _writes_alpha)])
        summaries = plan.effect_summaries()
        assert summaries["alpha"].writes == ("alpha",)

    def test_emits_detected(self):
        plan = Plan("p", [PlanStep("emit", _emitting)])
        assert plan_effect_summaries(plan)["emit"].emits == (
            "design_input_stage",
        )

    def test_rule_effect_summary_merges_condition_and_action(self):
        rule = Rule("watch", _monitor_cond, _monitor_back)
        summary = rule_effect_summary(rule)
        assert "alpha" in summary.soft_reads
        assert summary.restart_targets == ("alpha",)

    def test_two_stage_plan_summaries_resolved(self):
        from repro.opamp.twostage import TWO_STAGE_TEMPLATE

        plan = TWO_STAGE_TEMPLATE.build_plan()
        summaries = plan_effect_summaries(plan)
        assert len(summaries) == len(plan.steps)
        assert all(s.resolved for s in summaries.values())
        # The bundled plans are not no-ops.
        assert any(s.writes for s in summaries.values())


# ----------------------------------------------------------------------
# The recording double
# ----------------------------------------------------------------------
class _Anything:
    """A wildcard value that absorbs arithmetic so recorded step actions
    can run over unset variables without crashing."""

    def __getattr__(self, name: str) -> "_Anything":
        return self

    def __call__(self, *args: Any, **kwargs: Any) -> "_Anything":
        return self

    def __float__(self) -> float:
        return 1.0

    def __bool__(self) -> bool:
        return True

    def __repr__(self) -> str:
        return "<anything>"


def _absorb(self: "_Anything", *args: Any) -> "_Anything":
    return self


for _op in (
    "add", "radd", "sub", "rsub", "mul", "rmul", "truediv", "rtruediv",
    "pow", "rpow", "neg", "abs", "mod", "rmod", "floordiv", "rfloordiv",
    "lt", "le", "gt", "ge", "getitem",
):
    setattr(_Anything, f"__{_op}__", _absorb)


class RecordingDesignState(DesignState):
    """A :class:`~repro.kb.plans.DesignState` double that records the
    protocol calls an action makes instead of requiring real values.

    Reads of unset variables return a permissive wildcard rather than
    raising, so most step actions run to completion (or at least far
    enough to reveal their effect set).  The record lands in ``usage``
    as a :class:`~repro.lint.kblint.StateUsage`.

    This is the *dynamic* complement to the AST analysis: the lint pass
    itself stays source-level (deterministic, side-effect free), but
    tests and ad-hoc audits can cross-check a summary against what an
    action actually does -- including through code the AST walk cannot
    follow (bound methods, closures over the state).
    """

    def __init__(
        self,
        spec: Any = None,
        process: Any = None,
        seed_vars: Optional[Dict[str, Any]] = None,
    ):
        self.spec = spec
        self.process = process
        self.budget = None
        self.vars: Dict[str, Any] = dict(seed_vars or {})
        self.choices: Dict[str, str] = {}
        self.current_step = ""
        self.usage = StateUsage()

    def get(self, name: str) -> Any:
        self.usage.reads.add(name)
        return self.vars.get(name, _Anything())

    def set(self, name: str, value: Any) -> None:
        self.usage.writes.add(name)
        self.vars[name] = value

    def get_or(self, name: str, default: Any) -> Any:
        self.usage.soft_reads.add(name)
        return self.vars.get(name, default)

    def has(self, name: str) -> bool:
        self.usage.soft_reads.add(name)
        return name in self.vars

    def choose(self, slot: str, style: str) -> None:
        self.usage.choices_written.add(slot)
        self.choices[slot] = style

    def choice(self, slot: str, default: str = "") -> str:
        self.usage.choices_read.add(slot)
        return self.choices.get(slot, default)


def record_effects(
    action: Any,
    spec: Any = None,
    process: Any = None,
    seed_vars: Optional[Dict[str, Any]] = None,
) -> StateUsage:
    """Run ``action`` over a :class:`RecordingDesignState` and return the
    recorded usage.  Exceptions are swallowed: a partial record of an
    action that crashed on a wildcard value is still informative."""
    state = RecordingDesignState(spec=spec, process=process, seed_vars=seed_vars)
    try:
        action(state)
    except Exception:  # noqa: BLE001 - best-effort recording
        pass
    return state.usage


class TestRecordingState:
    def test_records_protocol_calls(self):
        state = RecordingDesignState()
        state.set("a", 1.0)
        state.get("a")
        state.get_or("b", 0.0)
        state.has("c")
        state.choose("slot", "x")
        state.choice("slot")
        usage = state.usage
        assert usage.writes == {"a"}
        assert usage.reads == {"a"}
        assert usage.soft_reads == {"b", "c"}
        assert usage.choices_written == {"slot"}
        assert usage.choices_read == {"slot"}

    def test_unset_reads_do_not_crash_arithmetic(self):
        state = RecordingDesignState()
        value = state.get("never_set") * 2.0 + 1.0
        assert bool(value)  # wildcard absorbs arithmetic
        assert state.usage.reads == {"never_set"}

    def test_record_effects_matches_static_summary(self):
        usage = record_effects(_reader, seed_vars={"alpha": 1.0, "beta": 2.0})
        assert usage.reads == {"alpha", "beta"}
        assert usage.writes == {"total"}

    def test_record_effects_swallows_crashes(self):
        def crashing(state):
            state.get("x")
            raise RuntimeError("boom")

        usage = record_effects(crashing)
        assert usage.reads == {"x"}


# ----------------------------------------------------------------------
# CFG construction and the two analyses
# ----------------------------------------------------------------------
class TestCfg:
    def test_monitor_restart_edge_kept(self):
        plan = Plan("p", list(_INDEPENDENT_STEPS))
        rule = Rule("watch", _monitor_cond, _monitor_back)
        cfg = build_cfg(plan, [rule])
        # Monitor rules trigger after every step; the backward edges to
        # step 0 ("alpha") must all be present and non-recovery.
        targets = {(e.source, e.target, e.recovery) for e in cfg.restart_edges}
        assert (3, 0, False) in targets
        assert all(not e.recovery for e in cfg.restart_edges)

    def test_forward_recovery_edge_dropped(self):
        plan = Plan("p", list(_INDEPENDENT_STEPS))
        rule = Rule(
            "rescue",
            lambda s: True,
            _recovery_forward,
            on_failure=True,
            on_failure_steps=("alpha",),
        )
        cfg = build_cfg(plan, [rule])
        # alpha is step 0, gamma is step 2: forward recovery jumps are
        # rejected by the executor, so the CFG must not contain the edge.
        assert cfg.restart_edges == []

    def test_reaching_definitions_sequential(self):
        plan = Plan("p", [PlanStep("alpha", _writes_alpha),
                          PlanStep("beta", _writes_beta)])
        reaching = reaching_definitions(build_cfg(plan, preset=frozenset({"pre"})))
        assert reaching[0] == {"pre"}
        assert reaching[1] == {"pre", "alpha"}
        assert reaching[2] == {"pre", "alpha", "beta"}  # exit = exports

    def test_reaching_definitions_via_restart_edge(self):
        # The monitor edge loops back to step 0, so definitions made by
        # later steps MAY reach the start of the plan on the retry path.
        plan = Plan("p", list(_INDEPENDENT_STEPS))
        rule = Rule("watch", _monitor_cond, _monitor_back)
        reaching = reaching_definitions(build_cfg(plan, [rule]))
        assert "delta" in reaching[0]

    def test_liveness_backward(self):
        plan = Plan(
            "p",
            [
                PlanStep("alpha", _writes_alpha),
                PlanStep("beta", _writes_beta),
                PlanStep("total", _reader),
            ],
        )
        live = live_variables(build_cfg(plan))
        assert live[3] == set()  # exit set empty by design
        assert live[2] == {"alpha", "beta"}
        assert live[1] == {"alpha"}  # beta not yet written, not yet live
        assert live[0] == set()

    def test_liveness_exit_is_empty(self):
        plan = Plan("p", [PlanStep("alpha", _writes_alpha)])
        assert live_variables(build_cfg(plan))[-1] == set()


# ----------------------------------------------------------------------
# The FLOW checkers, via the seeded mutation catalogue
# ----------------------------------------------------------------------
class TestFlowCheckers:
    @pytest.mark.parametrize(
        "mutation", MUTATIONS, ids=[m.name for m in MUTATIONS]
    )
    def test_mutation_caught(self, mutation):
        report = lint_template_dataflow(mutation.build(), preset=_PRESET)
        codes = {d.code for d in report}
        if mutation.expected_code.startswith("FLOW"):
            assert mutation.expected_code in codes, (
                f"{mutation.name}: expected {mutation.expected_code}, "
                f"got {sorted(codes) or 'nothing'}"
            )

    def test_oracle_all_caught(self):
        results = run_mutation_oracle()
        missed = [r.mutation.name for r in results if not r.caught]
        assert not missed, f"oracle missed: {missed}"

    def test_bundled_kb_is_clean(self):
        report = lint_dataflow()
        assert len(report) == 0, report.render_text()

    def test_choice_consumed_by_plan_not_flagged(self):
        plan = Plan(
            "p",
            [PlanStep("choose", _chooser), PlanStep("use", _choice_reader)],
        )
        from repro.lint import lint_plan_dataflow

        report = lint_plan_dataflow(plan, preset=_PRESET)
        assert "FLOW705" not in {d.code for d in report}


# ----------------------------------------------------------------------
# Property: summaries are stable under reordering of independent steps
# ----------------------------------------------------------------------
class TestReorderStability:
    @given(order=st.permutations(range(len(_INDEPENDENT_STEPS))))
    def test_summaries_independent_of_step_order(self, order):
        steps = [_INDEPENDENT_STEPS[i] for i in order]
        summaries = plan_effect_summaries(Plan("p", steps))
        baseline = plan_effect_summaries(Plan("p", list(_INDEPENDENT_STEPS)))
        # Same per-step summary objects regardless of order...
        assert summaries == baseline
        # ...and the iteration order tracks the plan order.
        assert list(summaries) == [s.name for s in steps]

    @given(order=st.permutations(range(len(_INDEPENDENT_STEPS))))
    def test_independent_steps_lint_clean_in_any_order(self, order):
        from repro.lint import lint_plan_dataflow

        steps = [_INDEPENDENT_STEPS[i] for i in order]
        report = lint_plan_dataflow(Plan("p", steps), preset=_PRESET)
        assert len(report) == 0, report.render_text()
