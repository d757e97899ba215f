"""Chaos suite: synthesis survives every registered fault site.

The acceptance bar for the resilience layer is simple and absolute:
``synthesize(best_effort=True)`` never raises, for any injected fault,
at any registered fault point -- single-shot faults, persistent
faults, and the everything-at-once ``REPRO_FAULTS=all`` environment
used by the chaos CI job.  When degradation does cost the result, the
returned :class:`~repro.opamp.result.SynthesisResult` must say *why*
via structured :class:`~repro.resilience.FailureReport`s instead of
silently shrugging.
"""

import pytest

from repro import CMOS_5UM, OpAmpSpec, synthesize
from repro.errors import FaultInjected
from repro.resilience import (
    FailureKind,
    inject,
    iter_chaos_sites,
    registered_sites,
)
from repro.resilience import faults as faults_mod

ALL_SITES = sorted(registered_sites())

#: Sites actually visited during a plain ``synthesize`` run.  The
#: ``dc.*`` and ``analysis.*`` sites live on the verification path and
#: are exercised directly below (and in test_newton_edge_cases.py);
#: ``budget.clock`` is only consulted once a budget is armed.
SYNTHESIS_SITES = ("plan.rule", "plan.step", "selection.candidate", "opamp.package")


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


class TestRegistry:
    def test_expected_sites_registered(self):
        # The chaos matrix below must cover every site; if this fails a
        # new fault point was added without chaos coverage.
        assert set(ALL_SITES) == {
            "analysis.measure",
            "budget.clock",
            "cache.corrupt",
            "dc.newton",
            "dc.newton.nan",
            "opamp.package",
            "plan.rule",
            "plan.step",
            "selection.candidate",
            "serve.client_disconnect",
            "serve.queue_overflow",
            "serve.worker_stall",
            "worker.crash",
        }
        assert list(iter_chaos_sites()) == ALL_SITES


class TestBestEffortNeverRaises:
    """The headline guarantee, one fault site at a time."""

    @pytest.mark.parametrize("site", ALL_SITES)
    def test_single_fault_survived(self, site):
        with inject(site) as injector:
            result = synthesize(easy_spec(), CMOS_5UM, best_effort=True)
        if site in SYNTHESIS_SITES:
            assert injector.fired, f"fault at {site} never fired"
        # Never raises; and if the fault cost us the answer, it is
        # accounted for in structured failure reports.
        if result.best is None:
            assert result.failures, f"{site}: no answer and no explanation"

    @pytest.mark.parametrize("site", ALL_SITES)
    def test_persistent_fault_survived(self, site):
        """times=-1: the site fails on *every* visit, forever."""
        with inject(site, times=-1) as injector:
            result = synthesize(easy_spec(), CMOS_5UM, best_effort=True)
        if site in SYNTHESIS_SITES:
            assert injector.fired
        if result.best is None:
            assert result.failures

    @pytest.mark.parametrize("site", ALL_SITES)
    def test_late_fault_survived(self, site):
        """Fire deep into the run (10th visit) to hit mid-flight paths."""
        with inject(site, at_hit=10, times=-1):
            result = synthesize(easy_spec(), CMOS_5UM, best_effort=True)
        if result.best is None:
            assert result.failures

    def test_all_sites_at_once(self):
        with inject(*ALL_SITES, times=-1) as injector:
            result = synthesize(easy_spec(), CMOS_5UM, best_effort=True)
        assert injector.fired
        assert result.best is None or result.ok
        if result.best is None:
            assert result.failures

    def test_summary_renders_under_faults(self):
        """The degraded result must still render a human summary."""
        with inject("plan.step", times=-1):
            result = synthesize(easy_spec(), CMOS_5UM, best_effort=True)
        text = result.summary()
        assert isinstance(text, str) and text


class TestFailureTaxonomy:
    def test_injected_plan_fault_is_internal(self):
        with inject("plan.step", times=-1):
            result = synthesize(easy_spec(), CMOS_5UM, best_effort=True)
        assert result.best is None
        internals = result.failures_of_kind(FailureKind.INTERNAL)
        assert internals
        # Tracebacks are preserved for internal faults only.
        assert any("Traceback" in (f.traceback or "") for f in internals)

    def test_dc_fault_absorbed_by_retry_ladder(self):
        """A one-shot Newton fault on the verification path is absorbed
        by rung escalation: the measured offset is unchanged."""
        from repro.opamp.verify import measure_rejection

        amp = synthesize(easy_spec(), CMOS_5UM).best
        clean = measure_rejection(amp)
        with inject("dc.newton") as injector:
            faulted = measure_rejection(amp)
        assert injector.fired
        assert faulted == pytest.approx(clean, rel=1e-6)

    def test_analysis_fault_is_loud_outside_best_effort(self):
        """Measurement faults on the verify path propagate as-is; the
        chaos containment contract is scoped to synthesize()."""
        from repro.opamp.verify import verify_opamp

        amp = synthesize(easy_spec(), CMOS_5UM).best
        with inject("analysis.measure"):
            with pytest.raises(FaultInjected):
                verify_opamp(amp)

    def test_budget_skew_reports_budget_kind(self):
        with inject("budget.clock", times=-1):
            result = synthesize(
                easy_spec(), CMOS_5UM, best_effort=True, budget_ms=1000.0
            )
        assert result.best is None
        assert result.failures_of_kind(FailureKind.BUDGET)


class TestStrictModeStillRaises:
    """Without best_effort the same faults propagate loudly -- chaos
    containment is opt-in, not silent swallowing."""

    def test_plan_fault_raises(self):
        # Candidate isolation still applies per-style, so the terminal
        # error is the aggregate SynthesisError naming every failure.
        from repro.errors import SynthesisError

        with inject("plan.step", times=-1):
            with pytest.raises(SynthesisError, match="injected fault"):
                synthesize(easy_spec(), CMOS_5UM)


class TestCacheChaos:
    """A poisoned cache degrades to a recompute -- never a wrong answer."""

    def test_corrupt_hit_recomputes(self):
        from repro.cache import ResultCache, content_key

        cache = ResultCache()
        key = content_key("x")
        cache.put("t", key, {"v": 1})
        with inject("cache.corrupt") as injector:
            assert cache.get("t", key) is None  # poisoned -> miss
        assert injector.fired_sites() == ["cache.corrupt"]
        assert cache.stats()["t"].corruptions == 1
        # The entry was dropped, so the system heals on the next put.
        cache.put("t", key, {"v": 1})
        assert cache.get("t", key) == {"v": 1}

    def test_corrupt_cache_never_changes_batch_results(self, tmp_path):
        from repro.batch import synthesize_many

        spec = easy_spec()
        kwargs = dict(use_cache=True, cache_dir=str(tmp_path))
        [cold] = synthesize_many([spec], CMOS_5UM, **kwargs)
        with inject("cache.corrupt", times=-1) as injector:
            [poisoned] = synthesize_many([spec], CMOS_5UM, **kwargs)
        assert injector.fired  # every read really was poisoned
        assert poisoned.record["cache"] == "miss"  # degraded to recompute
        assert poisoned.canonical() == cold.canonical()  # same answer
        # With the fault gone the (re-put) entry serves hits again.
        [healed] = synthesize_many([spec], CMOS_5UM, **kwargs)
        assert healed.record["cache"] == "hit"
        assert healed.canonical() == cold.canonical()

    def test_persistent_corruption_under_op_cache(self):
        """DC op-point memoization with every read poisoned: results
        must equal the uncached run exactly."""
        from repro.cache import ResultCache, cache_scope
        from repro.opamp.verify import open_loop_response

        amp = synthesize(easy_spec(), CMOS_5UM).best
        clean = open_loop_response(amp).dc_gain_db
        with cache_scope(ResultCache()):
            with inject("cache.corrupt", times=-1):
                poisoned = open_loop_response(amp).dc_gain_db
        assert poisoned == pytest.approx(clean, rel=0, abs=0)


class TestWorkerChaos:
    """A dying batch worker is retried, then contained -- the batch
    never raises and never loses a task."""

    def _tasks(self):
        from repro.batch import build_tasks

        return build_tasks([("t", easy_spec())], CMOS_5UM)

    def test_single_crash_retried_to_success(self):
        from repro.batch import run_batch

        with inject("worker.crash") as injector:
            [result] = list(run_batch(self._tasks(), jobs=1, retries=1))
        assert injector.fired_sites() == ["worker.crash"]
        assert result.ok and result.attempts == 2

    def test_persistent_crash_contained_as_record(self):
        from repro.batch import run_batch

        with inject("worker.crash", times=-1):
            [result] = list(run_batch(self._tasks(), jobs=1, retries=1))
        assert not result.ok
        assert result.record["failures"][0]["kind"] == "worker"

    def test_env_activation_reaches_pool_workers(self, tmp_path):
        """REPRO_FAULTS crosses the process boundary: pool workers
        re-read the environment, so the chaos CI job covers them too."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        script = (
            "from repro.batch import synthesize_many\n"
            "from repro.process import CMOS_5UM\n"
            "from repro.kb.specs import OpAmpSpec\n"
            "spec = OpAmpSpec(gain_db=45.0, unity_gain_hz=1e6, "
            "phase_margin_deg=60.0, slew_rate=2e6, "
            "load_capacitance=10e-12, output_swing=3.5)\n"
            "[r] = synthesize_many([spec], CMOS_5UM, jobs=2, retries=2)\n"
            "print('OK' if r.ok and r.attempts > 1 else 'BAD', r.attempts)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(__file__).parent.parent / "src")
        env["REPRO_FAULTS"] = "worker.crash"
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("OK"), proc.stdout


class TestEnvActivation:
    """REPRO_FAULTS drives the chaos CI job without code changes."""

    def _reset_env_cache(self):
        faults_mod._ENV_CACHE = (None, None)

    def test_env_all_best_effort_never_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "all")
        self._reset_env_cache()
        try:
            result = synthesize(easy_spec(), CMOS_5UM, best_effort=True)
        finally:
            self._reset_env_cache()
        if result.best is None:
            assert result.failures

    def test_env_single_site(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "selection.candidate=1")
        self._reset_env_cache()
        try:
            result = synthesize(easy_spec(), CMOS_5UM, best_effort=True)
        finally:
            self._reset_env_cache()
        # First candidate dies; remaining styles may still provide one.
        assert result.failures or result.ok

    def test_explicit_injector_shadows_env(self, monkeypatch):
        # Env arms a persistent, fatal fault; pushing an explicit (and
        # never-firing) injector shadows it completely, so plain
        # strict-mode synthesis succeeds.
        monkeypatch.setenv("REPRO_FAULTS", "plan.step")
        self._reset_env_cache()
        try:
            with inject("plan.step", at_hit=10**6) as injector:
                result = synthesize(easy_spec(), CMOS_5UM)
            assert injector.fired == []
            assert result.ok
        finally:
            self._reset_env_cache()
