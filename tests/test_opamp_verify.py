"""Integration tests: synthesized op amps measured with the simulator.

These are the repro's stand-in for the paper's SPICE verification runs:
every design the synthesizer emits must bias up, amplify, and roughly
match its predicted performance.
"""

import dataclasses

import pytest

import repro.opamp.verify as verify_module
from repro import CMOS_5UM, OpAmpSpec, synthesize, verify_opamp
from repro.cache import ResultCache, cache_scope, canonical_json
from repro.circuit.netlist import Circuit
from repro.devices import MosfetModel
from repro.errors import ConvergenceError, SimulationError
from repro.kb.trace import DesignTrace
from repro.obs import Tracer
from repro.opamp.designer import design_style
from repro.opamp.testcases import SPEC_A, SPEC_B, SPEC_C
from repro.opamp.verify import (
    _buffer_testbench,
    _open_loop_testbench,
    measure_rejection,
    offset_nulled_bias,
    open_loop_response,
)
from repro.resilience import inject
from repro.simulator import MnaSystem, operating_point
from repro.simulator import transient as transient_module
from repro.simulator.dc import _op_to_payload
from repro.simulator.analysis import crossover_frequency
from repro.simulator.transient import step_waveform, transient_analysis


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
def amp_a():
    return synthesize(SPEC_A, CMOS_5UM).best


@pytest.fixture(scope="module")
def amp_b():
    return synthesize(SPEC_B, CMOS_5UM).best


@pytest.fixture(scope="module")
def amp_c():
    return synthesize(SPEC_C, CMOS_5UM).best


class TestOpenLoop:
    def test_case_a_gain_matches_prediction(self, amp_a):
        response = open_loop_response(amp_a)
        assert response.dc_gain_db == pytest.approx(
            amp_a.performance["gain_db"], abs=3.0
        )

    def test_case_b_gain_matches_prediction(self, amp_b):
        response = open_loop_response(amp_b)
        assert response.dc_gain_db == pytest.approx(
            amp_b.performance["gain_db"], abs=3.0
        )

    def test_case_c_meets_100db(self, amp_c):
        response = open_loop_response(amp_c)
        assert response.dc_gain_db >= 99.0

    def test_unity_gain_frequency_near_spec(self, amp_a):
        response = open_loop_response(amp_a)
        f_unity = crossover_frequency(response)
        assert f_unity == pytest.approx(SPEC_A.unity_gain_hz, rel=0.5)
        assert f_unity >= SPEC_A.unity_gain_hz * 0.95


class TestVerifyReports:
    def test_case_a_report(self, amp_a):
        report = verify_opamp(amp_a, measure_swing=False, measure_slew=False)
        assert report.get("gain_db") >= SPEC_A.gain_db
        assert report.get("phase_margin_deg") >= SPEC_A.phase_margin_deg
        assert report.get("power") > 0

    def test_case_a_one_stage_offset_visible(self, amp_a):
        """The inherent systematic offset of the one-stage style is
        milli-volt scale in simulation (and within its relaxed spec)."""
        report = verify_opamp(amp_a, measure_swing=False, measure_slew=False)
        offset = report.get("offset_mv")
        assert 1.0 < offset < SPEC_A.offset_max_mv

    def test_case_b_two_stage_offset_small(self, amp_b):
        """The balanced two-stage nulls systematic offset to within the
        tight case-B spec -- the discriminator the paper describes."""
        report = verify_opamp(amp_b, measure_swing=False, measure_slew=False)
        assert report.get("offset_mv") < SPEC_B.offset_max_mv

    def test_case_c_phase_margin_soft_shortfall(self, amp_c):
        """The paper: '45 deg of phase margin was specified, whereas 32
        deg was achieved.  However, this is acceptable for a first-cut
        design.'  The reproduction shows the same qualitative shortfall:
        stable (PM > 20 deg) but below the requested 45 deg."""
        report = verify_opamp(amp_c, measure_swing=False, measure_slew=False)
        pm = report.get("phase_margin_deg")
        assert 20.0 < pm < SPEC_C.phase_margin_deg

    def test_case_a_slew_rate(self, amp_a):
        report = verify_opamp(amp_a, measure_swing=False, measure_slew=True)
        assert report.get("slew_rate") >= SPEC_A.slew_rate * 0.9

    def test_case_a_swing(self, amp_a):
        report = verify_opamp(amp_a, measure_swing=True, measure_slew=False)
        assert report.get("output_swing") >= SPEC_A.output_swing * 0.95


class TestPredictionAccuracy:
    """First-cut predictions must land near simulation ('close enough to
    apply other optimization tools')."""

    @pytest.mark.parametrize("style", ["one_stage", "two_stage"])
    def test_gain_prediction_within_3db(self, style):
        amp = design_style(style, easy_spec(), CMOS_5UM)
        response = open_loop_response(amp)
        assert response.dc_gain_db == pytest.approx(
            amp.performance["gain_db"], abs=3.0
        )

    def test_power_prediction_within_20_percent(self, amp_b):
        report = verify_opamp(amp_b, measure_swing=False, measure_slew=False)
        assert report.get("power") == pytest.approx(
            amp_b.performance["power"], rel=0.2
        )


def _dc_solves(run) -> float:
    tracer = Tracer()
    with tracer.activate():
        run()
    return tracer.metrics.counter_total("dc.solves")


class TestSharedBiasPoint:
    """verify_opamp finds the offset-nulled bias point once and takes
    every small-signal measurement there."""

    def test_verify_searches_for_the_offset_once(self, amp_c):
        # One bisection: the two window ends and 25 steps, the last of
        # which is the bias point (it used to be solved again, and AC
        # used to repeat the whole search).
        search = _dc_solves(lambda: offset_nulled_bias(amp_c))
        verify = _dc_solves(
            lambda: verify_opamp(amp_c, measure_swing=False, measure_slew=False)
        )
        assert verify == search == 27

    def test_bias_point_keeps_its_own_ladder_history(self, amp_a):
        """The returned step's escalation history reaches the amp's
        trace; an earlier step's does not."""

        def ladder_events(at_hit):
            amp = dataclasses.replace(amp_a, trace=DesignTrace())
            with inject("dc.newton", at_hit=at_hit) as injector:
                bias = offset_nulled_bias(amp)
            assert injector.fired
            events = [e for e in amp.trace.events if e.kind == "ladder"]
            return bias, [e.step for e in events]

        with inject("dc.newton", at_hit=10**9) as counter:
            clean = offset_nulled_bias(amp_a)
        last = counter.hits["dc.newton"]  # one Newton run per clean solve
        bias, rungs = ladder_events(at_hit=last)
        assert rungs == ["damped", "gmin"]
        assert bias.offset_v == clean.offset_v
        assert ladder_events(at_hit=3)[1] == []

    def test_rejection_and_noise_reuse_the_bias_point(self, amp_a):
        def verify():
            verify_opamp(
                amp_a,
                measure_swing=False,
                measure_slew=False,
                measure_rejections=True,
                measure_noise=True,
            )

        assert _dc_solves(verify) == _dc_solves(lambda: offset_nulled_bias(amp_a))

    def test_bias_point_matches_the_report(self, amp_a):
        bias = offset_nulled_bias(amp_a)
        report = verify_opamp(amp_a, measure_swing=False, measure_slew=False)
        assert report.offset_v == bias.offset_v
        assert report.get("power") == abs(bias.op.total_power())
        assert abs(bias.op.voltage("out")) < 1e-3


class TestOneBuildPerTestbench:
    """Each testbench is built and validated once; the loops that vary
    a source (offset search, swing sweep, transient) re-solve it."""

    @pytest.mark.parametrize("case, solves", [("amp_a", 60), ("amp_c", 69)])
    def test_verify_builds_at_most_four_systems(
        self, request, monkeypatch, case, solves
    ):
        amp = request.getfixturevalue(case)
        calls = {"systems": 0, "validations": 0}
        build, validate = MnaSystem.__init__, Circuit.validate

        def counting_build(self, *args, **kwargs):
            calls["systems"] += 1
            build(self, *args, **kwargs)

        def counting_validate(self):
            calls["validations"] += 1
            validate(self)

        monkeypatch.setattr(MnaSystem, "__init__", counting_build)
        monkeypatch.setattr(Circuit, "validate", counting_validate)
        # Open loop (offset search and bias point), AC, swing buffer and
        # slew buffer; the per-solve rebuilds made 63 / 72.
        assert _dc_solves(lambda: verify_opamp(amp)) == solves
        assert calls["systems"] <= 4
        # Three testbench builds, plus dc_sweep's and the transient's own
        # check of their circuit; never one per solve.
        assert calls["validations"] <= 5

    def test_op_cache_key_covers_source_values(self, amp_a):
        system = MnaSystem(_open_loop_testbench(amp_a), CMOS_5UM)
        cache = ResultCache()

        def solve(vin):
            return operating_point(system, CMOS_5UM, source_values={"vin": vin})

        with cache_scope(cache):
            first = solve(0.01)
            second = solve(0.02)
            assert (cache.stats()["op"].hits, cache.stats()["op"].misses) == (0, 2)
            assert first.voltage("out") != second.voltage("out")
            again = solve(0.01)
            assert cache.stats()["op"].hits == 1
        assert canonical_json(_op_to_payload(again)) == canonical_json(
            _op_to_payload(first)
        )
        assert again.total_power() == first.total_power()
        assert again.source_voltages["vin"] == 0.01


class TestDeviceWorkPerVerify:
    """Newton iterates read only what they stamp (``evaluate``); each
    converged DC solve builds its devices' full operating points once;
    a transient timestep reads capacitances and builds none."""

    @pytest.mark.parametrize(
        "case, newton_evaluations, op_builds",
        [
            ("amp_a", 13_700, 600),
            ("amp_b", 13_392, 544),
            ("amp_c", 37_136, 1_104),
        ],
    )
    def test_counted_device_work(
        self, request, monkeypatch, case, newton_evaluations, op_builds
    ):
        amp = request.getfixturevalue(case)
        calls = {"evaluate": 0, "operating_point": 0, "timesteps": 0, "in_loop": 0}
        inside = {"operating_point": False, "loop": False}
        evaluate = MosfetModel.evaluate
        build = MosfetModel.operating_point
        begin_step = transient_module._CompanionBank.begin_step
        transient = verify_module.transient_analysis

        def counting_evaluate(self, *args):
            calls["evaluate"] += not inside["operating_point"]
            return evaluate(self, *args)

        def counting_build(self, *args):
            calls["operating_point"] += 1
            calls["in_loop"] += inside["loop"]
            inside["operating_point"] = True
            try:
                return build(self, *args)
            finally:
                inside["operating_point"] = False

        def counting_step(self, h):
            calls["timesteps"] += 1
            inside["loop"] = True
            begin_step(self, h)

        def bounded_transient(*args, **kwargs):
            try:
                return transient(*args, **kwargs)
            finally:
                inside["loop"] = False

        monkeypatch.setattr(MosfetModel, "evaluate", counting_evaluate)
        monkeypatch.setattr(MosfetModel, "operating_point", counting_build)
        monkeypatch.setattr(
            transient_module._CompanionBank, "begin_step", counting_step
        )
        monkeypatch.setattr(verify_module, "transient_analysis", bounded_transient)
        verify_opamp(amp)
        assert calls == {
            "evaluate": newton_evaluations,
            "operating_point": op_builds,
            "timesteps": 600,
            "in_loop": 0,
        }

    @pytest.mark.parametrize(
        "case, plain, damped, damped_solves",
        [
            ("amp_a", 151, 297, 21),
            ("amp_b", 170, 535, 29),
            ("amp_c", 163, 876, 30),
        ],
    )
    def test_solver_trajectory(self, request, case, plain, damped, damped_solves):
        """Every DC solve of one verify takes the same rungs for the same
        iterations: a warm plain rung 39 times (failing once), the damped
        rung for the rest, never a homotopy."""
        tracer = Tracer()
        with tracer.activate():
            verify_opamp(request.getfixturevalue(case))
        counters = tracer.metrics.snapshot()["counters"]
        solver = {
            key: value
            for key, value in counters.items()
            if key.split("{")[0]
            in (
                "dc.lu_solves",
                "dc.newton.iterations",
                "ladder.attempts",
                "ladder.iterations",
                "transient.timesteps",
            )
        }
        assert solver == {
            "dc.lu_solves": plain + damped,
            "dc.newton.iterations{rung=plain}": plain,
            "dc.newton.iterations{rung=damped}": damped,
            "ladder.attempts{outcome=ok,rung=plain}": 39,
            "ladder.attempts{outcome=ok,rung=damped}": damped_solves,
            "ladder.attempts{outcome=failed,rung=plain}": 1,
            "ladder.iterations{rung=plain}": plain,
            "ladder.iterations{rung=damped}": damped,
            "transient.timesteps": 600,
        }


class TestFaultedTimestep:
    """A transient timestep is a DC Newton run: it passes the
    ``dc.newton`` fault site, and a fault there fails the transient at
    that step's time, which verify reports as a note."""

    def test_transient_names_the_failed_step(self, amp_a):
        t_step = 1e-8
        circuit = _buffer_testbench(amp_a, "slew_tb")
        stimuli = {"vin": step_waveform(-1.0, 1.0, t_step=2 * t_step)}
        # Hit 1 is the t=0 operating point, hit 1 + k the k-th timestep.
        with inject("dc.newton", at_hit=1 + 5) as injector:
            with pytest.raises(ConvergenceError, match=f"t={5 * t_step:g}"):
                transient_analysis(
                    circuit, CMOS_5UM, t_stop=20 * t_step, t_step=t_step,
                    stimuli=stimuli,
                )
        assert injector.fired == [("dc.newton", "raise")]

    def test_verify_notes_the_failed_slew(self, amp_a):
        with inject("dc.newton", at_hit=10**9) as counter:
            clean = verify_opamp(amp_a)
        # The slew transient's 600 timesteps are the last Newton runs.
        with inject("dc.newton", at_hit=counter.hits["dc.newton"] - 300):
            faulted = verify_opamp(amp_a)
        note = faulted.notes["slew_rate"]
        assert note.startswith("transient failed: transient step failed at t=")
        slew_keys = ("slew_rate", "settling_time_1pct")
        assert faulted.measured == {
            k: v for k, v in clean.measured.items() if k not in slew_keys
        }
        assert {"offset_mv", "power", "gain_db", "output_swing"} <= set(
            faulted.measured
        )


@pytest.fixture(scope="module")
def inverted_amp(amp_a):
    """Case A with its inputs swapped: the output never crosses 0 V
    where the offset search looks for it."""
    return dataclasses.replace(
        amp_a, emit=lambda builder, inp, inn, out: amp_a.emit(builder, inn, inp, out)
    )


class TestUncentredOutput:
    def test_verify_reports_instead_of_raising(self, inverted_amp):
        report = verify_opamp(
            inverted_amp, measure_rejections=True, measure_noise=True
        )
        for key in ("offset", "ac"):
            assert "output does not cross 0 V" in report.notes[key]
        for key in ("offset_mv", "power", "gain_db", "cmrr_db", "input_noise_nv_1k"):
            assert key not in report.measured
        assert report.offset_v != report.offset_v  # NaN: no offset found
        # Swing and slew need no bias point and still run.
        assert "output_swing" in report.measured
        assert "slew_rate" in report.measured or "slew_rate" in report.notes

    @pytest.mark.parametrize(
        "measure", [offset_nulled_bias, open_loop_response, measure_rejection]
    )
    def test_standalone_measurements_still_raise(self, inverted_amp, measure):
        with pytest.raises(SimulationError, match="does not cross 0 V"):
            measure(inverted_amp)
