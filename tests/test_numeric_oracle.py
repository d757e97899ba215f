"""Differential-testing oracle: scalar reference vs. vectorized core.

The vectorized stamping plan (:mod:`repro.simulator.assembly`), the
stacked frequency-grid solve and the companion bank transient are only
trustworthy if they are *indistinguishable* from the element-by-element
reference they replaced (:mod:`tests.numeric_reference`).  This suite
pits the two implementations against each other on every circuit the
repo can produce -- the paper's synthesized test cases, the foreign fixture
decks, a flattened ADC sub-hierarchy, resistor meshes and
hypothesis-generated random circuits -- and asserts:

* bit-exact agreement of the DC residual/Jacobian and the complex AC
  matrix/rhs (the plan shares the scalar accumulation order);
* end-to-end ``operating_point`` parity across backends, including the
  Newton iteration count;
* solver-counter parity (``dc.lu_solves``, ``dc.newton.iterations``) so
  the vectorized path provably performs the *same* Newton trajectory,
  not merely a nearby one;
* AC, noise, mismatch and transient parity end to end, and DC
  parity on every process corner.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.simulator
from repro.circuit import GROUND, Circuit
from repro.circuit.elements import VoltageSource
from repro.circuit.netlist_io import parse_deck
from repro.errors import ConvergenceError
from repro.obs import Tracer
from repro.opamp.designer import synthesize
from repro.opamp.testcases import paper_test_cases
from repro.process import CMOS_5UM
from repro.simulator import (
    ac_analysis,
    noise_analysis,
    operating_point,
    transient_analysis,
)
from repro.simulator.mna import MnaSystem
from repro.simulator.transient import step_waveform

from .numeric_reference import (
    _reference_patches,
    assemble_ac_reference,
    assemble_dc_reference,
    device_capacitances_reference,
    device_operating_points_reference,
    reference_backend,
)
from .test_determinism import _run
from .test_foreign_decks import _fixture

# ---------------------------------------------------------------------------
# Circuit corpus: every bundled deck, fixture and hierarchy level.
# ---------------------------------------------------------------------------


def _adc_preamp() -> Circuit:
    from repro.adc.sar import SarAdcSpec, design_sar_adc

    spec = SarAdcSpec(bits=8, sample_rate=20e3, v_full_scale=5.0)
    return design_sar_adc(spec, CMOS_5UM).comparator.preamp.standalone_circuit()


def _corpus() -> "dict":
    circuits = {}
    for label, spec in paper_test_cases().items():
        circuits[f"testcase_{label}"] = synthesize(
            spec, CMOS_5UM
        ).best.standalone_circuit()
    for deck in ("ota_5t", "comparator"):
        circuit, _subckts = parse_deck(_fixture(f"{deck}.sp"), name=deck)
        circuits[f"fixture_{deck}"] = circuit
    circuits["adc_preamp"] = _adc_preamp()
    circuits["mesh10"] = _mesh_circuit(10)
    return circuits


@pytest.fixture(scope="module")
def corpus():
    return _corpus()


CORPUS_KEYS = (
    "testcase_A",
    "testcase_B",
    "testcase_C",
    "fixture_ota_5t",
    "fixture_comparator",
    "adc_preamp",
)


def _random_states(system: MnaSystem, count: int = 5):
    rng = np.random.default_rng(20260808)
    for _ in range(count):
        yield rng.uniform(-5.0, 5.0, size=system.size)


def _mesh_circuit(side: int) -> Circuit:
    """``side x side`` resistor grid with a corner supply: at side 10
    the system has 100 unknowns, five times the largest testbench."""
    c = Circuit(f"mesh{side}")

    def node(i: int, j: int) -> str:
        return GROUND if i == 0 and j == 0 else f"n{i}_{j}"

    k = 0
    for i in range(side):
        for j in range(side):
            if i + 1 < side:
                c.add_resistor(f"rv{k}", node(i, j), node(i + 1, j), 1e3 + k)
                k += 1
            if j + 1 < side:
                c.add_resistor(f"rh{k}", node(i, j), node(i, j + 1), 1e3 + k)
                k += 1
    c.add_vsource("vdd", node(side - 1, side - 1), GROUND, dc=5.0)
    return c


def _ac_matrix(system: MnaSystem, omega: float, device_ops) -> np.ndarray:
    """The production dense AC matrix at one angular frequency."""
    plan = system.stamp_plan
    g_vals, c_vals = plan.ac_entry_values(device_ops)
    return plan.assemble_ac_stacked(np.array([omega]), g_vals, c_vals)[0]


# ---------------------------------------------------------------------------
# Assembly agreement: reference walk vs. vectorized scatter, entrywise.
# ---------------------------------------------------------------------------


class TestDcAssemblyAgreement:
    @pytest.mark.parametrize("key", (*CORPUS_KEYS, "mesh10"))
    def test_dense_plan_bit_identical(self, corpus, key):
        system = MnaSystem(corpus[key], CMOS_5UM)
        plan = system.stamp_plan
        for x in _random_states(system):
            for gmin, scale in ((1e-12, 1.0), (1e-9, 0.7)):
                ref_f, ref_j = assemble_dc_reference(system, x, gmin, scale)
                vec_f, vec_j = plan.assemble_dc_dense(x, gmin, scale)
                assert np.array_equal(ref_f, vec_f)
                assert np.array_equal(ref_j, vec_j)
            assert plan.device_operating_points(
                x
            ) == device_operating_points_reference(plan, x)
            assert np.array_equal(
                plan.device_capacitances(x), device_capacitances_reference(plan, x)
            )

    @pytest.mark.parametrize("key", CORPUS_KEYS)
    def test_residual_only_path_agrees(self, corpus, key):
        system = MnaSystem(corpus[key], CMOS_5UM)
        plan = system.stamp_plan
        for x in _random_states(system, count=3):
            ref_f, _ = assemble_dc_reference(system, x, 1e-12, 1.0)
            res_f = plan.assemble_dc_residual(x, 1e-12, 1.0)
            assert np.array_equal(ref_f, res_f)
            assert (
                plan.device_operating_points(x).keys()
                == device_operating_points_reference(plan, x).keys()
            )


class TestAcAssemblyAgreement:
    OMEGAS = (0.0, 2.0 * np.pi * 1e3, 2.0 * np.pi * 1e7)

    @pytest.mark.parametrize("key", CORPUS_KEYS)
    def test_ac_matrix_and_rhs_bit_identical(self, corpus, key):
        circuit = corpus[key]
        op = operating_point(circuit, CMOS_5UM)
        system = MnaSystem(circuit, CMOS_5UM)
        for omega in self.OMEGAS:
            ref_y, ref_rhs = assemble_ac_reference(system, omega, op.device_ops)
            assert np.array_equal(ref_y, _ac_matrix(system, omega, op.device_ops))
            assert np.array_equal(ref_rhs, system.stamp_plan.ac_rhs())

    @pytest.mark.parametrize("key", ("testcase_A", "fixture_ota_5t"))
    def test_ac_stacked_matches_reference(self, corpus, key):
        circuit = corpus[key]
        op = operating_point(circuit, CMOS_5UM)
        system = MnaSystem(circuit, CMOS_5UM)
        plan = system.stamp_plan
        g_vals, c_vals = plan.ac_entry_values(op.device_ops)
        omegas = np.array(self.OMEGAS)
        stack = plan.assemble_ac_stacked(omegas, g_vals, c_vals)
        for i, omega in enumerate(omegas):
            ref_y, _ = assemble_ac_reference(system, float(omega), op.device_ops)
            assert np.array_equal(ref_y, stack[i])

    def test_ac_source_overrides_agree(self, corpus):
        circuit = corpus["testcase_A"]
        op = operating_point(circuit, CMOS_5UM)
        system = MnaSystem(circuit, CMOS_5UM)
        overrides = {"vdd": 1.0 + 0.0j}
        omega = 2.0 * np.pi * 1e4
        ref_y, ref_rhs = assemble_ac_reference(
            system, omega, op.device_ops, overrides
        )
        assert np.array_equal(ref_y, _ac_matrix(system, omega, op.device_ops))
        assert np.array_equal(ref_rhs, system.stamp_plan.ac_rhs(overrides))
        assert not np.array_equal(ref_rhs, system.stamp_plan.ac_rhs())


# ---------------------------------------------------------------------------
# End-to-end operating-point parity across backends.
# ---------------------------------------------------------------------------


def _solve_with_backend(circuit, forced: bool):
    if forced:
        with reference_backend():
            return operating_point(circuit, CMOS_5UM)
    return operating_point(circuit, CMOS_5UM)


class TestOperatingPointParity:
    @pytest.mark.parametrize("key", CORPUS_KEYS)
    def test_bundled_circuits_bit_identical(self, corpus, key):
        """The vectorized path shares the scalar accumulation order, so
        even the floating-point noise is identical: voltages, branch
        currents and iteration counts must match bit-for-bit."""
        circuit = corpus[key]
        reference = _solve_with_backend(circuit, forced=True)
        vectorized = _solve_with_backend(circuit, forced=False)
        assert reference.voltages == vectorized.voltages
        assert reference.source_currents == vectorized.source_currents
        assert reference.iterations == vectorized.iterations
        assert reference.device_ops.keys() == vectorized.device_ops.keys()
        for name, ref_op in reference.device_ops.items():
            assert vectorized.device_ops[name].ids == ref_op.ids
        assert reference.device_ops == vectorized.device_ops

    def test_mesh_bit_identical(self, corpus):
        reference = _solve_with_backend(corpus["mesh10"], forced=True)
        vectorized = _solve_with_backend(corpus["mesh10"], forced=False)
        assert reference.voltages == vectorized.voltages
        assert reference.iterations == vectorized.iterations

    def test_reference_backend_is_restored(self):
        """Leaving the block puts every production path back."""
        patched = [(owner, name) for owner, name, _ in _reference_patches()]
        before = [getattr(owner, name) for owner, name in patched]
        with reference_backend():
            for (owner, name), original in zip(patched, before):
                assert getattr(owner, name) is not original, name
        assert [getattr(owner, name) for owner, name in patched] == before

    def test_shipped_simulator_has_one_path(self):
        """No environment switch selects another numeric path, and the
        reference stampers live only in the test oracle."""
        package = Path(repro.simulator.__file__).parent
        for module in package.glob("*.py"):
            assert "environ" not in module.read_text(encoding="utf-8"), module
        assert not [name for name in dir(MnaSystem) if "reference" in name]

    def test_simulator_does_not_import_scipy(self):
        """The dense solver is the only one: importing the CLI and
        solving an operating point loads no ``scipy`` module."""
        script = (
            "import sys\n"
            "import repro.cli, repro.simulator\n"
            "from repro.opamp.designer import synthesize\n"
            "from repro.opamp.testcases import paper_test_cases\n"
            "from repro.process import CMOS_5UM\n"
            "amp = synthesize(paper_test_cases()['A'], CMOS_5UM).best\n"
            "op = repro.simulator.operating_point(\n"
            "    amp.standalone_circuit(), CMOS_5UM)\n"
            "assert op.iterations > 0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        )
        assert _run(script, "0").strip() == "[]"


class TestSolverCounterParity:
    """The vectorized core must take the *same* Newton trajectory: the
    LU-solve and per-rung iteration counters agree exactly between
    backends -- not just the converged answer."""

    COUNTERS = ("dc.lu_solves", "dc.newton.iterations", "dc.solves")

    def _counters_for(self, circuit, forced):
        tracer = Tracer()
        with tracer.activate():
            op = _solve_with_backend(circuit, forced)
        totals = {
            name: tracer.metrics.counter_total(name) for name in self.COUNTERS
        }
        return op, totals

    @pytest.mark.parametrize(
        "key", ("testcase_A", "testcase_C", "adc_preamp", "mesh10")
    )
    def test_dense_sized_counter_parity(self, corpus, key):
        _, ref = self._counters_for(corpus[key], forced=True)
        _, vec = self._counters_for(corpus[key], forced=False)
        assert ref == vec
        assert ref["dc.lu_solves"] > 0


# ---------------------------------------------------------------------------
# Small-signal and transient analyses end to end.
# ---------------------------------------------------------------------------


class TestAnalysisParity:
    """The stacked grid solve and the companion-bank integrator against
    the per-frequency loop and the per-capacitor integrator."""

    FREQS = np.logspace(0, 8, 33)

    @pytest.mark.parametrize("key", ("testcase_A", "testcase_C", "fixture_ota_5t"))
    def test_ac_sweep_bit_identical(self, corpus, key):
        circuit = corpus[key]
        op = operating_point(circuit, CMOS_5UM)
        vectorized = ac_analysis(circuit, CMOS_5UM, op, self.FREQS)
        with reference_backend():
            reference = ac_analysis(circuit, CMOS_5UM, op, self.FREQS)
        assert reference.phasors.keys() == vectorized.phasors.keys()
        for node, phasor in reference.phasors.items():
            assert np.array_equal(phasor, vectorized.phasors[node])

    def test_mesh_ac_sweep_bit_identical(self):
        circuit = _mesh_circuit(10)
        circuit.add_capacitor("cload", "n5_5", GROUND, 1e-12)
        op = operating_point(circuit, CMOS_5UM)
        drive = {"vdd": 1.0}
        vectorized = ac_analysis(
            circuit, CMOS_5UM, op, self.FREQS, source_overrides=drive
        )
        with reference_backend():
            reference = ac_analysis(
                circuit, CMOS_5UM, op, self.FREQS, source_overrides=drive
            )
        for node, phasor in reference.phasors.items():
            assert np.array_equal(phasor, vectorized.phasors[node])

    @pytest.mark.parametrize("key", ("testcase_A", "testcase_B"))
    def test_noise_bit_identical(self, corpus, key):
        circuit = corpus[key]
        op = operating_point(circuit, CMOS_5UM)
        vectorized = noise_analysis(circuit, CMOS_5UM, op, self.FREQS, "out")
        with reference_backend():
            reference = noise_analysis(circuit, CMOS_5UM, op, self.FREQS, "out")
        assert np.array_equal(reference.output_psd, vectorized.output_psd)
        for name, share in reference.contributions.items():
            assert np.array_equal(share, vectorized.contributions[name])

    def test_mismatch_sensitivity_bit_identical(self):
        from repro.opamp.mismatch import device_offset_sensitivities

        amp = synthesize(paper_test_cases()["A"], CMOS_5UM).best
        vectorized = device_offset_sensitivities(amp)
        with reference_backend():
            reference = device_offset_sensitivities(amp)
        assert reference == vectorized

    @pytest.mark.parametrize("key", ("testcase_A", "fixture_ota_5t"))
    def test_transient_step_agrees(self, corpus, key):
        circuit = corpus[key]
        source = next(
            e
            for e in circuit.elements
            if isinstance(e, VoltageSource) and e.positive == "inp"
        )
        stimuli = {
            source.name: step_waveform(
                source.dc, source.dc + 1e-3, t_step=2e-7, t_rise=1e-8
            )
        }
        vectorized = transient_analysis(
            circuit, CMOS_5UM, t_stop=2e-6, t_step=2e-8, stimuli=stimuli
        )
        with reference_backend():
            reference = transient_analysis(
                circuit, CMOS_5UM, t_stop=2e-6, t_step=2e-8, stimuli=stimuli
            )
        assert np.array_equal(reference.times, vectorized.times)
        for node, wave in reference.waveforms.items():
            assert np.array_equal(vectorized.waveforms[node], wave)


# ---------------------------------------------------------------------------
# Process corners: the solver trajectory on every corner's models.
# ---------------------------------------------------------------------------


def _corner_process(corner):
    return CMOS_5UM if corner == "typical" else CMOS_5UM.corner(corner)


class TestCornerParity:
    def test_diode_loaded_mesh_corners_match_reference(self):
        """A 16x16 mesh with a diagonal of diode-connected NMOS loads
        (so Newton iterates), solved on each process corner: the
        vectorized path repeats the scalar reference's trajectory
        exactly -- same voltages, iterations and ``dc.*`` counters, one
        LU solve per Newton iteration."""
        circuit = _mesh_circuit(16)
        for m in range(1, 9):
            circuit.add_mosfet(
                f"m{m}",
                f"n{m}_{m}",
                f"n{m}_{m}",
                GROUND,
                GROUND,
                "nmos",
                width=50e-6,
                length=10e-6,
            )

        def run():
            tracer = Tracer()
            with tracer.activate():
                results = {
                    corner: operating_point(circuit, _corner_process(corner))
                    for corner in ("typical", "fast", "slow")
                }
            counters = {
                key: value
                for key, value in tracer.metrics.snapshot()["counters"].items()
                if key.startswith("dc.")
            }
            return results, counters, tracer.metrics

        vectorized, vec_counters, metrics = run()
        with reference_backend():
            reference, ref_counters, _ = run()
        for corner, result in reference.items():
            assert vectorized[corner].voltages == result.voltages
            assert vectorized[corner].iterations == result.iterations
        assert vec_counters == ref_counters
        lu_solves = metrics.counter_total("dc.lu_solves")
        assert lu_solves == metrics.counter_total("dc.newton.iterations") > 0


# ---------------------------------------------------------------------------
# Hypothesis: random circuits.
# ---------------------------------------------------------------------------


@st.composite
def random_circuits(draw):
    """Random connected R/C/V/I/MOSFET circuits, 2-6 internal nodes.

    A resistor ring through every node and ground guarantees the
    structural-validation invariants (no dangling node, everything
    reachable from ground); the extra randomly-drawn elements then
    exercise arbitrary stamp interleavings without breaking validity.
    """
    n_nodes = draw(st.integers(min_value=2, max_value=6))
    nodes = [f"n{i}" for i in range(n_nodes)]
    ring = [GROUND, *nodes]
    c = Circuit("hyp")
    for i, a in enumerate(ring):
        b = ring[(i + 1) % len(ring)]
        value = draw(st.floats(min_value=100.0, max_value=1e6))
        c.add_resistor(f"rring{i}", a, b, value)

    pick = st.sampled_from(ring)
    n_extra = draw(st.integers(min_value=1, max_value=6))
    for k in range(n_extra):
        kind = draw(st.sampled_from(("r", "c", "v", "i", "m")))
        a = draw(pick)
        b = draw(pick.filter(lambda n, a=a: n != a))
        if kind == "r":
            c.add_resistor(
                f"rx{k}", a, b, draw(st.floats(min_value=10.0, max_value=1e7))
            )
        elif kind == "c":
            c.add_capacitor(
                f"cx{k}", a, b, draw(st.floats(min_value=1e-15, max_value=1e-9))
            )
        elif kind == "v":
            c.add_vsource(
                f"vx{k}", a, b, dc=draw(st.floats(min_value=-5.0, max_value=5.0))
            )
        elif kind == "i":
            c.add_isource(
                f"ix{k}", a, b, dc=draw(st.floats(min_value=-1e-3, max_value=1e-3))
            )
        else:
            g = draw(pick)
            c.add_mosfet(
                f"mx{k}",
                a,
                g,
                b,
                GROUND,
                draw(st.sampled_from(("nmos", "pmos"))),
                width=draw(st.floats(min_value=5e-6, max_value=500e-6)),
                length=draw(st.floats(min_value=5e-6, max_value=50e-6)),
            )
    return c


class TestHypothesisOracle:
    @given(circuit=random_circuits(), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_random_assembly_agreement(self, circuit, seed):
        system = MnaSystem(circuit, CMOS_5UM)
        rng = np.random.default_rng(seed)
        x = rng.uniform(-5.0, 5.0, size=system.size)
        ref_f, ref_j = assemble_dc_reference(system, x, 1e-12, 1.0)
        vec_f, vec_j = system.stamp_plan.assemble_dc_dense(x, 1e-12, 1.0)
        np.testing.assert_allclose(vec_f, ref_f, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(vec_j, ref_j, rtol=0.0, atol=1e-12)
        # The dense plan replays the scalar accumulation order, so the
        # agreement is in fact exact, not merely within tolerance.
        assert np.array_equal(ref_f, vec_f)
        assert np.array_equal(ref_j, vec_j)

    @given(circuit=random_circuits())
    @settings(max_examples=25, deadline=None)
    def test_random_operating_point_same_outcome(self, circuit):
        """Both backends converge to the same point with the same
        iteration count, or both fail with ConvergenceError."""
        try:
            reference = _solve_with_backend(circuit, forced=True)
        except ConvergenceError:
            reference = None
        try:
            vectorized = _solve_with_backend(circuit, forced=False)
        except ConvergenceError:
            vectorized = None
        if reference is None:
            assert vectorized is None
        else:
            assert vectorized is not None
            assert reference.voltages == vectorized.voltages
            assert reference.iterations == vectorized.iterations
