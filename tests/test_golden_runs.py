"""Golden-run regression suite: the sized schematics are *pinned*.

For each paper test case (A/B/C) a golden file under ``tests/golden/``
holds the canonical sized-schematic record -- style, every device
geometry, predicted performance -- as deterministic JSON.  These tests
assert the synthesizer reproduces those bytes exactly:

* run-to-run (same process, repeated calls);
* across the batch engine (``jobs=1`` vs ``jobs=4`` workers);
* with and without the result cache.

Any intended change to sizing (a rule edit, a solver tweak, a new
heuristic) must regenerate the files consciously::

    REPRO_UPDATE_GOLDEN=1 python -m pytest tests/test_golden_runs.py

and the diff then documents exactly which devices moved.
"""

import json
import os
from pathlib import Path

import pytest

from repro.batch import synthesize_many
from repro.opamp.designer import synthesize
from repro.opamp.testcases import paper_test_cases
from repro.process import CMOS_5UM

from .numeric_reference import patch_reference_backend, reference_backend

GOLDEN_DIR = Path(__file__).parent / "golden"
UPDATE = os.environ.get("REPRO_UPDATE_GOLDEN") == "1"
CASES = sorted(paper_test_cases())


def _golden_path(label: str) -> Path:
    return GOLDEN_DIR / f"case_{label}.json"


def _current_record_json(label: str) -> str:
    spec = paper_test_cases()[label]
    return synthesize(spec, CMOS_5UM).best.record_json()


@pytest.fixture(scope="module")
def golden():
    """label -> golden bytes; regenerates under REPRO_UPDATE_GOLDEN=1."""
    if UPDATE:
        GOLDEN_DIR.mkdir(exist_ok=True)
        for label in CASES:
            _golden_path(label).write_text(
                _current_record_json(label), encoding="utf-8"
            )
    out = {}
    for label in CASES:
        path = _golden_path(label)
        if not path.exists():
            pytest.fail(
                f"missing golden file {path}; regenerate with "
                "REPRO_UPDATE_GOLDEN=1"
            )
        out[label] = path.read_text(encoding="utf-8")
    return out


class TestGoldenRecords:
    @pytest.mark.parametrize("label", CASES)
    def test_synthesis_reproduces_the_golden_bytes(self, golden, label):
        assert _current_record_json(label) == golden[label]

    @pytest.mark.parametrize("label", CASES)
    def test_repeated_runs_are_byte_stable(self, label):
        assert _current_record_json(label) == _current_record_json(label)

    @pytest.mark.parametrize("label", CASES)
    def test_golden_files_are_canonical_json(self, golden, label):
        record = json.loads(golden[label])
        assert golden[label] == json.dumps(record, indent=2, sort_keys=True) + "\n"
        # Sanity: the record carries the essentials.
        assert record["style"] in ("one_stage", "two_stage")
        assert record["devices"] and record["transistor_count"] > 0
        assert "gain_db" in record["performance"]


class TestGoldenBackendInvariance:
    """The vectorized numeric core moved no golden byte.

    :func:`~tests.numeric_reference.reference_backend` puts the scalar
    reference assembly and solves everywhere; the records it produces
    must equal the committed golden bytes (which the vectorized core
    also reproduces, per :class:`TestGoldenRecords`), and a DC solve
    must deposit the same cache key with a byte-identical payload on
    either backend.
    """

    @pytest.mark.parametrize("label", CASES)
    def test_reference_backend_reproduces_the_golden_bytes(
        self, golden, label, monkeypatch
    ):
        patch_reference_backend(monkeypatch)
        assert _current_record_json(label) == golden[label]

    def test_op_cache_key_and_payload_backend_invariant(self):
        from repro.cache import ResultCache, cache_scope, canonical_json
        from repro.simulator import operating_point
        from repro.simulator.dc import _op_cache_key

        circuit = synthesize(
            paper_test_cases()["A"], CMOS_5UM
        ).best.standalone_circuit()
        key = _op_cache_key(circuit, CMOS_5UM, None, 150, None)

        def payload():
            # The cache key is a pure function of (netlist, process,
            # guess, mismatch): the backend must not leak into it.
            assert _op_cache_key(circuit, CMOS_5UM, None, 150, None) == key
            cache = ResultCache()
            with cache_scope(cache):
                operating_point(circuit, CMOS_5UM)
            return canonical_json(cache.get("op", key))

        with reference_backend():
            reference = payload()
        vectorized = payload()
        assert reference == vectorized
        assert reference != canonical_json(None)


class TestGoldenAcrossTheBatchEngine:
    def _designs(self, **kwargs):
        specs = [(label, paper_test_cases()[label]) for label in CASES]
        results = synthesize_many(specs, CMOS_5UM, **kwargs)
        return {
            r.label: json.dumps(r.record["design"], indent=2, sort_keys=True)
            + "\n"
            for r in results
        }

    def test_jobs_1_and_jobs_4_match_the_golden_files(self, golden):
        for designs in (self._designs(jobs=1), self._designs(jobs=4)):
            for label in CASES:
                assert designs[label] == golden[label], label

    def test_cached_rerun_matches_the_golden_files(self, golden, tmp_path):
        cache_kwargs = dict(use_cache=True, cache_dir=str(tmp_path))
        cold = self._designs(**cache_kwargs)
        warm = self._designs(**cache_kwargs)
        for label in CASES:
            assert cold[label] == golden[label], label
            assert warm[label] == golden[label], label


# ----------------------------------------------------------------------
# What verification measures
# ----------------------------------------------------------------------
def _canonical(record) -> str:
    return json.dumps(record, indent=2, sort_keys=True) + "\n"


def _current_verify_json(label: str) -> str:
    from repro.opamp.verify import verify_opamp

    amp = synthesize(paper_test_cases()[label], CMOS_5UM).best
    report = verify_opamp(amp, measure_rejections=True, measure_noise=True)
    return _canonical(
        {
            "measured": report.measured,
            "offset_v": report.offset_v,
            "notes": report.notes,
        }
    )


def _current_mismatch_json() -> str:
    from repro import OpAmpSpec
    from repro.opamp.designer import design_style
    from repro.opamp.mismatch import monte_carlo_offset_mv, predicted_offset_sigma_mv

    # The one-stage ``ota`` fixture of tests/test_mismatch.py.
    spec = OpAmpSpec(
        gain_db=45.0,
        unity_gain_hz=1e6,
        phase_margin_deg=60.0,
        slew_rate=2e6,
        load_capacitance=10e-12,
        output_swing=3.5,
    )
    ota = design_style("one_stage", spec, CMOS_5UM)
    return _canonical(
        {
            "monte_carlo_offset_mv": [
                float(v) for v in monte_carlo_offset_mv(ota, samples=40, seed=7)
            ],
            "predicted_offset_sigma_mv": predicted_offset_sigma_mv(ota),
        }
    )


class TestGoldenMeasurements:
    """What the simulator measures is pinned byte-for-byte.

    ``verify_<label>.json`` holds ``verify_opamp``'s measured values,
    offset and notes for each paper test case (every optional analysis
    on); ``mismatch_ota.json`` holds a seeded Monte Carlo offset vector
    and the analytic offset sigma.  The loose tolerance tests elsewhere
    would not notice a model or solver change that moved these numbers.
    """

    @pytest.mark.parametrize(
        "name", [f"verify_{label}" for label in CASES] + ["mismatch_ota"]
    )
    def test_measurements_reproduce_the_golden_bytes(self, name):
        path = GOLDEN_DIR / f"{name}.json"
        if name == "mismatch_ota":
            current = _current_mismatch_json()
        else:
            current = _current_verify_json(name.removeprefix("verify_"))
        if UPDATE:
            path.write_text(current, encoding="utf-8")
        if not path.exists():
            pytest.fail(
                f"missing golden file {path}; regenerate with "
                "REPRO_UPDATE_GOLDEN=1"
            )
        assert current == path.read_text(encoding="utf-8")
