"""Tests for repro.process: parameters, technology files, built-ins."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import TechnologyError
from repro.process import (
    CMOS_1P2UM,
    CMOS_3UM,
    CMOS_5UM,
    DeviceParams,
    ProcessParameters,
    builtin_processes,
    dump_technology,
    loads_technology,
)
from repro.process.parameters import (
    estimate_junction_area,
    estimate_junction_perimeter,
    kp_from_physics,
    lambda_fit,
    oxide_capacitance,
    thermal_voltage,
)


def make_nmos(**overrides):
    base = dict(polarity="nmos", vto=1.0, kp=24e-6)
    base.update(overrides)
    return DeviceParams(**base)


class TestDeviceParams:
    def test_basic_construction(self):
        dev = make_nmos()
        assert dev.vth_magnitude == 1.0

    def test_pmos_negative_vto_required(self):
        with pytest.raises(TechnologyError):
            DeviceParams(polarity="pmos", vto=1.0, kp=8e-6)

    def test_nmos_positive_vto_required(self):
        with pytest.raises(TechnologyError):
            DeviceParams(polarity="nmos", vto=-1.0, kp=24e-6)

    def test_bad_polarity(self):
        with pytest.raises(TechnologyError):
            DeviceParams(polarity="njfet", vto=1.0, kp=24e-6)

    def test_nonpositive_kp(self):
        with pytest.raises(TechnologyError):
            make_nmos(kp=0.0)

    def test_lambda_at_decreases_with_length(self):
        dev = make_nmos()
        assert dev.lambda_at(5e-6) > dev.lambda_at(10e-6)

    def test_lambda_at_model(self):
        dev = make_nmos(lambda_a=0.06, lambda_b=0.003)
        assert dev.lambda_at(5e-6) == pytest.approx(0.06 / 5 + 0.003)

    def test_lambda_bad_length(self):
        with pytest.raises(TechnologyError):
            make_nmos().lambda_at(0.0)

    def test_beta_scales_with_geometry(self):
        dev = make_nmos(kp=20e-6)
        assert dev.beta(10e-6, 5e-6) == pytest.approx(40e-6)

    def test_beta_bad_geometry(self):
        with pytest.raises(TechnologyError):
            make_nmos().beta(-1e-6, 5e-6)

    @given(
        st.floats(min_value=1e-6, max_value=100e-6),
        st.floats(min_value=1e-6, max_value=100e-6),
    )
    def test_beta_positive_property(self, w, l):
        assert make_nmos().beta(w, l) > 0


class TestProcessParameters:
    def test_builtin_5um_is_consistent(self):
        CMOS_5UM.check_consistency(tolerance=0.1)

    def test_all_builtins_consistent(self):
        for process in builtin_processes().values():
            process.check_consistency(tolerance=0.1)

    def test_cox_from_tox(self):
        # 85 nm oxide -> ~0.406 fF/um^2
        assert CMOS_5UM.cox == pytest.approx(4.06e-4, rel=0.01)

    def test_supply_span(self):
        assert CMOS_5UM.supply_span == pytest.approx(10.0)

    def test_device_lookup(self):
        assert CMOS_5UM.device("nmos") is CMOS_5UM.nmos
        assert CMOS_5UM.device("pmos") is CMOS_5UM.pmos
        with pytest.raises(TechnologyError):
            CMOS_5UM.device("bjt")

    def test_with_supplies(self):
        modified = CMOS_5UM.with_supplies(3.0, -3.0)
        assert modified.vdd == 3.0
        assert modified.nmos is CMOS_5UM.nmos

    def test_vdd_must_exceed_vss(self):
        with pytest.raises(TechnologyError):
            CMOS_5UM.with_supplies(-5.0, 5.0)

    def test_supply_must_cover_thresholds(self):
        with pytest.raises(TechnologyError):
            CMOS_5UM.with_supplies(1.0, 0.0)

    def test_table1_rows_complete(self):
        rows = list(CMOS_5UM.table1_rows())
        # Table 1 of the paper lists 14 parameters.
        assert len(rows) == 14
        labels = [label for label, _ in rows]
        assert "Supply Voltage (V)" in labels
        assert "Oxide Thickness (A)" in labels

    def test_polarity_mismatch_rejected(self):
        with pytest.raises(TechnologyError):
            ProcessParameters(
                name="bad",
                nmos=CMOS_5UM.pmos,
                pmos=CMOS_5UM.pmos,
                min_width=5e-6,
                min_length=5e-6,
                min_drain_width=6e-6,
                vdd=5.0,
                vss=-5.0,
                tox=85e-9,
            )

    def test_check_consistency_detects_bad_deck(self):
        import dataclasses

        bad_nmos = dataclasses.replace(CMOS_5UM.nmos, kp=240e-6)
        bad = dataclasses.replace(CMOS_5UM, nmos=bad_nmos)
        with pytest.raises(TechnologyError):
            bad.check_consistency(tolerance=0.5)


class TestHelpers:
    def test_junction_area(self):
        assert estimate_junction_area(10e-6, 6e-6) == pytest.approx(60e-12)

    def test_junction_perimeter(self):
        assert estimate_junction_perimeter(10e-6, 6e-6) == pytest.approx(32e-6)

    def test_thermal_voltage_room_temp(self):
        assert thermal_voltage(300.0) == pytest.approx(0.02585, rel=1e-3)

    def test_oxide_capacitance(self):
        assert oxide_capacitance(85e-9) == pytest.approx(4.06e-4, rel=0.01)

    def test_kp_from_physics(self):
        assert kp_from_physics(591.0, 85e-9) == pytest.approx(24e-6, rel=0.02)

    def test_lambda_fit_recovers_model(self):
        lengths = [2.0, 5.0, 10.0, 20.0]
        lams = [0.06 / length + 0.003 for length in lengths]
        a, b = lambda_fit(lengths, lams)
        assert a == pytest.approx(0.06, rel=1e-6)
        assert b == pytest.approx(0.003, rel=1e-6)

    def test_lambda_fit_needs_two_points(self):
        with pytest.raises(TechnologyError):
            lambda_fit([5.0], [0.01])

    def test_lambda_fit_needs_distinct_lengths(self):
        with pytest.raises(TechnologyError):
            lambda_fit([5.0, 5.0], [0.01, 0.02])


class TestTechnologyFile:
    def test_roundtrip_5um(self):
        text = dump_technology(CMOS_5UM)
        recovered = loads_technology(text)
        assert recovered == CMOS_5UM

    def test_roundtrip_all_builtins(self):
        for process in builtin_processes().values():
            assert loads_technology(dump_technology(process)) == process

    def test_engineering_suffixes_accepted(self):
        text = """
        name = test-process
        [process]
        min_width = 5u
        min_length = 5u
        min_drain_width = 6u
        vdd = 5.0
        vss = -5.0
        tox = 85n
        [nmos]
        vto = 1.0
        kp = 24u
        [pmos]
        vto = -1.0
        kp = 8u
        """
        process = loads_technology(text)
        assert process.min_width == pytest.approx(5e-6)
        assert process.nmos.kp == pytest.approx(24e-6)
        assert process.name == "test-process"

    def test_comments_ignored(self):
        text = dump_technology(CMOS_5UM)
        commented = "* a comment\n; another\n# third\n" + text
        assert loads_technology(commented) == CMOS_5UM

    def test_extras_preserved(self):
        text = dump_technology(CMOS_5UM).replace(
            "[nmos]", "matching_sigma = 0.01\n[nmos]", 1
        )
        process = loads_technology(text)
        assert process.extras["matching_sigma"] == pytest.approx(0.01)
        # and extras survive a dump/load cycle
        assert loads_technology(dump_technology(process)) == process

    def test_missing_section_raises(self):
        with pytest.raises(TechnologyError):
            loads_technology("name = x\n[process]\nmin_width = 5u\n")

    def test_missing_key_raises(self):
        text = """
        [process]
        min_width = 5u
        min_length = 5u
        min_drain_width = 6u
        vdd = 5.0
        vss = -5.0
        tox = 85n
        [nmos]
        vto = 1.0
        [pmos]
        vto = -1.0
        kp = 8u
        """
        with pytest.raises(TechnologyError, match="kp"):
            loads_technology(text)

    def test_unknown_device_key_raises(self):
        text = dump_technology(CMOS_5UM).replace("gamma", "gamma_typo", 1)
        with pytest.raises(TechnologyError, match="unknown"):
            loads_technology(text)

    def test_duplicate_section_raises(self):
        text = dump_technology(CMOS_5UM) + "\n[nmos]\nvto = 1.0\nkp = 24u\n"
        with pytest.raises(TechnologyError, match="duplicate"):
            loads_technology(text)

    def test_malformed_line_raises(self):
        with pytest.raises(TechnologyError, match="key = value"):
            loads_technology("[process]\nnonsense line\n")

    def test_key_before_section_raises(self):
        with pytest.raises(TechnologyError):
            loads_technology("vdd = 5.0\n[process]\n")

    def test_bad_quantity_raises(self):
        text = dump_technology(CMOS_5UM).replace("vdd = 5.0", "vdd = five")
        with pytest.raises(TechnologyError):
            loads_technology(text)

    def test_load_from_disk(self, tmp_path):
        from repro.process import load_technology

        path = tmp_path / "proc.tech"
        path.write_text(dump_technology(CMOS_3UM))
        assert load_technology(path) == CMOS_3UM


class TestBuiltinLibrary:
    def test_three_generations(self):
        assert len(builtin_processes()) == 3

    def test_scaling_trend_cox(self):
        # Later generations have thinner oxide, hence larger Cox.
        assert CMOS_5UM.cox < CMOS_3UM.cox < CMOS_1P2UM.cox

    def test_scaling_trend_kp(self):
        assert CMOS_5UM.nmos.kp < CMOS_3UM.nmos.kp < CMOS_1P2UM.nmos.kp

    def test_nmos_stronger_than_pmos(self):
        for process in builtin_processes().values():
            assert process.nmos.kp > process.pmos.kp
