"""Tests for the level-1 MOSFET model: regions, continuity, symmetry."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.devices import MosfetModel, Region
from repro.errors import TechnologyError
from repro.process import CMOS_5UM


def nmos(width=50e-6, length=5e-6):
    return MosfetModel(
        CMOS_5UM.nmos, width, length, CMOS_5UM.min_drain_width, CMOS_5UM.cox
    )


def pmos(width=50e-6, length=5e-6):
    return MosfetModel(
        CMOS_5UM.pmos, width, length, CMOS_5UM.min_drain_width, CMOS_5UM.cox
    )


class TestRegions:
    def test_cutoff(self):
        op = nmos().operating_point(vgs=0.5, vds=2.0, vbs=0.0)
        assert op.region is Region.CUTOFF
        assert op.ids < 1e-9  # subthreshold tail is tiny

    def test_saturation(self):
        op = nmos().operating_point(vgs=2.0, vds=3.0, vbs=0.0)
        assert op.region is Region.SATURATION
        assert op.saturated

    def test_triode(self):
        op = nmos().operating_point(vgs=3.0, vds=0.5, vbs=0.0)
        assert op.region is Region.TRIODE

    def test_saturation_current_square_law(self):
        dev = nmos()
        op = dev.operating_point(vgs=2.0, vds=5.0, vbs=0.0)
        vov = 2.0 - 1.0
        expected = 0.5 * dev.beta * vov**2 * (1 + dev.lam * 5.0)
        assert op.ids == pytest.approx(expected, rel=1e-9)

    def test_vdsat_equals_vov(self):
        op = nmos().operating_point(vgs=2.5, vds=5.0, vbs=0.0)
        assert op.vdsat == pytest.approx(1.5)


class TestPmosSymmetry:
    def test_pmos_current_negative(self):
        op = pmos().operating_point(vgs=-2.0, vds=-3.0, vbs=0.0)
        assert op.region is Region.SATURATION
        assert op.ids < 0

    def test_pmos_mirror_of_nmos_shape(self):
        # With matched beta, the PMOS current is the exact reflection.
        n = MosfetModel(CMOS_5UM.nmos, 10e-6, 5e-6, 6e-6, CMOS_5UM.cox)
        p = MosfetModel(CMOS_5UM.pmos, 30e-6, 5e-6, 6e-6, CMOS_5UM.cox)
        op_n = n.operating_point(2.0, 3.0, 0.0)
        op_p = p.operating_point(-2.0, -3.0, 0.0)
        # kp ratio 24:8 = 3, widths 10:30 compensate -> betas equal, but
        # lambda differs; compare to a few percent.
        assert -op_p.ids == pytest.approx(op_n.ids, rel=0.05)

    def test_pmos_conductances_positive_in_forward_operation(self):
        op = pmos().operating_point(vgs=-2.0, vds=-3.0, vbs=0.0)
        assert op.gm > 0
        assert op.gds > 0


class TestContinuity:
    """The current and derivatives must be continuous across region
    boundaries; NR convergence depends on this."""

    def test_current_continuous_at_sat_triode_boundary(self):
        dev = nmos()
        vov = 1.0
        below = dev.operating_point(vgs=2.0, vds=vov - 1e-9, vbs=0.0)
        above = dev.operating_point(vgs=2.0, vds=vov + 1e-9, vbs=0.0)
        assert below.ids == pytest.approx(above.ids, rel=1e-6)

    def test_gds_continuous_at_boundary(self):
        dev = nmos()
        below = dev.operating_point(vgs=2.0, vds=1.0 - 1e-9, vbs=0.0)
        above = dev.operating_point(vgs=2.0, vds=1.0 + 1e-9, vbs=0.0)
        assert below.gds == pytest.approx(above.gds, rel=1e-5)

    def test_gm_continuous_at_boundary(self):
        dev = nmos()
        below = dev.operating_point(vgs=2.0, vds=1.0 - 1e-9, vbs=0.0)
        above = dev.operating_point(vgs=2.0, vds=1.0 + 1e-9, vbs=0.0)
        assert below.gm == pytest.approx(above.gm, rel=1e-5)

    def test_current_continuous_at_cutoff_boundary(self):
        dev = nmos()
        below = dev.operating_point(vgs=1.0 - 1e-9, vds=2.0, vbs=0.0)
        above = dev.operating_point(vgs=1.0 + 1e-9, vds=2.0, vbs=0.0)
        assert below.ids == pytest.approx(above.ids, rel=1e-3)

    @given(
        st.floats(min_value=0.0, max_value=4.0),
        # The model is C1 within each drain/source mode; vds=0 itself is
        # only C0 (tail currents ~1e-11 A), so keep the central difference
        # on one side of the mode boundary.
        st.floats(min_value=0.001, max_value=5.0),
        st.floats(min_value=-3.0, max_value=0.0),
    )
    @settings(max_examples=200)
    def test_derivatives_match_finite_differences(self, vgs, vds, vbs):
        dev = nmos()
        h = 1e-7
        op = dev.operating_point(vgs, vds, vbs)
        fd_gm = (dev.operating_point(vgs + h, vds, vbs).ids - dev.operating_point(vgs - h, vds, vbs).ids) / (2 * h)
        fd_gds = (dev.operating_point(vgs, vds + h, vbs).ids - dev.operating_point(vgs, vds - h, vbs).ids) / (2 * h)
        scale = max(abs(op.gm), abs(op.gds), 1e-9)
        assert op.gm == pytest.approx(fd_gm, rel=1e-3, abs=1e-4 * scale)
        assert op.gds == pytest.approx(fd_gds, rel=1e-3, abs=1e-4 * scale)


class TestReversedMode:
    def test_drain_source_swap_antisymmetry(self):
        dev = nmos()
        forward = dev.operating_point(vgs=2.0, vds=1.5, vbs=-1.0)
        # Swap drain and source: vgs' = vgd = vgs - vds; vds' = -vds;
        # vbs' = vbd = vbs - vds.  The current must negate exactly.
        reverse = dev.operating_point(vgs=2.0 - 1.5, vds=-1.5, vbs=-1.0 - 1.5)
        assert reverse.reversed_mode
        assert reverse.ids == pytest.approx(-forward.ids, rel=1e-9)

    @given(
        st.floats(min_value=0.0, max_value=4.0),
        st.floats(min_value=-5.0, max_value=-0.001),
        st.floats(min_value=-3.0, max_value=0.0),
    )
    @settings(max_examples=100)
    def test_reversed_derivatives_match_finite_differences(self, vgs, vds, vbs):
        dev = nmos()
        h = 1e-7
        op = dev.operating_point(vgs, vds, vbs)
        fd_gm = (dev.operating_point(vgs + h, vds, vbs).ids - dev.operating_point(vgs - h, vds, vbs).ids) / (2 * h)
        fd_gds = (dev.operating_point(vgs, vds + h, vbs).ids - dev.operating_point(vgs, vds - h, vbs).ids) / (2 * h)
        scale = max(abs(op.gm), abs(op.gds), 1e-9)
        assert op.gm == pytest.approx(fd_gm, rel=1e-3, abs=1e-4 * scale)
        assert op.gds == pytest.approx(fd_gds, rel=1e-3, abs=1e-4 * scale)


class TestBodyEffect:
    def test_threshold_rises_with_reverse_body_bias(self):
        dev = nmos()
        assert dev.threshold(-2.0) > dev.threshold(0.0)

    def test_no_body_effect_without_gamma(self):
        import dataclasses

        params = dataclasses.replace(CMOS_5UM.nmos, gamma=0.0)
        dev = MosfetModel(params, 50e-6, 5e-6, 6e-6, CMOS_5UM.cox)
        assert dev.threshold(-3.0) == dev.threshold(0.0)
        op = dev.operating_point(2.0, 3.0, -1.0)
        assert op.gmbs == 0.0

    def test_gmbs_positive_with_gamma(self):
        op = nmos().operating_point(2.0, 3.0, -1.0)
        assert op.gmbs > 0

    def test_gmbs_matches_finite_difference(self):
        dev = nmos()
        h = 1e-7
        op = dev.operating_point(2.0, 3.0, -1.0)
        fd = (dev.operating_point(2.0, 3.0, -1.0 + h).ids - dev.operating_point(2.0, 3.0, -1.0 - h).ids) / (2 * h)
        assert op.gmbs == pytest.approx(fd, rel=1e-4)


class TestCapacitances:
    def test_saturation_cgs_two_thirds(self):
        dev = nmos(width=50e-6, length=5e-6)
        op = dev.operating_point(2.0, 5.0, 0.0)
        c_ox_area = CMOS_5UM.cox * 50e-6 * 5e-6
        overlap = CMOS_5UM.nmos.cgso * 50e-6
        assert op.cgs == pytest.approx((2.0 / 3.0) * c_ox_area + overlap, rel=1e-9)

    def test_cutoff_gate_bulk_dominates(self):
        op = nmos().operating_point(0.0, 2.0, 0.0)
        assert op.cgb > op.cgs
        assert op.cgb > op.cgd

    def test_triode_cgs_cgd_split(self):
        op = nmos().operating_point(3.0, 0.2, 0.0)
        assert op.cgs == pytest.approx(op.cgd, rel=1e-9)

    def test_junction_caps_shrink_with_reverse_bias(self):
        dev = nmos()
        weak = dev.operating_point(2.0, 0.5, 0.0)
        strong = dev.operating_point(2.0, 4.0, 0.0)
        assert strong.cbd < weak.cbd

    def test_all_caps_nonnegative(self):
        op = nmos().operating_point(2.0, 3.0, -1.0)
        for cap in (op.cgs, op.cgd, op.cgb, op.cbd, op.cbs):
            assert cap >= 0


class TestDesignHelpers:
    def test_gm_at_current(self):
        dev = nmos()
        ids = 10e-6
        assert dev.gm_at_current(ids) == pytest.approx(math.sqrt(2 * dev.beta * ids))

    def test_gm_at_zero_current(self):
        assert nmos().gm_at_current(0.0) == 0.0

    def test_saturation_current_inverse_of_gm(self):
        dev = nmos()
        vov = 0.4
        ids = dev.saturation_current(vov)
        # gm = 2*Id/vov must agree with sqrt(2*beta*Id)
        assert dev.gm_at_current(ids) == pytest.approx(2 * ids / vov, rel=1e-9)

    def test_saturation_current_nonpositive_vov(self):
        assert nmos().saturation_current(-0.1) == 0.0

    def test_active_area(self):
        dev = nmos(width=10e-6, length=5e-6)
        gate = 10e-6 * 5e-6
        diff = 2 * 10e-6 * CMOS_5UM.min_drain_width
        assert dev.active_area() == pytest.approx(gate + diff)

    def test_bad_geometry_raises(self):
        with pytest.raises(TechnologyError):
            MosfetModel(CMOS_5UM.nmos, -1e-6, 5e-6, 6e-6, CMOS_5UM.cox)

    def test_repr_mentions_polarity(self):
        assert "nmos" in repr(nmos())


class TestMonotonicity:
    @given(st.floats(min_value=1.01, max_value=4.0))
    @settings(max_examples=50)
    def test_current_increases_with_vgs(self, vgs):
        dev = nmos()
        low = dev.operating_point(vgs, 5.0, 0.0).ids
        high = dev.operating_point(vgs + 0.1, 5.0, 0.0).ids
        assert high > low

    @given(
        st.floats(min_value=0.0, max_value=4.0),
        st.floats(min_value=0.0, max_value=4.9),
    )
    @settings(max_examples=100)
    def test_current_nondecreasing_with_vds(self, vgs, vds):
        dev = nmos()
        low = dev.operating_point(vgs, vds, 0.0).ids
        high = dev.operating_point(vgs, vds + 0.1, 0.0).ids
        assert high >= low - 1e-15


class TestModelSplit:
    """``evaluate`` (what a Newton stamp reads) and ``capacitances``
    (what AC and the transient linearize) are exactly the fields of the
    full ``operating_point``: same arithmetic, same bits."""

    @staticmethod
    def _device(polarity, width, length):
        params = CMOS_5UM.nmos if polarity == "nmos" else CMOS_5UM.pmos
        return MosfetModel(
            params, width, length, CMOS_5UM.min_drain_width, CMOS_5UM.cox
        )

    # External-frame NMOS biases: cutoff, triode, saturation, reversed
    # vds, and a forward-biased body inside the threshold clamp (vbs
    # above phi - 0.01); the PMOS examples are their reflections.
    CASES = (
        (0.5, 2.0, 0.0),
        (3.0, 0.5, 0.0),
        (2.0, 3.0, -1.0),
        (2.0, -1.5, -0.5),
        (2.0, 3.0, 0.9),
    )

    @given(
        polarity=st.sampled_from(("nmos", "pmos")),
        width=st.floats(min_value=2e-6, max_value=500e-6),
        length=st.floats(min_value=2e-6, max_value=50e-6),
        vgs=st.floats(min_value=-6.0, max_value=6.0),
        vds=st.floats(min_value=-6.0, max_value=6.0),
        vbs=st.floats(min_value=-5.0, max_value=1.5),
    )
    @settings(max_examples=300)
    def test_split_matches_operating_point(
        self, polarity, width, length, vgs, vds, vbs
    ):
        self._assert_split(self._device(polarity, width, length), vgs, vds, vbs)

    @pytest.mark.parametrize("polarity", ("nmos", "pmos"))
    def test_every_region_and_mode_is_covered(self, polarity):
        sign = 1.0 if polarity == "nmos" else -1.0
        dev = self._device(polarity, 50e-6, 5e-6)
        ops = [
            self._assert_split(dev, *(sign * v for v in bias)) for bias in self.CASES
        ]
        assert [op.region for op in ops[:3]] == [
            Region.CUTOFF, Region.TRIODE, Region.SATURATION,
        ]
        assert ops[3].reversed_mode and not any(op.reversed_mode for op in ops[:3])
        # Inside the clamp the threshold no longer moves with vbs.
        assert dev.threshold(sign * ops[4].vbs) == dev.threshold(0.99 * sign * ops[4].vbs)
        assert ops[4].gmbs == 0.0

    @staticmethod
    def _assert_split(dev, vgs, vds, vbs):
        op = dev.operating_point(vgs, vds, vbs)
        assert dev.evaluate(vgs, vds, vbs) == (
            op.ids, op.gm, op.gds, op.gmbs, op.region,
        )
        assert dev.capacitances(op.region, vgs, vds, vbs) == (
            op.cgs, op.cgd, op.cgb, op.cbd, op.cbs,
        )
        return op
