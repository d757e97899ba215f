"""Simulator-based verification of synthesized op amps.

"SPICE simulations are used to estimate the resulting performance of
these circuits."  This module is that verification step, run on the
in-repo MNA simulator:

* **offset**: the differential input voltage that centres the output,
  found by bisection on DC operating points of one open-loop testbench
  system (this *is* the measured input-referred offset, systematic
  effects included).  The search, :func:`offset_nulled_bias`, runs once
  per :func:`verify_opamp`: offset, power, AC, rejection and noise are
  all measured at its :class:`BiasPoint`, and ``notes`` say why when
  there is none;
* **gain / UGF / phase margin**: open-loop AC analysis at the
  offset-nulled operating point;
* **output swing**: a unity-gain buffer swept across the rails with
  :func:`~repro.simulator.sweep.dc_sweep`; the swing is where the buffer
  stops tracking;
* **slew rate**: large-signal step response of the unity-gain buffer;
* **power**: total supply power at the quiescent point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, NamedTuple, Optional

import numpy as np

from ..circuit.builder import CircuitBuilder
from ..circuit.netlist import Circuit
from ..errors import ConvergenceError, SimulationError
from ..kb.trace import DesignTrace
from ..obs.spans import count as metric_count
from ..obs.spans import span as obs_span
from ..simulator.ac import ac_analysis, log_frequencies
from ..simulator.analysis import (
    FrequencyResponse,
    crossover_frequency,
    phase_margin_deg,
    settling_time,
    slew_rate_from_waveform,
)
from ..simulator.dc import operating_point
from ..simulator.mna import MnaSystem, OperatingPointResult
from ..simulator.sweep import dc_sweep
from ..simulator.transient import step_waveform, transient_analysis
from .result import DesignedOpAmp

__all__ = ["VerificationReport", "verify_opamp", "open_loop_response"]


@dataclass
class VerificationReport:
    """Measured (simulated) performance of a synthesized op amp.

    ``measured`` uses the same keys as the designer's predictions so the
    two can be tabulated side by side (the repo's Table 2).
    """

    measured: Dict[str, float] = field(default_factory=dict)
    offset_v: float = 0.0
    notes: Dict[str, str] = field(default_factory=dict)

    def get(self, key: str, default: float = math.nan) -> float:
        return self.measured.get(key, default)


def _open_loop_testbench(amp: DesignedOpAmp) -> Circuit:
    """Amp driven differentially by ``vin`` at inp, inn grounded, load
    attached."""
    builder = CircuitBuilder("ol_tb", amp.process)
    builder.supplies()
    builder.vsource("in", "inp", "0", dc=0.0, ac=1.0)
    builder.vsource("inn", "inn", "0", dc=0.0)
    builder.capacitor("load", "out", "0", amp.spec.load_capacitance)
    builder.resistor("leak", "out", "0", 1e12)  # defines the DC level
    amp.emit(builder, "inp", "inn", "out")
    return builder.build()


class BiasPoint(NamedTuple):
    """The input offset that centres the output, the open-loop testbench
    (``vin`` at 0 V) and its DC operating point with ``vin`` at the offset."""

    offset_v: float
    circuit: Circuit
    op: OperatingPointResult


def offset_nulled_bias(
    amp: DesignedOpAmp,
    vth_shifts: Optional[Dict[str, float]] = None,
    centre: float = 0.0,
) -> BiasPoint:
    """Bisect ``centre`` +- 0.3 V of differential input for the one
    that centres the output at 0 V; ``vth_shifts`` perturbs thresholds
    (the Monte Carlo mismatch hook).  Every solve shares one system, and
    the last bisection step's solve is the returned operating point.
    Raises SimulationError when the output does not cross 0 V in that
    window (amp broken or railed)."""
    circuit = _open_loop_testbench(amp)
    system = MnaSystem(circuit, amp.process, vth_shifts=vth_shifts)

    def solve(vin: float, trace: Optional[DesignTrace] = None):
        return operating_point(
            system, amp.process, trace=trace, source_values={"vin": vin}
        )

    lo, hi = centre - 0.3, centre + 0.3
    v_lo, v_hi = solve(lo).voltage("out"), solve(hi).voltage("out")
    if v_lo > 0 or v_hi < 0:
        raise SimulationError(
            f"output does not cross 0 V within {lo:+.3f} .. {hi:+.3f} V "
            f"differential input (got {v_lo:.2f} V .. {v_hi:.2f} V); "
            f"amplifier polarity or bias is broken"
        )
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        # Only the returned step's ladder history joins the amp's trace.
        trace = DesignTrace()
        op = solve(mid, trace)
        v_mid = op.voltage("out")
        if abs(v_mid) < 1e-3:
            break
        if v_mid > 0:
            hi = mid
        else:
            lo = mid
    amp.trace.extend(trace)
    return BiasPoint(mid, circuit, op)


def open_loop_response(
    amp: DesignedOpAmp,
    f_start: float = 1.0,
    f_stop: Optional[float] = None,
    points_per_decade: int = 15,
) -> FrequencyResponse:
    """Open-loop differential transfer function of the amp.

    The DC point is offset-nulled first so every device is in its
    intended region.
    """
    return _frequency_response(
        amp, offset_nulled_bias(amp), f_start, f_stop, points_per_decade
    )


def _frequency_response(
    amp: DesignedOpAmp,
    bias: BiasPoint,
    f_start: float = 1.0,
    f_stop: Optional[float] = None,
    points_per_decade: int = 15,
) -> FrequencyResponse:
    if f_stop is None:
        f_stop = max(10.0 * amp.spec.unity_gain_hz, 1e7)
    freqs = log_frequencies(f_start, f_stop, points_per_decade)
    ac = ac_analysis(bias.circuit, amp.process, bias.op, freqs)
    return FrequencyResponse(freqs, ac.voltage("out"))


def _buffer_testbench(amp: DesignedOpAmp, name: str = "buf_tb") -> Circuit:
    """Unity-gain buffer: inn tied to out, driven by source ``vin``."""
    builder = CircuitBuilder(name, amp.process)
    builder.supplies()
    builder.vsource("in", "inp", "0", dc=0.0)
    builder.capacitor("load", "out", "0", amp.spec.load_capacitance)
    builder.resistor("leak", "out", "0", 1e12)
    amp.emit(builder, "inp", "out", "out")
    return builder.build()


def _measure_swing(amp: DesignedOpAmp, tracking_error: float = 0.25) -> float:
    """Sweep the unity-gain buffer and report the symmetric range over
    which it tracks within ``tracking_error`` volts (a failed point does
    not track)."""
    half = amp.process.supply_span / 2.0
    sweep = dc_sweep(
        _buffer_testbench(amp), amp.process, "vin", np.linspace(-half, half, 41)
    )
    vin = sweep.values
    tracks = np.abs(sweep.voltages("out") - vin) <= tracking_error
    reach_pos = np.max(vin[tracks & (vin >= 0)], initial=0.0)
    reach_neg = np.min(vin[tracks & (vin < 0)], initial=0.0)
    return float(min(reach_pos, -reach_neg))


def _measure_slew(amp: DesignedOpAmp, swing: float):
    """Step the unity-gain buffer across most of the verified swing;
    returns (slew_rate, settling_time_1pct_or_None) from one transient."""
    step = max(0.5, 0.6 * swing)
    expected = amp.performance.get("slew_rate", amp.spec.slew_rate)
    duration = 4.0 * (2.0 * step) / expected
    t_step = duration / 600.0
    result = transient_analysis(
        _buffer_testbench(amp, "slew_tb"),
        amp.process,
        t_stop=duration,
        t_step=t_step,
        stimuli={"vin": step_waveform(-step, step, t_step=duration * 0.05)},
    )
    # The input source name got scope-qualified to "vin" by the builder.
    waveform = result.voltage("out")
    slew = slew_rate_from_waveform(result.times, waveform)
    t_settle = settling_time(result.times, waveform, tolerance=0.01)
    if t_settle is not None:
        # Reference settling to the step instant, not t=0.
        t_settle = max(0.0, t_settle - duration * 0.05)
    return slew, t_settle


def measure_rejection(
    amp: DesignedOpAmp, frequency: float = 100.0
) -> Dict[str, float]:
    """Measure CMRR and PSRR at a low frequency, decibels.

    Three extra single-frequency AC solves around the offset-nulled
    operating point: differential drive (Adm), common-mode drive (Acm),
    and supply drive (Avdd / Avss), using the simulator's source
    overrides so the netlist is not edited.

    Returns:
        ``{"cmrr_db", "psrr_vdd_db", "psrr_vss_db"}`` (a PSRR key is
        omitted when the circuit has no corresponding supply source).
    """
    return _rejection(amp, offset_nulled_bias(amp), frequency)


def _rejection(
    amp: DesignedOpAmp, bias: BiasPoint, frequency: float = 100.0
) -> Dict[str, float]:
    circuit = bias.circuit

    def out_amplitude(overrides: Dict[str, complex]) -> float:
        base = {"vin": 0.0, "vinn": 0.0, "vdd": 0.0, "vss": 0.0}
        base.update(overrides)
        present = {k: v for k, v in base.items() if k in circuit}
        ac = ac_analysis(circuit, amp.process, bias.op, [frequency], present)
        return float(abs(ac.voltage("out")[0]))

    a_dm = out_amplitude({"vin": 0.5, "vinn": -0.5})
    if a_dm <= 0:
        raise SimulationError("no differential gain at the rejection frequency")
    results: Dict[str, float] = {}
    a_cm = out_amplitude({"vin": 1.0, "vinn": 1.0})
    results["cmrr_db"] = 20.0 * math.log10(a_dm / max(a_cm, 1e-15))
    for source, key in (("vdd", "psrr_vdd_db"), ("vss", "psrr_vss_db")):
        if source in circuit:
            a_ps = out_amplitude({source: 1.0})
            results[key] = 20.0 * math.log10(a_dm / max(a_ps, 1e-15))
    return results


def input_noise_spectrum(amp: DesignedOpAmp, frequencies):
    """Input-referred noise density over a frequency grid.

    Returns:
        (density_nv, noise_result): the input-referred density in
        nV/sqrt(Hz) aligned with ``frequencies``, and the underlying
        :class:`~repro.simulator.noise.NoiseResult` with per-element
        attribution.
    """
    return _noise_spectrum(amp, offset_nulled_bias(amp), frequencies)


def _noise_spectrum(amp: DesignedOpAmp, bias: BiasPoint, frequencies):
    from ..simulator.noise import noise_analysis

    freqs = list(frequencies)
    ac = ac_analysis(bias.circuit, amp.process, bias.op, freqs)
    gain = np.abs(ac.voltage("out"))
    noise = noise_analysis(bias.circuit, amp.process, bias.op, freqs, "out")
    return noise.input_referred_density(gain) * 1e9, noise


def measure_input_noise(
    amp: DesignedOpAmp, frequencies: Optional[list] = None
) -> Dict[str, float]:
    """Measure the input-referred noise density, nV/sqrt(Hz).

    Runs the simulator's noise analysis at the offset-nulled operating
    point and refers the output noise through the measured differential
    gain.  Reports the density at 1 kHz (where flicker usually shows)
    and at 100 kHz (thermal floor for these bandwidths).

    Returns:
        ``{"input_noise_nv_1k", "input_noise_nv_100k",
        "noise_dominant_element"}``.
    """
    return _input_noise(amp, offset_nulled_bias(amp), frequencies)


def _input_noise(
    amp: DesignedOpAmp, bias: BiasPoint, frequencies: Optional[list] = None
) -> Dict[str, float]:
    freqs = frequencies or [1e3, 1e5]
    density_nv, noise = _noise_spectrum(amp, bias, freqs)
    results = {
        "input_noise_nv_1k": float(density_nv[0]),
        "noise_dominant_element": noise.dominant_contributor(0),
    }
    if len(freqs) > 1:
        results["input_noise_nv_100k"] = float(density_nv[1])
    return results


def verify_opamp(
    amp: DesignedOpAmp,
    measure_swing: bool = True,
    measure_slew: bool = True,
    measure_rejections: bool = False,
    measure_noise: bool = False,
) -> VerificationReport:
    """Measure a synthesized op amp with the simulator.

    Args:
        amp: a designed op amp.
        measure_swing / measure_slew: the DC-sweep and transient
            measurements dominate runtime; benches that only need AC
            numbers can skip them.

    Returns:
        A :class:`VerificationReport` whose ``measured`` dict mirrors the
        designer's performance keys.
    """
    report = VerificationReport()

    with obs_span(
        f"verify:{amp.style}", category="verify", style=amp.style
    ) as verify_span:
        bias: Optional[BiasPoint] = None
        try:
            with obs_span("verify:offset", category="verify"):
                bias = offset_nulled_bias(amp)
        except SimulationError as exc:
            # Swing and slew need no bias point and still run.
            note = f"no offset-nulled bias point: {exc}"
            report.notes.update(offset=note, ac=note)
            report.offset_v = math.nan
            metric_count("verify.failures", phase="offset")
        if bias is not None:
            report.offset_v = bias.offset_v
            report.measured["offset_mv"] = abs(bias.offset_v) * 1e3
            report.measured["power"] = abs(bias.op.total_power())
            metric_count("verify.measurements", phase="offset")

            with obs_span("verify:ac", category="verify"):
                response = _frequency_response(amp, bias)
            metric_count("verify.measurements", phase="ac")
            report.measured["gain_db"] = response.dc_gain_db
            f_unity = crossover_frequency(response)
            if f_unity is not None:
                report.measured["unity_gain_hz"] = f_unity
                pm = phase_margin_deg(response)
                if pm is not None:
                    report.measured["phase_margin_deg"] = pm
            else:
                report.notes["unity_gain_hz"] = "no 0 dB crossing in sweep"

        if measure_swing:
            with obs_span("verify:swing", category="verify"):
                swing = _measure_swing(amp)
            metric_count("verify.measurements", phase="swing")
            report.measured["output_swing"] = swing
        else:
            swing = amp.spec.output_swing

        if measure_slew:
            try:
                with obs_span("verify:slew", category="verify"):
                    slew, t_settle = _measure_slew(amp, swing)
                metric_count("verify.measurements", phase="slew")
                report.measured["slew_rate"] = slew
                if t_settle is not None:
                    report.measured["settling_time_1pct"] = t_settle
            except (ConvergenceError, SimulationError) as exc:
                report.notes["slew_rate"] = f"transient failed: {exc}"
                metric_count("verify.failures", phase="slew")

        if measure_rejections and bias is not None:
            try:
                with obs_span("verify:rejection", category="verify"):
                    report.measured.update(_rejection(amp, bias))
                metric_count("verify.measurements", phase="rejection")
            except (ConvergenceError, SimulationError) as exc:
                report.notes["rejection"] = f"CMRR/PSRR failed: {exc}"
                metric_count("verify.failures", phase="rejection")

        if measure_noise and bias is not None:
            try:
                with obs_span("verify:noise", category="verify"):
                    results = _input_noise(amp, bias)
                report.notes["noise_dominant_element"] = results.pop(
                    "noise_dominant_element"
                )
                report.measured.update(results)
                metric_count("verify.measurements", phase="noise")
            except (ConvergenceError, SimulationError) as exc:
                report.notes["noise"] = f"noise analysis failed: {exc}"
                metric_count("verify.failures", phase="noise")

        verify_span.set("measured_keys", len(report.measured))

    return report
