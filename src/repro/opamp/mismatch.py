"""Random (mismatch-driven) offset analysis.

The designer-side offset numbers elsewhere in this package are
*systematic* -- the deterministic imbalance a topology carries even with
perfect devices.  Real first-silicon offset is dominated by *random*
threshold mismatch, governed by the Pelgrom area law
``sigma(Vth) = Avt / sqrt(W L)``.

Two views of the same quantity:

* :func:`predicted_offset_sigma_mv` -- analytic: for every device, the
  small-signal transfer of a threshold perturbation to the output is
  computed with one multi-RHS solve (each device's vth acts through its
  gm, exactly like its noise current); dividing by the differential gain
  and root-sum-squaring against the per-device Pelgrom sigmas gives the
  input-referred offset sigma.
* :func:`monte_carlo_offset_mv` -- sampled: draw per-device threshold
  shifts, re-bias the amplifier through the simulator's ``vth_shifts``
  hook, and measure the actual input-referred offset of each sample.

The test suite checks the two agree -- a strong end-to-end consistency
check between the linearised and large-signal views.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

import numpy as np

from ..errors import SimulationError
from ..simulator.ac import ac_analysis
from ..simulator.dc import operating_point
from ..simulator.mna import MnaSystem
from .result import DesignedOpAmp
from .verify import offset_nulled_bias

__all__ = [
    "device_offset_sensitivities",
    "predicted_offset_sigma_mv",
    "monte_carlo_offset_mv",
]

#: Frequency at which the quasi-DC transfers are evaluated, hertz.
_F_DC = 1.0


def device_offset_sensitivities(amp: DesignedOpAmp) -> Dict[str, float]:
    """Input-referred sensitivity of each MOSFET's threshold, V/V.

    ``sensitivity[name] = |dVin_offset / dVth_name|``: a 1 mV threshold
    shift on that device moves the input-referred offset by this many
    millivolts.  Input-pair devices sit near 1.0; devices later in the
    signal chain are attenuated by the preceding gain.
    """
    _, circuit, op = offset_nulled_bias(amp)
    system = MnaSystem(circuit, amp.process)
    out_index = system.index_of("out")

    # Differential gain at quasi-DC.
    ac = ac_analysis(circuit, amp.process, op, [_F_DC])
    gain = abs(ac.voltage("out")[0])
    if gain <= 0:
        raise SimulationError("no differential gain; cannot refer offsets")

    mosfets = system.circuit.mosfets
    rhs = np.zeros((system.size, len(mosfets)), dtype=complex)
    gms = []
    for col, element in enumerate(mosfets):
        device_op = op.device_ops[element.name.lower()]
        gm = device_op.gm
        gms.append(gm)
        # A vth shift of dv acts like a gate-voltage shift of -dv, i.e.
        # a drain-source current of -gm*dv; inject unit current drain->
        # source and scale by gm afterwards.
        d = system.index_of(element.drain)
        s = system.index_of(element.source)
        if d >= 0:
            rhs[d, col] -= 1.0
        if s >= 0:
            rhs[s, col] += 1.0
    solution = system.solve_ac(np.array([_F_DC]), op.device_ops, rhs)[0]
    transfers = np.abs(solution[out_index, :])
    return {
        element.name: float(abs(gms[col]) * transfers[col] / gain)
        for col, element in enumerate(mosfets)
    }


def predicted_offset_sigma_mv(amp: DesignedOpAmp) -> float:
    """Analytic 1-sigma random input offset, millivolts.

    Combines each device's Pelgrom threshold sigma with its
    input-referred sensitivity by root-sum-square (mismatches are
    independent).
    """
    sensitivities = device_offset_sensitivities(amp)
    circuit = amp.standalone_circuit()
    variance = 0.0
    for element in circuit.mosfets:
        if element.name not in sensitivities:
            continue
        params = amp.process.device(element.polarity)
        sigma = params.sigma_vth(element.effective_width, element.length)
        variance += (sensitivities[element.name] * sigma) ** 2
    return 1e3 * math.sqrt(variance)


def monte_carlo_offset_mv(
    amp: DesignedOpAmp,
    samples: int = 25,
    seed: Optional[int] = 1987,
) -> np.ndarray:
    """Sampled random input offsets, millivolts (one per sample).

    Each sample draws an independent Pelgrom threshold shift per device
    and measures the amplifier's input-referred offset through the
    simulator.  The nominal (systematic) offset is subtracted so the
    returned values are the *random* component.

    Offsets are extracted linearly -- offset = -Vout(0) / Adm at the
    nominal operating input -- and fall back to bisection when the
    perturbed amplifier rails (high-gain designs with unlucky draws).
    """
    if samples < 2:
        raise SimulationError("need at least 2 Monte Carlo samples")
    rng = np.random.default_rng(seed)
    nominal_offset, circuit, op = offset_nulled_bias(amp)
    ac = ac_analysis(circuit, amp.process, op, [_F_DC])
    gain = abs(ac.voltage("out")[0])
    half = amp.process.supply_span / 2.0

    sigmas = {}
    for element in circuit.mosfets:
        params = amp.process.device(element.polarity)
        sigmas[element.name] = params.sigma_vth(
            element.effective_width, element.length
        )

    offsets = []
    for _sample in range(samples):
        shifts = {
            name: float(rng.normal(0.0, sigma)) for name, sigma in sigmas.items()
        }
        op_s = operating_point(
            circuit,
            amp.process,
            vth_shifts=shifts,
            source_values={"vin": nominal_offset},
        )
        v_out = op_s.voltage("out")
        if abs(v_out) < 0.6 * half:
            # Linear extraction in the active region.
            offsets.append(-v_out / gain)
        else:
            # Railed: bisect the input that re-centres the output.
            railed = offset_nulled_bias(amp, shifts, centre=nominal_offset)
            offsets.append(railed.offset_v - nominal_offset)
    return np.asarray(offsets) * 1e3
