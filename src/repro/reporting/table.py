"""Plain-text table rendering (Tables 1 and 2 of the paper)."""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from ..kb.specs import OpAmpSpec
from ..opamp.result import DesignedOpAmp
from ..process.parameters import ProcessParameters

if TYPE_CHECKING:
    from ..opamp.verify import VerificationReport

__all__ = ["render_table", "table1_report", "table2_report"]


def render_table(
    headers: Sequence[str], rows: Sequence[Sequence[str]], title: str = ""
) -> str:
    """Fixed-width ASCII table."""
    columns = len(headers)
    widths = [len(str(h)) for h in headers]
    for row in rows:
        for k in range(columns):
            cell = str(row[k]) if k < len(row) else ""
            widths[k] = max(widths[k], len(cell))

    def format_row(cells) -> str:
        return "  ".join(
            str(cells[k] if k < len(cells) else "").ljust(widths[k])
            for k in range(columns)
        ).rstrip()

    lines = []
    if title:
        lines.append(title)
    lines.append(format_row(headers))
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(format_row(row) for row in rows)
    return "\n".join(lines) + "\n"


def table1_report(process: ProcessParameters) -> str:
    """The paper's Table 1: the process parameters OASYS reads."""
    rows = [[label, value] for label, value in process.table1_rows()]
    return render_table(
        ["Process Parameter", f"{process.name}"],
        rows,
        title="Table 1: OASYS Process Parameters",
    )


_TABLE2_ROWS = [
    ("gain_db", "DC gain (dB)", "{:.1f}"),
    ("unity_gain_hz", "Unity-gain freq (MHz)", "{:.2f}", 1e-6),
    ("phase_margin_deg", "Phase margin (deg)", "{:.0f}"),
    ("slew_rate", "Slew rate (V/us)", "{:.1f}", 1e-6),
    ("output_swing", "Output swing (+-V)", "{:.2f}"),
    ("offset_mv", "Systematic offset (mV)", "{:.2f}"),
    ("power", "Static power (mW)", "{:.2f}", 1e3),
    ("area", "Active area (um^2)", "{:.0f}", 1e12),
]


def _spec_value(spec: OpAmpSpec, key: str) -> Optional[float]:
    mapping = {
        "gain_db": spec.gain_db,
        "unity_gain_hz": spec.unity_gain_hz,
        "phase_margin_deg": spec.phase_margin_deg,
        "slew_rate": spec.slew_rate,
        "output_swing": spec.output_swing,
        "offset_mv": spec.offset_max_mv,
        "power": spec.power_max if spec.power_max > 0 else None,
        "area": spec.area_max if spec.area_max > 0 else None,
    }
    return mapping.get(key)


def table2_report(
    cases: Dict[str, DesignedOpAmp],
    reports: Optional[Dict[str, VerificationReport]] = None,
) -> str:
    """The paper's Table 2: specification vs achieved, per test case.

    Args:
        cases: case label -> designed op amp.
        reports: optional case label -> simulator verification; when
            given, a "measured" column is added per case (the paper's
            SPICE column).
    """
    headers = ["Parameter"]
    for label in cases:
        headers.append(f"{label} spec")
        headers.append(f"{label} achieved")
        if reports and label in reports:
            headers.append(f"{label} measured")

    rows: List[List[str]] = []
    style_row = ["Selected style"]
    for label, amp in cases.items():
        style_row.append("")
        style_row.append(amp.style)
        if reports and label in reports:
            style_row.append("")
    rows.append(style_row)

    for entry in _TABLE2_ROWS:
        key, caption, fmt = entry[0], entry[1], entry[2]
        scale = entry[3] if len(entry) > 3 else 1.0
        row = [caption]
        for label, amp in cases.items():
            spec_value = _spec_value(amp.spec, key)
            row.append("-" if spec_value is None else fmt.format(spec_value * scale))
            achieved = amp.performance.get(key, math.nan)
            row.append("-" if math.isnan(achieved) else fmt.format(achieved * scale))
            if reports and label in reports:
                measured = reports[label].get(key)
                row.append("-" if math.isnan(measured) else fmt.format(measured * scale))
        rows.append(row)

    return render_table(
        headers, rows, title="Table 2: Specifications and Results for OASYS Test Cases"
    )
