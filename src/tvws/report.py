"""Serialization of availability results: CSV tables, JSON mirrors, SVG charts.

Every emitted artifact carries the parameter echo (pathloss exponent,
protection ratio, transmit power, plan digest) so a report can always be
traced back to the configuration that produced it.  Output is
deterministic byte-for-byte: no timestamps, stable ordering, shortest
round-trip float formatting.
"""

from __future__ import annotations

import csv
import io
import json
from collections.abc import Sequence
from dataclasses import dataclass

from tvws.availability import AvailabilityResult, adjacent_filter, contiguity
from tvws.channel_plan import (
    CHANNEL_MAX,
    CHANNEL_MIN,
    CHANNEL_WIDTH_MHZ,
    ChannelPlan,
    plan_hash,
)

CSV_COLUMNS = (
    "label",
    "rho",
    "rho_filtered",
    "total_mhz",
    "filtered_mhz",
    "max_contiguous_mhz",
    "vacant_channels",
)


@dataclass
class LocationReport:
    """One location's availability plus the parameters that produced it."""

    label: str
    result: AvailabilityResult
    runs: list[tuple[int, int]]
    max_contiguous_mhz: int
    alpha: float
    beta_th: float
    power_watts: float
    plan_digest: str


def build_report(
    label: str,
    result: AvailabilityResult,
    plan: ChannelPlan,
    alpha: float,
    beta_th: float,
    *,
    plan_digest: str | None = None,
) -> LocationReport:
    """Assemble a report; applies the adjacent-channel filter if not done yet.

    ``plan_digest``, if given, is ``plan_hash(plan)`` computed once for many reports.
    """
    if result.filtered_vacant is None:
        adjacent_filter(result)
    runs, max_mhz = contiguity(result.vacant)
    return LocationReport(
        label=label,
        result=result,
        runs=runs,
        max_contiguous_mhz=max_mhz,
        alpha=alpha,
        beta_th=beta_th,
        power_watts=result.p_cr_watts,
        plan_digest=plan_digest or plan_hash(plan),
    )


def _params_comment(alpha: float, beta_th: float, power: float, digest: str) -> str:
    return f"# alpha={alpha!r} beta_th={beta_th!r} power_watts={power!r} plan={digest}"


def _report_row(report: LocationReport) -> list:
    result = report.result
    filtered = result.filtered_vacant if result.filtered_vacant is not None else frozenset()
    return [
        report.label,
        result.rho,
        len(filtered),
        CHANNEL_WIDTH_MHZ * result.rho,
        CHANNEL_WIDTH_MHZ * len(filtered),
        report.max_contiguous_mhz,
        ";".join(str(c) for c in sorted(result.vacant)),
    ]


def emit_csv(reports: Sequence[LocationReport]) -> str:
    """One row per location with before/after-filter channel counts."""
    if not reports:
        raise ValueError("no reports to emit")
    first = reports[0]
    out = io.StringIO()
    out.write(_params_comment(first.alpha, first.beta_th, first.power_watts, first.plan_digest))
    out.write("\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for report in reports:
        writer.writerow(_report_row(report))
    return out.getvalue()


def emit_json(reports: Sequence[LocationReport]) -> str:
    """JSON mirror of :func:`emit_csv` with the same field names."""
    if not reports:
        raise ValueError("no reports to emit")
    first = reports[0]
    payload = {
        "params": {
            "alpha": first.alpha,
            "beta_th": first.beta_th,
            "power_watts": first.power_watts,
            "plan": first.plan_digest,
        },
        "reports": [],
    }
    for report in reports:
        row = _report_row(report)
        entry = dict(zip(CSV_COLUMNS, row))
        entry["vacant_channels"] = sorted(report.result.vacant)
        payload["reports"].append(entry)
    return json.dumps(payload, indent=2) + "\n"


def emit_sweep(
    points: Sequence[tuple[float, int, int]],
    *,
    alpha: float,
    beta_th: float,
    plan_digest: str,
) -> str:
    """Power-sweep curve as CSV: power_watts, channels, mhz (ascending power)."""
    if not points:
        raise ValueError("no sweep points to emit")
    out = io.StringIO()
    out.write(f"# alpha={alpha!r} beta_th={beta_th!r} plan={plan_digest}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["power_watts", "channels", "mhz"])
    for power, rho, _filtered in sorted(points, key=lambda t: t[0]):
        writer.writerow([power, rho, CHANNEL_WIDTH_MHZ * rho])
    return out.getvalue()


def emit_sweep_json(
    points: Sequence[tuple[float, int, int]],
    *,
    alpha: float,
    beta_th: float,
    plan_digest: str,
) -> str:
    if not points:
        raise ValueError("no sweep points to emit")
    payload = {
        "params": {"alpha": alpha, "beta_th": beta_th, "plan": plan_digest},
        "sweep": [
            {"power_watts": power, "channels": rho, "mhz": CHANNEL_WIDTH_MHZ * rho}
            for power, rho, _filtered in sorted(points, key=lambda t: t[0])
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


# SVG layout constants (integer pixels keep the output byte-stable).
_SLOT_W = 16
_BAR_H = 70
_MARGIN_L = 30
_MARGIN_T = 34
_LABEL_H = 26

_FILL_VACANT = "#2d7dd2"
_FILL_CLEARED = "#e9e9e9"
_FILL_EXCLUDED = "#b5b5b5"
_FILL_OCCUPIED = "#ffffff"


def emit_channel_chart(report: LocationReport, plan: ChannelPlan) -> str:
    """Per-channel bar chart as a standalone SVG document.

    Vacant interleaved channels are solid bars, occupied ones blank slots,
    cleared and excluded channels shaded so the usable band structure is
    visible at a glance.  Identical inputs produce identical bytes.
    """
    n_slots = CHANNEL_MAX - CHANNEL_MIN + 1
    width = _MARGIN_L * 2 + n_slots * _SLOT_W
    height = _MARGIN_T + _BAR_H + _LABEL_H
    result = report.result

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f"<desc>{_params_comment(report.alpha, report.beta_th, report.power_watts, report.plan_digest)[2:]}</desc>",
        f'<text x="{_MARGIN_L}" y="18" font-family="sans-serif" font-size="13">'
        f"{_escape(report.label)}: {result.rho} vacant channels "
        f"({CHANNEL_WIDTH_MHZ * result.rho} MHz)</text>",
    ]
    for i in range(n_slots):
        ch = CHANNEL_MIN + i
        x = _MARGIN_L + i * _SLOT_W
        if ch in plan.interleaved:
            fill = _FILL_VACANT if ch in result.vacant else _FILL_OCCUPIED
        elif ch in plan.excluded:
            fill = _FILL_EXCLUDED
        else:
            fill = _FILL_CLEARED
        parts.append(
            f'<rect x="{x}" y="{_MARGIN_T}" width="{_SLOT_W - 2}" height="{_BAR_H}" '
            f'fill="{fill}" stroke="#808080" stroke-width="1"/>'
        )
        if ch % 5 == 0 or ch in (CHANNEL_MIN, CHANNEL_MAX):
            parts.append(
                f'<text x="{x + (_SLOT_W - 2) // 2}" y="{_MARGIN_T + _BAR_H + 14}" '
                f'font-family="sans-serif" font-size="9" text-anchor="middle">{ch}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
