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
import re
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring_ascii

import numpy as np

from tvws.availability import AvailabilityResult, adjacent_filter, channel_mask, contiguity
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
) -> LocationReport:
    """Assemble a report; applies the adjacent-channel filter if not done yet."""
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
        plan_digest=plan_hash(plan),
    )


def _params_comment(alpha: float, beta_th: float, power: float, digest: str) -> str:
    return f"# alpha={alpha!r} beta_th={beta_th!r} power_watts={power!r} plan={digest}"


@dataclass(eq=False)
class ChannelRows:
    """Report rows as channel masks (bit ``ch - 21`` per channel): what the emitters render."""

    labels: Sequence[str]
    vacant: np.ndarray  # uint64, one mask per row
    filtered: np.ndarray  # uint64, the N+-1 filtered vacant set
    alpha: float
    beta_th: float
    power_watts: float
    plan_digest: str

    @classmethod
    def of(cls, reports: Sequence[LocationReport] | ChannelRows) -> ChannelRows:
        """``reports`` as rows (rows are returned as they are); ValueError if empty."""
        if not isinstance(reports, ChannelRows) and reports:
            first = reports[0]
            masks = [[channel_mask(r.result.vacant), channel_mask(r.result.filtered_vacant or ())]
                     for r in reports]
            reports = cls([r.label for r in reports], *np.array(masks, dtype=np.uint64).T,
                          first.alpha, first.beta_th, first.power_watts, first.plan_digest)
        if not isinstance(reports, ChannelRows) or not len(reports.labels):
            raise ValueError("no reports to emit")
        return reports

    @cached_property
    def columns(self) -> tuple[list, ...]:
        """The CSV columns after ``label`` as lists, the last one each row's channels as text.

        Counts and runs are taken on Python ints, which costs less than numpy calls for the
        one row of a query; the widest run counts the ``m &= m >> 1`` steps that leave ``m``
        nonzero.  The channel text joins one :data:`_BYTE_TEXT` entry per byte of the mask.
        """
        vacant, kept = self.vacant.tolist(), self.filtered.tolist()
        widest = []
        for m in vacant:
            run = 0
            while m:
                m, run = m & (m >> 1), run + 1
            widest.append(CHANNEL_WIDTH_MHZ * run)
        octets = np.ascontiguousarray(self.vacant, dtype="<u8").view(np.uint8).reshape(-1, 8)
        text = np.add.reduce(_BYTE_TEXT[range(len(_BYTE_TEXT)), octets[:, : len(_BYTE_TEXT)]], 1)
        rho, rho_kept = [m.bit_count() for m in vacant], [m.bit_count() for m in kept]
        return (rho, rho_kept, [CHANNEL_WIDTH_MHZ * r for r in rho],
                [CHANNEL_WIDTH_MHZ * r for r in rho_kept], widest,
                [t[1:] for t in text.tolist()])


# _BYTE_TEXT[k, b]: ";ch" for each channel ch whose bit is set in b, byte k of a mask
_BYTE_TEXT = np.array([
    ["".join(f";{ch}" for i, ch in enumerate(range(CHANNEL_MIN + 8 * k, CHANNEL_MAX + 1))
             if b >> i & 1) for b in range(256)]
    for k in range(-(-(CHANNEL_MAX - CHANNEL_MIN + 1) // 8))
], dtype=object)
# csv.writer (QUOTE_MINIMAL, "\n" line ends) may quote a field with one of these, so it
# writes such a field itself, and labels get its rule exactly on every Python version
_CSV_SPECIAL = re.compile('[,"\r\n]')


def _csv_field(text: str) -> str:
    """``text`` as csv.writer writes it in a row of several fields."""
    if _CSV_SPECIAL.search(text):
        csv.writer(out := io.StringIO(), lineterminator="\n").writerow([text, ""])
        return out.getvalue()[: -len(",\n")]
    return text


def emit_csv(reports: Sequence[LocationReport] | ChannelRows) -> str:
    """One row per location with before/after-filter channel counts."""
    rows = ChannelRows.of(reports)
    head = _params_comment(rows.alpha, rows.beta_th, rows.power_watts, rows.plan_digest)
    return f"{head}\n{','.join(CSV_COLUMNS)}\n" + "".join([
        f"{_csv_field(label)},{rho},{kept},{mhz},{kept_mhz},{widest},{channels}\n"
        for label, rho, kept, mhz, kept_mhz, widest, channels in zip(rows.labels, *rows.columns)
    ])


def emit_json(reports: Sequence[LocationReport] | ChannelRows) -> str:
    """JSON mirror of :func:`emit_csv` with the same field names, as ``json.dumps(indent=2)``."""
    rows = ChannelRows.of(reports)
    params = {"alpha": rows.alpha, "beta_th": rows.beta_th,
              "power_watts": rows.power_watts, "plan": rows.plan_digest}
    head = json.dumps({"params": params, "reports": []}, indent=2)
    lists = ("[\n        " + text.replace(";", ",\n        ") + "\n      ]" if text else "[]"
             for text in rows.columns[-1])
    entries = [
        f'    {{\n      "label": {encode_basestring_ascii(label)},\n      "rho": {rho},\n'
        f'      "rho_filtered": {kept},\n      "total_mhz": {mhz},\n'
        f'      "filtered_mhz": {kept_mhz},\n      "max_contiguous_mhz": {widest},\n'
        f'      "vacant_channels": {channels}\n    }}'
        for label, rho, kept, mhz, kept_mhz, widest, _, channels
        in zip(rows.labels, *rows.columns, lists)
    ]
    return head[: -len("[]\n}")] + "[\n" + ",\n".join(entries) + "\n  ]\n}\n"


def emit_sweep(
    points: Sequence[tuple[float, int, int]],
    *,
    alpha: float,
    beta_th: float,
    plan_digest: str,
) -> str:
    """Power-sweep curve as CSV: power_watts, channels, mhz (ascending power; csv's ``repr``)."""
    if not points:
        raise ValueError("no sweep points to emit")
    head = f"# alpha={alpha!r} beta_th={beta_th!r} plan={plan_digest}\npower_watts,channels,mhz\n"
    return head + "".join([f"{power!r},{rho},{CHANNEL_WIDTH_MHZ * rho}\n"
                           for power, rho, _filtered in sorted(points, key=lambda t: t[0])])


def emit_sweep_json(
    points: Sequence[tuple[float, int, int]],
    *,
    alpha: float,
    beta_th: float,
    plan_digest: str,
) -> str:
    """JSON mirror of :func:`emit_sweep`, as ``json.dumps(indent=2)`` writes it."""
    if not points:
        raise ValueError("no sweep points to emit")
    ordered = sorted(points, key=lambda t: t[0])
    params = {"alpha": alpha, "beta_th": beta_th, "plan": plan_digest}
    head = json.dumps({"params": params, "sweep": []}, indent=2)
    # json's own text for every power, from one call
    powers = json.dumps([power for power, _rho, _filtered in ordered])[1:-1].split(", ")
    entries = [
        f'    {{\n      "power_watts": {power},\n      "channels": {rho},\n'
        f'      "mhz": {CHANNEL_WIDTH_MHZ * rho}\n    }}'
        for power, (_, rho, _filtered) in zip(powers, ordered)
    ]
    return head[: -len("[]\n}")] + "[\n" + ",\n".join(entries) + "\n  ]\n}\n"


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


def emit_channel_chart(report: LocationReport | ChannelRows, plan: ChannelPlan) -> str:
    """Per-channel bar chart as a standalone SVG document.

    Vacant interleaved channels are solid bars, occupied ones blank slots,
    cleared and excluded channels shaded so the usable band structure is
    visible at a glance.  Identical inputs produce identical bytes.  Rows
    are drawn from their first row.
    """
    n_slots = CHANNEL_MAX - CHANNEL_MIN + 1
    width = _MARGIN_L * 2 + n_slots * _SLOT_W
    height = _MARGIN_T + _BAR_H + _LABEL_H
    rows = ChannelRows.of([report] if isinstance(report, LocationReport) else report)
    vacant = int(rows.vacant[0])
    rho = vacant.bit_count()

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f"<desc>{_params_comment(rows.alpha, rows.beta_th, rows.power_watts, rows.plan_digest)[2:]}"
        "</desc>",
        f'<text x="{_MARGIN_L}" y="18" font-family="sans-serif" font-size="13">'
        f"{_escape(rows.labels[0])}: {rho} vacant channels "
        f"({CHANNEL_WIDTH_MHZ * rho} MHz)</text>",
    ]
    for i in range(n_slots):
        ch = CHANNEL_MIN + i
        x = _MARGIN_L + i * _SLOT_W
        if ch in plan.interleaved:
            fill = _FILL_VACANT if vacant >> i & 1 else _FILL_OCCUPIED
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
