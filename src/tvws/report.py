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
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring_ascii
from operator import itemgetter

import numpy as np

from tvws.availability import AvailabilityResult, channel_mask, mask_counts, vacancy
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


def build_report(
    labels: Sequence[str], results: Sequence[AvailabilityResult], plan: ChannelPlan,
    alpha: float, beta_th: float, extra_blockers: Iterable[int] = (),
) -> ChannelRows:
    """Rows for labelled results at one power, by :func:`vacancy` over their occupied masks.

    Labels and results of different lengths, or results at different powers, raise ValueError.
    """
    if len(labels) != len(results):
        raise ValueError(f"{len(labels)} labels for {len(results)} results")
    powers = {result.p_cr_watts for result in results} or {0.0}  # none: ChannelRows refuses
    if len(powers) > 1:
        raise ValueError(f"results at different powers: {sorted(powers)}")
    occupied = np.array([channel_mask(result.occupied) for result in results], dtype=np.uint64)
    return ChannelRows(labels, *vacancy(occupied, plan, extra_blockers), alpha, beta_th,
                       powers.pop(), plan_hash(plan))


def _params_comment(alpha: float, beta_th: float, power: float, digest: str) -> str:
    return f"# alpha={alpha!r} beta_th={beta_th!r} power_watts={power!r} plan={digest}"


@dataclass(eq=False)
class ChannelRows:
    """Report rows as channel masks (bit ``ch - 21`` per channel): what the emitters render.

    No labels, or a mask count other than the label count, raises ValueError.
    """

    labels: Sequence[str]
    vacant: np.ndarray  # uint64, one mask per row
    filtered: np.ndarray  # uint64, the N+-1 filtered vacant set
    alpha: float
    beta_th: float
    power_watts: float
    plan_digest: str

    def __post_init__(self) -> None:
        if not len(self.labels):
            raise ValueError("no reports to emit")
        if len(self.vacant) != len(self.labels) or len(self.filtered) != len(self.labels):
            raise ValueError(f"{len(self.labels)} labels but {len(self.vacant)} vacant and "
                             f"{len(self.filtered)} filtered masks")

    @cached_property
    def columns(self) -> tuple[np.ndarray, np.ndarray]:
        """The CSV columns after ``label``: the five counts as text, then the masks' nibbles.

        The counts (rho, rho_filtered, then the MHz of each and of the widest
        run) come from :func:`mask_counts`, as an array of ``(5, rows)``; the
        nibbles, 4 bits of the vacant mask each in an array of ``(rows, 12)``,
        pick each row's channel text from the :func:`_nibble_table` tables.
        """
        counts = np.array(mask_counts(self.vacant, self.filtered), dtype=np.intp)
        octets = np.ascontiguousarray(self.vacant, dtype="<u8").view(np.uint8).reshape(-1, 8)
        nibbles = np.stack([octets & 15, octets >> 4], axis=2).reshape(-1, 16)[:, :_NIBBLES]
        return _NUMBER_TEXT[np.concatenate([counts[:2], CHANNEL_WIDTH_MHZ * counts])], nibbles


_NIBBLES = -(-(CHANNEL_MAX - CHANNEL_MIN + 1) // 4)  # nibbles of a mask that hold channels
# the text of every count and width a row can hold
_NUMBER_TEXT = np.array([str(n) for n in range(CHANNEL_WIDTH_MHZ * 64 + 1)], dtype=object)


def _nibble_table(pieces: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """``(first, then)`` text tables from each channel's piece, which starts with a separator.

    ``then[k, b]`` joins, in channel order, the pieces of the channels whose
    bits are set in ``b`` as nibble ``k`` of a mask; ``first[k, b]`` is the
    same text without its leading separator, for a row's first nonzero
    nibble.  Nibbles keep the tables small: 16 entries a place, not 256.
    """
    then = np.empty((_NIBBLES, 16), dtype=object)
    then[:, 0] = ""
    for k in range(_NIBBLES):
        for b in range(1, 16):  # the lowest channel's piece, then the rest's
            then[k, b] = pieces[4 * k + (b & -b).bit_length() - 1] + then[k, b & (b - 1)]
    return np.array([[text[1:] for text in row] for row in then.tolist()], dtype=object), then


_CSV_CHANNELS = _nibble_table([f";{ch}" for ch in range(CHANNEL_MIN, CHANNEL_MAX + 1)])
_JSON_CHANNELS = _nibble_table([f",\n        {ch}" for ch in range(CHANNEL_MIN, CHANNEL_MAX + 1)])
# csv.writer (QUOTE_MINIMAL, "\n" line ends) may quote a field with one of these, so it
# writes such a field itself, and labels get its rule exactly on every Python version
_CSV_SPECIAL = re.compile('[,"\r\n]')


def _csv_field(text: str) -> str:
    """``text`` as csv.writer writes it in a row of several fields."""
    if _CSV_SPECIAL.search(text):
        csv.writer(out := io.StringIO(), lineterminator="\n").writerow([text, ""])
        return out.getvalue()[: -len(",\n")]
    return text


def _join_rows(
    rows: ChannelRows, head: str, labels: list[str], seps: list[str], channels: tuple,
    after: list, tail: str,
) -> str:
    """``head``, every row, and ``tail`` in place of the last row's final piece, joined once.

    A row is ``seps`` with its label and its five counts between them, then
    its vacant channels, then the ``after`` pieces: each one str for every
    row, or a pair of the text for a row that lists channels and the text for
    one that lists none.  The channels are a piece per nibble of the mask
    from the ``(first, then)`` tables of :func:`_nibble_table`, ``first`` for
    its first nonzero nibble.  The pieces fill one array of a row per row, so
    no Python code runs per row and the text is copied once; one row is
    rendered from Python ints instead, where numpy's fixed cost would dominate.
    """
    if len(labels) == 1:
        return _join_row(rows, head, labels[0], seps, channels, after, tail)
    counts, nibbles = rows.columns
    first, then = channels
    start = 2 * len(seps) - 1  # the channels' first column
    cells = np.empty((nibbles.shape[0], start + _NIBBLES + len(after)), dtype=object)
    cells[:, 0:start:2] = seps
    cells[:, 1] = labels
    cells[:, 3:start:2] = counts.T
    cells[:, start : start + _NIBBLES] = then[range(_NIBBLES), nibbles]
    listed = nibbles != 0
    lead = listed.argmax(1)
    row = np.arange(nibbles.shape[0])
    cells[row, start + lead] = first[lead, nibbles[row, lead]]
    for j, piece in enumerate(after, start=start + _NIBBLES):
        cells[:, j] = piece if isinstance(piece, str) else np.where(listed.any(1), *piece)
    pieces = cells.ravel().tolist()
    pieces.insert(0, head)
    pieces[-1] = tail
    return "".join(pieces)


def _join_row(
    rows: ChannelRows, head: str, label: str, seps: list[str], channels: tuple, after: list,
    tail: str,
) -> str:
    """:func:`_join_rows` for one row: the same pieces, from Python ints and the same tables."""
    vacant, filtered = int(rows.vacant[0]), int(rows.filtered[0])
    widest, run = 0, vacant
    while run:  # the m &= m >> 1 steps of mask_counts
        run &= run >> 1
        widest += 1
    rho, kept = vacant.bit_count(), filtered.bit_count()
    mhz = [str(CHANNEL_WIDTH_MHZ * n) for n in (rho, kept, widest)]
    cells = [label, str(rho), str(kept), *mhz]
    pieces = [head]
    for sep, cell in zip(seps, cells):
        pieces += (sep, cell)
    pieces.append(seps[-1])
    first, then = channels
    nibbles = [vacant >> 4 * k & 15 for k in range(_NIBBLES)]
    listed = any(nibbles)
    lead = next((k for k, b in enumerate(nibbles) if b), 0)
    pieces += [(first if k == lead else then)[k, b] for k, b in enumerate(nibbles)]
    pieces += [piece if isinstance(piece, str) else piece[not listed] for piece in after]
    pieces[-1] = tail
    return "".join(pieces)


def emit_csv(rows: ChannelRows) -> str:
    """One row per location with before/after-filter channel counts."""
    head = _params_comment(rows.alpha, rows.beta_th, rows.power_watts, rows.plan_digest)
    labels = rows.labels
    if _CSV_SPECIAL.search("".join(labels)):
        labels = [_csv_field(label) for label in labels]
    return _join_rows(rows, f"{head}\n{','.join(CSV_COLUMNS)}\n", labels,
                      ["", ",", ",", ",", ",", ",", ","], _CSV_CHANNELS, ["\n"], "\n")


def emit_json(rows: ChannelRows) -> str:
    """JSON mirror of :func:`emit_csv` with the same field names, as ``json.dumps(indent=2)``."""
    params = {"alpha": rows.alpha, "beta_th": rows.beta_th,
              "power_watts": rows.power_watts, "plan": rows.plan_digest}
    head = json.dumps({"params": params, "reports": []}, indent=2)
    return _join_rows(
        rows, head[: -len("[]\n}")] + "[\n", list(map(encode_basestring_ascii, rows.labels)),
        ['    {\n      "label": ', ',\n      "rho": ', ',\n      "rho_filtered": ',
         ',\n      "total_mhz": ', ',\n      "filtered_mhz": ', ',\n      "max_contiguous_mhz": ',
         ',\n      "vacant_channels": ['],
        _JSON_CHANNELS, [("\n      ]", "]"), "\n    },\n"], "\n    }\n  ]\n}\n",
    )


class SweepPoints(tuple):
    """Sweep points ``(power_watts, rho, filtered_rho)`` in ascending power, for both emitters.

    ``texts`` holds each power's text, made once: ``repr``'s, which is also
    json's for a finite float or an int, so a sweep's CSV and JSON share it.
    Other powers, and no points at all, raise ValueError.
    """

    texts: list[str]

    def __new__(cls, points: Iterable[tuple[float, int, int]]) -> SweepPoints:
        self = super().__new__(cls, sorted(points, key=itemgetter(0)))
        if not self:
            raise ValueError("no sweep points to emit")
        powers = [point[0] for point in self]
        if not set(map(type, powers)) <= {float, int}:
            raise ValueError("sweep powers must be floats or ints")
        try:
            self.texts = json.dumps(powers, allow_nan=False)[1:-1].split(", ")
        except ValueError:  # inf or nan, which repr and json write differently
            raise ValueError("sweep powers must be finite") from None
        return self


def emit_sweep(
    points: Sequence[tuple[float, int, int]],
    *,
    alpha: float,
    beta_th: float,
    plan_digest: str,
) -> str:
    """Power-sweep curve as CSV: power_watts, channels, mhz (ascending power; csv's ``repr``)."""
    if not isinstance(points, SweepPoints):
        points = SweepPoints(points)
    head = f"# alpha={alpha!r} beta_th={beta_th!r} plan={plan_digest}\npower_watts,channels,mhz\n"
    return head + "".join([f"{power},{rho},{CHANNEL_WIDTH_MHZ * rho}\n"
                           for power, (_, rho, _filtered) in zip(points.texts, points)])


def emit_sweep_json(
    points: Sequence[tuple[float, int, int]],
    *,
    alpha: float,
    beta_th: float,
    plan_digest: str,
) -> str:
    """JSON mirror of :func:`emit_sweep`, as ``json.dumps(indent=2)`` writes it."""
    if not isinstance(points, SweepPoints):
        points = SweepPoints(points)
    params = {"alpha": alpha, "beta_th": beta_th, "plan": plan_digest}
    head = json.dumps({"params": params, "sweep": []}, indent=2)
    entries = [
        f'    {{\n      "power_watts": {power},\n      "channels": {rho},\n'
        f'      "mhz": {CHANNEL_WIDTH_MHZ * rho}\n    }}'
        for power, (_, rho, _filtered) in zip(points.texts, points)
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


def emit_channel_chart(rows: ChannelRows, plan: ChannelPlan) -> str:
    """Per-channel bar chart as a standalone SVG document.

    Vacant interleaved channels are solid bars, occupied ones blank slots,
    cleared and excluded channels shaded so the usable band structure is
    visible at a glance.  Identical inputs produce identical bytes.  Rows
    are drawn from their first row.
    """
    n_slots = CHANNEL_MAX - CHANNEL_MIN + 1
    width = _MARGIN_L * 2 + n_slots * _SLOT_W
    height = _MARGIN_T + _BAR_H + _LABEL_H
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


# what XML 1.0 does not allow in a document, even as a character reference
_XML_FORBIDDEN = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")


def _escape(text: str) -> str:
    """``text`` as SVG character data: markup escaped, each character XML forbids as U+FFFD."""
    text = _XML_FORBIDDEN.sub("\ufffd", text)
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
