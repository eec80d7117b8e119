"""Independent brute-force oracles the tests check the engine against.

Everything here is written from the definitions, not by calling the
engine: step-function evaluation over every (transmitter, channel) pair,
and exhaustive corner scans for disk containment.  The exceptions are
``coverage_from_files``, which reads each coverage file with the engine's
per-file parsers: it is the reference for packed loads; and
``read_locations_file``, the batch location reader as it was written over
one ``NgPoint`` per row, with its own grid-reference parser.  Keep it dumb.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

from tvws.coverage import enclosing_disk, read_asc, read_disk
from tvws.errors import ParseError, read_text
from tvws.geo import NgPoint


def step(x: float) -> float:
    """Unit step with step(0) = 1."""
    return 1.0 if x >= 0 else 0.0


def keepout_literal(p_cr: float, p_tv: float, r_tv: float, alpha: float, beta: float) -> float:
    return (1.0 + (beta * p_cr / p_tv) ** (1.0 / alpha)) * r_tv


def occupied_by_enumeration(db, disks, plan, loc, p_cr: float, alpha: float, beta: float):
    """Occupied interleaved channels by looping every (tx, channel) pair."""
    occupied = set()
    for tx in db.transmitters:
        r_prime = keepout_literal(p_cr, tx.erp_watts, disks[tx.id].radius_m, alpha, beta)
        d = math.hypot(
            loc.easting - tx.position.easting, loc.northing - tx.position.northing
        )
        for ch in plan.interleaved:
            delta = 1 if ch in tx.channels else 0
            if delta and step(d - r_prime) == 0.0:
                occupied.add(ch)
    return occupied


def rho_by_enumeration(db, disks, plan, loc, p_cr: float, alpha: float, beta: float) -> int:
    occupied = occupied_by_enumeration(db, disks, plan, loc, p_cr, alpha, beta)
    return sum(1 for ch in plan.interleaved if ch not in occupied)


def covered_cell_corners(raster):
    """All four corner coordinates of every covered cell."""
    cell = raster.cell_size_m
    e0, n0 = raster.origin.easting, raster.origin.northing
    corners = []
    for row in range(raster.nrows):
        for col in range(raster.ncols):
            if raster.cells[row, col]:
                for de in (0.0, cell):
                    for dn in (0.0, cell):
                        corners.append((e0 + col * cell + de, n0 + row * cell + dn))
    return corners


def min_containing_radius(raster, tx) -> float:
    """Smallest transmitter-centred radius containing every covered cell."""
    best = 0.0
    for e, n in covered_cell_corners(raster):
        best = max(
            best,
            math.hypot(e - tx.position.easting, n - tx.position.northing),
        )
    return best


def asc_text(easting: float, northing: float, cell: float, values, nodata: int = -9999) -> str:
    """An integer grid (row 0 = south) as ESRI-ASCII text, one ``str`` per cell."""
    lines = [
        f"ncols        {len(values[0])}",
        f"nrows        {len(values)}",
        f"xllcorner    {easting!r}",
        f"yllcorner    {northing!r}",
        f"cellsize     {cell!r}",
        f"NODATA_value {nodata}",
    ]
    for row in reversed(list(values)):  # northernmost row first
        lines.append(" ".join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"


def asc_cell_tokens(body: str) -> list[float]:
    """The cell values of an ASC body, token by token (raises ValueError)."""
    return [float(token) for token in body.split()]


def coverage_from_files(coverage_dir, db, kind: str) -> dict:
    """What ``load_disks``/``load_rasters`` must return, read file by file.

    Each transmitter's own ``<id>.disk`` or ``<id>.asc`` goes through the
    per-file parser; a ``.disk`` that is missing, or older than its ``.asc``
    by mtime, is derived from the ``.asc``.  No pack is read, so this is the
    reference for every packed load.
    """
    out = {}
    for tx in db:
        disk = Path(coverage_dir) / f"{tx.id}.disk"
        raster = Path(coverage_dir) / f"{tx.id}.asc"
        stale = raster.is_file() and disk.is_file() and (
            raster.stat().st_mtime_ns > disk.stat().st_mtime_ns
        )
        if kind == "disks" and disk.is_file() and not stale:
            out[tx.id] = read_disk(disk.read_text(), tx.id)
        elif kind == "disks":
            out[tx.id] = enclosing_disk(read_asc(raster.read_text(), tx.id), tx)
        else:
            out[tx.id] = read_asc(raster.read_text(), tx.id)
    return out


def coverage_values(entries: dict) -> dict:
    """Loaded disks or rasters as plain comparable values, each number with its type."""
    out = {}
    for tx_id, entry in entries.items():
        if hasattr(entry, "cells"):
            numbers = (entry.origin.easting, entry.origin.northing, entry.cell_size_m)
            cells = (entry.cells.dtype.str, entry.cells.shape, entry.cells.tobytes())
        else:
            numbers = (entry.center.easting, entry.center.northing, entry.radius_m)
            cells = None
        out[tx_id] = (entry.transmitter_id, [(type(v), v) for v in numbers], cells)
    return out


REPORT_COLUMNS = ("label", "rho", "rho_filtered", "total_mhz", "filtered_mhz",
                  "max_contiguous_mhz", "vacant_channels")


def filtered_by_sets(vacant, occupied, extra_blockers=()) -> set:
    """The N+-1 filter: vacant channels with no occupied (or extra) neighbour."""
    blocked = set(occupied) | set(extra_blockers)
    return {ch for ch in vacant if ch - 1 not in blocked and ch + 1 not in blocked}


def widest_run_mhz(vacant) -> int:
    """8 MHz times the longest run of consecutive channels."""
    best = run = 0
    previous = None
    for ch in sorted(vacant):
        run = run + 1 if previous is not None and ch == previous + 1 else 1
        best, previous = max(best, run), ch
    return 8 * best


def _report_row(label, vacant, filtered) -> list:
    return [label, len(vacant), len(filtered), 8 * len(vacant), 8 * len(filtered),
            widest_run_mhz(vacant), ";".join(str(c) for c in sorted(vacant))]


def report_csv(rows, alpha, beta_th, power_watts, digest) -> str:
    """``emit_csv`` as it was written over channel sets; ``rows`` are (label, vacant, filtered)."""
    out = io.StringIO()
    out.write(f"# alpha={alpha!r} beta_th={beta_th!r} power_watts={power_watts!r} plan={digest}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(REPORT_COLUMNS)
    for row in rows:
        writer.writerow(_report_row(*row))
    return out.getvalue()


def report_json(rows, alpha, beta_th, power_watts, digest) -> str:
    """``emit_json`` as it was written over channel sets, through ``json.dumps``."""
    payload = {
        "params": {"alpha": alpha, "beta_th": beta_th, "power_watts": power_watts,
                   "plan": digest},
        "reports": [],
    }
    for label, vacant, filtered in rows:
        entry = dict(zip(REPORT_COLUMNS, _report_row(label, vacant, filtered)))
        entry["vacant_channels"] = sorted(vacant)
        payload["reports"].append(entry)
    return json.dumps(payload, indent=2) + "\n"


def gridref_point(text: str) -> NgPoint:
    """An OSGB grid reference's southwest corner, letter by letter."""
    compact = "".join(text.split())
    if len(compact) < 2:
        raise ParseError(f"grid reference too short: {text!r}")
    letters = compact[:2]
    if not (letters.isascii() and letters.isalpha()):
        raise ParseError(f"bad grid letters {letters!r} in {text!r}")
    letters = letters.upper()
    digits = compact[2:]
    if not digits.isdecimal():
        raise ParseError(f"expected digits after the grid letters in {text!r}")
    if len(digits) % 2 != 0 or not 2 <= len(digits) <= 10:
        raise ParseError(f"need an even number (2-10) of digits, got {len(digits)} in {text!r}")
    if "I" in letters:
        raise ParseError(f"grid letters never contain 'I': {text!r}")
    l1, l2 = (ord(c) - ord("A") - (c > "I") for c in letters)
    e0 = (((l1 - 2) % 5) * 5 + (l2 % 5)) * 100_000
    n0 = ((19 - 5 * (l1 // 5)) - (l2 // 5)) * 100_000
    half = len(digits) // 2
    scale = 10 ** (5 - half)
    try:
        return NgPoint(float(e0 + int(digits[:half]) * scale),
                       float(n0 + int(digits[half:]) * scale))
    except ValueError as exc:
        raise ParseError(f"{text!r} lies outside the OSGB envelope ({exc})") from None


def location_point(text: str) -> NgPoint:
    """A grid reference or an ``easting,northing`` pair as a point."""
    if "," not in text:
        return gridref_point(text)
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError(f"expected 'easting,northing', got {text!r}")
    try:
        e, n = float(parts[0]), float(parts[1])
    except ValueError:
        raise ParseError(f"bad coordinate pair {text!r}") from None
    try:
        return NgPoint(e, n)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def read_locations_file(path: str) -> list[tuple[str, NgPoint]]:
    """A batch ``label,location`` file as (label, point) pairs, one line at a time."""
    entries: list[tuple[str, NgPoint]] = []
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "," not in stripped:
            raise ParseError("expected 'label,location'", source=path, line=lineno)
        label, loc_text = (s.strip() for s in stripped.split(",", 1))
        if not label:
            raise ParseError("empty label", source=path, line=lineno)
        if label in seen:
            raise ParseError(f"duplicate label {label!r} (first on line {seen[label]})",
                             source=path, line=lineno)
        seen[label] = lineno
        try:
            entries.append((label, location_point(loc_text)))
        except ParseError as exc:
            raise ParseError(f"bad location: {exc}", source=path, line=lineno) from None
    if not entries:
        raise ParseError("no locations", source=path)
    return entries
