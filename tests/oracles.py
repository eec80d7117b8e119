"""Independent brute-force oracles the tests check the engine against.

Everything here is written from the definitions, not by calling the
engine: step-function evaluation over every (transmitter, channel) pair,
and exhaustive corner scans for disk containment.  The one exception is
``coverage_from_files``, which reads each coverage file with the engine's
per-file parsers: it is the reference for packed loads.  Keep it dumb.
"""

from __future__ import annotations

import math
from pathlib import Path

from tvws.coverage import enclosing_disk, read_asc, read_disk


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
    per-file parser; a missing ``.disk`` is derived from the ``.asc``.  No
    pack is read, so this is the reference for every packed load.
    """
    out = {}
    for tx in db:
        disk = Path(coverage_dir) / f"{tx.id}.disk"
        raster = Path(coverage_dir) / f"{tx.id}.asc"
        if kind == "disks" and disk.is_file():
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
