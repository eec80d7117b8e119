"""Per-transmitter coverage: rasters, disk approximation, synthesis.

Two representations of where a DTV transmitter can be received:

* :class:`CoverageRaster` -- a boolean grid, the fidelity the public
  coverage maps actually have.  Real coverage contours are ragged (terrain,
  clutter, antenna patterns), so the raster is the ground truth here.
* :class:`CoverageDisk` -- the smallest transmitter-centred disk that
  still contains the whole covered area.  A conservative simplification
  that turns keep-out checks into one distance comparison per transmitter.

Raster row 0 is the SOUTHERN row; cell (row, col) has its centre at
``origin + ((col + 0.5) * cell, (row + 0.5) * cell)``.  The on-disk ASC
format stores the northernmost row first, as ESRI ASCII grids do.
"""

from __future__ import annotations

import functools
import json
import math
import os
import random
import stat
import sys
import warnings
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tvws.channel_plan import CHANNEL_MAX, CHANNEL_MIN
from tvws.errors import ParseError, read_text
from tvws.geo import EASTING_MAX, NORTHING_MAX, NgPoint
from tvws.keepout import PropagationParams
from tvws.txdb import Transmitter, TransmitterDb, load_txdb

# Closes the pathloss equation for synthetic coverage: the received power a
# TV set at the coverage edge is assumed to just decode.  Calibrated so a
# 200 kW station with pathloss exponent 3 and protection ratio 1 reaches
# 60 km.  Configuration, not a measured constant.
DEFAULT_MIN_RECEIVER_POWER_W = 200_000.0 / 60_000.0**3

ASC_NODATA = -9999


@dataclass(eq=False)
class CoverageRaster:
    """Boolean coverage grid for one transmitter (row 0 = southern row)."""

    transmitter_id: str
    origin: NgPoint  # southwest corner of the grid
    cell_size_m: float
    cells: np.ndarray  # bool, shape (nrows, ncols)

    def __post_init__(self) -> None:
        if self.cell_size_m <= 0:
            raise ValueError(f"cell size must be positive, got {self.cell_size_m}")
        self.cells = np.asarray(self.cells, dtype=bool)
        if self.cells.ndim != 2 or self.cells.shape[0] < 1 or self.cells.shape[1] < 1:
            raise ValueError("cells must be a 2-d array with at least one cell")

    @property
    def nrows(self) -> int:
        return self.cells.shape[0]

    @property
    def ncols(self) -> int:
        return self.cells.shape[1]

    def cell_center(self, row: int, col: int) -> NgPoint:
        return NgPoint(
            self.origin.easting + (col + 0.5) * self.cell_size_m,
            self.origin.northing + (row + 0.5) * self.cell_size_m,
        )


@dataclass(frozen=True)
class CoverageDisk:
    """Transmitter-centred disk enclosing the station's covered area."""

    transmitter_id: str
    center: NgPoint
    radius_m: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.radius_m) and self.radius_m > 0):
            raise ValueError(f"disk radius must be positive, got {self.radius_m}")


def covers(raster: CoverageRaster, p: NgPoint) -> bool:
    """Whether ``p`` lands on a covered cell.

    The point is snapped to the nearest cell centre (boundary ties go to
    the lower row, then lower column); anything outside the raster extent
    is uncovered.  On the lattice the cell index is ceil(q) - 1 for the
    offset in cells q = (x - x0) / cell; a q too large to be a float
    (a far point and a subnormal cell) lies outside every raster.
    """
    q_col = (p.easting - raster.origin.easting) / raster.cell_size_m
    q_row = (p.northing - raster.origin.northing) / raster.cell_size_m
    if 0 < q_col <= raster.ncols and 0 < q_row <= raster.nrows:  # 0 <= ceil(q) - 1 < n
        return bool(raster.cells[math.ceil(q_row) - 1, math.ceil(q_col) - 1])
    return False


def enclosing_disk(raster: CoverageRaster, tx: Transmitter) -> CoverageDisk:
    """Smallest transmitter-centred disk containing every covered cell.

    Radius is the farthest covered cell centre plus half the cell diagonal.
    The diagonal padding (rather than half a cell side) is what guarantees
    the *corners* of every covered cell fall inside the disk, by the
    triangle inequality; it still exceeds the exact minimum containing
    radius by less than one cell size.
    """
    if raster.transmitter_id != tx.id:
        raise ValueError(
            f"raster belongs to {raster.transmitter_id!r}, not {tx.id!r}"
        )
    cells = raster.cells
    rows = np.flatnonzero(cells.any(1))
    if rows.size == 0:
        raise ValueError(f"raster for {tx.id!r} has no covered cell")
    # the distance to a centre is convex along a row, so each row's farthest
    # covered centre is its first or its last covered cell
    first, last = cells.argmax(1)[rows], cells.shape[1] - 1 - cells[:, ::-1].argmax(1)[rows]
    rows, cols = np.concatenate([rows, rows]), np.concatenate([first, last])
    centers_e = raster.origin.easting + (cols + 0.5) * raster.cell_size_m
    centers_n = raster.origin.northing + (rows + 0.5) * raster.cell_size_m
    dists = np.hypot(centers_e - tx.position.easting, centers_n - tx.position.northing)
    radius = float(dists.max()) + raster.cell_size_m * math.sqrt(2.0) / 2.0
    return CoverageDisk(transmitter_id=tx.id, center=tx.position, radius_m=radius)


def nominal_coverage_radius(
    erp_watts: float,
    prop: PropagationParams,
    p_min_watts: float = DEFAULT_MIN_RECEIVER_POWER_W,
) -> float:
    """Pathloss-model coverage radius: (ERP / (beta_th * P_min)) ** (1/alpha)."""
    if erp_watts <= 0:
        raise ValueError("ERP must be positive")
    if p_min_watts <= 0:
        raise ValueError("receiver sensitivity power must be positive")
    return (erp_watts / (prop.beta_th * p_min_watts)) ** (1.0 / prop.alpha)


def synth_coverage(
    tx: Transmitter,
    params: PropagationParams,
    cell_size_m: float,
    irregularity: float = 0.0,
    seed: int = 0,
    p_min_watts: float = DEFAULT_MIN_RECEIVER_POWER_W,
) -> CoverageRaster:
    """Generate a synthetic coverage raster for one transmitter.

    At ``irregularity`` 0 the covered set is exactly the cells whose
    centres lie within the nominal pathloss radius.  Larger values scale
    that radius by a smooth periodic noise field in bearing, giving the
    ragged, decidedly non-circular contours real maps show.  Deterministic
    in ``seed``.  The grid is clipped to the OSGB envelope.
    """
    if cell_size_m <= 0:
        raise ValueError(f"cell size must be positive, got {cell_size_m}")
    if not 0.0 <= irregularity <= 1.0:
        raise ValueError(f"irregularity must be within [0, 1], got {irregularity}")

    r_nominal = nominal_coverage_radius(tx.erp_watts, params, p_min_watts)
    rng = random.Random(seed)
    amps = np.array([rng.uniform(0.0, 1.0) / k for k in range(1, 6)])
    phases = np.array([rng.uniform(0.0, 2.0 * math.pi) for _ in range(5)])
    amps /= amps.sum() or 1.0  # noise stays within [-1, 1]

    r_extent = r_nominal * (1.0 + irregularity) + cell_size_m
    e_lo = max(0.0, tx.position.easting - r_extent)
    n_lo = max(0.0, tx.position.northing - r_extent)
    e_hi = min(EASTING_MAX, tx.position.easting + r_extent)
    n_hi = min(NORTHING_MAX, tx.position.northing + r_extent)
    ncols = max(1, math.ceil((e_hi - e_lo) / cell_size_m))
    nrows = max(1, math.ceil((n_hi - n_lo) / cell_size_m))
    # envelope clipping can leave the outermost centre past the envelope
    # edge; drop such cells so every cell centre is a valid grid position
    if ncols > 1 and e_lo + (ncols - 0.5) * cell_size_m >= EASTING_MAX:
        ncols -= 1
    if nrows > 1 and n_lo + (nrows - 0.5) * cell_size_m >= NORTHING_MAX:
        nrows -= 1

    cols = e_lo + (np.arange(ncols) + 0.5) * cell_size_m
    rows = n_lo + (np.arange(nrows) + 0.5) * cell_size_m
    dx = cols[np.newaxis, :] - tx.position.easting
    dy = rows[:, np.newaxis] - tx.position.northing
    dist = np.hypot(dx, dy)

    if irregularity > 0.0:
        theta = np.arctan2(dy, dx)
        noise = np.zeros_like(dist)
        for k, (a, phi) in enumerate(zip(amps, phases), start=1):
            noise += a * np.cos(k * theta + phi)
        scale = np.maximum(0.05, 1.0 + irregularity * noise)
    else:
        scale = 1.0

    covered = dist <= r_nominal * scale
    return CoverageRaster(
        transmitter_id=tx.id,
        origin=NgPoint(e_lo, n_lo),
        cell_size_m=cell_size_m,
        cells=covered,
    )


# ---------------------------------------------------------------------------
# File formats: ESRI-ASCII-style rasters and one-line disk files.

# rows formatted per block in write_asc_grid hold about this many cells, so
# its numpy temporaries stay about a MB whatever the grid's size
_FORMAT_BLOCK = 1 << 16


def _format_cells(values: np.ndarray) -> np.ndarray:
    """Each value's ``str(int(v)) + " "``, right-aligned in a zero-padded row of words.

    A row is one ``uint32`` or several ``uint64``, so a gather moves whole words.
    """
    signed = values.dtype.kind == "i"
    flat = values.astype(np.int64 if signed else np.uint64)
    negative = flat < 0
    # -(-2**63) wraps to itself, which as uint64 is 2**63
    mag = np.where(negative, -flat, flat).astype(np.uint64)
    ndigits = len(str(int(mag.max())))
    need = ndigits + signed + 1  # sign, digits, separator
    width = 4 if need <= 4 else -(-need // 8) * 8
    out = np.zeros((mag.size, width), dtype=np.uint8)
    length = np.ones(mag.size, dtype=np.intp)  # digits written per cell
    out[:, width - 2] = 48 + mag % 10
    for k in range(1, ndigits):
        mag //= 10
        more = mag > 0
        out[:, width - 2 - k] = np.where(more, 48 + mag % 10, 0)
        length += more
    if negative.any():
        cells = np.flatnonzero(negative)
        out[cells, width - 2 - length[cells]] = ord("-")
    out[:, -1] = ord(" ")
    return out.view(np.uint32 if width == 4 else np.uint64)


def _format_rows(rows: np.ndarray) -> bytes:
    """``str(int(v))`` of each cell, space-separated, a newline after each row.

    Each value of the block's span is formatted once and gathered per cell, or where the
    span is wider than the block each cell is formatted; the zero padding is then dropped.
    """
    lo = rows.min()
    span = int(rows.max()) - int(lo)
    if span < rows.size:
        wide = np.uint64 if rows.dtype.kind == "u" else np.int64
        table = _format_cells(wide(lo) + np.arange(span + 1, dtype=wide))
        words = table.take(np.subtract(rows, lo, dtype=np.intp).ravel(), axis=0)
    else:
        words = _format_cells(rows.ravel())
    text = words.view(np.uint8).reshape(rows.shape[0], -1)
    text[:, -1] = ord("\n")
    return text.tobytes().translate(None, b"\0")


def write_asc_grid(
    origin: NgPoint, cell_size_m: float, values: np.ndarray, nodata: int = ASC_NODATA
) -> str:
    """Serialize an integer grid (row 0 = south) as ESRI-ASCII-style text."""
    values = np.asarray(values)
    if values.dtype.kind not in "biu":
        raise TypeError(f"write_asc_grid takes an integer grid, got {values.dtype}")
    nrows, ncols = values.shape
    head = (f"ncols        {ncols}\nnrows        {nrows}\nxllcorner    {origin.easting!r}\n"
            f"yllcorner    {origin.northing!r}\ncellsize     {cell_size_m!r}\n"
            f"NODATA_value {nodata}\n")
    if values.size == 0:
        return head + "\n" * nrows
    step = max(1, _FORMAT_BLOCK // ncols)
    blocks = [_format_rows(values[max(0, top - step) : top][::-1]).decode("ascii")
              for top in range(nrows, 0, -step)]  # northernmost row first
    return "".join([head, *blocks])


def write_asc(raster: CoverageRaster) -> str:
    return write_asc_grid(raster.origin, raster.cell_size_m, raster.cells)


# header line -> (test its value must pass, what the test asks for)
_ASC_HEADER_RULES = {
    "ncols": (lambda v: v > 0 and v.is_integer(), "a positive integer"),
    "nrows": (lambda v: v > 0 and v.is_integer(), "a positive integer"),
    "xllcorner": (lambda v: 0 <= v < EASTING_MAX, f"within the OSGB envelope [0, {EASTING_MAX})"),
    "yllcorner": (lambda v: 0 <= v < NORTHING_MAX, f"within the OSGB envelope [0, {NORTHING_MAX})"),
    "cellsize": (lambda v: math.isfinite(v) and v > 0, "finite and positive"),
}


def _body_cells(body: str, source: str) -> np.ndarray:
    """Cell values of the .asc body in file order.

    A body of one-byte ``0``/``1`` tokens (what :func:`write_asc` emits) is
    decoded from its bytes; any other body goes through ``float`` token by
    token, so every spelling ``float`` takes is read as before.
    """
    if body.isascii():
        raw = np.frombuffer(body.encode("ascii"), dtype=np.uint8)
        digit = (raw | 1) == ord("1")
        # the ASCII characters str.split separates on: 9-13 and 28-32
        space = ((raw - 9) <= 4) | ((raw - 28) <= 4)
        if (digit | space).all() and not (digit[1:] & digit[:-1]).any():
            return raw[np.flatnonzero(digit)] - ord("0")
    try:
        return np.array(body.split(), dtype=float)
    except ValueError:
        raise ParseError("non-numeric cell value", source=source) from None


def read_asc(text: str, transmitter_id: str, source: str = "raster") -> CoverageRaster:
    """Parse an ESRI-ASCII-style coverage grid (1 = covered)."""
    header: dict[str, tuple[float, int]] = {}
    body_start = 0
    expected = {*_ASC_HEADER_RULES, "nodata_value"}
    # only "\n" ends a line; str.splitlines would also end one at \x85, U+2028, ...
    for i, line in enumerate(text.split("\n")):
        parts = line.split()
        if len(parts) == 2 and parts[0].lower() in expected:
            try:
                header[parts[0].lower()] = (float(parts[1]), i + 1)
            except ValueError:
                raise ParseError(
                    f"bad header value {parts[1]!r}", source=source, line=i + 1
                ) from None
            body_start += len(line) + 1
        else:
            break
    for key, (valid, what) in _ASC_HEADER_RULES.items():
        if key not in header:
            raise ParseError(f"missing header line {key!r}", source=source)
        value, line = header[key]
        if not valid(value):
            raise ParseError(f"{key} must be {what}, got {value!r}", source=source, line=line)

    ncols = int(header["ncols"][0])
    nrows = int(header["nrows"][0])
    nodata = header["nodata_value"][0] if "nodata_value" in header else float(ASC_NODATA)
    flat = _body_cells(text[body_start:], source)
    if flat.size != nrows * ncols:
        raise ParseError(
            f"expected {nrows * ncols} cell values, got {flat.size}", source=source
        )
    grid = flat.reshape(nrows, ncols)[::-1]  # file is north-first; flip to row 0 = south
    cells = grid == 1
    if np.any((grid != 0) & (grid != 1) & (grid != nodata)):
        raise ParseError("cell values must be 0, 1 or NODATA", source=source)
    return CoverageRaster(
        transmitter_id=transmitter_id,
        origin=NgPoint(header["xllcorner"][0], header["yllcorner"][0]),
        cell_size_m=header["cellsize"][0],
        cells=cells,
    )


def write_disk(disk: CoverageDisk) -> str:
    return f"{disk.center.easting!r} {disk.center.northing!r} {disk.radius_m!r}\n"


def read_raster(path: str, transmitter_id: str) -> CoverageRaster:
    """The station's ``<id>.asc`` at ``path``, through :func:`read_asc`.

    Where ``path`` is not a regular file the FileNotFoundError names it.
    """
    if not os.path.isfile(path):
        raise FileNotFoundError(f"no coverage raster for {transmitter_id!r}: {path}")
    return read_asc(read_text(path), transmitter_id, source=path)


def derive_disk(path: str, tx: Transmitter) -> CoverageDisk:
    """``tx``'s disk, from its ``<id>.asc`` at ``path``; where it has none the error names both."""
    raster = read_raster(path, tx.id)
    try:
        return enclosing_disk(raster, tx)
    except ValueError as exc:  # no covered cell, or a radius that rounds to 0
        raise ParseError(f"no coverage disk for {tx.id!r}: {exc}", source=path) from None


# ---------------------------------------------------------------------------
# Packs.  What the loaders parse is kept in two binary files per coverage
# directory, each one ASCII JSON header line, then the raw C-order bytes of
# the kind's fields below, each column at an 8-byte-aligned offset:
#
#   {"format":"tvws coverage pack 6","kind":"rasters","fields":[["ids","<U5",[81]],...]}
#
# The header names every field in order with its dtype string and shape, so
# one read() and one JSON parse give each field as a read-only np.frombuffer
# view of the file's bytes.
#
# Each pack holds parts, and a part is a snapshot of its source files:
#
# * the txdb part of the station pack: the txdb's parsed columns and
#   ERP-range warnings, keyed on the CSV's path as given and its stat key;
# * the disk part of the station pack: every station's disk (centre,
#   radius), keyed on the stat key of every <id>.asc, on the station list
#   and on each disk being centred on its station's position;
# * the raster pack: every <id>.asc's cells, keyed on the station list and
#   on the stat key of every <id>.asc.
#
# A stat key is (size, mtime, ctime, inode), all zeros for a path that is
# not a regular file.  A part is taken whole while every one of its keys
# holds and every keyed file is older than the pack (see _fresh); otherwise
# every file of the part is read again, and the pack rewritten with the
# parts that call checked, so a load after an edit costs about what a load
# with no pack does.  A pack that is missing, unreadable, damaged or not in
# this format (one an older version wrote, too) reads as empty, and is
# rebuilt by the next load that reads a source file.  So does one holding a
# value no load could have written (_stations_plausible, _raster_starts): a
# position off the envelope, an ERP, cell size or radius that is not finite
# and positive, a channel mask that is empty or past channel 68, raster
# shapes that do not share out the cells, or a cell byte other than 0 or 1.

_PACK_NAMES = {"stations": ".tvws-stations.pack", "rasters": ".tvws-rasters.pack"}
_PACK_FORMAT = "tvws coverage pack 6"
_PACK_ALIGN = 8  # column offsets are multiples of this, so 8-byte number views are aligned
_U64 = (1 << 64) - 1  # keys are stored as uint64; times wrap modulo 2**64 ns
_NO_FILE = (0, 0, 0, 0)
# name -> (dtype, shape); "U" is any "<U<n>", n >= 1; arrays sharing a
# letter in their shape agree on that length
_PACK_FIELDS = {
    "stations": {
        "txdb_text": ("U", (2,)),  # the CSV's path as given, the database's source
        "txdb_key": ("<u8", (4,)),
        "tx_ids": ("U", ("t",)),
        "tx_floats": ("<f8", ("t", 4)),  # easting, northing, ERP, antenna height
        "tx_channels": ("<u8", ("t",)),
        "tx_notes": ("U", ("w",)),  # the ERP-range warnings, as issued
        "disk_ids": ("U", ("d",)),
        "disk_keys": ("<u8", ("d", 4)),  # <id>.asc's stat key
        "disk_floats": ("<f8", ("d", 3)),  # centre easting, northing, radius
    },
    "rasters": {
        "ids": ("U", ("r",)),
        "keys": ("<u8", ("r", 4)),
        "floats": ("<f8", ("r", 3)),  # origin easting, northing, cell size
        "shapes": ("<i8", ("r", 2)),
        "cells": ("|b1", ("c",)),
    },
}
# per kind, each field as _pack_layout checks it: (name, dtype string, its dtype or None for "U", shape)
_PACK_SPECS = {
    kind: [(name, dtype, None if dtype == "U" else np.dtype(dtype), shape)
           for name, (dtype, shape) in fields.items()]
    for kind, fields in _PACK_FIELDS.items()
}
_HEADER_KEYS = {"format", "kind", "fields"}
# A packed row (easting, northing, v) is one a load could have written when
# _LOW <= row < _HIGH: the point inside the OSGB envelope, as NgPoint has it,
# and v finite and positive, as an ERP, a cell size and a radius are
# (5e-324 is the least positive float; nan fails both tests).
_LOW = np.array([0.0, 0.0, 5e-324])
_HIGH = np.array([EASTING_MAX, NORTHING_MAX, math.inf])
_MASKS = (1 << (CHANNEL_MAX - CHANNEL_MIN + 1)) - 1  # the mask of every channel 21-68


def _stat_keys(paths: list[str]) -> np.ndarray:
    """(n, 4) ``uint64`` stat keys of ``paths``, all zeros where a path is not a regular file."""
    keys: list[int] = []  # flat: a list of tuples would hold one more object per path
    for path in paths:
        try:
            st = os.stat(path)
        except OSError:
            keys += _NO_FILE
            continue
        if stat.S_ISREG(st.st_mode):
            keys += st.st_size, st.st_mtime_ns & _U64, st.st_ctime_ns & _U64, st.st_ino
        else:
            keys += _NO_FILE
    return np.array(keys, dtype=np.uint64).reshape(-1, 4)


def _fresh(keys: np.ndarray, mtime_ns: int, packed: np.ndarray) -> bool:
    """Whether a pack written at ``mtime_ns`` still vouches for every file, by their stat ``keys``.

    Decided on the whole arrays: the keys' bytes equal the ``packed`` ones (a
    host that is not little-endian only ever misses), and each file's mtime
    and ctime are positive, so it is a regular file, and strictly older than
    the pack: a file changed within the timestamp tick the pack was written
    in can still show its old key (git's racy-clean rule).
    """
    times = keys.view(np.int64)[:, 1:3]
    return (keys.tobytes() == packed.tobytes()
            and times.min(initial=1) > 0 and times.max(initial=0) < mtime_ns)


def _in_bounds(rows: np.ndarray) -> bool:
    """Whether every row (easting, northing, v) is between ``_LOW`` and ``_HIGH``."""
    return bool(((_LOW <= rows) & (rows < _HIGH)).all())


def _stations_plausible(pack: dict[str, np.ndarray]) -> bool:
    """Whether every value of a parsed station pack is one a load could have written.

    These are the rules :class:`~tvws.txdb.Transmitter`, :class:`NgPoint`
    and :class:`CoverageDisk` enforce: a position inside the envelope, ERP
    and radius finite and positive, a nonzero mask of channels 21-68.  A
    disk's centre is taken only where it is its station's position.
    """
    channels, radii = pack["tx_channels"], pack["disk_floats"][:, 2]
    return (_in_bounds(pack["tx_floats"][:, :3])
            and 0 < channels.min(initial=1) and channels.max(initial=0) <= _MASKS
            and 0 < radii.min(initial=1.0) and radii.max(initial=1.0) < math.inf)  # nan fails


def _raster_starts(pack: dict[str, np.ndarray]) -> np.ndarray | None:
    """Each packed raster's offset into ``cells``; None where a value is one no load could have written.

    Origins lie inside the envelope, cell sizes are finite and positive,
    every raster has at least one row and one column, its shares filling
    ``cells`` exactly, and every cell byte is 0 or 1: what a
    :class:`CoverageRaster` and :func:`read_asc` ask of theirs.
    """
    shapes, cells = pack["shapes"], pack["cells"]
    # a side past the cell count cannot fit, and keeps each product far from overflow
    if not (_in_bounds(pack["floats"]) and ((1 <= shapes) & (shapes <= cells.size)).all()
            and cells.view(np.uint8).max(initial=0) <= 1):
        return None
    sizes = shapes.prod(axis=1)
    ends = np.cumsum(sizes)
    return ends - sizes if (ends[-1] if ends.size else 0) == cells.size else None


def _empty_pack(kind: str) -> dict[str, np.ndarray]:
    return {
        name: np.zeros([0 if isinstance(n, str) else n for n in shape],
                       dtype="<U1" if dtype == "U" else dtype)
        for name, (dtype, shape) in _PACK_FIELDS[kind].items()
    }


def _text_dtype(text: object, size: int) -> np.dtype | None:
    """The ``<U<n>`` dtype a header names for a text field, if it names one."""
    if type(text) is not str or text[:2] != "<U":
        return None
    chars = text[2:]
    # an itemsize past the file's size would not fit; U0 would make every shape fit
    if not (chars.isascii() and chars.isdigit() and len(chars) < 19
            and 0 < int(chars) * 4 <= size):
        return None
    return np.dtype(text)


@functools.lru_cache(maxsize=8)  # a pure function; a directory's few pack headers recur
def _pack_layout(header: bytes, kind: str, size: int) -> tuple[tuple, ...] | None:
    """Each field's (name, dtype, count, offset, shape or None for 1-d) in a pack of ``kind``.

    ``header`` is the pack's first line and ``size`` its length in bytes;
    None unless the header is well-formed and its fields account for every byte.
    """
    specs = _PACK_SPECS[kind]
    try:
        parsed = json.loads(header.decode("ascii"))
    except (ValueError, RecursionError):  # not ASCII, not JSON, or nested past the stack
        return None
    if not (type(parsed) is dict and parsed.keys() == _HEADER_KEYS
            and parsed["format"] == _PACK_FORMAT and parsed["kind"] == kind
            and type(parsed["fields"]) is list and len(parsed["fields"]) == len(specs)):
        return None
    layout = []
    lengths: dict[str, int] = {}
    end = len(header) + 1
    for entry, (name, want_dtype, dtype, want_shape) in zip(parsed["fields"], specs):
        if not (type(entry) is list and len(entry) == 3 and entry[0] == name):
            return None
        if dtype is None:
            dtype = _text_dtype(entry[1], size)
        elif entry[1] != want_dtype:
            return None
        shape = entry[2]
        if dtype is None or type(shape) is not list or len(shape) != len(want_shape):
            return None
        for want, got in zip(want_shape, shape):
            if type(got) is not int or got < 0:  # type(True) is bool
                return None
            if got != (lengths.setdefault(want, got) if isinstance(want, str) else want):
                return None
        start = end + -end % _PACK_ALIGN
        count = math.prod(shape)
        end = start + count * dtype.itemsize
        if end > size:  # also a shape of 10**30, before numpy overflows on it
            return None
        layout.append((name, dtype, count, start, tuple(shape) if len(shape) > 1 else None))
    return tuple(layout) if end == size else None


def _parse_pack(data: bytes, kind: str) -> dict[str, np.ndarray] | None:
    """Each field of a well-formed pack of ``kind`` as a read-only view of ``data``, else None."""
    line_end = data.find(b"\n")
    layout = None if line_end < 0 else _pack_layout(data[:line_end], kind, len(data))
    if layout is None:
        return None
    arrays = {}
    for name, dtype, count, start, shape in layout:
        array = np.frombuffer(data, dtype, count, start)
        arrays[name] = array if shape is None else array.reshape(shape)
    return arrays


def _read_pack(path: str, kind: str) -> tuple[int, dict[str, np.ndarray]] | None:
    """(mtime in ns, read-only arrays by field) of a well-formed pack of ``kind``, else None."""
    try:
        with open(path, "rb", buffering=0) as f:  # one open, fstat, read and close
            st = os.fstat(f.fileno())
            data = f.read(st.st_size)  # a pack is replaced whole, never grown in place
    except (OSError, MemoryError):
        return None
    arrays = _parse_pack(data, kind)
    return None if arrays is None else (st.st_mtime_ns, arrays)


def _write_pack(path: str, kind: str, arrays: dict[str, np.ndarray]) -> None:
    """Write a pack atomically (a temp file, then ``os.replace``); a failure only warns."""
    columns = {}
    for name, (dtype, _shape) in _PACK_FIELDS[kind].items():
        array = np.asarray(arrays[name])
        if dtype == "U":
            dtype = f"<U{array.dtype.itemsize // 4}"
        columns[name] = np.ascontiguousarray(array, dtype=dtype)
    fields = [[name, column.dtype.str, list(column.shape)] for name, column in columns.items()]
    header = json.dumps({"format": _PACK_FORMAT, "kind": kind, "fields": fields},
                        separators=(",", ":"))
    tmp = f"{path}.{os.getpid()}-{os.urandom(4).hex()}.tmp"
    try:
        try:
            with open(tmp, "xb") as f:
                end = f.write(header.encode("ascii") + b"\n")
                for column in columns.values():
                    end += f.write(bytes(-end % _PACK_ALIGN) + column.tobytes())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
    except OSError as exc:  # e.g. a read-only data dir: the files are read again next time
        print(f"tvws: warning: could not write coverage pack {path}: {exc}", file=sys.stderr)


@functools.lru_cache(maxsize=8)  # a pure function, called with the same directory on each load
def _prefix(coverage_dir: str | Path) -> str:
    """What ``str(coverage_dir / name)`` starts with, so paths need no Path each."""
    return str(Path(coverage_dir) / "_")[:-1]


class RasterSet(Mapping):
    """Coverage rasters as columns, row ``i`` for station ``ids[i]``.

    ``floats`` rows are (origin easting, origin northing, cell size) and
    ``shapes`` rows (nrows, ncols); station ``i``'s cells, row 0 south, are
    the ``nrows * ncols`` values of the flat bool ``cells`` from
    ``starts[i]`` on.  A :class:`CoverageRaster` is built for each raster
    looked up; the raster kernel reads the columns instead.
    """

    def __init__(self, ids: list[str], floats: np.ndarray, shapes: np.ndarray,
                 starts: np.ndarray, cells: np.ndarray):
        self.ids = ids
        self.floats = floats
        self.shapes = shapes
        self.starts = starts
        self.cells = cells
        self._index: dict[str, int] | None = None

    @classmethod
    def of(cls, rasters: Mapping[str, CoverageRaster], ids: list[str]) -> RasterSet:
        """``rasters`` for the stations ``ids``, as columns; ValueError names one it lacks."""
        if isinstance(rasters, RasterSet) and rasters.ids == ids:
            return rasters
        entries = []
        for tx_id in ids:
            raster = rasters.get(tx_id)
            if raster is None:
                raise ValueError(f"no coverage raster for transmitter {tx_id!r}")
            entries.append(raster)
        return cls.stack(ids, entries)

    @classmethod
    def stack(cls, ids: list[str], rasters: list[CoverageRaster]) -> RasterSet:
        """``rasters[i]`` as row ``i``, the cells copied into one array."""
        floats = np.array([(r.origin.easting, r.origin.northing, r.cell_size_m) for r in rasters],
                          dtype=np.float64).reshape(-1, 3)
        shapes = np.array([r.cells.shape for r in rasters], dtype=np.int64).reshape(-1, 2)
        sizes = shapes.prod(axis=1)
        cells = np.concatenate([r.cells.ravel() for r in rasters]) if rasters else np.zeros(0, bool)
        return cls(ids, floats, shapes, np.cumsum(sizes) - sizes, cells)

    def raster(self, i: int) -> CoverageRaster:
        """Row ``i`` as a :class:`CoverageRaster` whose cells are a view of ``cells``."""
        (e, n, cell), (nrows, ncols) = self.floats[i].tolist(), self.shapes[i].tolist()
        start = int(self.starts[i])
        cells = self.cells[start : start + nrows * ncols].reshape(nrows, ncols)
        return CoverageRaster(self.ids[i], NgPoint(e, n), cell, cells)

    def __getitem__(self, tx_id: str) -> CoverageRaster:
        if self._index is None:
            self._index = {key: i for i, key in enumerate(self.ids)}
        return self.raster(self._index[tx_id])

    def __iter__(self):
        return iter(self.ids)

    def __len__(self) -> int:
        return len(self.ids)


def load_rasters(coverage_dir: str | Path, db: TransmitterDb) -> RasterSet:
    """Read ``<id>.asc`` for every transmitter in the database.

    The set is the raster pack's own columns, with no raster object built,
    while the pack lists the database's stations in order and vouches for
    every ``.asc`` (see the pack notes above).  Otherwise every ``.asc`` is
    read and the pack rewritten: after one file of a 1,000-station tree is
    touched the next load takes 90-180 ms on a 2-core host, about what a
    load with no pack takes.
    """
    prefix = _prefix(coverage_dir)
    pack_path = prefix + _PACK_NAMES["rasters"]
    paths = [f"{prefix}{tx_id}.asc" for tx_id in db.ids]
    keys = _stat_keys(paths)
    mtime_ns, pack = _read_pack(pack_path, "rasters") or (0, _empty_pack("rasters"))
    starts = _raster_starts(pack)
    if (starts is not None and pack["ids"].tolist() == db.ids
            and _fresh(keys, mtime_ns, pack["keys"])):
        return RasterSet(db.ids, pack["floats"], pack["shapes"], starts, pack["cells"])
    rasters = RasterSet.stack(db.ids, [read_raster(path, tx_id)
                                       for tx_id, path in zip(db.ids, paths)])
    _write_pack(pack_path, "rasters", {"ids": np.array(db.ids, dtype=str), "keys": keys,
                                       "floats": rasters.floats, "shapes": rasters.shapes,
                                       "cells": rasters.cells})
    return rasters


class DiskSet(Mapping):
    """Coverage disks as columns, row ``i`` for station ``ids[i]``.

    ``floats`` rows are (centre easting, centre northing, radius).  A
    :class:`CoverageDisk` is built for each id looked up; the kernels read
    ``radii`` instead.
    """

    def __init__(self, ids: list[str], floats: np.ndarray):
        self.ids = ids
        self.floats = floats
        self._index: dict[str, int] | None = None

    @property
    def radii(self) -> np.ndarray:
        return self.floats[:, 2]

    def __getitem__(self, tx_id: str) -> CoverageDisk:
        if self._index is None:
            self._index = {key: i for i, key in enumerate(self.ids)}
        e, n, radius = self.floats[self._index[tx_id]].tolist()
        return CoverageDisk(tx_id, NgPoint(e, n), radius)

    def __iter__(self):
        return iter(self.ids)

    def __len__(self) -> int:
        return len(self.ids)


def _load_stations(
    coverage_dir: str | Path, db: TransmitterDb | None, txdb_path: str | None, with_disks: bool
) -> tuple[TransmitterDb, DiskSet | None, list[str]]:
    """``db`` (or the database read from ``txdb_path``), its disks if asked, and its ERP notes.

    Each part is taken whole from the station pack, or read whole from its
    files: the txdb part (unless ``db`` is given) while the pack names
    ``txdb_path`` and vouches for the CSV, and the disk part while the pack
    lists the database's stations in order, centres each disk on its
    station's position and vouches for every ``<id>.asc``.  The CSV and each
    ``.asc`` are stat-ed once.  Where a part was read the pack is rewritten
    with the parts this call checked and no other: a part carried over
    unchecked would be stamped anew, and could pass the racy-clean rule it
    failed.
    """
    prefix = _prefix(coverage_dir)
    pack_path = prefix + _PACK_NAMES["stations"]
    mtime_ns, pack = _read_pack(pack_path, "stations") or (0, _empty_pack("stations"))
    if not _stations_plausible(pack):
        mtime_ns, pack = 0, _empty_pack("stations")
    ids = pack["tx_ids"].tolist() if db is None else db.ids  # the pack's stations, until a miss
    paths = [f"{prefix}{tx_id}.asc" for tx_id in ids] if with_disks else []
    keys = _stat_keys(paths if db is not None else [txdb_path, *paths])
    notes: list[str] = []
    read = False
    if db is None:
        txdb_key, keys = keys[:1], keys[1:]
        if not txdb_key.any():
            raise FileNotFoundError(f"transmitter database not found: {txdb_path}")
        if pack["txdb_text"][0] == txdb_path and _fresh(txdb_key, mtime_ns, pack["txdb_key"]):
            db = TransmitterDb.from_columns(ids, pack["tx_floats"], pack["tx_channels"],
                                            str(pack["txdb_text"][1]))
            notes = pack["tx_notes"].tolist()
        else:
            db = load_txdb(read_text(txdb_path), source=txdb_path, notes=notes)
            read = True
            if with_disks and db.ids != ids:  # the CSV lists other stations than the pack did
                paths = [f"{prefix}{tx_id}.asc" for tx_id in db.ids]
                keys = _stat_keys(paths)
    disks = None
    if with_disks:
        if (pack["disk_ids"].tolist() == db.ids  # also gives the next two tests one row count
                and bool((pack["disk_floats"][:, :2] == db.floats[:, :2]).all())
                and _fresh(keys, mtime_ns, pack["disk_keys"])):
            disks = DiskSet(db.ids, pack["disk_floats"])
        else:
            floats = np.empty((len(db), 3))  # filled row by row: no disk object is kept
            for i, disk in enumerate(map(derive_disk, paths, db.transmitters)):
                floats[i] = disk.center.easting, disk.center.northing, disk.radius_m
            disks = DiskSet(db.ids, floats)
            read = True
    if read:
        fields = _empty_pack("stations")
        if txdb_path is not None:
            fields.update(txdb_text=np.array([txdb_path, db.source]), txdb_key=txdb_key[0],
                          tx_ids=np.array(db.ids, dtype=str), tx_floats=db.floats,
                          tx_channels=db.channels, tx_notes=np.array(notes, dtype=str))
        if disks is not None:
            fields.update(disk_ids=np.array(db.ids, dtype=str), disk_keys=keys,
                          disk_floats=disks.floats)
        _write_pack(pack_path, "stations", fields)
    return db, disks, notes


def load_stations(
    txdb_path: str | Path, coverage_dir: str | Path, disks: bool = True
) -> tuple[TransmitterDb, DiskSet | None]:
    """The transmitter database at ``txdb_path`` and, with ``disks``, every station's disk.

    Each comes whole from the coverage directory's station pack while every
    key of its part holds, else whole from its files: the database from the
    CSV as :func:`~tvws.txdb.load_txdb` reads it, the disks from every
    ``.asc`` as :func:`load_disks` derives them.  The pack is then rewritten
    with the parts this call checked.  After one ``.asc`` of a 1,000-station
    tree is touched the next load with disks takes 120-260 ms on a 2-core
    host, about what a load with no pack takes.  ERP-range warnings are
    issued the same way whether the database came from the pack or the CSV.
    A ``txdb_path`` that is not a regular file raises FileNotFoundError.
    """
    db, disk_set, notes = _load_stations(coverage_dir, None, str(txdb_path), disks)
    for note in notes:
        warnings.warn(note, stacklevel=2)
    return db, disk_set


def load_disks(coverage_dir: str | Path, db: TransmitterDb) -> DiskSet:
    """Every transmitter's disk, derived from its ``<id>.asc`` about its position.

    The disks come whole from the station pack's disk part while its keys
    hold; otherwise every disk is derived again and the pack rewritten,
    without a txdb part.
    """
    return _load_stations(coverage_dir, db, None, True)[1]
