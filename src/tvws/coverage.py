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
from collections.abc import Callable, Mapping
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


def nominal_coverage_radius(erp_watts: float, prop: PropagationParams) -> float:
    """Pathloss-model coverage radius: (ERP / (beta_th * P_min)) ** (1/alpha)."""
    if erp_watts <= 0:
        raise ValueError("ERP must be positive")
    return (erp_watts / (prop.beta_th * DEFAULT_MIN_RECEIVER_POWER_W)) ** (1.0 / prop.alpha)


def check_cell_count(nrows: int, ncols: int) -> None:
    """Raise OverflowError where ``nrows`` x ``ncols`` cells are more than an array holds."""
    # the widest per-cell arrays (uint64 masks, float64 distances) take 8 bytes a cell
    if nrows * ncols * 8 > np.iinfo(np.intp).max:
        raise OverflowError(f"{nrows:.4g} x {ncols:.4g} cells are more than an array holds")


def synth_coverage(
    tx: Transmitter,
    params: PropagationParams,
    cell_size_m: float,
    irregularity: float = 0.0,
    seed: int = 0,
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

    r_nominal = nominal_coverage_radius(tx.erp_watts, params)
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
    check_cell_count(nrows, ncols)

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

# byte value v -> str(v) + " ", right-aligned and zero-padded in one word,
# so a block of cells is one gather of words
_CELL_WORDS = np.frombuffer(
    b"".join(f"{v} ".encode("ascii").rjust(4, b"\0") for v in range(256)), dtype=np.uint32)


def write_asc_grid(origin: NgPoint, cell_size_m: float, values: np.ndarray) -> str:
    """Serialize a 2-D bool or uint8 grid with cells (row 0 = south) as ESRI-ASCII-style text."""
    values = np.asarray(values)
    if values.dtype not in (np.bool_, np.uint8):
        raise TypeError(f"write_asc_grid takes a bool or uint8 grid, got {values.dtype}")
    if values.ndim != 2 or values.size == 0:
        raise ValueError(f"write_asc_grid takes a grid with cells in 2-D, got shape {values.shape}")
    nrows, ncols = values.shape
    blocks = [f"ncols        {ncols}\nnrows        {nrows}\nxllcorner    {origin.easting!r}\n"
              f"yllcorner    {origin.northing!r}\ncellsize     {cell_size_m!r}\n"
              f"NODATA_value {ASC_NODATA}\n"]
    step = max(1, _FORMAT_BLOCK // ncols)
    for top in range(nrows, 0, -step):  # northernmost row first
        rows = values[max(0, top - step) : top][::-1].view(np.uint8)
        text = _CELL_WORDS.take(rows).view(np.uint8).reshape(rows.shape[0], -1)
        text[:, -1] = ord("\n")
        blocks.append(text.tobytes().translate(None, b"\0").decode("ascii"))
    return "".join(blocks)


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
        if len(parts) == 2 and (key := parts[0].lower()) in expected:
            if key in header:
                raise ParseError(f"repeated header line {key!r} (first on line {header[key][1]})",
                                 source=source, line=i + 1)
            try:
                header[key] = (float(parts[1]), i + 1)
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
# Packs.  What the loaders parse is kept in three binary files per coverage
# directory, each one ASCII JSON header line, then the raw C-order bytes of
# the kind's fields below, each column at an 8-byte-aligned offset:
#
#   {"format":"tvws coverage pack 8","kind":"rasters","fields":[["ids","<U5",[81]],...]}
#
# The header names every field in order with its dtype string and shape, so
# one read() and one JSON parse give each field as a read-only np.frombuffer
# view of the file's bytes.
#
# Each pack is one snapshot of its source files, with one ``keys`` column:
#
# * the station pack: the txdb's parsed columns and ERP-range warnings,
#   keyed on the CSV's path as given and its stat key;
# * the disk pack: every station's disk (centre, radius), keyed on the
#   station list, on each disk being centred on its station's position and
#   on the stat key of every <id>.asc;
# * the raster pack: every <id>.asc's cells, keyed on the station list and
#   on the stat key of every <id>.asc.
#
# load_stations, load_disks and load_rasters each read one of them, so a
# call reads the station pack and then the one its coverage model needs.
#
# A stat key is (size, mtime, ctime, inode), all zeros for a path that is
# not a regular file.  A pack is taken whole while every one of its keys
# holds and every keyed file is older than the pack (see _fresh); otherwise
# every one of its source files is read again and that pack, and no other,
# rewritten (see _snapshot), so a load after an edit costs about what a load
# with no pack does.  So is a pack that is missing, unreadable, damaged or
# not in this format (one an older version wrote, too: format 7 read a
# repeated .asc header line by its last value, which read_asc refuses), or
# that holds a value no load could have written (each loader's ``holds``):
# a position off the envelope, an ERP, cell size or radius that is not
# finite and positive, a channel mask that is empty or past channel 68,
# raster shapes that do not share out the cells, or a cell byte other
# than 0 or 1.

_PACK_NAMES = {"stations": ".tvws-stations.pack", "disks": ".tvws-disks.pack",
               "rasters": ".tvws-rasters.pack"}
_PACK_FORMAT = "tvws coverage pack 8"
_PACK_ALIGN = 8  # column offsets are multiples of this, so 8-byte number views are aligned
_U64 = (1 << 64) - 1  # keys are stored as uint64; times wrap modulo 2**64 ns
_NO_FILE = (0, 0, 0, 0)
# name -> (dtype, shape); "U" is any "<U<n>", n >= 1; arrays sharing a
# letter in their shape agree on that length
_PACK_FIELDS = {
    "stations": {
        "keys": ("<u8", (1, 4)),  # the CSV's stat key
        "source": ("U", (2,)),  # the CSV's path as given, the database's source
        "ids": ("U", ("t",)),
        "floats": ("<f8", ("t", 4)),  # easting, northing, ERP, antenna height
        "channels": ("<u8", ("t",)),
        "notes": ("U", ("w",)),  # the ERP-range warnings, as issued
    },
    "disks": {
        "ids": ("U", ("d",)),
        "keys": ("<u8", ("d", 4)),  # <id>.asc's stat key
        "floats": ("<f8", ("d", 3)),  # centre easting, northing, radius
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
    in can still show its old key (git's racy-clean rule).  A time read as
    int64 is in (0, mtime_ns) just when, as uint64, time - 1 wraps to below
    mtime_ns - 1; a pack not written after the epoch vouches for nothing.
    """
    return (keys.tobytes() == packed.tobytes() and mtime_ns > 0
            and bool((keys[:, 1:3] - 1 < mtime_ns - 1).all()))


def _in_bounds(rows: np.ndarray) -> bool:
    """Whether every row (easting, northing, v) is between ``_LOW`` and ``_HIGH``."""
    return bool(((_LOW <= rows) & (rows < _HIGH)).all())


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


def _snapshot(coverage_dir: str | Path, kind: str, paths: list[str],
              holds: Callable[[dict[str, np.ndarray]], bool],
              build: Callable[[np.ndarray], dict[str, np.ndarray]]) -> dict[str, np.ndarray]:
    """The directory's ``kind`` pack while it is a snapshot of ``paths``, else one built now.

    Each of ``paths`` is stat-ed once.  The pack is returned, each field a
    read-only view of its bytes, while ``holds(pack)`` and :func:`_fresh`
    pass.  Otherwise ``build(keys)`` reads the source files, given their stat
    keys as taken before any was read, and its fields are written as the
    pack and returned.
    """
    keys = _stat_keys(paths)
    path = _prefix(coverage_dir) + _PACK_NAMES[kind]
    read = _read_pack(path, kind)
    if read is not None and holds(read[1]) and _fresh(keys, read[0], read[1]["keys"]):
        return read[1]
    pack = build(keys)
    _write_pack(path, kind, pack)
    return pack


class RasterSet(Mapping):
    """Coverage rasters as columns, row ``i`` for station ``ids[i]``.

    ``floats`` rows are (origin easting, origin northing, cell size) and
    ``shapes`` rows (nrows, ncols); station ``i``'s cells, row 0 south, are
    the ``nrows * ncols`` values of the flat bool ``cells`` from
    ``starts[i]`` on.  A :class:`CoverageRaster` is built for each raster
    looked up; the raster kernel reads the columns instead.
    """

    def __init__(self, ids: list[str], floats: np.ndarray, shapes: np.ndarray, cells: np.ndarray):
        self.ids = ids
        self.floats = floats
        self.shapes = shapes
        sizes = shapes.prod(axis=1)
        self.starts = np.cumsum(sizes) - sizes
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
        cells = np.concatenate([r.cells.ravel() for r in rasters]) if rasters else np.zeros(0, bool)
        return cls(ids, floats, shapes, cells)

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
    read and the raster pack rewritten: after one file of a 1,000-station
    tree is touched the next load takes 90-180 ms on a 2-core host, about
    what a load with no pack takes.
    """
    prefix = _prefix(coverage_dir)
    paths = [f"{prefix}{tx_id}.asc" for tx_id in db.ids]

    def holds(pack: dict[str, np.ndarray]) -> bool:
        # these stations, with what CoverageRaster and read_asc ask of theirs: an
        # origin inside the envelope, a finite and positive cell size, at least one
        # row and column, shares that fill the cells exactly, cell bytes 0 or 1.
        # A side past the cell count cannot fit, and keeps each product far from overflow.
        shapes, cells = pack["shapes"], pack["cells"]
        return (pack["ids"].tolist() == db.ids and _in_bounds(pack["floats"])
                and bool(((1 <= shapes) & (shapes <= cells.size)).all())
                and cells.view(np.uint8).max(initial=0) <= 1
                and shapes.prod(axis=1).sum() == cells.size)

    def build(keys: np.ndarray) -> dict[str, np.ndarray]:
        rasters = RasterSet.stack(db.ids, [read_raster(path, tx_id)
                                           for tx_id, path in zip(db.ids, paths)])
        return {"ids": np.array(db.ids, dtype=str), "keys": keys, "floats": rasters.floats,
                "shapes": rasters.shapes, "cells": rasters.cells}

    pack = _snapshot(coverage_dir, "rasters", paths, holds, build)
    return RasterSet(db.ids, pack["floats"], pack["shapes"], pack["cells"])


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


def load_stations(
    txdb_path: str | Path, coverage_dir: str | Path, *, notes: list[str] | None = None
) -> TransmitterDb:
    """The transmitter database at ``txdb_path``, through the coverage directory's station pack.

    The database comes whole from the station pack while the pack names
    ``txdb_path`` and vouches for the CSV, else from the CSV as
    :func:`~tvws.txdb.load_txdb` reads it, and the station pack is
    rewritten.  Callers pass it to :func:`load_disks` or :func:`load_rasters`
    for its coverage.  ERP-range warnings are issued the same way whether the
    database came from the pack or the CSV; given ``notes``, their texts are
    appended to it instead, as :func:`~tvws.txdb.load_txdb` does.  A
    ``txdb_path`` that is not a regular file raises FileNotFoundError.
    """
    txdb_path = str(txdb_path)
    read: list[TransmitterDb] = []  # the database parsed on a miss, its stations already built

    def holds(pack: dict[str, np.ndarray]) -> bool:
        # this CSV's, with what Transmitter and NgPoint enforce: a position inside
        # the envelope, an ERP finite and positive, a nonzero mask of channels 21-68
        channels = pack["channels"]
        return (pack["source"][0] == txdb_path and _in_bounds(pack["floats"][:, :3])
                and 0 < channels.min(initial=1) and channels.max(initial=0) <= _MASKS)

    def build(keys: np.ndarray) -> dict[str, np.ndarray]:
        if not keys.any():
            raise FileNotFoundError(f"transmitter database not found: {txdb_path}")
        notes: list[str] = []
        db = load_txdb(read_text(txdb_path), source=txdb_path, notes=notes)
        read.append(db)
        return {"keys": keys, "source": np.array([txdb_path, db.source]),
                "ids": np.array(db.ids, dtype=str), "floats": db.floats,
                "channels": db.channels, "notes": np.array(notes, dtype=str)}

    pack = _snapshot(coverage_dir, "stations", [txdb_path], holds, build)
    db = read[0] if read else TransmitterDb.from_columns(
        pack["ids"].tolist(), pack["floats"], pack["channels"], str(pack["source"][1]))
    if notes is None:
        for note in pack["notes"].tolist():
            warnings.warn(note, stacklevel=2)
    else:
        notes += pack["notes"].tolist()
    return db


def load_disks(coverage_dir: str | Path, db: TransmitterDb) -> DiskSet:
    """Every transmitter's disk, derived from its ``<id>.asc`` about its position.

    The disks come whole from the disk pack while it lists the database's
    stations in order, centres each disk on its station's position and
    vouches for every ``.asc``.  Otherwise every disk is derived again and
    the disk pack rewritten: after one ``.asc`` of a 1,000-station tree is
    touched the next load takes 120-260 ms on a 2-core host, about what a
    load with no pack takes.
    """
    prefix = _prefix(coverage_dir)
    paths = [f"{prefix}{tx_id}.asc" for tx_id in db.ids]

    def holds(pack: dict[str, np.ndarray]) -> bool:
        # these stations, centred where they are, with a radius CoverageDisk takes
        floats = pack["floats"]
        radii = floats[:, 2]
        return (pack["ids"].tolist() == db.ids  # also gives the centre test one row count
                and bool((floats[:, :2] == db.floats[:, :2]).all())
                and 0 < radii.min(initial=1.0) and radii.max(initial=1.0) < math.inf)  # nan fails

    def build(keys: np.ndarray) -> dict[str, np.ndarray]:
        floats = np.empty((len(db), 3))  # filled row by row: no disk object is kept
        for i, disk in enumerate(map(derive_disk, paths, db.transmitters)):
            floats[i] = disk.center.easting, disk.center.northing, disk.radius_m
        return {"ids": np.array(db.ids, dtype=str), "keys": keys, "floats": floats}

    return DiskSet(db.ids, _snapshot(coverage_dir, "disks", paths, holds, build)["floats"])
