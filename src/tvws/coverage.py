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


def _snap_index(offset: float, cell: float) -> int:
    # Nearest-centre cell index on an infinite lattice; a point exactly on
    # a cell boundary snaps to the lower index.
    return math.ceil(offset / cell) - 1


def covers(raster: CoverageRaster, p: NgPoint) -> bool:
    """Whether ``p`` lands on a covered cell.

    The point is snapped to the nearest cell centre (boundary ties go to
    the lower row, then lower column); anything outside the raster extent
    is uncovered.
    """
    col = _snap_index(p.easting - raster.origin.easting, raster.cell_size_m)
    row = _snap_index(p.northing - raster.origin.northing, raster.cell_size_m)
    if 0 <= row < raster.nrows and 0 <= col < raster.ncols:
        return bool(raster.cells[row, col])
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
    rows, cols = np.nonzero(raster.cells)
    if rows.size == 0:
        raise ValueError(f"raster for {tx.id!r} has no covered cell")
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
# File formats: ESRI-ASCII-style rasters and one-line disk cache files.

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


def read_disk(text: str, transmitter_id: str, source: str = "disk") -> CoverageDisk:
    parts = text.split()
    if len(parts) != 3:
        raise ParseError(
            f"expected 'center_e center_n radius_m', got {text.strip()!r}", source=source
        )
    try:
        e, n, r = (float(p) for p in parts)
    except ValueError:
        raise ParseError(f"bad disk numbers {text.strip()!r}", source=source) from None
    try:
        return CoverageDisk(transmitter_id=transmitter_id, center=NgPoint(e, n), radius_m=r)
    except ValueError as exc:  # a radius <= 0 or not finite, a centre off the envelope
        raise ParseError(str(exc), source=source) from None


# ---------------------------------------------------------------------------
# Packs.  What the loaders parse is kept in two binary files per coverage
# directory, each one ASCII JSON header line, then the raw C-order bytes of
# the kind's fields below, each column at an 8-byte-aligned offset:
#
#   {"format":"tvws coverage pack 4","kind":"rasters","fields":[["ids","<U5",[81]],...]}
#
# The header names every field in order with its dtype string and shape, so
# one read() and one JSON parse give each field as a read-only np.frombuffer
# view of the file's bytes.
#
# * the station pack: the txdb's parsed columns and ERP-range warnings,
#   keyed on the CSV's path as given and its stat key; and per station its
#   disk (centre, radius, whether it was derived from the raster), keyed on
#   the stat keys of <id>.disk and <id>.asc;
# * the raster pack: each <id>.asc's cells, keyed on that file's stat key.
#
# A stat key is (size, mtime, ctime, inode), all zeros for a path that is
# not a regular file.  An entry is taken only while its keys match and each
# keyed file is strictly older than the pack: a file changed within the
# timestamp tick the pack was written in can still show its old key (git's
# racy-clean rule).  Anything else is read from its file, after which the
# pack is rewritten.  A pack that is missing, unreadable, damaged or not in
# this format (one an older version wrote, too) reads as empty, and is
# rebuilt by the next load that reads a source file.

_PACK_NAMES = {"stations": ".tvws-stations.pack", "rasters": ".tvws-rasters.pack"}
_PACK_FORMAT = "tvws coverage pack 5"
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
        "disk_keys": ("<u8", ("d", 8)),  # <id>.disk's stat key, then <id>.asc's
        "disk_floats": ("<f8", ("d", 3)),  # centre easting, northing, radius
        "disk_derived": ("|b1", ("d",)),
    },
    "rasters": {
        "ids": ("U", ("r",)),
        "keys": ("<u8", ("r", 4)),
        "floats": ("<f8", ("r", 3)),  # origin easting, northing, cell size
        "shapes": ("<i8", ("r", 2)),
        "cells": ("|b1", ("c",)),
    },
}


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


def _newest(keys: np.ndarray) -> np.ndarray:
    """The later of mtime and ctime of each stat key, in signed ns."""
    return keys[:, 1:3].astype(np.int64).max(axis=1)


def _empty_pack(kind: str) -> dict[str, np.ndarray]:
    return {
        name: np.zeros([0 if isinstance(n, str) else n for n in shape],
                       dtype="<U1" if dtype == "U" else dtype)
        for name, (dtype, shape) in _PACK_FIELDS[kind].items()
    }


def _pack_dtype(text: object, want: str, size: int) -> np.dtype | None:
    """The dtype a header names for a field of dtype ``want``, if it is that dtype."""
    if want != "U":
        return np.dtype(want) if text == want else None
    if type(text) is not str or text[:2] != "<U":
        return None
    chars = text[2:]
    # an itemsize past the file's size would not fit; U0 would make every shape fit
    if not (chars.isascii() and chars.isdigit() and len(chars) < 19
            and 0 < int(chars) * 4 <= size):
        return None
    return np.dtype(text)


def _parse_pack(data: bytes, kind: str) -> dict[str, np.ndarray] | None:
    """Each field of a well-formed pack of ``kind`` as a view of ``data``, else None."""
    fields = _PACK_FIELDS[kind]
    line_end = data.find(b"\n")
    if line_end < 0:
        return None
    try:
        header = json.loads(data[:line_end].decode("ascii"))
    except (ValueError, RecursionError):  # not ASCII, not JSON, or nested past the stack
        return None
    if not (type(header) is dict and header.keys() == {"format", "kind", "fields"}
            and header["format"] == _PACK_FORMAT and header["kind"] == kind
            and type(header["fields"]) is list and len(header["fields"]) == len(fields)):
        return None
    arrays: dict[str, np.ndarray] = {}
    lengths: dict[str, int] = {}
    end = line_end + 1
    for entry, (name, (want_dtype, want_shape)) in zip(header["fields"], fields.items()):
        if not (type(entry) is list and len(entry) == 3 and entry[0] == name):
            return None
        dtype = _pack_dtype(entry[1], want_dtype, len(data))
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
        if end > len(data):  # also a shape of 10**30, before numpy overflows on it
            return None
        arrays[name] = np.frombuffer(data, dtype, count, start).reshape(shape)
    return arrays if end == len(data) else None


def _read_pack(path: str, kind: str) -> tuple[int, dict[str, np.ndarray]] | None:
    """(mtime in ns, read-only arrays by field) of a well-formed pack of ``kind``, else None."""
    try:
        with open(path, "rb") as f:
            mtime_ns = os.fstat(f.fileno()).st_mtime_ns
            data = f.read()
    except (OSError, MemoryError):
        return None
    arrays = _parse_pack(data, kind)
    return None if arrays is None else (mtime_ns, arrays)


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


def _pack_rows(pack_ids: np.ndarray, ids: list[str]) -> np.ndarray:
    """Each of ``ids``' row in ``pack_ids``, -1 where it has none."""
    if pack_ids.tolist() == ids:
        return np.arange(len(ids))
    index = {tx_id: i for i, tx_id in enumerate(pack_ids.tolist())}
    return np.array([index.get(tx_id, -1) for tx_id in ids], dtype=np.intp)


def _prefix(coverage_dir: str | Path) -> str:
    """What ``str(coverage_dir / name)`` starts with, so paths need no Path each."""
    return str(Path(coverage_dir) / "_")[:-1]


def _packed_rasters(pack_path: str, ids: list[str], keys: np.ndarray) -> dict[str, CoverageRaster]:
    """The pack's rasters whose ``.asc`` still has the packed key and is older than the pack."""
    found = _read_pack(pack_path, "rasters")
    if found is None:
        return {}
    mtime_ns, pack = found
    shapes, cells = pack["shapes"], pack["cells"]
    ends = np.cumsum(shapes.prod(axis=1))
    if not ends.size or (shapes < 1).any() or ends[-1] != cells.size:
        return {}
    rows = _pack_rows(pack["ids"], ids)
    fresh = (rows >= 0) & (keys == pack["keys"][rows]).all(axis=1) & (_newest(keys) < mtime_ns)
    rasters = {}
    try:
        for i in np.flatnonzero(fresh).tolist():
            row = rows[i]
            (e, n, cell), (nr, nc), end = pack["floats"][row].tolist(), shapes[row].tolist(), ends[row]
            raster = cells[end - nr * nc : end].reshape(nr, nc)
            rasters[ids[i]] = CoverageRaster(ids[i], NgPoint(e, n), cell, raster)
    except ValueError:  # values no load could have written
        return {}
    return rasters


def load_rasters(
    coverage_dir: str | Path, db: TransmitterDb, write_cache: bool = True
) -> dict[str, CoverageRaster]:
    """Read ``<id>.asc`` for every transmitter in the database.

    Fresh entries come from the directory's raster pack; with
    ``write_cache`` the pack is rewritten when any raster was read from its file.
    """
    prefix = _prefix(coverage_dir)
    pack_path = prefix + _PACK_NAMES["rasters"]
    paths = [prefix + tx_id + ".asc" for tx_id in db.ids]
    keys = _stat_keys(paths)
    rasters = _packed_rasters(pack_path, db.ids, keys)
    read = [i for i, tx_id in enumerate(db.ids) if tx_id not in rasters]
    for i in read:
        if not keys[i].any():
            raise FileNotFoundError(f"no coverage raster for {db.ids[i]!r}: {paths[i]}")
        rasters[db.ids[i]] = read_asc(read_text(paths[i]), db.ids[i], source=paths[i])
    rasters = {tx_id: rasters[tx_id] for tx_id in db.ids}
    if read and write_cache:
        entries = list(rasters.values())
        _write_pack(pack_path, "rasters", {
            "ids": np.array(db.ids, dtype=str),
            "keys": keys,
            "floats": np.array(
                [(r.origin.easting, r.origin.northing, r.cell_size_m) for r in entries],
                dtype=np.float64,
            ).reshape(-1, 3),
            "shapes": np.array([r.cells.shape for r in entries], dtype=np.int64).reshape(-1, 2),
            "cells": np.concatenate([r.cells.ravel() for r in entries]),
        })
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


def _station_disks(
    coverage_dir: Path, prefix: str, db: TransmitterDb, mtime_ns: int,
    pack: dict[str, np.ndarray], write_cache: bool,
) -> tuple[dict[str, np.ndarray], bool]:
    """Every station's disk fields for the next station pack, and whether any was read from a file.

    A disk is taken from ``pack`` while the stat keys of its ``.disk`` and
    ``.asc`` match and both are older than the pack; a disk derived from the
    raster also needs the station where it was derived.  Otherwise
    ``<id>.disk`` is read, unless its ``.asc`` is strictly newer (by mtime)
    or has changed since the pack took the same ``.disk``: then the disk is
    derived from the raster, and with ``write_cache`` written to ``<id>.disk``.
    """
    n = len(db)
    paths = [prefix + tx_id + ext for tx_id in db.ids for ext in (".disk", ".asc")]
    keys = _stat_keys(paths).reshape(n, 8)  # <id>.disk's key, then <id>.asc's
    rows = _pack_rows(pack["disk_ids"], db.ids)
    listed = rows >= 0
    packed_keys = np.zeros((n, 8), dtype=np.uint64)
    floats = np.zeros((n, 3))
    derived = np.zeros(n, dtype=bool)
    packed_keys[listed] = pack["disk_keys"][rows[listed]]
    floats[listed] = pack["disk_floats"][rows[listed]]
    derived[listed] = pack["disk_derived"][rows[listed]]
    fresh = (
        listed
        & (keys == packed_keys).all(axis=1)
        & (np.maximum(_newest(keys[:, :4]), _newest(keys[:, 4:])) < mtime_ns)
        & (~derived | ((floats[:, 0] == db.east) & (floats[:, 1] == db.north)))
    )
    if fresh.all() and np.array_equal(rows, np.arange(len(pack["disk_ids"]))):
        # the same stations in the same order: the pack's own views, no copy
        return {name: array for name, array in pack.items() if name.startswith("disk")}, False
    mtimes = keys[:, [1, 5]].astype(np.int64)
    for i in np.flatnonzero(~fresh).tolist():
        tx_id, disk_path, asc_path = db.ids[i], paths[2 * i], paths[2 * i + 1]
        has_disk, has_asc = keys[i, :4].any(), keys[i, 4:].any()
        raster_changed = has_asc and (
            mtimes[i, 1] > mtimes[i, 0]
            or (listed[i] and (packed_keys[i, :4] == keys[i, :4]).all()
                and (packed_keys[i, 4:] != keys[i, 4:]).any())
        )
        if has_disk and not raster_changed:
            disk = read_disk(read_text(disk_path), tx_id, source=disk_path)
        elif has_asc:
            raster = read_asc(read_text(asc_path), tx_id, source=asc_path)
            disk = enclosing_disk(raster, db.transmitters[i])
            if write_cache:
                try:
                    Path(disk_path).write_text(write_disk(disk))
                except OSError as exc:  # e.g. a read-only data dir: derived again next time
                    print(f"tvws: warning: could not write disk cache {disk_path}: {exc}",
                          file=sys.stderr)
        else:
            raise FileNotFoundError(
                f"neither disk cache nor raster found for {tx_id!r} in {coverage_dir}"
            )
        floats[i] = disk.center.easting, disk.center.northing, disk.radius_m
        derived[i] = not has_disk or raster_changed
    fields = {"disk_ids": np.array(db.ids, dtype=str), "disk_keys": keys,
              "disk_floats": floats, "disk_derived": derived}
    return fields, not fresh.all()


def _load_stations(
    coverage_dir: Path, db: TransmitterDb | None, txdb_path: str | None,
    with_disks: bool, write_cache: bool,
) -> tuple[TransmitterDb, DiskSet | None, list[str]]:
    """``db`` (or the database read from ``txdb_path``), its disks if asked, and its ERP notes."""
    prefix = _prefix(coverage_dir)
    pack_path = prefix + _PACK_NAMES["stations"]
    mtime_ns, pack = _read_pack(pack_path, "stations") or (0, _empty_pack("stations"))
    # The next pack holds only the parts checked here: one carried over
    # unchecked would be stamped anew, and could pass the racy-clean rule it failed.
    fields = _empty_pack("stations")
    notes: list[str] = []
    stale = False
    if db is None:
        key = _stat_keys([txdb_path])
        if (key.any() and pack["txdb_text"][0] == txdb_path
                and (pack["txdb_key"] == key[0]).all() and _newest(key)[0] < mtime_ns):
            db = TransmitterDb.from_columns(pack["tx_ids"].tolist(), pack["tx_floats"],
                                            pack["tx_channels"], str(pack["txdb_text"][1]))
            notes = pack["tx_notes"].tolist()
            fields.update((name, array) for name, array in pack.items() if name.startswith("tx"))
        else:
            db = load_txdb(read_text(txdb_path), source=txdb_path, notes=notes)
            fields.update(
                txdb_text=np.array([txdb_path, db.source]), txdb_key=key[0],
                tx_ids=np.array(db.ids, dtype=str), tx_floats=db.floats,
                tx_channels=db.channels, tx_notes=np.array(notes, dtype=str),
            )
            stale = True
    disks = None
    if with_disks:
        disk_fields, read = _station_disks(coverage_dir, prefix, db, mtime_ns, pack, write_cache)
        fields.update(disk_fields)
        stale = stale or read
        disks = DiskSet(db.ids, disk_fields["disk_floats"])
    if stale and write_cache:
        _write_pack(pack_path, "stations", fields)
    if disks is not None:
        moved = np.flatnonzero((disks.floats[:, 0] != db.east) | (disks.floats[:, 1] != db.north))
        if moved.size:
            i = int(moved[0])
            (e, n), (tx_e, tx_n) = disks.floats[i, :2].tolist(), (db.east[i], db.north[i])
            raise ParseError(
                f"disk centre ({e!r}, {n!r}) is not the position of {db.ids[i]!r} in the "
                f"transmitter database ({float(tx_e)!r}, {float(tx_n)!r}); "
                "delete the file or rerun `tvws disks`",
                source=str(coverage_dir / f"{db.ids[i]}.disk"),
            )
    return db, disks, notes


def load_stations(
    txdb_path: str | Path, coverage_dir: str | Path, disks: bool = True
) -> tuple[TransmitterDb, DiskSet | None]:
    """The transmitter database at ``txdb_path`` and, with ``disks``, every station's disk.

    Both come from the coverage directory's station pack while its keys
    hold, else from the CSV as :func:`~tvws.txdb.load_txdb` reads it and
    from the coverage files as :func:`load_disks` reads them; the pack is
    then rewritten with the parts this call checked.  ERP-range warnings are
    issued the same way whether the database came from the pack or the CSV.
    """
    db, disk_set, notes = _load_stations(Path(coverage_dir), None, str(txdb_path), disks, True)
    for note in notes:
        warnings.warn(note, stacklevel=2)
    return db, disk_set


def load_disks(
    coverage_dir: str | Path, db: TransmitterDb, write_cache: bool = True
) -> DiskSet:
    """Every transmitter's disk: ``<id>.disk``, or derived (and cached) from ``<id>.asc``.

    A ``.disk`` is read unless its ``.asc`` is strictly newer by mtime, or
    changed since the station pack took the same ``.disk``; fresh disks come
    from the pack.  With ``write_cache`` derived disks are written to ``<id>.disk`` and the
    pack is rewritten, without a txdb part, when any disk was read from a file.  A disk whose
    centre is not its transmitter's position is a ParseError naming the file.
    """
    return _load_stations(Path(coverage_dir), db, None, True, write_cache)[1]
