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

import io
import math
import os
import random
import stat
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tvws.errors import ParseError
from tvws.geo import EASTING_MAX, NORTHING_MAX, NgPoint
from tvws.keepout import PropagationParams
from tvws.txdb import Transmitter, TransmitterDb

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
# its numpy temporaries stay a few hundred kB whatever the grid's size
_FORMAT_BLOCK = 1 << 12


def _format_rows(rows: np.ndarray) -> str:
    """``str(int(v))`` of each cell, space-separated, a newline after each row.

    Digits are written right-aligned into a fixed-width byte array whose
    zero padding is then dropped.
    """
    if rows.dtype.kind in "bu":
        negative = None
        mag = rows.ravel().astype(np.uint64)
    else:
        flat = rows.ravel().astype(np.int64)
        negative = flat < 0
        # -(-2**63) wraps to itself, which as uint64 is 2**63
        mag = np.where(negative, -flat, flat).astype(np.uint64)
    ndigits = len(str(int(mag.max())))
    width = ndigits + (negative is not None) + 1  # sign, digits, separator
    out = np.zeros((mag.size, width), dtype=np.uint8)
    length = np.ones(mag.size, dtype=np.intp)  # digits written per cell
    out[:, width - 2] = 48 + mag % 10
    for k in range(1, ndigits):
        mag //= 10
        more = mag > 0
        out[:, width - 2 - k] = np.where(more, 48 + mag % 10, 0)
        length += more
    if negative is not None and negative.any():
        cells = np.flatnonzero(negative)
        out[cells, width - 2 - length[cells]] = ord("-")
    out[:, -1] = ord(" ")
    out.reshape(rows.shape[0], rows.shape[1], width)[:, -1, -1] = ord("\n")
    out = out.ravel()
    return out[out != 0].tobytes().decode("ascii")


def write_asc_grid(
    origin: NgPoint, cell_size_m: float, values: np.ndarray, nodata: int = ASC_NODATA
) -> str:
    """Serialize an integer grid (row 0 = south) as ESRI-ASCII-style text."""
    values = np.asarray(values)
    if values.dtype.kind not in "biu":
        raise TypeError(f"write_asc_grid takes an integer grid, got {values.dtype}")
    nrows, ncols = values.shape
    out = io.StringIO()
    out.write(f"ncols        {ncols}\n")
    out.write(f"nrows        {nrows}\n")
    out.write(f"xllcorner    {origin.easting!r}\n")
    out.write(f"yllcorner    {origin.northing!r}\n")
    out.write(f"cellsize     {cell_size_m!r}\n")
    out.write(f"NODATA_value {nodata}\n")
    if values.size == 0:
        out.write("\n" * nrows)
        return out.getvalue()
    step = max(1, _FORMAT_BLOCK // ncols)
    for top in range(nrows, 0, -step):  # northernmost row first
        out.write(_format_rows(values[max(0, top - step) : top][::-1]))
    return out.getvalue()


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
    for i, line in enumerate(text.splitlines(keepends=True)):
        parts = line.split()
        if len(parts) == 2 and parts[0].lower() in expected:
            try:
                header[parts[0].lower()] = (float(parts[1]), i + 1)
            except ValueError:
                raise ParseError(
                    f"bad header value {parts[1]!r}", source=source, line=i + 1
                ) from None
            body_start += len(line)
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


def _read_text(path: str) -> str:
    try:
        with open(path) as f:
            return f.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"not text: {exc.reason} at byte {exc.start}", source=path) from None


# ---------------------------------------------------------------------------
# Coverage packs.  load_disks and load_rasters keep the entries they read in
# one binary file per coverage directory and model kind, each beside its
# source file's stat key (size, mtime, ctime, inode), so a later call reads
# one file instead of one per transmitter.  An entry is taken from the pack
# only while its key matches and its source is strictly older than the pack:
# a source changed within the timestamp tick the pack was written in can
# still show its old key (git's racy-clean rule).  Any other entry is read
# from its file, after which the pack is rewritten.  A pack that is missing,
# unreadable or not in this format is ignored.

_PACK_NAMES = {"disks": ".tvws-disks.pack", "rasters": ".tvws-rasters.pack"}
_PACK_FORMAT = "tvws coverage pack 1"
_U64 = (1 << 64) - 1  # keys are stored as uint64; times wrap modulo 2**64 ns


def _stat_key(path: str) -> tuple[tuple[int, int, int, int], int] | None:
    """(stat key, newest of mtime and ctime in ns) of a regular file, else None."""
    try:
        st = os.stat(path)
    except OSError:
        return None
    if not stat.S_ISREG(st.st_mode):
        return None
    key = (st.st_size, st.st_mtime_ns & _U64, st.st_ctime_ns & _U64, st.st_ino)
    return key, max(st.st_mtime_ns, st.st_ctime_ns)


def _pack_columns(kind: str, entries: list) -> list[np.ndarray]:
    if kind == "disks":
        rows = [(d.center.easting, d.center.northing, d.radius_m) for d in entries]
        return [np.array(rows, dtype=np.float64).reshape(-1, 3)]
    rows = [(r.origin.easting, r.origin.northing, r.cell_size_m) for r in entries]
    return [
        np.array(rows, dtype=np.float64).reshape(-1, 3),
        np.array([r.cells.shape for r in entries], dtype=np.int64).reshape(-1, 2),
        np.concatenate([r.cells.ravel() for r in entries]),
    ]


def _unpack_columns(
    kind: str, ids: list[str], columns: list[np.ndarray], rows: list[int]
) -> list:
    """The entries ``_pack_columns`` stored at ``rows``; ValueError if the columns do not fit."""
    n = len(ids)
    if kind == "disks":
        (floats,) = columns
        if floats.dtype != np.float64 or floats.shape != (n, 3):
            raise ValueError("bad disk columns")
        return [
            CoverageDisk(ids[i], NgPoint(e, north), r)
            for i, (e, north, r) in zip(rows, floats[rows].tolist())
        ]
    floats, shapes, cells = columns
    if (
        floats.dtype != np.float64 or floats.shape != (n, 3)
        or shapes.dtype != np.int64 or shapes.shape != (n, 2) or (shapes < 1).any()
        or cells.dtype != bool or cells.ndim != 1
    ):
        raise ValueError("bad raster columns")
    ends = np.cumsum(shapes.prod(axis=1))
    if (ends[-1] if n else 0) != cells.size:
        raise ValueError("bad raster cell count")
    return [
        CoverageRaster(
            ids[i], NgPoint(e, north), cell, cells[end - nr * nc : end].reshape(nr, nc)
        )
        for i, (e, north, cell), (nr, nc), end in zip(
            rows, floats[rows].tolist(), shapes[rows].tolist(), ends[rows].tolist()
        )
    ]


def _fresh_entries(path: str, kind: str, stat_keys: dict[str, tuple | None]) -> dict:
    """The pack's entries whose source, by ``stat_keys``, is unchanged and older than it.

    ``stat_keys`` maps each wanted id to ``_stat_key`` of its source.  Empty
    if there is no usable pack.
    """
    try:
        with open(path, "rb") as f:
            mtime_ns = os.fstat(f.fileno()).st_mtime_ns
            arrays = [np.lib.format.read_array(f, allow_pickle=False)]
            if arrays[0].shape != () or arrays[0].item() != f"{_PACK_FORMAT} {kind}":
                return {}
            for _ in range(3 if kind == "disks" else 5):  # ids, keys, columns
                arrays.append(np.lib.format.read_array(f, allow_pickle=False))
            if f.read(1):
                return {}
        _, ids, keys, *columns = arrays
        if ids.dtype.kind != "U" or ids.ndim != 1:
            return {}
        if keys.dtype != np.uint64 or keys.shape != (ids.size, 4):
            return {}
        ids = ids.tolist()
        fresh = []
        for i, (tx_id, key) in enumerate(zip(ids, keys.tolist())):
            now = stat_keys.get(tx_id)
            if now is not None and now[0] == tuple(key) and now[1] < mtime_ns:
                fresh.append(i)
        entries = _unpack_columns(kind, ids, columns, fresh)
    except (OSError, ValueError, EOFError, MemoryError):
        return {}
    return {entry.transmitter_id: entry for entry in entries}


def _write_pack(path: str, kind: str, packed: dict[str, tuple]) -> None:
    """Write ``{id: (stat key, entry)}`` atomically: a temp file, then ``os.replace``."""
    arrays = [
        np.array(f"{_PACK_FORMAT} {kind}"),
        np.array(list(packed), dtype=str),
        np.array([key for key, _ in packed.values()], dtype=np.uint64).reshape(-1, 4),
        *_pack_columns(kind, [entry for _, entry in packed.values()]),
    ]
    tmp = f"{path}.{os.getpid()}-{os.urandom(4).hex()}.tmp"
    try:
        with open(tmp, "xb") as f:
            for array in arrays:
                np.save(f, array, allow_pickle=False)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _load_packed(
    coverage_dir: Path, db: TransmitterDb, kind: str, read_file, write_cache: bool
) -> dict:
    """Every transmitter's entry: from the pack while fresh, else ``read_file``.

    ``read_file(tx, path, is_file)`` gets the source's path and whether it
    was a regular file, and returns the entry.  An entry read from a regular
    file goes into the pack with that file's stat key, taken before the read.
    """
    # what str(coverage_dir / name) gives, without building a Path per file
    prefix = str(coverage_dir / "_")[:-1]
    suffix = ".disk" if kind == "disks" else ".asc"
    pack_path = prefix + _PACK_NAMES[kind]
    paths = {tx.id: prefix + tx.id + suffix for tx in db}
    stat_keys = {tx_id: _stat_key(path) for tx_id, path in paths.items()}
    fresh = _fresh_entries(pack_path, kind, stat_keys)
    entries: dict = {}
    repack: dict[str, tuple] = {}  # the next pack: {id: (stat key, entry)}
    stale = False
    for tx in db:
        stat_key = stat_keys[tx.id]
        if tx.id in fresh:
            entries[tx.id] = fresh[tx.id]
            repack[tx.id] = (stat_key[0], fresh[tx.id])
            continue
        entries[tx.id] = read_file(tx, paths[tx.id], stat_key is not None)
        if stat_key is not None:
            repack[tx.id] = (stat_key[0], entries[tx.id])
            stale = True
    if stale and write_cache:
        try:
            _write_pack(pack_path, kind, repack)
        except OSError:
            pass  # read-only data dir; the files are read again next time
    return entries


def load_rasters(
    coverage_dir: str | Path, db: TransmitterDb, write_cache: bool = True
) -> dict[str, CoverageRaster]:
    """Read ``<id>.asc`` for every transmitter in the database.

    Fresh entries come from the directory's raster pack; with
    ``write_cache`` the pack is rewritten when any raster was read from its file.
    """

    def read_file(tx: Transmitter, path: str, is_file: bool) -> CoverageRaster:
        if not is_file:
            raise FileNotFoundError(f"no coverage raster for {tx.id!r}: {path}")
        return read_asc(_read_text(path), tx.id, source=path)

    return _load_packed(Path(coverage_dir), db, "rasters", read_file, write_cache)


def load_disks(
    coverage_dir: str | Path, db: TransmitterDb, write_cache: bool = True
) -> dict[str, CoverageDisk]:
    """Read ``<id>.disk`` caches, deriving (and caching) from rasters as needed.

    Fresh entries come from the directory's disk pack.  With ``write_cache``
    derived disks are written to ``<id>.disk`` and the pack is rewritten when
    any disk was read from its file.  A disk whose centre is not its
    transmitter's position is a ParseError naming the file.
    """
    coverage_dir = Path(coverage_dir)

    def read_file(tx: Transmitter, path: str, is_file: bool) -> CoverageDisk:
        if is_file:
            return read_disk(_read_text(path), tx.id, source=path)
        asc_path = coverage_dir / f"{tx.id}.asc"
        if not asc_path.is_file():
            raise FileNotFoundError(
                f"neither disk cache nor raster found for {tx.id!r} in {coverage_dir}"
            )
        raster = read_asc(_read_text(str(asc_path)), tx.id, source=str(asc_path))
        disk = enclosing_disk(raster, tx)
        if write_cache:
            try:
                Path(path).write_text(write_disk(disk))
            except OSError:
                pass  # read-only data dir; recomputing next time is fine
        return disk

    disks = _load_packed(coverage_dir, db, "disks", read_file, write_cache)
    for tx in db:
        center = disks[tx.id].center
        if center != tx.position:
            raise ParseError(
                f"disk centre ({center.easting!r}, {center.northing!r}) is not the "
                f"position of {tx.id!r} in the transmitter database "
                f"({tx.position.easting!r}, {tx.position.northing!r}); "
                "delete the file or rerun `tvws disks`",
                source=str(coverage_dir / f"{tx.id}.disk"),
            )
    return disks
