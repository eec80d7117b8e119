"""Output checks, run outside the timed region.

The fixture is read with plain Python (transmitters CSV, ``.disk`` lines,
``.asc`` text), never through ``tvws``, and fed to the brute-force
``tests/oracles.py``.  Each ``check_*`` function returns a list of
mismatch messages; an empty list means the output is correct.
"""

from __future__ import annotations

import math
import random
from pathlib import Path
from types import SimpleNamespace

from harness import envelope, use_source_tree

use_source_tree()
import oracles  # noqa: E402  -- tests/oracles.py

ALPHA, BETA = 3.0, 1.0  # the CLI defaults every benchmark request runs with
INTERLEAVED = frozenset(range(21, 31)) | frozenset(range(41, 61))
PLAN = SimpleNamespace(interleaved=INTERLEAVED)
CHANNEL_MHZ = 8


class Fixture:
    """The transmitters, disks and (lazily) rasters of a fixture directory."""

    def __init__(self, data_dir: Path):
        self.data_dir = Path(data_dir)
        txs = []
        for line in (self.data_dir / "transmitters.csv").read_text().splitlines():
            if not line or line.startswith("#") or line.startswith("id,"):
                continue
            tx_id, e, n, erp, _height, channels = line.split(",")
            txs.append(SimpleNamespace(
                id=tx_id,
                position=SimpleNamespace(easting=float(e), northing=float(n)),
                erp_watts=float(erp),
                channels=frozenset(int(c) for c in channels.split(";")),
            ))
        self.db = SimpleNamespace(transmitters=txs)
        self.disks = {}
        for tx in txs:
            fields = (self.data_dir / "coverage" / f"{tx.id}.disk").read_text().split()
            self.disks[tx.id] = SimpleNamespace(radius_m=float(fields[2]))
        self._rasters = None

    def occupied(self, e: float, n: float, power_w: float) -> set[int]:
        loc = SimpleNamespace(easting=e, northing=n)
        return oracles.occupied_by_enumeration(
            self.db, self.disks, PLAN, loc, power_w, ALPHA, BETA
        )

    def rho(self, e: float, n: float, power_w: float) -> int:
        loc = SimpleNamespace(easting=e, northing=n)
        return oracles.rho_by_enumeration(self.db, self.disks, PLAN, loc, power_w, ALPHA, BETA)

    def raster_occupied(self, e: float, n: float) -> set[int]:
        """Occupied interleaved channels by direct cell lookup in the .asc text."""
        if self._rasters is None:
            self._rasters = {tx.id: _read_asc_plain(
                self.data_dir / "coverage" / f"{tx.id}.asc") for tx in self.db.transmitters}
        occupied = set()
        for tx in self.db.transmitters:
            header, rows = self._rasters[tx.id]
            cell = header["cellsize"]
            # nearest cell centre; a point on a cell edge snaps to the lower index
            col = math.ceil((e - header["xllcorner"]) / cell) - 1
            row = math.ceil((n - header["yllcorner"]) / cell) - 1
            nrows, ncols = int(header["nrows"]), int(header["ncols"])
            if 0 <= row < nrows and 0 <= col < ncols:
                if rows[nrows - 1 - row].split()[col] == "1":  # file is north-first
                    occupied |= tx.channels & INTERLEAVED
        return occupied


def _read_asc_plain(path: Path) -> tuple[dict[str, float], list[str]]:
    lines = path.read_text().splitlines()
    header = {}
    for line in lines[:6]:
        key, value = line.split()
        header[key.lower()] = float(value)
    return header, lines[6:]


def _filtered(vacant: set[int], occupied: set[int]) -> set[int]:
    return {c for c in vacant if c - 1 not in occupied and c + 1 not in occupied}


def _channels(text: str) -> set[int]:
    text = text.strip()
    return set() if text == "none" else {int(c) for c in text.split()}


def _line(stdout: str, prefix: str) -> str:
    for line in stdout.splitlines():
        if line.startswith(prefix):
            return line
    raise ValueError(f"no line starting {prefix!r}")


def check_query(fixture: Fixture, req: dict, stdout: str) -> list[str]:
    """A disk or raster ``query``: location echo, rho, vacant and N+-1 sets."""
    e, n = req["loc"]
    if req["kind"] == "raster":
        occupied = fixture.raster_occupied(e, n)
        rho = len(INTERLEAVED - occupied)
    else:
        occupied = fixture.occupied(e, n, req["power_w"])
        rho = fixture.rho(e, n, req["power_w"])
    vacant = set(INTERLEAVED - occupied)
    try:
        echo = _line(stdout, "location: ").rsplit(" -> ", 1)[1]
        got_e, got_n = (float(v) for v in echo.split(","))
        head, chans = _line(stdout, "vacant (rho=").split(":", 1)
        got_rho = int(head[len("vacant (rho="):].split(",")[0])
        got_vacant = _channels(chans)
        got_filtered = _channels(_line(stdout, "adjacent-filtered (").split(":", 1)[1])
    except ValueError as exc:
        return [f"unparseable query output: {exc}"]
    errors = []
    # the echo is printed to 6 significant digits
    if not (math.isclose(got_e, e, rel_tol=1e-5) and math.isclose(got_n, n, rel_tol=1e-5)):
        errors.append(f"location parsed as {got_e},{got_n}, expected {e},{n}")
    if got_rho != rho:
        errors.append(f"rho {got_rho}, oracle {rho}")
    if got_vacant != vacant:
        errors.append(f"vacant set differs from oracle at {e},{n}")
    if got_filtered != _filtered(vacant, occupied):
        errors.append(f"adjacent-filtered set differs from oracle at {e},{n}")
    return errors


def check_sweep(fixture: Fixture, req: dict, stdout: str, rng: random.Random,
                sample: int = 25) -> list[str]:
    """A ``sweep``: the power ladder, and channel counts at sampled powers."""
    lo, hi, count = req["sweep"]
    try:
        rows = [line.split(",") for line in stdout.splitlines()[2:]]
        points = [(float(p), int(ch), int(mhz)) for p, ch, mhz in rows]
    except ValueError as exc:
        return [f"unparseable sweep output: {exc}"]
    if len(points) != count:
        return [f"sweep has {len(points)} rows, expected {count}"]
    errors = []
    for i, (power, _ch, _mhz) in enumerate(points):
        expected = lo * (hi / lo) ** (i / (count - 1))
        if not math.isclose(power, expected, rel_tol=1e-12):
            errors.append(f"sweep power {i} is {power!r}, expected {expected!r}")
            break
    e, n = req["loc"]
    for power, channels, mhz in rng.sample(points, min(sample, len(points))):
        rho = fixture.rho(e, n, power)
        if channels != rho or mhz != CHANNEL_MHZ * rho:
            errors.append(f"sweep at {power!r} W: {channels} channels, oracle {rho}")
    return errors


def check_batch(fixture: Fixture, points: list[list[float]], power_w: float,
                stdout: str, rng: random.Random, sample: int = 60) -> list[str]:
    """A ``batch`` CSV: one row per location in order, sampled rows vs the oracle."""
    lines = stdout.splitlines()
    if len(lines) != len(points) + 2:
        return [f"batch printed {len(lines) - 2} rows for {len(points)} locations"]
    errors = []
    for i in sorted(rng.sample(range(len(points)), min(sample, len(points)))):
        label, rho, rho_f, total, filt_mhz, max_contig, vacant = lines[i + 2].split(",")
        e, n = points[i]
        occupied = fixture.occupied(e, n, power_w)
        want_vacant = INTERLEAVED - occupied
        want_rho = fixture.rho(e, n, power_w)
        want_filtered = _filtered(want_vacant, occupied)
        got_vacant = {int(c) for c in vacant.split(";")} if vacant else set()
        longest, run, prev = 0, 0, None
        for ch in sorted(want_vacant):
            run = run + 1 if prev is not None and ch == prev + 1 else 1
            longest, prev = max(longest, run), ch
        if label != f"p{i:05d}":
            errors.append(f"row {i} has label {label!r}")
        if (int(rho), int(total)) != (want_rho, CHANNEL_MHZ * want_rho):
            errors.append(f"row {i}: rho {rho}, oracle {want_rho}")
        if got_vacant != want_vacant:
            errors.append(f"row {i}: vacant set differs from oracle")
        if (int(rho_f), int(filt_mhz)) != (len(want_filtered), CHANNEL_MHZ * len(want_filtered)):
            errors.append(f"row {i}: filtered count {rho_f}, oracle {len(want_filtered)}")
        if int(max_contig) != CHANNEL_MHZ * longest:
            errors.append(f"row {i}: max contiguous {max_contig} MHz, oracle {CHANNEL_MHZ * longest}")
    return errors


def check_grid(fixture: Fixture, asc_path: Path, shape: tuple[int, int], cell_m: float,
               power_w: float, rng: random.Random, sample: int = 60) -> list[str]:
    """A ``grid`` ASC: header, then rho at sampled cell centres vs the oracle."""
    if not asc_path.is_file():
        return [f"grid wrote no {asc_path.name}"]
    header, rows = _read_asc_plain(asc_path)
    nrows, ncols = shape
    box = envelope()
    want = {"ncols": ncols, "nrows": nrows, "xllcorner": box.min_e, "yllcorner": box.min_n,
            "cellsize": cell_m}
    if any(header.get(k) != v for k, v in want.items()) or len(rows) != nrows:
        return [f"grid header {header} with {len(rows)} rows, expected {want}"]
    errors = []
    for _ in range(sample):
        row, col = rng.randrange(nrows), rng.randrange(ncols)
        got = int(rows[nrows - 1 - row].split()[col])
        e, n = box.min_e + (col + 0.5) * cell_m, box.min_n + (row + 0.5) * cell_m
        rho = fixture.rho(e, n, power_w)
        if got != rho:
            errors.append(f"cell ({row},{col}): rho {got}, oracle {rho}")
    return errors
