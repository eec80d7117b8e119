"""Command-line interface.

Subcommands:

* ``query``  -- vacant channels at one location.
* ``batch``  -- a CSV of results for a file of labelled locations.
* ``sweep``  -- vacant-channel count versus transmit power at one location.
* ``grid``   -- vacant-channel counts over a region, written as an ASC grid.
* ``synth``  -- generate a synthetic transmitter database plus coverage.
* ``disks``  -- precompute and cache the enclosing disk for every raster.

Exit codes: 0 success, 2 usage or location parse error, 3 missing or
invalid data files, 4 internal invariant violation.

All physical quantities take explicit units where ambiguity could hurt:
powers accept ``mW``/``W``/``kW`` suffixes (bare numbers are watts),
distances are metres.  ``TVWS_DATA_DIR`` supplies default locations for
``transmitters.csv`` and the ``coverage/`` directory.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from collections.abc import Callable, Mapping
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from tvws import coverage as cov
from tvws import report as rep
from tvws.availability import (
    _BLOCK_POINTS,
    AvailabilityResult,
    adjacent_filter,
    availability,
    availability_grid,
    availability_lowpower,
    batch_kernel,
    channel_mask,
    power_sweep,
    vacancy,
)
from tvws.channel_plan import ChannelPlan, default_plan, load_plan, plan_hash
from tvws.errors import ParseError, read_text
from tvws.geo import (EASTING_MAX, NORTHING_MAX, OSGB_ENVELOPE, BoundingBox, NgPoint,
                      parse_coords, parse_location)
from tvws.keepout import DEFAULT_ALPHA, DEFAULT_BETA_TH, PropagationParams, QueryParams
from tvws.txdb import TransmitterDb, generate_synthetic, load_txdb, parse_watts, serialize

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4


def _watts(text: str) -> float:
    try:
        value = parse_watts(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"power must be finite and >= 0, got {text!r}")
    return value or 0.0  # -0 is echoed as 0.0


def _positive(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad number {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {text!r}")
    return value


def _decibels(text: str) -> float:
    """A power ratio in dB, returned linear (finite and positive)."""
    try:
        value = 10.0 ** (float(text) / 10.0)
    except (ValueError, OverflowError):
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"{text!r} dB is not a finite positive ratio")
    return value


def _region(text: str) -> BoundingBox:
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            f"expected 'min_e,min_n,max_e,max_n', got {text!r}"
        )
    try:
        vals = [float(p) for p in parts]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad region numbers {text!r}") from None
    # also refuses nan and inf
    min_e, min_n, max_e, max_n = vals
    if not (0 <= min_e and 0 <= min_n and max_e <= EASTING_MAX and max_n <= NORTHING_MAX):
        raise argparse.ArgumentTypeError(
            f"region {text!r} must lie inside the OSGB envelope "
            f"0,0,{EASTING_MAX:.0f},{NORTHING_MAX:.0f}"
        )
    try:
        box = BoundingBox(*vals)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if box.is_empty():
        raise argparse.ArgumentTypeError(f"region {text!r} is empty")
    return box


def _powers_list(text: str) -> list[float]:
    """Comma list of powers, or lo:hi:n for n geometrically spaced points."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError(f"expected lo:hi:n, got {text!r}")
        lo, hi = _watts(parts[0]), _watts(parts[1])
        try:
            n = int(parts[2])
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad point count {parts[2]!r}") from None
        if lo <= 0 or hi <= lo or n < 2:
            raise argparse.ArgumentTypeError(
                "range needs 0 < lo < hi and at least 2 points"
            )
        return [lo * (hi / lo) ** (i / (n - 1)) for i in range(n)]
    powers = [_watts(tok) for tok in text.split(",") if tok.strip()]
    if not powers:
        raise argparse.ArgumentTypeError("empty power list")
    return powers


@functools.cache  # built once per process: main() may be called many times
def _build_parser() -> argparse.ArgumentParser:
    # Each group of shared flags is a parent parser, and a subcommand takes
    # only the groups it reads, so argparse refuses every flag it would ignore.
    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("--txdb", metavar="FILE", help="transmitter database CSV")
    data.add_argument("--coverage", metavar="DIR", help="directory of <id>.asc rasters")

    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--plan", metavar="FILE", help="channel plan file (default: built-in)")
    model.add_argument("--alpha", type=_positive, default=DEFAULT_ALPHA,
                       help=f"pathloss exponent (default {DEFAULT_ALPHA})")
    beta = model.add_mutually_exclusive_group()
    beta.add_argument("--beta", type=_positive,
                      help=f"TV protection ratio, linear (default {DEFAULT_BETA_TH})")
    beta.add_argument("--beta-db", dest="beta", type=_decibels, metavar="DB",
                      help="TV protection ratio in dB (converted to linear)")
    model.set_defaults(beta=DEFAULT_BETA_TH)

    power = argparse.ArgumentParser(add_help=False)
    power.add_argument("--power", type=_watts, default=0.0, metavar="P",
                       help="transmit power; accepts mW/W/kW suffixes (default 0)")

    either = argparse.ArgumentParser(add_help=False)
    either.add_argument("--mode", choices=("raster", "disk"), default="disk",
                        help="coverage model; raster is exact but power must be 0")
    either.add_argument("--strict-excluded", action="store_true",
                        help="treat excluded channels as blocking neighbours in the filter")

    disk = argparse.ArgumentParser(add_help=False)
    disk.add_argument("--mode", choices=("disk",), default="disk",
                      help="coverage model; this command runs only the disk model")

    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", metavar="DIR", help="write CSV/JSON/SVG artifacts here")

    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0, help="seed for synthesis (default 0)")

    parser = argparse.ArgumentParser(
        prog="tvws", description="TV white space availability engine (UK UHF band)",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # without abbreviations, sweep --power is refused, not read as --powers
    add = functools.partial(sub.add_parser, allow_abbrev=False)

    p_query = add("query", parents=[data, model, power, either, out],
                  help="vacant channels at one location")
    p_query.add_argument("--loc", required=True,
                         help='grid reference ("SP 513 061") or easting,northing')
    p_query.add_argument("--adjacent-filter", action="store_true",
                         help="report the N+-1 filtered set as the available set")

    p_batch = add("batch", parents=[data, model, power, either, out],
                  help="availability for a file of label,location lines")
    p_batch.add_argument("--locations", required=True, metavar="FILE")
    p_batch.add_argument("--workers", type=int, default=1, metavar="N",
                         help=f"at most N threads, one per {_BLOCK_POINTS:,} locations")

    p_sweep = add("sweep", parents=[data, model, disk, out],
                  help="vacant channels versus transmit power")
    p_sweep.add_argument("--loc", required=True)
    p_sweep.add_argument("--powers", required=True, type=_powers_list,
                         help="comma list (0.01,0.1,2) or lo:hi:n geometric range")

    p_grid = add("grid", parents=[data, model, power, disk, out],
                 help="vacant-channel counts over a region")
    p_grid.add_argument("--region", required=True, type=_region,
                        metavar="minE,minN,maxE,maxN")
    p_grid.add_argument("--cell", type=_positive, default=10_000.0,
                        help="grid cell size in metres (default %(default)s)")

    p_synth = add("synth", parents=[model, disk, out, seed],
                  help="generate a synthetic transmitter database + coverage")
    p_synth.add_argument("--preset", choices=("uk81",),
                         help="uk81: 81 transmitters over the full OSGB envelope")
    p_synth.add_argument("--n", type=int, help="transmitter count")
    p_synth.add_argument("--region", type=_region, metavar="minE,minN,maxE,maxN")
    p_synth.add_argument("--cell", type=_positive, default=1000.0,
                         help="raster cell size in metres (default %(default)s)")
    p_synth.add_argument("--irregularity", type=float, default=0.3,
                         help="coverage contour raggedness, 0..1 (default %(default)s)")

    add("disks", parents=[data, disk], help="derive and cache enclosing disks for all rasters")
    return parser


def _fail(message: str, code: int) -> int:
    print(f"tvws: error: {message}", file=sys.stderr)
    return code


def _data_paths(args: argparse.Namespace) -> tuple[Path, Path]:
    """``--txdb`` and ``--coverage``, each defaulting to its place under ``TVWS_DATA_DIR``."""
    data_root = os.environ.get("TVWS_DATA_DIR")
    txdb_path = Path(args.txdb) if args.txdb else None
    coverage_dir = Path(args.coverage) if args.coverage else None
    if txdb_path is None and data_root:
        txdb_path = Path(data_root) / "transmitters.csv"
    if coverage_dir is None and data_root:
        coverage_dir = Path(data_root) / "coverage"
    if txdb_path is None:
        raise FileNotFoundError("no transmitter database: pass --txdb or set TVWS_DATA_DIR")
    if coverage_dir is None:
        raise FileNotFoundError("no coverage directory: pass --coverage or set TVWS_DATA_DIR")
    if not txdb_path.is_file():
        raise FileNotFoundError(f"transmitter database not found: {txdb_path}")
    return txdb_path, coverage_dir


def _plan(args: argparse.Namespace) -> ChannelPlan:
    """The ``--plan`` file's channel plan, or the built-in one."""
    return load_plan(read_text(args.plan), source=args.plan) if args.plan else default_plan()


def _load_data(args: argparse.Namespace) -> tuple[TransmitterDb, Mapping]:
    """The txdb and its coverage model for ``--mode``, through the packs."""
    txdb_path, coverage_dir = _data_paths(args)
    db, disks = cov.load_stations(txdb_path, coverage_dir, disks=args.mode == "disk")
    return db, cov.load_rasters(coverage_dir, db) if args.mode == "raster" else disks


def _query_result(
    args: argparse.Namespace, plan: ChannelPlan, db: TransmitterDb, model: Mapping, loc: NgPoint
) -> AvailabilityResult:
    """The location's result under ``--mode``, with its blockers and N+-1 filtered set."""
    if args.mode == "raster":
        result = availability_lowpower(db, model, plan, loc)
    else:
        prop = PropagationParams(args.alpha, args.beta)
        result = availability(db, model, plan, QueryParams(loc, args.power, prop))
    adjacent_filter(result, plan.excluded if args.strict_excluded else ())
    return result


def _masks_of_part(
    args: argparse.Namespace, plan: ChannelPlan, db: TransmitterDb, model: Mapping
) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """Occupied-channel masks of the locations (``east[k]``, ``north[k]``) under ``--mode``."""
    if args.mode == "raster":
        def raster_masks(east: np.ndarray, north: np.ndarray) -> np.ndarray:
            results = (availability_lowpower(db, model, plan, NgPoint(e, n))
                       for e, n in zip(east.tolist(), north.tolist()))
            return np.array([channel_mask(r.occupied) for r in results], dtype=np.uint64)

        return raster_masks
    return batch_kernel(db, model, plan, args.power, PropagationParams(args.alpha, args.beta))


def _write_artifacts(
    out: str | None,
    plan: ChannelPlan,
    stem: str,
    rows: rep.ChannelRows | list[rep.LocationReport],
    csv_text: str | None = None,
) -> None:
    """Write the CSV/JSON(/SVG) artifacts; ``csv_text`` is ``emit_csv(rows)`` if known."""
    if not out:
        return
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = rep.ChannelRows.of(rows)
    if csv_text is None:
        csv_text = rep.emit_csv(rows)
    (out_dir / f"{stem}.csv").write_text(csv_text)
    (out_dir / f"{stem}.json").write_text(rep.emit_json(rows))
    if len(rows.labels) == 1:
        (out_dir / f"{stem}.svg").write_text(rep.emit_channel_chart(rows, plan))


def _channels(channels: frozenset[int]) -> str:
    return " ".join(str(c) for c in sorted(channels)) or "none"


def _format_runs(runs: list[tuple[int, int]]) -> str:
    if not runs:
        return "none"
    return ", ".join(f"{lo}-{hi}" if hi > lo else str(lo) for lo, hi in runs)


def cmd_query(args: argparse.Namespace) -> int:
    plan = _plan(args)
    try:
        loc = parse_location(args.loc)
    except ParseError as exc:
        return _fail(f"bad location: {exc}", EXIT_USAGE)

    db, model = _load_data(args)
    result = _query_result(args, plan, db, model, loc)
    report = rep.build_report(args.loc, result, plan, args.alpha, args.beta)

    filtered = result.filtered_vacant or frozenset()
    e, n = (repr(v).removesuffix(".0") for v in (loc.easting, loc.northing))  # exact
    print(f"location: {args.loc} -> {e},{n}")
    print(
        f"mode: {args.mode}   power: {args.power!r} W   "
        f"alpha: {args.alpha!r}   beta_th: {args.beta!r}   plan: {report.plan_digest}"
    )
    print(f"vacant (rho={result.rho}, {8 * result.rho} MHz): {_channels(result.vacant)}")
    print(f"occupied: {_channels(result.occupied)}")
    print(
        f"contiguous runs: {_format_runs(report.runs)}   "
        f"max contiguous: {report.max_contiguous_mhz} MHz"
    )
    print(f"adjacent-filtered ({len(filtered)}, {8 * len(filtered)} MHz): {_channels(filtered)}")
    if args.adjacent_filter:
        print(f"available for use: {_channels(filtered)}")
    _write_artifacts(args.out, plan, "query", [report])
    return EXIT_OK


def _read_locations_file(path: str) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The file's labels, and their locations' eastings and northings as arrays."""
    labels: list[str] = []
    coords: list[tuple[float, float]] = []
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(read_text(path).split("\n"), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        label, comma, loc_text = stripped.partition(",")
        if not comma:
            raise ParseError("expected 'label,location'", source=path, line=lineno)
        label = label.strip()
        if not label:
            raise ParseError("empty label", source=path, line=lineno)
        if seen.setdefault(label, lineno) != lineno:
            raise ParseError(f"duplicate label {label!r} (first on line {seen[label]})",
                             source=path, line=lineno)
        labels.append(label)
        try:
            coords.append(parse_coords(loc_text.strip()))
        except ParseError as exc:
            raise ParseError(f"bad location: {exc}", source=path, line=lineno) from None
    if not labels:
        raise ParseError("no locations", source=path)
    east, north = np.array(coords, dtype=float).T
    return labels, east, north


def cmd_batch(args: argparse.Namespace) -> int:
    plan = _plan(args)
    if args.workers < 1:
        return _fail("--workers must be >= 1", EXIT_USAGE)

    labels, east, north = _read_locations_file(args.locations)
    db, model = _load_data(args)
    masks = _masks_of_part(args, plan, db, model)

    # one contiguous part of at least a kernel block per thread, joined back in input order
    parts = min(args.workers, len(labels) // _BLOCK_POINTS)
    if parts > 1:
        with ThreadPoolExecutor(max_workers=parts) as pool:
            split = pool.map(masks, np.array_split(east, parts), np.array_split(north, parts))
            occupied = np.concatenate([*split])
    else:
        occupied = masks(east, north)
    vacant, filtered = vacancy(occupied, plan, plan.excluded if args.strict_excluded else ())
    rows = rep.ChannelRows(labels, vacant, filtered, args.alpha, args.beta, args.power,
                           plan_hash(plan))
    csv_text = rep.emit_csv(rows)
    print(csv_text, end="")
    _write_artifacts(args.out, plan, "batch", rows, csv_text)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    plan = _plan(args)
    try:
        loc = parse_location(args.loc)
    except ParseError as exc:
        return _fail(f"bad location: {exc}", EXIT_USAGE)

    db, disks = _load_data(args)
    prop = PropagationParams(args.alpha, args.beta)
    points = power_sweep(db, disks, plan, loc, args.powers, prop)
    digest = plan_hash(plan)
    print(
        f"sweep at {args.loc}: alpha={args.alpha!r} beta_th={args.beta!r} plan={digest}",
        file=sys.stderr,
    )
    csv_text = rep.emit_sweep(points, alpha=args.alpha, beta_th=args.beta, plan_digest=digest)
    print(csv_text, end="")
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "sweep.csv").write_text(csv_text)
        (out_dir / "sweep.json").write_text(
            rep.emit_sweep_json(points, alpha=args.alpha, beta_th=args.beta, plan_digest=digest)
        )
    return EXIT_OK


def cmd_grid(args: argparse.Namespace) -> int:
    plan = _plan(args)
    db, disks = _load_data(args)
    prop = PropagationParams(args.alpha, args.beta)
    grid = availability_grid(db, disks, plan, args.region, args.cell, args.power, prop)
    values = grid.values
    print(
        f"grid {grid.nrows}x{grid.ncols} cells of {args.cell:g} m: "
        f"rho min {values.min()} max {values.max()} mean {values.mean():.2f}"
    )
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / "rho.asc"
        path.write_text(cov.write_asc_grid(grid.origin, grid.cell_size_m, values))
        # ASC takes no comments, so the parameter echo rides in a sidecar
        meta = {
            "alpha": args.alpha,
            "beta_th": args.beta,
            "power_watts": args.power,
            "plan": plan_hash(plan),
            "cell_size_m": grid.cell_size_m,
        }
        (out_dir / "rho.meta.json").write_text(
            json.dumps(meta, indent=2) + "\n"
        )
        print(f"wrote {path}")
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    plan = _plan(args)
    if not args.out:
        return _fail("synth needs --out", EXIT_USAGE)
    if args.preset == "uk81":
        for flag, value in (("--n", args.n), ("--region", args.region)):
            if value is not None:
                return _fail(f"synth --preset uk81 does not take {flag}", EXIT_USAGE)
        n, region = 81, OSGB_ENVELOPE
    elif args.n is not None and args.region is not None:
        n, region = args.n, args.region
    else:
        return _fail("synth needs --preset uk81 or both --n and --region", EXIT_USAGE)
    if n < 1:
        return _fail("--n must be >= 1", EXIT_USAGE)
    if not 0.0 <= args.irregularity <= 1.0:
        return _fail("--irregularity must be within [0, 1]", EXIT_USAGE)

    db = generate_synthetic(args.seed, n, region, plan)
    out = Path(args.out)
    coverage_dir = out / "coverage"
    coverage_dir.mkdir(parents=True, exist_ok=True)
    (out / "transmitters.csv").write_text(serialize(db))

    prop = PropagationParams(args.alpha, args.beta)
    for i, tx in enumerate(db):
        raster = cov.synth_coverage(
            tx, prop, args.cell, args.irregularity, seed=args.seed * 1_000_003 + i
        )
        (coverage_dir / f"{tx.id}.asc").write_text(cov.write_asc(raster))
        disk = cov.enclosing_disk(raster, tx)
        (coverage_dir / f"{tx.id}.disk").write_text(cov.write_disk(disk))

    if args.preset == "uk81":
        (out / "locations.csv").write_text(_synthetic_locations(args.seed))
        print(f"wrote {out / 'locations.csv'} (18 sample locations)")

    print(
        f"wrote {out / 'transmitters.csv'} ({n} transmitters) and "
        f"{n} rasters + disks under {coverage_dir}"
    )
    return EXIT_OK


def _synthetic_locations(seed: int) -> str:
    """18 labelled sample sites, on the 100 m lattice so grid refs round-trip."""
    import random

    from tvws.geo import format_gridref

    rng = random.Random(seed * 1_000_003 + 424_242)
    lines = ["# label,gridref"]
    for i in range(1, 19):
        p = NgPoint(
            float(rng.randrange(50_000, 650_000, 100)),
            float(rng.randrange(50_000, 1_250_000, 100)),
        )
        lines.append(f"site{i:02d},{format_gridref(p, 6)}")
    return "\n".join(lines) + "\n"


def cmd_disks(args: argparse.Namespace) -> int:
    txdb_path, coverage_dir = _data_paths(args)
    # the tree synth and disks leave holds no pack: a pack's stat keys differ
    # from one build of the same tree to the next
    db = load_txdb(read_text(str(txdb_path)), source=str(txdb_path))
    rasters = cov.load_rasters(coverage_dir, db, write_cache=False)
    for tx in db:
        disk = cov.enclosing_disk(rasters[tx.id], tx)
        (coverage_dir / f"{tx.id}.disk").write_text(cov.write_disk(disk))
        print(f"{tx.id} {disk.radius_m!r}")
    return EXIT_OK


_COMMANDS = {
    "query": cmd_query,
    "batch": cmd_batch,
    "sweep": cmd_sweep,
    "grid": cmd_grid,
    "synth": cmd_synth,
    "disks": cmd_disks,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.mode == "raster" and args.power:  # only query and batch take --mode raster
        return _fail("--mode raster is the zero-power model; use --power 0", EXIT_USAGE)
    try:
        return _COMMANDS[args.command](args)
    except MemoryError as exc:  # the request's size is what the user set
        return _fail(f"out of memory: {exc or 'allocation failed'}", EXIT_USAGE)
    except (OSError, ValueError) as exc:  # ParseError is a ValueError
        return _fail(str(exc), EXIT_DATA)
    except (AssertionError, RuntimeError) as exc:
        return _fail(f"internal invariant violated: {exc}", EXIT_INTERNAL)


if __name__ == "__main__":
    sys.exit(main())
