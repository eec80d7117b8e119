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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

from tvws import coverage as cov
from tvws import report as rep
from tvws.availability import (
    AvailabilityResult,
    adjacent_filter,
    availability,
    availability_batch,
    availability_grid,
    availability_lowpower,
    power_sweep,
)
from tvws.channel_plan import ChannelPlan, default_plan, load_plan, plan_hash
from tvws.errors import ParseError
from tvws.geo import EASTING_MAX, NORTHING_MAX, OSGB_ENVELOPE, BoundingBox, NgPoint, parse_location
from tvws.keepout import DEFAULT_ALPHA, DEFAULT_BETA_TH, PropagationParams, QueryParams
from tvws.txdb import TransmitterDb, generate_synthetic, load_txdb, parse_watts, serialize

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4


@dataclass
class RunConfig:
    txdb_path: Path | None
    coverage_dir: Path | None
    plan: ChannelPlan
    alpha: float
    beta_th: float
    power_watts: float
    out_dir: Path | None
    mode: str
    adjacent_filter: bool
    strict_excluded: bool
    seed: int

    @property
    def prop(self) -> PropagationParams:
        return PropagationParams(alpha=self.alpha, beta_th=self.beta_th)


def _watts(text: str) -> float:
    try:
        value = parse_watts(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError(f"power must be finite and >= 0, got {text!r}")
    return value


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
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--txdb", metavar="FILE", help="transmitter database CSV")
    common.add_argument("--coverage", metavar="DIR", help="directory of <id>.asc rasters")
    common.add_argument("--plan", metavar="FILE", help="channel plan file (default: built-in)")
    # shared flags default to None so main() can tell which were given
    common.add_argument("--alpha", type=_positive,
                        help=f"pathloss exponent (default {DEFAULT_ALPHA})")
    beta = common.add_mutually_exclusive_group()
    beta.add_argument("--beta", type=_positive,
                      help=f"TV protection ratio, linear (default {DEFAULT_BETA_TH})")
    beta.add_argument("--beta-db", dest="beta", type=_decibels, metavar="DB",
                      help="TV protection ratio in dB (converted to linear)")
    common.add_argument("--power", type=_watts, metavar="P",
                        help="transmit power; accepts mW/W/kW suffixes (default 0)")
    common.add_argument("--mode", choices=("raster", "disk"), default="disk",
                        help="coverage model; raster is exact but power must be 0")
    common.add_argument("--adjacent-filter", action="store_true",
                        help="report the N+-1 filtered set as the available set")
    common.add_argument("--strict-excluded", action="store_true",
                        help="treat excluded channels as blocking neighbours in the filter")
    common.add_argument("--out", metavar="DIR", help="write CSV/JSON/SVG artifacts here")
    common.add_argument("--seed", type=int, help="seed for synthesis (default 0)")

    parser = argparse.ArgumentParser(
        prog="tvws", description="TV white space availability engine (UK UHF band)"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_query = sub.add_parser("query", parents=[common],
                             help="vacant channels at one location")
    p_query.add_argument("--loc", required=True,
                         help='grid reference ("SP 513 061") or easting,northing')

    p_batch = sub.add_parser("batch", parents=[common],
                             help="availability for a file of label,location lines")
    p_batch.add_argument("--locations", required=True, metavar="FILE")
    p_batch.add_argument("--workers", type=int, default=1,
                         help="worker threads (output is identical regardless)")

    p_sweep = sub.add_parser("sweep", parents=[common],
                             help="vacant channels versus transmit power")
    p_sweep.add_argument("--loc", required=True)
    p_sweep.add_argument("--powers", required=True, type=_powers_list,
                         help="comma list (0.01,0.1,2) or lo:hi:n geometric range")

    p_grid = sub.add_parser("grid", parents=[common],
                            help="vacant-channel counts over a region")
    p_grid.add_argument("--region", required=True, type=_region,
                        metavar="minE,minN,maxE,maxN")
    p_grid.add_argument("--cell", type=_positive, default=10_000.0,
                        help="grid cell size in metres (default %(default)s)")

    p_synth = sub.add_parser("synth", parents=[common],
                             help="generate a synthetic transmitter database + coverage")
    p_synth.add_argument("--preset", choices=("uk81",),
                         help="uk81: 81 transmitters over the full OSGB envelope")
    p_synth.add_argument("--n", type=int, help="transmitter count")
    p_synth.add_argument("--region", type=_region, metavar="minE,minN,maxE,maxN")
    p_synth.add_argument("--cell", type=_positive, default=1000.0,
                         help="raster cell size in metres (default %(default)s)")
    p_synth.add_argument("--irregularity", type=float, default=0.3,
                         help="coverage contour raggedness, 0..1 (default %(default)s)")

    sub.add_parser("disks", parents=[common],
                   help="derive and cache enclosing disks for all rasters")
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    data_root = os.environ.get("TVWS_DATA_DIR")
    txdb_path = Path(args.txdb) if args.txdb else None
    coverage_dir = Path(args.coverage) if args.coverage else None
    if txdb_path is None and data_root:
        txdb_path = Path(data_root) / "transmitters.csv"
    if coverage_dir is None and data_root:
        coverage_dir = Path(data_root) / "coverage"

    if args.plan:
        plan_path = Path(args.plan)
        plan = load_plan(plan_path.read_text(), source=str(plan_path))
    else:
        plan = default_plan()

    return RunConfig(
        txdb_path=txdb_path,
        coverage_dir=coverage_dir,
        plan=plan,
        alpha=DEFAULT_ALPHA if args.alpha is None else args.alpha,
        beta_th=DEFAULT_BETA_TH if args.beta is None else args.beta,
        power_watts=0.0 if args.power is None else args.power,
        out_dir=Path(args.out) if args.out else None,
        mode=args.mode,
        adjacent_filter=args.adjacent_filter,
        strict_excluded=args.strict_excluded,
        seed=0 if args.seed is None else args.seed,
    )


def _fail(message: str, code: int) -> int:
    print(f"tvws: error: {message}", file=sys.stderr)
    return code


def _require_data(cfg: RunConfig) -> tuple[TransmitterDb, Path]:
    if cfg.txdb_path is None:
        raise FileNotFoundError("no transmitter database: pass --txdb or set TVWS_DATA_DIR")
    if cfg.coverage_dir is None:
        raise FileNotFoundError("no coverage directory: pass --coverage or set TVWS_DATA_DIR")
    if not cfg.txdb_path.is_file():
        raise FileNotFoundError(f"transmitter database not found: {cfg.txdb_path}")
    db = load_txdb(cfg.txdb_path.read_text(), source=str(cfg.txdb_path))
    return db, cfg.coverage_dir


def _evaluate(
    cfg: RunConfig, db: TransmitterDb, model: dict, locs: list[NgPoint]
) -> list[AvailabilityResult]:
    """Each location's result under ``--mode``, with its N+-1 filtered set."""
    if cfg.mode == "raster":
        results = [availability_lowpower(db, model, cfg.plan, loc) for loc in locs]
    elif len(locs) == 1:  # one point also lists its blockers
        q = QueryParams(locs[0], cfg.power_watts, cfg.prop)
        results = [availability(db, model, cfg.plan, q)]
    else:  # every location in one kernel call
        results = availability_batch(db, model, cfg.plan, locs, cfg.power_watts, cfg.prop)
    extra = cfg.plan.excluded if cfg.strict_excluded else ()
    for result in results:
        adjacent_filter(result, extra)
    return results


def _load_model(cfg: RunConfig, db: TransmitterDb, coverage_dir: Path) -> dict:
    if cfg.mode == "raster":
        return cov.load_rasters(coverage_dir, db)
    return cov.load_disks(coverage_dir, db)


def _write_artifacts(
    cfg: RunConfig, stem: str, reports: list[rep.LocationReport], csv_text: str | None = None
) -> None:
    """Write the CSV/JSON(/SVG) artifacts; ``csv_text`` is ``emit_csv(reports)`` if known."""
    if cfg.out_dir is None:
        return
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    if csv_text is None:
        csv_text = rep.emit_csv(reports)
    (cfg.out_dir / f"{stem}.csv").write_text(csv_text)
    (cfg.out_dir / f"{stem}.json").write_text(rep.emit_json(reports))
    if len(reports) == 1:
        (cfg.out_dir / f"{stem}.svg").write_text(
            rep.emit_channel_chart(reports[0], cfg.plan)
        )


def _channels(channels: frozenset[int]) -> str:
    return " ".join(str(c) for c in sorted(channels)) or "none"


def _format_runs(runs: list[tuple[int, int]]) -> str:
    if not runs:
        return "none"
    return ", ".join(f"{lo}-{hi}" if hi > lo else str(lo) for lo, hi in runs)


def cmd_query(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    try:
        loc = parse_location(args.loc)
    except ParseError as exc:
        return _fail(f"bad location: {exc}", EXIT_USAGE)

    db, coverage_dir = _require_data(cfg)
    model = _load_model(cfg, db, coverage_dir)
    [result] = _evaluate(cfg, db, model, [loc])
    report = rep.build_report(args.loc, result, cfg.plan, cfg.alpha, cfg.beta_th)

    filtered = result.filtered_vacant or frozenset()
    print(f"location: {args.loc} -> {loc.easting:g},{loc.northing:g}")
    print(
        f"mode: {cfg.mode}   power: {cfg.power_watts!r} W   "
        f"alpha: {cfg.alpha!r}   beta_th: {cfg.beta_th!r}   plan: {report.plan_digest}"
    )
    print(f"vacant (rho={result.rho}, {8 * result.rho} MHz): {_channels(result.vacant)}")
    print(f"occupied: {_channels(result.occupied)}")
    print(
        f"contiguous runs: {_format_runs(report.runs)}   "
        f"max contiguous: {report.max_contiguous_mhz} MHz"
    )
    print(f"adjacent-filtered ({len(filtered)}, {8 * len(filtered)} MHz): {_channels(filtered)}")
    if cfg.adjacent_filter:
        print(f"available for use: {_channels(filtered)}")
    _write_artifacts(cfg, "query", [report])
    return EXIT_OK


def _read_locations_file(path: Path) -> list[tuple[str, NgPoint]]:
    entries: list[tuple[str, NgPoint]] = []
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "," not in stripped:
            raise ParseError("expected 'label,location'", source=str(path), line=lineno)
        label, loc_text = (s.strip() for s in stripped.split(",", 1))
        if not label:
            raise ParseError("empty label", source=str(path), line=lineno)
        if label in seen:
            raise ParseError(
                f"duplicate label {label!r} (first on line {seen[label]})",
                source=str(path),
                line=lineno,
            )
        seen[label] = lineno
        try:
            entries.append((label, parse_location(loc_text)))
        except ParseError as exc:
            raise ParseError(f"bad location: {exc}", source=str(path), line=lineno) from None
    if not entries:
        raise ParseError("no locations", source=str(path))
    return entries


def cmd_batch(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    if args.workers < 1:
        return _fail("--workers must be >= 1", EXIT_USAGE)

    entries = _read_locations_file(Path(args.locations))
    db, coverage_dir = _require_data(cfg)
    model = _load_model(cfg, db, coverage_dir)

    digest = plan_hash(cfg.plan)

    def run_part(part: list[tuple[str, NgPoint]]) -> list[rep.LocationReport]:
        results = _evaluate(cfg, db, model, [loc for _, loc in part])
        return [
            rep.build_report(label, result, cfg.plan, cfg.alpha, cfg.beta_th, plan_digest=digest)
            for (label, _), result in zip(part, results)
        ]

    # one contiguous part per worker, joined back in input order
    size = -(-len(entries) // args.workers)
    parts = [entries[i : i + size] for i in range(0, len(entries), size)]
    with ThreadPoolExecutor(max_workers=args.workers) as pool:
        reports = [report for part in pool.map(run_part, parts) for report in part]

    csv_text = rep.emit_csv(reports)
    print(csv_text, end="")
    _write_artifacts(cfg, "batch", reports, csv_text)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    try:
        loc = parse_location(args.loc)
    except ParseError as exc:
        return _fail(f"bad location: {exc}", EXIT_USAGE)

    db, coverage_dir = _require_data(cfg)
    disks = cov.load_disks(coverage_dir, db)
    points = power_sweep(db, disks, cfg.plan, loc, args.powers, cfg.prop)
    digest = plan_hash(cfg.plan)
    print(
        f"sweep at {args.loc}: alpha={cfg.alpha!r} beta_th={cfg.beta_th!r} plan={digest}",
        file=sys.stderr,
    )
    csv_text = rep.emit_sweep(points, alpha=cfg.alpha, beta_th=cfg.beta_th, plan_digest=digest)
    print(csv_text, end="")
    if cfg.out_dir is not None:
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        (cfg.out_dir / "sweep.csv").write_text(csv_text)
        (cfg.out_dir / "sweep.json").write_text(
            rep.emit_sweep_json(points, alpha=cfg.alpha, beta_th=cfg.beta_th, plan_digest=digest)
        )
    return EXIT_OK


def cmd_grid(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    db, coverage_dir = _require_data(cfg)
    disks = cov.load_disks(coverage_dir, db)
    grid = availability_grid(
        db, disks, cfg.plan, args.region, args.cell, cfg.power_watts, cfg.prop
    )
    values = grid.values
    print(
        f"grid {grid.nrows}x{grid.ncols} cells of {args.cell:g} m: "
        f"rho min {values.min()} max {values.max()} mean {values.mean():.2f}"
    )
    if cfg.out_dir is not None:
        cfg.out_dir.mkdir(parents=True, exist_ok=True)
        path = cfg.out_dir / "rho.asc"
        path.write_text(cov.write_asc_grid(grid.origin, grid.cell_size_m, values))
        # ASC takes no comments, so the parameter echo rides in a sidecar
        meta = {
            "alpha": cfg.alpha,
            "beta_th": cfg.beta_th,
            "power_watts": cfg.power_watts,
            "plan": plan_hash(cfg.plan),
            "cell_size_m": grid.cell_size_m,
        }
        (cfg.out_dir / "rho.meta.json").write_text(
            json.dumps(meta, indent=2) + "\n"
        )
        print(f"wrote {path}")
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    cfg = _config_from_args(args)
    if cfg.out_dir is None:
        return _fail("synth needs --out", EXIT_USAGE)
    if args.preset == "uk81":
        n, region = 81, OSGB_ENVELOPE
    elif args.n is not None and args.region is not None:
        n, region = args.n, args.region
    else:
        return _fail("synth needs --preset uk81 or both --n and --region", EXIT_USAGE)
    if n < 1:
        return _fail("--n must be >= 1", EXIT_USAGE)
    if not 0.0 <= args.irregularity <= 1.0:
        return _fail("--irregularity must be within [0, 1]", EXIT_USAGE)

    db = generate_synthetic(cfg.seed, n, region, cfg.plan)
    out = cfg.out_dir
    coverage_dir = out / "coverage"
    coverage_dir.mkdir(parents=True, exist_ok=True)
    (out / "transmitters.csv").write_text(serialize(db))

    for i, tx in enumerate(db):
        raster = cov.synth_coverage(
            tx, cfg.prop, args.cell, args.irregularity, seed=cfg.seed * 1_000_003 + i
        )
        (coverage_dir / f"{tx.id}.asc").write_text(cov.write_asc(raster))
        disk = cov.enclosing_disk(raster, tx)
        (coverage_dir / f"{tx.id}.disk").write_text(cov.write_disk(disk))

    if args.preset == "uk81":
        (out / "locations.csv").write_text(_synthetic_locations(cfg.seed))
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
    cfg = _config_from_args(args)
    db, coverage_dir = _require_data(cfg)
    # the tree synth and disks leave holds no pack: a pack's stat keys differ
    # from one build of the same tree to the next
    rasters = cov.load_rasters(coverage_dir, db, write_cache=False)
    for tx in db:
        disk = cov.enclosing_disk(rasters[tx.id], tx)
        (coverage_dir / f"{tx.id}.disk").write_text(cov.write_disk(disk))
        print(f"{tx.id} {disk.radius_m!r}")
    return EXIT_OK


# The shared flags each subcommand reads.  Only query and batch read the
# coverage model and the N+-1 filter; sweep and grid run the disk model and
# report rho unfiltered, and sweep takes its powers from --powers.
_DATA_FLAGS = ("--txdb", "--coverage")
_MODEL_FLAGS = ("--plan", "--alpha", "--beta/--beta-db")
_QUERY_FLAGS = (*_DATA_FLAGS, *_MODEL_FLAGS, "--power", "--mode raster",
                "--adjacent-filter", "--strict-excluded", "--out")
_FLAGS_READ = {
    "query": _QUERY_FLAGS,
    "batch": _QUERY_FLAGS,
    "sweep": (*_DATA_FLAGS, *_MODEL_FLAGS, "--out"),
    "grid": (*_DATA_FLAGS, *_MODEL_FLAGS, "--power", "--out"),
    "synth": (*_MODEL_FLAGS, "--out", "--seed"),
    "disks": _DATA_FLAGS,
}


def _unused_flags(args: argparse.Namespace) -> list[str]:
    """Shared flags given to a subcommand that would otherwise ignore them."""
    given = (
        ("--txdb", args.txdb is not None),
        ("--coverage", args.coverage is not None),
        ("--plan", args.plan is not None),
        ("--alpha", args.alpha is not None),
        ("--beta/--beta-db", args.beta is not None),
        ("--power", args.power is not None),
        ("--mode raster", args.mode == "raster"),  # --mode disk is what all of them run
        ("--adjacent-filter", args.adjacent_filter),
        ("--strict-excluded", args.strict_excluded),
        ("--out", args.out is not None),
        ("--seed", args.seed is not None),
    )
    reads = _FLAGS_READ[args.command]
    return [flag for flag, was_given in given if was_given and flag not in reads]


_COMMANDS = {
    "query": cmd_query,
    "batch": cmd_batch,
    "sweep": cmd_sweep,
    "grid": cmd_grid,
    "synth": cmd_synth,
    "disks": cmd_disks,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = _COMMANDS[args.command]
    unused = _unused_flags(args)
    if unused:
        return _fail(f"{args.command} does not take {', '.join(unused)}", EXIT_USAGE)
    if args.mode == "raster" and args.power:  # only query and batch get here with raster
        return _fail("--mode raster is the zero-power model; use --power 0", EXIT_USAGE)
    try:
        return handler(args)
    except (OSError, ValueError) as exc:  # ParseError is a ValueError
        return _fail(str(exc), EXIT_DATA)
    except (AssertionError, RuntimeError) as exc:
        return _fail(f"internal invariant violated: {exc}", EXIT_INTERNAL)


if __name__ == "__main__":
    sys.exit(main())
