"""The repo benchmark: ``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1``.

Builds the workload's fixture from the seed (``synth`` then ``disks``,
repeated; the median is ``setup_s``), runs the workload in a fresh worker
process for ``--seconds`` as one client in a closed loop, checks the
outputs against the brute-force oracles outside the timed region, and
prints a readable report followed by one JSON line.  Every gated time is
scaled to a fixed reference kernel run between timed calls (``calibration.py``).

With ``--trace 0`` the JSON carries the end-to-end metrics.  With
``--trace 1`` a second, traced worker repeats the untraced pass's first
epoch and then rebuilds the fixture; the JSON then carries the per-layer
metrics, and the traced outputs must hash the same as the untraced ones.
Full results, with machine info and output digests, go to
``.bench_out/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from calibration import calibrate, speed  # noqa: E402
from harness import (  # noqa: E402
    CALIBRATE_EVERY_S,
    GRID_CELL_M,
    ROOT,
    SETUP_REPEATS,
    SRC,
    TESTS,
    WORKLOADS,
    batch_locations,
    build_fixture,
    grid_shape,
    tree_digest,
    use_source_tree,
    workload_requests,
)

WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
WORKER_TIMEOUT_S = 150
TRACED_EPOCHS = 1  # enough for per-layer means, and keeps traced runs short

# end-to-end metric -> unit; README.md says what each is on each workload
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "work_per_s": "items/s",
    "p50_ms": "ms",
}
PRIMARY = {"interactive-uk81": "query", "batch-n1000": "batch", "grid-n1000": "grid"}
TAIL_LADDER = (90.0, 95.0, 99.0, 99.9, 99.99)


def machine_info() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def tail(samples: list[float]) -> tuple[float, float, int] | None:
    """Highest ladder percentile with at least 10 samples beyond it: (p, value, beyond)."""
    ordered = sorted(samples)
    best = None
    for p in TAIL_LADDER:
        rank = max(1, -(-len(ordered) * p // 100))  # nearest-rank, ceil
        value = ordered[int(rank) - 1]
        beyond = sum(1 for s in ordered if s > value)
        if beyond >= 10:
            best = (p, value, beyond)
    return best


def by_kind(requests: list[dict], sequence: list[float]) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for j, dt in enumerate(sequence):
        out.setdefault(requests[j % len(requests)]["kind"], []).append(dt)
    return out


def scaled(run: dict) -> list[float]:
    """A worker's request times, scaled by the speed over its whole run.

    For sums and rates: a rate adds up every request of the run, so it is
    scaled by every reading of the run.
    """
    factor = speed(run["readings"])
    return [dt * factor for dt in run["sequence"]]


def locally_scaled(run: dict) -> list[float]:
    """A worker's request times, each scaled by the two readings around it.

    For latency percentiles: a percentile picks single requests, so each is
    scaled by the host's speed at the time.  On five seeds of each workload
    the spread of the median latency was 0.04-0.06 this way, and up to 0.11
    with the whole-run factor.
    """
    readings = run["readings"]
    return [dt * speed(readings[k:k + 2]) for dt, k in zip(run["sequence"], run["slices"])]


def gated_rate(requests: list[dict], sequence: list[float], latencies: list[float],
               primary: str) -> tuple[float, float]:
    """(work per second over the whole run, median primary latency), as gated.

    ``sequence`` is the run's request times scaled as a whole (``scaled``),
    ``latencies`` the same requests scaled one by one (``locally_scaled``).
    On a shared 2-core Xeon, the whole-run rate was steadier across seeds
    than the median or the fastest epoch.
    """
    size = len(requests)
    units = sum(req["units"] for req in requests) * (len(sequence) // size)
    primary_at = {i for i, req in enumerate(requests) if req["kind"] == primary}
    primary_latencies = [dt for j, dt in enumerate(latencies) if j % size in primary_at]
    return units / sum(sequence), statistics.median(primary_latencies)


def spawn_worker(spec: dict, name: str, workdir: Path) -> dict:
    spec_path, result_path = workdir / f"{name}.spec.json", workdir / f"{name}.result.json"
    spec_path.write_text(json.dumps(spec))
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve().parent / "worker.py"),
         str(spec_path), str(result_path)],
        capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0 or not result_path.is_file():
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"bench: {name} worker failed with exit code {proc.returncode}")
    return json.loads(result_path.read_text())


def check_outputs(workload: str, seed: int, requests: list[dict], rundir: Path) -> list[str]:
    """Oracle mismatches, one message per failed request of the first epoch."""
    from oracle_check import Fixture, check_batch, check_grid, check_query, check_sweep

    fixture = Fixture(rundir / "data")
    rng = random.Random(f"check/{workload}/{seed}")
    failed = []
    for i, req in enumerate(requests):
        stdout = (rundir / "outputs" / f"{i:03d}.stdout").read_text()
        if req["kind"] in ("query", "raster"):
            errors = check_query(fixture, req, stdout)
        elif req["kind"] == "sweep":
            errors = check_sweep(fixture, req, stdout, rng)
        elif req["kind"] == "batch":
            _text, points = batch_locations(seed)
            errors = check_batch(fixture, points, req["power_w"], stdout, rng)
        else:
            errors = check_grid(fixture, rundir / req["out"] / "rho.asc", grid_shape(),
                                GRID_CELL_M, req["power_w"], rng)
        if errors:
            failed.append(f"request {i} ({req['kind']}): " + "; ".join(errors[:3]))
    return failed


def readable_metrics(workload: str, requests: list[dict], run: dict, e2e: dict,
                     attempted: int, failed: int) -> list[tuple[str, float | str, str, str]]:
    """Per-kind end-to-end metrics: (name, value, unit, note).

    Only the ``BENCHMARK.json`` figures are gated; ``query_p50_ms``,
    ``batch_locs_per_s`` and ``grid_cells_per_s`` repeat them under the
    per-kind names.
    """
    rows: list[tuple[str, float | str, str, str]] = [
        ("setup_s", e2e["setup_s"], "s",
         f"median of {SETUP_REPEATS[workload]} fixture builds, scaled"),
        ("peak_rss_mb", e2e["peak_rss_mb"], "MB", "workload process"),
        ("error_rate", failed / attempted, "failed/attempted", f"{failed}/{attempted}"),
    ]
    lat = by_kind(requests, locally_scaled(run))
    if workload == "interactive-uk81":
        for kind, name in (("query", "query"), ("raster", "raster_query"), ("sweep", "sweep")):
            samples = lat.get(kind, [])
            rows.append((f"{name}_p50_ms", statistics.median(samples) * 1e3, "ms",
                         ("= p50_ms" if kind == "query" else "not gated")
                         + f", n={len(samples)}"))
            t = tail(samples)
            rows.append((f"{name}_tail_ms", "n/a" if t is None else t[1] * 1e3, "ms",
                         f"n={len(samples)}" if t is None
                         else f"p{t[0]:g}, n={len(samples)}, {t[2]} beyond"))
        wall = by_kind(requests, run["sequence"])
        for kind, samples in wall.items():
            rows.append((f"time_share.{kind}", sum(samples) / sum(run["sequence"]), "ratio",
                         f"share of request time; the mix aims at 1/{len(wall)}"))
    else:
        name, unit = (("batch_locs_per_s", "locations/s") if workload == "batch-n1000"
                      else ("grid_cells_per_s", "cells/s"))
        rows.append((name, e2e["work_per_s"], unit,
                     f"= work_per_s, over {len(run['sequence'])} calls"))
    wall_rate, _ = gated_rate(requests, run["sequence"], run["sequence"], PRIMARY[workload])
    rows += [
        ("wall_work_per_s", wall_rate, "items/s", "work_per_s unscaled, not gated"),
        ("host_speed", speed(run["readings"]), "ratio",
         f"whole-run factor on work_per_s; {len(run['readings'])} reference readings"),
    ]
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "tvws" / "cli.py", TESTS / "oracles.py") if not p.is_file()]
    if missing:
        print(f"bench: not a tvws checkout, missing {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    use_source_tree()

    base = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    OUT.mkdir(exist_ok=True)
    try:
        return _run(args, base)
    finally:
        shutil.rmtree(base, ignore_errors=True)


def _run(args: argparse.Namespace, base: Path) -> int:
    workload, seed, trace = args.workload, args.seed, bool(args.trace)
    attempted = failed = 0
    problems: list[str] = []

    # Setup: build the fixture SETUP_REPEATS times, with a reference reading
    # before the first build and after each CLI call; every build must be
    # identical.
    setup_times, setup_readings, fixture_digests = [], [calibrate(CALIBRATE_EVERY_S)], set()
    for k in range(SETUP_REPEATS[workload]):
        build_dir = base / f"setup{k}"
        build_dir.mkdir()
        seconds, errors = build_fixture(
            workload, seed, build_dir, lambda dt: setup_readings.append(calibrate(dt)))
        setup_times.append(seconds)
        fixture_digests.add(tree_digest(build_dir / "data"))
        attempted += 2
        failed += len(errors)
        problems += errors
        if k:
            shutil.rmtree(build_dir)
    if len(fixture_digests) != 1:
        problems.append("repeated fixture builds differ")
    rundir = base / "setup0"
    requests = workload_requests(workload, seed, rundir)

    untraced = spawn_worker(
        {"workload": workload, "seed": seed, "workdir": str(rundir), "trace": False,
         "seconds": args.seconds, "requests": requests},
        "untraced", base,
    )
    attempted += untraced["attempted"]
    failed += len(untraced["failures"])
    problems += untraced["failures"]

    mismatches = check_outputs(workload, seed, requests, rundir)
    failed += len(mismatches)
    problems += mismatches

    traced = None
    if trace:
        tracedir = base / "traced"
        tracedir.mkdir()
        workload_requests(workload, seed, tracedir)
        traced = spawn_worker(
            {"workload": workload, "seed": seed, "workdir": str(tracedir), "trace": True,
             "fixture": str(rundir / "data"), "epochs": TRACED_EPOCHS,
             "requests": requests,
             "spans_path": str(OUT / f"{workload}-seed{seed}.spans.tsv")},
            "traced", base,
        )
        attempted += traced["attempted"] + 2
        failed += len(traced["failures"]) + len(traced["setup"]["errors"])
        problems += traced["failures"] + traced["setup"]["errors"]
        if traced["setup"]["fixture_digest"] not in fixture_digests:
            problems.append("traced fixture build differs from the untraced one")
        diffs = sum(a != b for a, b in zip(untraced["digests"], traced["digests"]))
        if diffs:
            failed += diffs
            problems.append(f"{diffs} traced outputs differ from the untraced ones")

    setup_s = statistics.median(setup_times) * speed(setup_readings)
    work_per_s, p50_s = gated_rate(requests, scaled(untraced), locally_scaled(untraced),
                                   PRIMARY[workload])
    e2e = {
        "setup_s": setup_s,
        "peak_rss_mb": untraced["peak_rss_mb"],
        "work_per_s": work_per_s,
        "p50_ms": p50_s * 1e3,
    }
    readable = readable_metrics(workload, requests, untraced, e2e, attempted, failed)
    machine = machine_info()
    correct = failed == 0 and not problems

    print(f"machine: nproc={machine['nproc']} cpu={machine['cpu']!r} "
          f"python={machine['python']} numpy={machine['numpy']}")
    print(f"workload {workload} seed {seed}: {untraced['epochs']} epoch(s), "
          f"{untraced['attempted']} requests, {args.seconds:g} s budget")
    for name, value, unit, note in readable:
        shown = value if isinstance(value, str) else f"{value:.6g}"
        print(f"  {name:<26} {shown:>14} {unit:<16} {note}")
    print("  BENCHMARK.json: " + "  ".join(
        f"{name}={e2e[name]:.6g} {unit}" for name, unit in END_TO_END.items()))
    print(f"  output digest  {untraced['digest']}")
    print(f"  fixture digest {next(iter(fixture_digests))}")
    for problem in problems[:20]:
        print(f"  FAIL {problem}")

    results = {
        "workload": workload, "seed": seed, "seconds": args.seconds, "trace": trace,
        "machine": machine, "correct": correct, "attempted": attempted, "failed": failed,
        "problems": problems, "end_to_end": e2e,
        "readable": [list(r) for r in readable],
        "setup_times_s": setup_times, "setup_readings_s": setup_readings,
        "request_seconds": untraced["sequence"], "reference_readings_s": untraced["readings"],
        "output_digest": untraced["digest"], "request_digests": untraced["digests"],
        "fixture_digest": sorted(fixture_digests),
    }
    if trace:
        from layer_trace import LAYER_MAP

        layer = dict(traced["layer_metrics"])
        layer["trace.overhead_ratio"] = (sum(scaled(traced)) / traced["epochs"]) / (
            sum(scaled(untraced)) / untraced["epochs"])
        print(f"per-layer (traced, {traced['spans']} spans; absent: "
              f"{', '.join(traced['absent']) or 'none'})")
        for name, value in layer.items():
            unit, target = LAYER_MAP[name]
            print(f"  {name:<46} {value:>14.6g} {unit:<8} -> {target}")
        print(f"  traced output digest {traced['digest']}")
        results.update(per_layer=layer, absent=traced["absent"],
                       traced_output_digest=traced["digest"])
        metrics = {name: {"value": layer[name], "unit": LAYER_MAP[name][0]}
                   for name in LAYER_MAP}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}

    (OUT / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(results, indent=2) + "\n"
    )
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
