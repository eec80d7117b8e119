"""Acceptance suite: one test per exit criterion, one PASS line each.

Pass lines are echoed in the terminal summary (any capture mode) and
inline under ``-s``.  Tolerances are pinned in the assertions; nothing
here is calibrated after the fact.  The committed Manchester-like fixture and its golden sweep CSV
live under tests/data/manchester (see make_manchester_fixture.py there
for how the staircase was constructed and independently verified).
"""

from __future__ import annotations

import math
import random
import shutil
import time
from pathlib import Path

import acceptance_log
from oracles import (
    covered_cell_corners,
    min_containing_radius,
    occupied_by_enumeration,
    rho_by_enumeration,
)
from tvws.availability import (
    adjacent_filter,
    availability,
    availability_lowpower,
    contiguity,
)
from tvws.channel_plan import bandwidth_mhz, default_plan
from tvws.cli import main
from tvws.coverage import CoverageDisk, enclosing_disk, synth_coverage
from tvws.geo import BoundingBox, NgPoint
from tvws.keepout import PropagationParams, QueryParams, keepout_radius
from tvws.txdb import Transmitter, TransmitterDb, generate_synthetic

DATA_DIR = Path(__file__).parent / "data"
PLAN = default_plan()
PROP = PropagationParams()

ok = acceptance_log.record_pass


def make_tx(tx_id, e, n, erp, channels):
    return Transmitter(tx_id, NgPoint(e, n), erp, 100.0, frozenset(channels))


def test_criterion_1_availability_matches_pair_enumeration():
    """200 random instances agree with the literal step-function loop."""
    rng = random.Random(20090216)
    channel_pool = sorted(PLAN.interleaved)[:12]
    start = time.perf_counter()
    for case in range(200):
        txs, disks = [], {}
        for i in range(rng.randint(1, 10)):
            tx = make_tx(
                f"t{i}",
                rng.uniform(50_000, 650_000),
                rng.uniform(50_000, 1_250_000),
                rng.uniform(25, 200_000),
                rng.sample(channel_pool, rng.randint(1, 4)),
            )
            txs.append(tx)
            disks[tx.id] = CoverageDisk(tx.id, tx.position, rng.uniform(5_000, 90_000))
        db = TransmitterDb(tuple(txs))
        loc = NgPoint(rng.uniform(0, 699_999), rng.uniform(0, 1_299_999))
        power = rng.choice([0.0, rng.uniform(0.001, 4.0)])

        result = availability(db, disks, PLAN, QueryParams(loc, power, PROP))
        assert result.rho == rho_by_enumeration(
            db, disks, PLAN, loc, power, PROP.alpha, PROP.beta_th
        ), f"case {case}: rho mismatch"
        assert result.occupied == occupied_by_enumeration(
            db, disks, PLAN, loc, power, PROP.alpha, PROP.beta_th
        ), f"case {case}: occupied set mismatch"
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s"
    ok(f"availability == pair-enumeration oracle on 200/200 instances ({elapsed:.2f}s)")


def test_criterion_2_keepout_closed_forms():
    """Three closed forms hold to 1e-12 relative tolerance."""
    r1 = keepout_radius(0.0, 50_000.0, 40_000.0, PropagationParams(3.0, 1.0))
    assert math.isclose(r1, 40_000.0, rel_tol=1e-12)
    for alpha in (1.0, 2.0, 3.0, 4.5):
        r2 = keepout_radius(7.0, 7.0, 35_000.0, PropagationParams(alpha, 1.0))
        assert math.isclose(r2, 70_000.0, rel_tol=1e-12)
    r3 = keepout_radius(1_000.0, 16_000.0, 40_000.0, PropagationParams(4.0, 1.0))
    assert math.isclose(r3, 60_000.0, rel_tol=1e-12)
    ok("keep-out closed forms (zero power, unit ratio, 1/16 ratio) at 1e-12")


def test_criterion_3_protection_ratio_at_keepout_separation():
    """100 random draws recover the protection ratio to 1e-9 relative."""
    rng = random.Random(31337)
    for _ in range(100):
        p_cr = rng.uniform(1e-3, 100.0)
        p_tv = rng.uniform(25.0, 200_000.0)
        r_tv = rng.uniform(1_000.0, 120_000.0)
        alpha = rng.uniform(1.0, 6.0)
        beta = rng.uniform(0.01, 100.0)
        r_prime = keepout_radius(p_cr, p_tv, r_tv, PropagationParams(alpha, beta))
        r_cr = r_prime - r_tv  # collinear: CR beyond the coverage edge
        ratio = (p_tv / r_tv**alpha) / (p_cr / r_cr**alpha)
        assert math.isclose(ratio, beta, rel_tol=1e-9)
    ok("TV/interference ratio equals beta_th (1e-9 rel) in 100/100 draws")


def test_criterion_4_vacant_sets_nested_in_power_on_uk81(uk81):
    """Ascending powers give nested vacant sets at 50 random locations."""
    db, _rasters, disks = uk81
    rng = random.Random(8)
    powers = [0.0, 0.05, 0.2, 1.0, 4.0, 20.0]
    checked = 0
    for _ in range(50):
        loc = NgPoint(rng.uniform(0, 699_999), rng.uniform(0, 1_299_999))
        previous = None
        for power in powers:
            vac = availability(db, disks, PLAN, QueryParams(loc, power, PROP)).vacant
            if previous is not None:
                assert vac <= previous, f"vacancy grew with power at {loc}"
            previous = vac
        checked += 1
    assert checked == 50
    ok("vacant sets nested across ascending powers at 50/50 uk81 locations")


def test_criterion_5_disk_model_is_conservative():
    """At zero power, disk vacancy is a subset of raster vacancy."""
    rng = random.Random(55)
    region = BoundingBox(150_000, 150_000, 550_000, 550_000)
    db = generate_synthetic(13, 12, region, PLAN)
    rasters, disks = {}, {}
    for i, tx in enumerate(db):
        irregularity = (0.0, 0.25, 0.5)[i % 3]
        raster = synth_coverage(tx, PROP, 1_000.0, irregularity, seed=1000 + i)
        rasters[tx.id] = raster
        disks[tx.id] = enclosing_disk(raster, tx)
    for _ in range(100):
        loc = NgPoint(rng.uniform(100_000, 600_000), rng.uniform(100_000, 600_000))
        by_disk = availability(db, disks, PLAN, QueryParams(loc, 0.0, PROP)).vacant
        by_raster = availability_lowpower(db, rasters, PLAN, loc).vacant
        assert by_disk <= by_raster, f"disk model optimistic at {loc}"
    ok("disk vacancy subset of raster vacancy at 100/100 locations (irr <= 0.5)")


def test_criterion_6_adjacent_filter_soundness_and_worst_case():
    """No filtered channel has an occupied neighbour; alternation empties."""
    from tvws.availability import AvailabilityResult

    rng = random.Random(21)
    interleaved = sorted(PLAN.interleaved)
    for _ in range(300):
        occupied = frozenset(rng.sample(interleaved, rng.randint(0, 30)))
        vacant = PLAN.interleaved - occupied
        result = AvailabilityResult(
            NgPoint(0, 0), 0.0, vacant, occupied, len(vacant), {}
        )
        kept = adjacent_filter(result)
        for ch in kept:
            assert ch - 1 not in occupied and ch + 1 not in occupied
        result2 = AvailabilityResult(
            NgPoint(0, 0), 0.0, kept, occupied, len(kept), {}
        )
        assert adjacent_filter(result2) == kept, "filter not idempotent"

    alternating_occ = frozenset(interleaved[0::2])
    alternating_vac = PLAN.interleaved - alternating_occ
    worst = AvailabilityResult(
        NgPoint(0, 0), 0.0, alternating_vac, alternating_occ, len(alternating_vac), {}
    )
    assert adjacent_filter(worst) == frozenset(), "alternating occupancy must empty"
    ok("adjacent filter sound + idempotent; alternating occupancy leaves no channel")


def test_criterion_7_contiguity_arithmetic():
    """12 vacant channels with longest run 2: 96 MHz total, 16 contiguous."""
    vacant = {21, 22, 24, 25, 27, 28, 41, 42, 44, 45, 47, 48}
    assert len(vacant) == 12
    runs, max_contiguous = contiguity(vacant)
    assert bandwidth_mhz(vacant) == 96
    assert max(hi - lo + 1 for lo, hi in runs) == 2
    assert max_contiguous == 16
    ok("12 vacant channels, longest run 2 -> 96 MHz total, 16 MHz contiguous")


def test_criterion_8_disk_construction_on_random_rasters():
    """Corners inside; radius within one cell of brute-force minimum."""
    import numpy as np

    from tvws.coverage import CoverageRaster

    rng = random.Random(88)
    for case in range(100):
        cell = rng.choice([250.0, 500.0, 1_000.0])
        side = rng.randint(1, 14)
        cells = np.array(
            [[rng.random() < 0.35 for _ in range(side)] for _ in range(side)], dtype=bool
        )
        if not cells.any():
            cells[rng.randrange(side), rng.randrange(side)] = True
        tx = make_tx(
            "t", rng.uniform(200_000, 400_000), rng.uniform(200_000, 400_000), 10_000, {41}
        )
        origin = NgPoint(
            tx.position.easting - side * cell * rng.uniform(0.2, 0.8),
            tx.position.northing - side * cell * rng.uniform(0.2, 0.8),
        )
        raster = CoverageRaster("t", origin, cell, cells)
        disk = enclosing_disk(raster, tx)
        for e, n in covered_cell_corners(raster):
            d = math.hypot(e - tx.position.easting, n - tx.position.northing)
            assert d <= disk.radius_m, f"case {case}: corner escapes the disk"
        minimum = min_containing_radius(raster, tx)
        assert minimum <= disk.radius_m <= minimum + cell, f"case {case}: not near-minimal"
    ok("all covered-cell corners inside disk; radius within one cell of minimum (100/100)")


def test_criterion_9_manchester_sweep_matches_golden(tmp_path):
    """Committed fixture: golden bytes, plateau, sharp decrease, positive at 2 W."""
    # a copy, so the coverage pack a sweep writes stays out of tests/data
    fixture = tmp_path / "manchester"
    shutil.copytree(DATA_DIR / "manchester", fixture)
    out = tmp_path / "sweep"
    code = main(
        [
            "sweep",
            "--txdb", str(fixture / "transmitters.csv"),
            "--coverage", str(fixture / "coverage"),
            "--loc", "SJ 839 980",
            "--powers", "0.01,0.1,0.5,1,2,4",
            "--out", str(out),
        ]
    )
    assert code == 0
    produced = (out / "sweep.csv").read_bytes()
    golden = (fixture / "sweep_golden.csv").read_bytes()
    assert produced == golden, "sweep CSV deviates from committed golden"

    rows = [
        line.split(",")
        for line in produced.decode().splitlines()
        if line and not line.startswith(("#", "power_watts"))
    ]
    powers = [float(r[0]) for r in rows]
    rhos = [int(r[1]) for r in rows]
    assert powers == [0.01, 0.1, 0.5, 1.0, 2.0, 4.0]
    assert rhos == sorted(rhos, reverse=True), "curve must be nonincreasing"
    assert rhos[0] == rhos[1], "plateau expected at the two lowest powers"
    assert rhos[1] > rhos[2] > rhos[3], "decrease expected beyond the plateau"
    assert rhos[powers.index(2.0)] > 0, "still spectrum left at 2 W"

    # cross-check every golden row against the independent oracle
    from tvws.coverage import load_disks
    from tvws.geo import parse_gridref
    from tvws.txdb import load_txdb

    db = load_txdb((fixture / "transmitters.csv").read_text())
    disks = load_disks(fixture / "coverage", db, write_cache=False)
    loc = parse_gridref("SJ 839 980")
    for power, rho in zip(powers, rhos):
        assert rho == rho_by_enumeration(db, disks, PLAN, loc, power, 3.0, 1.0)
    ok("Manchester-like sweep matches golden CSV; plateau/decrease/positive-at-2W")


def test_criterion_10_batch_determinism_across_workers(uk81_dir, tmp_path, capsys):
    """18 locations, 4 workers vs 1 worker: byte-identical CSV."""
    args = [
        "batch",
        "--txdb", str(uk81_dir / "transmitters.csv"),
        "--coverage", str(uk81_dir / "coverage"),
        "--locations", str(uk81_dir / "locations.csv"),
        "--power", "0.1",
    ]
    out1, out4 = tmp_path / "w1", tmp_path / "w4"
    assert main(args + ["--workers", "1", "--out", str(out1)]) == 0
    stdout1 = capsys.readouterr().out
    assert main(args + ["--workers", "4", "--out", str(out4)]) == 0
    stdout4 = capsys.readouterr().out

    assert stdout1 == stdout4, "stdout differs across worker counts"
    assert (out1 / "batch.csv").read_bytes() == (out4 / "batch.csv").read_bytes()
    assert (out1 / "batch.json").read_bytes() == (out4 / "batch.json").read_bytes()
    n_rows = sum(
        1 for line in stdout1.splitlines() if line and not line.startswith(("#", "label"))
    )
    assert n_rows == 18
    ok("batch over 18 locations byte-identical with 1 and 4 workers")
