import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import occupied_by_enumeration, rho_by_enumeration
from tvws.availability import (
    AvailabilityResult,
    KeepoutDisks,
    adjacent_filter,
    availability,
    availability_batch,
    availability_grid,
    availability_lowpower,
    contiguity,
    power_sweep,
)
from tvws.channel_plan import default_plan, load_plan
from tvws.coverage import CoverageDisk, enclosing_disk, synth_coverage
from tvws.geo import BoundingBox, NgPoint, distance
from tvws.keepout import PropagationParams, QueryParams, keepout_radius
from tvws.txdb import Transmitter, TransmitterDb

PLAN = default_plan()
PROP = PropagationParams()


def make_tx(tx_id, e, n, erp, channels):
    return Transmitter(tx_id, NgPoint(e, n), erp, 100.0, frozenset(channels))


def disk_for(tx, radius):
    return CoverageDisk(tx.id, tx.position, radius)


def random_instance(rng: random.Random, max_tx=10, max_channels=12):
    """A small scenario: transmitters with explicit disks plus a query."""
    channel_pool = sorted(PLAN.interleaved)[:max_channels]
    txs = []
    disks = {}
    for i in range(rng.randint(1, max_tx)):
        tx = make_tx(
            f"r{i}",
            rng.uniform(50_000, 650_000),
            rng.uniform(50_000, 1_250_000),
            rng.uniform(25, 200_000),
            rng.sample(channel_pool, rng.randint(1, min(4, len(channel_pool)))),
        )
        txs.append(tx)
        disks[tx.id] = disk_for(tx, rng.uniform(5_000, 80_000))
    db = TransmitterDb(tuple(txs), source="random")
    loc = NgPoint(rng.uniform(0, 699_999), rng.uniform(0, 1_299_999))
    power = rng.choice([0.0, rng.uniform(0, 4.0)])
    return db, disks, loc, power


class TestAvailability:
    def test_empty_db_all_vacant(self):
        db = TransmitterDb((), source="empty")
        q = QueryParams(NgPoint(300_000, 300_000), 1.0, PROP)
        result = availability(db, {}, PLAN, q)
        assert result.vacant == PLAN.interleaved
        assert result.occupied == frozenset()
        assert result.rho == 30

    def test_single_tx_inside_keepout(self):
        tx = make_tx("a", 300_000, 300_000, 10_000, {21})
        db = TransmitterDb((tx,))
        disks = {"a": disk_for(tx, 30_000)}
        q = QueryParams(NgPoint(310_000, 300_000), 0.0, PROP)
        result = availability(db, disks, PLAN, q)
        assert result.occupied == {21}
        assert result.rho == 29
        assert result.per_channel_blockers == {21: ("a",)}

    def test_boundary_is_vacant(self):
        tx = make_tx("a", 300_000, 300_000, 10_000, {21})
        db = TransmitterDb((tx,))
        disks = {"a": disk_for(tx, 30_000)}
        q = QueryParams(NgPoint(330_000, 300_000), 0.0, PROP)
        result = availability(db, disks, PLAN, q)
        assert result.occupied == frozenset()

    def test_cleared_channel_hits_recorded_but_not_counted(self):
        tx = make_tx("a", 300_000, 300_000, 10_000, {21, 35})  # 35 is cleared
        db = TransmitterDb((tx,))
        disks = {"a": disk_for(tx, 30_000)}
        q = QueryParams(tx.position, 0.0, PROP)
        result = availability(db, disks, PLAN, q)
        assert result.occupied == {21}
        assert result.rho == 29
        assert 35 in result.per_channel_blockers

    def test_missing_disk_is_error(self):
        tx = make_tx("a", 300_000, 300_000, 10_000, {21})
        db = TransmitterDb((tx,))
        q = QueryParams(NgPoint(310_000, 300_000), 0.0, PROP)
        with pytest.raises(ValueError, match="no coverage disk"):
            availability(db, {}, PLAN, q)

    def test_matches_pair_enumeration_oracle(self):
        rng = random.Random(4321)
        for _ in range(40):
            db, disks, loc, power = random_instance(rng)
            result = availability(db, disks, PLAN, QueryParams(loc, power, PROP))
            assert result.occupied == occupied_by_enumeration(
                db, disks, PLAN, loc, power, PROP.alpha, PROP.beta_th
            )
            assert result.rho == rho_by_enumeration(
                db, disks, PLAN, loc, power, PROP.alpha, PROP.beta_th
            )

    def test_vacant_sets_nested_in_power(self):
        rng = random.Random(777)
        for _ in range(20):
            db, disks, loc, _ = random_instance(rng)
            prev = None
            for power in (0.0, 0.05, 0.5, 2.0, 10.0):
                vac = availability(db, disks, PLAN, QueryParams(loc, power, PROP)).vacant
                if prev is not None:
                    assert vac <= prev
                prev = vac

    def test_adding_transmitter_never_grows_vacant(self):
        rng = random.Random(31)
        for _ in range(20):
            db, disks, loc, power = random_instance(rng, max_tx=6)
            q = QueryParams(loc, power, PROP)
            base = availability(db, disks, PLAN, q).vacant
            extra = make_tx("extra", loc.easting, loc.northing, 1000, {21, 22})
            bigger = TransmitterDb(db.transmitters + (extra,))
            disks2 = dict(disks)
            disks2["extra"] = disk_for(extra, 10_000)
            assert availability(bigger, disks2, PLAN, q).vacant <= base


class TestLowPower:
    @pytest.fixture
    def scenario(self):
        tx = make_tx("ox", 300_000, 300_000, 50_000, {41, 44, 47})
        raster = synth_coverage(tx, PROP, 1000.0, irregularity=0.3, seed=12)
        db = TransmitterDb((tx,))
        return db, {tx.id: raster}, tx

    def test_outside_every_raster_all_vacant(self, scenario):
        db, rasters, _ = scenario
        result = availability_lowpower(db, rasters, PLAN, NgPoint(650_000, 1_200_000))
        assert result.vacant == PLAN.interleaved
        assert result.p_cr_watts == 0.0

    def test_inside_coverage_blocks_carried_channels(self, scenario):
        db, rasters, tx = scenario
        result = availability_lowpower(db, rasters, PLAN, tx.position)
        assert result.occupied == {41, 44, 47}
        assert result.rho == 27

    def test_missing_raster_is_error(self, scenario):
        db, _, _ = scenario
        with pytest.raises(ValueError, match="no coverage raster"):
            availability_lowpower(db, {}, PLAN, NgPoint(0, 0))

    def test_agrees_with_disk_model_away_from_boundary(self):
        # on circular (irregularity 0) coverage the raster and disk answers
        # can only differ within one cell of the disk boundary
        tx = make_tx("c", 300_000, 300_000, 50_000, {41})
        cell = 1000.0
        raster = synth_coverage(tx, PROP, cell, irregularity=0.0, seed=1)
        disk = enclosing_disk(raster, tx)
        db = TransmitterDb((tx,))
        rng = random.Random(5)
        for _ in range(200):
            loc = NgPoint(rng.uniform(250_000, 350_000), rng.uniform(250_000, 350_000))
            if abs(distance(loc, tx.position) - disk.radius_m) <= 2 * cell:
                continue
            by_raster = availability_lowpower(db, {"c": raster}, PLAN, loc)
            by_disk = availability(db, {"c": disk}, PLAN, QueryParams(loc, 0.0, PROP))
            assert by_raster.vacant == by_disk.vacant


def make_result(vacant, occupied):
    return AvailabilityResult(
        location=NgPoint(0, 0),
        p_cr_watts=0.0,
        vacant=frozenset(vacant),
        occupied=frozenset(occupied),
        rho=len(set(vacant)),
        per_channel_blockers={},
    )


class TestAdjacentFilter:
    def test_neighbours_of_occupied_dropped(self):
        result = make_result({21, 23, 25}, {22})
        assert adjacent_filter(result) == {25}
        assert result.filtered_vacant == {25}

    def test_no_occupied_is_identity(self):
        result = make_result({21, 25, 60}, set())
        assert adjacent_filter(result) == {21, 25, 60}

    def test_alternating_occupancy_leaves_nothing(self):
        # worst case: every vacant channel sits next to an occupied one
        interleaved = sorted(PLAN.interleaved)
        occupied = set(interleaved[0::2])
        vacant = set(interleaved[1::2])
        result = make_result(vacant, occupied)
        assert adjacent_filter(result) == frozenset()

    def test_cleared_neighbours_do_not_block(self):
        # channel 30 is interleaved, 31 is cleared in the default plan;
        # a vacant 30 survives even though 31 is not usable
        result = make_result({30}, set())
        assert adjacent_filter(result) == {30}

    def test_strict_excluded_blocks_channel_60(self):
        result = make_result({60}, set())
        assert adjacent_filter(result, extra_blockers=PLAN.excluded) == frozenset()

    def test_band_edges_never_blocked_from_outside(self):
        result = make_result({21, 68} & PLAN.interleaved, set())
        assert 21 in adjacent_filter(result)

    @given(st.sets(st.sampled_from(sorted(PLAN.interleaved))))
    def test_soundness_and_idempotence(self, occupied):
        vacant = PLAN.interleaved - occupied
        result = make_result(vacant, occupied)
        kept = adjacent_filter(result)
        for ch in kept:
            assert ch - 1 not in occupied and ch + 1 not in occupied
        result2 = make_result(kept, occupied)
        assert adjacent_filter(result2) == kept


class TestContiguity:
    def test_single_run(self):
        runs, mhz = contiguity({21, 22, 23})
        assert runs == [(21, 23)]
        assert mhz == 24

    def test_london_style_arithmetic(self):
        # 12 vacant channels, longest run 2: 96 MHz total, 16 contiguous
        vacant = {21, 22, 24, 25, 27, 28, 41, 42, 44, 45, 47, 48}
        runs, mhz = contiguity(vacant)
        assert len(vacant) == 12
        assert max(hi - lo + 1 for lo, hi in runs) == 2
        assert mhz == 16

    def test_empty(self):
        assert contiguity(set()) == ([], 0)

    @given(st.sets(st.integers(21, 68)))
    def test_runs_partition_the_vacant_set(self, vacant):
        runs, mhz = contiguity(vacant)
        assert sum(hi - lo + 1 for lo, hi in runs) == len(vacant)
        covered = set()
        for lo, hi in runs:
            covered |= set(range(lo, hi + 1))
        assert covered == vacant
        if runs:
            assert mhz == 8 * max(hi - lo + 1 for lo, hi in runs)


class TestPowerSweep:
    @pytest.fixture
    def scenario(self):
        rng = random.Random(88)
        db, disks, loc, _ = random_instance(rng, max_tx=8)
        return db, disks, loc

    def test_zero_power_matches_plain_availability(self, scenario):
        db, disks, loc = scenario
        points = power_sweep(db, disks, PLAN, loc, [0.0], PROP)
        expected = availability(db, disks, PLAN, QueryParams(loc, 0.0, PROP)).rho
        assert points == [(0.0, expected, points[0][2])]

    def test_rho_nonincreasing_for_ascending_powers(self, scenario):
        db, disks, loc = scenario
        powers = [0.0, 0.01, 0.1, 0.5, 1.0, 2.0, 4.0]
        points = power_sweep(db, disks, PLAN, loc, powers, PROP)
        rhos = [rho for _, rho, _ in points]
        assert rhos == sorted(rhos, reverse=True)

    def test_filtered_never_exceeds_unfiltered(self, scenario):
        db, disks, loc = scenario
        for _, rho, filtered in power_sweep(db, disks, PLAN, loc, [0, 1, 4], PROP):
            assert filtered <= rho

    def test_empty_powers_rejected(self, scenario):
        db, disks, loc = scenario
        with pytest.raises(ValueError):
            power_sweep(db, disks, PLAN, loc, [], PROP)


class TestAvailabilityGrid:
    REGION = BoundingBox(250_000, 250_000, 350_000, 350_000)

    def test_empty_db_everywhere_full(self):
        db = TransmitterDb((), source="empty")
        grid = availability_grid(db, {}, PLAN, self.REGION, 10_000, 0.0, PROP)
        assert (grid.values == 30).all()

    def test_single_tx_reduces_inside_disk(self):
        tx = make_tx("a", 300_000, 300_000, 10_000, {21, 22, 35})
        db = TransmitterDb((tx,))
        disks = {"a": disk_for(tx, 30_000)}
        grid = availability_grid(db, disks, PLAN, self.REGION, 5_000, 0.0, PROP)
        for row in range(grid.nrows):
            for col in range(grid.ncols):
                center = grid.cell_center(row, col)
                inside = distance(center, tx.position) < 30_000
                # 35 is cleared; only the two interleaved channels count
                assert grid.values[row, col] == (28 if inside else 30)

    def test_matches_pointwise_at_random_cells(self):
        rng = random.Random(6)
        db, disks, _, power = random_instance(rng, max_tx=8)
        grid = availability_grid(db, disks, PLAN, self.REGION, 7_000, power, PROP)
        for _ in range(20):
            row = rng.randrange(grid.nrows)
            col = rng.randrange(grid.ncols)
            q = QueryParams(grid.cell_center(row, col), power, PROP)
            assert grid.values[row, col] == availability(db, disks, PLAN, q).rho

    def test_deterministic(self):
        rng = random.Random(61)
        db, disks, _, power = random_instance(rng)
        a = availability_grid(db, disks, PLAN, self.REGION, 9_000, power, PROP)
        b = availability_grid(db, disks, PLAN, self.REGION, 9_000, power, PROP)
        assert np.array_equal(a.values, b.values)

    def test_empty_region_rejected(self):
        db = TransmitterDb((), source="empty")
        with pytest.raises(ValueError, match="empty"):
            availability_grid(
                db, {}, PLAN, BoundingBox(0, 0, 0, 100), 1_000, 0.0, PROP
            )


class TestResultInvariants:
    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_partition_and_rho(self, seed):
        rng = random.Random(seed)
        db, disks, loc, power = random_instance(rng)
        result = availability(db, disks, PLAN, QueryParams(loc, power, PROP))
        assert result.vacant | result.occupied == PLAN.interleaved
        assert not result.vacant & result.occupied
        assert result.rho == len(result.vacant)
        assert adjacent_filter(result) <= result.vacant


class TestCustomPlan:
    def test_rho_counts_interleaved_of_that_plan(self):
        plan = load_plan("interleaved = 21-26\nexcluded = 61,62\n")
        tx = make_tx("a", 300_000, 300_000, 10_000, {21, 22, 23})
        db = TransmitterDb((tx,))
        disks = {"a": disk_for(tx, 30_000)}
        result = availability(db, disks, plan, QueryParams(tx.position, 0.0, PROP))
        assert result.occupied == {21, 22, 23}
        assert result.rho == 3


def ulp_neighbours(x):
    return [np.nextafter(x, -math.inf), x, np.nextafter(x, math.inf)]


def boundary_instance(rng: random.Random, power: float, bearings: int = 12):
    """Transmitters plus points at, and an ulp either side of, their keep-out radii.

    At power 0, R' is the disk radius itself, so each disk is sized to put
    a chosen point within an ulp of its boundary; the other bearings land
    near it too.  At positive power, points go on several bearings at R',
    nudged by an ulp in each coordinate.
    """
    db, disks, _, _ = random_instance(rng, max_tx=6)
    points = []
    for tx in db:
        r = keepout_radius(power, tx.erp_watts, disks[tx.id].radius_m, PROP)
        ring = []
        for _ in range(bearings):
            theta = rng.uniform(0.0, 2.0 * math.pi)
            e = tx.position.easting + r * math.cos(theta)
            n = tx.position.northing + r * math.sin(theta)
            if 0 < e < 699_000 and 0 < n < 1_299_000:
                ring += [(float(a), float(b)) for a in ulp_neighbours(e) for b in ulp_neighbours(n)]
        if ring and power == 0.0:
            anchor = NgPoint(*rng.choice(ring))
            radius = rng.choice(ulp_neighbours(distance(anchor, tx.position)))
            disks[tx.id] = disk_for(tx, float(radius))
        points += [NgPoint(e, n) for e, n in ring]
    return db, disks, points


class TestKernelAtTheBoundary:
    """Every wrapper of the kernel against the oracle where d is within an ulp of R'."""

    POWERS = (0.0, 0.0, 0.05, 1.0, 3.7)

    def test_grid_cell_centre_exactly_at_keepout_radius_is_vacant(self):
        # np.hypot puts this centre one ulp inside R'; math.hypot puts it on R'
        tx = make_tx("a", 25184.628857372485, 72300.72848647062, 1000, {21})
        db = TransmitterDb((tx,))
        disks = {"a": disk_for(tx, 31903.452360785737)}
        region = BoundingBox(0, 0, 100_000, 100_000)
        grid = availability_grid(db, disks, PLAN, region, 1000, 0.0, PROP)
        centre = grid.cell_center(41, 33)
        assert distance(centre, tx.position) == 31903.452360785737
        assert availability(db, disks, PLAN, QueryParams(centre, 0.0, PROP)).rho == 30
        assert grid.values[41, 33] == 30

    @pytest.mark.parametrize("power", POWERS)
    def test_batch_matches_oracle_and_single_queries(self, power):
        rng = random.Random(int(power * 1000) + 17)
        for _ in range(8):
            db, disks, points = boundary_instance(rng, power)
            results = availability_batch(db, disks, PLAN, points, power, PROP)
            assert [r.location for r in results] == points
            for loc, result in zip(points, results):
                single = availability(db, disks, PLAN, QueryParams(loc, power, PROP))
                assert result.occupied == single.occupied
                assert result.vacant == single.vacant
                assert result.rho == rho_by_enumeration(
                    db, disks, PLAN, loc, power, PROP.alpha, PROP.beta_th
                )

    def test_power_sweep_matches_oracle(self):
        rng = random.Random(99)
        for _ in range(4):
            db, disks, points = boundary_instance(rng, 0.0, bearings=2)
            powers = [0.0, 1e-30, 0.0, 0.05, 1.0, 3.7]
            for loc in points:
                sweep = power_sweep(db, disks, PLAN, loc, powers, PROP)
                for (p, rho, filtered), power in zip(sweep, powers):
                    assert p == power
                    assert rho == rho_by_enumeration(
                        db, disks, PLAN, loc, power, PROP.alpha, PROP.beta_th
                    )
                    result = availability(db, disks, PLAN, QueryParams(loc, power, PROP))
                    assert filtered == len(adjacent_filter(result))

    def test_power_sweep_checks_every_power(self):
        db, disks, loc, _ = random_instance(random.Random(3))
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="transmit power"):
                power_sweep(db, disks, PLAN, loc, [0.1, bad], PROP)

    def test_grid_matches_oracle_at_every_cell_centre(self):
        rng = random.Random(2024)
        region = BoundingBox(200_000, 300_000, 260_000, 350_000)
        cell = 2_500.0
        centres = [
            NgPoint(region.min_e + (c + 0.5) * cell, region.min_n + (r + 0.5) * cell)
            for r in range(20) for c in range(24)
        ]
        for case in range(6):
            txs, disks = [], {}
            for i in range(4):
                anchor = rng.choice(centres)
                tx = make_tx(f"g{i}", rng.uniform(190_000, 270_000), rng.uniform(290_000, 360_000),
                             rng.uniform(25, 200_000), rng.sample(sorted(PLAN.interleaved), 3))
                txs.append(tx)
                # the anchor cell centre sits within an ulp of R' at power 0
                radius = float(rng.choice(ulp_neighbours(distance(anchor, tx.position))))
                disks[tx.id] = disk_for(tx, max(radius, 1.0))
            db = TransmitterDb(tuple(txs))
            power = 0.0 if case % 2 == 0 else rng.uniform(0.0, 4.0)
            grid = availability_grid(db, disks, PLAN, region, cell, power, PROP)
            assert grid.values.shape == (20, 24)
            for row in range(20):
                for col in range(24):
                    assert grid.values[row, col] == rho_by_enumeration(
                        db, disks, PLAN, grid.cell_center(row, col), power,
                        PROP.alpha, PROP.beta_th,
                    )

    def test_batch_of_no_locations_is_empty(self):
        db, disks, _, _ = random_instance(random.Random(5))
        assert availability_batch(db, disks, PLAN, [], 0.1, PROP) == []


class TestTieRule:
    """Inputs where numpy and the scalar definitions round differently.

    numpy's hypot and ** can land an ulp away from math.hypot and Python's
    **.  Each case is searched for so that the fast path alone would call
    a point exactly on R' occupied; the strict rule says vacant.  Where
    this numpy build never disagrees, there is nothing to test.
    """

    def test_hypot_rounding_at_the_boundary(self):
        rng = np.random.default_rng(7)
        point = NgPoint(33_500.0, 41_500.0)  # a 1 km grid cell centre
        tx_e = rng.uniform(0, 100_000, 20_000)
        tx_n = rng.uniform(0, 100_000, 20_000)
        fast = np.hypot(point.easting - tx_e, point.northing - tx_n)
        cases = [
            (e, n) for e, n, d in zip(tx_e.tolist(), tx_n.tolist(), fast.tolist())
            if d < math.hypot(point.easting - e, point.northing - n)
        ][:8]
        if not cases:
            pytest.skip("np.hypot agrees with math.hypot on every sample")
        region = BoundingBox(0, 0, 100_000, 100_000)
        for e, n in cases:
            tx = make_tx("a", e, n, 1000, {21, 44})
            db = TransmitterDb((tx,))
            disks = {"a": disk_for(tx, distance(point, tx.position))}  # R' = d exactly
            assert availability(db, disks, PLAN, QueryParams(point, 0.0, PROP)).rho == 30
            assert availability_batch(db, disks, PLAN, [point], 0.0, PROP)[0].rho == 30
            assert power_sweep(db, disks, PLAN, point, [0.0], PROP)[0][1] == 30
            grid = availability_grid(db, disks, PLAN, region, 1000, 0.0, PROP)
            assert grid.cell_center(41, 33) == point
            assert grid.values[41, 33] == 30

    def test_power_rounding_at_the_boundary(self):
        # Many stations share one site, so R' is computed over a long array
        # (numpy's vector path); only station k carries an interleaved channel.
        # The radio outpowers the stations, so the ** term is not lost
        # against the 1 it is added to.  The point sits at the smaller of
        # the two radii, where the two roundings disagree about d < R'.
        rng = random.Random(11)
        site, power, n = NgPoint(0.0, 500_000.0), 500.0, 2048
        erps = [rng.uniform(25, 1_000) for _ in range(n)]
        radii = [rng.uniform(5e3, 8e4) for _ in range(n)]
        txs = [Transmitter(f"t{i}", site, erps[i], 100.0, frozenset({35})) for i in range(n)]
        disks = {tx.id: disk_for(tx, r) for tx, r in zip(txs, radii)}
        fast = KeepoutDisks.build(TransmitterDb(tuple(txs)), disks, [power], PROP).radii[0]
        exact = [keepout_radius(power, erps[i], radii[i], PROP) for i in range(n)]
        cases = [k for k in range(n) if fast[k] != exact[k]][:6]
        if not cases:
            pytest.skip("numpy's ** agrees with Python's on every sample")
        for k in cases:
            carrier = Transmitter(f"t{k}", site, erps[k], 100.0, frozenset({21, 35}))
            db = TransmitterDb(tuple(txs[:k]) + (carrier,) + tuple(txs[k + 1 :]))
            point = NgPoint(min(float(fast[k]), exact[k]), site.northing)
            expected = rho_by_enumeration(db, disks, PLAN, point, power, PROP.alpha, PROP.beta_th)
            assert expected == (29 if fast[k] < exact[k] else 30)
            assert availability(db, disks, PLAN, QueryParams(point, power, PROP)).rho == expected
            assert availability_batch(db, disks, PLAN, [point], power, PROP)[0].rho == expected
            assert power_sweep(db, disks, PLAN, point, [power], PROP)[0][1] == expected
