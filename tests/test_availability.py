import math
import random
import sys
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import filtered_by_sets, occupied_by_enumeration, rho_by_enumeration
from tvws.availability import (
    AvailabilityResult,
    KeepoutDisks,
    adjacent_filter,
    availability,
    availability_grid,
    availability_lowpower,
    batch_kernel,
    channel_bits,
    channel_mask,
    contiguity,
    mask_counts,
    occupied_masks,
    power_sweep,
    vacancy,
)
from tvws.channel_plan import default_plan, load_plan
from tvws.coverage import CoverageDisk, enclosing_disk, synth_coverage
from tvws.geo import EASTING_MAX, NORTHING_MAX, BoundingBox, NgPoint, distance
from tvws.keepout import PropagationParams, QueryParams, keepout_radius
from tvws.report import build_report
from tvws.txdb import Transmitter, TransmitterDb

PLAN = default_plan()
PROP = PropagationParams()


def rho_of(mask):
    """rho from an occupied-channel mask of the default plan."""
    return len(PLAN.interleaved) - int(mask).bit_count()


def batch_masks(db, disks, points, power):
    """:func:`batch_kernel`'s occupied-channel masks at ``points``."""
    east = np.array([p.easting for p in points], dtype=float)
    north = np.array([p.northing for p in points], dtype=float)
    return batch_kernel(db, disks, PLAN, power, PROP)(east, north)


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

    @pytest.mark.parametrize("extra", [[41, 41], [21, 21], [68, 68, 68], [40, 41, 40, 41]])
    def test_repeated_blockers_filter_as_the_sets_do(self, extra):
        """A repeated channel blocks its neighbours once: its bit does not carry into the next."""
        expected = channel_mask(filtered_by_sets(PLAN.interleaved, set(), extra))
        result = make_result(PLAN.interleaved, set())
        assert channel_mask(adjacent_filter(result, extra)) == expected
        assert vacancy(np.zeros(1, dtype=np.uint64), PLAN, extra)[1].tolist() == [expected]
        assert build_report(["x"], [result], PLAN, 3.0, 1.0, extra).filtered.tolist() == [expected]

    @pytest.mark.parametrize("channel", [20, 69, 85])
    def test_blockers_outside_the_band_refused(self, channel):
        result = make_result(PLAN.interleaved, set())
        calls = [lambda: channel_mask([21, channel]),
                 lambda: adjacent_filter(result, [channel]),
                 lambda: vacancy(np.zeros(1, dtype=np.uint64), PLAN, [channel]),
                 lambda: build_report(["x"], [result], PLAN, 3.0, 1.0, [channel])]
        for call in calls:
            with pytest.raises(ValueError, match=f"^channel {channel} outside the UK UHF range"):
                call()

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


class TestMaskCounts:
    """``mask_counts`` equals ``bit_count`` and the ``m & (m >> 1)`` steps on Python ints."""

    @staticmethod
    def widest_by_steps(m: int) -> int:
        run = 0
        while m:
            m, run = m & (m >> 1), run + 1
        return run

    @given(st.lists(st.integers(0, 2**64 - 1), max_size=40), st.integers(0, 2**64 - 1))
    @settings(max_examples=200, deadline=None)
    def test_equals_the_python_int_steps(self, randoms, kept):
        rng = random.Random(len(randoms))
        masks = [0, 2**64 - 1, 0x5555_5555_5555_5555, 0xAAAA_AAAA_AAAA_AAAA,
                 *(1 << b for b in range(64)),
                 *((2**w - 1) << rng.randrange(65 - w) for w in range(1, 65)), *randoms]
        vacant = np.array(masks, dtype=np.uint64)
        rho, rho_kept, widest = mask_counts(vacant, vacant & np.uint64(kept))
        assert rho.tolist() == [m.bit_count() for m in masks]
        assert rho_kept.tolist() == [(m & kept).bit_count() for m in masks]
        assert widest.tolist() == [self.widest_by_steps(m) for m in masks]
        assert rho.dtype == rho_kept.dtype == widest.dtype == np.uint8

    def test_keeps_the_masks_shape(self):
        vacant = np.array([[0b1011, 0], [2**64 - 1, 0b110111]], dtype=np.uint64)
        rho, rho_kept, widest = mask_counts(vacant, vacant >> np.uint64(1))
        assert rho.tolist() == [[3, 0], [64, 5]]
        assert rho_kept.tolist() == [[2, 0], [63, 4]]
        assert widest.tolist() == [[2, 0], [64, 3]]


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
        # the same with a 1e-6 m disk whose edge is that centre
        tx = make_tx("a", float(np.nextafter(centre.easting + 1e-6, 0.0)), centre.northing,
                     1000, {21})
        db = TransmitterDb((tx,))
        disks = {"a": disk_for(tx, distance(centre, tx.position))}
        assert disks["a"].radius_m < 1e-6
        grid = availability_grid(db, disks, PLAN, region, 1000, 0.0, PROP)
        assert (grid.values == 30).all()
        disks = {"a": disk_for(tx, float(np.nextafter(disks["a"].radius_m, 1.0)))}
        grid = availability_grid(db, disks, PLAN, region, 1000, 0.0, PROP)
        assert grid.values[41, 33] == 29 and (grid.values == 30).sum() == grid.values.size - 1

    @pytest.mark.parametrize("power", POWERS)
    def test_batch_matches_oracle_and_single_queries(self, power):
        rng = random.Random(int(power * 1000) + 17)
        for _ in range(8):
            db, disks, points = boundary_instance(rng, power)
            masks = batch_masks(db, disks, points, power)
            assert masks.dtype == np.uint64 and masks.shape == (len(points),)
            for loc, mask in zip(points, masks.tolist()):
                single = availability(db, disks, PLAN, QueryParams(loc, power, PROP))
                assert mask == channel_mask(single.occupied)
                assert mask == channel_mask(occupied_by_enumeration(
                    db, disks, PLAN, loc, power, PROP.alpha, PROP.beta_th
                ))
                assert rho_of(mask) == rho_by_enumeration(
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
        cases = []
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
            cases.append((db, disks, 0.0 if case % 2 == 0 else rng.uniform(0.0, 4.0)))
        cases += self.lattice_edge_cases(centres[37])
        for db, disks, power in cases:
            grid = availability_grid(db, disks, PLAN, region, cell, power, PROP)
            assert grid.values.shape == (20, 24)
            for row in range(20):
                for col in range(24):
                    assert grid.values[row, col] == rho_by_enumeration(
                        db, disks, PLAN, grid.cell_center(row, col), power,
                        PROP.alpha, PROP.beta_th,
                    )

    @staticmethod
    def lattice_edge_cases(centre):
        """(db, disks, power) where the lattice kernel's interval ends are extreme."""
        def case(power, *stations):
            txs = tuple(make_tx(f"x{i}", e, n, erp, channels)
                        for i, (e, n, erp, channels, _) in enumerate(stations))
            return TransmitterDb(txs), {tx.id: disk_for(tx, st[4]) for tx, st in zip(txs, stations)}, power

        e, n = centre.easting, centre.northing
        off = float(np.nextafter(e + 1e-6, math.inf))
        return [
            # R' = inf (beta P / ERP overflows) and a huge finite R' from far away
            case(1e308, (230_000.0, 320_000.0, 0.5, {21, 22}, 1_000.0),
                 (100_000.0, 100_000.0, 1e5, {23}, 5_000.0)),
            # 1e-6 m disks: on a centre, with a centre on R', and a centre an ulp inside R'
            case(0.0, (e, n, 1_000.0, {21}, 1e-6),
                 (e + 1e-6, n, 1_000.0, {22}, math.hypot(1e-6 + e - e, 0.0)),
                 (off, n, 1_000.0, {23}, float(np.nextafter(off - e, math.inf)))),
            # stations outside the region whose disks reach in, on every side
            case(0.5, (190_000.0, 290_000.0, 2e4, {21, 24}, 30_000.0),
                 (275_000.0, 325_000.0, 2e4, {22}, 20_000.0),
                 (230_000.0, 365_000.0, 2e4, {23}, 16_000.3),
                 (230_000.0, 290_000.0, 2e4, {25}, 12_345.6)),
            # a station with no interleaved channel (35 is cleared) blocks nothing
            case(1.0, (230_000.0, 325_000.0, 1e4, {35}, 20_000.0),
                 (240_000.0, 330_000.0, 1e4, {21, 35}, 9_000.0)),
        ]

    def test_keepout_radius_overflowing_to_inf_warns_nothing(self):
        tx = make_tx("a", 300_000, 300_000, 25, {21})
        db, disks = TransmitterDb((tx,)), {"a": disk_for(tx, 30_000)}
        prop = PropagationParams(alpha=1.0)
        assert math.isinf(keepout_radius(1e308, 25, 30_000, prop))  # 4e306 * 3e4
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            kd = KeepoutDisks.build(db, disks, [1e308], prop)
            grid = availability_grid(db, disks, PLAN, BoundingBox(0, 0, 1e4, 1e4), 5e3, 1e308, prop)
        assert math.isinf(kd.radii[0, 0]) and (grid.values == 29).all()

    def test_batch_of_no_locations_is_empty(self):
        db, disks, _, _ = random_instance(random.Random(5))
        assert batch_masks(db, disks, [], 0.1).tolist() == []


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
            assert rho_of(batch_masks(db, disks, [point], 0.0)[0]) == 30
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
            assert rho_of(batch_masks(db, disks, [point], power)[0]) == expected
            assert power_sweep(db, disks, PLAN, point, [power], PROP)[0][1] == expected

    def test_scalar_keepout_two_ulps_past_numpy_reaches_the_point(self):
        # Where keepout_radius exceeds numpy's R' by more than an ulp, a point
        # an ulp beyond numpy's R' is still inside the scalar one: occupied.
        # The join must list the transmitter for it although it lies outside
        # a box of numpy's R' (here the point alone spans the lattice).
        rng = random.Random(12)
        site, n = NgPoint(0.0, 500_000.0), 2048
        erps = [rng.uniform(25, 1_000) for _ in range(n)]
        radii = [rng.uniform(5e3, 8e4) for _ in range(n)]
        txs = [Transmitter(f"t{i}", site, erps[i], 100.0, frozenset({35})) for i in range(n)]
        disks = {tx.id: disk_for(tx, r) for tx, r in zip(txs, radii)}
        cases = []
        for power in (500.0, 4.0, 1e4):
            fast = KeepoutDisks.build(TransmitterDb(tuple(txs)), disks, [power], PROP).radii[0]
            exact = [keepout_radius(power, erps[i], radii[i], PROP) for i in range(n)]
            cases += [(power, k, float(np.nextafter(fast[k], math.inf)))
                      for k in range(n) if np.nextafter(fast[k], math.inf) < exact[k]][:3]
        if not cases:
            pytest.skip("numpy's ** is never two ulps below Python's on these samples")
        for power, k, beyond in cases:
            carrier = Transmitter(f"t{k}", site, erps[k], 100.0, frozenset({21, 35}))
            db = TransmitterDb((carrier,))
            point = NgPoint(beyond, site.northing)
            assert rho_by_enumeration(db, disks, PLAN, point, power, PROP.alpha, PROP.beta_th) == 29
            assert rho_of(batch_masks(db, disks, [point], power)[0]) == 29
            assert power_sweep(db, disks, PLAN, point, [power / 2, power], PROP)[1][1] == 29


def oracle_masks(db, disks, points, powers):
    """Occupied-channel masks by pair enumeration, shape (powers, points)."""
    return np.array([
        [channel_mask(occupied_by_enumeration(db, disks, PLAN, loc, p, PROP.alpha, PROP.beta_th))
         for loc in points]
        for p in powers
    ], dtype=np.uint64).reshape(len(powers), len(points))


def kernel_masks(db, disks, points, powers):
    """:func:`occupied_masks` at each power, shape (powers, points)."""
    east = np.array([p.easting for p in points], dtype=float)
    north = np.array([p.northing for p in points], dtype=float)
    bits = channel_bits(db, PLAN)
    return np.array([occupied_masks(KeepoutDisks.build(db, disks, [p], PROP), bits, east, north)
                     for p in powers], dtype=np.uint64).reshape(len(powers), len(points))


KERNEL = sys.modules["tvws.availability"]  # the package re-exports a function by that name


@pytest.fixture(params=[None, (5, 7)], ids=["default-steps", "tiny-steps"])
def steps(request, monkeypatch):
    """Run with the kernel's own step sizes, and with tiny blocks and pair budgets."""
    if request.param:
        for name, value in zip(("_CHUNK_PAIRS", "_BLOCK_POINTS"), request.param):
            monkeypatch.setattr(KERNEL, name, value)


class TestBucketJoin:
    """The bucket join against the oracle where buckets, reach boxes and R' meet."""

    @staticmethod
    def spy_lattice(monkeypatch):
        seen = []
        original = KERNEL._lattice

        def spy(*args):
            seen.append(original(*args))
            return seen[-1]

        monkeypatch.setattr(KERNEL, "_lattice", spy)
        return seen

    def test_points_on_bucket_edges_and_keepout_circles(self, monkeypatch):
        seen = self.spy_lattice(monkeypatch)
        rng = random.Random(31)
        for case in range(6):
            power = (0.0, 0.2, 2.5)[case % 3]
            txs = [make_tx(f"b{i}", rng.uniform(180_000, 320_000), rng.uniform(180_000, 320_000),
                           rng.uniform(25, 200_000), rng.sample(sorted(PLAN.interleaved), 3))
                   for i in range(5)]
            db = TransmitterDb(tuple(txs))
            disks = {tx.id: disk_for(tx, rng.uniform(4_000, 40_000)) for tx in txs}
            box = [NgPoint(200_000.0, 200_000.0), NgPoint(300_000.0, 300_000.0)]
            base = box + [NgPoint(rng.uniform(2e5, 3e5), rng.uniform(2e5, 3e5)) for _ in range(98)]
            kernel_masks(db, disks, base, [power])
            e0, n0, edge, nx, ny = lattice = seen[-1]
            assert nx * ny > 1
            # the same bounding box, count and transmitters give the same lattice
            on_edges = []
            for k in range(1, nx):  # vertical bucket edges, where they cross a keep-out circle
                x = e0 + k * edge
                for tx in txs:
                    r = keepout_radius(power, tx.erp_watts, disks[tx.id].radius_m, PROP)
                    dx = x - tx.position.easting
                    if abs(dx) < r:
                        for s in (-1, 1):
                            y = tx.position.northing + s * math.sqrt(r * r - dx * dx)
                            on_edges += [(x, float(b)) for b in ulp_neighbours(y)]
            for k in range(1, ny):  # horizontal ones, with some points anywhere along them
                y = n0 + k * edge
                on_edges += [(rng.uniform(2e5, 3e5), y) for _ in range(3)]
            inside = [NgPoint(e, n) for e, n in on_edges if 2e5 <= e <= 3e5 and 2e5 <= n <= 3e5]
            points = box + (inside + base[2:])[:98]
            masks = kernel_masks(db, disks, points, [power])
            assert seen[-1] == lattice
            assert (masks == oracle_masks(db, disks, points, [power])).all()

    def test_keepout_disks_ending_on_the_lattice_edge(self):
        # The lattice starts at the points' smallest easting and northing, so
        # a disk that ends there ends on a bucket edge.  Each station's R' ends
        # on the line e = 200 km (or n = 200 km), an ulp short of it, or an ulp
        # past it; the points sit on that line.
        rng = random.Random(5)
        e0 = n0 = 200_000.0
        txs, disks, points = [], {}, [NgPoint(e0, n0), NgPoint(260_000.0, 260_000.0)]
        for i in range(12):
            r = float(rng.randrange(4_000, 40_000)) + 0.5
            along = float(rng.randrange(210_000, 250_000))
            pos = (e0 - r, along) if i % 2 else (along, n0 - r)
            tx = make_tx(f"e{i}", *pos, rng.uniform(25, 200_000),
                         rng.sample(sorted(PLAN.interleaved), 2))
            txs.append(tx)
            disks[tx.id] = disk_for(tx, float(rng.choice(ulp_neighbours(r))))
            touch = (e0, along) if i % 2 else (along, n0)
            points += [NgPoint(*touch)] + [
                NgPoint(touch[0], touch[1] + d) if i % 2 else NgPoint(touch[0] + d, touch[1])
                for d in (-1e-6, 1e-6, 0.5)
            ]
        db = TransmitterDb(tuple(txs))
        masks = kernel_masks(db, disks, points, [0.0])
        assert (masks == oracle_masks(db, disks, points, [0.0])).all()
        assert masks.any()  # some ulp-inside points are occupied

    def test_osgb_envelope_corners(self, steps):
        top_e, top_n = float(np.nextafter(700_000.0, 0)), float(np.nextafter(1_300_000.0, 0))
        corners = [(0.0, 0.0), (0.0, top_n), (top_e, 0.0), (top_e, top_n)]
        rng = random.Random(77)
        txs, disks = [], {}
        for i, (ce, cn) in enumerate(corners * 2):
            tx = make_tx(f"c{i}", abs(ce - rng.uniform(1_000, 60_000)),
                         abs(cn - rng.uniform(1_000, 60_000)), rng.uniform(25, 200_000),
                         rng.sample(sorted(PLAN.interleaved), 3))
            txs.append(tx)
            r = distance(NgPoint(ce, cn), tx.position)
            disks[tx.id] = disk_for(tx, float(rng.choice(ulp_neighbours(r))))
        db = TransmitterDb(tuple(txs))
        points = [NgPoint(float(a), float(b)) for ce, cn in corners
                  for a in ulp_neighbours(ce) for b in ulp_neighbours(cn)
                  if 0 <= a < 700_000 and 0 <= b < 1_300_000]
        for powers in ([0.0], [0.0, 0.01, 1.0]):
            masks = kernel_masks(db, disks, points, powers)
            assert (masks == oracle_masks(db, disks, points, powers)).all()
        envelope = BoundingBox(0, 0, 700_000, 1_300_000)
        for cell, shape in ((50_000, (26, 14)), (30_001, (44, 24))):  # 30,001 m does not divide it
            grid = availability_grid(db, disks, PLAN, envelope, cell, 0.0, PROP)
            assert grid.values.shape == shape
            centers_e, centers_n = grid_centres(envelope, cell)
            for row, n in enumerate(centers_n.tolist()):
                for col, e in enumerate(centers_e.tolist()):
                    # the last centres may lie past the envelope, where NgPoint refuses them
                    centre = SimpleNamespace(easting=e, northing=n)
                    assert grid.values[row, col] == rho_by_enumeration(
                        db, disks, PLAN, centre, 0.0, PROP.alpha, PROP.beta_th
                    )

    def test_random_points_and_powers(self, steps):
        rng = random.Random(404)
        for _ in range(12):
            db, disks, _, _ = random_instance(rng, max_tx=10)
            points = [NgPoint(rng.uniform(0, 699_999), rng.uniform(0, 1_299_999))
                      for _ in range(rng.randint(1, 60))] + [tx.position for tx in db][:3]
            powers = sorted(rng.choice([0.0, rng.uniform(0, 100)])
                            for _ in range(rng.randint(1, 4)))
            masks = kernel_masks(db, disks, points, powers)
            assert (masks == oracle_masks(db, disks, points, powers)).all()

    def test_multi_power_sweeps(self, steps):
        rng = random.Random(606)
        for _ in range(10):
            db, disks, loc, _ = random_instance(rng, max_tx=10)
            powers = [rng.choice([0.0, 1e-3, rng.uniform(0, 4.0), rng.uniform(0, 1e4)])
                      for _ in range(rng.randint(1, 40))]
            sweep = power_sweep(db, disks, PLAN, loc, powers, PROP)
            assert [p for p, _, _ in sweep] == powers
            for (p, rho, filtered) in sweep:
                result = availability(db, disks, PLAN, QueryParams(loc, p, PROP))
                assert rho == rho_by_enumeration(db, disks, PLAN, loc, p, PROP.alpha, PROP.beta_th)
                assert filtered == len(adjacent_filter(result))

    def test_one_point_is_one_bucket(self):
        east, north = np.array([123_456.0]), np.array([654_321.0])
        assert KERNEL._lattice(east, north, np.array([5e4, np.inf]))[3:] == (1, 1)
        line = np.linspace(0, 600_000, 50)
        _, _, edge, nx, ny = KERNEL._lattice(line, np.full(50, 7.0), np.array([2e4]))
        assert ny == 1 and nx <= 51


def grid_centres(region, cell):
    """:func:`availability_grid`'s cell centres: eastings by column, northings by row."""
    ncols = max(1, int(np.ceil(region.width / cell)))
    nrows = max(1, int(np.ceil(region.height / cell)))
    return (region.min_e + (np.arange(ncols) + 0.5) * cell,
            region.min_n + (np.arange(nrows) + 0.5) * cell)


def placed_origin(target, k, cell):
    """An origin whose lattice origin + (k + 0.5) * cell puts centre k on ``target`` if it can."""
    off = (k + 0.5) * cell
    origin = target - off
    for _ in range(8):
        if origin + off == target:
            break
        origin = np.nextafter(origin, math.inf if origin + off < target else -math.inf)
    return float(origin)


@st.composite
def tiny_disk_grids(draw):
    """``(kd, bits, centers_e, centers_n)``: disks of 1e-9 to 1e-3 m at the envelope's far side.

    R' is down to a few ulps of the coordinates there, and one row's centre and
    one column's lie at, or an ulp either side of, a reach-box end tn -+ R'
    and an interval end te -+ h of the first disk, h = sqrt(R'^2 - dy^2).
    """
    top = (float(np.nextafter(EASTING_MAX, 0)), float(np.nextafter(NORTHING_MAX, 0)))
    e, n = draw(st.just(top) | st.tuples(st.floats(6e5, top[0]), st.floats(1.2e6, top[1])))
    radius = 10.0 ** draw(st.floats(-9, -3))
    cell = radius * draw(st.floats(0.03, 1.0))
    txs, disks = [], {}
    for i in range(draw(st.integers(1, 6))):
        ei = min(e + draw(st.floats(-2, 2)) * radius, top[0]) if i else e
        ni = min(n + draw(st.floats(-2, 2)) * radius, top[1]) if i else n
        channels = draw(st.sampled_from([{21}, {22, 35}, {35}, {23, 24, 60}]))
        txs.append(make_tx(f"t{i}", ei, ni, draw(st.floats(0.5, 2e5)), channels))
        ri = min(max(radius * draw(st.floats(0.5, 2)), 1e-9), 1e-3) if i else radius
        disks[txs[-1].id] = disk_for(txs[-1], ri)
    db = TransmitterDb(tuple(txs))
    kd = KeepoutDisks.build(db, disks, [draw(st.sampled_from([0.0, 0.0, 1e-3]))], PROP)
    r = float(kd.radii[0, 0])
    ncols = nrows = int(2.5 * r / cell) + 2
    nudge = st.sampled_from([-math.inf, math.inf, None])

    def near(x):
        step = draw(nudge)
        return x if step is None else float(np.nextafter(x, step))

    k = draw(st.integers(0, nrows - 1))
    centers_n = placed_origin(near(n + draw(st.sampled_from([-r, r]))), k, cell) + (
        np.arange(nrows) + 0.5) * cell
    dy = abs(centers_n[draw(st.integers(0, nrows - 1))] - n)
    h = math.sqrt(max(r - dy, 0.0)) * math.sqrt(r + dy)
    k = draw(st.integers(0, ncols - 1))
    centers_e = placed_origin(near(e + draw(st.sampled_from([-h, h]))), k, cell) + (
        np.arange(ncols) + 0.5) * cell
    return kd, channel_bits(db, PLAN), centers_e, centers_n


class TestLatticeKernel:
    """The grid's lattice kernel against the scattered-point kernel and the oracle."""

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_lattice_masks_equal_occupied_masks_on_the_centres(self, data):
        cell = data.draw(st.sampled_from([1e-11, 1e-3, 0.37, 250.0, 1_000.0, 2_500.0, 33_333.3]))
        if cell < 1e-9:  # below the ulp at the envelope's top corner: centres repeat
            region = BoundingBox(699_999.0, 1_299_999.0, 699_999.0 + 30 * cell,
                                 1_299_999.0 + 30 * cell)
        else:
            e0 = data.draw(st.floats(0, 600_000))
            n0 = data.draw(st.floats(0, 1_200_000))
            region = BoundingBox(e0, n0, e0 + data.draw(st.floats(cell / 3, 30 * cell)),
                                 n0 + data.draw(st.floats(cell / 3, 30 * cell)))
        centers_e, centers_n = grid_centres(region, cell)
        east, north = (a.ravel() for a in np.meshgrid(centers_e, centers_n))
        txs, disks = [], {}
        for i in range(data.draw(st.integers(1, 6))):
            k = data.draw(st.integers(0, east.size - 1))
            e = min(max(east[k] + data.draw(st.floats(-40 * cell, 40 * cell)), 0.0), 699_999.0)
            n = min(max(north[k] + data.draw(st.floats(-40 * cell, 40 * cell)), 0.0), 1_299_999.0)
            channels = data.draw(st.sampled_from([{21}, {22, 35}, {35}, {23, 24, 60}]))
            tx = make_tx(f"h{i}", e, n, data.draw(st.floats(0.5, 2e5)), channels)
            txs.append(tx)
            if data.draw(st.booleans()):  # R' at power 0 within an ulp of a centre's distance
                d = math.hypot(east[k] - tx.position.easting, north[k] - tx.position.northing)
                radius = float(data.draw(st.sampled_from(ulp_neighbours(d))))
            elif cell < 1e-9:  # R' some 20 ulps of the top northing: interval ends among the centres
                radius = 2.0**-48 * 1.3e6 + data.draw(st.floats(0, 60 * cell))
            else:
                radius = data.draw(st.floats(1e-6, 60 * cell))
            disks[tx.id] = disk_for(tx, max(radius, 1e-9))
        db = TransmitterDb(tuple(txs))
        power = data.draw(st.sampled_from([0.0, 0.0, 1e-3, 1.0, 4.0, 1e308]))
        kd = KeepoutDisks.build(db, disks, [power], PROP)
        bits = channel_bits(db, PLAN)
        masks = np.zeros((centers_n.size, centers_e.size), dtype=np.uint64)
        KERNEL._grid_fill(masks, kd, bits, centers_e, centers_n)
        expected = occupied_masks(kd, bits, east, north).reshape(masks.shape)
        assert (masks == expected).all()

    @given(tiny_disk_grids())
    @settings(max_examples=120, deadline=None)
    def test_lattice_masks_exact_where_r_is_a_few_ulps_of_the_coordinates(self, grid):
        kd, bits, centers_e, centers_n = grid
        masks = np.zeros((centers_n.size, centers_e.size), dtype=np.uint64)
        KERNEL._grid_fill(masks, kd, bits, centers_e, centers_n)
        east, north = (a.ravel() for a in np.meshgrid(centers_e, centers_n))
        assert (masks.ravel() == occupied_masks(kd, bits, east, north)).all()

    @pytest.mark.parametrize("e0, cell, n", [
        (0.0, 3_000.0, 234),  # the envelope's eastings at 3 km
        (12_345.678, 0.37, 1_000),
        (250_000.0, 25_000.0, 1),  # one column
        (690_000.0, 3_000.0, 20),  # centres past the envelope's edge
        (699_999.0, 1e-11, 2),  # sub-ulp cells: the centres are equal, step 0
        (699_999.0, 1e-11, 40),  # sub-ulp cells: centres repeat, runs of about 10
        (0.0, 1e-305, 100),  # (x - c[0]) / step overflows
    ])
    def test_lattice_index_equals_searchsorted(self, e0, cell, n):
        c = e0 + (np.arange(n) + 0.5) * cell
        rng = np.random.default_rng(16)
        keys = np.concatenate([
            [-np.inf, np.inf, c[0] - 1e6, c[-1] + 1e6],
            np.nextafter(c, -np.inf), c, np.nextafter(c, np.inf), c - cell / 2, c + cell / 2,
            rng.uniform(c[0] - 3 * cell, c[-1] + 3 * cell, 1_000),
        ])
        for side in ("left", "right"):
            assert (KERNEL._lattice_index(c, keys, side) == np.searchsorted(c, keys, side)).all()

    def test_millimetre_cells_across_the_top_of_a_disk(self, monkeypatch):
        """Where a keep-out circle runs along a row, ~430 of its cells are in the zone."""
        tx = make_tx("a", 300_000, 300_000, 1000, {21, 44})
        db = TransmitterDb((tx,))
        disks = {"a": disk_for(tx, 40_000.0)}
        region = BoundingBox(299_999.5, 339_999.5005, 300_000.5, 340_000.5005)  # 1 m square
        centers_e, centers_n = grid_centres(region, 0.001)
        assert abs(centers_n[499] - 340_000.0) < 1e-9  # row 499 is tangent to R'
        kd = KeepoutDisks.build(db, disks, [0.0], PROP)
        east, north = (a.ravel() for a in np.meshgrid(centers_e, centers_n))
        expected = np.where(kd.inside(east, north, np.zeros(east.size, dtype=int))[0], 28, 30)

        tested = []
        inside = KeepoutDisks.inside

        def spy(self, east, north, t):
            tested.append(east.size)
            return inside(self, east, north, t)

        monkeypatch.setattr(KeepoutDisks, "inside", spy)
        grid = availability_grid(db, disks, PLAN, region, 0.001, 0.0, PROP)
        assert grid.values.shape == (1000, 1000)
        assert sum(tested) > 300
        assert (grid.values.ravel() == expected).all()
        assert set(np.unique(grid.values).tolist()) == {28, 30}
        for row in (498, 499, 500):
            for col in range(0, 1000, 7):
                assert grid.values[row, col] == rho_by_enumeration(
                    db, disks, PLAN, grid.cell_center(row, col), 0.0, PROP.alpha, PROP.beta_th
                )


class TestRhoGridValues:
    def test_uint8_counts_of_the_vacant_channels(self):
        rng = random.Random(8)
        region, cell = BoundingBox(0, 0, 700_000, 1_300_000), 25_000
        east, north = (a.ravel() for a in np.meshgrid(*grid_centres(region, cell)))
        for plan in (PLAN, load_plan("interleaved = 21-60\n")):  # 30 and 40 channels
            db, disks, _, power = random_instance(rng, max_tx=8)
            grid = availability_grid(db, disks, plan, region, cell, power, PROP)
            assert grid.values.dtype == np.uint8
            kd = KeepoutDisks.build(db, disks, [power], PROP)
            occupied = occupied_masks(kd, channel_bits(db, plan), east, north)
            expected = [len(plan.interleaved) - int(m).bit_count() for m in occupied.tolist()]
            assert grid.values.ravel().tolist() == expected
            assert len(set(expected)) > 1


class TestPointKernel:
    """The one-point kernel of ``availability`` and ``power_sweep`` against ``occupied_masks``."""

    @staticmethod
    def check(db, disks, loc, powers):
        kd = KeepoutDisks.build(db, disks, powers, PROP)
        bits = channel_bits(db, PLAN)
        masks, inside = KERNEL._point_masks(kd, bits, loc)
        assert masks.dtype == np.uint64 and masks.shape == (len(powers),)
        assert inside.shape == (len(powers), len(db))
        east, north = np.array([loc.easting]), np.array([loc.northing])
        for p, power in enumerate(powers):
            one = KeepoutDisks.build(db, disks, [power], PROP)
            assert masks[p] == occupied_masks(one, bits, east, north)[0]
        return masks

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_point_masks_equal_occupied_masks_power_by_power(self, data):
        loc = NgPoint(data.draw(st.floats(0, 699_999)), data.draw(st.floats(0, 1_299_999)))
        txs, disks = [], {}
        for i in range(data.draw(st.integers(0, 6))):
            e = min(max(loc.easting + data.draw(st.floats(-1e5, 1e5)), 0.0), 699_999.0)
            n = min(max(loc.northing + data.draw(st.floats(-1e5, 1e5)), 0.0), 1_299_999.0)
            channels = data.draw(st.sampled_from([{21}, {22, 35}, {35}, {23, 24, 60}]))
            tx = make_tx(f"p{i}", e, n, data.draw(st.floats(0.5, 2e5)), channels)
            txs.append(tx)
            if data.draw(st.booleans()):  # R' at power 0 within an ulp of the point's distance
                d = math.hypot(loc.easting - e, loc.northing - n)
                radius = float(data.draw(st.sampled_from(ulp_neighbours(d))))
            else:
                radius = data.draw(st.floats(1e-6, 2e5))
            disks[tx.id] = disk_for(tx, max(radius, 1e-9))
        powers = data.draw(st.lists(
            st.sampled_from([0.0, 1e-3, 1.0, 4.0, 1e308]) | st.floats(0.0, 1e4),
            min_size=1, max_size=5))
        self.check(TransmitterDb(tuple(txs)), disks, loc, powers)

    def test_no_transmitters(self):
        masks = self.check(TransmitterDb(()), {}, NgPoint(300_000.0, 300_000.0), [0.0, 1.0])
        assert masks.tolist() == [0, 0]

    def test_one_transmitter_at_and_an_ulp_either_side_of_the_point(self):
        tx = make_tx("a", 300_000.0, 300_000.0, 1000, {21, 35})
        loc = NgPoint(312_345.678, 301_234.5)
        d = distance(loc, tx.position)
        occupied = []
        for radius in ulp_neighbours(d):
            disks = {"a": disk_for(tx, float(radius))}
            occupied += self.check(TransmitterDb((tx,)), disks, loc, [0.0]).tolist()
        assert occupied == [0, 0, 1]  # strictly inside only past the point


class TestPowerStaircase:
    """``power_sweep``'s staircase against ``occupied_masks`` at each power, and the oracle."""

    @staticmethod
    def check(db, disks, loc, powers, prop=PROP):
        """Sweep masks (spied from ``vacancy``) and how many transmitters fell back."""
        seen, slow = [], []
        point_masks = KERNEL._point_masks
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(KERNEL, "vacancy",
                       lambda masks, plan: seen.append(masks.copy()) or vacancy(masks, plan))
            mp.setattr(KERNEL, "_point_masks",
                       lambda kd, bits, at: slow.append(kd.east.size) or point_masks(kd, bits, at))
            sweep = power_sweep(db, disks, PLAN, loc, powers, prop)
        assert [p for p, _, _ in sweep] == list(powers)
        (masks,) = seen
        bits = channel_bits(db, PLAN)
        east, north = np.array([loc.easting]), np.array([loc.northing])
        for power, mask in zip(powers, masks.tolist()):
            one = KeepoutDisks.build(db, disks, [power], prop)
            assert mask == occupied_masks(one, bits, east, north)[0]
            assert mask == channel_mask(occupied_by_enumeration(
                db, disks, PLAN, loc, power, prop.alpha, prop.beta_th))
        vacant, kept = vacancy(masks, PLAN)
        assert [(rho, filtered) for _, rho, filtered in sweep] == list(
            zip(np.bitwise_count(vacant).tolist(), np.bitwise_count(kept).tolist()))
        return masks, sum(slow)

    @staticmethod
    def step_power(d, erp, radius, prop):
        """The power at which R' = d, by the scalar formula: its ulp neighbours lie on the step."""
        with np.errstate(over="ignore"):
            ratio = np.float64(d / radius - 1.0)
            return float(np.float64(erp / prop.beta_th) * ratio**prop.alpha)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_sweep_equals_occupied_masks_power_by_power(self, data):
        loc = NgPoint(data.draw(st.floats(0, 699_999)), data.draw(st.floats(0, 1_299_999)))
        prop = PropagationParams(data.draw(st.sampled_from([1.0, 3.0, 3.0, 2.5, 40.0])),
                                 data.draw(st.sampled_from([1.0, 0.5, 7.0])))
        txs, disks, powers = [], {}, []
        for i in range(data.draw(st.integers(0, 6))):
            e = min(max(loc.easting + data.draw(st.floats(-1e5, 1e5)), 0.0), 699_999.0)
            n = min(max(loc.northing + data.draw(st.floats(-1e5, 1e5)), 0.0), 1_299_999.0)
            channels = data.draw(st.sampled_from([{21}, {22, 35}, {35}, {23, 24, 60}]))
            tx = make_tx(f"s{i}", e, n, data.draw(st.floats(0.5, 2e5)), channels)
            txs.append(tx)
            d = math.hypot(loc.easting - e, loc.northing - n)
            shape = data.draw(st.sampled_from(["step", "step", "edge", "covers", "any"]))
            if shape == "step" and d > 0:  # a power within ulps of R' = d, and its neighbours
                # the disk's own radius: d / k underflows to 0 for a subnormal d
                radius = max(d / data.draw(st.floats(1.0, 40.0)), 1e-9)
                p = self.step_power(d, tx.erp_watts, radius, prop) if radius <= d else math.inf
                if math.isfinite(p):
                    powers += [float(x) for x in ulp_neighbours(p)]
                    powers += [float(np.nextafter(p, -math.inf) * (1 - 2**-52)), p * (1 + 2**-50)]
            elif shape == "edge":  # d == R_tv: the step sits at 0 W
                radius = d
            elif shape == "covers":  # d < R_tv: blocks at every power
                radius = d * data.draw(st.floats(1.0, 3.0)) + 1e-6
            else:
                radius = data.draw(st.floats(1e-6, 2e5))
            disks[tx.id] = disk_for(tx, max(radius, 1e-9))
        powers = [p for p in powers if p >= 0.0]
        powers += data.draw(st.lists(
            st.sampled_from([0.0, 1e-3, 1.0, 4.0, 1e308, 5e-324]) | st.floats(0.0, 1e4)
            | st.floats(0.0, 1e-6) | st.floats(1e6, 1e300), max_size=12))
        powers = data.draw(st.permutations(powers or [0.0]))
        powers += data.draw(st.lists(st.sampled_from(powers), max_size=3))  # repeats
        self.check(TransmitterDb(tuple(txs)), disks, loc, powers, prop)

    def test_no_transmitters(self):
        masks, slow = self.check(TransmitterDb(()), {}, NgPoint(300_000.0, 300_000.0), [4.0, 0.0])
        assert masks.tolist() == [0, 0] and slow == 0

    def test_clear_steps_need_no_per_power_test(self):
        # a covers the point, b blocks from between 4 and 20 W, c only at 1e308 W (R' = inf)
        loc = NgPoint(300_000.0, 300_000.0)
        txs = (make_tx("a", 310_000.0, 300_000.0, 1000, {21}),
               make_tx("b", 300_000.0, 350_000.0, 1000, {22}),
               make_tx("c", 300_000.0, 500_000.0, 10, {23}))
        disks = {"a": disk_for(txs[0], 20_000.0), "b": disk_for(txs[1], 40_000.0),
                 "c": disk_for(txs[2], 10_000.0)}
        powers = [4.0, 0.0, 1e-3, 20.0, 1e308, 4.0]
        masks, slow = self.check(TransmitterDb(txs), disks, loc, powers)
        assert masks.tolist() == [1, 1, 1, 3, 7, 1]
        assert slow == 0

    @pytest.mark.parametrize("alpha", [1.0, 3.0, 60.0])
    def test_powers_an_ulp_either_side_of_the_step(self, alpha):
        prop = PropagationParams(alpha)
        loc = NgPoint(312_345.678, 301_234.5)
        tx = make_tx("a", 300_000.0, 300_000.0, 1000, {21, 35})
        d, radius = distance(loc, tx.position), 8_000.0
        p = self.step_power(d, 1000, radius, prop)
        while keepout_radius(p, 1000, radius, prop) <= d:  # the first power past the step
            p = float(np.nextafter(p, math.inf))
        below = float(np.nextafter(p, -math.inf))
        slow = []
        for powers in ([below, p], [0.0, below, p, 1e308], [p, below, below, 1e308],
                       [0.0, p, below, p]):
            masks, fell_back = self.check(TransmitterDb((tx,)), {"a": disk_for(tx, radius)}, loc,
                                          powers, prop)
            assert masks.tolist() == [int(power >= p) for power in powers]
            slow.append(fell_back)
        # a repeat of the power below (above) the step leaves no clearance below (above)
        # the window, wherever the breakpoint lands: that station is tested at every power
        assert slow[2:] == [1, 1]

    def test_coverage_edge_on_the_point(self):
        loc = NgPoint(312_345.678, 301_234.5)
        tx = make_tx("a", 300_000.0, 300_000.0, 1000, {21})
        for radius, zero in ((distance(loc, tx.position), 0), (12_000.0, 0), (50_000.0, 1)):
            masks, _ = self.check(TransmitterDb((tx,)), {"a": disk_for(tx, radius)}, loc,
                                  [0.0, 0.0, 1e-9, 2.0, 0.0])
            assert masks[0] == zero and masks[3] == 1

    def test_subnormal_distances_and_radii(self):
        # a point a few 2^-1074 m from the station, radii of the same size: R' and d subnormal
        tx = make_tx("a", 0.0, 0.0, 1000, {21})
        powers = [0.0, 5e-324, 1e-300, 1.0, 1e3, 1e6, 1e308]
        for east in (5e-324, 2.5e-322, 1e-310):
            loc = NgPoint(east, 0.0)
            for radius in (5e-324, max(east / 3, 5e-324), east, float(np.nextafter(east, 1)),
                           1e-300):
                for alpha in (1.0, 3.0):
                    self.check(TransmitterDb((tx,)), {"a": disk_for(tx, radius)}, loc, powers,
                               PropagationParams(alpha))
