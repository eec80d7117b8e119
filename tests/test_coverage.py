import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import covered_cell_corners, min_containing_radius
from tvws.coverage import (
    CoverageDisk,
    CoverageRaster,
    covers,
    enclosing_disk,
    load_disks,
    load_rasters,
    nominal_coverage_radius,
    read_asc,
    read_disk,
    synth_coverage,
    write_asc,
    write_disk,
)
from tvws.errors import ParseError
from tvws.geo import NgPoint, distance
from tvws.keepout import PropagationParams
from tvws.txdb import Transmitter

PROP = PropagationParams()


def make_tx(e=200_000.0, n=200_000.0, erp=50_000.0, tx_id="t1") -> Transmitter:
    return Transmitter(tx_id, NgPoint(e, n), erp, 100.0, frozenset({41, 44}))


def raster_from_rows(rows, origin=(100_000.0, 100_000.0), cell=1000.0, tx_id="t1"):
    # rows given north-first for readability; stored south-first
    cells = np.array(rows[::-1], dtype=bool)
    return CoverageRaster(tx_id, NgPoint(*origin), cell, cells)


def random_raster(rng: random.Random, tx: Transmitter, max_side=12, cell=1000.0):
    side = rng.randint(1, max_side)
    cells = np.array(
        [[rng.random() < 0.4 for _ in range(side)] for _ in range(side)], dtype=bool
    )
    if not cells.any():
        cells[rng.randrange(side), rng.randrange(side)] = True
    origin = NgPoint(
        tx.position.easting - side * cell / 2, tx.position.northing - side * cell / 2
    )
    return CoverageRaster(tx.id, origin, cell, cells)


class TestCovers:
    def test_center_of_true_cell(self):
        r = raster_from_rows([[0, 0], [1, 0]])
        assert covers(r, NgPoint(100_500.0, 100_500.0))

    def test_false_cell(self):
        r = raster_from_rows([[0, 0], [1, 0]])
        assert not covers(r, NgPoint(101_500.0, 100_500.0))

    def test_far_outside_extent(self):
        r = raster_from_rows([[1]])
        assert not covers(r, NgPoint(111_000.0, 100_500.0))

    def test_boundary_snaps_to_lower_indices(self):
        # (101000, 101000) sits exactly between four cell centres; the
        # tie-break picks the lower row and column, i.e. cell (0, 0).
        r = raster_from_rows([[0, 0], [1, 0]])  # only cell (row 0, col 0) covered
        assert covers(r, NgPoint(101_000.0, 101_000.0))
        r2 = raster_from_rows([[0, 1], [0, 0]])  # only cell (row 1, col 1)
        assert not covers(r2, NgPoint(101_000.0, 101_000.0))


class TestEnclosingDisk:
    def test_single_cell_at_transmitter(self):
        tx = make_tx(100_500.0, 100_500.0)
        r = raster_from_rows([[1]])
        disk = enclosing_disk(r, tx)
        # tx sits on the covered cell's centre; radius is the half-diagonal pad
        assert disk.radius_m == pytest.approx(1000.0 * math.sqrt(2) / 2)
        assert disk.center == tx.position

    def test_three_cell_east_arm(self):
        # Covered centres 0, 1 km and 2 km east of the transmitter. The
        # radius pads the farthest centre by the half cell diagonal so that
        # even that cell's corners stay inside.
        tx = make_tx(100_500.0, 100_500.0)
        r = raster_from_rows([[1, 1, 1]])
        disk = enclosing_disk(r, tx)
        assert disk.radius_m == pytest.approx(2000.0 + 1000.0 * math.sqrt(2) / 2)
        for e, n in covered_cell_corners(r):
            assert distance(tx.position, NgPoint(e, n)) <= disk.radius_m

    def test_corners_always_inside_random(self):
        rng = random.Random(1234)
        for _ in range(50):
            tx = make_tx()
            r = random_raster(rng, tx)
            disk = enclosing_disk(r, tx)
            for e, n in covered_cell_corners(r):
                assert math.hypot(
                    e - tx.position.easting, n - tx.position.northing
                ) <= disk.radius_m

    def test_radius_within_one_cell_of_bruteforce_minimum(self):
        rng = random.Random(99)
        for _ in range(50):
            tx = make_tx()
            r = random_raster(rng, tx)
            disk = enclosing_disk(r, tx)
            minimum = min_containing_radius(r, tx)
            assert minimum <= disk.radius_m <= minimum + r.cell_size_m

    def test_shrinking_by_more_than_cell_breaks_containment(self):
        rng = random.Random(7)
        for _ in range(25):
            tx = make_tx()
            r = random_raster(rng, tx)
            disk = enclosing_disk(r, tx)
            shrunk = disk.radius_m - r.cell_size_m * 1.0001
            violated = any(
                math.hypot(e - tx.position.easting, n - tx.position.northing) > shrunk
                for e, n in covered_cell_corners(r)
            )
            assert violated

    def test_no_covered_cell_is_error(self):
        tx = make_tx()
        r = raster_from_rows([[0, 0]])
        with pytest.raises(ValueError, match="no covered cell"):
            enclosing_disk(r, tx)

    def test_wrong_transmitter_rejected(self):
        tx = make_tx(tx_id="other")
        r = raster_from_rows([[1]])
        with pytest.raises(ValueError, match="belongs"):
            enclosing_disk(r, tx)


class TestSynthCoverage:
    def test_irregularity_zero_is_exact_disk(self):
        tx = make_tx()
        r = synth_coverage(tx, PROP, 1000.0, irregularity=0.0, seed=5)
        r_tv = nominal_coverage_radius(tx.erp_watts, PROP)
        for row in range(r.nrows):
            for col in range(0, r.ncols, 3):
                center = r.cell_center(row, col)
                expected = distance(center, tx.position) <= r_tv
                assert bool(r.cells[row, col]) == expected

    def test_same_seed_same_raster(self):
        tx = make_tx()
        a = synth_coverage(tx, PROP, 1000.0, 0.5, seed=9)
        b = synth_coverage(tx, PROP, 1000.0, 0.5, seed=9)
        assert np.array_equal(a.cells, b.cells)
        assert a.origin == b.origin

    def test_different_seed_differs(self):
        tx = make_tx()
        a = synth_coverage(tx, PROP, 1000.0, 0.5, seed=1)
        b = synth_coverage(tx, PROP, 1000.0, 0.5, seed=2)
        assert not np.array_equal(a.cells, b.cells)

    def test_quadrupled_erp_doubles_radius_at_alpha_2(self):
        prop2 = PropagationParams(alpha=2.0, beta_th=1.0)
        assert nominal_coverage_radius(4000.0, prop2) == pytest.approx(
            2 * nominal_coverage_radius(1000.0, prop2)
        )

    def test_disk_recovers_nominal_radius_within_one_cell(self):
        tx = make_tx()
        cell = 500.0
        r = synth_coverage(tx, PROP, cell, irregularity=0.0, seed=3)
        disk = enclosing_disk(r, tx)
        r_tv = nominal_coverage_radius(tx.erp_watts, PROP)
        assert abs(disk.radius_m - r_tv) <= cell

    def test_bad_irregularity(self):
        with pytest.raises(ValueError):
            synth_coverage(make_tx(), PROP, 1000.0, irregularity=1.5, seed=0)

    def test_bad_cell_size(self):
        with pytest.raises(ValueError):
            synth_coverage(make_tx(), PROP, 0.0, seed=0)

    def test_envelope_clipping_keeps_origin_valid(self):
        tx = make_tx(e=5_000.0, n=5_000.0, erp=200_000.0)
        r = synth_coverage(tx, PROP, 2000.0, 0.3, seed=4)
        assert r.origin.easting == 0.0
        assert r.origin.northing == 0.0


class TestAscFormat:
    def test_round_trip(self):
        tx = make_tx()
        r = synth_coverage(tx, PROP, 1500.0, 0.4, seed=8)
        back = read_asc(write_asc(r), tx.id)
        assert back.origin == r.origin
        assert back.cell_size_m == r.cell_size_m
        assert np.array_equal(back.cells, r.cells)

    def test_header_layout(self):
        r = raster_from_rows([[1, 0], [0, 1]])
        text = write_asc(r)
        lines = text.splitlines()
        assert lines[0].split() == ["ncols", "2"]
        assert lines[1].split() == ["nrows", "2"]
        # northernmost row first in the file
        assert lines[6] == "1 0"
        assert lines[7] == "0 1"

    def test_missing_header(self):
        with pytest.raises(ParseError, match="missing header"):
            read_asc("ncols 2\nnrows 2\n1 0\n0 1\n", "x")

    def test_wrong_cell_count(self):
        r = raster_from_rows([[1, 0]])
        text = write_asc(r).replace("1 0", "1")
        with pytest.raises(ParseError, match="cell values"):
            read_asc(text, "t1")

    def test_non_binary_value_rejected(self):
        r = raster_from_rows([[1, 0]])
        text = write_asc(r).replace("1 0", "1 7")
        with pytest.raises(ParseError):
            read_asc(text, "t1")

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_membership_survives_round_trip(self, seed):
        rng = random.Random(seed)
        tx = make_tx()
        r = random_raster(rng, tx, max_side=6)
        back = read_asc(write_asc(r), tx.id)
        p = NgPoint(rng.uniform(95_000, 215_000), rng.uniform(95_000, 215_000))
        assert covers(back, p) == covers(r, p)


class TestDiskFile:
    def test_round_trip(self):
        disk = CoverageDisk("t1", NgPoint(123_456.789, 654_321.125), 43_210.0625)
        assert read_disk(write_disk(disk), "t1") == disk

    def test_malformed(self):
        with pytest.raises(ParseError):
            read_disk("1 2\n", "t1")
        with pytest.raises(ParseError):
            read_disk("a b c\n", "t1")

    @pytest.mark.parametrize("text", [
        "1 2 -1", "1 2 0", "1 2 -0.0", "1 2 nan", "1 2 inf", "1 2 1e999",
        "1e9 0 5", "0 1300000 5", "-1 0 5", "700000 0 5", "nan 0 5", "0 -inf 5",
    ])
    def test_bad_values_name_the_file(self, text):
        with pytest.raises(ParseError, match=r"^a\.disk: "):
            read_disk(text, "x", source="a.disk")

    @given(st.one_of(
        st.text(max_size=60),
        st.lists(
            st.one_of(st.floats(), st.floats(0, 1.4e6),
                      st.sampled_from(["nan", "-inf", "1e999", "x"])),
            min_size=2, max_size=4,
        ).map(lambda vs: " ".join(map(str, vs))),
    ))
    @settings(max_examples=400, deadline=None)
    def test_only_parse_error_escapes(self, text):
        try:
            disk = read_disk(text, "t", source="fuzz.disk")
        except ParseError as exc:
            assert str(exc).startswith("fuzz.disk: ")
        else:
            assert math.isfinite(disk.radius_m) and disk.radius_m > 0


class TestDirectoryLoaders:
    @pytest.fixture
    def tree(self, tmp_path):
        from tvws.txdb import TransmitterDb

        txs = [make_tx(200_000.0 + 40_000 * i, 200_000.0, tx_id=f"s{i}") for i in range(3)]
        db = TransmitterDb(tuple(txs), source="test")
        cov_dir = tmp_path / "coverage"
        cov_dir.mkdir()
        for i, tx in enumerate(txs):
            r = synth_coverage(tx, PROP, 2000.0, 0.2, seed=i)
            (cov_dir / f"{tx.id}.asc").write_text(write_asc(r))
        return db, cov_dir

    def test_load_rasters(self, tree):
        db, cov_dir = tree
        rasters = load_rasters(cov_dir, db)
        assert set(rasters) == {tx.id for tx in db}

    def test_load_rasters_missing_file(self, tree, tmp_path):
        db, cov_dir = tree
        (cov_dir / "s1.asc").unlink()
        with pytest.raises(FileNotFoundError, match="s1"):
            load_rasters(cov_dir, db)

    def test_load_disks_derives_and_caches(self, tree):
        db, cov_dir = tree
        disks = load_disks(cov_dir, db)
        assert set(disks) == {tx.id for tx in db}
        assert all((cov_dir / f"{tx.id}.disk").is_file() for tx in db)
        again = load_disks(cov_dir, db)
        assert again == disks

    def test_load_disks_without_disk_or_raster(self, tree):
        db, cov_dir = tree
        (cov_dir / "s1.asc").unlink()
        with pytest.raises(FileNotFoundError, match="neither disk cache nor raster.*'s1'"):
            load_disks(cov_dir, db)

    def test_load_disks_prefers_cache(self, tree):
        db, cov_dir = tree
        fake = CoverageDisk("s0", db.transmitters[0].position, 123.0)
        (cov_dir / "s0.disk").write_text(write_disk(fake))
        disks = load_disks(cov_dir, db)
        assert disks["s0"].radius_m == 123.0
