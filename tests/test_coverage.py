import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (asc_cell_tokens, asc_text, covered_cell_corners,
                     enclosing_disk_of_every_cell, min_containing_radius)
from tvws.availability import availability_lowpower, raster_kernel
from tvws.channel_plan import default_plan, mask_channels
from tvws.coverage import (
    CoverageDisk,
    CoverageRaster,
    covers,
    enclosing_disk,
    load_disks,
    load_rasters,
    nominal_coverage_radius,
    read_asc,
    synth_coverage,
    write_asc,
    write_disk,
)
from tvws.errors import ParseError
from tvws.geo import EASTING_MAX, NORTHING_MAX, NgPoint, distance
from tvws.keepout import PropagationParams
from tvws.txdb import Transmitter, TransmitterDb

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


class TestEnclosingDiskOfRowEnds:
    """Each row's first and last covered cell give every cell's radius, to the bit."""

    @staticmethod
    def assert_same_radius(raster, tx):
        got = enclosing_disk(raster, tx).radius_m
        assert got.hex() == enclosing_disk_of_every_cell(raster, tx).radius_m.hex()

    @pytest.mark.parametrize("shape", ["one cell", "one row", "one column", "full", "ring"])
    @pytest.mark.parametrize("where", ["inside", "west", "north-east", "on an edge"])
    def test_shapes(self, shape, where):
        cells = {
            "one cell": np.ones((1, 1)),
            "one row": np.ones((1, 9)),
            "one column": np.ones((9, 1)),
            "full": np.ones((7, 5)),
            "ring": np.pad(np.zeros((3, 4)), 1, constant_values=1),
        }[shape]
        origin = NgPoint(100_000.0, 100_000.0)
        e, n = {"inside": (102_300.0, 101_700.0), "west": (90_000.0, 102_000.0),
                "north-east": (140_000.0, 160_000.0), "on an edge": (102_000.0, 100_000.0)}[where]
        raster = CoverageRaster("t1", origin, 1000.0, cells.astype(bool))
        self.assert_same_radius(raster, make_tx(e, n))

    @given(seed=st.integers(0, 10**6), cell=st.sampled_from([1e-3, 0.7, 1000.0, 2500.0]),
           shift=st.tuples(st.floats(-3, 3), st.floats(-3, 3)))
    @settings(max_examples=300, deadline=None)
    def test_random_rasters(self, seed, cell, shift):
        rng = random.Random(seed)
        tx = make_tx()
        raster = random_raster(rng, tx, max_side=20, cell=cell)
        side = raster.ncols * cell
        moved = make_tx(tx.position.easting + shift[0] * side,
                        tx.position.northing + shift[1] * side)
        self.assert_same_radius(raster, tx)
        self.assert_same_radius(raster, moved)


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
        """A ``.disk`` line is ``center_e center_n radius_m``, each as ``float`` reads it back."""
        disk = CoverageDisk("t1", NgPoint(123_456.789, 654_321.125), 43_210.0625)
        e, n, r = (float(v) for v in write_disk(disk).split())
        assert CoverageDisk("t1", NgPoint(e, n), r) == disk


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
        assert not list(cov_dir.glob("*.disk"))  # the disk pack is the only cache
        assert (cov_dir / ".tvws-disks.pack").is_file()
        again = load_disks(cov_dir, db)
        assert again == disks

    def test_load_disks_without_disk_or_raster(self, tree):
        db, cov_dir = tree
        (cov_dir / "s1.asc").unlink()
        with pytest.raises(FileNotFoundError) as info:
            load_disks(cov_dir, db)
        assert str(info.value) == f"no coverage raster for 's1': {cov_dir / 's1.asc'}"

    def test_load_disks_prefers_the_raster(self, tree):
        """A .disk beside its .asc is not read, and with no .asc it is no disk."""
        db, cov_dir = tree
        fake = CoverageDisk("s0", db.transmitters[0].position, 123.0)
        (cov_dir / "s0.disk").write_text(write_disk(fake))
        raster = read_asc((cov_dir / "s0.asc").read_text(), "s0")
        assert load_disks(cov_dir, db)["s0"] == enclosing_disk(raster, db.transmitters[0])
        (cov_dir / "s0.asc").unlink()
        with pytest.raises(FileNotFoundError, match="s0.asc"):
            load_disks(cov_dir, db)


ENVELOPE_LAST = (math.nextafter(EASTING_MAX, 0.0), math.nextafter(NORTHING_MAX, 0.0))


@st.composite
def raster_world(draw):
    """1-6 small rasters as ``.asc`` text, and points on their cell edges and the envelope's."""
    plan = default_plan()
    interleaved = sorted(plan.interleaved)
    stations = []
    for i in range(draw(st.integers(1, 6), label="stations")):
        ncols, nrows = draw(st.integers(1, 12)), draw(st.integers(1, 12))
        cell = draw(st.one_of(st.sampled_from([1e-323, 1e-300, 0.1, 1.0, 1000.0, 5000.0]),
                              st.floats(1e-323, 5000.0)), label="cell")
        # an extent from the envelope's west or south edge, or ending at its east
        # or north edge, or anywhere
        origin = []
        for axis, limit in ((0, EASTING_MAX), (1, NORTHING_MAX)):
            span = (ncols, nrows)[axis] * cell
            choice = draw(st.sampled_from(["low", "high", "free"]))
            if choice == "low":
                origin.append(0.0)
            elif choice == "high":  # a tiny span rounds to the limit, which lies past the envelope
                origin.append(min(max(0.0, limit - span), ENVELOPE_LAST[axis]))
            else:
                origin.append(draw(st.floats(0.0, limit, exclude_max=True)))
        values = draw(st.lists(st.lists(st.sampled_from([0, 1, 1, -9999]), min_size=ncols,
                                        max_size=ncols), min_size=nrows, max_size=nrows))
        channels = draw(st.sets(st.sampled_from(interleaved), min_size=1, max_size=4))
        stations.append((f"r{i}", origin, cell, values, channels))
    points = []
    for _ in range(draw(st.integers(1, 12), label="points")):
        _id, (e0, n0), cell, values, _ch = draw(st.sampled_from(stations))
        kind = draw(st.sampled_from(["corner", "edge", "envelope", "free"]))
        col = draw(st.integers(-1, len(values[0]) + 1))
        row = draw(st.integers(-1, len(values) + 1))
        e, n = e0 + col * cell, n0 + row * cell
        if kind == "edge":
            e += draw(st.sampled_from([0.5, 0.25])) * cell
        elif kind == "envelope":
            e = draw(st.sampled_from([0.0, ENVELOPE_LAST[0], e]))
            n = draw(st.sampled_from([0.0, ENVELOPE_LAST[1], n]))
        elif kind == "free":
            e = draw(st.floats(0.0, EASTING_MAX, exclude_max=True))
            n = draw(st.floats(0.0, NORTHING_MAX, exclude_max=True))
        points.append((min(max(e, 0.0), ENVELOPE_LAST[0]), min(max(n, 0.0), ENVELOPE_LAST[1])))
    return stations, points


def raster_by_tokens(text: str, tx_id: str) -> CoverageRaster:
    """The ``.asc`` text read with the oracle's token reader, not ``read_asc``."""
    lines = text.split("\n")
    header = {line.split()[0].lower(): float(line.split()[1]) for line in lines[:6]}
    cells = np.array(asc_cell_tokens("\n".join(lines[6:])))
    cells = cells.reshape(int(header["nrows"]), int(header["ncols"]))[::-1] == 1
    origin = NgPoint(header["xllcorner"], header["yllcorner"])
    return CoverageRaster(tx_id, origin, header["cellsize"], cells)


class TestRasterKernel:
    @given(world=raster_world())
    @settings(max_examples=150, deadline=None)
    def test_nominated_rasters_decide_as_covers_on_every_station(self, world, tmp_path_factory):
        """The raster kernel over a loaded set, a dict and a per-station ``covers`` loop agree.

        Cells from 1e-323 to 5 km, extents on the envelope's edges, and points
        on cell corners and edges, outside each extent by a cell, and on the
        envelope's edges.
        """
        stations, points = world
        plan = default_plan()
        cov_dir = tmp_path_factory.mktemp("rasters")
        texts = {}
        for tx_id, (e0, n0), cell, values, _channels in stations:
            texts[tx_id] = asc_text(e0, n0, cell, values)
            (cov_dir / f"{tx_id}.asc").write_text(texts[tx_id])
        db = TransmitterDb(tuple(Transmitter(tx_id, NgPoint(350_000.0, 650_000.0), 1000.0, 10.0,
                                             frozenset(channels))
                                 for tx_id, _o, _c, _v, channels in stations))
        loaded = load_rasters(cov_dir, db)
        plain = {tx_id: loaded[tx_id] for tx_id in db.ids}
        by_tokens = {tx_id: raster_by_tokens(texts[tx_id], tx_id) for tx_id in db.ids}
        east, north = (np.array(axis, dtype=float) for axis in zip(*points))
        masks = raster_kernel(db, plain, plan)(east, north)
        for k, (e, n) in enumerate(points):
            p = NgPoint(e, n)
            want = set()
            for tx in db.transmitters:
                if covers(by_tokens[tx.id], p):
                    want |= tx.channels & plan.interleaved
            assert availability_lowpower(db, loaded, plan, p).occupied == want, p
            assert availability_lowpower(db, plain, plan, p).occupied == want, p
            assert set(mask_channels(int(masks[k]))) == want, p
