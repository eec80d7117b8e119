"""Coverage packs: a packed load always equals a file-by-file read.

``load_stations``/``load_disks``/``load_rasters`` take each pack part
(the txdb, the disks, the rasters) whole from the directory's pack only
while every one of its source files' stat keys matches and every source is
older than the pack; otherwise they read every file of that part again, so
a read count after a miss is the part's whole file count.  A station's
disk has one source file, its ``.asc``; the ``.disk`` beside it is output
only.  Every test here changes the directory behind the pack's back and
checks the load against ``load_txdb`` and ``oracles.coverage_from_files``.
"""

import builtins
import io
import json
import math
import os
import pickle
import shutil
import subprocess
import sys
import tempfile
import time
import types
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import tvws
from oracles import coverage_from_files, coverage_values
from tvws import coverage as cov
from tvws.availability import availability, availability_lowpower
from tvws.channel_plan import default_plan
from tvws.cli import main
from tvws.geo import NgPoint
from tvws.keepout import PropagationParams, QueryParams
from tvws.txdb import Transmitter, TransmitterDb, load_txdb, serialize

KINDS = ("disks", "rasters")
PACK = {"disks": "stations", "rasters": "rasters"}  # the pack of each
KEYS = {"disks": "disk_keys", "rasters": "keys"}
LOAD = {"disks": cov.load_disks, "rasters": cov.load_rasters}


def make_db(n=3):
    return TransmitterDb(
        tuple(
            Transmitter(f"s{i}", NgPoint(200_000.0 + 40_000 * i, 200_000.0), 50_000.0,
                        100.0, frozenset({41 + i}))
            for i in range(n)
        ),
        source="test",
    )


def write_sources(cov_dir, db, cell=2000.0):
    """Each station's ``.asc``, and the ``.disk`` ``tvws disks`` writes, which no load reads."""
    for i, tx in enumerate(db):
        raster = cov.synth_coverage(tx, PropagationParams(), cell, 0.2, seed=i)
        (cov_dir / f"{tx.id}.asc").write_text(cov.write_asc(raster))
        (cov_dir / f"{tx.id}.disk").write_text(cov.write_disk(cov.enclosing_disk(raster, tx)))


def settle(cov_dir, *more):
    """Wait until a file written now is stamped later than every file in the directories.

    Without this a pack written right after its sources can share their
    timestamp tick, and the racy-clean rule then rightly re-reads them.
    """
    newest = max(max(p.stat().st_mtime_ns, p.stat().st_ctime_ns)
                 for d in (cov_dir, *more) for p in d.iterdir())
    probe = cov_dir.parent / "probe"
    while True:
        probe.write_bytes(b"")
        if probe.stat().st_mtime_ns > newest:
            return
        time.sleep(0.001)


def pack_path(cov_dir, kind):
    return cov_dir / cov._PACK_NAMES[PACK[kind]]


def rewrite_pack(cov_dir, kind, **changes):
    """Write the pack again with some fields replaced."""
    _mtime, arrays = cov._read_pack(str(pack_path(cov_dir, kind)), PACK[kind])
    cov._write_pack(str(pack_path(cov_dir, kind)), PACK[kind], {**arrays, **changes})


@pytest.fixture
def tree(tmp_path):
    db = make_db()
    cov_dir = tmp_path / "coverage"
    cov_dir.mkdir()
    write_sources(cov_dir, db)
    settle(cov_dir)
    return db, cov_dir


@pytest.fixture
def file_reads(monkeypatch):
    """Counts of read_asc/load_txdb calls made through the loaders, by what they read."""
    counts = {".asc": 0, "txdb": 0}

    def counting(kind, real):
        def wrapper(*args, **kwargs):
            counts[kind] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cov, "read_asc", counting(".asc", cov.read_asc))
    monkeypatch.setattr(cov, "load_txdb", counting("txdb", cov.load_txdb))
    return counts


def check(kind, cov_dir, db):
    """Load, compare with the file-by-file reference, and return the load."""
    got = LOAD[kind](cov_dir, db)
    want = coverage_from_files(cov_dir, db, "rasters" if kind == "rasters" else "disks")
    assert coverage_values(got) == coverage_values(want)
    return got


def same_size_edit(path):
    """Change a cell of an ``.asc`` without changing its size.

    The last 0 becomes a 1: the south-east corner cell, which lies farther
    from the transmitter than any covered cell, so the raster's disk
    changes too.
    """
    text = path.read_text()
    cut = text.rindex("0")
    edited = text[:cut] + "1" + text[cut + 1:]
    assert len(edited) == len(text) and edited != text
    return edited


def restore_mtime(path, st):
    os.utime(path, ns=(st.st_atime_ns, st.st_mtime_ns))


@pytest.mark.parametrize("kind", KINDS)
class TestFreshness:
    def test_second_load_comes_from_the_pack(self, kind, tree, file_reads):
        db, cov_dir = tree
        check(kind, cov_dir, db)
        assert file_reads[".asc"] == len(db)
        assert pack_path(cov_dir, kind).is_file()
        check(kind, cov_dir, db)
        assert file_reads[".asc"] == len(db)

    def test_same_size_edit_with_mtime_restored(self, kind, tree, file_reads):
        db, cov_dir = tree
        before = coverage_values(check(kind, cov_dir, db))
        source = cov_dir / "s1.asc"
        st = source.stat()
        source.write_text(same_size_edit(source))
        restore_mtime(source, st)
        assert source.stat().st_size == st.st_size
        assert source.stat().st_mtime_ns == st.st_mtime_ns
        after = coverage_values(check(kind, cov_dir, db))
        assert after["s1"] != before["s1"]
        assert file_reads[".asc"] == 2 * len(db)  # the miss reads the whole part again

    @pytest.mark.parametrize("field", ["st_size", "st_mtime_ns", "st_ctime_ns", "st_ino"])
    def test_every_stat_field_is_in_the_key(self, kind, tree, file_reads, monkeypatch, field):
        """A source whose stat differs from its key in one field has its whole part read again.

        Times move back a nanosecond, so the source stays older than the pack.
        """
        db, cov_dir = tree
        check(kind, cov_dir, db)
        target = str(cov_dir / "s1.asc")
        real_stat = os.stat

        def shifted(path, *args, **kwargs):
            st = real_stat(path, *args, **kwargs)
            if path != target:
                return st
            fields = {name: getattr(st, name) for name in
                      ("st_mode", "st_size", "st_mtime_ns", "st_ctime_ns", "st_ino")}
            fields[field] += -1 if field.endswith("_ns") else 1
            return types.SimpleNamespace(**fields)

        monkeypatch.setattr(os, "stat", shifted)
        LOAD[kind](cov_dir, db)
        assert file_reads[".asc"] == 2 * len(db)

    def test_edit_between_read_and_pack_write(self, kind, tree, monkeypatch):
        """An edit after the read but before the pack write is read again.

        The edit keeps size, mtime and inode; only the ctime in the key
        gives it away once the pack is stamped later than the edit.
        """
        db, cov_dir = tree
        path = cov_dir / "s1.asc"
        real = cov.read_asc

        def read_then_edit(text, tx_id, source):
            value = real(text, tx_id, source=source)
            if tx_id == "s1":
                st = path.stat()
                path.write_text(same_size_edit(path))
                restore_mtime(path, st)
            return value

        monkeypatch.setattr(cov, "read_asc", read_then_edit)
        LOAD[kind](cov_dir, db)
        monkeypatch.undo()
        later = path.stat().st_ctime_ns + 1
        os.utime(pack_path(cov_dir, kind), ns=(later, later))
        check(kind, cov_dir, db)

    def test_replace_by_rename(self, kind, tree):
        db, cov_dir = tree
        before = coverage_values(check(kind, cov_dir, db))
        source = cov_dir / "s2.asc"
        st = source.stat()
        new = cov_dir / "incoming.tmp"
        new.write_text(same_size_edit(source))
        restore_mtime(new, st)
        os.replace(new, source)
        after = coverage_values(check(kind, cov_dir, db))
        assert after["s2"] != before["s2"]

    def test_deleted_source(self, kind, tree):
        """With its .asc gone a station fails, naming the .asc, though its .disk is still there."""
        db, cov_dir = tree
        check(kind, cov_dir, db)
        (cov_dir / "s0.asc").unlink()
        assert (cov_dir / "s0.disk").is_file()
        with pytest.raises(FileNotFoundError) as info:
            LOAD[kind](cov_dir, db)
        assert str(info.value) == f"no coverage raster for 's0': {cov_dir / 's0.asc'}"

    def test_transmitter_added_to_the_txdb(self, kind, tree, file_reads):
        db, cov_dir = tree
        check(kind, cov_dir, db)
        bigger = make_db(5)
        write_sources(cov_dir, TransmitterDb(bigger.transmitters[3:], source="test"))
        settle(cov_dir)
        check(kind, cov_dir, bigger)  # another station list: every .asc is read again
        assert file_reads[".asc"] == len(db) + len(bigger)
        check(kind, cov_dir, bigger)
        assert file_reads[".asc"] == len(db) + len(bigger)
        check(kind, cov_dir, db)  # so is a smaller one
        assert file_reads[".asc"] == 2 * len(db) + len(bigger)

    def test_copytree(self, kind, tree, tmp_path):
        db, cov_dir = tree
        check(kind, cov_dir, db)
        copy = tmp_path / "copy"
        shutil.copytree(cov_dir, copy)  # pack and sources, mtimes kept
        source = copy / "s1.asc"
        st = source.stat()
        source.write_text(same_size_edit(source))
        restore_mtime(source, st)
        copied = coverage_values(check(kind, copy, db))
        original = coverage_values(check(kind, cov_dir, db))
        assert copied["s1"] != original["s1"]

    @pytest.mark.parametrize("stamp", ["mtime", "ctime", "older"])
    def test_racy_source(self, kind, tree, stamp):
        """A pack that shares a tick with a source does not vouch for it.

        The pack is forged as if written within the tick of a same-size edit:
        the edited source's current key beside its old value.  Stamped at the
        source's mtime or ctime the entry is racy and read again; stamped
        later it is trusted, which shows the forged entry is what a load
        would take.
        """
        db, cov_dir = tree
        old = LOAD[kind](cov_dir, db)
        source = cov_dir / "s1.asc"
        st = source.stat()
        source.write_text(same_size_edit(source))
        os.utime(source, ns=(st.st_atime_ns, st.st_mtime_ns - 10**9))  # ctime > mtime
        forged = cov._stat_keys([str(cov_dir / f"{tx.id}.asc") for tx in db])
        rewrite_pack(cov_dir, kind, **{KEYS[kind]: forged})
        now = source.stat()
        pack_mtime = {"mtime": now.st_mtime_ns, "ctime": now.st_ctime_ns,
                      "older": now.st_ctime_ns + 1}[stamp]
        os.utime(pack_path(cov_dir, kind), ns=(pack_mtime, pack_mtime))
        if stamp == "older":
            got = LOAD[kind](cov_dir, db)
            assert coverage_values(got) == coverage_values(old)
        else:
            check(kind, cov_dir, db)


def npy(*arrays, allow_pickle=False):
    """The arrays as consecutive ``np.save`` records, the layout of packs before format 3."""
    f = io.BytesIO()
    for a in arrays:
        np.save(f, a, allow_pickle=allow_pickle)
    return f.getvalue()


def unpack(data):
    """(header, {name: array}) of a pack in the current layout, read without the loader."""
    line = data[: data.index(b"\n")]
    header = json.loads(line)
    fields, end = {}, len(line) + 1
    for name, dtype, shape in header["fields"]:
        start = end + -end % 8
        fields[name] = np.frombuffer(data, dtype, math.prod(shape), start).reshape(shape)
        end = start + fields[name].nbytes
    assert end == len(data)
    return header, fields


def layout(header, columns):
    """A pack's bytes: ``header`` as one JSON line, then each column's bytes at
    the next 8-byte-aligned offset."""
    out = json.dumps(header).encode("ascii") + b"\n"
    for column in columns:
        out += bytes(-len(out) % 8) + column
    return out


def old_format_pack(kind, good):
    """The good pack's fields as the previous format (2) wrote them, with wrong values.

    Its keys hold, so only the format string and the layout tell it apart.
    """
    _header, fields = unpack(good)
    fields = {name: np.ones_like(a) if a.dtype.kind == "f" else a for name, a in fields.items()}
    return npy(np.array(f"tvws coverage pack 2 {PACK[kind]}"), *fields.values())


def bad_packs(kind, good: bytes):
    """(name, bytes) of packs a load must ignore."""
    _header, fields = unpack(good)
    pack = PACK[kind]
    other = {"stations": "rasters", "rasters": "stations"}[pack]
    ids, keys = ("disk_ids", "disk_keys") if kind == "disks" else ("ids", "keys")
    floats = "disk_floats" if kind == "disks" else "floats"
    rows = len(fields[ids])
    entries = {name: [a.dtype.str, list(a.shape)] for name, a in fields.items()}
    blobs = {name: a.tobytes() for name, a in fields.items()}

    def variant(name=None, dtype=None, shape=None, data=None, order=tuple(entries), **head):
        """The good pack with field ``name``'s header dtype, header shape or bytes
        replaced, its fields in ``order``, or the header keys in ``head`` replaced."""
        changed = {n: list(entry) for n, entry in entries.items()}
        data_of = dict(blobs)
        if dtype is not None:
            changed[name][0] = dtype
        if shape is not None:
            changed[name][1] = shape
        if data is not None:
            data_of[name] = data
        header = {"format": cov._PACK_FORMAT, "kind": pack,
                  "fields": [[n, *changed[n]] for n in order], **head}
        return layout(header, [data_of[n] for n in order])

    def column(name, array):
        return variant(name, array.dtype.str, list(array.shape), array.tobytes())

    def value(name, index, v):
        """The good pack with ``fields[name][index]`` set to ``v``: a value no load writes."""
        array = fields[name].copy()
        array[index] = v
        return column(name, array)

    if kind == "disks":  # the disk radius; a pack load_stations wrote also holds stations
        values = [(f"radius-{v}", value(floats, (0, 2), v)) for v in (0.0, -1.0, math.nan, math.inf)]
        if len(fields["tx_ids"]):
            values += [
                ("erp-0", value("tx_floats", (0, 2), 0.0)),
                ("easting-off-the-envelope", value("tx_floats", (0, 0), 700_000.0)),
                ("northing-negative", value("tx_floats", (1, 1), -1.0)),
                ("no-channel", value("tx_channels", 0, 0)),
                ("channel-69", value("tx_channels", 0, 1 << 48)),
            ]
    else:  # the cell size and the origin
        values = [(f"cell-{v}", value(floats, (0, 2), v)) for v in (0.0, math.nan)]
        values += [("origin-off-the-envelope", value(floats, (1, 1), 1_300_000.0))]
        cell_bytes = fields["cells"].view(np.uint8).copy()
        cell_bytes[np.flatnonzero(cell_bytes)[0]] = 2  # a covered cell, still true as a bool
        values += [("cell-byte-2", variant("cells", data=cell_bytes.tobytes()))]

    swapped = [keys if n == ids else ids if n == keys else n for n in entries]
    name, number = cov._PACK_FORMAT.rsplit(" ", 1)
    body = good[good.index(b"\n"):]
    structured = np.dtype([("e", "<f8"), ("n", "<f8"), ("r", "<f8")])
    return [
        *values,
        ("empty", b""),
        ("garbage", bytes(range(256)) * 4),
        ("truncated-header", good[:40]),
        ("truncated-body", good[: len(good) // 2]),
        ("truncated-last-byte", good[:-1]),
        ("trailing-bytes", good + b"\0"),
        ("other-kind", variant(kind=other)),
        ("future-format", variant(format=f"{name} {int(number) + 1}")),
        ("signed-keys", column(keys, fields[keys].astype(np.int64))),
        ("float32-columns", column(floats, fields[floats].astype(np.float32))),
        ("short-column", column(floats, fields[floats][:-1])),
        ("object-ids", variant(ids, "|O", data=bytes(8 * rows))),
        ("pickle", pickle.dumps({"s0": None})),
        ("zip", b"PK\x03\x04" + good),
        ("zero-width-ids", variant(ids, "<U0", data=b"")),
        ("big-endian-floats", column(floats, fields[floats].astype(">f8"))),
        ("structured-floats", variant(floats, structured.descr, [rows])),
        ("huge-shape", variant(ids, shape=[10**30])),
        ("negative-shape", variant(floats, shape=[-1, 3])),
        ("float-shape", variant(floats, shape=[float(rows), 3])),
        ("true-shape", variant(floats, shape=[True, 3])),
        ("missing-field", variant(order=[n for n in entries if n != floats])),
        ("fields-out-of-order", variant(order=swapped)),
        ("header-without-newline", good[: good.index(b"\n")]),
        ("header-not-utf8", good.replace(b'"kind"', b'"k\xffnd"', 1)),
        ("deeply-nested-header", b"[" * 10**5 + b"]" * 10**5 + body),
    ]


@pytest.mark.parametrize("kind", KINDS)
class TestBadPack:
    def test_ignored_and_replaced(self, kind, tree, file_reads):
        db, cov_dir = tree
        check(kind, cov_dir, db)
        good = pack_path(cov_dir, kind).read_bytes()
        for name, data in [*bad_packs(kind, good), ("old-format", old_format_pack(kind, good))]:
            pack_path(cov_dir, kind).write_bytes(data)
            settle(cov_dir)
            before = file_reads[".asc"]
            check(kind, cov_dir, db)
            assert file_reads[".asc"] == before + len(db), name
            assert pack_path(cov_dir, kind).read_bytes() != data, name
            check(kind, cov_dir, db)
            assert file_reads[".asc"] == before + len(db), f"{name}: pack not rewritten"

    def test_failed_write_is_skipped(self, kind, tree, monkeypatch):
        db, cov_dir = tree

        def refuse(*args, **kwargs):
            raise OSError("no space left on device")

        monkeypatch.setattr(cov.os, "replace", refuse)
        check(kind, cov_dir, db)
        assert sorted(p.suffix for p in cov_dir.iterdir()) == [".asc"] * 3 + [".disk"] * 3

    def test_write_that_fails_midway_is_skipped(self, kind, tree, monkeypatch):
        db, cov_dir = tree
        calls = []

        class FailingWrites:
            """A pack temp file whose third write fails, as on a full disk."""

            def __init__(self, f):
                self.f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, data):
                calls.append(1)
                if len(calls) == 3:
                    raise OSError("disk full")
                return self.f.write(data)

        def failing_open(file, mode="r", *args, **kwargs):
            f = open(file, mode, *args, **kwargs)
            return FailingWrites(f) if "x" in mode else f

        monkeypatch.setattr(cov, "open", failing_open, raising=False)
        check(kind, cov_dir, db)
        assert len(calls) == 3
        assert sorted(p.suffix for p in cov_dir.iterdir()) == [".asc"] * 3 + [".disk"] * 3


@pytest.fixture(scope="module")
def fuzz_tree(tmp_path_factory):
    db = make_db()
    cov_dir = tmp_path_factory.mktemp("fuzz") / "coverage"
    cov_dir.mkdir()
    write_sources(cov_dir, db)
    settle(cov_dir)
    good = {}
    for kind in KINDS:
        LOAD[kind](cov_dir, db)
        good[kind] = pack_path(cov_dir, kind).read_bytes()
    settle(cov_dir)
    return db, cov_dir, good


# what a header edit puts in place of a field's name, dtype or shape
HEADER_VALUES = {
    0: st.one_of(st.sampled_from([*cov._PACK_FIELDS["stations"], *cov._PACK_FIELDS["rasters"], ""]),
                 st.text(max_size=8)),
    1: st.one_of(st.sampled_from(["<u8", "<i8", "<f8", "<f4", "|b1", "|u1", "<U0", "<U1", "<U3",
                                  "<U003", "<U99", "<U", "U2", ">f8", ">u8", "|O", "|V24",
                                  "f8,f8,f8", "<U" + "9" * 30]),
                 st.text(max_size=6), st.integers(), st.lists(st.text(max_size=3), max_size=2)),
    2: st.one_of(
        st.lists(st.one_of(st.integers(-2, 12),
                           st.sampled_from([10**30, -(10**30), True, False, 1.5, None, "3"])),
                 max_size=3),
        st.integers(0, 5), st.none()),
}


def header_edits(good):
    """``good`` with one field's name, dtype or shape edited in its JSON header.

    The columns are laid out again after the new header, so only the header differs.
    """
    header, fields = unpack(good)
    blobs = [a.tobytes() for a in fields.values()]

    def edited(field, part, value):
        changed = json.loads(json.dumps(header))
        changed["fields"][field][part] = value
        return layout(changed, blobs)

    return st.tuples(st.integers(0, len(blobs) - 1), st.sampled_from([0, 1, 2])).flatmap(
        lambda at: HEADER_VALUES[at[1]].map(lambda value: edited(*at, value)))


class TestFuzz:
    @given(kind=st.sampled_from(KINDS), data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_a_damaged_pack_is_never_an_error(self, fuzz_tree, kind, data):
        db, cov_dir, good = fuzz_tree
        damaged = data.draw(st.one_of(
            st.integers(0, len(good[kind]) - 1).map(lambda n: good[kind][:n]),
            st.binary(max_size=300).map(lambda b: good[kind][:128] + b),
            st.binary(max_size=300),
            header_edits(good[kind]),
        ))
        pack_path(cov_dir, kind).write_bytes(damaged)
        os.utime(pack_path(cov_dir, kind), ns=(time.time_ns(),) * 2)
        check(kind, cov_dir, db)


class TestCli:
    def test_synth_and_disks_leave_no_pack(self, tmp_path, capsys):
        out = tmp_path / "tree"
        assert main(["synth", "--n", "3", "--region", "200000,200000,300000,300000",
                     "--seed", "9", "--cell", "2000", "--out", str(out)]) == 0
        data = ["--txdb", str(out / "transmitters.csv"), "--coverage", str(out / "coverage")]
        assert main(["disks", *data]) == 0
        names = sorted(p.name for p in (out / "coverage").iterdir())
        assert sorted(Path(name).suffix for name in names) == [".asc"] * 3 + [".disk"] * 3
        settle(out / "coverage")
        assert main(["query", *data, "--loc", "250000,250000"]) == 0
        assert main(["query", *data, "--loc", "250000,250000", "--mode", "raster",
                     "--power", "0"]) == 0
        added = set(p.name for p in (out / "coverage").iterdir()) - set(names)
        assert added == set(cov._PACK_NAMES.values())


class TestDiskCentre:
    """A station's disk is derived about its position wherever the database puts it.

    A packed disk is taken only while its centre is the station's position.
    """

    def moved(self, db, tx_id, by=1.0):
        return TransmitterDb(
            tuple(
                Transmitter(tx.id, NgPoint(tx.position.easting + by, tx.position.northing),
                            tx.erp_watts, tx.antenna_height_m, tx.channels)
                if tx.id == tx_id else tx
                for tx in db
            ),
            source="moved",
        )

    def test_derived_disk_follows_a_moved_transmitter(self, tree, file_reads):
        """A packed disk derived from the raster holds only where it was derived."""
        db, cov_dir = tree
        cov.load_disks(cov_dir, db)
        settle(cov_dir)
        cov.load_disks(cov_dir, db)
        assert file_reads[".asc"] == len(db)  # derived once, then taken from the pack
        moved = self.moved(db, "s1", by=500.0)
        got = cov.load_disks(cov_dir, moved)
        assert coverage_values(got) == coverage_values(coverage_from_files(cov_dir, moved, "disks"))
        assert got["s1"].center == moved.transmitters[1].position
        assert file_reads[".asc"] == 2 * len(db)  # every disk derived again

    def test_a_station_the_pack_does_not_list_at_the_origin(self, tree):
        """An unlisted station's packed key and centre read as zeros: (0, 0) with no .asc."""
        db, cov_dir = tree
        cov.load_disks(cov_dir, db)
        settle(cov_dir)
        origin = Transmitter("s9", NgPoint(0.0, 0.0), 50_000.0, 100.0, frozenset({50}))
        with pytest.raises(FileNotFoundError, match="'s9'"):
            cov.load_disks(cov_dir, TransmitterDb((*db.transmitters, origin), source="test"))

    def test_cli_exits_3_naming_the_file(self, tmp_path, capsys):
        out = tmp_path / "tree"
        assert main(["synth", "--n", "2", "--region", "200000,200000,300000,300000",
                     "--seed", "4", "--cell", "2000", "--out", str(out)]) == 0
        txdb = out / "transmitters.csv"
        lines = txdb.read_text().splitlines()
        row = lines[2].split(",")
        row[1] = repr(float(row[1]) + 10.0)
        txdb.write_text("\n".join([*lines[:2], ",".join(row), *lines[3:]]) + "\n")
        argv = ["query", "--txdb", str(txdb), "--coverage", str(out / "coverage"),
                "--loc", "250000,250000"]
        assert main(argv) == 0  # derived from the raster about the new position
        asc = out / "coverage" / f"{row[0]}.asc"
        asc.unlink()
        capsys.readouterr()
        assert main(argv) == 3
        assert capsys.readouterr().err == f"tvws: error: no coverage raster for {row[0]!r}: {asc}\n"


class TestWriteWarnings:
    """A pack write that fails warns once on stderr, naming the file.

    The load itself, stdout and the exit code are as if the write had worked.
    """

    @pytest.mark.parametrize("kind", KINDS)
    def test_failed_pack_write(self, kind, tree, monkeypatch, capsys):
        db, cov_dir = tree

        def refuse(*args, **kwargs):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cov.os, "replace", refuse)
        check(kind, cov_dir, db)
        assert capsys.readouterr().err.splitlines() == [
            f"tvws: warning: could not write coverage pack {pack_path(cov_dir, kind)}: "
            "[Errno 28] No space left on device"
        ]

    def test_cli_stdout_and_exit_code_unchanged(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "tree"
        assert main(["synth", "--n", "3", "--region", "200000,200000,300000,300000",
                     "--seed", "9", "--cell", "2000", "--out", str(out)]) == 0
        query = ["query", "--txdb", str(out / "transmitters.csv"),
                 "--coverage", str(out / "coverage"), "--loc", "250000,250000"]
        raster = [*query, "--mode", "raster", "--power", "0"]
        capsys.readouterr()
        with monkeypatch.context() as failing:
            failing.setattr(cov.os, "replace", lambda *args: (_ for _ in ()).throw(OSError("full")))
            assert main(query) == 0  # derives three disks, and cannot pack them
            disk_run = capsys.readouterr()
            assert main(raster) == 0  # reads three rasters, and cannot pack them
            raster_run = capsys.readouterr()
        assert disk_run.err.splitlines() == [
            f"tvws: warning: could not write coverage pack {out / 'coverage' / '.tvws-stations.pack'}: full"
        ]
        assert raster_run.err.splitlines() == [  # the txdb is packed too: it was never written
            f"tvws: warning: could not write coverage pack {out / 'coverage' / name}: full"
            for name in (".tvws-stations.pack", ".tvws-rasters.pack")
        ]
        for argv, refused in ((query, disk_run), (raster, raster_run)):
            assert main(argv) == 0
            written = capsys.readouterr()
            assert (written.out, written.err) == (refused.out, "")
        assert not list((out / "coverage").glob("*.disk"))  # a load writes no .disk


# ---------------------------------------------------------------------------
# The station pack's txdb part: load_stations against load_txdb.


def same_size_csv_edit(text, old, new):
    assert len(old) == len(new) and text.count(old) == 1
    return text.replace(old, new)


def load_checked(txdb, cov_dir, **kwargs):
    """``load_stations``, checked against ``load_txdb`` and the file-by-file disks.

    The ERP-range warnings must be those ``load_txdb`` issues, in order.
    """
    with warnings.catch_warnings(record=True) as got_warnings:
        warnings.simplefilter("always")
        db, disks = cov.load_stations(txdb, cov_dir, **kwargs)
    with warnings.catch_warnings(record=True) as want_warnings:
        warnings.simplefilter("always")
        want = load_txdb(txdb.read_text(), source=str(txdb))
    assert db == want and db.source == want.source
    assert db.ids == want.ids
    assert db.floats.tobytes() == want.floats.tobytes()
    assert db.channels.tolist() == want.channels.tolist()
    assert [str(w.message) for w in got_warnings] == [str(w.message) for w in want_warnings]
    if kwargs.get("disks", True):
        assert coverage_values(disks) == coverage_values(coverage_from_files(cov_dir, want, "disks"))
    return db, disks


def warned_db():
    """make_db() with s1 at 5 W, below the typical ERP range, so loading it warns."""
    db = make_db()
    return TransmitterDb(
        tuple(Transmitter(tx.id, tx.position, 5.0, tx.antenna_height_m, tx.channels)
              if tx.id == "s1" else tx for tx in db),
        source="test",
    )


@pytest.fixture
def stations(tmp_path):
    """(txdb path, coverage dir): a CSV with a ``# source:`` line and one ERP warning."""
    db = warned_db()
    cov_dir = tmp_path / "coverage"
    cov_dir.mkdir()
    write_sources(cov_dir, db)
    txdb = tmp_path / "transmitters.csv"
    txdb.write_text(serialize(db))
    settle(cov_dir, tmp_path)
    return txdb, cov_dir


@pytest.mark.filterwarnings("ignore:.*typical UK DTT range")  # s1's ERP, through main()
class TestStationPack:
    def test_second_load_comes_from_the_pack(self, stations, file_reads):
        txdb, cov_dir = stations
        db, _disks = load_checked(txdb, cov_dir)
        assert db.source == "test"  # from the # source: line
        assert (file_reads["txdb"], file_reads[".asc"]) == (1, 3)
        load_checked(txdb, cov_dir)
        assert (file_reads["txdb"], file_reads[".asc"]) == (1, 3)
        assert db._transmitters is not None
        hit, _disks = cov.load_stations(txdb, cov_dir)
        assert hit._transmitters is None  # no per-station object until asked for

    def test_same_size_csv_edit_with_mtime_restored(self, stations, file_reads):
        txdb, cov_dir = stations
        before, _disks = load_checked(txdb, cov_dir)
        st = txdb.stat()
        txdb.write_text(same_size_csv_edit(txdb.read_text(), "s2,280000.0,200000.0,50000.0",
                                           "s2,280000.0,200000.0,60000.0"))
        restore_mtime(txdb, st)
        assert (txdb.stat().st_size, txdb.stat().st_mtime_ns) == (st.st_size, st.st_mtime_ns)
        after, _disks = load_checked(txdb, cov_dir)
        assert (before.erp[2], after.erp[2]) == (50_000.0, 60_000.0)
        assert file_reads["txdb"] == 2

    def test_csv_replaced_by_rename(self, stations, file_reads):
        txdb, cov_dir = stations
        load_checked(txdb, cov_dir)
        st = txdb.stat()
        new = txdb.parent / "incoming.tmp"
        new.write_text(same_size_csv_edit(txdb.read_text(), ",41\n", ",44\n"))
        restore_mtime(new, st)
        os.replace(new, txdb)
        db, _disks = load_checked(txdb, cov_dir)
        assert db.transmitters[0].channels == frozenset({44})
        assert file_reads["txdb"] == 2

    @pytest.mark.parametrize("field", ["st_size", "st_mtime_ns", "st_ctime_ns", "st_ino"])
    def test_every_stat_field_of_the_csv_is_in_the_key(self, stations, file_reads, monkeypatch,
                                                       field):
        txdb, cov_dir = stations
        load_checked(txdb, cov_dir)
        real_stat = os.stat

        def shifted(path, *args, **kwargs):
            st = real_stat(path, *args, **kwargs)
            if path != str(txdb):
                return st
            fields = {name: getattr(st, name) for name in
                      ("st_mode", "st_size", "st_mtime_ns", "st_ctime_ns", "st_ino")}
            fields[field] += -1 if field.endswith("_ns") else 1
            return types.SimpleNamespace(**fields)

        monkeypatch.setattr(os, "stat", shifted)
        load_checked(txdb, cov_dir)
        assert (file_reads["txdb"], file_reads[".asc"]) == (2, 3)

    @pytest.mark.parametrize("stamp", ["mtime", "ctime", "older"])
    def test_racy_csv(self, stations, stamp):
        """A pack stamped within the tick of a same-size CSV edit does not vouch for the CSV.

        As in TestFreshness.test_racy_source, the pack is forged with the
        edited CSV's key beside the old columns.
        """
        txdb, cov_dir = stations
        old, _disks = cov.load_stations(txdb, cov_dir)
        st = txdb.stat()
        txdb.write_text(same_size_csv_edit(txdb.read_text(), ",42\n", ",45\n"))
        os.utime(txdb, ns=(st.st_atime_ns, st.st_mtime_ns - 10**9))  # ctime > mtime
        rewrite_pack(cov_dir, "disks", txdb_key=cov._stat_keys([str(txdb)])[0])
        now = txdb.stat()
        pack_mtime = {"mtime": now.st_mtime_ns, "ctime": now.st_ctime_ns,
                      "older": now.st_ctime_ns + 1}[stamp]
        os.utime(pack_path(cov_dir, "disks"), ns=(pack_mtime, pack_mtime))
        if stamp == "older":
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                got, _disks = cov.load_stations(txdb, cov_dir)
            assert got == old
        else:
            load_checked(txdb, cov_dir)

    def test_edited_channel_list(self, stations, capsys):
        txdb, cov_dir = stations
        argv = ["query", "--txdb", str(txdb), "--coverage", str(cov_dir), "--loc", "200000,200000"]
        assert main(argv) == 0
        assert "occupied: 41\n" in capsys.readouterr().out
        settle(cov_dir, txdb.parent)
        txdb.write_text(same_size_csv_edit(txdb.read_text(), ",41\n", ",43\n"))
        load_checked(txdb, cov_dir)
        assert main(argv) == 0
        assert "occupied: 43\n" in capsys.readouterr().out

    @pytest.mark.parametrize("comment", ["none", "first", "after-the-warned-row"])
    def test_source_comment(self, stations, comment):
        """The database's source and the warnings' file names follow the ``# source:`` line."""
        txdb, cov_dir = stations
        lines = txdb.read_text().splitlines()[1:]  # serialize's own source line dropped
        if comment == "first":
            lines.insert(0, "# source: national list")
        elif comment == "after-the-warned-row":
            lines.insert(3, "# source: national list")
        txdb.write_text("\n".join(lines) + "\n")
        for _ in range(2):
            db, _disks = load_checked(txdb, cov_dir)
            settle(cov_dir, txdb.parent)
        assert db.source == (str(txdb) if comment == "none" else "national list")

    def test_two_txdb_files_in_turn(self, stations, file_reads):
        txdb, cov_dir = stations
        other = txdb.parent / "other.csv"
        other.write_text(same_size_csv_edit(txdb.read_text(), ",41\n", ",46\n"))
        settle(cov_dir, txdb.parent)
        for path in (txdb, other, txdb, other):
            db, _disks = load_checked(path, cov_dir)
            assert db.transmitters[0].channels == frozenset({41 if path == txdb else 46})
        assert file_reads["txdb"] == 4
        assert file_reads[".asc"] == 3  # both share the coverage files

    def test_stations_reordered_in_the_csv(self, stations, file_reads):
        """The same stations in another order each keep their own disk and cells.

        A warm pack listing as many stations as the CSV, in another order, is
        not the CSV's: disk- and raster-mode loads must equal the file-by-file
        reference.  Each part is read whole once, then taken from the
        rewritten packs.
        """
        txdb, cov_dir = stations
        db, _disks = load_checked(txdb, cov_dir)
        cov.load_rasters(cov_dir, db)
        lines = txdb.read_text().splitlines(keepends=True)
        txdb.write_text("".join(lines[:2] + lines[:1:-1]))  # the source and header lines first
        settle(cov_dir, txdb.parent)
        reads = dict(file_reads)
        for _run in ("reordered pack", "rewritten pack"):
            db, _disks = load_checked(txdb, cov_dir)
            assert db.ids == ["s2", "s1", "s0"]
            rasters = cov.load_rasters(cov_dir, db)
            assert coverage_values(rasters) == coverage_values(coverage_from_files(cov_dir, db,
                                                                                   "rasters"))
            settle(cov_dir, txdb.parent)
        assert file_reads == {"txdb": reads["txdb"] + 1, ".asc": reads[".asc"] + 2 * len(db)}

    def test_raster_mode_packs_only_the_txdb(self, stations, file_reads):
        txdb, cov_dir = stations
        db, disks = load_checked(txdb, cov_dir, disks=False)
        assert disks is None and file_reads[".asc"] == 0
        settle(cov_dir, txdb.parent)
        load_checked(txdb, cov_dir, disks=False)
        assert file_reads["txdb"] == 1

    @pytest.mark.parametrize("racy", ["disk", "csv"])
    def test_a_rewrite_drops_the_part_it_did_not_check(self, stations, file_reads, racy):
        """A racy entry stays racy when another part's miss rewrites the pack.

        As in test_racy_source, one part is forged as written within the tick
        of a same-size edit of its source, and the pack stamped at that
        source's ctime.  Then a load that checks only the other part misses
        and rewrites the pack with a later stamp: a raster-mode load after a
        CSV edit (racy ``.asc``), or ``load_disks`` after a disk was touched
        (racy CSV).  The next full load must still read the racy source.
        """
        txdb, cov_dir = stations
        db, _disks = cov.load_stations(txdb, cov_dir)
        source = cov_dir / "s1.asc" if racy == "disk" else txdb
        st = source.stat()
        if racy == "disk":
            source.write_text(same_size_edit(source))
        else:
            source.write_text(same_size_csv_edit(txdb.read_text(), ",42\n", ",45\n"))
        os.utime(source, ns=(st.st_atime_ns, st.st_mtime_ns - 10**9))  # ctime > mtime
        if racy == "disk":
            forged = cov._stat_keys([str(cov_dir / f"{tx_id}.asc") for tx_id in db.ids])
            rewrite_pack(cov_dir, "disks", disk_keys=forged)
        else:
            rewrite_pack(cov_dir, "disks", txdb_key=cov._stat_keys([str(txdb)])[0])
        ctime = source.stat().st_ctime_ns
        os.utime(pack_path(cov_dir, "disks"), ns=(ctime, ctime))
        reads = dict(file_reads)

        if racy == "disk":
            txdb.write_text(same_size_csv_edit(txdb.read_text(), "s2,280000.0,200000.0,50000.0",
                                               "s2,280000.0,200000.0,60000.0"))
            load_checked(txdb, cov_dir, disks=False)
        else:
            (cov_dir / "s0.asc").write_text((cov_dir / "s0.asc").read_text())
            cov.load_disks(cov_dir, db)
        assert pack_path(cov_dir, "disks").stat().st_mtime_ns > ctime  # the pack was rewritten
        load_checked(txdb, cov_dir)
        assert file_reads["txdb"] == reads["txdb"] + 1
        assert file_reads[".asc"] == reads[".asc"] + len(db)  # one whole disk part either way

    def test_old_format_and_damaged_packs_read_as_empty(self, stations, file_reads):
        txdb, cov_dir = stations
        load_checked(txdb, cov_dir)
        good = pack_path(cov_dir, "disks").read_bytes()
        bad = [*bad_packs("disks", good), ("old-format", old_format_pack("disks", good))]
        for name, data in bad:
            pack_path(cov_dir, "disks").write_bytes(data)
            settle(cov_dir, txdb.parent)
            before = file_reads["txdb"]
            load_checked(txdb, cov_dir)
            assert file_reads["txdb"] == before + 1, name

    def test_erp_warnings_are_the_same_cli_stderr_on_a_hit(self, stations):
        txdb, cov_dir = stations
        src = Path(tvws.__file__).resolve().parent.parent
        argv = [sys.executable, "-m", "tvws.cli", "query", "--txdb", str(txdb),
                "--coverage", str(cov_dir), "--loc", "250000,250000"]
        env = {**os.environ, "PYTHONPATH": str(src)}
        env.pop("PYTHONWARNINGS", None)
        miss = subprocess.run(argv, capture_output=True, env=env, timeout=60)
        settle(cov_dir, txdb.parent)
        pack = pack_path(cov_dir, "disks").stat()
        hit = subprocess.run(argv, capture_output=True, env=env, timeout=60)
        assert pack_path(cov_dir, "disks").stat().st_mtime_ns == pack.st_mtime_ns  # a hit
        assert (miss.returncode, hit.returncode) == (0, 0)
        assert f"{txdb}:4: ERP 5 W outside the typical UK DTT range".encode() in miss.stderr
        assert hit.stderr == miss.stderr
        assert hit.stdout == miss.stdout


def tree_files(root):
    """{relative path: bytes} of every file under ``root``."""
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def pack_stamps(cov_dir):
    return {p.name: p.stat().st_mtime_ns for p in cov_dir.glob(".tvws-*")}


class TestWarmCalls:
    @pytest.mark.filterwarnings("ignore:.*typical UK DTT range")
    def test_a_warm_load_hands_out_read_only_views(self, stations, file_reads):
        """Columns taken from a pack are views of its bytes, which nothing may write through."""
        txdb, cov_dir = stations
        db, _disks = cov.load_stations(txdb, cov_dir)
        cov.load_rasters(cov_dir, db)
        settle(cov_dir, txdb.parent)
        reads = dict(file_reads)
        db, disks = cov.load_stations(txdb, cov_dir)
        rasters = cov.load_rasters(cov_dir, db)
        assert file_reads == reads  # all three parts came from the packs
        for array in (db.floats, db.channels, disks.floats, rasters["s1"].cells):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_cold_and_warm_runs_write_the_same_bytes(self, tmp_path, capsys):
        out = tmp_path / "tree"
        assert main(["synth", "--n", "5", "--region", "200000,200000,300000,300000",
                     "--seed", "3", "--cell", "2000", "--out", str(out)]) == 0
        cov_dir, artifacts = out / "coverage", tmp_path / "artifacts"
        locations = tmp_path / "locations.csv"
        locations.write_text("a,250000,250000\nb,SU 10 10\nc,210000,290000\n")
        data = ["--txdb", str(out / "transmitters.csv"), "--coverage", str(cov_dir),
                "--out", str(artifacts)]
        argvs = {
            "query": ["query", *data, "--loc", "250000,250000"],
            "raster query": ["query", *data, "--loc", "250000,250000", "--mode", "raster",
                             "--power", "0"],
            "batch": ["batch", *data, "--locations", str(locations), "--power", "1W"],
            "sweep": ["sweep", *data, "--loc", "250000,250000", "--powers", "0.01:10:20"],
            "grid": ["grid", *data, "--region", "200000,200000,300000,300000", "--cell", "5000"],
        }
        for name, argv in argvs.items():
            runs = []
            for pack in cov_dir.glob(".tvws-*"):
                pack.unlink()
            for _warm in range(2):
                shutil.rmtree(artifacts, ignore_errors=True)
                settle(cov_dir, out)
                packs = pack_stamps(cov_dir)
                capsys.readouterr()
                assert main(argv) == 0, name
                runs.append((capsys.readouterr(), tree_files(artifacts)))
            # the warm run rewrote no pack: it was a hit
            assert packs and packs == pack_stamps(cov_dir)
            assert runs[1] == runs[0], name
            assert runs[0][1], name  # some artifact was written

    def test_warm_batch_grid_and_sweep_read_no_source_file(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "tree"
        assert main(["synth", "--n", "5", "--region", "200000,200000,300000,300000",
                     "--seed", "3", "--cell", "2000", "--out", str(out)]) == 0
        capsys.readouterr()
        txdb, cov_dir = out / "transmitters.csv", out / "coverage"
        locations = tmp_path / "locations.csv"
        locations.write_text("a,250000,250000\nb,SU 10 10\nc,210000,290000\n")
        data = ["--txdb", str(txdb), "--coverage", str(cov_dir)]
        argvs = [
            ["batch", *data, "--locations", str(locations), "--power", "1W", "--workers", "2"],
            ["grid", *data, "--region", "200000,200000,300000,300000", "--cell", "5000"],
            ["sweep", *data, "--loc", "250000,250000", "--powers", "0.01:10:20"],
        ]
        cold = []
        for argv in argvs:
            assert main(argv) == 0
            cold.append(capsys.readouterr())
        settle(cov_dir, out)
        opened = []
        real_open = io.open

        def recording_open(file, *args, **kwargs):
            if isinstance(file, (str, os.PathLike)):
                opened.append(os.fspath(file))
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", recording_open)
        monkeypatch.setattr(io, "open", recording_open)
        for argv, before in zip(argvs, cold):
            assert main(argv) == 0
            assert capsys.readouterr() == before
        monkeypatch.undo()
        assert str(cov_dir / ".tvws-stations.pack") in opened
        assert [p for p in opened if p == str(txdb) or p.endswith((".disk", ".asc"))] == []


# ---------------------------------------------------------------------------
# A raster edited after its disk was derived.


class TestStaleDisk:
    """The disk of a raster grown after ``tvws disks`` covers the new raster.

    The disk comes from the raster whatever the two files' mtimes say: the
    ``.disk`` beside it, now too small, is not read.
    """

    @pytest.mark.parametrize("pack,stamp", [("warm", "newer"), ("none", "newer"),
                                            ("warm", "older"), ("none", "older")])
    def test_grown_raster(self, uk81_dir, tmp_path, pack, stamp):
        data = tmp_path / "uk81"
        shutil.copytree(uk81_dir, data)
        cov_dir = data / "coverage"
        for stale_pack in cov_dir.glob(".tvws-*"):
            stale_pack.unlink()
        assert main(["disks", "--txdb", str(data / "transmitters.csv"),
                     "--coverage", str(cov_dir)]) == 0
        db = load_txdb((data / "transmitters.csv").read_text())
        tx = db.transmitters[0]
        asc, disk = cov_dir / f"{tx.id}.asc", cov_dir / f"{tx.id}.disk"
        before = float(disk.read_text().split()[2])
        if pack == "warm":
            settle(cov_dir)
            cov.load_disks(cov_dir, db)
            settle(cov_dir)
            assert cov.load_disks(cov_dir, db)[tx.id].radius_m == before

        raster = cov.read_asc(asc.read_text(), tx.id)
        cells = raster.cells.copy()
        cells[0, 0] = cells[-1, -1] = True  # two far corners of the extent
        grown = cov.CoverageRaster(tx.id, raster.origin, raster.cell_size_m, cells)
        asc.write_text(cov.write_asc(grown))
        if stamp == "older":
            older = disk.stat().st_mtime_ns - 10**9
            os.utime(asc, ns=(older, older))
        settle(cov_dir)
        want = cov.enclosing_disk(grown, tx)
        assert want.radius_m > before

        disks = cov.load_disks(cov_dir, db)
        assert disks[tx.id] == want
        assert coverage_from_files(cov_dir, db, "disks")[tx.id] == want

        rasters = cov.load_rasters(cov_dir, db)
        rng = np.random.default_rng(7)
        points = [grown.cell_center(0, 0), grown.cell_center(grown.nrows - 1, grown.ncols - 1)]
        points += [grown.cell_center(int(r), int(c)) for r, c in zip(
            rng.integers(0, grown.nrows, 40), rng.integers(0, grown.ncols, 40))]
        plan, prop = default_plan(), PropagationParams()
        for p in points:
            by_disk = availability(db, disks, plan, QueryParams(p, 0.0, prop)).vacant
            by_raster = availability_lowpower(db, rasters, plan, p).vacant
            assert by_disk <= by_raster, p
        assert not tx.channels & availability(db, disks, plan, QueryParams(points[0], 0.0, prop)).vacant


@pytest.fixture(scope="module")
def edit_tree(tmp_path_factory):
    """Three stations on 5 km cells, with no pack: each example edits a copy."""
    db = make_db()
    cov_dir = tmp_path_factory.mktemp("edits") / "coverage"
    cov_dir.mkdir()
    write_sources(cov_dir, db, cell=5000.0)
    return db, cov_dir


class TestRasterEdits:
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_the_disk_is_the_current_rasters(self, edit_tree, data):
        """A raster edited after its .disk was written gives the disk of the edit.

        Random cells of one raster are grown or shrunk, and the raster is
        stamped newer than its .disk, at the same time or older; with or
        without a warm pack, ``load_disks`` returns the edited raster's
        enclosing disk.  At P = 0 the disk model then blocks every channel
        the raster model blocks at each of the raster's cell centres.
        """
        db, base = edit_tree
        work = Path(tempfile.mkdtemp(dir=base.parent.parent))
        try:
            cov_dir = work / "coverage"
            shutil.copytree(base, cov_dir)  # mtimes kept
            tx = db.transmitters[data.draw(st.integers(0, len(db) - 1), label="station")]
            if data.draw(st.booleans(), label="warm"):
                cov.load_disks(cov_dir, db)
                settle(cov_dir)
            asc, disk = cov_dir / f"{tx.id}.asc", cov_dir / f"{tx.id}.disk"
            raster = cov.read_asc(asc.read_text(), tx.id)
            cells = raster.cells.copy()
            nrows, ncols = cells.shape
            for row, col, covered in data.draw(st.lists(
                    st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1), st.booleans()),
                    min_size=1, max_size=30), label="cells"):
                cells[row, col] = covered
            assume(cells.any())
            edited = cov.CoverageRaster(tx.id, raster.origin, raster.cell_size_m, cells)
            asc.write_text(cov.write_asc(edited))
            shift = data.draw(st.sampled_from([10**9, 0, -(10**9)]), label="asc mtime - disk mtime")
            stamp = disk.stat().st_mtime_ns + shift
            os.utime(asc, ns=(stamp, stamp))

            disks = cov.load_disks(cov_dir, db)
            assert disks[tx.id] == cov.enclosing_disk(edited, tx)
            rasters = cov.load_rasters(cov_dir, db)
            plan, prop = default_plan(), PropagationParams()
            for row in range(nrows):
                for col in range(ncols):
                    p = edited.cell_center(row, col)
                    by_disk = availability(db, disks, plan, QueryParams(p, 0.0, prop)).vacant
                    assert by_disk <= availability_lowpower(db, rasters, plan, p).vacant, p
        finally:
            shutil.rmtree(work)


class TestStatCount:
    @pytest.mark.parametrize("command", ["query", "batch", "grid"])
    def test_a_warm_disk_call_stats_one_source_file_per_station(self, tmp_path, monkeypatch,
                                                                 capsys, command):
        """The loader stats the CSV and each station's .asc once each, and no .disk.

        The CLI does not stat the CSV itself: the loader's stat also finds a missing one.
        """
        out = tmp_path / "tree"
        assert main(["synth", "--n", "4", "--region", "200000,200000,300000,300000",
                     "--seed", "3", "--cell", "5000", "--out", str(out)]) == 0
        txdb, cov_dir = out / "transmitters.csv", out / "coverage"
        assert main(["disks", "--txdb", str(txdb), "--coverage", str(cov_dir)]) == 0
        locations = tmp_path / "locations.csv"
        locations.write_text("a,250000,250000\nb,210000,290000\n")
        data = ["--txdb", str(txdb), "--coverage", str(cov_dir)]
        argv = {
            "query": ["query", *data, "--loc", "250000,250000"],
            "batch": ["batch", *data, "--locations", str(locations)],
            "grid": ["grid", *data, "--region", "200000,200000,300000,300000", "--cell", "5000"],
        }[command]
        assert main(argv) == 0
        settle(cov_dir, out)
        packs = pack_stamps(cov_dir)
        stats = []
        real_stat = os.stat

        def recording_stat(path, *args, **kwargs):
            stats.append(os.fspath(path))
            return real_stat(path, *args, **kwargs)

        monkeypatch.setattr(os, "stat", recording_stat)
        assert main(argv) == 0
        monkeypatch.undo()
        assert packs == pack_stamps(cov_dir)  # a hit: no pack was rewritten
        data_files = [p for p in stats if p == str(txdb) or p.startswith(str(cov_dir))]
        assert sorted(data_files) == sorted([
            str(txdb),
            *(str(cov_dir / f"tx{i}.asc") for i in range(1, 5)),
        ])


# ---------------------------------------------------------------------------
# Edit sequences: after every edit each load equals the file-by-file read.


@pytest.fixture(scope="module")
def sequence_tree(tmp_path_factory):
    """A CSV with one ERP warning and three stations' rasters on 5 km cells, with no pack."""
    root = tmp_path_factory.mktemp("sequences")
    db = warned_db()
    (root / "coverage").mkdir()
    write_sources(root / "coverage", db, cell=5000.0)
    (root / "transmitters.csv").write_text(serialize(db))
    return root


# a move is the only edit that tests the centre check, so it comes first:
# hypothesis draws the first choice most often
EDITS = ("station moved", "asc edited", "asc replaced", "csv reordered", "channel edited",
         "pack deleted")
LOADS = ("stations", "stations without disks", "disks", "rasters")
ONE_TICK_NS = 1_700_000_000 * 10**9


def stamped_in_one_tick(real):
    """``real`` (``os.stat`` or ``os.fstat``) on a filesystem whose clock never advances.

    Every mtime and ctime reads as one tick, as on a filesystem with coarse
    timestamps where every edit and load of an example falls in one tick.
    """
    def one_tick(*args, **kwargs):
        st = real(*args, **kwargs)
        fields = {name: getattr(st, name) for name in dir(st) if name.startswith("st_")}
        fields.update(st_mtime_ns=ONE_TICK_NS, st_ctime_ns=ONE_TICK_NS,
                      st_mtime=ONE_TICK_NS / 1e9, st_ctime=ONE_TICK_NS / 1e9)
        return types.SimpleNamespace(**fields)
    return one_tick


def apply_edit(root, edit, k):
    """One edit of ``root``'s CSV, station ``s<k>``'s .asc (or row ``k``), or its packs.

    File edits keep the file's size and restore its mtime.
    """
    txdb, cov_dir = root / "transmitters.csv", root / "coverage"
    if edit == "pack deleted":
        for kind in (("disks",), ("rasters",), KINDS)[k]:
            pack_path(cov_dir, kind).unlink(missing_ok=True)
        return
    source = cov_dir / f"s{k}.asc" if edit.startswith("asc") else txdb
    st = source.stat()
    if edit.startswith("asc"):
        target = source if edit == "asc edited" else cov_dir / "incoming.tmp"
        target.write_text(same_size_edit(source))
    else:
        lines = txdb.read_text().splitlines()
        head, rows = lines[:2], [line.split(",") for line in lines[2:]]
        if edit == "csv reordered":
            rows = (rows[1:] + rows[:1], rows[2:] + rows[:2], rows[::-1])[k]
        elif edit == "channel edited":
            rows[k][5] = str(21 + (int(rows[k][5]) - 14) % 48)  # seven channels up, 21-68
        else:
            rows[k][1] = repr(float(rows[k][1]) + 777.0)
        target = txdb
        target.write_text("\n".join([*head, *map(",".join, rows)]) + "\n")
    restore_mtime(target, st)
    os.replace(target, source)


def check_load(load, txdb, cov_dir):
    if load.startswith("stations"):
        load_checked(txdb, cov_dir, disks=load == "stations")
        return
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        db = load_txdb(txdb.read_text(), source=str(txdb))
    check(load, cov_dir, db)


@pytest.mark.filterwarnings("ignore:.*typical UK DTT range")
class TestEditSequences:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_every_load_equals_the_files_after_each_edit(self, sequence_tree, data):
        """Random edits of a three-station tree, each followed by every load in a random order.

        ``load_stations`` with and without disks, ``load_disks`` and
        ``load_rasters`` must each equal ``load_txdb`` and the file-by-file
        read after every edit.  Either the clock advances between an edit
        and the loads, so parts are taken from the packs, or every file and
        pack is stamped in one tick, so only the racy-clean rule tells a
        same-size edit from the packed part.
        """
        one_tick = data.draw(st.booleans(), label="one tick")
        edits = data.draw(st.lists(st.tuples(st.sampled_from(EDITS), st.integers(0, 2)),
                                   min_size=1, max_size=5), label="edits")
        root = Path(tempfile.mkdtemp(dir=sequence_tree.parent))
        try:
            shutil.copytree(sequence_tree, root, dirs_exist_ok=True)
            txdb, cov_dir = root / "transmitters.csv", root / "coverage"
            for edit in [None, *edits]:
                if edit is not None:
                    apply_edit(root, *edit)
                order = data.draw(st.permutations(LOADS), label="loads")
                with pytest.MonkeyPatch.context() as patch:
                    if one_tick:
                        patch.setattr(os, "stat", stamped_in_one_tick(os.stat))
                        patch.setattr(os, "fstat", stamped_in_one_tick(os.fstat))
                    else:
                        settle(cov_dir, root)
                    for load in order:
                        check_load(load, txdb, cov_dir)
        finally:
            shutil.rmtree(root)
