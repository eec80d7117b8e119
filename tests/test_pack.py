"""Coverage packs: a packed load always equals a file-by-file read.

``load_disks``/``load_rasters`` take an entry from the directory's pack only
while its source file's stat key matches and the source is older than the
pack.  Every test here changes the directory behind the pack's back and
checks the load against ``oracles.coverage_from_files``.
"""

import os
import pickle
import shutil
import time
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import coverage_from_files, coverage_values
from tvws import coverage as cov
from tvws.cli import main
from tvws.errors import ParseError
from tvws.geo import NgPoint
from tvws.keepout import PropagationParams
from tvws.txdb import Transmitter, TransmitterDb

KINDS = ("disks", "rasters")
SUFFIX = {"disks": ".disk", "rasters": ".asc"}
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


def write_sources(cov_dir, db):
    for i, tx in enumerate(db):
        raster = cov.synth_coverage(tx, PropagationParams(), 2000.0, 0.2, seed=i)
        (cov_dir / f"{tx.id}.asc").write_text(cov.write_asc(raster))
        (cov_dir / f"{tx.id}.disk").write_text(cov.write_disk(cov.enclosing_disk(raster, tx)))


def settle(cov_dir):
    """Wait until a file written now is stamped later than every file in cov_dir.

    Without this a pack written right after its sources can share their
    timestamp tick, and the racy-clean rule then rightly re-reads them.
    """
    newest = max(max(p.stat().st_mtime_ns, p.stat().st_ctime_ns) for p in cov_dir.iterdir())
    probe = cov_dir.parent / "probe"
    while True:
        probe.write_bytes(b"")
        if probe.stat().st_mtime_ns > newest:
            return
        time.sleep(0.001)


def pack_path(cov_dir, kind):
    return cov_dir / cov._PACK_NAMES[kind]


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
    """Counts of read_disk/read_asc calls, by kind, made through the loaders."""
    counts = {"disks": 0, "rasters": 0}

    def counting(kind, real):
        def wrapper(*args, **kwargs):
            counts[kind] += 1
            return real(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(cov, "read_disk", counting("disks", cov.read_disk))
    monkeypatch.setattr(cov, "read_asc", counting("rasters", cov.read_asc))
    return counts


def check(kind, cov_dir, db, **kwargs):
    """Load, compare with the file-by-file reference, and return the load."""
    got = LOAD[kind](cov_dir, db, **kwargs)
    assert coverage_values(got) == coverage_values(coverage_from_files(cov_dir, db, kind))
    return got


def same_size_edit(path, kind):
    """Change the value in ``path`` without changing its size."""
    text = path.read_text()
    if kind == "disks":
        e, n, r = text.split()
        last = r[-1]
        edited = f"{e} {n} {r[:-1]}{'1' if last != '1' else '2'}\n"
    else:
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
        assert file_reads[kind] == len(db)
        assert pack_path(cov_dir, kind).is_file()
        check(kind, cov_dir, db)
        assert file_reads[kind] == len(db)

    def test_same_size_edit_with_mtime_restored(self, kind, tree, file_reads):
        db, cov_dir = tree
        before = coverage_values(check(kind, cov_dir, db))
        source = cov_dir / f"s1{SUFFIX[kind]}"
        st = source.stat()
        source.write_text(same_size_edit(source, kind))
        restore_mtime(source, st)
        assert source.stat().st_size == st.st_size
        assert source.stat().st_mtime_ns == st.st_mtime_ns
        after = coverage_values(check(kind, cov_dir, db))
        assert after["s1"] != before["s1"]
        assert file_reads[kind] == len(db) + 1

    @pytest.mark.parametrize("field", ["st_size", "st_mtime_ns", "st_ctime_ns", "st_ino"])
    def test_every_stat_field_is_in_the_key(self, kind, tree, file_reads, monkeypatch, field):
        """A source whose stat differs from its key in one field is read again.

        Times move back a nanosecond, so the source stays older than the pack.
        """
        db, cov_dir = tree
        check(kind, cov_dir, db)
        target = str(cov_dir / f"s1{SUFFIX[kind]}")
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
        LOAD[kind](cov_dir, db, write_cache=False)
        assert file_reads[kind] == len(db) + 1

    def test_edit_between_read_and_pack_write(self, kind, tree, monkeypatch):
        """An edit after the read but before the pack write is read again.

        The edit keeps size, mtime and inode; only the ctime in the key
        gives it away once the pack is stamped later than the edit.
        """
        db, cov_dir = tree
        path = cov_dir / f"s1{SUFFIX[kind]}"
        name = {"disks": "read_disk", "rasters": "read_asc"}[kind]
        real = getattr(cov, name)

        def read_then_edit(text, tx_id, source):
            value = real(text, tx_id, source=source)
            if tx_id == "s1":
                st = path.stat()
                path.write_text(same_size_edit(path, kind))
                restore_mtime(path, st)
            return value

        monkeypatch.setattr(cov, name, read_then_edit)
        LOAD[kind](cov_dir, db)
        monkeypatch.undo()
        later = path.stat().st_ctime_ns + 1
        os.utime(pack_path(cov_dir, kind), ns=(later, later))
        check(kind, cov_dir, db)

    def test_replace_by_rename(self, kind, tree):
        db, cov_dir = tree
        before = coverage_values(check(kind, cov_dir, db))
        source = cov_dir / f"s2{SUFFIX[kind]}"
        st = source.stat()
        new = cov_dir / "incoming.tmp"
        new.write_text(same_size_edit(source, kind))
        restore_mtime(new, st)
        os.replace(new, source)
        after = coverage_values(check(kind, cov_dir, db))
        assert after["s2"] != before["s2"]

    def test_deleted_source(self, kind, tree):
        db, cov_dir = tree
        check(kind, cov_dir, db)
        (cov_dir / f"s0{SUFFIX[kind]}").unlink()
        if kind == "disks":
            check(kind, cov_dir, db)  # derived from s0.asc again
        else:
            with pytest.raises(FileNotFoundError, match="s0"):
                LOAD[kind](cov_dir, db)

    def test_transmitter_added_to_the_txdb(self, kind, tree, file_reads):
        db, cov_dir = tree
        check(kind, cov_dir, db)
        bigger = make_db(5)
        write_sources(cov_dir, TransmitterDb(bigger.transmitters[3:], source="test"))
        settle(cov_dir)
        check(kind, cov_dir, bigger)
        assert file_reads[kind] == len(db) + 2
        check(kind, cov_dir, bigger)
        assert file_reads[kind] == len(db) + 2
        check(kind, cov_dir, db)  # a smaller txdb still reads the bigger pack
        assert file_reads[kind] == len(db) + 2

    def test_copytree(self, kind, tree, tmp_path):
        db, cov_dir = tree
        check(kind, cov_dir, db)
        copy = tmp_path / "copy"
        shutil.copytree(cov_dir, copy)  # pack and sources, mtimes kept
        source = copy / f"s1{SUFFIX[kind]}"
        st = source.stat()
        source.write_text(same_size_edit(source, kind))
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
        source = cov_dir / f"s1{SUFFIX[kind]}"
        st = source.stat()
        source.write_text(same_size_edit(source, kind))
        os.utime(source, ns=(st.st_atime_ns, st.st_mtime_ns - 10**9))  # ctime > mtime
        forged = {tx.id: (cov._stat_key(str(cov_dir / f"{tx.id}{SUFFIX[kind]}"))[0], old[tx.id])
                  for tx in db}
        cov._write_pack(str(pack_path(cov_dir, kind)), kind, forged)
        now = source.stat()
        pack_mtime = {"mtime": now.st_mtime_ns, "ctime": now.st_ctime_ns,
                      "older": now.st_ctime_ns + 1}[stamp]
        os.utime(pack_path(cov_dir, kind), ns=(pack_mtime, pack_mtime))
        if stamp == "older":
            got = LOAD[kind](cov_dir, db, write_cache=False)
            assert coverage_values(got) == coverage_values(old)
        else:
            check(kind, cov_dir, db)

    def test_write_cache_false_writes_no_pack(self, kind, tree):
        db, cov_dir = tree
        check(kind, cov_dir, db, write_cache=False)
        assert not pack_path(cov_dir, kind).exists()


def bad_packs(kind, good: bytes):
    """(name, bytes) of packs a load must ignore."""
    other = {"disks": "rasters", "rasters": "disks"}[kind]
    head = np.array(f"{cov._PACK_FORMAT} {kind}")

    def npy(*arrays, allow_pickle=False):
        import io

        f = io.BytesIO()
        for a in arrays:
            np.save(f, a, allow_pickle=allow_pickle)
        return f.getvalue()

    ids = np.array(["s0", "s1", "s2"])
    return [
        ("empty", b""),
        ("garbage", bytes(range(256)) * 4),
        ("truncated-header", good[:40]),
        ("truncated-body", good[: len(good) // 2]),
        ("truncated-last-byte", good[:-1]),
        ("trailing-bytes", good + b"\0"),
        ("other-kind", npy(np.array(f"{cov._PACK_FORMAT} {other}"))),
        ("future-format", npy(np.array(f"{cov._PACK_FORMAT} {kind}".replace("1", "2")))),
        ("signed-keys", npy(head, ids, np.zeros((3, 4), np.int64), np.zeros((3, 3)))),
        ("float32-columns", npy(head, ids, np.zeros((3, 4), np.uint64),
                                np.ones((3, 3), np.float32))),
        ("object-ids", npy(head, ids.astype(object), allow_pickle=True)),
        ("pickle", pickle.dumps({"s0": None})),
        ("zip", b"PK\x03\x04" + good),
    ]


@pytest.mark.parametrize("kind", KINDS)
class TestBadPack:
    def test_ignored_and_replaced(self, kind, tree, file_reads):
        db, cov_dir = tree
        check(kind, cov_dir, db)
        good = pack_path(cov_dir, kind).read_bytes()
        for name, data in bad_packs(kind, good):
            pack_path(cov_dir, kind).write_bytes(data)
            settle(cov_dir)
            before = file_reads[kind]
            check(kind, cov_dir, db)
            assert file_reads[kind] == before + len(db), name
            assert pack_path(cov_dir, kind).read_bytes() != data, name
            check(kind, cov_dir, db)
            assert file_reads[kind] == before + len(db), f"{name}: pack not rewritten"

    def test_failed_write_is_skipped(self, kind, tree, monkeypatch):
        db, cov_dir = tree

        def refuse(*args, **kwargs):
            raise OSError("no space left on device")

        monkeypatch.setattr(cov.os, "replace", refuse)
        check(kind, cov_dir, db)
        assert sorted(p.suffix for p in cov_dir.iterdir()) == [".asc"] * 3 + [".disk"] * 3

    def test_write_that_fails_midway_is_skipped(self, kind, tree, monkeypatch):
        db, cov_dir = tree
        real_save = np.save
        calls = []

        def save_then_fail(f, array, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise OSError("disk full")
            real_save(f, array, **kwargs)

        monkeypatch.setattr(np, "save", save_then_fail)
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


class TestFuzz:
    @given(kind=st.sampled_from(KINDS), data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_a_damaged_pack_is_never_an_error(self, fuzz_tree, kind, data):
        db, cov_dir, good = fuzz_tree
        damaged = data.draw(st.one_of(
            st.integers(0, len(good[kind]) - 1).map(lambda n: good[kind][:n]),
            st.binary(max_size=300).map(lambda b: good[kind][:128] + b),
            st.binary(max_size=300),
        ))
        pack_path(cov_dir, kind).write_bytes(damaged)
        os.utime(pack_path(cov_dir, kind), ns=(time.time_ns(),) * 2)
        check(kind, cov_dir, db, write_cache=False)


class TestCli:
    def test_synth_and_disks_leave_no_pack(self, tmp_path, capsys):
        out = tmp_path / "tree"
        assert main(["synth", "--n", "3", "--region", "200000,200000,300000,300000",
                     "--seed", "9", "--cell", "2000", "--out", str(out)]) == 0
        names = sorted(p.name for p in (out / "coverage").iterdir())
        data = ["--txdb", str(out / "transmitters.csv"), "--coverage", str(out / "coverage")]
        assert main(["disks", *data]) == 0
        assert sorted(p.name for p in (out / "coverage").iterdir()) == names
        settle(out / "coverage")
        assert main(["query", *data, "--loc", "250000,250000"]) == 0
        assert main(["query", *data, "--loc", "250000,250000", "--mode", "raster",
                     "--power", "0"]) == 0
        added = set(p.name for p in (out / "coverage").iterdir()) - set(names)
        assert added == set(cov._PACK_NAMES.values())


class TestDiskCentre:
    """A .disk whose centre is not its transmitter's position is refused."""

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

    def test_moved_transmitter(self, tree):
        db, cov_dir = tree
        with pytest.raises(ParseError, match="s1.disk") as info:
            cov.load_disks(cov_dir, self.moved(db, "s1"), write_cache=False)
        assert "not the position of 's1'" in str(info.value)

    def test_checked_on_a_pack_hit(self, tree, file_reads):
        db, cov_dir = tree
        cov.load_disks(cov_dir, db)
        with pytest.raises(ParseError, match="s2.disk"):
            cov.load_disks(cov_dir, self.moved(db, "s2", by=-0.5))
        assert file_reads["disks"] == len(db)  # the second load read no file

    def test_cli_exits_3_naming_the_file(self, tmp_path, capsys):
        out = tmp_path / "tree"
        assert main(["synth", "--n", "2", "--region", "200000,200000,300000,300000",
                     "--seed", "4", "--cell", "2000", "--out", str(out)]) == 0
        txdb = out / "transmitters.csv"
        lines = txdb.read_text().splitlines()
        row = lines[2].split(",")
        row[1] = repr(float(row[1]) + 10.0)
        txdb.write_text("\n".join([*lines[:2], ",".join(row), *lines[3:]]) + "\n")
        capsys.readouterr()
        code = main(["query", "--txdb", str(txdb), "--coverage", str(out / "coverage"),
                     "--loc", "250000,250000"])
        assert code == 3
        assert f"{row[0]}.disk" in capsys.readouterr().err


class TestWriteWarnings:
    """A pack or ``.disk`` write that fails warns once on stderr, naming the file.

    The load itself, stdout and the exit code are as if the write had worked.
    """

    @staticmethod
    def refuse_disk_writes(monkeypatch):
        real = cov.Path.write_text

        def write_text(path, *args, **kwargs):
            if path.suffix == ".disk":
                raise PermissionError(13, "Permission denied", str(path))
            return real(path, *args, **kwargs)

        monkeypatch.setattr(cov.Path, "write_text", write_text)

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
        check(kind, cov_dir, db, write_cache=False)  # nothing to write, nothing to say
        assert capsys.readouterr().err == ""

    def test_failed_disk_write(self, tree, monkeypatch, capsys):
        db, cov_dir = tree
        for tx in db:
            (cov_dir / f"{tx.id}.disk").unlink()
        self.refuse_disk_writes(monkeypatch)
        check("disks", cov_dir, db)
        assert capsys.readouterr().err.splitlines() == [
            f"tvws: warning: could not write disk cache {cov_dir / f'{tx.id}.disk'}: "
            f"[Errno 13] Permission denied: '{cov_dir / f'{tx.id}.disk'}'"
            for tx in db
        ]
        assert not list(cov_dir.glob("*.disk"))

    def test_cli_stdout_and_exit_code_unchanged(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "tree"
        assert main(["synth", "--n", "3", "--region", "200000,200000,300000,300000",
                     "--seed", "9", "--cell", "2000", "--out", str(out)]) == 0
        for disk in (out / "coverage").glob("*.disk"):
            disk.unlink()
        query = ["query", "--txdb", str(out / "transmitters.csv"),
                 "--coverage", str(out / "coverage"), "--loc", "250000,250000"]
        raster = [*query, "--mode", "raster", "--power", "0"]
        capsys.readouterr()
        with monkeypatch.context() as failing:
            self.refuse_disk_writes(failing)
            failing.setattr(cov.os, "replace", lambda *args: (_ for _ in ()).throw(OSError("full")))
            assert main(query) == 0  # derives three disks, and cannot write them
            disk_run = capsys.readouterr()
            assert main(raster) == 0  # reads three rasters, and cannot pack them
            raster_run = capsys.readouterr()
        assert [line.split()[7] for line in disk_run.err.splitlines()] == [
            f"{out / 'coverage' / f'tx{i}.disk'}:" for i in (1, 2, 3)
        ]
        assert raster_run.err.splitlines() == [
            f"tvws: warning: could not write coverage pack "
            f"{out / 'coverage' / '.tvws-rasters.pack'}: full"
        ]
        for argv, refused in ((query, disk_run), (raster, raster_run)):
            assert main(argv) == 0
            written = capsys.readouterr()
            assert (written.out, written.err) == (refused.out, "")
