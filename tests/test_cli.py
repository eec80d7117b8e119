import argparse
import json
import os
import re
from pathlib import Path
from xml.dom import minidom

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvws.cli import main
from tvws.errors import ParseError
from tvws.txdb import load_txdb


def tree_files(root):
    out = {}
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in filenames:
            path = os.path.join(dirpath, name)
            out[os.path.relpath(path, root)] = Path(path).read_bytes()
    return out


@pytest.fixture(scope="module")
def small_fixture(tmp_path_factory):
    out = tmp_path_factory.mktemp("small")
    code = main(
        [
            "synth",
            "--n", "6",
            "--region", "200000,200000,400000,400000",
            "--seed", "5",
            "--cell", "2000",
            "--out", str(out),
        ]
    )
    assert code == 0
    return out


def base_args(fixture):
    return [
        "--txdb", str(fixture / "transmitters.csv"),
        "--coverage", str(fixture / "coverage"),
    ]


class TestSynth:
    def test_same_seed_identical_trees(self, tmp_path):
        args = ["synth", "--n", "3", "--region", "200000,200000,300000,300000",
                "--seed", "9", "--cell", "2000"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        ta, tb = tree_files(a), tree_files(b)
        assert ta.keys() == tb.keys()
        assert all(ta[k] == tb[k] for k in ta)

    def test_n1_writes_one_row_and_one_raster(self, tmp_path):
        out = tmp_path / "one"
        assert main(["synth", "--n", "1", "--region", "200000,200000,300000,300000",
                     "--seed", "2", "--cell", "2000", "--out", str(out)]) == 0
        db = load_txdb((out / "transmitters.csv").read_text())
        assert len(db) == 1
        assert (out / "coverage" / f"{db.transmitters[0].id}.asc").is_file()
        assert not (out / "coverage" / f"{db.transmitters[0].id}.disk").exists()  # disks writes it

    def test_generated_fixture_passes_validation(self, small_fixture):
        db = load_txdb((small_fixture / "transmitters.csv").read_text())
        assert len(db) == 6

    def test_uk81_preset_writes_locations(self, uk81_dir):
        assert (uk81_dir / "locations.csv").is_file()
        lines = [
            l for l in (uk81_dir / "locations.csv").read_text().splitlines()
            if l and not l.startswith("#")
        ]
        assert len(lines) == 18

    def test_synth_requires_out(self, capsys):
        assert main(["synth", "--n", "1", "--region", "0,0,1000,1000"]) == 2

    def test_synth_requires_preset_or_region(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path / "x")]) == 2


class TestQuery:
    def test_query_report_is_deterministic_and_oracle_backed(self, uk81, uk81_dir, capsys):
        from oracles import rho_by_enumeration
        from tvws.channel_plan import default_plan

        args = [
            "query",
            "--txdb", str(uk81_dir / "transmitters.csv"),
            "--coverage", str(uk81_dir / "coverage"),
            "--loc", "SP 513 061",
            "--power", "0",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert first == second

        db, _rasters, disks = uk81
        from tvws.geo import parse_gridref

        expected = rho_by_enumeration(
            db, disks, default_plan(), parse_gridref("SP 513 061"), 0.0, 3.0, 1.0
        )
        assert f"rho={expected}" in first

    @pytest.mark.parametrize("loc, echo", [("HU 4123 4567", "441230,1145670"),
                                           ("123456.789,234567.891", "123456.789,234567.891")])
    def test_location_echo_is_exact(self, small_fixture, capsys, loc, echo):
        assert main(["query"] + base_args(small_fixture) + ["--loc", loc]) == 0
        assert f"location: {loc} -> {echo}\n" in capsys.readouterr().out

    def test_power_unit_equivalence(self, small_fixture, capsys):
        args = base_args(small_fixture) + ["--loc", "300000,300000"]
        assert main(["query"] + args + ["--power", "100mW"]) == 0
        out_mw = capsys.readouterr().out
        assert main(["query"] + args + ["--power", "0.1"]) == 0
        out_w = capsys.readouterr().out
        assert out_mw == out_w

    def test_malformed_gridref_exit_2(self, small_fixture, capsys):
        code = main(["query"] + base_args(small_fixture) + ["--loc", "QQ 99"])
        assert code == 2
        assert "bad location" in capsys.readouterr().err

    def test_no_disk_or_raster_exit_3(self, small_fixture, tmp_path, capsys):
        import shutil

        data = tmp_path / "data"
        shutil.copytree(small_fixture, data)
        for path in (data / "coverage").glob("tx1.*"):
            path.unlink()
        code = main(["query"] + base_args(data) + ["--loc", "300000,300000"])
        assert code == 3
        asc = data / "coverage" / "tx1.asc"
        assert capsys.readouterr().err == f"tvws: error: no coverage raster for 'tx1': {asc}\n"

    @pytest.mark.parametrize("command", ["query", "batch", "sweep", "grid"])
    def test_a_disk_file_without_its_raster_exits_3(self, small_fixture, tmp_path, capsys,
                                                    command):
        """A station's .asc is its one coverage input: the .disk beside no .asc is not read."""
        import shutil

        data = tmp_path / "data"
        shutil.copytree(small_fixture, data)
        assert main(["disks", *base_args(data)]) == 0
        asc = data / "coverage" / "tx1.asc"
        asc.unlink()
        locations = tmp_path / "locations.csv"
        locations.write_text("a,300000,300000\n")
        flags = {
            "query": ["--loc", "300000,300000"],
            "batch": ["--locations", str(locations)],
            "sweep": ["--loc", "300000,300000", "--powers", "0.1,1"],
            "grid": ["--region", "200000,200000,400000,400000", "--cell", "50000"],
        }[command]
        capsys.readouterr()
        assert main([command, *base_args(data), *flags]) == 3
        assert (data / "coverage" / "tx1.disk").is_file()
        assert capsys.readouterr().err == f"tvws: error: no coverage raster for 'tx1': {asc}\n"

    def test_bad_txdb_row_exit_3_names_the_file(self, small_fixture, tmp_path, capsys):
        csv_path = tmp_path / "transmitters.csv"
        text = (small_fixture / "transmitters.csv").read_text()
        assert text.startswith("# source: synthetic(")
        csv_path.write_text(text + "bad,900000,1000,25,10,21\n")
        argv = ["query", "--txdb", str(csv_path), "--coverage", str(small_fixture / "coverage"),
                "--loc", "300000,300000"]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert f"{csv_path}:{len(text.splitlines()) + 1}: bad coordinates" in err

    def test_missing_txdb_exit_3(self, tmp_path, capsys):
        code = main(
            ["query", "--txdb", str(tmp_path / "nope.csv"),
             "--coverage", str(tmp_path), "--loc", "SP 513 061"]
        )
        assert code == 3

    def test_no_data_configured_exit_3(self, capsys, monkeypatch):
        monkeypatch.delenv("TVWS_DATA_DIR", raising=False)
        assert main(["query", "--loc", "SP 513 061"]) == 3

    def test_env_var_data_root(self, small_fixture, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("TVWS_DATA_DIR", str(small_fixture))
        assert main(["query", "--loc", "300000,300000"]) == 0
        assert "vacant" in capsys.readouterr().out

    def test_raster_mode_needs_zero_power(self, small_fixture, tmp_path, capsys):
        locs = tmp_path / "locs.csv"
        locs.write_text("a,300000,300000\n")
        for where in (["query", "--loc", "300000,300000"], ["batch", "--locations", str(locs)]):
            code = main(where + base_args(small_fixture) + ["--mode", "raster", "--power", "1"])
            assert code == 2
            assert "zero-power model" in capsys.readouterr().err

    def test_raster_mode_at_zero_power(self, small_fixture, capsys):
        code = main(
            ["query"] + base_args(small_fixture)
            + ["--loc", "300000,300000", "--mode", "raster"]
        )
        assert code == 0
        assert "mode: raster" in capsys.readouterr().out

    def test_writes_artifacts(self, small_fixture, tmp_path, capsys):
        out = tmp_path / "artifacts"
        code = main(
            ["query"] + base_args(small_fixture)
            + ["--loc", "SP 513 061", "--power", "0", "--out", str(out)]
        )
        assert code == 0
        assert (out / "query.csv").is_file()
        assert (out / "query.json").is_file()
        assert (out / "query.svg").is_file()
        payload = json.loads((out / "query.json").read_text())
        assert payload["reports"][0]["label"] == "SP 513 061"

    @pytest.mark.parametrize("loc", ["300000,300000\x0c", "SP 513 061\x1e", "SP\x0b513061",
                                     "SP 513 061\x1f", "300000,300000\x0b"])
    def test_svg_is_well_formed_for_a_location_with_a_control_character(
            self, small_fixture, tmp_path, capsys, loc):
        """The location text parses, since float and str.split take these for blanks.

        The chart shows each character XML forbids as U+FFFD; the JSON and
        stdout keep the text as given.
        """
        out = tmp_path / "artifacts"
        assert main(["query", *base_args(small_fixture), "--loc", loc, "--out", str(out)]) == 0
        svg = minidom.parse(str(out / "query.svg"))
        title = svg.getElementsByTagName("text")[0].firstChild.data
        assert title.startswith(re.sub("[\x0b\x0c\x1c-\x1f]", "\ufffd", loc) + ": ")
        payload = json.loads((out / "query.json").read_text(encoding="utf-8"))
        assert payload["reports"][0]["label"] == loc
        assert capsys.readouterr().out.startswith(f"location: {loc} -> ")

    def test_adjacent_filter_flag_prints_available(self, small_fixture, capsys):
        code = main(
            ["query"] + base_args(small_fixture)
            + ["--loc", "300000,300000", "--adjacent-filter"]
        )
        assert code == 0
        assert "available for use:" in capsys.readouterr().out

    def test_beta_db_conversion(self, small_fixture, capsys):
        assert main(["query"] + base_args(small_fixture)
                    + ["--loc", "300000,300000", "--beta-db", "10"]) == 0
        assert "beta_th: 10.0" in capsys.readouterr().out

    def test_beta_and_beta_db_conflict(self, small_fixture):
        with pytest.raises(SystemExit) as exc:
            main(["query"] + base_args(small_fixture)
                 + ["--loc", "1,2", "--beta", "1", "--beta-db", "3"])
        assert exc.value.code == 2


class TestBatch:
    def test_batch_rows_and_filter_bound(self, small_fixture, tmp_path, capsys):
        locs = tmp_path / "locs.csv"
        locs.write_text(
            "# comment\n"
            "alpha,SP 513 061\n"
            "bravo,300000,300000\n"
            "charlie,SK 50 30\n"
        )
        code = main(["batch"] + base_args(small_fixture) + ["--locations", str(locs)])
        assert code == 0
        lines = [
            l for l in capsys.readouterr().out.splitlines() if l and not l.startswith("#")
        ]
        assert len(lines) == 4  # header + 3 rows
        for row in lines[1:]:
            fields = row.split(",")
            # label may contain a comma only when quoted; none here do
            assert int(fields[2]) <= int(fields[1])

    def test_duplicate_labels_rejected(self, small_fixture, tmp_path, capsys):
        locs = tmp_path / "dup.csv"
        locs.write_text("a,SP 513 061\na,SK 50 30\n")
        code = main(["batch"] + base_args(small_fixture) + ["--locations", str(locs)])
        assert code == 3
        assert "duplicate label" in capsys.readouterr().err

    def test_bad_location_line_reports_line_number(self, small_fixture, tmp_path, capsys):
        locs = tmp_path / "bad.csv"
        locs.write_text("a,SP 513 061\nb,XX !!\n")
        code = main(["batch"] + base_args(small_fixture) + ["--locations", str(locs)])
        assert code == 3
        assert ":2:" in capsys.readouterr().err

    def test_one_row_svg_is_well_formed_for_a_label_with_a_control_character(
            self, small_fixture, tmp_path, capsys):
        locs = tmp_path / "locs.csv"
        locs.write_text("a\x0bb\x1fc,300000,300000\n", encoding="utf-8")
        out = tmp_path / "artifacts"
        assert main(["batch", *base_args(small_fixture), "--locations", str(locs),
                     "--out", str(out)]) == 0
        svg = minidom.parse(str(out / "batch.svg"))
        assert svg.getElementsByTagName("text")[0].firstChild.data.startswith("a\ufffdb\ufffdc: ")
        payload = json.loads((out / "batch.json").read_text(encoding="utf-8"))
        assert payload["reports"][0]["label"] == "a\x0bb\x1fc"
        assert "\na\x0bb\x1fc," in capsys.readouterr().out

    def test_workers_do_not_change_output(self, small_fixture, tmp_path, capsys):
        locs = tmp_path / "par.csv"
        locs.write_text("\n".join(f"s{i},{250000 + 7000 * i},300000" for i in range(12)))
        args = ["batch"] + base_args(small_fixture) + ["--locations", str(locs)]
        assert main(args + ["--workers", "1"]) == 0
        seq = capsys.readouterr().out
        assert main(args + ["--workers", "4"]) == 0
        par = capsys.readouterr().out
        assert seq == par


# Pieces of location files: grid references at 2-10 digits with lower-case,
# "I", "ß" and "ſ" letters and non-decimal digits; "e,n" pairs at and past the
# envelope edges; labels that repeat, are empty or carry spaces and "#".
GRIDREFS = st.builds(
    lambda letters, digits, gap: gap.join([letters, digits[: len(digits) // 2],
                                           digits[len(digits) // 2 :]]),
    st.text(alphabet="STNHOJPZAIspntoßſ", min_size=2, max_size=2),
    st.text(alphabet="0123456789", min_size=1, max_size=11)
    | st.text(alphabet="0123456789²٣", max_size=6),
    st.sampled_from(["", " ", "  ", "\t"]),
)
COORDS = st.sampled_from(
    ["0", "-0", "0.0", "699999.99", "700000", "7e5", "1299999.5", "1300000", "-1", "nan",
     "inf", "-inf", "1e309", "٣", "1_5", "abc", " 5 ", ""]
) | st.floats(-1e5, 1.5e6).map(repr)
LOCATIONS = st.one_of(GRIDREFS, st.builds("{},{}".format, COORDS, COORDS), st.text(max_size=6))
LINES = st.one_of(
    st.builds("{2}{0},{2}{1}{2}".format,
              st.sampled_from(["a", "b", "site 1", "", " ", "#x", "x#"])
              | st.text("ab#é ", max_size=3),
              LOCATIONS, st.sampled_from(["", " ", "\t"])),
    st.sampled_from(["", "   ", "# comment", "  # x,y", "no comma here", "a,b,c,d"]),
)
# rows that parse, mostly: labels are unique once stripped, and a few locations are
# off the envelope or hold an "I"; a label that starts with "#" makes its line a comment
ROWS = st.lists(
    st.tuples(
        st.builds("{}{}".format, st.sampled_from(["s", "é", "x", "#"]),
                  st.text("ab#é \t", max_size=3)),
        st.one_of(
            st.builds("{0}{2}{1}".format,
                      st.sampled_from(["SP", "sp", "Tq", "HP", "SV", "NZ", "SI", "ZZ"]),
                      st.integers(1, 5).flatmap(lambda h: st.text("0123456789", min_size=2 * h,
                                                                   max_size=2 * h)),
                      st.sampled_from(["", " "])),
            st.builds("{!r},{!r}".format, st.floats(0, 700_000), st.floats(0, 1_300_000)),
            st.builds("{},{}".format, st.integers(0, 700_000), st.integers(0, 1_300_000)),
        ),
        st.sampled_from(["", " ", "\t"]),
    ),
    max_size=10, unique_by=lambda row: row[0].strip(),
)


# Whole location files for the columnar reader: plain grid references (spaces
# anywhere) and e,n pairs, the exotic forms only parse_coords decodes, and bad lines
# of every kind, several to a file so that the first one in the file must win.
SPACED = st.builds(
    lambda text, gaps: "".join(c + g for c, g in zip(text, gaps)),
    st.builds("{}{}".format,
              st.sampled_from(["SP", "sp", "Tq", "HP", "SV", "NZ", "TV", "OV", "JM", "HL"]),
              st.integers(1, 5).flatmap(lambda h: st.text("0123456789", min_size=2 * h,
                                                           max_size=2 * h))),
    st.lists(st.sampled_from(["", "", " ", "  "]), min_size=12, max_size=12),
)
PAIRS = st.builds("{!r},{!r}".format, st.floats(0, 699_999.99), st.floats(0, 1_299_999.99))
EXOTIC = st.sampled_from([
    "SP\t51 06", "SP\u00a0513 061", "SP 513\u3000061", "SP \u0665\u0661\u0663 061", "sP51\u200906",
    "5e5,1e5", "1_000,2_000", " 7 , 8 ", "+1,2", "1.,.5", "\u0661,\u0662", "-0,0", "0x,1",
])
BAD_LOCATIONS = st.sampled_from([
    "", "S", "SP", "SP1", "SP 12 3", "SP 123456789012", "SI 12 34", "iS 12 34", "\u00dfP 12 34",
    "S1 12 34", "SP 1\u00b2 34", "ZZ 12 34", "AA 12 34", "SP 12_34", "SP 1e 34",
    "1,2,3", "a,b", "nan,1", "1,inf", "700000,1", "1,1300000", "-1,5", "1e309,1", ",", "1,",
])
LOCATION_LINE = st.one_of(SPACED, SPACED, PAIRS, PAIRS, EXOTIC)
BAD_LINE = st.one_of(
    st.tuples(st.just("location"), BAD_LOCATIONS),
    st.tuples(st.sampled_from(["no comma", "empty label", "duplicate"]), LOCATION_LINE),
)


class TestLocationReader:
    """The columnar reader gives the per-row reader's rows and errors (``oracles``)."""

    @staticmethod
    def outcome(read, path):
        try:
            return read(path)
        except ParseError as exc:
            return ("error", str(exc), exc.line)

    @given(rows=ROWS, newline=st.sampled_from(["\n", "\r\n"]),
           wild=st.lists(st.tuples(st.integers(0, 10), LINES | st.integers(0, 9)), max_size=2))
    @settings(max_examples=400, deadline=None)
    def test_matches_the_reference_reader(self, tmp_path_factory, rows, wild, newline):
        """``wild`` lines go in at the given places; an int there repeats that row's line."""
        import oracles
        from tvws.cli import _read_locations_file

        lines = ["{2}{0},{2}{1}{2}".format(*row) for row in rows]
        for at, line in wild:
            lines.insert(at, lines[line % len(lines)] if isinstance(line, int) and lines
                         else str(line))
        path = tmp_path_factory.getbasetemp() / "reader-locations.csv"
        path.write_bytes(newline.join(lines).encode())
        got = self.outcome(_read_locations_file, str(path))
        want = self.outcome(oracles.read_locations_file, str(path))
        if want[0] != "error":  # labels, and coordinates to the bit
            want = [(label, p.easting.hex(), p.northing.hex()) for label, p in want]
            labels, east, north = got
            got = [(label, e.hex(), n.hex())
                   for label, e, n in zip(labels, east.tolist(), north.tolist())]
        assert got == want

    @given(locations=st.lists(LOCATION_LINE | st.sampled_from(["", "# note", " #x,y"]),
                              max_size=60),
           bad=st.lists(st.tuples(st.integers(0, 60), BAD_LINE), max_size=4))
    @settings(max_examples=400, deadline=None)
    def test_matches_the_line_by_line_reader(self, tmp_path_factory, locations, bad):
        """``bad`` lines go in at the given places; labels and coordinates match to the bit."""
        import oracles
        from tvws.cli import _read_locations_file

        lines = [text if text in ("", "# note", " #x,y") else f"p{i}, {text}"
                 for i, text in enumerate(locations)]
        for at, (kind, text) in bad:
            lines.insert(at, {"location": f"q{at}{kind},{text}", "no comma": "lonely",
                              "empty label": f" ,{text}", "duplicate": f"p0,{text}"}[kind])
        path = tmp_path_factory.getbasetemp() / "by-line-locations.csv"
        path.write_bytes("\n".join(lines).encode())
        got = self.outcome(_read_locations_file, str(path))
        want = self.outcome(oracles.read_locations_by_line, str(path))
        if want[0] != "error":
            got, want = ([(label, e.hex(), n.hex()) for label, e, n
                          in zip(labels, east.tolist(), north.tolist())]
                         for labels, east, north in (got, want))
        assert got == want

    def test_plain_forms_are_decoded_as_columns(self):
        """Only the exotic forms, and the bad ones, are left to ``parse_coords``."""
        from tvws.geo import decode_coords, parse_coords

        plain = ["SP 513 061", "sp513061", "HP 99 99", "SV0000000000", "1.5,2", "699999.9,0"]
        exotic = ["SP\t51 06", "SP \u0665\u0661 06", "SI 12 34", "SP 12 3", "nan,1", "1,1e400"]
        east, north, rest = decode_coords(plain + exotic)
        assert rest == list(range(len(plain), len(plain + exotic)))
        assert [(e.hex(), n.hex()) for e, n in zip(east[: len(plain)], north[: len(plain)])] == [
            (e.hex(), n.hex()) for e, n in map(parse_coords, plain)]

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_lines_end_only_at_newlines(self, tmp_path, newline):
        """U+2028 is part of a label, not a line end, so line numbers are what an editor shows."""
        import oracles
        from tvws.cli import _read_locations_file

        path = tmp_path / "ls.csv"
        path.write_bytes(newline.join(["a\u2028x,1,2", "b,3,4", ""]).encode())
        labels, east, north = _read_locations_file(str(path))
        assert labels == ["a\u2028x", "b"]
        assert (east.tolist(), north.tolist()) == ([1.0, 3.0], [2.0, 4.0])
        assert [label for label, _p in oracles.read_locations_file(str(path))] == labels
        path.write_bytes(newline.join(["a\u2028x,1,2", "b"]).encode())
        for read in (_read_locations_file, oracles.read_locations_file):
            with pytest.raises(ParseError, match="expected 'label,location'") as exc:
                read(str(path))
            assert exc.value.line == 2

    def test_a_bad_file_exits_3_with_the_reference_message(self, small_fixture, tmp_path,
                                                           capsys):
        import oracles

        locs = tmp_path / "bad.csv"
        locs.write_text("# sites\na,SP 513 061\nb,300000,300000\n\nc, ßP 51 06\nd,1,2,3\n",
                        encoding="utf-8")
        assert main(["batch", *base_args(small_fixture), "--locations", str(locs)]) == 3
        with pytest.raises(ParseError) as exc:
            oracles.read_locations_file(str(locs))
        assert capsys.readouterr().err == f"tvws: error: {exc.value}\n"
        assert exc.value.line == 5


class TestBatchPool:
    """A thread holds at least one kernel block, and any split gives the same bytes."""

    @staticmethod
    def count_pools(monkeypatch):
        import tvws.cli

        made = []

        class Counting(tvws.cli.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                made.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(tvws.cli, "ThreadPoolExecutor", Counting)
        return made

    @staticmethod
    def locations(path, count):
        # grid references and e,n pairs alternately, over the small fixture's region
        path.write_text("".join(
            f"p{i},{200000 + i * 24.4:.1f},{400000 - i * 24.3:.1f}\n" if i % 2
            else f"p{i},SU {i % 1000:03d} {i * 7 % 1000:03d}\n"
            for i in range(count)))
        return path

    def test_workers_split_a_large_batch_into_identical_bytes(self, small_fixture, tmp_path,
                                                              capsys, monkeypatch):
        from tvws.availability import _BLOCK_POINTS

        made = self.count_pools(monkeypatch)
        locs = self.locations(tmp_path / "locs.csv", 2 * _BLOCK_POINTS + 1)
        outputs = []
        for workers in (1, 2, 3):
            out = tmp_path / f"w{workers}"
            assert main(["batch", *base_args(small_fixture), "--locations", str(locs),
                         "--power", "0.5", "--workers", str(workers), "--out", str(out)]) == 0
            outputs.append((capsys.readouterr().out, tree_files(out)))
        assert outputs[0] == outputs[1] == outputs[2]
        assert len(outputs[0][0].splitlines()) == 2 * _BLOCK_POINTS + 3
        assert made == [2, 2]  # 8,193 locations hold two blocks, so at most two threads

    @pytest.mark.parametrize("count", [1, 4096])
    def test_one_block_starts_no_pool(self, small_fixture, tmp_path, capsys, monkeypatch,
                                      count):
        made = self.count_pools(monkeypatch)
        locs = self.locations(tmp_path / "locs.csv", count)
        assert main(["batch", *base_args(small_fixture), "--locations", str(locs),
                     "--workers", "4"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == count + 2
        assert made == []


def one_cell_station(out, cellsize):
    """A one-station tree whose ``.asc`` is one covered cell at the station's position.

    The cell's centre rounds to the position, so the disk's radius is half
    the cell diagonal: 1e-323 for ``cellsize 1e-323``, 0 for ``5e-324``.
    Returns (easting, northing, id, the .asc's path).
    """
    assert main(["synth", "--n", "1", "--region", "200000,200000,300000,300000",
                 "--seed", "3", "--out", str(out)]) == 0
    db = load_txdb((out / "transmitters.csv").read_text())
    (e, n), tx_id = db.floats[0, :2].tolist(), db.ids[0]
    asc = out / "coverage" / f"{tx_id}.asc"
    asc.write_text(f"ncols 1\nnrows 1\nxllcorner {e!r}\nyllcorner {n!r}\ncellsize {cellsize}\n1\n")
    return e, n, tx_id, asc


def test_a_subnormal_keepout_radius_answers_without_a_warning(tmp_path, capsys):
    """R' = 1e-323 overflows d / R'; the answer stands and nothing reaches stderr."""
    import warnings

    from tvws.channel_plan import default_plan

    e, n, _tx_id, _asc = one_cell_station(tmp_path, "1e-323")
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["query", *base_args(tmp_path), "--loc", f"{e + 0.5!r},{n!r}",
                     "--power", "0"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    rho = len(default_plan().interleaved)  # the station, 0.5 m from its centre, blocks nothing
    assert f"vacant (rho={rho}, {8 * rho} MHz)" in captured.out
    assert "occupied: none" in captured.out


def test_a_raster_query_far_from_a_subnormal_cell_is_uncovered(tmp_path, capsys):
    """(x - x0) / 1e-323 overflows to inf a few metres away: outside the raster, not an error."""
    from tvws.channel_plan import default_plan

    _e, _n, _tx_id, _asc = one_cell_station(tmp_path, "1e-323")
    locations = tmp_path / "locations.csv"
    locations.write_text("far,400000,400000\nnear,250000,250000\n")
    rho = len(default_plan().interleaved)
    capsys.readouterr()
    assert main(["query", *base_args(tmp_path), "--loc", "400000,400000", "--mode", "raster"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert f"vacant (rho={rho}, {8 * rho} MHz)" in captured.out
    assert "occupied: none" in captured.out
    assert main(["batch", *base_args(tmp_path), "--locations", str(locations),
                 "--mode", "raster"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = [line.split(",") for line in captured.out.splitlines() if line.startswith(("far,", "near,"))]
    assert [(row[0], row[1]) for row in rows] == [("far", str(rho)), ("near", str(rho))]


@pytest.mark.parametrize("command", ["query", "grid", "disks"])
def test_a_disk_radius_that_rounds_to_zero_names_the_station_and_file(tmp_path, capsys, command):
    e, n, tx_id, asc = one_cell_station(tmp_path, "5e-324")
    flags = {
        "query": ["--loc", f"{e!r},{n!r}"],
        "grid": ["--region", "200000,200000,300000,300000", "--cell", "50000"],
        "disks": [],
    }[command]
    capsys.readouterr()
    assert main([command, *base_args(tmp_path), *flags]) == 3
    assert capsys.readouterr() == ("", f"tvws: error: {asc}: no coverage disk for {tx_id!r}: "
                                       "disk radius must be positive, got 0.0\n")


class TestSweep:
    def test_sweep_output(self, small_fixture, tmp_path, capsys):
        out = tmp_path / "sw"
        code = main(
            ["sweep"] + base_args(small_fixture)
            + ["--loc", "300000,300000", "--powers", "0.01,0.1,2", "--out", str(out)]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "power_watts,channels,mhz" in captured.out
        assert (out / "sweep.csv").read_text() == "".join(
            line + "\n" for line in captured.out.splitlines()
        )
        assert (out / "sweep.json").is_file()

    def test_geometric_range(self, small_fixture, capsys):
        code = main(
            ["sweep"] + base_args(small_fixture)
            + ["--loc", "300000,300000", "--powers", "0.01:4:5"]
        )
        assert code == 0
        rows = [
            l for l in capsys.readouterr().out.splitlines()
            if l and not l.startswith(("#", "power_watts"))
        ]
        assert len(rows) == 5
        assert float(rows[0].split(",")[0]) == pytest.approx(0.01)
        assert float(rows[-1].split(",")[0]) == pytest.approx(4.0)

    def test_bad_powers_usage_error(self, small_fixture):
        with pytest.raises(SystemExit) as exc:
            main(["sweep"] + base_args(small_fixture)
                 + ["--loc", "1,2", "--powers", "4:0.01:5"])
        assert exc.value.code == 2


class TestGrid:
    def test_grid_summary_and_asc(self, small_fixture, tmp_path, capsys):
        out = tmp_path / "g"
        code = main(
            ["grid"] + base_args(small_fixture)
            + ["--region", "250000,250000,350000,350000", "--cell", "25000",
               "--out", str(out)]
        )
        assert code == 0
        assert "rho min" in capsys.readouterr().out
        text = (out / "rho.asc").read_text()
        assert text.startswith("ncols")
        meta = json.loads((out / "rho.meta.json").read_text())
        assert meta["alpha"] == 3.0 and "plan" in meta

    def test_grid_asc_against_the_oracles(self, small_fixture, tmp_path):
        """Each cell of rho.asc is rho at its centre, and the file is the reference text."""
        from oracles import asc_text, coverage_from_files, rho_by_enumeration
        from tvws.channel_plan import default_plan
        from tvws.geo import NgPoint

        out = tmp_path / "g"
        assert main(["grid", *base_args(small_fixture), "--region", "250000,250000,370000,350000",
                     "--cell", "10000", "--power", "1", "--out", str(out)]) == 0
        db = load_txdb((small_fixture / "transmitters.csv").read_text())
        disks = coverage_from_files(small_fixture / "coverage", db, "disks")
        expected = [[rho_by_enumeration(db, disks, default_plan(),
                                        NgPoint(250000 + (col + 0.5) * 10000,
                                                250000 + (row + 0.5) * 10000), 1.0, 3.0, 1.0)
                     for col in range(12)] for row in range(10)]
        assert 10 <= min(map(min, expected)) < max(map(max, expected))  # two digits, not all one
        text = (out / "rho.asc").read_text()
        cells = [[int(v) for v in line.split()] for line in text.splitlines()[6:]]
        assert cells[::-1] == expected  # the file's first row is the northernmost
        assert text == asc_text(250000.0, 250000.0, 10000.0, expected)

    def test_grid_region_validation(self, small_fixture):
        with pytest.raises(SystemExit) as exc:
            main(["grid"] + base_args(small_fixture) + ["--region", "1,2,3"])
        assert exc.value.code == 2


class TestDisks:
    def test_disks_command_caches(self, tmp_path, capsys):
        out = tmp_path / "fx"
        assert main(["synth", "--n", "2", "--region", "200000,200000,300000,300000",
                     "--seed", "4", "--cell", "2000", "--out", str(out)]) == 0
        capsys.readouterr()
        assert not list((out / "coverage").glob("*.disk"))  # synth writes none
        code = main(["disks", "--txdb", str(out / "transmitters.csv"),
                     "--coverage", str(out / "coverage")])
        assert code == 0
        assert len(list((out / "coverage").glob("*.disk"))) == 2
        assert len(capsys.readouterr().out.splitlines()) == 2

    def test_a_missing_raster_writes_no_disk(self, tmp_path, capsys):
        """Every disk is derived before any is written, so a station with no .asc fails alone."""
        out = tmp_path / "fx"
        assert main(["synth", "--n", "3", "--region", "200000,200000,300000,300000",
                     "--seed", "4", "--cell", "2000", "--out", str(out)]) == 0
        db = load_txdb((out / "transmitters.csv").read_text())
        asc = out / "coverage" / f"{db.ids[2]}.asc"
        asc.unlink()
        capsys.readouterr()
        assert main(["disks", *base_args(out)]) == 3
        message = f"tvws: error: no coverage raster for {db.ids[2]!r}: {asc}\n"
        assert capsys.readouterr() == ("", message)
        assert not list((out / "coverage").glob("*.disk"))


class TestPlanFlag:
    def test_custom_plan_changes_rho(self, small_fixture, tmp_path, capsys):
        plan_file = tmp_path / "plan.txt"
        plan_file.write_text("interleaved = 21-24\n")
        code = main(
            ["query"] + base_args(small_fixture)
            + ["--loc", "650000,1250000", "--plan", str(plan_file)]
        )
        assert code == 0
        assert "rho=4" in capsys.readouterr().out

    def test_a_plan_file_edited_between_calls(self, small_fixture, tmp_path, capsys):
        """What is derived from a plan is kept with its plan object, not with the file's name."""
        import hashlib

        plan_file = tmp_path / "plan.txt"
        argv = ["query", *base_args(small_fixture), "--loc", "650000,1250000",
                "--plan", str(plan_file)]
        for text, interleaved, excluded in [
            ("interleaved = 21-24\n", [21, 22, 23, 24], []),
            ("interleaved = 41,43\nexcluded = 61\n", [41, 43], [61]),
        ]:
            plan_file.write_text(text)
            assert main(argv) == 0
            out = capsys.readouterr().out
            cleared = sorted(set(range(21, 69)) - set(interleaved) - set(excluded))
            canon = "|".join(f"{name}:{','.join(map(str, chans))}" for name, chans in
                             [("interleaved", interleaved), ("cleared", cleared),
                              ("excluded", excluded)])
            assert f"plan: {hashlib.sha256(canon.encode()).hexdigest()[:12]}\n" in out
            vacant = " ".join(map(str, interleaved))  # the location is clear of every station
            assert f"vacant (rho={len(interleaved)}, {8 * len(interleaved)} MHz): {vacant}\n" in out

    def test_broken_plan_file_exit_3(self, small_fixture, tmp_path, capsys):
        plan_file = tmp_path / "plan.txt"
        plan_file.write_text("interleaved = 21\ncleared = 21\n")
        code = main(
            ["query"] + base_args(small_fixture)
            + ["--loc", "1,2", "--plan", str(plan_file)]
        )
        assert code == 3


class TestFlagMatrix:
    """Every subcommand x --mode x --adjacent-filter: used, or refused with exit 2."""

    SUBCOMMANDS = {
        "query": ["--loc", "300000,300000"],
        "batch": ["--locations", "LOCS"],
        "sweep": ["--loc", "300000,300000", "--powers", "0.01,1"],
        "grid": ["--region", "250000,250000,350000,350000", "--cell", "25000"],
    }

    @pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
    @pytest.mark.parametrize("mode", [None, "disk", "raster"])
    @pytest.mark.parametrize("adjacent", [False, True])
    def test_flag_is_used_or_refused(
        self, small_fixture, tmp_path, capsys, command, mode, adjacent
    ):
        locs = tmp_path / "locs.csv"
        locs.write_text("a,300000,300000\nb,SP 513 061\n")
        argv = [command] + base_args(small_fixture) + [
            str(locs) if a == "LOCS" else a for a in self.SUBCOMMANDS[command]
        ]
        if mode is not None:
            argv += ["--mode", mode]
        if adjacent:
            argv.append("--adjacent-filter")
        refused = {"--mode": command in ("sweep", "grid") and mode == "raster",
                   "--adjacent-filter": command != "query" and adjacent}
        named = [flag for flag, bad in refused.items() if bad]
        if named:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert named[0] in capsys.readouterr().err
            return
        assert main(argv) == 0
        out = capsys.readouterr().out
        if command == "query":
            assert f"mode: {mode or 'disk'}" in out
            assert ("available for use:" in out) == adjacent

    @pytest.mark.parametrize("command", ["sweep", "grid"])
    def test_strict_excluded_refused(self, small_fixture, capsys, command):
        argv = [command] + base_args(small_fixture) + self.SUBCOMMANDS[command]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--strict-excluded"])
        assert exc.value.code == 2
        assert "--strict-excluded" in capsys.readouterr().err

    def test_synth_refuses_them_too(self, tmp_path, capsys):
        argv = ["synth", "--n", "1", "--region", "0,0,1000,1000", "--out", str(tmp_path)]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--mode", "raster", "--adjacent-filter"])
        assert exc.value.code == 2
        assert "--mode" in capsys.readouterr().err
        assert not (tmp_path / "transmitters.csv").exists()

    @pytest.mark.parametrize(
        "command, flags, named",
        [
            ("sweep", ["--power", "5"], "--power"),
            ("disks", ["--out", "OUT"], "--out"),
            ("query", ["--seed", "3"], "--seed"),
            ("batch", ["--seed", "3"], "--seed"),
            ("sweep", ["--seed", "0"], "--seed"),
            ("grid", ["--seed", "3"], "--seed"),
            ("disks", ["--seed", "3"], "--seed"),
            ("disks", ["--alpha", "3", "--beta-db", "10"], "--alpha, --beta/--beta-db"),
            ("disks", ["--power", "1"], "--power"),
        ],
    )
    def test_ignored_shared_flags_refused(
        self, small_fixture, tmp_path, capsys, command, flags, named
    ):
        locs = tmp_path / "locs.csv"
        locs.write_text("a,300000,300000\n")
        args = self.SUBCOMMANDS.get(command, [])
        argv = [command] + base_args(small_fixture) + [
            str(locs) if a == "LOCS" else a for a in args
        ] + [str(tmp_path / "out") if f == "OUT" else f for f in flags]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert all(flag in err for flag in re.findall(r"--[a-z-]+", named))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags", [["--txdb", "t.csv"], ["--coverage", "c"], ["--power", "1"]])
    def test_synth_refuses_data_flags(self, tmp_path, capsys, flags):
        argv = ["synth", "--n", "1", "--region", "0,0,1000,1000", "--out", str(tmp_path)]
        with pytest.raises(SystemExit) as exc:
            main(argv + flags)
        assert exc.value.code == 2
        assert flags[0] in capsys.readouterr().err
        assert not (tmp_path / "transmitters.csv").exists()

    def test_flags_a_subcommand_reads_are_accepted(self, small_fixture, tmp_path, capsys):
        region = ["--region", "250000,250000,350000,350000", "--cell", "25000"]
        assert main(["grid"] + base_args(small_fixture) + region + ["--power", "1"]) == 0
        assert main(["sweep"] + base_args(small_fixture) + self.SUBCOMMANDS["sweep"]
                    + ["--mode", "disk", "--alpha", "3"]) == 0
        assert main(["synth", "--n", "1", "--region", "0,0,1000,1000", "--seed", "4",
                     "--alpha", "3", "--out", str(tmp_path / "s")]) == 0


def names(flag, err):
    """Whether ``err`` names ``flag`` itself, not only a longer flag such as --beta-db."""
    return re.search(re.escape(flag) + r"(?![\w-])", err) is not None


# The shared flags each subcommand reads (x), so accepts; it refuses the rest (.).
SHARED_FLAGS = """
    flag              query batch sweep grid synth disks
    --txdb              x     x     x     x     .     x
    --coverage          x     x     x     x     .     x
    --plan              x     x     x     x     x     .
    --alpha             x     x     x     x     x     .
    --beta              x     x     x     x     x     .
    --beta-db           x     x     x     x     x     .
    --power             x     x     .     x     .     .
    --mode disk         x     x     x     x     x     x
    --mode raster       x     x     .     .     .     .
    --adjacent-filter   x     .     .     .     .     .
    --strict-excluded   x     x     .     .     .     .
    --out               x     x     x     x     x     .
    --seed              .     .     .     .     x     .
"""
_HEADER, *_ROWS = [line.split() for line in SHARED_FLAGS.strip().splitlines()]
COMMANDS = _HEADER[1:]
READS = {(" ".join(row[:-6]), command): mark == "x"
         for row in _ROWS for command, mark in zip(COMMANDS, row[-6:])}


class TestFlagContract:
    """Each subcommand's parser holds exactly the shared flags it reads."""

    OWN_FLAGS = {
        "query": ["--loc", "300000,300000"],
        "batch": ["--locations", "LOCS", "--workers", "1"],
        "sweep": ["--loc", "300000,300000", "--powers", "0.01,1"],
        "grid": ["--region", "250000,250000,350000,350000", "--cell", "25000"],
        "synth": ["--n", "1", "--region", "0,0,1000,1000", "--cell", "500",
                  "--irregularity", "0.1", "--out", "OUT"],
        "disks": [],
    }

    @pytest.mark.parametrize("flag, command", sorted(READS))
    def test_read_flags_run_and_others_exit_2(self, small_fixture, tmp_path, capsys,
                                               flag, command):
        import shutil

        data = tmp_path / "data"
        shutil.copytree(small_fixture, data)
        (tmp_path / "plan.txt").write_text("interleaved = 21-30\n")
        (tmp_path / "locs.csv").write_text("a,300000,300000\n")
        out = tmp_path / "out"
        paths = {"LOCS": tmp_path / "locs.csv", "OUT": out}
        values = {"--txdb": data / "transmitters.csv", "--coverage": data / "coverage",
                  "--plan": tmp_path / "plan.txt", "--alpha": "3.5", "--beta": "2",
                  "--beta-db": "3", "--power": "0.5", "--out": out, "--seed": "2"}
        argv = [command] + (base_args(data) if READS["--txdb", command] else [])
        argv += [str(paths.get(a, a)) for a in self.OWN_FLAGS[command]]
        argv += flag.split() + ([str(values[flag])] if flag in values else [])
        if READS[flag, command]:
            assert main(argv) == 0
            return
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert names(flag.split()[0], captured.err) and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("command, abbreviated", [
        ("query", ["--loc", "1,2", "--cov", "C"]),
        ("batch", ["--locations", "L", "--loc", "L"]),  # of --locations
        ("sweep", ["--loc", "1,2", "--powers", "0.1", "--power", "5"]),  # not of --powers
    ])
    def test_abbreviated_flags_exit_2(self, capsys, command, abbreviated):
        with pytest.raises(SystemExit) as exc:
            main([command, *abbreviated])
        assert exc.value.code == 2
        assert names(abbreviated[-2], capsys.readouterr().err)

    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_lists_exactly_the_flags_read(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        shared = {flag.split()[0] for (flag, c), read in READS.items() if c == command and read}
        own = {a for a in self.OWN_FLAGS[command] if a.startswith("--")}
        if command == "synth":
            own.add("--preset")
        assert listed == shared | own | {"--help"}

    @pytest.mark.parametrize("command, argv, named", [
        ("batch", ["--locations", "LOCS", "--workers", "0"], "--workers"),
        ("synth", ["--n", "0", "--region", "0,0,1000,1000", "--out", "OUT"], "--n"),
        ("synth", ["--preset", "uk81", "--irregularity", "1.5", "--out", "OUT"],
         "--irregularity"),
        ("synth", ["--preset", "uk81"], "--out"),
        ("query", ["--loc", "nowhere"], "bad location"),
        ("sweep", ["--loc", "nowhere", "--powers", "0.1"], "bad location"),
    ])
    def test_a_usage_error_is_refused_before_the_plan_is_read(self, tmp_path, capsys,
                                                              command, argv, named):
        """Exit 2 with the usage error, though the --plan file is missing as well."""
        (tmp_path / "locs.csv").write_text("a,300000,300000\n")
        out = tmp_path / "out"
        paths = {"LOCS": str(tmp_path / "locs.csv"), "OUT": str(out)}
        assert main([command, *(paths.get(a, a) for a in argv),
                     "--plan", str(tmp_path / "missing.txt")]) == 2
        captured = capsys.readouterr()
        assert named in captured.err and "missing.txt" not in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("extra", [["--n", "2"], ["--region", "0,0,1000,1000"]])
    def test_synth_preset_refuses_n_and_region(self, tmp_path, capsys, extra):
        out = tmp_path / "out"
        assert main(["synth", "--preset", "uk81", *extra, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert names(extra[0], captured.err) and len(captured.err.splitlines()) == 1
        assert captured.out == "" and not out.exists()


class TestHugeRequest:
    def test_grid_too_large_to_allocate_exits_2(self, uk81_dir, capsys):
        """662 TiB of cells is past a 47-bit address space, so it fails at once."""
        argv = ["grid", *base_args(uk81_dir), "--region", "0,0,700000,1300000", "--cell", "0.1"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("tvws: error: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("command", ["grid", "synth"])
    def test_a_cell_too_small_to_count_exits_2(self, uk81_dir, tmp_path, capsys, command):
        """At --cell 1e-320 the cell count overflows to infinity, which no int holds."""
        argv = {
            "grid": ["grid", *base_args(uk81_dir), "--region", "0,0,700000,1300000",
                     "--cell", "1e-320"],
            "synth": ["synth", "--n", "1", "--region", "0,0,1000,1000", "--cell", "1e-320",
                      "--out", str(tmp_path / "s")],
        }[command]
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "tvws: error: request too large: cannot convert float infinity to integer\n")

    @pytest.mark.parametrize("command, cell, shape", [
        ("grid", "1e-6", "1.3e+12 x 7e+11"),  # ~6 YiB of masks, past intp's maximum
        ("grid", "1e-200", "1.3e+206 x 7e+205"),  # each side past numpy's largest dimension
        ("synth", "1e-300", "1.451e+304 x 1.459e+304"),
    ])
    def test_a_cell_count_no_array_holds_exits_2(self, uk81_dir, tmp_path, capsys, command,
                                                 cell, shape):
        """The cell count is refused before any array is made, naming the grid's shape."""
        argv = {
            "grid": ["grid", *base_args(uk81_dir), "--region", "0,0,700000,1300000"],
            "synth": ["synth", "--n", "1", "--region", "0,0,1000,1000",
                      "--out", str(tmp_path / "s")],
        }[command]
        capsys.readouterr()
        assert main([*argv, "--cell", cell]) == 2
        assert capsys.readouterr().err == (
            f"tvws: error: request too large: {shape} cells are more than an array holds\n")


class TestUndecodableInputs:
    """A file that is not UTF-8 exits 3 and names the file, whichever input it is."""

    @pytest.mark.parametrize("which", ["plan", "locations", "disks-txdb"])
    def test_exit_3_naming_the_file(self, small_fixture, tmp_path, capsys, which):
        data = small_fixture
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"interleaved = 21-30\n\xff\n")
        argv = {
            "plan": ["query", *base_args(data), "--loc", "300000,300000", "--plan", str(bad)],
            "locations": ["batch", *base_args(data), "--locations", str(bad)],
            "disks-txdb": ["disks", "--txdb", str(bad), "--coverage", str(data / "coverage")],
        }[which]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert str(bad) in err and "Traceback" not in err

    @staticmethod
    def tvws_cli(*args):
        """``python -m tvws.cli *args`` under an ASCII locale."""
        import subprocess
        import sys
        from pathlib import Path

        import tvws

        src = str(Path(tvws.__file__).resolve().parent.parent)
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONPATH": src}
        return subprocess.run([sys.executable, "-m", "tvws.cli", *args],
                              capture_output=True, env=env, timeout=60)

    def test_utf8_is_read_under_an_ascii_locale(self, small_fixture, tmp_path):
        """Input files and stdout are UTF-8 whatever the locale's encoding is."""
        tvws_cli = self.tvws_cli
        locs = tmp_path / "locs.csv"
        locs.write_bytes("# sites near the café\ncafe,SP 513 061\ncafé,SP 513 061\n".encode())
        run = tvws_cli("batch", *base_args(small_fixture), "--locations", str(locs))
        assert (run.returncode, run.stderr) == (0, b"")
        assert b"\ncafe," in run.stdout and b"\ncaf\xc3\xa9," in run.stdout
        # the locale cannot decode this argument; it prints as the bytes it came in
        out = os.path.join(os.fsencode(tmp_path), "g_café".encode())
        run = tvws_cli(b"grid", *base_args(small_fixture), b"--region",
                       b"250000,250000,350000,350000", b"--cell", b"25000", b"--out", out)
        assert (run.returncode, run.stderr) == (0, b"")
        assert run.stdout.endswith(b"\nwrote " + os.path.join(out, b"rho.asc") + b"\n")

    def test_stderr_is_utf8_under_an_ascii_locale(self, small_fixture, tmp_path):
        """An error names a path as the bytes it came in; sweep's header line is unchanged."""
        from tvws.channel_plan import default_plan, plan_hash
        from tvws.keepout import DEFAULT_ALPHA, DEFAULT_BETA_TH

        missing = os.path.join(os.fsencode(tmp_path), "nö.csv".encode())
        run = self.tvws_cli(b"query", b"--txdb", missing, b"--coverage", os.fsencode(tmp_path),
                            b"--loc", b"300000,300000")
        assert run.returncode == 3
        assert run.stderr == b"tvws: error: transmitter database not found: " + missing + b"\n"
        run = self.tvws_cli("sweep", *base_args(small_fixture), "--loc", "SP 513 061",
                            "--powers", "0.1,1")
        assert run.returncode == 0
        assert run.stderr == (f"sweep at SP 513 061: alpha={DEFAULT_ALPHA!r} "
                              f"beta_th={DEFAULT_BETA_TH!r} plan={plan_hash(default_plan())}\n"
                              ).encode()


class TestErpNote:
    """Each ERP-range note is one ``tvws: warning:`` line on stderr, on every call."""

    @staticmethod
    def calls(n, *args):
        """``main(args)`` ``n`` times in one fresh process; its exit status sums their codes."""
        import subprocess
        import sys

        import tvws

        src = str(Path(tvws.__file__).resolve().parent.parent)
        code = "import sys; from tvws.cli import main; sys.exit(sum(main(sys.argv[2:]) " \
               "for _ in range(int(sys.argv[1]))))"
        return subprocess.run([sys.executable, "-c", code, str(n), *args], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)

    def test_cold_warm_and_repeated_calls(self, tmp_path, capsys):
        assert main(["synth", "--n", "2", "--region", "200000,200000,300000,300000",
                     "--seed", "3", "--cell", "2000", "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        txdb = tmp_path / "transmitters.csv"
        lines = txdb.read_text().split("\n")
        fields = lines[2].split(",")
        fields[3] = "5"  # line 3's ERP, below the typical range
        lines[2] = ",".join(fields)
        txdb.write_text("\n".join(lines))
        probe = tmp_path / "probe"
        while True:  # a pack written within the CSV's timestamp tick would not vouch for it
            probe.write_bytes(b"")
            if probe.stat().st_mtime_ns > max(txdb.stat().st_mtime_ns, txdb.stat().st_ctime_ns):
                break
        note = (f"tvws: warning: {txdb}:3: ERP 5 W outside the typical UK DTT range "
                "[25 W, 200000 W]\n")
        query = ["query", *base_args(tmp_path), "--loc", "250000,250000"]
        pack = tmp_path / "coverage" / ".tvws-stations.pack"
        cold = self.calls(2, *query)  # the first call writes the pack, the second reads it
        assert (cold.returncode, cold.stderr) == (0, note * 2)
        written = pack.stat().st_mtime_ns
        warm = self.calls(1, *query)
        assert (warm.returncode, warm.stderr) == (0, note)
        assert pack.stat().st_mtime_ns == written  # the warm call hit the pack
        assert warm.stdout == cold.stdout[: len(cold.stdout) // 2]
        for argv in (query, ["disks", *base_args(tmp_path)]):
            assert main(argv) == 0
            assert capsys.readouterr().err == note


class TestByteOrderMark:
    """One leading byte-order mark, as spreadsheet "CSV UTF-8" exports write, is ignored."""

    @staticmethod
    def outcomes(fixture, root, kind, mark, capsys):
        """Each call's exit code, stdout and stderr, then the artifacts, with ``kind`` marked."""
        import shutil

        data = root / "data"
        shutil.copytree(fixture, data)
        for pack in (data / "coverage").glob(".tvws-*"):
            pack.unlink()
        plan, locs, out = root / "plan.txt", root / "locs.csv", root / "out"
        plan.write_text("interleaved = 21-40\nexcluded = 41\n")
        locs.write_text("a,300000,300000\nb,SP 513 061\n")  # a mark would join the label
        marked = {"txdb": [data / "transmitters.csv"], "locations": [locs], "plan": [plan],
                  "asc": sorted((data / "coverage").glob("*.asc"))}[kind]
        for path in marked:
            path.write_bytes(mark + path.read_bytes())
        argvs = {
            "txdb": [["batch", "--locations", str(locs)], ["disks"]],
            "locations": [["batch", "--locations", str(locs), "--out", str(out)]],
            "plan": [["query", "--loc", "300000,300000", "--plan", str(plan)]],
            "asc": [["query", "--loc", "300000,300000", "--mode", "raster"], ["disks"]],
        }[kind]
        results = []
        for argv in argvs:
            code = main([argv[0], *base_args(data), *argv[1:]])
            results.append((code, *capsys.readouterr()))
        return results, tree_files(out) if out.exists() else {}

    @pytest.mark.parametrize("kind", ["txdb", "locations", "plan", "asc"])
    def test_an_input_with_a_mark_gives_the_same_bytes(self, small_fixture, tmp_path, capsys,
                                                       kind):
        plain = self.outcomes(small_fixture, tmp_path / "plain", kind, b"", capsys)
        assert all(code == 0 for code, _out, _err in plain[0])
        assert self.outcomes(small_fixture, tmp_path / "mark", kind, b"\xef\xbb\xbf",
                             capsys) == plain

    def test_only_one_mark_is_dropped_and_offsets_count_it(self, tmp_path):
        from tvws.errors import read_text

        path = tmp_path / "f.txt"
        path.write_bytes(b"\xef\xbb\xbf\xef\xbb\xbfa\r\nb")
        assert read_text(str(path)) == "\ufeffa\nb"
        path.write_bytes(b"\xef\xbb\xbfa\xff")
        with pytest.raises(ParseError, match=r"at byte 4$"):
            read_text(str(path))


def test_negative_zero_power_echoes_as_zero(small_fixture, tmp_path, capsys):
    (tmp_path / "locs.csv").write_text("a,300000,300000\n")
    flags = ["--power=-0", "--mode", "raster"]
    assert main(["query", *base_args(small_fixture), "--loc", "300000,300000", *flags]) == 0
    assert "power: 0.0 W" in capsys.readouterr().out
    assert main(["batch", *base_args(small_fixture), "--locations", str(tmp_path / "locs.csv"),
                 *flags]) == 0
    assert "power_watts=0.0 " in capsys.readouterr().out


class TestBadNumbers:
    @pytest.mark.parametrize(
        "flags",
        [
            ["--power", "nan"],
            ["--power", "inf"],
            ["--beta-db", "1e6"],
            ["--beta-db", "nan"],
            ["--beta-db=-1e6"],
            ["--beta", "inf"],
            ["--alpha", "nan"],
        ],
    )
    def test_query_refuses_with_exit_2(self, small_fixture, capsys, flags):
        with pytest.raises(SystemExit) as exc:
            main(["query"] + base_args(small_fixture) + ["--loc", "300000,300000"] + flags)
        assert exc.value.code == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("powers", ["0.1,nan", "inf", "0.01:nan:3",
                                        "1e-320:1e308:3", "3:1.7976931348623157e308:3"])
    def test_sweep_refuses_non_finite_powers(self, small_fixture, powers):
        with pytest.raises(SystemExit) as exc:
            main(["sweep"] + base_args(small_fixture) + ["--loc", "1,2", "--powers", powers])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["query", "batch", "sweep", "grid", "synth"])
    def test_alpha_below_one_exits_2_before_any_io(self, small_fixture, tmp_path, capsys,
                                                   command):
        """The parser refuses what PropagationParams would, before a file is read or written."""
        out = tmp_path / "D"
        data = [*base_args(small_fixture), "--out", str(out)]
        args = {
            "query": [*data, "--loc", "300000,300000"],
            "batch": [*data, "--locations", str(tmp_path / "missing.csv")],
            "sweep": [*data, "--loc", "300000,300000", "--powers", "1"],
            "grid": [*data, "--region", "200000,200000,400000,400000"],
            "synth": ["--n", "1", "--region", "200000,200000,300000,300000", "--out", str(out)],
        }[command]
        with pytest.raises(SystemExit) as exc:
            main([command, *args, "--alpha", "0.5"])
        assert exc.value.code == 2
        assert "argument --alpha: must be finite and >= 1, got '0.5'" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_refuses_infinite_region(self, small_fixture):
        with pytest.raises(SystemExit) as exc:
            main(["grid"] + base_args(small_fixture) + ["--region", "0,0,1e5,inf"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", ["grid", "synth"])
    @pytest.mark.parametrize(
        "region", ["0,0,1e15,10", "-1,0,1000,1000", "0,0,700000,1300001", "nan,0,1,1"]
    )
    def test_region_outside_envelope_refused(
        self, small_fixture, tmp_path, capsys, command, region
    ):
        args = {"grid": base_args(small_fixture) + ["--cell", "1"],
                "synth": ["--n", "1", "--out", str(tmp_path)]}[command]
        with pytest.raises(SystemExit) as exc:
            main([command, *args, f"--region={region}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        [line] = [line for line in err.splitlines() if "error" in line]
        assert names("--region", line) and "OSGB envelope" in line

    def test_region_may_reach_the_envelope_max(self, small_fixture, capsys):
        region = ["--region", "0,0,700000,1300000", "--cell", "100000"]
        assert main(["grid"] + base_args(small_fixture) + region) == 0
        assert capsys.readouterr().out.startswith("grid 13x7 cells")


class TestBatchRows:
    def test_rows_equal_the_set_path_oracle(self, small_fixture, tmp_path, capsys):
        import oracles
        from tvws.availability import availability, availability_lowpower
        from tvws.channel_plan import default_plan, plan_hash
        from tvws.coverage import load_disks, load_rasters
        from tvws.geo import NgPoint
        from tvws.keepout import PropagationParams, QueryParams

        plan, prop = default_plan(), PropagationParams()
        db = load_txdb((small_fixture / "transmitters.csv").read_text())
        models = {"disk": load_disks(small_fixture / "coverage", db),
                  "raster": load_rasters(small_fixture / "coverage", db)}
        labels = ["plain", 'quo"ted', "back\\slash", "naïve €", "漢字"]
        points = [NgPoint(200_000.0 + 40_000 * i, 230_000.0 + 37_000 * i) for i in range(5)]
        locs = tmp_path / "locs.csv"
        locs.write_text("".join(f"{lab},{p.easting},{p.northing}\n"
                                for lab, p in zip(labels, points)), encoding="utf-8")
        runs = [(mode, power, flags)
                for mode, power in (("disk", "0"), ("disk", "0.5"), ("raster", "0"))
                for flags in ([], ["--strict-excluded"])]
        for i, (mode, power, flags) in enumerate(runs):
            out = tmp_path / f"out{i}"
            argv = ["batch", *base_args(small_fixture), "--locations", str(locs),
                    "--mode", mode, "--power", power, *flags, "--out", str(out)]
            # every row holds the N+-1 filtered set, so batch takes no --adjacent-filter
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--adjacent-filter"])
            assert exc.value.code == 2 and not out.exists()
            assert "--adjacent-filter" in capsys.readouterr().err
            assert main(argv) == 0
            extra = plan.excluded if "--strict-excluded" in flags else ()
            rows = []
            for label, loc in zip(labels, points):
                if mode == "raster":
                    result = availability_lowpower(db, models[mode], plan, loc)
                else:
                    q = QueryParams(loc, float(power), prop)
                    result = availability(db, models[mode], plan, q)
                rows.append((label, result.vacant,
                             oracles.filtered_by_sets(result.vacant, result.occupied, extra)))
            params = (3.0, 1.0, float(power), plan_hash(plan))
            assert capsys.readouterr().out == oracles.report_csv(rows, *params), (mode, flags)
            assert (out / "batch.json").read_text() == oracles.report_json(rows, *params)

    @pytest.mark.parametrize("loc", ["SP 513 061", "300000,300000", " su 3 2 ", "250000.5,3e5"])
    @pytest.mark.parametrize("flags", [[], ["--power", "0.5", "--strict-excluded"]])
    def test_query_row_equals_the_set_path_oracle(self, small_fixture, tmp_path, capsys, loc,
                                                  flags):
        import oracles
        from tvws.availability import availability
        from tvws.channel_plan import default_plan, plan_hash
        from tvws.coverage import load_disks
        from tvws.geo import parse_location
        from tvws.keepout import PropagationParams, QueryParams

        out = tmp_path / "out"
        assert main(["query", *base_args(small_fixture), "--loc", loc, *flags,
                     "--out", str(out)]) == 0
        capsys.readouterr()
        plan, power = default_plan(), float(flags[1]) if flags else 0.0
        db = load_txdb((small_fixture / "transmitters.csv").read_text())
        q = QueryParams(parse_location(loc), power, PropagationParams())
        result = availability(db, load_disks(small_fixture / "coverage", db), plan, q)
        extra = plan.excluded if flags else ()
        rows = [(loc, result.vacant, oracles.filtered_by_sets(result.vacant, result.occupied,
                                                              extra))]
        params = (3.0, 1.0, power, plan_hash(plan))
        assert (out / "query.csv").read_text() == oracles.report_csv(rows, *params)
        assert (out / "query.json").read_text() == oracles.report_json(rows, *params)

    def test_rows_equal_per_location_queries(self, uk81_dir, tmp_path, capsys):
        data = ["--txdb", str(uk81_dir / "transmitters.csv"),
                "--coverage", str(uk81_dir / "coverage")]
        entries = [
            line.split(",", 1)
            for line in (uk81_dir / "locations.csv").read_text().splitlines()
            if line and not line.startswith("#")
        ]
        disk, raster = ["--power", "0.1", "--strict-excluded"], ["--mode", "raster", "--power", "0"]
        for i, flags in enumerate((disk, raster)):
            out = tmp_path / f"b{i}"
            assert main(["batch", *data, "--locations", str(uk81_dir / "locations.csv"),
                         "--workers", "3", "--out", str(out), *flags]) == 0
            rows = json.loads((out / "batch.json").read_text())["reports"]
            capsys.readouterr()
            assert [row["label"] for row in rows] == [label for label, _ in entries]
            for row, (_label, loc) in zip(rows, entries):
                assert main(["query", *data, "--loc", loc, *flags]) == 0
                text = capsys.readouterr().out
                vacant = text.split("vacant (rho=", 1)[1].split("\n", 1)[0]
                assert vacant.startswith(f"{row['rho']},")
                listed = vacant.split("MHz): ", 1)[1]
                assert listed == (" ".join(map(str, row["vacant_channels"])) or "none")
                assert f"adjacent-filtered ({row['rho_filtered']}," in text

    def test_plan_digest_computed_once(self, small_fixture, tmp_path, capsys, monkeypatch):
        import tvws.channel_plan
        import tvws.cli
        import tvws.report

        calls = []
        original = tvws.channel_plan.plan_hash

        def counting(plan):
            calls.append(1)
            return original(plan)

        monkeypatch.setattr(tvws.cli, "plan_hash", counting)
        monkeypatch.setattr(tvws.report, "plan_hash", counting)
        locs = tmp_path / "locs.csv"
        locs.write_text("\n".join(f"s{i},{250000 + 7000 * i},300000" for i in range(12)))
        assert main(["batch"] + base_args(small_fixture)
                    + ["--locations", str(locs), "--workers", "2"]) == 0
        assert len(calls) == 1
        assert f"plan={original(tvws.channel_plan.default_plan())}" in capsys.readouterr().out


    def test_csv_rendered_once(self, small_fixture, tmp_path, capsys, monkeypatch):
        import tvws.report

        calls = []
        original = tvws.report.emit_csv

        def counting(reports):
            calls.append(1)
            return original(reports)

        monkeypatch.setattr(tvws.report, "emit_csv", counting)
        locs = tmp_path / "locs.csv"
        locs.write_text("a,300000,300000\nb,SP 513 061\n")
        out = tmp_path / "out"
        assert main(["batch"] + base_args(small_fixture)
                    + ["--locations", str(locs), "--out", str(out)]) == 0
        assert len(calls) == 1
        assert (out / "batch.csv").read_text() == capsys.readouterr().out


class TestParserReuse:
    """The parser is built once per process; reusing it changes no output."""

    def test_back_to_back_calls_match_fresh_processes(self, small_fixture, tmp_path, capsys):
        import subprocess
        import sys
        from pathlib import Path

        import tvws

        data = base_args(small_fixture)
        loc = ["--loc", "300000,300000"]
        runs = [
            ["query"] + data + loc + ["--power", "0.1"],
            ["sweep"] + data + loc + ["--powers", "0.01,1", "--beta-db", "3"],
            ["query"] + data + loc + ["--mode", "raster", "--adjacent-filter"],
            ["sweep"] + data + loc + ["--powers", "0.01,1", "--power", "5"],
            ["query"] + data + ["--loc", "ZZ 1 2"],
            ["grid"] + data + ["--region", "250000,250000,350000,350000", "--cell", "25000"],
            ["query"] + data + loc + ["--power", "nan"],
            ["query"] + data + loc + ["--strict-excluded", "--alpha", "3.5"],
        ]

        def in_process(argv):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            return code, captured.out, captured.err

        reused = [in_process(argv) for argv in runs]
        env = dict(os.environ, PYTHONPATH=str(Path(tvws.__file__).parents[1]))
        for argv, got in zip(runs, reused):
            fresh = subprocess.run([sys.executable, "-m", "tvws.cli", *argv],
                                   capture_output=True, text=True, env=env)
            assert got == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        assert [code for code, _, _ in reused] == [0, 0, 0, 2, 2, 0, 2, 0]


class TestSubcommandParse:
    """``main`` parses argv with the subcommand's own parser, as the parser tree would.

    An accepted argv gives the tree's Namespace without the tree's own pass;
    a refused one gives the tree's exit code, stdout and stderr.
    """

    ACCEPTED = {
        "query": [["--loc", "1,2"],
                  ["--loc=SP 513 061", "--txdb", "T", "--coverage", "C", "--plan", "P",
                   "--alpha", "3.5", "--beta-db", "3", "--power", "0", "--mode", "raster",
                   "--adjacent-filter", "--strict-excluded", "--out", "O"],
                  ["--power=-0", "--beta", "2", "--loc=-1,2"]],
        "batch": [["--locations", "L"],
                  ["--locations", "L", "--workers", "4", "--power", "100mW", "--mode", "disk",
                   "--strict-excluded", "--alpha", "4", "--out", "O"]],
        "sweep": [["--loc", "1,2", "--powers", "0.01,1"],
                  ["--powers", "0.01:10:5", "--loc", "1,2", "--mode", "disk", "--beta", "0.5"]],
        "grid": [["--region", "0,0,1000,1000"],
                 ["--region", "0,0,700000,1300000", "--cell", "500", "--power", "1kW",
                  "--plan", "P", "--out", "O"]],
        "synth": [[], ["--preset", "uk81", "--seed", "3", "--out", "O"],
                  ["--n", "2", "--region", "0,0,1000,1000", "--cell", "100",
                   "--irregularity", "0.5", "--beta-db", "-3"]],
        "disks": [[], ["--txdb", "T", "--coverage", "C", "--mode", "disk"]],
    }
    REFUSED = {
        "query": [["--loc", "1,2", "--frob"], ["--loc", "1,2", "--cov", "C"], [],
                  ["--loc", "1,2", "--mode", "frob"], ["--loc", "1,2", "--power", "x"],
                  ["--loc", "1,2", "--beta", "2", "--beta-db", "3"], ["-h"],
                  ["--loc", "1,2", "extra"], ["--", "--loc", "1,2"], ["--loc", "-1,2"]],
        "batch": [["--locations", "L", "--frob"], ["--loc", "L"], ["--workers", "2"],
                  ["--locations", "L", "--mode", "frob"], ["--locations", "L", "--workers", "x"],
                  ["--locations", "L", "--beta-db", "3", "--beta", "2"], ["--help"]],
        "sweep": [["--loc", "1,2", "--powers", "1", "--frob", "2"],
                  ["--loc", "1,2", "--powers", "0.1", "--power", "5"], ["--loc", "1,2"],
                  ["--loc", "1,2", "--powers", "1", "--mode", "raster"],
                  ["--loc", "1,2", "--powers", "1:x:3"],
                  ["--loc", "1,2", "--powers", "1", "--beta", "2", "--beta-db", "3"],
                  ["-h", "--loc", "1,2"]],
        "grid": [["--region", "0,0,1,1", "--frob"], ["--reg", "0,0,1,1"], ["--cell", "5"],
                 ["--region", "0,0,1,1", "--mode", "raster"], ["--region", "0,0,1,1", "--cell", "0"],
                 ["--region", "0,0,1,1", "--beta", "2", "--beta-db", "3"], ["-h"]],
        "synth": [["--frob"], ["--pre", "uk81"], ["--mode", "frob"], ["--seed", "x"],
                  ["--beta", "2", "--beta-db", "3"], ["-h"], ["--txdb", "T"]],
        "disks": [["--frob"], ["--txd", "T"], ["--mode", "raster"], ["--beta", "2"], ["-h"],
                  ["--txdb"]],
    }

    @staticmethod
    def outcome(call, capsys):
        """``call()``'s exit code, stdout and stderr; 0 when it returns."""
        capsys.readouterr()
        try:
            call()
            code = 0
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize("argv", [[command, *flags] for command, cases in ACCEPTED.items()
                                      for flags in cases])
    def test_accepted_argv_gives_the_trees_namespace(self, monkeypatch, argv):
        from tvws import cli

        tree = cli._build_parser()
        expected = vars(tree.parse_args(argv))
        seen = []
        monkeypatch.setitem(cli._COMMANDS, argv[0], lambda args: seen.append(vars(args)) or 0)
        monkeypatch.setattr(argparse.ArgumentParser, "parse_args",
                            lambda *a: pytest.fail("the tree parsed"))
        assert main(argv) == 0
        assert seen == [expected]

    @pytest.mark.parametrize("argv", [[command, *flags] for command, cases in REFUSED.items()
                                      for flags in cases]
                             + [[], ["--loc", "1,2"], ["frob"], ["Query", "--loc", "1,2"],
                                ["-h"]])
    def test_refused_argv_gives_the_trees_refusal(self, capsys, argv):
        from tvws import cli

        expected = self.outcome(lambda: cli._build_parser().parse_args(argv), capsys)
        assert expected[0] in (0, 2)  # -h exits 0 with help, a refusal exits 2
        assert self.outcome(lambda: main(argv), capsys) == expected


class TestRasterDataErrors:
    """A bad raster exits 3 and names the file, whichever way it is bad."""

    @pytest.mark.parametrize(
        "lineno, line, message",
        [
            (5, "cellsize 0", "cellsize must be finite and positive"),
            (5, "cellsize nan", "cellsize must be finite and positive"),
            (1, "ncols 1.5", "ncols must be a positive integer"),
            (7, "\xe9", "non-numeric cell value"),
        ],
    )
    def test_query_raster_exit_3(self, small_fixture, tmp_path, capsys, lineno, line, message):
        import shutil

        data = tmp_path / "data"
        shutil.copytree(small_fixture, data)
        asc = sorted((data / "coverage").glob("*.asc"))[0]
        lines = asc.read_text().split("\n")
        lines[lineno - 1] = line
        asc.write_text("\n".join(lines), encoding="utf-8")
        argv = ["query"] + base_args(data) + ["--loc", "300000,300000", "--mode", "raster"]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert str(asc) in err and message in err and "Traceback" not in err

    def test_undecodable_raster_names_the_file(self, small_fixture, tmp_path, capsys):
        import shutil

        data = tmp_path / "data"
        shutil.copytree(small_fixture, data)
        asc = sorted((data / "coverage").glob("*.asc"))[0]
        asc.write_bytes(asc.read_bytes() + b"\xff\xfe")
        argv = ["query"] + base_args(data) + ["--loc", "300000,300000", "--mode", "raster"]
        assert main(argv) == 3
        assert str(asc) in capsys.readouterr().err


class TestUnusableId:
    def test_nul_in_an_id_exits_3_on_every_call(self, uk81_dir, tmp_path, capsys):
        """An id with a NUL is refused on a cold load and again on the next call.

        A packed id drops a trailing NUL, so a pack written from this CSV
        would let the second call answer for ``tx01``.
        """
        import shutil

        data = tmp_path / "data"
        shutil.copytree(uk81_dir, data)
        for pack in (data / "coverage").glob(".tvws-*"):
            pack.unlink()
        txdb = data / "transmitters.csv"
        text = txdb.read_text()
        assert text.count("\ntx01,") == 1
        txdb.write_text(text.replace("\ntx01,", "\ntx01\0,"))
        argv = ["query"] + base_args(data) + ["--loc", "350000,350000", "--mode", "raster",
                                               "--power", "0"]
        capsys.readouterr()
        for _ in range(2):
            assert main(argv) == 3
            err = capsys.readouterr().err
            assert ":3: NUL character" in err and "Traceback" not in err
