import json
import os
import re

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
            out[os.path.relpath(path, root)] = open(path, "rb").read()
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
        assert (out / "coverage" / f"{db.transmitters[0].id}.disk").is_file()

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
        assert "neither disk cache nor raster found for 'tx1'" in capsys.readouterr().err

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
        locs.write_text("# sites\na,SP 513 061\nb,300000,300000\n\nc, ßP 51 06\nd,1,2,3\n")
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


def test_a_subnormal_keepout_radius_answers_without_a_warning(tmp_path, capsys):
    """R' = 5e-324 overflows d / R'; the answer stands and nothing reaches stderr."""
    import warnings

    from tvws.channel_plan import default_plan

    assert main(["synth", "--n", "1", "--region", "200000,200000,300000,300000",
                 "--seed", "3", "--out", str(tmp_path)]) == 0
    db = load_txdb((tmp_path / "transmitters.csv").read_text())
    (e, n), tx_id = db.floats[0, :2].tolist(), db.ids[0]
    (tmp_path / "coverage" / f"{tx_id}.disk").write_text(f"{e!r} {n!r} 5e-324\n")
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
        for f in (out / "coverage").glob("*.disk"):
            f.unlink()
        code = main(["disks", "--txdb", str(out / "transmitters.csv"),
                     "--coverage", str(out / "coverage")])
        assert code == 0
        assert len(list((out / "coverage").glob("*.disk"))) == 2
        assert len(capsys.readouterr().out.splitlines()) == 2


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

    @pytest.mark.parametrize("powers", ["0.1,nan", "inf", "0.01:nan:3"])
    def test_sweep_refuses_non_finite_powers(self, small_fixture, powers):
        with pytest.raises(SystemExit) as exc:
            main(["sweep"] + base_args(small_fixture) + ["--loc", "1,2", "--powers", powers])
        assert exc.value.code == 2

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
                                for lab, p in zip(labels, points)))
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
