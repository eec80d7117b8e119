import json
import os

import pytest

from tvws.cli import main
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
        refused = command in ("sweep", "grid") and (mode == "raster" or adjacent)
        if refused:
            assert main(argv) == 2
            flag = "--mode raster" if mode == "raster" else "--adjacent-filter"
            assert flag in capsys.readouterr().err
            return
        assert main(argv) == 0
        out = capsys.readouterr().out
        if command == "query":
            assert f"mode: {mode or 'disk'}" in out
            assert ("available for use:" in out) == adjacent

    @pytest.mark.parametrize("command", ["sweep", "grid"])
    def test_strict_excluded_refused(self, small_fixture, capsys, command):
        argv = [command] + base_args(small_fixture) + self.SUBCOMMANDS[command]
        assert main(argv + ["--strict-excluded"]) == 2
        assert "--strict-excluded" in capsys.readouterr().err

    def test_synth_refuses_them_too(self, tmp_path, capsys):
        argv = ["synth", "--n", "1", "--region", "0,0,1000,1000", "--out", str(tmp_path)]
        assert main(argv + ["--mode", "raster", "--adjacent-filter"]) == 2
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
        assert main(argv) == 2
        assert f"{command} does not take {named}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flags", [["--txdb", "t.csv"], ["--coverage", "c"], ["--power", "1"]])
    def test_synth_refuses_data_flags(self, tmp_path, capsys, flags):
        argv = ["synth", "--n", "1", "--region", "0,0,1000,1000", "--out", str(tmp_path)]
        assert main(argv + flags) == 2
        assert f"synth does not take {flags[0]}" in capsys.readouterr().err
        assert not (tmp_path / "transmitters.csv").exists()

    def test_flags_a_subcommand_reads_are_accepted(self, small_fixture, tmp_path, capsys):
        region = ["--region", "250000,250000,350000,350000", "--cell", "25000"]
        assert main(["grid"] + base_args(small_fixture) + region + ["--power", "1"]) == 0
        assert main(["sweep"] + base_args(small_fixture) + self.SUBCOMMANDS["sweep"]
                    + ["--mode", "disk", "--alpha", "3"]) == 0
        assert main(["synth", "--n", "1", "--region", "0,0,1000,1000", "--seed", "4",
                     "--alpha", "3", "--out", str(tmp_path / "s")]) == 0


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
        assert "argument --region" in line and "OSGB envelope" in line

    def test_region_may_reach_the_envelope_max(self, small_fixture, capsys):
        region = ["--region", "0,0,700000,1300000", "--cell", "100000"]
        assert main(["grid"] + base_args(small_fixture) + region) == 0
        assert capsys.readouterr().out.startswith("grid 13x7 cells")


class TestBatchRows:
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
