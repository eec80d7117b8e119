import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvws.channel_plan import default_plan
from tvws.errors import ParseError
from tvws.geo import BoundingBox
from tvws.txdb import (
    CSV_HEADER,
    Transmitter,
    TransmitterDb,
    generate_synthetic,
    load_txdb,
    parse_watts,
    serialize,
)

REGION = BoundingBox(100_000, 100_000, 500_000, 700_000)

VALID_ROW = "oxford,451300,206100,100kW,150,41;44;47"


def make_csv(*rows: str) -> str:
    return CSV_HEADER + "\n" + "\n".join(rows) + "\n"


class TestParseWatts:
    @pytest.mark.parametrize(
        "text,expected",
        [("25", 25.0), ("25W", 25.0), ("200kW", 200_000.0), ("100mW", 0.1), ("0.5", 0.5)],
    )
    def test_units(self, text, expected):
        assert parse_watts(text) == expected

    def test_case_insensitive(self):
        assert parse_watts("100MW") == 0.1  # mW; megawatts are not a thing here

    @pytest.mark.parametrize("bad", ["", "W", "five", "1..2kW"])
    def test_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_watts(bad)


class TestLoadTxdb:
    def test_single_valid_row(self):
        db = load_txdb(make_csv(VALID_ROW))
        assert len(db) == 1
        tx = db.transmitters[0]
        assert tx.id == "oxford"
        assert tx.erp_watts == 100_000.0
        assert tx.channels == {41, 44, 47}

    def test_comments_skipped(self):
        db = load_txdb("# preamble\n" + make_csv(VALID_ROW))
        assert len(db) == 1

    def test_duplicate_ids_error_names_both_rows(self):
        with pytest.raises(ParseError) as exc:
            load_txdb(make_csv(VALID_ROW, VALID_ROW))
        assert exc.value.line == 3
        assert "line 2" in str(exc.value)

    def test_bad_header(self):
        with pytest.raises(ParseError, match="header"):
            load_txdb("id,x\n1,2\n")

    def test_nonpositive_erp(self):
        with pytest.raises(ParseError) as exc:
            load_txdb(make_csv("a,1000,1000,0,10,21"))
        assert exc.value.line == 2

    def test_bad_coordinates(self):
        with pytest.raises(ParseError, match="coordinates"):
            load_txdb(make_csv("a,900000,1000,25,10,21"))

    def test_bad_channel_list(self):
        with pytest.raises(ParseError):
            load_txdb(make_csv("a,1000,1000,25,10,21;banana"))
        with pytest.raises(ParseError, match="empty channel list"):
            load_txdb(make_csv("a,1000,1000,25,10,"))
        with pytest.raises(ParseError):
            load_txdb(make_csv("a,1000,1000,25,10,99"))

    def test_out_of_range_erp_warns_but_loads(self):
        with pytest.warns(UserWarning, match="typical UK DTT range"):
            db = load_txdb(make_csv("a,1000,1000,5W,10,21"))
        assert len(db) == 1

    def test_field_count_checked(self):
        with pytest.raises(ParseError, match="6 fields"):
            load_txdb(make_csv("a,1000,1000,25,10"))

    @pytest.mark.parametrize("tx_id", ["tx01\0", "\0", "t\0x", "a/b", "/", "../a", ".", ".."])
    def test_id_that_cannot_name_a_coverage_file(self, tx_id):
        """<id>.asc and <id>.disk must name one file in the coverage directory.

        A trailing NUL would also be dropped by a packed id, so the packed
        database would accept what the CSV does not say.
        """
        with pytest.raises(ParseError, match="cannot name a coverage file") as exc:
            load_txdb(make_csv(VALID_ROW.replace("oxford", "b"), f"{tx_id},1000,1000,25,10,21"))
        assert exc.value.line == 3

    @pytest.mark.parametrize("tx_id", ["...", ".a", "a.b", "a b"])
    def test_other_dots_and_separators_are_ids(self, tx_id):
        assert load_txdb(make_csv(f"{tx_id},1000,1000,25,10,21")).ids == [tx_id]


class TestSerializeRoundTrip:
    def test_handcrafted(self):
        db = load_txdb(make_csv(VALID_ROW, "b,1000.5,2000.25,25,12,21;22"))
        assert load_txdb(serialize(db)) == db

    @given(st.integers(0, 1_000_000), st.integers(1, 12))
    @settings(max_examples=25, deadline=None)
    def test_synthetic(self, seed, n):
        db = generate_synthetic(seed, n, REGION, default_plan())
        assert load_txdb(serialize(db)) == db


class TestGenerateSynthetic:
    def test_deterministic(self):
        plan = default_plan()
        assert generate_synthetic(42, 20, REGION, plan) == generate_synthetic(
            42, 20, REGION, plan
        )

    def test_81_transmitters(self):
        db = generate_synthetic(7, 81, REGION, default_plan())
        assert len(db) == 81

    def test_erp_within_typical_range(self):
        db = generate_synthetic(3, 40, REGION, default_plan())
        for tx in db:
            assert 25.0 <= tx.erp_watts <= 200_000.0

    def test_channels_are_interleaved_and_3_to_6(self):
        plan = default_plan()
        db = generate_synthetic(11, 40, REGION, plan)
        for tx in db:
            assert tx.channels <= plan.interleaved
            assert 3 <= len(tx.channels) <= 6

    def test_positions_in_region(self):
        db = generate_synthetic(5, 30, REGION, default_plan())
        for tx in db:
            assert REGION.contains(tx.position)

    def test_empty_region_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            generate_synthetic(1, 5, BoundingBox(10, 10, 10, 20), default_plan())

    def test_n_zero_rejected(self):
        with pytest.raises(ValueError):
            generate_synthetic(1, 0, REGION, default_plan())

    def test_loads_after_serialize_with_81_rows(self):
        db = generate_synthetic(7, 81, REGION, default_plan())
        assert len(load_txdb(serialize(db))) == 81


class TestValidation:
    def test_duplicate_ids_in_db(self):
        tx = load_txdb(make_csv(VALID_ROW)).transmitters[0]
        with pytest.raises(ValueError, match="duplicate"):
            TransmitterDb((tx, tx))

    def test_empty_channels(self):
        tx = load_txdb(make_csv(VALID_ROW)).transmitters[0]
        with pytest.raises(ValueError, match="nonempty"):
            Transmitter("x", tx.position, 100.0, 10.0, frozenset())


# Tokens near the parser's decisions: numbers at and past the limits, unit
# suffixes, CSV quoting, NUL (a csv.Error before Python 3.11), digits int()
# refuses, and an integer past int()'s digit limit.
TXDB_TOKENS = ["", " ", "0", "-1", "21", "68", "69", "35;41", "21;;", "1e309", "nan", "inf",
               "-0", "250000", "1299999.5", "700000", "10kW", "5mW", "0W", "w", "x", '"', '""',
               '"a,b"', ";", "\x00", "²", "٣٥", "1" * 5000]


def txdb_texts():
    field = st.one_of(st.sampled_from(TXDB_TOKENS), st.text(max_size=8))
    line = st.one_of(
        st.lists(field, max_size=8).map(",".join),
        st.sampled_from([CSV_HEADER, "# source: fuzz", "#", ""]),
        st.text(max_size=20),
    )
    lines = st.lists(line, max_size=8)
    return st.one_of(
        st.text(),
        lines.map("\n".join),
        lines.map(lambda rest: "\n".join([CSV_HEADER, *rest])),
    )


@given(txdb_texts())
@settings(max_examples=400, deadline=None)
def test_fuzz_only_parse_error_escapes(text):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # ERP outside the typical range
        try:
            load_txdb(text, source="fuzz")
        except ParseError:
            pass
