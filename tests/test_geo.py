import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvws.errors import ParseError
from tvws.geo import (
    BoundingBox,
    NgPoint,
    distance,
    format_gridref,
    parse_gridref,
    parse_location,
)

points = st.builds(
    NgPoint,
    st.floats(0, 699_999, allow_nan=False),
    st.floats(0, 1_299_999, allow_nan=False),
)


class TestParseGridref:
    def test_sp_513_061(self):
        # SP square origin is 400000 E, 200000 N in the OSGB letter table.
        p = parse_gridref("SP 513 061")
        assert (p.easting, p.northing) == (451300.0, 206100.0)

    def test_sv_is_grid_origin(self):
        p = parse_gridref("SV 000 000")
        assert (p.easting, p.northing) == (0.0, 0.0)

    def test_resolution_semantics(self):
        # Fewer digits name a coarser cell's SW corner, not the same point.
        coarse = parse_gridref("SP 51 06")
        fine = parse_gridref("SP 513 061")
        assert (coarse.easting, coarse.northing) == (451000.0, 206000.0)
        assert (coarse.easting, coarse.northing) != (fine.easting, fine.northing)

    def test_whitespace_and_case_tolerated(self):
        assert parse_gridref("sp5130 61") == parse_gridref("SP 513 061")

    @pytest.mark.parametrize(
        "bad",
        ["IP 00 00", "SI 00 00", "SP 123", "SP", "SP123456789", "5P 00 00", "WA 00 00"],
    )
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_gridref(bad)

    @given(points, st.sampled_from([2, 4, 6, 8, 10]))
    def test_format_parse_roundtrip(self, p, digits):
        half = digits // 2
        scale = 10 ** (5 - half)
        lattice = NgPoint(
            float(int(p.easting) // scale * scale),
            float(int(p.northing) // scale * scale),
        )
        assert parse_gridref(format_gridref(lattice, digits)) == lattice


class TestDistance:
    def test_zero_iff_equal(self):
        a = NgPoint(100.0, 200.0)
        assert distance(a, a) == 0.0

    def test_3_4_5_triangle(self):
        assert distance(NgPoint(0, 0), NgPoint(3000, 4000)) == 5000.0

    @given(points, points)
    def test_symmetry(self, a, b):
        assert distance(a, b) == distance(b, a)

    @given(points, points)
    def test_positive_unless_equal(self, a, b):
        d = distance(a, b)
        assert d >= 0
        if (a.easting, a.northing) != (b.easting, b.northing):
            assert d > 0

    @given(points, points, points)
    def test_triangle_inequality(self, a, b, c):
        assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-6


class TestNgPoint:
    @pytest.mark.parametrize(
        "e,n",
        [(-1.0, 0.0), (700_000.0, 0.0), (0.0, -0.5), (0.0, 1_300_000.0), (math.nan, 0.0)],
    )
    def test_envelope_enforced(self, e, n):
        with pytest.raises(ValueError):
            NgPoint(e, n)


class TestParseLocation:
    def test_raw_pair(self):
        assert parse_location("451300,206100") == NgPoint(451300.0, 206100.0)

    def test_gridref_passthrough(self):
        assert parse_location("SP 513 061") == NgPoint(451300.0, 206100.0)

    @pytest.mark.parametrize("bad", ["1,2,3", "a,b", "800000,0", "no pe"])
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_location(bad)


class TestBoundingBox:
    def test_contains(self):
        box = BoundingBox(0, 0, 100, 100)
        assert box.contains(NgPoint(50, 50))
        assert not box.contains(NgPoint(150, 50))

    def test_inverted_rejected(self):
        with pytest.raises(ValueError):
            BoundingBox(10, 0, 0, 10)

    def test_empty(self):
        assert BoundingBox(5, 5, 5, 10).is_empty()
        assert not BoundingBox(0, 0, 1, 1).is_empty()


# Grid letters (valid, 'I', ones that upper() turns into two), digit groups,
# digits int() refuses or accepts, and coordinate pairs at and past the envelope.
GRID_LETTERS = ["SP", "sp", "TQ", "HP", "IA", "ZZ", "ßP", "ﬃ"]
GRID_DIGITS = ["513", "061", "51", "0", "²", "٣", " "]
LOCATION_TOKENS = [*GRID_LETTERS, *GRID_DIGITS, ",", "1e309", "nan", "-1", "699999.9", "1300000",
                   "inf", "1" * 5000]


@given(st.one_of(
    st.text(),
    st.tuples(st.sampled_from(GRID_LETTERS), st.lists(st.sampled_from(GRID_DIGITS), max_size=5))
    .map(lambda t: t[0] + "".join(t[1])),
    st.lists(st.one_of(st.sampled_from(LOCATION_TOKENS), st.text(max_size=3)), max_size=6)
    .map("".join),
))
@settings(max_examples=400, deadline=None)
def test_fuzz_parse_location_only_parse_error_escapes(text):
    try:
        parse_location(text)
    except ParseError:
        pass
