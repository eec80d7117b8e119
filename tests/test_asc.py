"""The ESRI-ASCII grid format against plain reference code in ``oracles``.

``write_asc_grid`` and ``read_asc`` work on byte arrays; these tests hold
them to the per-cell ``str(int(v))`` formatter and the per-token ``float``
parser, which decide what the bytes must be and which bodies are valid.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from oracles import asc_cell_tokens, asc_text
from tvws import coverage
from tvws.coverage import read_asc, write_asc_grid
from tvws.errors import ParseError
from tvws.geo import NgPoint

SHAPES = hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12)
INTEGER_DTYPES = st.sampled_from(
    [np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64]
)
GRIDS = st.one_of(
    hnp.arrays(np.bool_, SHAPES),
    hnp.arrays(np.int64, SHAPES, elements=st.integers(0, 1)),
    hnp.arrays(np.int64, SHAPES, elements=st.integers(0, 30)),  # rho values
    hnp.arrays(np.int64, SHAPES, elements=st.integers(-9999, 99_999)),
    hnp.arrays(INTEGER_DTYPES, SHAPES),  # each dtype's whole range
)
EASTINGS = st.floats(0.0, 699_999.0)
NORTHINGS = st.floats(0.0, 1_299_999.0)
CELLS = st.floats(1e-3, 1e5, allow_nan=False)


class TestWriter:
    @given(GRIDS, EASTINGS, NORTHINGS, CELLS, st.integers(-99_999, 99_999))
    @settings(max_examples=300, deadline=None)
    def test_bytes_equal_the_reference(self, grid, east, north, cell, nodata):
        text = write_asc_grid(NgPoint(east, north), cell, grid, nodata)
        assert text == asc_text(east, north, cell, grid, nodata)

    @given(GRIDS, st.integers(1, 40))
    @settings(max_examples=100, deadline=None)
    def test_block_boundaries_do_not_show(self, grid, block):
        with mock.patch.object(coverage, "_FORMAT_BLOCK", block):
            text = write_asc_grid(NgPoint(0.0, 0.0), 1.0, grid)
        assert text == asc_text(0.0, 0.0, 1.0, grid)

    @pytest.mark.parametrize("shape", [(1, 1), (2, 20_000), (300, 101), (40_000, 1)])
    def test_grids_larger_than_a_block(self, shape):
        grid = np.random.default_rng(shape[0]).integers(-9999, 31, shape)
        assert write_asc_grid(NgPoint(5.0, 7.0), 3.0, grid) == asc_text(5.0, 7.0, 3.0, grid)

    @pytest.mark.parametrize("shape", [(0, 3), (2, 0)])
    def test_empty_grid(self, shape):
        text = write_asc_grid(NgPoint(0.0, 0.0), 1.0, np.zeros(shape, dtype=int))
        assert text.startswith(f"ncols        {shape[1]}\nnrows        {shape[0]}\n")
        assert text.endswith("NODATA_value -9999\n" + "\n" * shape[0])

    def test_extremes_of_int64(self):
        grid = np.array([[np.iinfo(np.int64).min, np.iinfo(np.int64).max, -1, 0]])
        assert write_asc_grid(NgPoint(0.0, 0.0), 1.0, grid) == asc_text(0.0, 0.0, 1.0, grid)

    def test_refuses_a_float_grid(self):
        with pytest.raises(TypeError):
            write_asc_grid(NgPoint(0.0, 0.0), 1.0, np.zeros((2, 2)))


# Spellings of cell values: ones float() reads as 0, 1 or NODATA, and ones
# the reader must refuse (other numbers, nan, words, non-ASCII digits).
SPELLINGS = [
    "0", "1", "0.0", "1.0", "+1", "-0", "00", "01", "1.", ".0", "1e0", "10e-1",
    "-9999", "-9999.0", "-9.999e3", "2", "0.5", "-1", "nan", "inf", "1_0", "x",
    "1,0", "\uff11", "\u0661",
]
SEPARATORS = [
    " ", "  ", "\t", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1f", " \n",
    "\u00a0", "\u2028", "\u3000",
]


# ASCII separators around the edges of the whitespace ranges (9-13, 28-32)
# and ASCII bytes just outside them, which join two digits into one token.
ASCII_BLANKS = ["\t", "\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1f", " "]
NOT_BLANKS = ["\x08", "\x0e", "\x1b", "!"]
STYLES = {  # name -> (token spellings, separators)
    "written": (["0", "1"], [" ", "\n"]),  # what write_asc emits
    "ascii separators": (["0", "1"], ASCII_BLANKS + NOT_BLANKS),
    "long digit tokens": (["0", "1", "00", "01", "10", "11", "001"], ASCII_BLANKS),
    "any": (SPELLINGS, SEPARATORS),
}


@st.composite
def asc_files(draw):
    """(text, nrows, ncols, body) with a valid header and a varied body."""
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    count = nrows * ncols + draw(st.sampled_from([0, 0, 0, 0, -1, 1]))
    spellings, separators = STYLES[draw(st.sampled_from(sorted(STYLES)))]
    # a few separators per file, so one odd byte can be the only separator
    pool = draw(st.lists(st.sampled_from(separators), min_size=1, max_size=3, unique=True))
    spelling, separator = st.sampled_from(spellings), st.sampled_from(pool)
    body = draw(st.sampled_from(["", " ", "\n", "\t \r\n"]))  # leading blanks
    for i in range(count):
        body += draw(spelling)
        if i + 1 < count:
            body += draw(separator)
    body += draw(st.sampled_from(["", "\n", "\r\n", "  \n", " \t", "\n\n"]))  # trailing
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    header = [f"ncols {ncols}", f"NROWS {nrows}", "xllcorner 100.0", "yllcorner 200.0",
              "cellsize 50.0", "NODATA_value -9999"]
    return newline.join(header) + newline + body, nrows, ncols, body


def reference_cells(body: str, nrows: int, ncols: int):
    """Covered cells (row 0 = south) by the plain token parser, or None if invalid."""
    try:
        values = asc_cell_tokens(body)
    except ValueError:
        return None
    if len(values) != nrows * ncols:
        return None
    if any(v not in (0.0, 1.0, -9999.0) for v in values):
        return None
    rows = [values[r * ncols : (r + 1) * ncols] for r in range(nrows)]
    return np.array([[v == 1.0 for v in row] for row in reversed(rows)], dtype=bool)


class TestReader:
    @given(asc_files())
    @settings(max_examples=500, deadline=None)
    def test_matches_the_reference_parser(self, case):
        text, nrows, ncols, body = case
        expected = reference_cells(body, nrows, ncols)
        if expected is None:
            with pytest.raises(ParseError, match="^f.asc: "):
                read_asc(text, "t", source="f.asc")
            return
        raster = read_asc(text, "t", source="f.asc")
        assert np.array_equal(raster.cells, expected)
        assert raster.origin == NgPoint(100.0, 200.0)
        assert raster.cell_size_m == 50.0

    @pytest.mark.parametrize("code", range(128))
    def test_every_ascii_byte_between_two_digits(self, code):
        body = f"1{chr(code)}0\n"
        text = "ncols 2\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\n" + body
        expected = reference_cells(body, 1, 2)
        if expected is None:
            with pytest.raises(ParseError):
                read_asc(text, "t")
        else:
            assert np.array_equal(read_asc(text, "t").cells, expected)

    @given(GRIDS.filter(lambda g: g.dtype == bool or g.max() <= 1 and g.min() >= 0))
    @settings(max_examples=100, deadline=None)
    def test_reads_what_the_writer_wrote(self, grid):
        text = write_asc_grid(NgPoint(0.0, 0.0), 2.0, grid)
        assert np.array_equal(read_asc(text, "t").cells, grid.astype(bool))

    @pytest.mark.parametrize(
        "line, message",
        [
            ("ncols 1.5", "ncols must be a positive integer"),
            ("ncols 0", "ncols must be a positive integer"),
            ("ncols inf", "ncols must be a positive integer"),
            ("nrows -2", "nrows must be a positive integer"),
            ("nrows nan", "nrows must be a positive integer"),
            ("cellsize nan", "cellsize must be finite and positive"),
            ("cellsize 0", "cellsize must be finite and positive"),
            ("cellsize -1", "cellsize must be finite and positive"),
            ("cellsize inf", "cellsize must be finite and positive"),
            ("xllcorner inf", "xllcorner must be within the OSGB envelope"),
            ("xllcorner -5", "xllcorner must be within the OSGB envelope"),
            ("yllcorner nan", "yllcorner must be within the OSGB envelope"),
            ("yllcorner 1300000", "yllcorner must be within the OSGB envelope"),
        ],
    )
    def test_invalid_header_values_name_the_file_and_line(self, line, message):
        key = line.split()[0]
        header = {"ncols": "ncols 2", "nrows": "nrows 1", "xllcorner": "xllcorner 0",
                  "yllcorner": "yllcorner 0", "cellsize": "cellsize 1"}
        header[key] = line
        lineno = list(header).index(key) + 1
        text = "\n".join(header.values()) + "\n1 0\n"
        with pytest.raises(ParseError, match=f"^r.asc:{lineno}: {message}"):
            read_asc(text, "t", source="r.asc")

    def test_integral_header_spellings_still_accepted(self):
        text = "ncols 2.0\nnrows 1e0\nxllcorner 5\nyllcorner 0\ncellsize 0.5\n1 1\n"
        raster = read_asc(text, "t")
        assert raster.cells.shape == (1, 2) and raster.cell_size_m == 0.5


HEADER_VALUES = ["1", "2", "3.0", "1.5", "0", "-1", "nan", "inf", "-inf", "1e400",
                 "1e-400", "1e9", "x", "\uff12"]
HEADER_KEYS = ["ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "NODATA_value"]


@st.composite
def near_asc(draw):
    keys = draw(st.lists(st.sampled_from(HEADER_KEYS), max_size=8))
    lines = [f"{k} {draw(st.sampled_from(HEADER_VALUES))}" for k in keys]
    body = draw(st.text(alphabet="01 \t\n\r-+.e9x\uff11\u00a0", max_size=60))
    return "\n".join(lines) + "\n" + body


class TestFuzz:
    @given(st.one_of(st.text(max_size=200), near_asc()))
    @settings(max_examples=600, deadline=None)
    def test_only_parse_error_escapes(self, text):
        try:
            read_asc(text, "t", source="fuzz.asc")
        except ParseError as exc:
            assert str(exc).startswith("fuzz.asc")
