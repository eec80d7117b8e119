"""UK National Grid (OSGB) coordinates.

Everything here is planar: eastings and northings are metres on the OSGB
projection and distances are Euclidean.  That is accurate to well under a
percent at the tens-of-kilometres scales that matter for TV keep-out
geometry, so no geodesy is attempted (and lat/lon input is out of scope).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress

import numpy as np

from tvws.errors import ParseError

# The OSGB envelope: 7 x 13 of the 100 km letter squares.
EASTING_MAX = 700_000.0
NORTHING_MAX = 1_300_000.0


@dataclass(frozen=True)
class NgPoint:
    """A position as OSGB easting/northing in metres."""

    easting: float
    northing: float

    def __post_init__(self) -> None:
        if problem := _off_envelope(self.easting, self.northing):
            raise ValueError(problem)


def _off_envelope(easting: float, northing: float) -> str | None:
    """Why a point lies outside the OSGB envelope, or None if it lies inside."""
    if 0 <= easting < EASTING_MAX and 0 <= northing < NORTHING_MAX:  # false for nan
        return None
    name, value, limit = (("northing", northing, NORTHING_MAX) if 0 <= easting < EASTING_MAX
                          else ("easting", easting, EASTING_MAX))
    if not math.isfinite(value):
        return f"{name} must be finite, got {value!r}"
    return f"{name} {value} outside the OSGB envelope [0, {limit})"


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned region, min corner inclusive."""

    min_e: float
    min_n: float
    max_e: float
    max_n: float

    def __post_init__(self) -> None:
        if not (self.min_e <= self.max_e and self.min_n <= self.max_n):
            raise ValueError("bounding box min corner must not exceed max corner")

    @property
    def width(self) -> float:
        return self.max_e - self.min_e

    @property
    def height(self) -> float:
        return self.max_n - self.min_n

    def is_empty(self) -> bool:
        return self.width <= 0 or self.height <= 0

    def contains(self, p: NgPoint) -> bool:
        return self.min_e <= p.easting <= self.max_e and self.min_n <= p.northing <= self.max_n


OSGB_ENVELOPE = BoundingBox(0.0, 0.0, EASTING_MAX, NORTHING_MAX)


def distance(a: NgPoint, b: NgPoint) -> float:
    """Planar Euclidean distance in metres."""
    return math.hypot(a.easting - b.easting, a.northing - b.northing)


def _index_letter(idx: int) -> str:
    return chr(ord("A") + idx + (1 if idx >= 8 else 0))


# Southwest corner (metres) of each two-letter 100 km square; "I" is never a grid letter.
_SQUARES = {_index_letter(l1) + _index_letter(l2): ((((l1 - 2) % 5) * 5 + l2 % 5) * 100_000,
                                                    ((19 - 5 * (l1 // 5)) - l2 // 5) * 100_000)
            for l1 in range(25) for l2 in range(25)}
# _SQUARES by letter code, [ord(l1) - 65, ord(l2) - 65]: a pair with an "I" gets easting
# EASTING_MAX, so its references fall off the envelope and parse_coords names the letter
_SQUARE_ORIGINS = np.full((26, 26, 2), [EASTING_MAX, 0], dtype=np.int64)
_codes = np.frombuffer("".join(_SQUARES).encode(), dtype=np.uint8).reshape(-1, 2) - 65
_SQUARE_ORIGINS[_codes[:, 0], _codes[:, 1]] = np.fromiter(
    _SQUARES.values(), dtype=(np.int64, 2), count=len(_SQUARES))
# _PLACES[h, 0] and _PLACES[h, 1]: the metres of each of a reference's 2h digits in its
# easting and in its northing
_PLACES = np.zeros((6, 2, 10), dtype=np.int64)
for _h in range(1, 6):
    _PLACES[_h, 0, :_h] = _PLACES[_h, 1, _h : 2 * _h] = 10 ** np.arange(4, 4 - _h, -1)


def parse_gridref(text: str) -> NgPoint:
    """Parse an OSGB grid reference like ``"SP 513 061"``.

    Two grid letters followed by an even number (2-10) of digits; internal
    whitespace is ignored and letters may be lower case.  The returned
    point is the southwest corner of the referenced cell, so ``"SP 51 06"``
    (1 km resolution) and ``"SP 513 061"`` (100 m) name different points
    unless the extra digits are zero.
    """
    return NgPoint(*_gridref_coords(text))


def _gridref_coords(text: str) -> tuple[float, float]:
    """:func:`parse_gridref` as ``(easting, northing)``."""
    compact = "".join(text.split())
    if len(compact) < 2:
        raise ParseError(f"grid reference too short: {text!r}")
    letters = compact[:2]
    # checked before upper(), which turns "ß" into "SS" and "ſ" into "S"
    if not (letters.isascii() and letters.isalpha()):
        raise ParseError(f"bad grid letters {letters!r} in {text!r}")
    digits = compact[2:]
    if not digits.isdecimal():  # isdigit() also passes "²", which int() refuses
        raise ParseError(f"expected digits after the grid letters in {text!r}")
    if len(digits) % 2 != 0 or not 2 <= len(digits) <= 10:
        raise ParseError(
            f"need an even number (2-10) of digits, got {len(digits)} in {text!r}"
        )
    origin = _SQUARES.get(letters.upper())
    if origin is None:
        raise ParseError(f"grid letters never contain 'I': {text!r}")

    half = len(digits) // 2
    scale = 10 ** (5 - half)
    easting = float(origin[0] + int(digits[:half]) * scale)
    northing = float(origin[1] + int(digits[half:]) * scale)
    if problem := _off_envelope(easting, northing):
        raise ParseError(f"{text!r} lies outside the OSGB envelope ({problem})")
    return easting, northing


def format_gridref(p: NgPoint, digits: int = 6) -> str:
    """Inverse of :func:`parse_gridref` at the requested resolution.

    ``digits`` is the total digit count (even, 2-10); coordinates are
    truncated to the implied cell, so round-tripping is exact only for
    points already on that lattice.
    """
    if digits % 2 != 0 or not 2 <= digits <= 10:
        raise ValueError(f"digits must be even and within 2-10, got {digits}")
    e100, rem_e = divmod(int(p.easting), 100_000)
    n100, rem_n = divmod(int(p.northing), 100_000)
    l1 = (19 - n100) - (19 - n100) % 5 + (e100 + 10) // 5
    l2 = (19 - n100) * 5 % 25 + e100 % 5
    half = digits // 2
    scale = 10 ** (5 - half)
    return (
        _index_letter(l1)
        + _index_letter(l2)
        + f" {rem_e // scale:0{half}d} {rem_n // scale:0{half}d}"
    )


def parse_location(text: str) -> NgPoint:
    """Accept either a grid reference or a raw ``easting,northing`` pair."""
    return NgPoint(*parse_coords(text))


def parse_coords(text: str) -> tuple[float, float]:
    """:func:`parse_location` as ``(easting, northing)``, with no :class:`NgPoint` built."""
    if "," not in text:
        return _gridref_coords(text)
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError(f"expected 'easting,northing', got {text!r}")
    try:
        easting, northing = float(parts[0]), float(parts[1])
    except ValueError:
        raise ParseError(f"bad coordinate pair {text!r}") from None
    if problem := _off_envelope(easting, northing):
        raise ParseError(problem)
    return easting, northing


def decode_coords(texts: list[str]) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """:func:`parse_coords` of many one-line texts at once, for the two plain forms.

    Returns ``(east, north, rest)``.  ``rest`` lists, ascending, the indices
    of the texts not decoded here, whose entries in ``east`` and ``north``
    are left for :func:`parse_coords`: only it can give their value or their
    error.  Every other entry is the value :func:`parse_coords` returns:

    * a grid reference of two ASCII letters and an even count of 2-10 ASCII
      digits, with spaces anywhere, is decoded as a matrix of code points,
      one row per reference: its square's origin from a table and its
      digits' metres by an exact integer dot product;
    * an ``easting,northing`` pair goes through ``float`` as the two parts
      :func:`parse_coords` would split off.
    """
    count = len(texts)
    compact = "\n".join(texts).replace(" ", "").split("\n") if texts else []
    if len(compact) != count:
        raise ValueError("a text to decode holds a newline")
    east, north = np.full(count, np.nan), np.full(count, np.nan)  # nan: not decoded
    size = np.fromiter(map(len, compact), dtype=np.intp, count=count)
    codes = np.array(compact, dtype="U12").view(np.uint32).reshape(count, 12)
    letters = (codes[:, :2] & ~np.uint32(32)) - 65  # A-Z and a-z to 0-25, the rest above
    digits = codes[:, 2:] - 48  # 0-9, the rest above (unsigned)
    plain = ((letters < 26).all(1) & (size % 2 == 0) & (size >= 4) & (size <= 12)
             & ((digits < 10) | (np.arange(10) >= size[:, np.newaxis] - 2)).all(1))
    at = np.flatnonzero(plain)
    metres = _SQUARE_ORIGINS[letters[at, 0], letters[at, 1]]
    metres += (_PLACES[(size[at] - 2) // 2] * digits[at, np.newaxis]).sum(2)
    east[at], north[at] = metres.T

    others = list(compress(texts, (~plain).tolist()))
    pair = ["," in text for text in others]
    at = np.flatnonzero(~plain)[pair]
    parts = ",".join(compress(others, pair)).split(",")
    if at.size and len(parts) == 2 * at.size:  # one comma in each
        try:
            values = np.fromiter(map(float, parts), dtype=float, count=len(parts))
        except ValueError:  # parse_coords says which part, and why
            pass
        else:
            east[at], north[at] = values[0::2], values[1::2]

    inside = (east >= 0) & (east < EASTING_MAX) & (north >= 0) & (north < NORTHING_MAX)
    return east, north, np.flatnonzero(~inside).tolist()
