"""UK UHF channel arithmetic and the cleared/interleaved band partition.

UK digital terrestrial TV (DVB-T) occupies 8 MHz channels numbered 21-68
on the standard European UHF raster (channel 21 starts at 470 MHz).  After
digital switchover the band splits three ways:

* ``interleaved`` -- channels still carrying DTV somewhere nationally but
  vacant in many places; these are the white spaces open to cognitive use.
* ``cleared``     -- channels fully vacated by switchover and reallocated.
* ``excluded``    -- channels withdrawn from white-space use (auctioned or
  otherwise reserved); channels 61 and 62 in the default plan.

The default partition below is a reconstruction consistent with the
published post-switchover totals (256 MHz of interleaved spectrum before
the channel 61/62 auction, 240 MHz after).  The exact national assignment
is not public at this granularity, so any other split can be supplied as a
plan file; the engine treats every interleaved channel identically
(including 36 and 38, which carry other services in parts of the UK --
override via a plan file if that matters for your deployment).
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable
from dataclasses import dataclass

from tvws.errors import ParseError

CHANNEL_MIN = 21
CHANNEL_MAX = 68
CHANNEL_WIDTH_MHZ = 8
BAND_BASE_MHZ = 470  # lower edge of channel 21

ALL_CHANNELS = frozenset(range(CHANNEL_MIN, CHANNEL_MAX + 1))

_SET_NAMES = ("interleaved", "cleared", "excluded")


def validate_channel(number: int) -> int:
    """Return ``number`` if it is a legal UHF channel index, else raise."""
    if not isinstance(number, int) or isinstance(number, bool):
        raise ValueError(f"channel number must be an integer, got {number!r}")
    if not CHANNEL_MIN <= number <= CHANNEL_MAX:
        raise ValueError(
            f"channel {number} outside the UK UHF range {CHANNEL_MIN}..{CHANNEL_MAX}"
        )
    return number


def channel_to_band(channel: int) -> tuple[int, int]:
    """Frequency band [low, high] in MHz for a UHF channel.

    Bands are 8 MHz wide and abut exactly: channel 21 is 470-478 MHz,
    channel 22 is 478-486 MHz, and so on up to channel 68 at 846-854 MHz.
    """
    validate_channel(channel)
    low = BAND_BASE_MHZ + CHANNEL_WIDTH_MHZ * (channel - CHANNEL_MIN)
    return low, low + CHANNEL_WIDTH_MHZ


def channel_mask(channels: Iterable[int]) -> int:
    """Bit ``ch - 21`` set for each channel ``ch``: the mask form of a channel set."""
    return sum(1 << (ch - CHANNEL_MIN) for ch in channels)


def mask_channels(mask: int) -> list[int]:
    """The channels whose bits are set in ``mask``, ascending: the inverse of :func:`channel_mask`."""
    return [ch for ch in range(CHANNEL_MIN, CHANNEL_MAX + 1) if mask >> (ch - CHANNEL_MIN) & 1]


def bandwidth_mhz(channels: Iterable[int]) -> int:
    """Total bandwidth of a channel set in MHz (8 MHz per channel)."""
    return CHANNEL_WIDTH_MHZ * len(frozenset(channels))


@dataclass(frozen=True)
class ChannelPlan:
    """Partition of channels 21-68 into interleaved / cleared / excluded."""

    interleaved: frozenset[int]
    cleared: frozenset[int]
    excluded: frozenset[int]

    def __post_init__(self) -> None:
        sets = (self.interleaved, self.cleared, self.excluded)
        for name, chans in zip(_SET_NAMES, sets):
            for ch in chans:
                try:
                    validate_channel(ch)
                except ValueError as exc:
                    raise ValueError(f"{name} set: {exc}") from None
        union = self.interleaved | self.cleared | self.excluded
        total = len(self.interleaved) + len(self.cleared) + len(self.excluded)
        if total != len(union):
            raise ValueError("plan sets overlap: each channel belongs to exactly one set")
        if union != ALL_CHANNELS:
            missing = sorted(ALL_CHANNELS - union)
            raise ValueError(f"plan does not cover all channels; missing {missing}")

    def category(self, channel: int) -> str:
        """'interleaved', 'cleared' or 'excluded' for a channel."""
        validate_channel(channel)
        if channel in self.interleaved:
            return "interleaved"
        if channel in self.excluded:
            return "excluded"
        return "cleared"


def default_plan() -> ChannelPlan:
    """The built-in post-switchover plan.

    30 interleaved channels (21-30 and 41-60, 240 MHz), channels 61 and 62
    excluded, the remainder cleared.  See the module docstring for the
    status of this reconstruction.
    """
    interleaved = frozenset(range(21, 31)) | frozenset(range(41, 61))
    excluded = frozenset({61, 62})
    cleared = ALL_CHANNELS - interleaved - excluded
    return ChannelPlan(interleaved=interleaved, cleared=cleared, excluded=excluded)


def plan_hash(plan: ChannelPlan) -> str:
    """Short stable digest of a plan, echoed into every report."""
    canon = "|".join(
        name + ":" + ",".join(str(c) for c in sorted(getattr(plan, name)))
        for name in _SET_NAMES
    )
    return hashlib.sha256(canon.encode("ascii")).hexdigest()[:12]


def _parse_channel_token(token: str, *, source: str, line: int) -> Iterable[int]:
    token = token.strip()
    if not token:
        raise ParseError("empty channel entry", source=source, line=line)
    if "-" in token:
        lo_s, _, hi_s = token.partition("-")
        try:
            lo, hi = int(lo_s), int(hi_s)
        except ValueError:
            raise ParseError(f"bad channel range {token!r}", source=source, line=line) from None
        if hi < lo:
            raise ParseError(f"descending channel range {token!r}", source=source, line=line)
        numbers = range(lo, hi + 1)  # checked below up to its first bad channel
    else:
        try:
            numbers = [int(token)]
        except ValueError:
            raise ParseError(f"bad channel number {token!r}", source=source, line=line) from None
    for n in numbers:
        if not CHANNEL_MIN <= n <= CHANNEL_MAX:
            raise ParseError(
                f"channel {n} outside {CHANNEL_MIN}..{CHANNEL_MAX}", source=source, line=line
            )
    return numbers


def load_plan(text: str, source: str = "plan") -> ChannelPlan:
    """Parse a plan file.

    One directive per line, e.g. ``interleaved = 21-30, 41-60`` or
    ``excluded = 61, 62``; ranges are inclusive and ``#`` starts a comment.
    Channels not named by any directive default to cleared.  Declaring a
    channel twice (in any set) is an error, as is a file with no
    directives at all.
    """
    declared: dict[str, set[int]] = {name: set() for name in _SET_NAMES}
    seen: dict[int, int] = {}  # channel -> line it was first declared on
    any_directive = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ParseError(f"malformed line {raw.strip()!r}", source=source, line=lineno)
        name, _, rhs = stripped.partition("=")
        name = name.strip().lower()
        if name not in _SET_NAMES:
            raise ParseError(f"unknown set {name!r}", source=source, line=lineno)
        any_directive = True
        for token in rhs.split(","):
            for ch in _parse_channel_token(token, source=source, line=lineno):
                if ch in seen:
                    raise ParseError(
                        f"channel {ch} already declared on line {seen[ch]}",
                        source=source,
                        line=lineno,
                    )
                seen[ch] = lineno
                declared[name].add(ch)

    if not any_directive:
        raise ParseError("plan file contains no directives", source=source)

    cleared = declared["cleared"] | (ALL_CHANNELS - set(seen))
    return ChannelPlan(
        interleaved=frozenset(declared["interleaved"]),
        cleared=frozenset(cleared),
        excluded=frozenset(declared["excluded"]),
    )
