import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tvws.channel_plan import (
    ALL_CHANNELS,
    ChannelPlan,
    bandwidth_mhz,
    channel_mask,
    channel_to_band,
    default_plan,
    load_plan,
    plan_hash,
)
from tvws.errors import ParseError


class TestChannelToBand:
    def test_channel_21_matches_uk_allocation(self):
        # Published UK UHF raster: channel 21 occupies 470-478 MHz.
        assert channel_to_band(21) == (470, 478)

    def test_channel_68_matches_uk_allocation(self):
        assert channel_to_band(68) == (846, 854)

    def test_consecutive_bands_abut(self):
        assert channel_to_band(22) == (478, 486)

    @given(st.integers(min_value=21, max_value=67))
    def test_abutment_property(self, ch):
        assert channel_to_band(ch + 1)[0] == channel_to_band(ch)[1]

    @given(st.integers(min_value=21, max_value=68))
    def test_width_always_8(self, ch):
        low, high = channel_to_band(ch)
        assert high - low == 8

    @pytest.mark.parametrize("bad", [20, 69, 0, -21, 1000])
    def test_out_of_range_rejected(self, bad):
        with pytest.raises(ValueError):
            channel_to_band(bad)


class TestChannelMask:
    @pytest.mark.parametrize("channel", [21.0, np.float64(41), 41.5, "41", None])
    def test_a_channel_not_an_integer_is_refused_by_name(self, channel):
        message = f"^channel number must be an integer, got {re.escape(repr(channel))}$"
        with pytest.raises(ValueError, match=message):
            channel_mask([22, channel])

    # a narrow type would overflow in the shift: np.uint8(41) set no bit
    @pytest.mark.parametrize("channel", [np.int64(21), np.uint8(41), np.int32(68)])
    def test_numpy_integers_set_their_bit(self, channel):
        assert channel_mask([channel]) == channel_mask([int(channel)]) == 1 << (int(channel) - 21)


class TestBandwidth:
    def test_empty(self):
        assert bandwidth_mhz(set()) == 0

    def test_12_channels_is_96_mhz(self):
        assert bandwidth_mhz(set(range(21, 33))) == 96

    def test_30_channels_is_240_mhz(self):
        assert bandwidth_mhz(default_plan().interleaved) == 240

    def test_duplicates_ignored(self):
        assert bandwidth_mhz([21, 21, 22]) == 16

    @given(st.sets(st.integers(21, 68)), st.sets(st.integers(21, 68)))
    def test_additive_over_disjoint_sets(self, a, b):
        b = b - a
        assert bandwidth_mhz(a | b) == bandwidth_mhz(a) + bandwidth_mhz(b)


class TestDefaultPlan:
    def test_partition_covers_all_channels(self):
        p = default_plan()
        assert p.interleaved | p.cleared | p.excluded == ALL_CHANNELS
        assert not (p.interleaved & p.cleared)
        assert not (p.interleaved & p.excluded)
        assert not (p.cleared & p.excluded)

    def test_interleaved_reconstruction(self):
        p = default_plan()
        assert p.interleaved == frozenset(range(21, 31)) | frozenset(range(41, 61))
        assert p.excluded == {61, 62}

    def test_240_mhz_after_exclusion(self):
        p = default_plan()
        assert bandwidth_mhz(p.interleaved) == 240
        # 256 MHz before channels 61/62 were withdrawn
        assert bandwidth_mhz(p.interleaved | p.excluded) == 256

    def test_category(self):
        p = default_plan()
        assert p.category(21) == "interleaved"
        assert p.category(61) == "excluded"
        assert p.category(35) == "cleared"


class TestPlanInvariants:
    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            ChannelPlan(
                interleaved=frozenset({21}),
                cleared=frozenset(ALL_CHANNELS - {22}),
                excluded=frozenset({22, 21}),
            )

    def test_gap_rejected(self):
        with pytest.raises(ValueError, match="missing"):
            ChannelPlan(
                interleaved=frozenset({21}),
                cleared=frozenset(ALL_CHANNELS - {21, 22}),
                excluded=frozenset(),
            )

    def test_bad_channel_rejected(self):
        with pytest.raises(ValueError):
            ChannelPlan(
                interleaved=frozenset({20}),
                cleared=ALL_CHANNELS,
                excluded=frozenset(),
            )


class TestLoadPlan:
    def test_default_reconstruction_from_file(self):
        text = "interleaved = 21-30, 41-60\nexcluded = 61, 62\n"
        assert load_plan(text) == default_plan()

    def test_comments_and_blank_lines(self):
        text = "# a comment\n\ninterleaved = 21-30, 41-60  # trailing\nexcluded = 61,62\n"
        assert load_plan(text) == default_plan()

    def test_unlisted_channels_default_to_cleared(self):
        p = load_plan("interleaved = 21\n")
        assert p.interleaved == {21}
        assert p.cleared == ALL_CHANNELS - {21}
        assert p.excluded == frozenset()

    def test_double_declaration_is_parse_error(self):
        with pytest.raises(ParseError) as exc:
            load_plan("cleared = 21\ninterleaved = 21-25\n")
        assert exc.value.line == 2
        assert "21" in str(exc.value)

    def test_empty_file_is_error_not_default(self):
        with pytest.raises(ParseError, match="no directives"):
            load_plan("")
        with pytest.raises(ParseError, match="no directives"):
            load_plan("# only a comment\n")

    def test_unknown_channel_number(self):
        with pytest.raises(ParseError) as exc:
            load_plan("interleaved = 19\n")
        assert exc.value.line == 1

    def test_only_newlines_end_a_line(self):
        with pytest.raises(ParseError) as exc:
            load_plan("# a\u2028# b\x85# c\ninterleaved = 19\n")
        assert exc.value.line == 2

    def test_malformed_line(self):
        with pytest.raises(ParseError) as exc:
            load_plan("interleaved 21-30\n")
        assert exc.value.line == 1

    def test_unknown_set_name(self):
        with pytest.raises(ParseError, match="unknown set"):
            load_plan("reserved = 21\n")

    def test_descending_range(self):
        with pytest.raises(ParseError, match="descending"):
            load_plan("interleaved = 30-21\n")

    @given(
        st.sets(st.integers(21, 68)),
        st.sets(st.integers(21, 68)),
    )
    def test_partition_property_roundtrip(self, interleaved, excluded):
        excluded = excluded - interleaved
        lines = []
        if interleaved:
            lines.append("interleaved = " + ", ".join(map(str, sorted(interleaved))))
        if excluded:
            lines.append("excluded = " + ", ".join(map(str, sorted(excluded))))
        if not lines:
            return
        p = load_plan("\n".join(lines))
        assert p.interleaved == interleaved
        assert p.excluded == excluded
        assert p.interleaved | p.cleared | p.excluded == ALL_CHANNELS
        # what is derived from the plan, computed here from the sets it was given
        cleared = ALL_CHANNELS - interleaved - excluded
        canon = "|".join(f"{name}:{','.join(map(str, sorted(chans)))}" for name, chans in
                         [("interleaved", interleaved), ("cleared", cleared), ("excluded", excluded)])
        for _call in range(2):
            assert plan_hash(p) == hashlib.sha256(canon.encode()).hexdigest()[:12]
            assert p.interleaved_mask == sum(1 << (c - 21) for c in interleaved)


class TestPlanHash:
    def test_stable(self):
        assert plan_hash(default_plan()) == plan_hash(default_plan())

    def test_differs_between_plans(self):
        other = load_plan("interleaved = 21\n")
        assert plan_hash(other) != plan_hash(default_plan())


# Ranges far past channel 68 (the range is checked without being listed),
# descending and half-open ranges, digits int() refuses or accepts.
PLAN_TOKENS = ["21", "68", "69", "20", "21-30", "30-21", "61-62", "21-1000000000000",
               "1000000000000-2000000000000", "-5", "5-", "-", "", " ", "x", "²", "٣٥",
               "1" * 5000]


def plan_texts():
    entries = st.lists(st.one_of(st.sampled_from(PLAN_TOKENS), st.text(max_size=5)), max_size=5)
    name = st.sampled_from(["interleaved", "cleared", "excluded", "Excluded", "bogus", ""])
    directive = st.tuples(name, entries).map(lambda t: f"{t[0]} = {','.join(t[1])}")
    line = st.one_of(directive, st.sampled_from(["# note", "", "= 21", "=="]), st.text(max_size=10))
    return st.one_of(st.text(), st.lists(line, max_size=6).map("\n".join))


@given(plan_texts())
@settings(max_examples=400, deadline=None)
def test_fuzz_only_parse_error_escapes(text):
    try:
        load_plan(text, source="fuzz")
    except ParseError:
        pass
