import copy
import csv
import io
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from tvws.availability import (
    AvailabilityResult,
    adjacent_filter,
    availability,
    channel_mask,
    contiguity,
    power_sweep,
    vacancy,
)
from tvws.channel_plan import CHANNEL_MAX, CHANNEL_MIN, ChannelPlan, default_plan, plan_hash
from tvws.coverage import CoverageDisk
from tvws.geo import NgPoint
from tvws.keepout import PropagationParams, QueryParams
from tvws.report import (
    CSV_COLUMNS,
    ChannelRows,
    build_report,
    emit_channel_chart,
    emit_csv,
    emit_json,
    emit_sweep,
    emit_sweep_json,
    SweepPoints,
)
from tvws.txdb import Transmitter, TransmitterDb

PLAN = default_plan()
PROP = PropagationParams()


def make_result(vacant, occupied, power=0.0):
    return AvailabilityResult(
        location=NgPoint(100_000, 100_000),
        p_cr_watts=power,
        vacant=frozenset(vacant),
        occupied=frozenset(occupied),
        rho=len(set(vacant)),
        per_channel_blockers={},
    )


def make_occupied(n):
    rng = random.Random(42)
    interleaved = sorted(PLAN.interleaved)
    return [set(rng.sample(interleaved, rng.randint(0, 10))) for _ in range(n)]


def make_rows(n):
    """Rows for ``n`` labelled results, as ``build_report`` gives them."""
    results = [make_result(PLAN.interleaved - occupied, occupied) for occupied in make_occupied(n)]
    return build_report([f"loc{i:02d}" for i in range(n)], results, PLAN, 3.0, 1.0)


def one_row(label, vacant):
    """One labelled row whose vacant channels are ``vacant``, all other interleaved occupied."""
    result = make_result(vacant, PLAN.interleaved - set(vacant))
    return build_report([label], [result], PLAN, 3.0, 1.0)


def data_rows(text):
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    return list(csv.reader(io.StringIO("\n".join(lines))))


class TestEmitCsv:
    def test_18_locations_18_rows(self):
        text = emit_csv(make_rows(18))
        rows = data_rows(text)
        assert rows[0] == list(CSV_COLUMNS)
        assert len(rows) - 1 == 18

    def test_empty_vacant_row_not_omitted(self):
        rows = data_rows(emit_csv(one_row("dead-zone", set())))
        assert rows[1][0] == "dead-zone"
        assert rows[1][1:6] == ["0", "0", "0", "0", "0"]
        assert rows[1][6] == ""

    def test_total_mhz_is_8_rho(self):
        for row in data_rows(emit_csv(make_rows(12)))[1:]:
            assert int(row[3]) == 8 * int(row[1])
            assert int(row[4]) == 8 * int(row[2])

    def test_metadata_first_line(self):
        text = emit_csv(make_rows(1))
        first = text.splitlines()[0]
        assert first.startswith("# alpha=3.0 beta_th=1.0 ")
        assert f"plan={plan_hash(PLAN)}" in first

    def test_round_trip_numeric_fields(self):
        occupied = make_occupied(6)
        for i, (row, occ) in enumerate(zip(data_rows(emit_csv(make_rows(6)))[1:], occupied)):
            vacant = PLAN.interleaved - occ
            assert row[0] == f"loc{i:02d}"
            assert int(row[1]) == len(vacant)
            assert int(row[5]) == contiguity(vacant)[1]
            channels = [int(c) for c in row[6].split(";")] if row[6] else []
            assert channels == sorted(vacant)

    def test_empty_list_rejected(self):
        empty = np.zeros(0, dtype=np.uint64)
        with pytest.raises(ValueError, match="no reports to emit"):
            ChannelRows([], empty, empty, 3.0, 1.0, 0.0, "abc")
        with pytest.raises(ValueError, match="no reports to emit"):
            build_report([], [], PLAN, 3.0, 1.0)

    @pytest.mark.parametrize("labels, vacant, filtered", [(1, 2, 2), (3, 2, 2), (2, 2, 1),
                                                          (2, 0, 0)])
    def test_masks_and_labels_of_different_lengths_rejected(self, labels, vacant, filtered):
        masks = [np.zeros(n, dtype=np.uint64) for n in (vacant, filtered)]
        message = f"^{labels} labels but {vacant} vacant and {filtered} filtered masks$"
        with pytest.raises(ValueError, match=message):
            ChannelRows(["x"] * labels, *masks, 3.0, 1.0, 0.0, "abc")


class TestEmitJson:
    def test_mirrors_csv_fields(self):
        payload = json.loads(emit_json(make_rows(3)))
        assert payload["params"]["plan"] == plan_hash(PLAN)
        assert len(payload["reports"]) == 3
        for entry, occupied in zip(payload["reports"], make_occupied(3)):
            assert set(entry) == set(CSV_COLUMNS)
            assert entry["rho"] == len(PLAN.interleaved - occupied)
            assert entry["vacant_channels"] == sorted(PLAN.interleaved - occupied)


class TestChannelChart:
    def test_all_vacant_renders_30_filled_bars(self):
        svg = emit_channel_chart(one_row("everywhere", PLAN.interleaved), PLAN)
        assert svg.count('fill="#2d7dd2"') == 30

    def test_none_vacant_renders_no_filled_bars(self):
        svg = emit_channel_chart(one_row("nowhere", set()), PLAN)
        assert svg.count('fill="#2d7dd2"') == 0

    def test_one_slot_per_channel(self):
        svg = emit_channel_chart(one_row("x", {21}), PLAN)
        assert svg.count("<rect") == 48

    def test_byte_identical_for_identical_input(self):
        a = emit_channel_chart(one_row("x", {21, 25}), PLAN)
        b = emit_channel_chart(one_row("x", {21, 25}), PLAN)
        assert a == b

    def test_label_escaped(self):
        svg = emit_channel_chart(one_row("a<b&c", set()), PLAN)
        assert "a&lt;b&amp;c" in svg
        assert "a<b" not in svg

    def test_characters_xml_forbids_become_replacement_characters(self):
        from xml.dom import minidom

        forbidden = [*"\x00\x08\x0b\x0c\x0e\x1c\x1f\ud800\udfff\ufffe\uffff"]
        kept = ["\t", "\n", "\r", " ", "\x7f", "\x85", "\u2028", "\ufffd", "\U0001f4e1"]
        label = "".join(f"a{ch}" for ch in forbidden + kept) + "<&>"
        svg = emit_channel_chart(one_row(label, set()), PLAN)
        minidom.parseString(svg.encode("utf-8"))  # refuses any character XML 1.0 forbids
        want = "a\ufffd" * len(forbidden) + "".join(f"a{ch}" for ch in kept) + "&lt;&amp;&gt;"
        assert f">{want}: 0 vacant channels" in svg


def sweep_scenario():
    tx = Transmitter("s", NgPoint(300_000, 300_000), 10_000.0, 50.0, frozenset({21, 22}))
    db = TransmitterDb((tx,))
    disks = {"s": CoverageDisk("s", tx.position, 30_000.0)}
    loc = NgPoint(331_000, 300_000)  # just outside coverage at zero power
    return db, disks, loc


class TestEmitSweep:
    def test_single_point(self):
        db, disks, loc = sweep_scenario()
        points = power_sweep(db, disks, PLAN, loc, [0.5], PROP)
        text = emit_sweep(points, alpha=3.0, beta_th=1.0, plan_digest="abc")
        rows = data_rows(text)
        assert rows[0] == ["power_watts", "channels", "mhz"]
        assert len(rows) == 2

    def test_channels_column_nonincreasing_and_sorted_by_power(self):
        db, disks, loc = sweep_scenario()
        points = power_sweep(db, disks, PLAN, loc, [4.0, 0.0, 0.5], PROP)
        rows = data_rows(emit_sweep(points, alpha=3.0, beta_th=1.0, plan_digest="abc"))[1:]
        powers = [float(r[0]) for r in rows]
        channels = [int(r[1]) for r in rows]
        assert powers == sorted(powers)
        assert channels == sorted(channels, reverse=True)
        assert all(int(r[2]) == 8 * int(r[1]) for r in rows)

    def test_zero_watt_row_is_lowpower_disk_count(self):
        db, disks, loc = sweep_scenario()
        points = power_sweep(db, disks, PLAN, loc, [0.0, 2.0], PROP)
        rows = data_rows(emit_sweep(points, alpha=3.0, beta_th=1.0, plan_digest="abc"))[1:]
        expected = availability(db, disks, PLAN, QueryParams(loc, 0.0, PROP)).rho
        assert int(rows[0][1]) == expected

    @given(
        points=st.lists(st.tuples(
            st.one_of(
                st.floats(0.0, allow_nan=False, allow_infinity=False),
                st.sampled_from([5e-324, 2.0**-1060, 1e308, 1.7976931348623157e308]),  # subnormal, huge
                st.integers(0, 2**60).map(float),  # integral
            ),
            st.integers(0, 30),
            st.integers(0, 30),
        ), min_size=1, max_size=40),
        copies=st.integers(0, 3),
        alpha=st.floats(allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=300, deadline=None)
    def test_bytes_equal_csv_writer_and_json_dumps(self, points, copies, alpha):
        """Each emitter against ``csv.writer`` and ``json.dumps``, on unsorted powers with repeats."""
        points = points + points[:1] * copies
        ordered = sorted(points, key=lambda t: t[0])
        out = io.StringIO()
        out.write(f"# alpha={alpha!r} beta_th=1.0 plan=abc\n")
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["power_watts", "channels", "mhz"])
        for power, rho, _filtered in ordered:
            writer.writerow([power, rho, 8 * rho])
        payload = {
            "params": {"alpha": alpha, "beta_th": 1.0, "plan": "abc"},
            "sweep": [{"power_watts": power, "channels": rho, "mhz": 8 * rho}
                      for power, rho, _filtered in ordered],
        }
        args = dict(alpha=alpha, beta_th=1.0, plan_digest="abc")
        shared = SweepPoints(points)  # each power's text made once, for both emitters
        for given_points in (points, shared):
            assert emit_sweep(given_points, **args) == out.getvalue()
            assert emit_sweep_json(given_points, **args) == json.dumps(payload, indent=2) + "\n"

    @pytest.mark.parametrize("power", [np.float64(0.5), True, Fraction(1, 3), math.inf, math.nan])
    def test_shared_text_only_for_finite_floats_and_ints(self, power):
        """Both emitters refuse what SweepPoints refuses: numpy's repr and JSON's Infinity are not the text."""
        with pytest.raises(ValueError, match="sweep powers"):
            SweepPoints([(0.25, 3, 3), (power, 2, 2)])
        for emit in (emit_sweep, emit_sweep_json):
            with pytest.raises(ValueError, match="sweep powers"):
                emit([(0.25, 3, 3), (power, 2, 2)], alpha=3.0, beta_th=1.0, plan_digest="abc")
        assert SweepPoints([(4, 3, 3), (0.5, 2, 2)]).texts == ["0.5", "4"]

    @pytest.mark.parametrize("emit", [emit_sweep, emit_sweep_json])
    def test_no_points_rejected(self, emit):
        with pytest.raises(ValueError, match="no sweep points"):
            emit([], alpha=3.0, beta_th=1.0, plan_digest="abc")

    def test_json_mirror(self):
        db, disks, loc = sweep_scenario()
        points = power_sweep(db, disks, PLAN, loc, [0.0, 1.0], PROP)
        payload = json.loads(
            emit_sweep_json(points, alpha=3.0, beta_th=1.0, plan_digest="abc")
        )
        assert payload["params"]["plan"] == "abc"
        assert [p["power_watts"] for p in payload["sweep"]] == [0.0, 1.0]
        for p in payload["sweep"]:
            assert p["mhz"] == 8 * p["channels"]


class TestBuildReport:
    def test_rows_filter_by_the_occupied_mask(self):
        rows = build_report(["x"], [make_result(PLAN.interleaved - {22}, {22})], PLAN, 3.0, 1.0)
        assert rows.vacant.tolist() == [channel_mask(PLAN.interleaved - {22})]
        assert rows.filtered.tolist() == [channel_mask(PLAN.interleaved - {21, 22, 23})]

    def test_extra_blockers_filter_as_adjacent_filter(self):
        result = make_result({60}, PLAN.interleaved - {60})
        for extra in ((), PLAN.excluded):
            rows = build_report(["x"], [result], PLAN, 3.0, 1.0, extra)
            assert rows.filtered.tolist() == [channel_mask(adjacent_filter(result, extra))]
        assert rows.filtered.tolist() == [0]

    def test_params_echo(self):
        rows = build_report(["x"], [make_result({21}, set(), power=0.5)], PLAN, 2.5, 0.5)
        assert (rows.alpha, rows.beta_th, rows.power_watts) == (2.5, 0.5, 0.5)
        assert rows.plan_digest == plan_hash(PLAN)

    def test_results_at_different_powers_rejected(self):
        results = [make_result({21}, set(), power=p) for p in (0.5, 1.0)]
        with pytest.raises(ValueError, match="different powers"):
            build_report(["a", "b"], results, PLAN, 3.0, 1.0)

    @pytest.mark.parametrize("labels", [["a"], ["a", "b", "c"]])
    def test_labels_and_results_of_different_lengths_rejected(self, labels):
        results = [make_result({21}, set())] * 2
        with pytest.raises(ValueError, match=f"{len(labels)} labels for 2 results"):
            build_report(labels, results, PLAN, 3.0, 1.0)


def plans():
    """Every channel interleaved, cleared or excluded, at least one interleaved."""
    def plan(kinds):
        channels = range(CHANNEL_MIN, CHANNEL_MAX + 1)
        sets = {k: frozenset(ch for ch, kk in zip(channels, kinds) if kk == k) for k in "ice"}
        return ChannelPlan(interleaved=sets["i"], cleared=sets["c"], excluded=sets["e"])
    size = CHANNEL_MAX - CHANNEL_MIN + 1
    return st.lists(st.sampled_from("ice"), min_size=size, max_size=size).filter(
        lambda kinds: "i" in kinds).map(plan)


# labels with CSV quotes, backslashes, separators, control characters, non-ASCII
# text and a leading "#"
LABELS = st.builds(
    "{}{}".format, st.sampled_from(["", "#"]),
    st.text(alphabet=st.one_of(st.sampled_from('"\\,;#\r\n\t\x00\x1f\x7f\x85\u2028 é€ü漢😀'),
                               st.characters()), max_size=8),
)


class TestOneRow:
    """One row is rendered from Python ints; the bytes are the array path's."""

    @given(label=LABELS, vacant=st.integers(0, 2**64 - 1), filtered=st.integers(0, 2**64 - 1),
           runs=st.sampled_from([0, 2**40 - 1, 2**64 - 1, 0x5555_5555_5555_5555, 1 << 63]))
    @settings(max_examples=300, deadline=None)
    def test_equals_a_row_of_the_array_path(self, label, vacant, filtered, runs):
        """Two equal rows go through the array path: each must be the one-row text."""
        vacant ^= runs
        params = (3.0, 1.0, 0.1, "abc")
        one = ChannelRows([label], *np.array([[vacant], [filtered]], dtype=np.uint64), *params)
        two = ChannelRows([label] * 2, *np.array([[vacant] * 2, [filtered] * 2], dtype=np.uint64),
                          *params)
        text = emit_csv(one)
        start = text.index("\n", text.index("\n") + 1) + 1  # after the comment and header lines
        assert emit_csv(two) == text + text[start:]
        text = emit_json(one)
        start = text.index('"reports": [\n') + len('"reports": [\n')
        end = len(text) - len("\n    }\n  ]\n}\n")
        assert emit_json(two) == text[:end] + "\n    },\n" + text[start:]


class TestMaskRowsAgainstTheSetPath:
    """The mask renderer writes the bytes the set-based emitters wrote (``oracles``)."""

    @given(plan=plans(), data=st.data(), strict=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_random_masks_and_plans(self, plan, data, strict):
        n = data.draw(st.integers(1, 10))
        labels = data.draw(st.lists(LABELS, min_size=n, max_size=n))
        interleaved = channel_mask(plan.interleaved)
        # any channels, or none, every one, one channel or all but one, or the band's edges
        singles = st.sampled_from([1 << (c - CHANNEL_MIN) for c in sorted(plan.interleaved)])
        edges = st.sampled_from([1 << (c - CHANNEL_MIN) for c in (CHANNEL_MIN, CHANNEL_MAX)]
                                + [1 | 1 << (CHANNEL_MAX - CHANNEL_MIN)])
        masks = st.one_of(st.integers(0, 2**48 - 1), st.sampled_from([0, interleaved]), singles,
                          singles.map(lambda bit: ~bit), edges, edges.map(lambda bits: ~bits))
        occupied = [data.draw(masks) & interleaved for _ in range(n)]
        params = (data.draw(st.sampled_from([3.0, 2.5, 4])), 1.0,
                  data.draw(st.sampled_from([0.0, 0.1, 1e-3, 4.0, -0.0])), plan_hash(plan))
        extra = plan.excluded if strict else ()
        sets, results = [], []
        for label, mask in zip(labels, occupied):
            occ = frozenset(c for c in plan.interleaved if mask >> (c - CHANNEL_MIN) & 1)
            vacant = plan.interleaved - occ
            want = oracles.filtered_by_sets(vacant, occ, extra)
            sets.append((label, vacant, want))
            result = AvailabilityResult(NgPoint(1.0, 2.0), params[2], vacant, occ, len(vacant))
            before = copy.deepcopy(result)
            assert adjacent_filter(result, extra) == want
            assert result == before  # the filter writes nothing to the result
            results.append(result)
        vacant, filtered = vacancy(np.array(occupied, dtype=np.uint64), plan, extra)
        rows = ChannelRows(labels, vacant, filtered, *params)
        csv_text = oracles.report_csv(sets, *params)
        json_text = oracles.report_json(sets, *params)
        assert emit_csv(rows) == csv_text and emit_json(rows) == json_text
        reports = build_report(labels, results, plan, params[0], params[1], extra)
        assert emit_csv(reports) == csv_text and emit_json(reports) == json_text
