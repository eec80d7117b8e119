import csv
import io
import json
import random

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


def make_reports(n):
    rng = random.Random(42)
    reports = []
    interleaved = sorted(PLAN.interleaved)
    for i in range(n):
        occupied = set(rng.sample(interleaved, rng.randint(0, 10)))
        result = make_result(PLAN.interleaved - occupied, occupied)
        reports.append(build_report(f"loc{i:02d}", result, PLAN, 3.0, 1.0))
    return reports


def data_rows(text):
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    return list(csv.reader(io.StringIO("\n".join(lines))))


class TestEmitCsv:
    def test_18_locations_18_rows(self):
        text = emit_csv(make_reports(18))
        rows = data_rows(text)
        assert rows[0] == list(CSV_COLUMNS)
        assert len(rows) - 1 == 18

    def test_empty_vacant_row_not_omitted(self):
        result = make_result(set(), PLAN.interleaved)
        report = build_report("dead-zone", result, PLAN, 3.0, 1.0)
        rows = data_rows(emit_csv([report]))
        assert rows[1][0] == "dead-zone"
        assert rows[1][1:6] == ["0", "0", "0", "0", "0"]
        assert rows[1][6] == ""

    def test_total_mhz_is_8_rho(self):
        for row in data_rows(emit_csv(make_reports(12)))[1:]:
            assert int(row[3]) == 8 * int(row[1])
            assert int(row[4]) == 8 * int(row[2])

    def test_metadata_first_line(self):
        text = emit_csv(make_reports(1))
        first = text.splitlines()[0]
        assert first.startswith("# alpha=3.0 beta_th=1.0 ")
        assert f"plan={plan_hash(PLAN)}" in first

    def test_round_trip_numeric_fields(self):
        reports = make_reports(6)
        for report, row in zip(reports, data_rows(emit_csv(reports))[1:]):
            assert row[0] == report.label
            assert int(row[1]) == report.result.rho
            assert int(row[5]) == report.max_contiguous_mhz
            channels = [int(c) for c in row[6].split(";")] if row[6] else []
            assert channels == sorted(report.result.vacant)

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            emit_csv([])


class TestEmitJson:
    def test_mirrors_csv_fields(self):
        reports = make_reports(3)
        payload = json.loads(emit_json(reports))
        assert payload["params"]["plan"] == plan_hash(PLAN)
        assert len(payload["reports"]) == 3
        for entry, report in zip(payload["reports"], reports):
            assert set(entry) == set(CSV_COLUMNS)
            assert entry["rho"] == report.result.rho
            assert entry["vacant_channels"] == sorted(report.result.vacant)


class TestChannelChart:
    def test_all_vacant_renders_30_filled_bars(self):
        result = make_result(PLAN.interleaved, set())
        report = build_report("everywhere", result, PLAN, 3.0, 1.0)
        svg = emit_channel_chart(report, PLAN)
        assert svg.count('fill="#2d7dd2"') == 30

    def test_none_vacant_renders_no_filled_bars(self):
        result = make_result(set(), PLAN.interleaved)
        report = build_report("nowhere", result, PLAN, 3.0, 1.0)
        svg = emit_channel_chart(report, PLAN)
        assert svg.count('fill="#2d7dd2"') == 0

    def test_one_slot_per_channel(self):
        report = build_report("x", make_result({21}, PLAN.interleaved - {21}), PLAN, 3.0, 1.0)
        svg = emit_channel_chart(report, PLAN)
        assert svg.count("<rect") == 48

    def test_byte_identical_for_identical_input(self):
        result = make_result({21, 25}, PLAN.interleaved - {21, 25})
        a = emit_channel_chart(build_report("x", result, PLAN, 3.0, 1.0), PLAN)
        b = emit_channel_chart(build_report("x", result, PLAN, 3.0, 1.0), PLAN)
        assert a == b

    def test_label_escaped(self):
        report = build_report("a<b&c", make_result(set(), PLAN.interleaved), PLAN, 3.0, 1.0)
        svg = emit_channel_chart(report, PLAN)
        assert "a&lt;b&amp;c" in svg
        assert "a<b" not in svg


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
    def test_applies_filter_when_missing(self):
        result = make_result({21, 23}, {22})
        assert result.filtered_vacant is None
        report = build_report("x", result, PLAN, 3.0, 1.0)
        assert report.result.filtered_vacant == frozenset()

    def test_preserves_existing_filter(self):
        result = make_result({60}, set())
        adjacent_filter(result, extra_blockers=PLAN.excluded)
        report = build_report("x", result, PLAN, 3.0, 1.0)
        assert report.result.filtered_vacant == frozenset()

    def test_params_echo(self):
        report = build_report("x", make_result({21}, set()), PLAN, 2.5, 0.5)
        assert (report.alpha, report.beta_th) == (2.5, 0.5)
        assert report.plan_digest == plan_hash(PLAN)


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


class TestMaskRowsAgainstTheSetPath:
    """The mask renderer writes the bytes the set-based emitters wrote (``oracles``)."""

    @given(plan=plans(), data=st.data(), strict=st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_random_masks_and_plans(self, plan, data, strict):
        n = data.draw(st.integers(1, 10))
        labels = data.draw(st.lists(LABELS, min_size=n, max_size=n))
        interleaved = channel_mask(plan.interleaved)
        # any channels, or none, every one, one channel or all but one
        singles = st.sampled_from([1 << (c - CHANNEL_MIN) for c in sorted(plan.interleaved)])
        masks = st.one_of(st.integers(0, 2**48 - 1), st.sampled_from([0, interleaved]), singles,
                          singles.map(lambda bit: ~bit))
        occupied = [data.draw(masks) & interleaved for _ in range(n)]
        params = (data.draw(st.sampled_from([3.0, 2.5, 4])), 1.0,
                  data.draw(st.sampled_from([0.0, 0.1, 1e-3, 4.0, -0.0])), plan_hash(plan))
        extra = plan.excluded if strict else ()
        sets, reports = [], []
        for label, mask in zip(labels, occupied):
            occ = frozenset(c for c in plan.interleaved if mask >> (c - CHANNEL_MIN) & 1)
            vacant = plan.interleaved - occ
            sets.append((label, vacant, oracles.filtered_by_sets(vacant, occ, extra)))
            result = AvailabilityResult(NgPoint(1.0, 2.0), params[2], vacant, occ, len(vacant))
            adjacent_filter(result, extra)
            reports.append(build_report(label, result, plan, params[0], params[1]))
        vacant, filtered = vacancy(np.array(occupied, dtype=np.uint64), plan, extra)
        rows = ChannelRows(labels, vacant, filtered, *params)
        csv_text = oracles.report_csv(sets, *params)
        json_text = oracles.report_json(sets, *params)
        assert emit_csv(rows) == csv_text and emit_json(rows) == json_text
        assert emit_csv(reports) == csv_text and emit_json(reports) == json_text
