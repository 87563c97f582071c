"""Calendar arithmetic: timestamp parsing, week periods, ordered insertion."""

from __future__ import annotations

from datetime import datetime, timezone

import pytest
from hypothesis import given, strategies as st

from astd_monitor.calendar_periods import (
    TimestampError,
    compute_minute,
    compute_period,
    count_events,
    insert_period,
    parse_timestamp,
    week_distance,
)

from oracles import period_of, week_serial


def ts(text):
    return parse_timestamp(text)


# --------------------------------------------------------------------------
# Timestamp parsing
# --------------------------------------------------------------------------

def test_parse_timestamp_fields():
    t = ts("2022-06-22T10:15:30Z")
    assert (t.year, t.month, t.day, t.hour, t.minute, t.second) == (2022, 6, 22, 10, 15, 30)


@pytest.mark.parametrize("bad", [
    "2022-06-22 10:15:00Z",       # space separator
    "2022-06-22T10:15:00",        # missing Z
    "2022-06-22T10:15:00+00:00",  # offset instead of Z
    "22-06-2022T10:15:00Z",       # wrong field order
    "2022-06-22T10:15Z",          # missing seconds
    "2022-13-01T00:00:00Z",       # no such month
    "2022-02-30T00:00:00Z",       # no such day
    "2022-06-22T24:00:00Z",       # no such hour
    "",
    "garbage",
])
def test_parse_timestamp_rejects(bad):
    with pytest.raises(TimestampError):
        parse_timestamp(bad)


@given(st.datetimes(min_value=datetime(1970, 1, 1), max_value=datetime(2100, 1, 1)))
def test_parse_render_round_trip(dt):
    dt = dt.replace(microsecond=0, tzinfo=timezone.utc)
    text = dt.strftime("%Y-%m-%dT%H:%M:%SZ")
    assert parse_timestamp(text) == dt


# --------------------------------------------------------------------------
# compute_period / compute_minute
# --------------------------------------------------------------------------

def test_compute_period_examples():
    assert compute_period(ts("2022-06-22T10:15:00Z")) == 202225
    assert compute_period(ts("2022-01-04T00:00:00Z")) == 202201
    assert compute_period(ts("2023-01-01T12:00:00Z")) == 202252


def test_compute_minute_examples():
    assert compute_minute(ts("2022-06-22T00:00:00Z")) == 0
    assert compute_minute(ts("2022-06-22T23:59:59Z")) == 1439
    assert compute_minute(ts("2022-06-22T10:15:30Z")) == 615  # seconds truncated


@given(st.datetimes(min_value=datetime(1970, 1, 4), max_value=datetime(2099, 12, 28)))
def test_period_and_minute_against_oracle(dt):
    dt = dt.replace(microsecond=0)
    text = dt.strftime("%Y-%m-%dT%H:%M:%SZ")
    assert compute_period(parse_timestamp(text)) == period_of(text)
    minute = compute_minute(parse_timestamp(text))
    assert 0 <= minute <= 1439
    assert minute == dt.hour * 60 + dt.minute


# --------------------------------------------------------------------------
# week_distance
# --------------------------------------------------------------------------

def test_week_distance_examples():
    assert week_distance(202221, 202225) == 4
    assert week_distance(202252, 202301) == 1  # across the year boundary
    assert week_distance(202230, 202230) == 0


periods = st.dates(min_value=datetime(1971, 1, 4).date(),
                   max_value=datetime(2099, 12, 28).date()).map(
    lambda d: d.isocalendar()[0] * 100 + d.isocalendar()[1])


@given(periods, periods)
def test_week_distance_antisymmetric(a, b):
    assert week_distance(a, b) == -week_distance(b, a)
    assert week_distance(a, b) == week_serial(b) - week_serial(a)


@given(periods, periods, periods)
def test_week_distance_additive(a, b, c):
    assert week_distance(a, c) == week_distance(a, b) + week_distance(b, c)


# --------------------------------------------------------------------------
# insert_period
# --------------------------------------------------------------------------

def test_insert_period_examples():
    assert insert_period([202225], 202221) == [202225]  # stale, rejected
    assert insert_period([202227, 202228, 202229], 202226) == \
        [202226, 202227, 202228, 202229]
    assert insert_period([], 202230) == [202230]
    assert insert_period([202227, 202229], 202228) == [202227, 202228, 202229]


def test_insert_period_is_pure():
    original = [202227, 202229]
    result = insert_period(original, 202228)
    assert original == [202227, 202229]
    assert result is not original


def test_insert_period_head_within_gap_accepted():
    # distance 3 is not "more than 3"
    assert insert_period([202225], 202222) == [202222, 202225]


def test_insert_period_custom_gap():
    assert insert_period([202225], 202221, max_gap_weeks=4) == [202221, 202225]
    assert insert_period([202225], 202221, max_gap_weeks=3) == [202225]


@given(st.lists(periods, unique=True, max_size=8), periods)
def test_insert_period_properties(existing, p):
    existing = sorted(existing, key=week_serial)
    if p in existing:
        return
    result = insert_period(existing, p)
    # always strictly ascending, never loses elements
    assert [x for x in result if x != p] == existing
    assert all(week_distance(a, b) > 0 for a, b in zip(result, result[1:]))
    rejected = bool(existing) and week_serial(existing[0]) - week_serial(p) > 3
    assert (p not in result) == rejected


# --------------------------------------------------------------------------
# count_events
# --------------------------------------------------------------------------

def test_count_events_examples():
    events = {202225: [1, 2, 3], 202227: [4, 5, 6], 202228: [7, 8, 9, 10]}
    assert count_events(events, [202225, 202227, 202228]) == 10
    assert count_events(events, []) == 0
    assert count_events({202225: [600]}, [202226]) == 0


@given(st.dictionaries(periods, st.lists(st.integers(0, 1439), max_size=5), max_size=6),
       st.lists(periods, unique=True, max_size=6))
def test_count_events_additive_over_disjoint_splits(events, ps):
    half = len(ps) // 2
    left, right = ps[:half], ps[half:]
    assert count_events(events, ps) == \
        count_events(events, left) + count_events(events, right)
