"""Calendar arithmetic: timestamp parsing, week periods, event counts."""

from __future__ import annotations

from datetime import date, datetime, timedelta, timezone

import pytest
from hypothesis import given, strategies as st

from astd_monitor import calendar_periods
from astd_monitor.calendar_periods import (
    DAY_CACHE_SIZE,
    TimestampError,
    count_events,
    parse_timestamp,
    period_start,
    week_distance,
)

from oracles import datetime_timestamp, minute_of, period_of, week_serial


def ts(text):
    return parse_timestamp(text)


# --------------------------------------------------------------------------
# Timestamp parsing
# --------------------------------------------------------------------------

def test_parse_timestamp_fields():
    assert ts("2022-06-22T10:15:30Z") == (202225, 615)


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


# Each case is judged by the former datetime parser, not restated here.
CALENDAR_EDGES = [
    "2024-02-29T12:00:00Z",   # Feb 29, leap year
    "2000-02-29T12:00:00Z",   # Feb 29, leap century
    "2023-02-29T12:00:00Z",   # Feb 29, common year
    "1900-02-29T12:00:00Z",   # Feb 29, common century
    "2024-02-30T12:00:00Z",   # Feb 30
    "2022-04-31T12:00:00Z",   # Apr 31
    "2022-00-10T12:00:00Z",   # month 00
    "2022-13-10T12:00:00Z",   # month 13
    "2022-06-00T12:00:00Z",   # day 00
    "0000-06-10T12:00:00Z",   # year 0000
    "0001-01-01T00:00:00Z",   # the first valid day
    "9999-12-31T23:59:59Z",   # the last valid second
    "2022-06-22T24:00:00Z",   # hour 24
    "2022-06-22T23:60:00Z",   # minute 60
    "2022-06-22T23:59:60Z",   # second 60 (no leap seconds)
    "2022-06-22T99:99:99Z",
    "２０２２-０６-２２T１０:１５:００Z",  # fullwidth digits
    "٢٠٢٢-٠٦-٢٢T١٠:١٥:٠٠Z",             # Arabic-Indic digits
    "２０２３-０２-２９T１０:１５:００Z",  # fullwidth, no such day
    "2022-06-22T２４:00:00Z",             # fullwidth, no such hour
    "2020-12-31T08:00:00Z",   # ISO 2020-W53
    "2021-01-03T08:00:00Z",   # ISO 2020-W53, next calendar year
    "2021-01-04T08:00:00Z",   # ISO 2021-W01
    "2026-12-31T08:00:00Z",   # ISO 2026-W53
    "2027-01-03T08:00:00Z",   # ISO 2026-W53, next calendar year
    "2024-12-30T08:00:00Z",   # ISO 2025-W01, previous calendar year
]

# Strings that may or may not be timestamps: every field drawn across and
# beyond its range, the digits optionally swapped for another script's, and
# optionally one character inserted, deleted or replaced.
_SCRIPTS = st.sampled_from([
    "0123456789",
    "\uff10\uff11\uff12\uff13\uff14\uff15\uff16\uff17\uff18\uff19",  # fullwidth
    "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669",  # Arabic-Indic
])


@st.composite
def timestamp_like(draw):
    fields = (draw(st.integers(0, 9999)), draw(st.integers(0, 14)),
              draw(st.integers(0, 32)), draw(st.integers(0, 25)),
              draw(st.integers(0, 61)), draw(st.integers(0, 61)))
    text = "{:04d}-{:02d}-{:02d}T{:02d}:{:02d}:{:02d}Z".format(*fields)
    if draw(st.booleans()):
        text = text.translate(str.maketrans("0123456789", draw(_SCRIPTS)))
    edit = draw(st.sampled_from(["none", "none", "insert", "delete", "replace"]))
    if edit != "none":
        at = draw(st.integers(0, len(text) - 1))
        char = draw(st.sampled_from("0 9-:TZz+.\uff15\u0665\u00b2"))
        text = (text[:at] + char + text[at:] if edit == "insert"
                else text[:at] + text[at + 1:] if edit == "delete"
                else text[:at] + char + text[at + 1:])
    return text


def _assert_classified_like_datetime(text):
    # The former parser also took other scripts' digits; the README's form
    # has ASCII digits only.
    reference = datetime_timestamp(text)
    if reference is None or not text.isascii():
        with pytest.raises(TimestampError):
            parse_timestamp(text)
        return
    iso_year, iso_week, _ = reference.isocalendar()
    expected = (iso_year * 100 + iso_week, reference.hour * 60 + reference.minute)
    assert parse_timestamp(text) == expected
    assert expected == (period_of(text), minute_of(text))


@pytest.mark.parametrize("text", CALENDAR_EDGES)
def test_parse_timestamp_classifies_calendar_edges_like_datetime(text):
    _assert_classified_like_datetime(text)


@given(st.one_of(timestamp_like(), st.text(max_size=24)))
def test_parse_timestamp_accepts_exactly_what_datetime_accepted(text):
    _assert_classified_like_datetime(text)


def test_a_rejected_day_is_never_cached(monkeypatch):
    monkeypatch.setattr(calendar_periods, "_week_of_day", {})
    for bad in ("2023-02-29T10:00:00Z", "2022-13-01T10:00:00Z", "0000-01-01T10:00:00Z"):
        with pytest.raises(TimestampError):
            parse_timestamp(bad)
        with pytest.raises(TimestampError):  # and again, from the same state
            parse_timestamp(bad)
    assert calendar_periods._week_of_day == {}
    with pytest.raises(TimestampError):  # a valid day with a bad time
        parse_timestamp("2022-06-22T24:00:00Z")
    assert calendar_periods._week_of_day == {"2022-06-22": 202225}


def test_the_day_cache_stays_bounded_and_clearing_keeps_answers(monkeypatch):
    monkeypatch.setattr(calendar_periods, "_week_of_day", {})
    texts = [f"{date(2000, 1, 1) + timedelta(days=i)}T{i % 24:02d}:{i % 60:02d}:07Z"
             for i in range(DAY_CACHE_SIZE + 100)]
    before = []
    for text in texts:
        before.append(parse_timestamp(text))
        assert len(calendar_periods._week_of_day) <= DAY_CACHE_SIZE
    # The cache was cleared once, so the first days are answered afresh.
    assert "2000-01-01" not in calendar_periods._week_of_day
    assert [parse_timestamp(text) for text in texts] == before
    assert before == [(period_of(t), minute_of(t)) for t in texts]


@given(st.datetimes(min_value=datetime(1970, 1, 1), max_value=datetime(2100, 1, 1)))
def test_parse_render_round_trip(dt):
    dt = dt.replace(microsecond=0, tzinfo=timezone.utc)
    text = dt.strftime("%Y-%m-%dT%H:%M:%SZ")
    period, minute = parse_timestamp(text)
    # The parsed week holds the rendered day, and the minute its clock time.
    assert 0 <= (dt.date() - period_start(period)).days < 7
    assert divmod(minute, 60) == (dt.hour, dt.minute)


# --------------------------------------------------------------------------
# The (period, minute) pair
# --------------------------------------------------------------------------

def test_compute_period_examples():
    assert ts("2022-06-22T10:15:00Z")[0] == 202225
    assert ts("2022-01-04T00:00:00Z")[0] == 202201
    assert ts("2023-01-01T12:00:00Z")[0] == 202252


def test_compute_minute_examples():
    assert ts("2022-06-22T00:00:00Z")[1] == 0
    assert ts("2022-06-22T23:59:59Z")[1] == 1439
    assert ts("2022-06-22T10:15:30Z")[1] == 615  # seconds truncated


@given(st.datetimes(min_value=datetime(1970, 1, 4), max_value=datetime(2099, 12, 28)))
def test_period_and_minute_against_oracle(dt):
    dt = dt.replace(microsecond=0)
    text = dt.strftime("%Y-%m-%dT%H:%M:%SZ")
    period, minute = parse_timestamp(text)
    assert period == period_of(text)
    assert 0 <= minute <= 1439
    assert minute == dt.hour * 60 + dt.minute == minute_of(text)


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
# count_events
# --------------------------------------------------------------------------

def test_count_events_examples():
    events = {202225: [1, 2, 3], 202227: [4, 5, 6], 202228: [7, 8, 9, 10]}
    assert count_events(events, [202225, 202227, 202228]) == 10
    assert count_events(events, []) == 0


@given(st.dictionaries(periods, st.lists(st.integers(0, 1439), max_size=5), max_size=6),
       st.data())
def test_count_events_additive_over_disjoint_splits(events, data):
    ps = data.draw(st.lists(st.sampled_from(sorted(events)), unique=True)) if events else []
    half = len(ps) // 2
    left, right = ps[:half], ps[half:]
    assert count_events(events, ps) == \
        count_events(events, left) + count_events(events, right)
