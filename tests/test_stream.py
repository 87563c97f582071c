"""Ingestion, run statistics, and state snapshots."""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import io
import json
import math
import sys
from collections import Counter
from datetime import date, datetime, timedelta

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from astd_monitor import calendar_periods
from astd_monitor.calendar_periods import parse_timestamp
from astd_monitor.detector import (
    AlertRecord,
    ConfigError,
    DetectorConfig,
    EntityState,
    MonitorEngine,
)
from astd_monitor.kde import fit_profile, select_bandwidth
from astd_monitor.stream import (
    MalformedRecord,
    ParsedEvent,
    RestoreError,
    alert_to_json,
    dump_state,
    parse_record,
    restore_state,
    run_monitor,
)
from astd_monitor.trace import TRACE_EVENTS, TRACE_USER

from oracles import (
    InterpretedMonitor,
    WindowOracle,
    alert_to_json_reference,
    parse_record_reference,
    parse_timestamp_reference,
)

CONFIG = DetectorConfig(n=3, k=10, threshold=0.001)


def trace_lines(events=TRACE_EVENTS, user=TRACE_USER):
    return [json.dumps({"Id": e, "CreationTime": t, "UserId": user}) + "\n"
            for e, t in events]


# --------------------------------------------------------------------------
# parse_record
# --------------------------------------------------------------------------

def test_parse_record_accepts_a_valid_line():
    record = parse_record('{"ID":"e1","CreationTime":"2022-06-22T10:15:00Z","UserId":"u1"}')
    assert isinstance(record, ParsedEvent)
    assert record.event_id == "e1"
    assert record.user_id == "u1"
    assert (record.period, record.minute) == (202225, 615)
    assert record == ("e1", "u1", 202225, 615)


def test_parse_record_accepts_both_id_spellings():
    assert parse_record('{"Id":"a","CreationTime":"2022-06-22T10:15:00Z","UserId":"u"}').event_id == "a"
    assert parse_record('{"ID":"b","CreationTime":"2022-06-22T10:15:00Z","UserId":"u"}').event_id == "b"


MALFORMED_LINES = [
    ('{"ID":"e2","UserId":"u1"}', "missing CreationTime"),
    ('{"ID":"e3","CreationTime":"2022-06-22 10:15","UserId":"u1"}', "bad timestamp"),
    ('{"CreationTime":"2022-06-22T10:15:00Z","UserId":"u1"}', "missing Id"),
    ('{"ID":"e4","CreationTime":"2022-06-22T10:15:00Z"}', "missing UserId"),
    ('{"ID":"e5","CreationTime":"2022-06-22T10:15:00Z","UserId":""}', "bad UserId"),
    ('{"ID":"","CreationTime":"2022-06-22T10:15:00Z","UserId":"u1"}', "bad Id"),
    ('{"ID":"e6","CreationTime":17,"UserId":"u1"}', "bad timestamp"),
    ('nonsense', "bad JSON"),
    ('[1,2,3]', "not a JSON object"),
]


@pytest.mark.parametrize("line,reason", MALFORMED_LINES)
def test_parse_record_flags_malformed_lines(line, reason):
    record = parse_record(line)
    assert isinstance(record, MalformedRecord)
    assert record.reason == reason


def test_extra_fields_are_ignored():
    record = parse_record('{"Id":"e1","CreationTime":"2022-06-22T10:15:00Z",'
                          '"UserId":"u1","Operation":"FileAccessed","Workload":"x"}')
    assert isinstance(record, ParsedEvent)


# Lines the JSON decoder refuses with RecursionError and ValueError rather
# than JSONDecodeError. The recursion limit depends on the stack depth the
# decoder starts at, so the nesting is far beyond it, never near it.
GOOD_LINE = '{"Id":"e1","CreationTime":"2022-06-22T10:15:00Z","UserId":"u1"}'
DEEP_LINE = "[" * 100_000 + "]" * 100_000
BIG_INT_LINE = GOOD_LINE[:-1] + ',"Size":' + "9" * 5000 + "}"  # an ignored field


@pytest.mark.parametrize("line", [DEEP_LINE, BIG_INT_LINE], ids=["deep", "big-int"])
def test_parse_record_counts_a_line_the_decoder_refuses_as_bad_json(line):
    assert parse_record(line) == MalformedRecord("bad JSON")


def test_lines_the_decoder_refuses_never_end_a_run():
    lines = [DEEP_LINE + "\n", GOOD_LINE + "\n", BIG_INT_LINE + "\n",
             GOOD_LINE.replace("e1", "e2") + "\n"]
    stats, engines = run_monitor(lines, CONFIG, None)
    assert (stats.events_read, stats.events_malformed, stats.events_processed) == (4, 2, 2)
    assert stats.malformed_by_reason == {"bad JSON": 2}
    assert engines[0].entity_state("u1").events_by_week == {202225: [615, 615]}


# The referee of the scanner and table paths: lines whose every part is drawn
# from what each path must refuse or tell apart, judged by json.loads and the
# regex path alone.
_DAYS = ["2022-06-22", "2021-01-03"]
_TIMESTAMP_TEXTS = st.one_of(
    st.builds("{}T{:02d}:{:02d}:{:02d}Z".format, st.sampled_from(_DAYS + ["2022-06-23"]),
              st.integers(0, 24), st.integers(0, 60), st.integers(0, 60)),
    st.sampled_from([
        "２０２２-０６-２２T１０:１５:００Z",  # fullwidth digits
        "2022-06-22T10:15:٠٠Z",              # Arabic-Indic seconds
        "2022-02-30T10:15:00Z", "2022-06-22t10:15:00Z", "2022-06-22T10:15:00z",
        "2022-06-22T10:15-00Z", "2022-06-22T10:15:00", " 2022-06-22T10:15:00Z",
    ]))
_VALUES = st.one_of(
    _TIMESTAMP_TEXTS.map(json.dumps),
    st.sampled_from(['"e1"', '"u1"', '""', "null", "17", "1.5", "true", "[]", "{}",
                     "NaN", "Infinity", "-Infinity", "1e999", "9" * 4301,
                     r'"\u00e9"', r'"\ud800"', "[" * 3000 + "]" * 3000]))
_MEMBERS = st.lists(st.tuples(st.sampled_from(["Id", "ID", "CreationTime", "UserId", "x"]),
                              _VALUES), max_size=6)


@st.composite
def record_lines(draw):
    members = draw(_MEMBERS)
    value = "{" + ",".join(f"{json.dumps(key)}:{text}" for key, text in members) + "}"
    depth = draw(st.sampled_from([0, 0, 0, 1, 2, 3000]))
    value = draw(st.sampled_from([value, value, value, "[" * depth + value + "]" * depth,
                                  '"text"', "NaN", "nonsense", ""]))
    space = st.text(" \t\r\n\xa0\u2003\u3000\x0b\x0c\x1c\u2028\ufeff", max_size=3)
    return (draw(st.sampled_from(["", "", "\ufeff"])) + draw(space) + value + draw(space)
            + draw(st.sampled_from(["", "", "", "x", "}", "{}", "1", ",", "\n{}"])))


@given(line=record_lines(), seeded=st.sets(st.sampled_from(_DAYS), min_size=1, max_size=2))
def test_parse_record_answers_as_json_loads_and_the_regex_path(line, seeded):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(calendar_periods, "_week_of_day",
                      {day: parse_timestamp_reference(day + "T00:00:00Z")[0] for day in seeded})
        expected = parse_record_reference(line)
        assert parse_record(line) == expected
        assert parse_record(line) == expected  # from the day the first may have cached


# --------------------------------------------------------------------------
# run_monitor
# --------------------------------------------------------------------------

def test_run_monitor_over_the_reference_trace():
    alerts = []
    stats, engines = run_monitor(trace_lines(), CONFIG, alerts.append)
    assert stats.events_read == 14
    assert stats.events_malformed == 0
    assert stats.events_processed == 14
    assert stats.users_seen == 1
    assert stats.profiles_computed >= 1
    assert stats.alerts_emitted == 1
    assert [a.event_id for a in alerts] == ["e13"]
    assert engines[0].entity_state(TRACE_USER) is not None


def test_run_monitor_empty_input():
    stats, _ = run_monitor([], CONFIG, None)
    assert (stats.events_read, stats.events_malformed, stats.events_processed,
            stats.users_seen, stats.alerts_emitted) == (0, 0, 0, 0, 0)


def test_blank_lines_are_skipped_not_counted():
    lines = ["\n", "   \n"] + trace_lines()[:1] + ["\n"]
    stats, _ = run_monitor(lines, CONFIG, None)
    assert stats.events_read == 1
    assert stats.events_malformed == 0


@pytest.mark.parametrize("space", ["\xa0", "\u2028", "\x0b", "\x0c", "\x1c"])
def test_a_line_of_non_json_whitespace_is_bad_json(space):
    stats, _ = run_monitor([space + "\n", " \n"], CONFIG, None)
    assert (stats.events_read, stats.events_malformed) == (1, 1)
    assert stats.malformed_by_reason == {"bad JSON": 1}


def test_malformed_lines_never_touch_engine_state():
    lines = ['busted\n', '{"Id":"x","UserId":"u9"}\n']
    stats, engines = run_monitor(lines, CONFIG, None)
    assert stats.events_malformed == 2
    assert stats.events_processed == 0
    assert engines[0].users_seen == 0


def test_runs_are_deterministic_byte_for_byte():
    def run_once():
        out = io.StringIO()
        run_monitor(trace_lines(), CONFIG,
                    lambda a: out.write(alert_to_json(a) + "\n"))
        return out.getvalue()
    assert run_once() == run_once()


@pytest.mark.parametrize("workers", [1])  # the only value run_monitor accepts
def test_malformed_lines_are_counted_by_reason(workers):
    lines = [line + "\n" for line, _ in MALFORMED_LINES] + trace_lines()
    stats, _ = run_monitor(lines, CONFIG, None, workers=workers)
    expected = Counter(reason for _, reason in MALFORMED_LINES)
    assert len(expected) == 8
    assert stats.malformed_by_reason == dict(expected)
    assert stats.to_dict()["malformed_by_reason"] == dict(expected)
    assert sum(stats.malformed_by_reason.values()) == stats.events_malformed


@pytest.mark.parametrize("workers", [0, 2])
def test_run_monitor_accepts_only_one_worker(workers):
    with pytest.raises(ConfigError, match="workers must be 1"):
        run_monitor(trace_lines(), CONFIG, None, workers=workers)


def test_run_monitor_returns_its_one_engine_for_dump_state():
    stats, engines = run_monitor(trace_lines(), CONFIG, None, workers=1)
    assert len(engines) == 1
    assert engines[0].users_seen == stats.users_seen == 1
    assert dump_state(engines) == dump_state(engines[0])
    with pytest.raises(ValueError, match="needs one engine, got 2"):
        dump_state(engines + [MonitorEngine(CONFIG)])
    with pytest.raises(ValueError, match="needs one engine, got 0"):
        dump_state([])


def test_run_monitor_refuses_an_unreachable_initial_user_before_reading_a_line():
    # Accumulated weeks behind a one-week window: restore refuses this state,
    # and adoption through initial_users must too.
    state = EntityState(events_by_week={202225: [540], 202229: [600]},
                        used_periods=[202225], accumulated_periods=[202229],
                        profile=None, alerts=[])

    def source():
        raise AssertionError("a line was read")
        yield

    with pytest.raises(ValueError, match="accumulated weeks behind a window short of "
                                         "n = 3 weeks or k = 10 events"):
        run_monitor(source(), CONFIG, None, initial_users={"u": state})


def test_stats_invariant_processed_equals_read_minus_malformed():
    lines = trace_lines() + ["garbage\n", '{"Id":"y"}\n']
    stats, _ = run_monitor(lines, CONFIG, None)
    assert stats.events_processed == stats.events_read - stats.events_malformed
    assert stats.wall_time_s > 0


def test_resident_memory_is_measurable():
    stats, _ = run_monitor(trace_lines(), CONFIG, None)
    assert stats.peak_rss_bytes > 0  # the process's peak, not a sample of it


def test_alert_json_has_exactly_the_record_fields():
    alerts = []
    run_monitor(trace_lines(), CONFIG, alerts.append)
    obj = json.loads(alert_to_json(alerts[0]))
    assert set(obj) == {"event_id", "user_id", "period", "minute",
                        "density", "threshold"}
    assert obj["event_id"] == "e13"
    assert obj["density"] <= obj["threshold"]


# Characters JSON must escape or that only \u escapes write in ASCII: a quote,
# a backslash, control characters, the JS line separators, a non-BMP character
# (a surrogate pair) and lone surrogates.
_ID_CHARS = ('"', "\\", "\x00", "\n", "\x1f", "\x7f", "\u2028", "\u2029", "\xe9",
             "\U0001f600", "\ud800", "\udfff", "a", "0")
_ids = st.text(st.one_of(st.sampled_from(_ID_CHARS), st.characters(exclude_categories=())))
_floats = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from([-0.0, 5e-324, sys.float_info.min, sys.float_info.max,
                                     -sys.float_info.max]))
# Week and minute ints of any size, also of over 4,300 digits, which neither
# writer may turn into a string.
_ints = st.one_of(st.integers(), st.sampled_from([10**400, 10**4301, -(10**5000)]))


@st.composite
def alert_records(draw):
    """AlertRecords of every kind the constructor admits: ids of any text, ints
    of any size, finite float densities and thresholds (an int one too)."""
    density, threshold = draw(_floats), draw(st.one_of(_floats, st.integers()))
    if type(threshold) is float and density > threshold:
        density, threshold = threshold, density
    try:
        return AlertRecord(draw(_ids), draw(_ids), draw(_ints), draw(_ints), density, threshold)
    except ValueError:  # an int threshold below the density
        assume(False)


@dataclasses.dataclass(frozen=True)
class _NotedAlert(AlertRecord):
    note: str = "a field past the six"


def _written(encode, alert):
    try:
        return encode(alert)
    except Exception as exc:  # then the other side must raise the same type
        return type(exc)


@given(alert=alert_records())
@example(alert=AlertRecord("e13", "u1", 202225, 0, 6.1e-310, 0.001))
@example(alert=AlertRecord("\ud800\U0001f600\u2028\"\\", "\x00", 202225, 1439, -0.0, 1))
@example(alert=AlertRecord("e1", "u1", 10**5000, 0, 0.0, 1.0))
def test_alert_to_json_writes_what_json_dumps_writes(alert):
    assert _written(alert_to_json, alert) == _written(alert_to_json_reference, alert)


# What the alert line cannot write as JSON, each once: NaN and +-inf (which
# json.dumps writes as NaN and Infinity), an int threshold beyond a float, and
# values of other types (bool, np.float64, None, an int density).
@pytest.mark.parametrize("fields, error", [
    (("e", "u", 1, 2, math.nan, 0.5), ValueError),
    (("e", "u", 1, 2, 0.1, math.nan), ValueError),
    (("e", "u", 1, 2, -math.inf, 0.5), ValueError),
    (("e", "u", 1, 2, 0.1, math.inf), ValueError),
    (("e", "u", 1, 2, -math.inf, math.inf), ValueError),
    (("e", "u", 1, 2, 0.1, 10**400), ValueError),
    (("e", "u", True, 2, 0.1, 0.5), TypeError),
    (("e", "u", 1, False, 0.1, 0.5), TypeError),
    (("e", "u", 1, 2, 0.1, True), TypeError),
    (("e", "u", 1, 2, np.float64(0.1), 0.5), TypeError),
    (("e", "u", 1, 2, 0.1, np.float64(0.5)), TypeError),
    (("e", "u", 1, 2, np.float64(math.nan), 0.5), TypeError),
    ((None, "u", 1, 2, 0.1, 0.5), TypeError),
    (("e", None, 1, 2, 0.1, 0.5), TypeError),
    (("e", "u", None, 2, 0.1, 0.5), TypeError),
    (("e", "u", 1, 2, 0, 1), TypeError),
])
def test_alert_record_refuses_what_the_alert_line_cannot_write(fields, error):
    with pytest.raises(error):
        AlertRecord(*fields)


def test_alert_record_refuses_a_subclass():
    with pytest.raises(TypeError, match="_NotedAlert"):
        _NotedAlert("e1", "u1", 202225, 0, 0.0, 1.0)


# --------------------------------------------------------------------------
# Snapshots
# --------------------------------------------------------------------------

def test_dump_fresh_engine_has_zero_users():
    doc = dump_state(MonitorEngine(CONFIG))
    assert doc["schema"] == "astd-monitor/state/4"
    assert doc["users"] == {}


def test_snapshot_text_round_trip_is_identity():
    _, engines = run_monitor(trace_lines(), CONFIG, None)
    doc = dump_state(engines[0])
    text = json.dumps(doc)
    restored = restore_state(text)
    assert json.dumps(dump_state(restored)) == text


def test_restore_then_finish_matches_uninterrupted_run():
    lines = trace_lines()
    _, engines = run_monitor(lines[:8], CONFIG, None)
    restored = restore_state(json.dumps(dump_state(engines[0])))
    resumed_alerts = []
    stats, resumed = run_monitor(lines[8:], restored.config, resumed_alerts.append,
                                 initial_users=restored.export_users())
    straight_alerts = []
    _, straight = run_monitor(lines, CONFIG, straight_alerts.append)
    a = resumed[0].entity_state(TRACE_USER)
    b = straight[0].entity_state(TRACE_USER)
    assert a.used_periods == b.used_periods
    assert a.events_by_week == b.events_by_week
    assert a.alerts == b.alerts
    assert np.array_equal(a.profile.densities, b.profile.densities)
    assert [x.event_id for x in resumed_alerts] == ["e13"]


def test_restore_rejects_truncated_document():
    _, engines = run_monitor(trace_lines(), CONFIG, None)
    text = json.dumps(dump_state(engines[0]))
    with pytest.raises(RestoreError, match="invalid JSON"):
        restore_state(text[: len(text) // 2])


@pytest.mark.parametrize("text", [DEEP_LINE, BIG_INT_LINE], ids=["deep", "big-int"])
def test_restore_refuses_text_the_decoder_refuses(text):
    with pytest.raises(RestoreError, match="^invalid JSON: "):
        restore_state(text)


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("call", ["restore", "restore-corrupt", "export", "export-mid-step",
                                  "readopt", "readopt-unreachable"])
def test_checkpoint_calls_leave_the_collector_as_they_found_it(call, enabled):
    text = json.dumps(dump_state(run_monitor(trace_lines(), CONFIG, None)[1]))
    restored = restore_state(text)
    mid_step = restore_state(text)
    mid_step.attributes()[TRACE_USER]["start_kde"] = True
    unreachable = EntityState(events_by_week={202225: [540], 202229: [600]},
                              used_periods=[202225], accumulated_periods=[202229],
                              profile=None, alerts=[])
    calls = {
        "restore": (lambda: restore_state(text), None),
        "restore-corrupt": (lambda: restore_state(text.replace("540", "1440")), RestoreError),
        "export": (restored.export_users, None),
        "export-mid-step": (mid_step.export_users, ValueError),
        "readopt": (lambda: run_monitor([], CONFIG, None,
                                        initial_users=restored.export_users()), None),
        "readopt-unreachable": (lambda: run_monitor([], CONFIG, None,
                                                    initial_users={"u": unreachable}),
                                ValueError),
    }
    function, error = calls[call]
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if error is None:
            function()
        else:
            with pytest.raises(error):
                function()
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_restore_runs_no_cyclic_collection():
    # Each user's weeks, lists and dicts, from the parsed JSON through the
    # adopted copies, would set off dozens of young collections.
    user = {"weeks": {"202225": [540, 570, 600], "202227": [555, 585]}, "used": 2,
            "alerts": ["e1"], "profile": None}
    text = json.dumps({"schema": "astd-monitor/state/4", "config": CONFIG.to_dict(),
                       "users": {f"u{i}": user for i in range(2500)}})
    body = getattr(restore_state, "__wrapped__", restore_state).__code__
    inside, after = [], []

    def count(phase, info):
        if phase == "start":
            frame = sys._getframe(1)
            while frame is not None and frame.f_code is not body:
                frame = frame.f_back
            (after if frame is None else inside).append(info["generation"])

    was = gc.isenabled()
    gc.enable()
    gc.callbacks.append(count)
    try:
        assert restore_state(text).users_seen == 2500
    finally:
        gc.callbacks.remove(count)
        (gc.enable if was else gc.disable)()
    assert inside == []
    # What the pause built is scanned once, by the first collection after it.
    assert len(after) <= 1


def _user(d):
    return d["users"][TRACE_USER]


def _reorder_weeks(d, order):
    weeks = _user(d)["weeks"]
    _user(d)["weeks"] = {p: weeks[p] for p in order}


def _fixed_bandwidth(value):
    return lambda d: d["config"].update(bandwidth_method="fixed", bandwidth_value=value)


def _profile(d, **fields):
    _user(d)["profile"].update(fields)


def _set_count(index, value):
    return lambda d: _user(d)["profile"]["counts"].__setitem__(index, value)


PROFILE_KEYS = ("profile: expected null or an object with exactly the keys 'dropped' "
                "and 'counts'")


# The reference trace ends with weeks 202226..202229, all of them used, and a
# profile that read the three minutes of the week 202225 that left the window
# since, then 3 of 202227's minutes and 4 of 202228's: counts [0, 3, 4, 0].
# A mutation that changes the weeks drops the profile, whose counts would
# otherwise be refused first.
@pytest.mark.parametrize("mutate,location", [
    (lambda d: d.update(schema="other/2"), "schema"),
    (lambda d: d.update(config={"n": 0, "k": 1, "threshold": 1.0}), "config"),
    (lambda d: d["users"].update(bad="not an object"), "users\\['bad'\\]"),
    # The state/2 keys are unknown to a state/4 user object.
    (lambda d: _user(d).update(used_periods=[202226]), "used_periods"),
    (lambda d: _user(d).update(start_kde=False), "start_kde"),
    (lambda d: _user(d)["weeks"].update({"xyz": [1]}), "bad period key"),
    (lambda d: (_reorder_weeks(d, ["202228", "202226", "202227", "202229"]),
                _user(d).update(profile=None)), "ascending"),
    pytest.param(lambda d: _profile(d, dropped=[], counts=[0, 0, 0, 0]),
                 "profile: empty sample", id="sample-empty"),
    pytest.param(lambda d: _profile(d, dropped=[600, "x"]), "profile.dropped",
                 id="sample-string"),
    pytest.param(lambda d: _profile(d, dropped=[600, 1440]), "profile.dropped",
                 id="sample-1440"),
    pytest.param(lambda d: _profile(d, dropped=[-1, 600]), "profile.dropped",
                 id="sample-negative"),
    pytest.param(lambda d: _profile(d, dropped=[600, True]), "profile.dropped",
                 id="sample-bool"),
    pytest.param(lambda d: _user(d).update(profile={"bandwidth": 5.0}),
                 PROFILE_KEYS, id="sample-missing"),
    pytest.param(lambda d: _profile(d, bandwidth=5.0), PROFILE_KEYS,
                 id="profile-unknown-key"),
    # A state/3 profile, the sample itself.
    pytest.param(lambda d: _user(d).update(profile=[540, 570, 600]), PROFILE_KEYS,
                 id="profile-a-sample"),
    pytest.param(lambda d: _user(d)["profile"].pop("counts"), PROFILE_KEYS,
                 id="profile-counts-missing"),
    pytest.param(lambda d: _profile(d, dropped={}), "profile.dropped: expected a list",
                 id="dropped-not-a-list"),
    pytest.param(lambda d: _profile(d, counts=[0, 3, 4]),
                 "profile.counts: expected a list of 4 counts, one per used week",
                 id="counts-too-short"),
    pytest.param(lambda d: _profile(d, counts=[0, 3, 4, 0, 0]),
                 "profile.counts: expected a list of 4 counts", id="counts-too-long"),
    pytest.param(lambda d: _profile(d, counts=None), "profile.counts: expected a list",
                 id="counts-null"),
    pytest.param(_set_count(1, -1), "profile.counts\\[1\\]: expected an integer in "
                 "\\[0, 3\\], got -1", id="counts-negative"),
    pytest.param(_set_count(2, 5), "profile.counts\\[2\\]: expected an integer in "
                 "\\[0, 4\\], got 5", id="counts-past-the-week"),
    pytest.param(_set_count(0, True), "profile.counts\\[0\\]", id="counts-bool"),
    pytest.param(_set_count(1, 3.0), "profile.counts\\[1\\]", id="counts-float"),
    # The bandwidth is the config's, or recomputed: no snapshot field holds it.
    pytest.param(_fixed_bandwidth(0.0), "config: fixed bandwidth", id="bandwidth-zero"),
    pytest.param(_fixed_bandwidth(-2.5), "config: fixed bandwidth", id="bandwidth-negative"),
    pytest.param(_fixed_bandwidth(10**400), "config: fixed bandwidth",
                 id="bandwidth-huge-int"),
    pytest.param(_fixed_bandwidth(True), "config: fixed bandwidth", id="bandwidth-bool"),
    pytest.param(_fixed_bandwidth(float("inf")), "config: fixed bandwidth",
                 id="bandwidth-inf"),
    # (1439 / h) ** 2 overflows: the kernel and the score would too.
    pytest.param(_fixed_bandwidth(1e-160), "config: fixed bandwidth", id="bandwidth-1e-160"),
    pytest.param(_fixed_bandwidth(1e-320), "config: fixed bandwidth",
                 id="bandwidth-subnormal"),
    pytest.param(lambda d: _user(d)["weeks"].update({"202226": [True]}),
                 "users\\['u1'\\]: minute True in week 202226", id="minute-bool"),
    # A minute the profile reads: checked before the fit, which would raise
    # TypeError on null (and read 3.5 as 3).
    pytest.param(lambda d: _user(d)["weeks"]["202227"].__setitem__(0, None),
                 "users\\['u1'\\]: minute None in week 202227 is not an integer",
                 id="counted-minute-null"),
    pytest.param(lambda d: _user(d).update(used=True), "used: expected an integer",
                 id="used_periods-bool"),
    pytest.param(lambda d: _user(d)["weeks"].update({"true": [1]}),
                 "bad period key 'true'", id="accumulated_periods-bool"),
    pytest.param(lambda d: _user(d).update(weeks={"202299": [600]}, used=1, profile=None),
                 "used_periods: 202299 is not an ISO week", id="used-week-99"),
    pytest.param(lambda d: _user(d).update(weeks={"202226": [600], "202299": [600]}, used=1,
                                           profile=None),
                 "accumulated_periods: 202299 is not an ISO week", id="accumulated-week-99"),
    pytest.param(lambda d: _user(d)["weeks"].update({"202153": [1]}),
                 "accumulated_periods: 202153 is not an ISO week", id="events-week-53"),
    pytest.param(lambda d: _user(d)["weeks"].update({"2022_25": [1]}),
                 "bad period key '2022_25'", id="events-key-not-canonical"),
    pytest.param(lambda d: _user(d).pop("profile"), "missing key 'profile'",
                 id="profile-missing"),
    pytest.param(lambda d: _user(d).update(bandwidth=5.0), "unknown key 'bandwidth'",
                 id="unknown-key"),
    pytest.param(lambda d: _user(d).pop("used"), "missing key 'used'", id="used-missing"),
    pytest.param(lambda d: _user(d).update(used=0), "used: expected an integer in \\[1, 4\\]",
                 id="used-zero"),
    pytest.param(lambda d: _user(d).update(used=5), "used: expected an integer in \\[1, 4\\]",
                 id="used-past-the-weeks"),
    pytest.param(lambda d: _user(d).update(used=-1), "used: expected an integer",
                 id="used-negative"),
    pytest.param(lambda d: _user(d)["weeks"].update({"202229": []}),
                 "week 202229 holds no minutes", id="week-empty"),
    pytest.param(lambda d: _user(d)["weeks"].update({"202225": [600]}),
                 "accumulated period 202225 does not follow", id="weeks-out-of-order"),
    # Accumulated weeks behind a window that add_event would still fill.
    pytest.param(lambda d: _user(d).update(weeks={"202225": [540], "202229": [600]}, used=1,
                                           profile=None),
                 "users\\['u1'\\]: accumulated weeks behind a window short of n = 3 weeks "
                 "or k = 10 events \\(weeks: 1, events: 1\\)", id="accumulated-before-n-weeks"),
    pytest.param(lambda d: _user(d).update(weeks={"202225": [540], "202226": [540],
                                                  "202227": [540], "202229": [600]}, used=3,
                                           profile=None),
                 "users\\['u1'\\]: accumulated weeks behind a window short of n = 3 weeks "
                 "or k = 10 events \\(weeks: 3, events: 3\\)", id="accumulated-before-k-events"),
])
def test_restore_names_the_corrupt_location(mutate, location):
    _, engines = run_monitor(trace_lines(), CONFIG, None)
    doc = json.loads(json.dumps(dump_state(engines[0])))
    mutate(doc)
    with pytest.raises(RestoreError, match=location):
        restore_state(json.dumps(doc))


@pytest.mark.parametrize("threshold", [math.inf, math.nan])
def test_restore_refuses_a_non_finite_threshold_naming_config(threshold):
    _, engines = run_monitor(trace_lines(), CONFIG, None)
    doc = dump_state(engines[0])
    doc["config"]["threshold"] = threshold
    text = json.dumps(doc)  # writes Infinity or NaN, which json.loads reads back
    assert f'"threshold": {json.dumps(threshold)}' in text
    with pytest.raises(RestoreError, match="^config: threshold must be finite"):
        restore_state(text)


def test_restore_rejects_a_state_1_snapshot_naming_both_schemas():
    _, engines = run_monitor(trace_lines(), CONFIG, None)
    doc = dump_state(engines[0])
    doc["schema"] = "astd-monitor/state/1"
    with pytest.raises(RestoreError) as info:
        restore_state(json.dumps(doc))
    message = str(info.value)
    assert "'astd-monitor/state/1'" in message
    assert "'astd-monitor/state/4'" in message
    assert "regenerate the snapshot" in message


def test_restore_rejects_a_state_2_snapshot_naming_both_schemas():
    doc = {"schema": "astd-monitor/state/2", "config": CONFIG.to_dict(),
           "users": {TRACE_USER: {
               "events_by_week": {"202225": [540]}, "used_periods": [202225],
               "accumulated_periods": [], "start_kde": False, "alerts": [],
               "profile": None}}}
    with pytest.raises(RestoreError) as info:
        restore_state(json.dumps(doc))
    message = str(info.value)
    assert "'astd-monitor/state/2'" in message
    assert "'astd-monitor/state/4'" in message
    assert "regenerate the snapshot" in message


def test_restore_rejects_a_state_3_snapshot_naming_both_schemas():
    # state/3 wrote the profile as its whole sample.
    doc = {"schema": "astd-monitor/state/3", "config": CONFIG.to_dict(),
           "users": {TRACE_USER: {
               "weeks": {"202225": [540]}, "used": 1, "alerts": [], "profile": [540]}}}
    with pytest.raises(RestoreError) as info:
        restore_state(json.dumps(doc))
    message = str(info.value)
    assert "'astd-monitor/state/3'" in message
    assert "'astd-monitor/state/4'" in message
    assert "regenerate the snapshot" in message


def test_snapshot_profile_holds_no_density_grid():
    _, engines = run_monitor(trace_lines(), CONFIG, None)
    doc = dump_state(engines[0])["users"][TRACE_USER]
    profile = doc["profile"]
    assert set(profile) == {"dropped", "counts"}
    weeks = list(doc["weeks"].values())[:doc["used"]]
    rebuilt = profile["dropped"] + [m for week, count in zip(weeks, profile["counts"])
                                    for m in week[:count]]
    assert rebuilt == engines[0].entity_state(TRACE_USER).profile.sample.tolist()


def test_snapshot_user_holds_four_keys_each_fact_once():
    _, engines = run_monitor(trace_lines(TRACE_EVENTS[:13]), CONFIG, None)
    user = dump_state(engines[0])["users"][TRACE_USER]
    assert user == {
        "weeks": {"202225": [540, 570, 600], "202227": [555, 585, 615],
                  "202228": [545, 590, 610, 560], "202229": [570, 180]},
        "used": 3,
        "alerts": ["e13"],
        "profile": {"dropped": [], "counts": [3, 3, 4]},
    }
    state = restore_state(json.dumps(dump_state(engines[0]))).entity_state(TRACE_USER)
    assert (state.used_periods, state.accumulated_periods) == \
        ([202225, 202227, 202228], [202229])
    assert state.profile.sample.tolist() == [540, 570, 600, 555, 585, 615, 545, 590, 610, 560]
    assert state.profile_counts == {202225: 3, 202227: 3, 202228: 4}


def test_a_refit_week_that_returns_as_a_late_head_counts_zero():
    # The refit at e12 read weeks 202225, 202227 and 202228; e14's advance
    # drops 202225, and e15 brings it back as the window's new head, with the
    # same minute as its first one before.
    events = TRACE_EVENTS + (("e15", "2022-06-21T09:00:00Z"), ("e16", "2022-07-25T09:00:00Z"),
                             ("e17", "2022-07-26T01:00:00Z"), ("e18", "2022-07-27T09:40:00Z"))
    lines = trace_lines(events)
    straight = []
    _, engines = run_monitor(lines, CONFIG, straight.append)

    _, head = run_monitor(lines[:15], CONFIG, None)
    doc = dump_state(head)
    user = doc["users"][TRACE_USER]
    assert user["weeks"]["202225"] == [540]
    assert user["profile"] == {"dropped": [540, 570, 600], "counts": [0, 0, 3, 4, 0]}
    resumed = []
    restored = restore_state(json.dumps(doc))
    assert restored.entity_state(TRACE_USER) == head[0].entity_state(TRACE_USER)
    _, tail = run_monitor(lines[15:], restored.config, resumed.append,
                          initial_users=restored.export_users())
    # e16 refits and e17 alerts against that profile.
    assert [a.event_id for a in straight] == ["e13", "e17"]
    assert alert_bytes(resumed) == alert_bytes(straight[1:])
    assert json.dumps(dump_state(tail)) == json.dumps(dump_state(engines))


def test_dump_refuses_a_mid_step_dict():
    engine = MonitorEngine(CONFIG)
    engine.process("e1", TRACE_USER, *parse_timestamp("2022-06-22T09:00:00Z"))
    engine.attributes()[TRACE_USER]["start_kde"] = True
    with pytest.raises(ValueError, match="mid-step"):
        dump_state(engine)


@settings(max_examples=60, deadline=None)
@given(sample=st.integers(1, 600).flatmap(
           lambda m: st.lists(st.integers(0, 1439), min_size=m, max_size=m)),
       circular=st.booleans(),
       fixed=st.one_of(st.none(), st.floats(0.5, 300.0)))
def test_snapshot_restores_profiles_bit_for_bit(sample, circular, fixed):
    if fixed is None:
        config = DetectorConfig(circular=circular)
        bandwidth = select_bandwidth(sample)
    else:
        config = DetectorConfig(bandwidth_method="fixed", bandwidth_value=fixed,
                                circular=circular)
        bandwidth = fixed
    profile = fit_profile(sample, bandwidth, circular=circular)
    engine = MonitorEngine(config)
    engine.adopt_user("u", EntityState(
        events_by_week={202225: list(sample)}, used_periods=[202225],
        accumulated_periods=[], profile=profile, alerts=[]))
    text = json.dumps(dump_state(engine))
    restored = restore_state(text)
    again = restored.entity_state("u").profile
    assert np.array_equal(again.densities, profile.densities)
    assert again.bandwidth == profile.bandwidth
    assert again.sample.tolist() == sample
    assert json.dumps(dump_state(restored)) == text


def test_restored_profile_scores_like_the_original():
    lines = trace_lines()
    _, engines = run_monitor(lines[:12], CONFIG, None)  # profile exists now
    restored = restore_state(json.dumps(dump_state(engines[0])))
    probe = parse_timestamp("2022-07-19T03:00:00Z")
    original_alerts = engines[0].process("probe", TRACE_USER, *probe)
    restored_alerts = restored.process("probe", TRACE_USER, *probe)
    assert [a.density for a in original_alerts] == [a.density for a in restored_alerts]


def fixed_bandwidth_lines():
    """A seeded stream for a narrow fixed bandwidth: five users of 4 to 160
    events per week (grid-free, direct and binned fits), and two active in
    one 31-minute band, the second across midnight, then probed 180-200
    minutes outside it, where h = 5 leaves subnormal or zero densities."""
    rng = np.random.default_rng(20221020)
    monday = datetime(2022, 1, 3)  # ISO week 2022-W01
    events = []

    def add(user, week, day, minute):
        events.append((monday + timedelta(weeks=week, days=day, minutes=minute,
                                          seconds=int(rng.integers(0, 60))), user))

    for u, per_week in enumerate((4, 12, 40, 90, 160)):
        centre = rng.integers(0, 1440)
        for week in range(9):
            for _ in range(rng.poisson(per_week)):
                minute = (int(centre + rng.normal(0, 45)) if rng.random() < 0.85
                          else int(rng.integers(0, 1440)))
                add(f"u{u}", week, int(rng.integers(0, 7)), minute % 1440)
    for user, low, per_week in (("p", 600, 20), ("q", 1425, 150)):
        for week in range(9):
            for _ in range(per_week if week < 8 else 2):
                add(user, week, 0, (low + int(rng.integers(0, 31))) % 1440)
        for d in range(180, 201):
            add(user, 8, 1, (low + 30 + d) % 1440)
            add(user, 8, 2, (low - d) % 1440)
    events.sort()
    return [json.dumps({"Id": f"e{i}", "CreationTime": at.strftime("%Y-%m-%dT%H:%M:%SZ"),
                        "UserId": user}) + "\n" for i, (at, user) in enumerate(events)]


# Every refit under h = 5 has a kernel table with subnormal entries, a
# configuration the bench never runs. The digests cover the alert lines as
# the CLI writes them and the snapshot as --state-out writes it; like the
# bench's pinned digests, they hold for one numpy and libm build.
@pytest.mark.parametrize("circular,expected", [
    (False, "eadced024de6b9b9e3dfd47628a7735d109cc9b496ed0cb04432256087de4b98"),
    (True, "11fc9370aeab24720f5ef541291323700a4e29ed9668ccee5f3b93c93b1b9477"),
])
def test_fixed_narrow_bandwidth_run_keeps_its_pinned_bytes(circular, expected):
    config = DetectorConfig(n=2, k=10, bandwidth_method="fixed", bandwidth_value=5,
                            circular=circular)
    alerts = []
    stats, engines = run_monitor(fixed_bandwidth_lines(), config, alerts.append)
    assert stats.profiles_computed == 46
    assert any(0.0 < a.density < sys.float_info.min for a in alerts)
    digest = hashlib.sha256()
    for alert in alerts:
        digest.update(alert_to_json(alert).encode() + b"\n")
    digest.update(json.dumps(dump_state(engines)).encode())
    assert digest.hexdigest() == expected


# --------------------------------------------------------------------------
# The cut-anywhere referee
# --------------------------------------------------------------------------

# Week moves between consecutive lines: mostly the same or the next week, and
# sometimes a late week (interior, a walk back, stale) or a far jump either way.
_WEEK_MOVES = (0,) * 12 + (1,) * 6 + (-1, -1, -2, -3, -5, -9, 26, -26)
# Mondays of ISO 2020-W50 and 2021-W50: the streams cross a 53- or a
# 52-week ISO year.
_MONDAYS = (date(2020, 12, 7), date(2021, 12, 13))


def event_line(event_id, user, day, minute, second=0):
    ts = f"{day.isoformat()}T{minute // 60:02d}:{minute % 60:02d}:{second:02d}Z"
    return json.dumps({"Id": event_id, "CreationTime": ts, "UserId": user}) + "\n", ts


@st.composite
def monitored_streams(draw):
    """A config, the LDJSON lines, the well-formed events as
    ``(event id, user, timestamp)``, the planted malformed lines by reason,
    and a cut index."""
    fixed = draw(st.one_of(st.none(), st.floats(0.5, 300.0)))
    config = DetectorConfig(
        n=draw(st.integers(1, 4)), k=draw(st.integers(1, 12)),
        threshold=draw(st.sampled_from([0.0005, 0.001, 0.003])),
        max_gap_weeks=draw(st.integers(0, 4)), circular=draw(st.booleans()),
        bandwidth_method="silverman" if fixed is None else "fixed", bandwidth_value=fixed)
    monday = draw(st.sampled_from(_MONDAYS))
    users = [f"u{i}" for i in range(draw(st.integers(1, 3)))]
    steps = draw(st.lists(st.tuples(
        st.sampled_from([None] * 72 + MALFORMED_LINES),
        st.sampled_from(users), st.sampled_from(_WEEK_MOVES), st.integers(0, 6),
        st.one_of(st.integers(480, 660), st.integers(0, 1439)), st.integers(0, 59)),
        min_size=30, max_size=160))
    lines, events, planted, week = [], [], Counter(), 0
    for i, (malformed, user, move, weekday, minute, second) in enumerate(steps):
        if malformed is not None:
            lines.append(malformed[0] + "\n")
            planted[malformed[1]] += 1
            continue
        week += move
        line, ts = event_line(f"e{i}", user, monday + timedelta(weeks=week, days=weekday),
                              minute, second)
        lines.append(line)
        events.append((f"e{i}", user, ts))
    return config, lines, events, dict(planted), draw(st.integers(0, len(lines)))


def alert_bytes(alerts):
    return "".join(alert_to_json(a) + "\n" for a in alerts)


# The example count comes from the active hypothesis profile; CI runs this
# test again under the deeper "ci" profile (tests/conftest.py).
@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=monitored_streams())
def test_any_stream_cut_anywhere_matches_the_interpreter_and_an_unbroken_run(case):
    config, lines, events, planted, cut = case
    straight = []
    stats, engines = run_monitor(lines, config, straight.append)
    assert stats.malformed_by_reason == planted
    interpreted = InterpretedMonitor(config)
    expected = [alert for event in events for alert in interpreted.process(*event)[1]]
    assert alert_bytes(straight) == alert_bytes(expected)
    # InterpretedMonitor runs the same add_event; the window oracle does not.
    oracles = {}
    for _, user, ts in events:
        oracles.setdefault(user, WindowOracle(config.n, config.k, config.max_gap_weeks)).feed(ts)
    for user, oracle in oracles.items():
        state = engines[0].entity_state(user)
        assert (state.used_periods, state.accumulated_periods, state.events_by_week) == \
            (oracle.used, oracle.acc, oracle.events)

    resumed = []
    _, head = run_monitor(lines[:cut], config, resumed.append)
    for state in head[0].export_users().values():
        state.check_invariants(config)
    doc = dump_state(head)
    restored = restore_state(json.dumps(doc))
    # The restored profile is the window oracle's last fitted sample.
    head_oracles = {}
    for event_id, user, ts in events:
        if int(event_id[1:]) < cut:  # the event of line i has the id "e<i>"
            head_oracles.setdefault(user, WindowOracle(config.n, config.k,
                                                       config.max_gap_weeks)).feed(ts)
    assert set(head_oracles) == set(doc["users"])
    for user, oracle in head_oracles.items():
        profile = restored.entity_state(user).profile
        written = doc["users"][user]["profile"]
        if not oracle.profile_samples:
            assert profile is None and written is None
            continue
        sample = oracle.profile_samples[-1]
        assert profile.sample.tolist() == sample
        assert len(written["dropped"]) + sum(written["counts"]) == len(sample)
    _, tail = run_monitor(lines[cut:], restored.config, resumed.append,
                          initial_users=restored.export_users())
    assert alert_bytes(resumed) == alert_bytes(straight)
    assert json.dumps(dump_state(tail)) == json.dumps(dump_state(engines))


def test_a_walk_back_keeps_the_window_bounded():
    config = DetectorConfig()
    monday = date(2022, 7, 25)  # ISO 2022-W30
    days = [monday + timedelta(weeks=w, days=d) for w in range(3) for d in range(4)]
    days += [monday - timedelta(weeks=i) for i in range(1, 101)]
    lines = [event_line(f"e{i}", "u", day, 540)[0] for i, day in enumerate(days)]
    _, engines = run_monitor(lines, config)
    state = engines[0].entity_state("u")
    assert len(state.used_periods) + len(state.accumulated_periods) <= config.n + config.k
