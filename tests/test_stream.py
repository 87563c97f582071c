"""Ingestion, run statistics, and state snapshots."""

from __future__ import annotations

import io
import json
from collections import Counter
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from astd_monitor.calendar_periods import parse_timestamp
from astd_monitor.detector import ConfigError, DetectorConfig, EntityState, MonitorEngine
from astd_monitor.kde import fit_profile, select_bandwidth
from astd_monitor.stream import (
    MalformedRecord,
    ParsedEvent,
    RestoreError,
    alert_to_json,
    dump_state,
    parse_record,
    resident_memory_bytes,
    restore_state,
    run_monitor,
)
from astd_monitor.trace import TRACE_EVENTS, TRACE_USER

from oracles import InterpretedMonitor, WindowOracle

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
    assert resident_memory_bytes() > 0


def test_alert_json_has_exactly_the_record_fields():
    alerts = []
    run_monitor(trace_lines(), CONFIG, alerts.append)
    obj = json.loads(alert_to_json(alerts[0]))
    assert set(obj) == {"event_id", "user_id", "period", "minute",
                        "density", "threshold"}
    assert obj["event_id"] == "e13"
    assert obj["density"] <= obj["threshold"]


# --------------------------------------------------------------------------
# Snapshots
# --------------------------------------------------------------------------

def test_dump_fresh_engine_has_zero_users():
    doc = dump_state(MonitorEngine(CONFIG))
    assert doc["schema"] == "astd-monitor/state/3"
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


def _user(d):
    return d["users"][TRACE_USER]


def _reorder_weeks(d, order):
    weeks = _user(d)["weeks"]
    _user(d)["weeks"] = {p: weeks[p] for p in order}


def _fixed_bandwidth(value):
    return lambda d: d["config"].update(bandwidth_method="fixed", bandwidth_value=value)


# The reference trace ends with weeks 202226..202229, all of them used.
@pytest.mark.parametrize("mutate,location", [
    (lambda d: d.update(schema="other/2"), "schema"),
    (lambda d: d.update(config={"n": 0, "k": 1, "threshold": 1.0}), "config"),
    (lambda d: d["users"].update(bad="not an object"), "users\\['bad'\\]"),
    # The state/2 keys are unknown to a state/3 user object.
    (lambda d: _user(d).update(used_periods=[202226]), "used_periods"),
    (lambda d: _user(d).update(start_kde=False), "start_kde"),
    (lambda d: _user(d)["weeks"].update({"xyz": [1]}), "bad period key"),
    (lambda d: _reorder_weeks(d, ["202228", "202226", "202227", "202229"]), "ascending"),
    pytest.param(lambda d: _user(d).update(profile=[]), "profile: empty",
                 id="sample-empty"),
    pytest.param(lambda d: _user(d).update(profile=[600, "x"]), "profile", id="sample-string"),
    pytest.param(lambda d: _user(d).update(profile=[600, 1440]), "profile", id="sample-1440"),
    pytest.param(lambda d: _user(d).update(profile=[-1, 600]), "profile",
                 id="sample-negative"),
    pytest.param(lambda d: _user(d).update(profile=[600, True]), "profile", id="sample-bool"),
    # A state/2 profile object, which held the sample under a key.
    pytest.param(lambda d: _user(d).update(profile={"bandwidth": 5.0}),
                 "profile: expected a list of integers or null", id="sample-missing"),
    # The bandwidth is the config's, or recomputed: no snapshot field holds it.
    pytest.param(_fixed_bandwidth(0.0), "config: fixed bandwidth", id="bandwidth-zero"),
    pytest.param(_fixed_bandwidth(-2.5), "config: fixed bandwidth", id="bandwidth-negative"),
    pytest.param(_fixed_bandwidth(10**400), "config: fixed bandwidth",
                 id="bandwidth-huge-int"),
    pytest.param(_fixed_bandwidth(True), "config: fixed bandwidth", id="bandwidth-bool"),
    pytest.param(_fixed_bandwidth(float("inf")), "config: fixed bandwidth",
                 id="bandwidth-inf"),
    pytest.param(lambda d: _user(d)["weeks"].update({"202226": [True]}),
                 "weeks\\[202226\\]", id="minute-bool"),
    pytest.param(lambda d: _user(d).update(used=True), "used: expected an integer",
                 id="used_periods-bool"),
    pytest.param(lambda d: _user(d)["weeks"].update({"true": [1]}),
                 "bad period key 'true'", id="accumulated_periods-bool"),
    pytest.param(lambda d: _user(d).update(weeks={"202299": [600]}, used=1),
                 "used_periods: 202299 is not an ISO week", id="used-week-99"),
    pytest.param(lambda d: _user(d).update(weeks={"202226": [600], "202299": [600]}, used=1),
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
    pytest.param(lambda d: _user(d).update(weeks={"202225": [540], "202229": [600]}, used=1),
                 "users\\['u1'\\]: accumulated weeks behind a window short of n = 3 weeks "
                 "or k = 10 events \\(weeks: 1, events: 1\\)", id="accumulated-before-n-weeks"),
    pytest.param(lambda d: _user(d).update(weeks={"202225": [540], "202226": [540],
                                                  "202227": [540], "202229": [600]}, used=3),
                 "users\\['u1'\\]: accumulated weeks behind a window short of n = 3 weeks "
                 "or k = 10 events \\(weeks: 3, events: 3\\)", id="accumulated-before-k-events"),
])
def test_restore_names_the_corrupt_location(mutate, location):
    _, engines = run_monitor(trace_lines(), CONFIG, None)
    doc = json.loads(json.dumps(dump_state(engines[0])))
    mutate(doc)
    with pytest.raises(RestoreError, match=location):
        restore_state(doc)


def test_restore_rejects_a_state_1_snapshot_naming_both_schemas():
    _, engines = run_monitor(trace_lines(), CONFIG, None)
    doc = dump_state(engines[0])
    doc["schema"] = "astd-monitor/state/1"
    with pytest.raises(RestoreError) as info:
        restore_state(doc)
    message = str(info.value)
    assert "'astd-monitor/state/1'" in message
    assert "'astd-monitor/state/3'" in message
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
    assert "'astd-monitor/state/3'" in message
    assert "regenerate the snapshot" in message


def test_snapshot_profile_holds_no_density_grid():
    _, engines = run_monitor(trace_lines(), CONFIG, None)
    profile = dump_state(engines[0])["users"][TRACE_USER]["profile"]
    state = engines[0].entity_state(TRACE_USER)
    assert profile == state.profile.sample.tolist()


def test_snapshot_user_holds_four_keys_each_fact_once():
    _, engines = run_monitor(trace_lines(TRACE_EVENTS[:13]), CONFIG, None)
    user = dump_state(engines[0])["users"][TRACE_USER]
    assert user == {
        "weeks": {"202225": [540, 570, 600], "202227": [555, 585, 615],
                  "202228": [545, 590, 610, 560], "202229": [570, 180]},
        "used": 3,
        "alerts": ["e13"],
        "profile": [540, 570, 600, 555, 585, 615, 545, 590, 610, 560],
    }
    state = restore_state(json.dumps(dump_state(engines[0]))).entity_state(TRACE_USER)
    assert (state.used_periods, state.accumulated_periods) == \
        ([202225, 202227, 202228], [202229])


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
        state.check_invariants()
    restored = restore_state(json.dumps(dump_state(head)))
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
