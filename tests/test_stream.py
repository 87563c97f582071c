"""Ingestion, run statistics, and state snapshots."""

from __future__ import annotations

import io
import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    assert doc["schema"] == "astd-monitor/state/2"
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


def test_restore_drops_a_week_outside_the_window_lists():
    # A state/2 writer recorded a stale week's minutes and kept them until
    # its next refit; this version never records one, so restore drops it.
    _, engines = run_monitor(trace_lines(TRACE_EVENTS[:3]), CONFIG, None)
    doc = dump_state(engines[0])
    expected = json.dumps(doc)
    doc["users"][TRACE_USER]["events_by_week"] = {"202221": [600], "202225": [540, 570, 600]}
    restored = restore_state(json.dumps(doc))
    assert restored.entity_state(TRACE_USER).events_by_week == {202225: [540, 570, 600]}
    assert json.dumps(dump_state(restored)) == expected


def test_restore_rejects_truncated_document():
    _, engines = run_monitor(trace_lines(), CONFIG, None)
    text = json.dumps(dump_state(engines[0]))
    with pytest.raises(RestoreError, match="invalid JSON"):
        restore_state(text[: len(text) // 2])


@pytest.mark.parametrize("mutate,location", [
    (lambda d: d.update(schema="other/2"), "schema"),
    (lambda d: d.update(config={"n": 0, "k": 1, "threshold": 1.0}), "config"),
    (lambda d: d["users"].update(bad="not an object"), "users\\['bad'\\]"),
    (lambda d: d["users"]["u1"].pop("used_periods"), "used_periods"),
    (lambda d: d["users"]["u1"].update(start_kde=True), "start_kde"),
    (lambda d: d["users"]["u1"]["events_by_week"].update({"xyz": [1]}), "bad period key"),
    (lambda d: d["users"]["u1"].update(used_periods=[202228, 202225]), "ascending"),
    pytest.param(lambda d: d["users"]["u1"]["profile"].update(sample=[]), "sample",
                 id="sample-empty"),
    pytest.param(lambda d: d["users"]["u1"]["profile"].update(sample=[600, "x"]), "sample",
                 id="sample-string"),
    pytest.param(lambda d: d["users"]["u1"]["profile"].update(sample=[600, 1440]), "sample",
                 id="sample-1440"),
    pytest.param(lambda d: d["users"]["u1"]["profile"].update(sample=[-1, 600]), "sample",
                 id="sample-negative"),
    pytest.param(lambda d: d["users"]["u1"]["profile"].update(sample=[600, True]), "sample",
                 id="sample-bool"),
    pytest.param(lambda d: d["users"]["u1"]["profile"].pop("sample"), "sample",
                 id="sample-missing"),
    pytest.param(lambda d: d["users"]["u1"]["profile"].update(bandwidth=0.0), "bandwidth",
                 id="bandwidth-zero"),
    pytest.param(lambda d: d["users"]["u1"]["profile"].update(bandwidth=-2.5), "bandwidth",
                 id="bandwidth-negative"),
    pytest.param(lambda d: d["users"]["u1"]["profile"].update(bandwidth=10**400), "bandwidth",
                 id="bandwidth-huge-int"),
    pytest.param(lambda d: d["users"]["u1"]["profile"].update(bandwidth=True), "bandwidth",
                 id="bandwidth-bool"),
    pytest.param(lambda d: d["users"]["u1"]["profile"].update(bandwidth=float("inf")),
                 "bandwidth", id="bandwidth-inf"),
    pytest.param(lambda d: d["users"]["u1"]["events_by_week"].update({"202225": [True]}),
                 "events_by_week\\[202225\\]", id="minute-bool"),
    pytest.param(lambda d: d["users"]["u1"].update(used_periods=[True]), "used_periods",
                 id="used_periods-bool"),
    pytest.param(lambda d: d["users"]["u1"].update(accumulated_periods=[True]),
                 "accumulated_periods", id="accumulated_periods-bool"),
    pytest.param(lambda d: d["users"]["u1"].update(used_periods=[202299]),
                 "used_periods: 202299 is not an ISO week", id="used-week-99"),
    pytest.param(lambda d: d["users"]["u1"].update(accumulated_periods=[202299]),
                 "accumulated_periods: 202299 is not an ISO week", id="accumulated-week-99"),
    pytest.param(lambda d: d["users"]["u1"]["events_by_week"].update({"202153": [1]}),
                 "events_by_week: 202153 is not an ISO week", id="events-week-53"),
    pytest.param(lambda d: d["users"]["u1"]["events_by_week"].update({"2022_25": [1]}),
                 "bad period key '2022_25'", id="events-key-not-canonical"),
    pytest.param(lambda d: d["users"]["u1"].pop("profile"), "missing key 'profile'",
                 id="profile-missing"),
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
    assert "'astd-monitor/state/2'" in message
    assert "regenerate the snapshot" in message


def test_snapshot_profile_holds_no_density_grid():
    _, engines = run_monitor(trace_lines(), CONFIG, None)
    profile = dump_state(engines[0])["users"][TRACE_USER]["profile"]
    state = engines[0].entity_state(TRACE_USER)
    assert profile == {"bandwidth": state.profile.bandwidth,
                       "sample": state.profile.sample.tolist()}


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
        accumulated_periods=[], start_kde=False, profile=profile, alerts=[]))
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
