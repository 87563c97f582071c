"""Detector wiring: config, window management, profile refits, alerting."""

from __future__ import annotations

import gc
import weakref
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from astd_monitor.calendar_periods import parse_timestamp
from astd_monitor.detector import (
    AlertRecord,
    ConfigError,
    DetectorConfig,
    EntityState,
    MonitorEngine,
    add_event,
    check_event,
    refresh_profile,
)
from astd_monitor.kde import density_at, fit_profile, select_bandwidth
from astd_monitor.trace import TRACE_EVENTS, TRACE_USER

from oracles import InterpretedMonitor, WindowOracle, naive_kde, silverman_reference

CONFIG = DetectorConfig(n=3, k=10, threshold=0.001)


def fresh_attrs():
    return {
        "events_by_week": {},
        "used_periods": [],
        "accumulated_periods": [],
        "start_kde": False,
        "user_kde": None,
        "alerts": [],
    }


def feed(attrs, timestamps, config=CONFIG):
    for ts in timestamps:
        add_event(attrs, *parse_timestamp(ts), config)
        refresh_profile(attrs, config)


# --------------------------------------------------------------------------
# DetectorConfig
# --------------------------------------------------------------------------

@pytest.mark.parametrize("kwargs", [
    dict(n=0),
    dict(k=0),
    dict(n=-1),
    dict(threshold=0.0),
    dict(threshold=-1.0),
    dict(max_gap_weeks=-1),
    dict(bandwidth_method="adaptive"),
    dict(bandwidth_method="fixed"),                       # needs a value
    dict(bandwidth_method="fixed", bandwidth_value=0.0),
    dict(kernel="gaussian"),                              # no such key
    dict(circular="yes"),
    dict(n=True),
    dict(k=True),
    dict(max_gap_weeks=False),
    dict(threshold=True),
    dict(bandwidth_method="fixed", bandwidth_value=True),
    dict(bandwidth_method="fixed", bandwidth_value=float("inf")),
    dict(bandwidth_method="fixed", bandwidth_value=10**400),  # too large for a float
])
def test_config_validation_rejects(kwargs):
    with pytest.raises(ConfigError):
        DetectorConfig.from_dict(kwargs)


def test_config_round_trips_through_dict():
    config = DetectorConfig(n=2, k=5, threshold=0.01, circular=True)
    assert DetectorConfig.from_dict(config.to_dict()) == config


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="bogus"):
        DetectorConfig.from_dict({"bogus": 1})


def test_engine_rejects_invalid_config():
    with pytest.raises(ConfigError):
        MonitorEngine(DetectorConfig(n=0))


def test_fresh_engine_has_no_users():
    engine = MonitorEngine(CONFIG)
    assert engine.users_seen == 0


def test_two_engines_are_independent():
    a = MonitorEngine(CONFIG)
    b = MonitorEngine(CONFIG)
    a.process("e1", "u1", *parse_timestamp("2022-06-22T10:00:00Z"))
    assert a.users_seen == 1
    assert b.users_seen == 0


# --------------------------------------------------------------------------
# add_event window management
# --------------------------------------------------------------------------

def test_window_starts_with_first_week():
    attrs = fresh_attrs()
    feed(attrs, ["2022-06-22T09:00:00Z", "2022-06-23T09:30:00Z",
                 "2022-06-24T10:00:00Z"])
    assert attrs["used_periods"] == [202225]
    assert attrs["accumulated_periods"] == []


def test_stale_week_does_not_enter_the_window_and_is_not_recorded():
    attrs = fresh_attrs()
    feed(attrs, ["2022-06-22T09:00:00Z", "2022-05-23T10:00:00Z"])
    assert attrs["used_periods"] == [202225]
    assert attrs["events_by_week"] == {202225: [540]}


def week_day(period, weekday=1, time="09:00"):
    """A timestamp on ``weekday`` (ISO, 1 = Monday) of the encoded week."""
    day = date.fromisocalendar(period // 100, period % 100, weekday)
    return f"{day.isoformat()}T{time}:00Z"


def test_stale_weeks_keep_no_minutes_without_a_refit():
    # A full window W30-W32 and nothing newer, so no refit ever runs:
    # a thousand events in distinct stale weeks must leave no week behind.
    attrs = fresh_attrs()
    feed(attrs, [week_day(p, d) for p in (202230, 202231, 202232) for d in (1, 2, 3, 4)])
    stale = [week_day(int(f"{year}{week:02d}")) for year in range(2001, 2022)
             for week in range(1, 53)][:1000]
    feed(attrs, stale)
    assert attrs["used_periods"] == [202230, 202231, 202232]
    assert sorted(attrs["events_by_week"]) == [202230, 202231, 202232]


def test_a_rejected_week_readmitted_later_holds_only_its_new_minutes():
    attrs = fresh_attrs()
    feed(attrs, [week_day(p, d) for p in (202201, 202202, 202203) for d in (1, 2, 3, 4, 5)])
    feed(attrs, [week_day(202211)])
    assert attrs["accumulated_periods"] == [202211]
    feed(attrs, [week_day(202206, 1), week_day(202206, 2)])  # 5 weeks before W11
    assert 202206 not in attrs["events_by_week"]
    feed(attrs, [week_day(202211, 2)])                       # the window advances
    assert attrs["used_periods"] == [202202, 202203, 202211]
    feed(attrs, [week_day(202206, 3, "07:30")])               # now an interior week
    assert attrs["used_periods"] == [202202, 202203, 202206, 202211]
    assert attrs["events_by_week"][202206] == [450]


def test_window_fills_across_weeks():
    attrs = fresh_attrs()
    feed(attrs, [t for _, t in TRACE_EVENTS[:11]])
    assert attrs["used_periods"] == [202225, 202227, 202228]
    assert [len(attrs["events_by_week"][p]) for p in attrs["used_periods"]] == [3, 3, 4]


def test_first_week_past_the_full_window_triggers_a_refit():
    attrs = fresh_attrs()
    for _, t in TRACE_EVENTS[:11]:
        add_event(attrs, *parse_timestamp(t), CONFIG)
    add_event(attrs, *parse_timestamp(TRACE_EVENTS[11][1]), CONFIG)
    assert attrs["start_kde"] is True
    assert attrs["accumulated_periods"] == [202229]
    assert refresh_profile(attrs, CONFIG) is True
    assert attrs["start_kde"] is False
    assert attrs["user_kde"].sample_count == 10
    assert 202221 not in attrs["events_by_week"]


def test_window_advance_drops_oldest_week_and_adopts_accumulated():
    attrs = fresh_attrs()
    used, acc = attrs["used_periods"], attrs["accumulated_periods"]
    feed(attrs, [t for _, t in TRACE_EVENTS])
    assert attrs["used_periods"] == [202226, 202227, 202228, 202229]
    assert attrs["accumulated_periods"] == []
    assert 202225 not in attrs["events_by_week"]
    # Updated in place: the lists are never rebound.
    assert attrs["used_periods"] is used and attrs["accumulated_periods"] is acc


def window(used, per_week):
    """Attributes whose used weeks hold ``per_week`` events each."""
    attrs = fresh_attrs()
    attrs["used_periods"] = list(used)
    attrs["events_by_week"] = {p: [540] * per_week for p in used}
    return attrs


@pytest.mark.parametrize("used,per_week,period,config,placed", [
    pytest.param([], 1, 202230, CONFIG, [202230], id="empty-window"),
    pytest.param([202227], 1, 202230, CONFIG, [202227, 202230], id="tail"),
    pytest.param([202227, 202229], 1, 202228, CONFIG, [202227, 202228, 202229],
                 id="interior"),
    pytest.param([202227, 202228, 202229], 4, 202226, CONFIG,
                 [202226, 202227, 202228, 202229], id="head-of-a-full-window"),
    pytest.param([202225], 1, 202222, CONFIG, [202222, 202225], id="head-at-the-gap"),
    pytest.param([202225], 1, 202221, CONFIG, [202225], id="head-beyond-the-gap"),
    pytest.param([202225], 1, 202221, DetectorConfig(max_gap_weeks=4), [202221, 202225],
                 id="head-at-a-custom-gap"),
    pytest.param([202225], 1, 202220, DetectorConfig(max_gap_weeks=4), [202225],
                 id="head-beyond-a-custom-gap"),
    pytest.param([202301], 1, 202250, CONFIG, [202250, 202301], id="cross-year-head-at-the-gap"),
    pytest.param([202301], 1, 202249, CONFIG, [202301], id="cross-year-head-beyond-the-gap"),
    pytest.param([202225, 202226], 1, 202224, DetectorConfig(n=1, k=1), [202225, 202226],
                 id="head-of-a-window-holding-n-plus-k-weeks"),
])
def test_add_event_places_a_new_week_or_refuses_a_stale_head(used, per_week, period,
                                                             config, placed):
    attrs = window(used, per_week)
    add_event(attrs, period, 600, config)
    assert attrs["used_periods"] == placed
    assert attrs["accumulated_periods"] == []
    assert sorted(attrs["events_by_week"]) == placed
    assert attrs["events_by_week"].get(period) == ([600] if period in placed else None)


def test_full_trace_matches_the_window_oracle_step_by_step():
    attrs = fresh_attrs()
    oracle = WindowOracle(n=3, k=10)
    for _, ts in TRACE_EVENTS:
        add_event(attrs, *parse_timestamp(ts), CONFIG)
        refresh_profile(attrs, CONFIG)
        oracle.feed(ts)
        assert attrs["used_periods"] == oracle.used
        assert attrs["accumulated_periods"] == oracle.acc
        assert attrs["events_by_week"] == oracle.events


def test_random_streams_match_the_window_oracle():
    rng = np.random.default_rng(7)
    days = np.arange(np.datetime64("2022-03-07"), np.datetime64("2022-07-04"))
    for trial in range(30):
        config = DetectorConfig(n=int(rng.integers(1, 4)), k=int(rng.integers(1, 15)))
        attrs = fresh_attrs()
        oracle = WindowOracle(config.n, config.k, config.max_gap_weeks)

        def step(ts):
            add_event(attrs, *parse_timestamp(ts), config)
            refresh_profile(attrs, config)
            oracle.feed(ts)
            assert attrs["used_periods"] == oracle.used
            assert attrs["accumulated_periods"] == oracle.acc
            assert attrs["events_by_week"] == oracle.events

        picks = np.sort(rng.choice(len(days), size=40))
        if rng.random() < 0.5:  # sprinkle disorder, including stale arrivals
            rng.shuffle(picks)
        for day_index in picks:
            step(f"{days[day_index]}T{rng.integers(0, 24):02d}:{rng.integers(0, 60):02d}:00Z")
        if trial % 3 == 0:
            # Walk back from the window head one week at a time: no step is
            # stale by the gap, so only the n + k bound stops the walk.
            before = len(oracle.used)
            head = date.fromisocalendar(oracle.used[0] // 100, oracle.used[0] % 100, 3)
            for weeks in range(1, 26):
                step(f"{head - timedelta(weeks=weeks)}T09:00:00Z")
            assert len(oracle.used) <= max(before, config.n + config.k)


WEEK_OFFSETS = st.one_of(
    st.integers(-6, 10),      # around the window: stale, interior, next weeks
    st.integers(-300, -7),    # far stale
    st.integers(11, 600),     # far future
)


@settings(deadline=None, max_examples=100)
@given(n=st.integers(1, 4), k=st.integers(1, 12), max_gap=st.integers(0, 4),
       events=st.lists(st.tuples(st.sampled_from(["u0", "u1", "u2"]), WEEK_OFFSETS,
                                 st.integers(0, 6), st.integers(0, 1439)),
                       max_size=120))
def test_retained_weeks_stay_inside_the_window_lists(n, k, max_gap, events):
    # Offsets count weeks from 2021-W50, so the stream crosses ISO years.
    config = DetectorConfig(n=n, k=k, max_gap_weeks=max_gap)
    engine = MonitorEngine(config)
    oracles = {}
    for i, (user, offset, weekday, minute) in enumerate(events):
        day = date(2021, 12, 13) + timedelta(weeks=offset, days=weekday)
        ts = f"{day.isoformat()}T{minute // 60:02d}:{minute % 60:02d}:00Z"
        engine.process(f"e{i}", user, *parse_timestamp(ts))
        oracle = oracles.setdefault(user, WindowOracle(n, k, max_gap))
        oracle.feed(ts)
        state = engine.entity_state(user)
        assert set(state.events_by_week) <= set(state.used_periods) | set(
            state.accumulated_periods)
        assert state.events_by_week == oracle.events
        assert (state.used_periods, state.accumulated_periods) == (oracle.used, oracle.acc)
        state.check_invariants()


# --------------------------------------------------------------------------
# refresh_profile
# --------------------------------------------------------------------------

def test_refresh_without_flag_changes_nothing():
    attrs = fresh_attrs()
    feed(attrs, ["2022-06-22T09:00:00Z"])
    before = {k: v for k, v in attrs.items()}
    assert refresh_profile(attrs, CONFIG) is False
    assert attrs == before


def test_refresh_profile_matches_direct_fit():
    attrs = fresh_attrs()
    feed(attrs, [t for _, t in TRACE_EVENTS[:12]])
    # The used weeks' minutes, week by week in window order, each week's in
    # arrival order; the accumulated week W29 is left out.
    assert attrs["used_periods"] == [202225, 202227, 202228]
    sample = [540, 570, 600, 555, 585, 615, 545, 590, 610, 560]
    assert attrs["user_kde"].sample.tolist() == sample
    expected = fit_profile(sample, select_bandwidth(sample))
    assert np.array_equal(attrs["user_kde"].densities, expected.densities)
    # and against the independent oracle at the engine's own bandwidth
    h = attrs["user_kde"].bandwidth
    assert h == pytest.approx(silverman_reference(sample), rel=1e-9)
    assert np.max(np.abs(attrs["user_kde"].densities - naive_kde(sample, h))) <= 1e-12


def test_refresh_honors_fixed_bandwidth():
    config = DetectorConfig(n=3, k=10, threshold=0.001,
                            bandwidth_method="fixed", bandwidth_value=2.5)
    attrs = fresh_attrs()
    feed(attrs, [t for _, t in TRACE_EVENTS[:12]], config)
    assert attrs["user_kde"].bandwidth == 2.5


def test_refresh_with_no_training_data_is_an_internal_error():
    attrs = fresh_attrs()
    attrs["start_kde"] = True
    with pytest.raises(AssertionError):
        refresh_profile(attrs, CONFIG)


# --------------------------------------------------------------------------
# check_event
# --------------------------------------------------------------------------

def scored_attrs():
    attrs = fresh_attrs()
    attrs["user_kde"] = fit_profile([540] * 10, select_bandwidth([540] * 10))
    return attrs


def test_off_hours_event_alerts():
    attrs = scored_attrs()
    alert = check_event(attrs, "e9", "u1", *parse_timestamp("2022-06-22T03:00:00Z"),
                        CONFIG)
    assert isinstance(alert, AlertRecord)
    assert alert.event_id == "e9"
    assert alert.user_id == "u1"
    assert alert.period == 202225
    assert alert.minute == 180
    assert alert.density <= alert.threshold == 0.001
    assert attrs["alerts"] == ["e9"]


def test_event_at_the_training_peak_is_normal():
    attrs = scored_attrs()
    assert check_event(attrs, "e9", "u1", *parse_timestamp("2022-06-22T09:00:00Z"),
                       CONFIG) is None
    assert attrs["alerts"] == []


def test_check_event_alerts_at_exactly_the_threshold():
    ten_am = parse_timestamp("2022-06-22T10:00:00Z")
    midnight = parse_timestamp("2022-06-22T00:00:00Z")
    # a grid-free profile (10 samples) and one with a grid (40 samples)
    for m in (10, 40):
        profile = fit_profile([600] * m, 5.0)
        d = density_at(profile, 600)
        for threshold, alerts in ((d, True), (d / 2, False)):
            attrs = fresh_attrs()
            attrs["user_kde"] = profile
            config = DetectorConfig(threshold=threshold)
            alert = check_event(attrs, "e1", "u1", *ten_am, config)
            assert (alert is not None) == alerts
            if alerts:
                assert alert.density == threshold
        attrs = fresh_attrs()
        attrs["user_kde"] = profile
        assert check_event(attrs, "e2", "u1", *midnight,          # far tail
                           DetectorConfig(threshold=1e-9)) is not None


def test_alert_record_rejects_density_above_threshold():
    with pytest.raises(ValueError):
        AlertRecord("e1", "u1", 202225, 10, density=0.5, threshold=0.001)


# --------------------------------------------------------------------------
# Engine behavior
# --------------------------------------------------------------------------

def lockstep(events, config=CONFIG):
    """Step ``events`` through the engine and ``InterpretedMonitor`` side by
    side; yield the monitor's action names after each step, once the alerts
    and the stepped user's state have been found equal. This referees the
    engine's parser, action order and alert plumbing, not the interpreter,
    which both share."""
    engine = MonitorEngine(config)
    interpreted = InterpretedMonitor(config)
    for event_id, user, ts in events:
        alerts = engine.process(event_id, user, *parse_timestamp(ts))
        actions, expected = interpreted.process(event_id, user, ts)
        assert alerts == expected
        assert engine.entity_state(user) == interpreted.entity_state(user)
        yield actions, alerts


def test_no_alert_before_the_first_profile():
    events = [(event_id, TRACE_USER, ts) for event_id, ts in TRACE_EVENTS[:11]]
    for actions, alerts in lockstep(events):
        assert alerts == []
        assert "check_event" not in actions  # guard holds while no profile


def test_alerting_joins_the_step_once_a_profile_exists():
    events = [(event_id, TRACE_USER, ts) for event_id, ts in TRACE_EVENTS[:12]]
    actions, _ = list(lockstep(events))[-1]
    assert actions == ["add_event", "refresh_profile", "check_event"]


def test_interleaved_users_maintain_independent_state():
    merged = MonitorEngine(CONFIG)
    for event_id, ts in TRACE_EVENTS:
        merged.process(event_id, "u1", *parse_timestamp(ts))
        merged.process(event_id, "u2", *parse_timestamp(ts))
    solo = MonitorEngine(CONFIG)
    for event_id, ts in TRACE_EVENTS:
        solo.process(event_id, "u1", *parse_timestamp(ts))
    for user in ("u1", "u2"):
        state = merged.entity_state(user)
        expected = solo.entity_state("u1")
        assert state.used_periods == expected.used_periods
        assert state.events_by_week == expected.events_by_week
        assert state.alerts == expected.alerts
        assert np.array_equal(state.profile.densities, expected.profile.densities)


def test_a_dropped_engine_is_freed_without_a_cyclic_collection():
    engine = MonitorEngine(CONFIG)
    for event_id, ts in TRACE_EVENTS:
        engine.process(event_id, TRACE_USER, *parse_timestamp(ts))
    assert engine.profiles_computed == 1
    dropped = weakref.ref(engine)
    gc.disable()
    try:
        del engine
        assert dropped() is None
    finally:
        gc.enable()


def test_entity_state_is_a_deep_copy():
    engine = MonitorEngine(CONFIG)
    engine.process("e1", "u1", *parse_timestamp("2022-06-22T09:00:00Z"))
    state = engine.entity_state("u1")
    state.used_periods.append(999999)
    state.events_by_week[202225].append(0)
    fresh = engine.entity_state("u1")
    assert fresh.used_periods == [202225]
    assert fresh.events_by_week[202225] == [540]


def test_entity_state_unknown_user_is_none():
    assert MonitorEngine(CONFIG).entity_state("nobody") is None


def test_entity_states_compare_by_value_including_the_profile():
    def state_after(events):
        engine = MonitorEngine(CONFIG)
        for event_id, ts in events:
            engine.process(event_id, TRACE_USER, *parse_timestamp(ts))
        return engine.entity_state(TRACE_USER)

    state = state_after(TRACE_EVENTS[:12])
    assert state.profile is not None
    assert state == state_after(TRACE_EVENTS[:12])
    assert state != state_after(TRACE_EVENTS[:11])       # no profile yet
    refit = state_after(TRACE_EVENTS[:12])
    refit.profile = fit_profile(refit.profile.sample, refit.profile.bandwidth * 2)
    assert state != refit


def test_export_and_adopt_round_trip():
    donor = MonitorEngine(CONFIG)
    for event_id, ts in TRACE_EVENTS[:12]:
        donor.process(event_id, TRACE_USER, *parse_timestamp(ts))
    heir = MonitorEngine(CONFIG)
    for user, state in donor.export_users().items():
        heir.adopt_user(user, state)
    for event_id, ts in TRACE_EVENTS[12:]:
        assert [a.event_id for a in donor.process(event_id, TRACE_USER, *parse_timestamp(ts))] == \
            [a.event_id for a in heir.process(event_id, TRACE_USER, *parse_timestamp(ts))]
    assert donor.entity_state(TRACE_USER).used_periods == \
        heir.entity_state(TRACE_USER).used_periods


def test_capture_rejects_a_mid_step_dict():
    attrs = fresh_attrs()
    feed(attrs, ["2022-06-22T09:00:00Z"])
    EntityState.capture(attrs)
    attrs["start_kde"] = True
    with pytest.raises(ValueError, match="mid-step"):
        EntityState.capture(attrs)


def test_adopt_user_installs_nothing_it_refuses():
    engine = MonitorEngine(CONFIG)
    overlapping = EntityState(events_by_week={202225: [540]}, used_periods=[202225],
                              accumulated_periods=[202225], profile=None, alerts=[])
    with pytest.raises(ValueError, match="overlap"):
        engine.adopt_user("u", overlapping)
    assert engine.users_seen == 0 and engine.entity_state("u") is None


def test_each_user_is_one_dict_of_the_declared_attributes():
    engine = MonitorEngine(CONFIG)
    for event_id, ts in TRACE_EVENTS:
        engine.process(event_id, TRACE_USER, *parse_timestamp(ts))
    (user, attrs), = engine.attributes().items()
    assert user == TRACE_USER
    assert engine.attributes() is engine.attributes()  # the interleave's own map
    # The single-state automata record no control state in the dict.
    assert set(attrs) == {"events_by_week", "used_periods", "accumulated_periods",
                          "start_kde", "user_kde", "alerts"}
    assert EntityState.capture(attrs) == engine.entity_state(TRACE_USER)


def test_counters_track_profiles_and_alerts():
    engine = MonitorEngine(CONFIG)
    for event_id, ts in TRACE_EVENTS:
        engine.process(event_id, TRACE_USER, *parse_timestamp(ts))
    assert engine.users_seen == 1
    assert engine.profiles_computed == 1
    assert engine.alerts_emitted == 1


# --------------------------------------------------------------------------
# EntityState invariants
# --------------------------------------------------------------------------

def valid_state(**overrides):
    fields = dict(events_by_week={202225: [540]}, used_periods=[202225],
                  accumulated_periods=[], profile=None, alerts=[])
    fields.update(overrides)
    return EntityState(**fields)


def test_invariants_accept_a_valid_state():
    valid_state().check_invariants()


@pytest.mark.parametrize("overrides,message", [
    (dict(used_periods=[202227, 202225]), "ascending"),
    (dict(used_periods=[202225, 202225]), "ascending"),
    (dict(used_periods=[202225], accumulated_periods=[202225]), "overlap"),
    (dict(used_periods=[202227], accumulated_periods=[202226]), "follow"),
    (dict(used_periods=[], accumulated_periods=[202226]), "empty window"),
    (dict(used_periods=[202225, 202226]), "not the used and accumulated weeks"),
    (dict(events_by_week={202225: [2000]}), "out of range"),
    (dict(alerts=[42]), "not a string"),
    (dict(events_by_week={202225: [540], 202221: [600]}), "not the used and accumulated weeks"),
    (dict(events_by_week={202225: []}), "holds no minutes"),
])
def test_invariants_reject_corrupt_states(overrides, message):
    with pytest.raises(ValueError, match=message):
        valid_state(**overrides).check_invariants()


def test_invariants_see_cross_year_ordering_correctly():
    # consecutive weeks across a year boundary are valid
    valid_state(events_by_week={202252: [1], 202301: [2]},
                used_periods=[202252, 202301]).check_invariants()
