"""Acceptance gate: seven end-to-end criteria at pinned tolerances.

Each test prints one ``ACCEPTANCE n (...): PASS/FAIL`` line on the real
terminal (bypassing capture) so the gate is readable straight off a plain
pytest run.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from astd_monitor.calendar_periods import parse_timestamp
from astd_monitor.detector import DetectorConfig, MonitorEngine
from astd_monitor.kde import fit_profile, select_bandwidth
from astd_monitor.stream import (
    RestoreError,
    dump_state,
    restore_state,
    run_monitor,
)
from astd_monitor.trace import (
    DEFERRAL_NOTE,
    EXPECTED_ALERTS,
    EXPECTED_FINAL_COUNTS,
    EXPECTED_FINAL_USED,
    TRACE_CONFIG,
    TRACE_EVENTS,
    TRACE_USER,
    run_trace,
)

from oracles import InterpretedMonitor, WindowOracle, naive_kde, silverman_reference


@pytest.fixture
def announce(capsys):
    def _print(line):
        with capsys.disabled():
            print(line, flush=True)
    return _print


class criterion:
    """Context manager printing the criterion verdict on exit."""

    def __init__(self, announce, number, name):
        self._announce = announce
        self._label = f"ACCEPTANCE {number} ({name})"
        self.detail = ""

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        suffix = f" [{self.detail}]" if self.detail else ""
        self._announce(f"{self._label}: {verdict}{suffix}")
        return False


def trace_lines():
    return [json.dumps({"Id": e, "CreationTime": t, "UserId": TRACE_USER}) + "\n"
            for e, t in TRACE_EVENTS]


# --------------------------------------------------------------------------
# 1. Golden trace
# --------------------------------------------------------------------------

def test_criterion_1_golden_trace(announce):
    with criterion(announce, 1, "golden trace replay") as c:
        started = time.perf_counter()

        result = run_trace()
        failures = [f"{cp.name}: {cp.details}" for cp in result.checkpoints
                    if not cp.passed]
        assert result.passed, failures
        assert [cp.name.split()[0] for cp in result.checkpoints] == \
            ["C1", "C2", "C3", "C4", "C5"]
        assert result.alerts == list(EXPECTED_ALERTS)
        assert DEFERRAL_NOTE in result.notes  # the window-advance deferral is logged

        # Independent replay: a straight-line oracle tracks the engine
        # after every one of the 14 events, not just at the checkpoints.
        engine = MonitorEngine(TRACE_CONFIG)
        oracle = WindowOracle(n=3, k=10)
        for event_id, ts in TRACE_EVENTS:
            engine.process(event_id, TRACE_USER, *parse_timestamp(ts))
            oracle.feed(ts)
            state = engine.entity_state(TRACE_USER)
            assert state.used_periods == oracle.used
            assert state.accumulated_periods == oracle.acc
            assert state.events_by_week == oracle.events
            state.check_invariants(TRACE_CONFIG)

        assert oracle.used == EXPECTED_FINAL_USED
        assert {p: len(oracle.events[p]) for p in oracle.used} == EXPECTED_FINAL_COUNTS
        assert len(oracle.profile_samples) == 1
        sample = oracle.profile_samples[0]
        assert len(sample) == 10
        profile = engine.entity_state(TRACE_USER).profile
        assert profile.bandwidth == pytest.approx(silverman_reference(sample), rel=1e-9)
        assert np.max(np.abs(profile.densities -
                             naive_kde(sample, profile.bandwidth))) <= 1e-12

        elapsed = time.perf_counter() - started
        assert elapsed < 1.0
        c.detail = f"5 checkpoints, {elapsed * 1000:.0f} ms"


# --------------------------------------------------------------------------
# 2. KDE oracle equivalence
# --------------------------------------------------------------------------

def test_criterion_2_kde_oracle_equivalence(announce):
    with criterion(announce, 2, "KDE oracle equivalence, 200 samples") as c:
        started = time.perf_counter()
        rng = np.random.default_rng(202225)
        worst = 0.0
        for i in range(200):
            m = int(rng.integers(1, 5001))
            sample = rng.integers(0, 1440, size=m).tolist()
            if i % 2 == 0:
                bandwidth = select_bandwidth(sample)
            else:
                bandwidth = float(rng.uniform(1.0, 30.0))
            profile = fit_profile(sample, bandwidth)
            expected = naive_kde(sample, bandwidth)
            diff = float(np.max(np.abs(profile.densities - expected)))
            worst = max(worst, diff)
            assert diff <= 1e-12, f"sample {i}: m={m}, h={bandwidth}, diff={diff}"
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0
        c.detail = f"max deviation {worst:.2e}, {elapsed:.1f} s"


# --------------------------------------------------------------------------
# 3. Normalization
# --------------------------------------------------------------------------

def test_criterion_3_normalization(announce):
    with criterion(announce, 3, "density normalization, 50 samples") as c:
        rng = np.random.default_rng(1440)
        low, high = 2.0, 0.0
        for _ in range(50):
            while True:
                m = int(rng.integers(30, 4001))
                center = float(rng.uniform(350, 1100))
                spread = float(rng.uniform(8, 40))
                sample = np.clip(rng.normal(center, spread, size=m).round(),
                                 200, 1239).astype(int).tolist()
                h = select_bandwidth(sample)
                if h <= 30.0:
                    break
            assert h >= 1.05  # generator keeps bandwidths off the unit floor
            total = float(np.sum(fit_profile(sample, h).densities))
            low, high = min(low, total), max(high, total)
            assert 0.98 <= total <= 1.02
            assert total <= 1.0 + 1e-9
        c.detail = f"grid sums in [{low:.6f}, {high:.6f}]"


# --------------------------------------------------------------------------
# 4. Runtime-semantics properties
# --------------------------------------------------------------------------

def _random_sequence(rng):
    users = [f"u{i}" for i in range(int(rng.integers(2, 6)))]
    centers = {u: int(rng.integers(300, 1200)) for u in users}
    base = np.datetime64("2022-03-07")
    day = 0
    events = []
    for i in range(int(rng.integers(15, 41))):
        day = min(day + int(rng.integers(0, 4)), 69)
        event_day = day
        if rng.random() < 0.05:
            event_day = day - int(rng.integers(22, 40))  # stale arrival
        user = users[int(rng.integers(len(users)))]
        if rng.random() < 0.10:
            minute = int(rng.integers(0, 1440))
        else:
            minute = int(np.clip(rng.normal(centers[user], 30), 0, 1439))
        ts = (f"{base + event_day}T{minute // 60:02d}:{minute % 60:02d}:"
              f"{int(rng.integers(0, 60)):02d}Z")
        events.append((f"e{i}", user, ts))
    return events


def test_criterion_4_runtime_semantics(announce):
    with criterion(announce, 4, "runtime semantics, 1000 sequences") as c:
        started = time.perf_counter()
        config = DetectorConfig(n=2, k=6, threshold=0.001)
        rng = np.random.default_rng(31337)
        total_steps = 0
        for _ in range(1000):
            events = _random_sequence(rng)
            engine = MonitorEngine(config)
            interpreted = InterpretedMonitor(config)
            alert_stream = []
            for event_id, user, ts in events:
                alerts = engine.process(event_id, user, *parse_timestamp(ts))
                alert_stream.extend(alerts)
                actions, expected_alerts = interpreted.process(event_id, user, ts)
                state = engine.entity_state(user)

                # the engine's parser and alert plumbing agree with the oracle's
                assert alerts == expected_alerts
                assert state == interpreted.entity_state(user)

                # bottom-up action order within the step
                assert actions[:2] == ["add_event", "refresh_profile"]
                assert actions in (["add_event", "refresh_profile"],
                                   ["add_event", "refresh_profile", "check_event"])

                # classification runs exactly when a profile exists (g3)
                has_profile = state.profile is not None
                assert ("check_event" in actions) == has_profile
                if alerts:
                    assert has_profile

                # state invariants hold after every step
                state.check_invariants(config)
                total_steps += 1

            # per-user isolation: replaying one user's subsequence alone
            # reproduces that user's state exactly
            for user in {u for _, u, _ in events}:
                solo = MonitorEngine(config)
                for event_id, u, ts in events:
                    if u == user:
                        solo.process(event_id, user, *parse_timestamp(ts))
                a = engine.entity_state(user)
                b = solo.entity_state(user)
                assert a.used_periods == b.used_periods
                assert a.accumulated_periods == b.accumulated_periods
                assert a.events_by_week == b.events_by_week
                assert a.alerts == b.alerts
                assert a.profile == b.profile

            # replay determinism: identical alert stream and final state
            again = MonitorEngine(config)
            repeat_stream = []
            for event_id, user, ts in events:
                repeat_stream.extend(again.process(event_id, user, *parse_timestamp(ts)))
            assert repeat_stream == alert_stream
            assert json.dumps(dump_state(again)) == json.dumps(dump_state(engine))
        elapsed = time.perf_counter() - started
        c.detail = f"{total_steps} steps checked, {elapsed:.1f} s"


# --------------------------------------------------------------------------
# 5. Performance at desk scale
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def million_event_corpus(tmp_path_factory):
    """1,000,000 events, 100 users, 12 weeks, week-ordered arrival."""
    path = tmp_path_factory.mktemp("corpus") / "events.ldjson"
    rng = np.random.default_rng(5_000_000)
    users = [f"user-{i:03d}" for i in range(100)]
    centers = rng.integers(360, 1200, size=100)
    total, weeks = 1_000_000, 12
    base = np.datetime64("2022-03-07")  # a Monday
    written = 0
    with open(path, "w", encoding="utf-8") as fh:
        for week in range(weeks):
            count = total // weeks if week < weeks - 1 else total - written
            uidx = rng.integers(0, 100, size=count)
            day = rng.integers(0, 7, size=count)
            outlier = rng.random(count) < 0.005
            minute = np.where(
                outlier,
                rng.integers(0, 1440, size=count),
                np.clip(rng.normal(centers[uidx], 45).astype(np.int64), 0, 1439),
            )
            hour, mm = np.divmod(minute, 60)
            sec = rng.integers(0, 60, size=count)
            dates = [str(base + week * 7 + d) for d in range(7)]
            rows = [
                '{"Id":"ev%d","CreationTime":"%sT%02d:%02d:%02dZ","UserId":"%s"}'
                % (written + i, dates[day[i]], hour[i], mm[i], sec[i], users[uidx[i]])
                for i in range(count)
            ]
            fh.write("\n".join(rows) + "\n")
            written += count
    return path


def test_criterion_5_performance(announce, million_event_corpus):
    with criterion(announce, 5, "1M events / 100 users throughput") as c:
        config = DetectorConfig(n=3, k=10, threshold=0.001)
        progress_calls = []
        bounded_checks = [0]

        def sampler(events_read, engines):
            progress_calls.append(events_read)
            for engine in engines:
                for attrs in engine.attributes().values():
                    keys = set(attrs["events_by_week"])
                    live = (set(attrs["used_periods"])
                            | set(attrs["accumulated_periods"]))
                    # no stale weeks exist in this corpus, so the window
                    # lists must cover every retained key at any boundary
                    assert keys <= live
                    bounded_checks[0] += 1

        alerts = []
        with open(million_event_corpus, "r", encoding="utf-8") as fh:
            stats, engines = run_monitor(fh, config, alerts.append,
                                         on_progress=sampler,
                                         progress_every=100_000)

        assert stats.events_read == 1_000_000
        assert stats.events_malformed == 0
        assert stats.users_seen == 100
        assert stats.profiles_computed >= 100
        assert progress_calls == [i * 100_000 for i in range(1, 11)]

        throughput = stats.events_read / stats.wall_time_s
        peak_mb = stats.peak_rss_bytes / 1e6
        assert throughput >= 5000.0, f"{throughput:.0f} events/s"
        assert stats.peak_rss_bytes < 500_000_000, f"process peak RSS {peak_mb:.0f} MB"
        c.detail = (f"{throughput:.0f} events/s, peak RSS {peak_mb:.0f} MB, "
                    f"{bounded_checks[0]} boundedness checks, "
                    f"{stats.alerts_emitted} alerts")


# --------------------------------------------------------------------------
# 6. Snapshot round-trip
# --------------------------------------------------------------------------

def test_criterion_6_snapshot_round_trip(announce):
    with criterion(announce, 6, "snapshot round-trip mid-trace") as c:
        lines = trace_lines()
        cut = 7

        _, first = run_monitor(lines[:cut], TRACE_CONFIG, None)
        snapshot_text = json.dumps(dump_state(first[0]))
        restored = restore_state(snapshot_text)
        resumed_alerts = []
        _, resumed = run_monitor(lines[cut:], restored.config, resumed_alerts.append,
                                 initial_users=restored.export_users())

        straight_alerts = []
        _, straight = run_monitor(lines, TRACE_CONFIG, straight_alerts.append)

        a = resumed[0].entity_state(TRACE_USER)
        b = straight[0].entity_state(TRACE_USER)
        assert a.used_periods == b.used_periods == EXPECTED_FINAL_USED
        assert a.accumulated_periods == b.accumulated_periods == []
        assert a.events_by_week == b.events_by_week
        assert {p: len(a.events_by_week[p]) for p in a.used_periods} == \
            EXPECTED_FINAL_COUNTS
        assert a.alerts == b.alerts == list(EXPECTED_ALERTS)
        assert a.profile == b.profile
        assert [x.event_id for x in resumed_alerts] == \
            [x.event_id for x in straight_alerts] == ["e13"]

        with pytest.raises(RestoreError):
            restore_state(snapshot_text[: len(snapshot_text) // 2])
        c.detail = f"split after event {cut}, checkpoints identical"


# --------------------------------------------------------------------------
# 7. Ingestion robustness
# --------------------------------------------------------------------------

def _malformed_line(kind, i):
    return [
        "this is not json at all {{{",
        '{"Id":"bad%d","UserId":"u1"}' % i,                                  # no CreationTime
        '{"Id":"bad%d","CreationTime":"2022-03-08 09:00","UserId":"u1"}' % i,  # bad timestamp
        '{"CreationTime":"2022-03-08T09:00:00Z","UserId":"u1"}',             # no Id
        '{"Id":"bad%d","CreationTime":"2022-03-08T09:00:00Z"}' % i,          # no UserId
    ][kind % 5]


def test_criterion_7_ingestion_robustness(announce, tmp_path):
    with criterion(announce, 7, "10k lines, 10% malformed, via CLI") as c:
        rng = np.random.default_rng(10_000)
        users = ["alice", "bob", "carol"]
        base = np.datetime64("2022-03-07")
        input_path = tmp_path / "mixed.ldjson"
        with open(input_path, "w", encoding="utf-8") as fh:
            for i in range(10_000):
                if i % 10 == 3:  # exactly 1,000 malformed lines
                    fh.write(_malformed_line(i // 10, i) + "\n")
                    continue
                day = int(i / 10_000 * 84)
                minute = int(np.clip(rng.normal(600, 40), 0, 1439))
                ts = f"{base + day}T{minute // 60:02d}:{minute % 60:02d}:00Z"
                user = users[int(rng.integers(3))]
                fh.write(json.dumps({"Id": f"ev{i}", "CreationTime": ts,
                                     "UserId": user}) + "\n")

        config_path = tmp_path / "monitor.conf"
        config_path.write_text("n = 3\nk = 10\nthreshold = 0.001\n")
        alerts_path = tmp_path / "alerts.ldjson"
        state_path = tmp_path / "state.json"

        proc = subprocess.run(
            [sys.executable, "-m", "astd_monitor.cli", "run",
             "--input", str(input_path), "--config", str(config_path),
             "--alerts", str(alerts_path), "--state-out", str(state_path),
             "--stats"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        stats = json.loads(proc.stderr.strip().splitlines()[-1])
        assert stats["events_read"] == 10_000
        assert stats["events_malformed"] == 1_000
        assert stats["events_processed"] == 9_000
        assert stats["users_seen"] == 3

        # zero state corruption: every user state restores and validates
        restored = restore_state(state_path.read_text())
        states = restored.export_users()
        assert set(states) == set(users)
        for state in states.values():
            state.check_invariants(restored.config)

        for line in alerts_path.read_text().splitlines():
            alert = json.loads(line)
            assert alert["density"] <= alert["threshold"]
        c.detail = (f"exit 0, {stats['events_malformed']} malformed, "
                    f"{stats['alerts_emitted']} alerts")
