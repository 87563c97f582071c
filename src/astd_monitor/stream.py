"""Line-delimited JSON ingestion, engine driving, and state snapshots.

Events arrive one JSON object per line with fields ``Id`` (or ``ID``),
``CreationTime`` (UTC, ``YYYY-mm-ddTHH:MM:ssZ``), and ``UserId``; any
other fields are ignored. Each timestamp is parsed once, into the ISO week
(``period``) and minute of day the detector keys on. Input order is
processing order: the window manager is built for out-of-order arrival, so
no re-sorting happens here.

Malformed lines are counted and skipped; they never touch engine state.

Snapshots serialize every user's window state into one versioned JSON
document that writes each fact once: per user, the minutes of every used
then every accumulated week in ascending order (``weeks``), how many of
those weeks are used (``used``), the alert history, and the profile as its
sample in fit order. Restore splits the weeks into the two lists and refits
the profile with the refit's own bandwidth rule (the config's fixed value,
or Silverman's recomputed from the sample), so the densities come back bit
for bit (given the same numpy and libm builds). Restoring a snapshot and
replaying the remaining events is therefore equivalent to an uninterrupted
run.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence

from .calendar_periods import TimestampError, parse_timestamp
from .detector import (
    AlertRecord,
    ConfigError,
    DetectorConfig,
    EntityState,
    MonitorEngine,
)
from .kde import GRID_MINUTES, KdeProfile, fit_profile

STATE_SCHEMA = "astd-monitor/state/3"


class RestoreError(ValueError):
    """A snapshot document is unreadable; the message names the location."""


class ParsedEvent(NamedTuple):
    """One well-formed line: ids, ISO week ``YYYYWW`` and minute of day, in
    the argument order of ``MonitorEngine.process``."""

    event_id: str
    user_id: str
    period: int
    minute: int


@dataclass(frozen=True)
class MalformedRecord:
    reason: str


def parse_record(line: str) -> ParsedEvent | MalformedRecord:
    """Parse one input line; never raises."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError:
        return MalformedRecord("bad JSON")
    if not isinstance(obj, dict):
        return MalformedRecord("not a JSON object")
    event_id = obj.get("Id")
    if event_id is None:
        event_id = obj.get("ID")
    if event_id is None:
        return MalformedRecord("missing Id")
    if not isinstance(event_id, str) or not event_id:
        return MalformedRecord("bad Id")
    raw_creation = obj.get("CreationTime")
    if raw_creation is None:
        return MalformedRecord("missing CreationTime")
    user_id = obj.get("UserId")
    if user_id is None:
        return MalformedRecord("missing UserId")
    if not isinstance(user_id, str) or not user_id:
        return MalformedRecord("bad UserId")
    if not isinstance(raw_creation, str):
        return MalformedRecord("bad timestamp")
    try:
        period, minute = parse_timestamp(raw_creation)
    except TimestampError:
        return MalformedRecord("bad timestamp")
    return ParsedEvent(event_id, user_id, period, minute)


@dataclass
class RunStats:
    events_read: int = 0
    events_malformed: int = 0
    events_processed: int = 0
    users_seen: int = 0
    profiles_computed: int = 0
    alerts_emitted: int = 0
    wall_time_s: float = 0.0
    peak_rss_bytes: int = 0
    malformed_by_reason: dict[str, int] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


try:
    _PAGE_SIZE = os.sysconf("SC_PAGE_SIZE")
except (ValueError, OSError, AttributeError):
    _PAGE_SIZE = 4096


def resident_memory_bytes() -> int:
    """Current resident set size of this process, or 0 if unavailable."""
    try:
        with open("/proc/self/statm", "rb") as fh:
            return int(fh.read().split()[1]) * _PAGE_SIZE
    except (OSError, IndexError, ValueError):
        return 0


def alert_to_json(alert: AlertRecord) -> str:
    # vars, not asdict: the same fields in the same order, without a deep copy.
    return json.dumps(vars(alert), separators=(",", ":"))


ProgressHook = Callable[[int, Sequence[MonitorEngine]], None]


def run_monitor(source: Iterable[str], config: DetectorConfig,
                alert_sink: Callable[[AlertRecord], None] | None = None, *,
                initial_users: Mapping[str, EntityState] | None = None,
                workers: int = 1,
                on_progress: ProgressHook | None = None,
                progress_every: int = 100_000) -> tuple[RunStats, list[MonitorEngine]]:
    """Stream every line of ``source`` through one engine, in input order.

    ``workers`` accepts only 1. ``on_progress`` fires every
    ``progress_every`` read lines with the running line count and the
    engine list. ``initial_users`` are adopted before the first line is
    read, and one that ``MonitorEngine.adopt_user`` refuses raises ValueError.

    Returns the final statistics and a one-element list holding the engine.
    """
    if workers != 1:
        raise ConfigError(f"workers must be 1, got {workers}")
    engine = MonitorEngine(config)  # validates the config
    engines = [engine]
    if initial_users:
        for user_id, state in initial_users.items():
            engine.adopt_user(user_id, state)
    emit = alert_sink if alert_sink is not None else (lambda alert: None)

    stats = RunStats()
    by_reason = stats.malformed_by_reason
    peak_rss = resident_memory_bytes()
    started = time.perf_counter()

    for line in source:
        if not line.strip():
            continue
        stats.events_read += 1
        record = parse_record(line)
        if isinstance(record, MalformedRecord):
            stats.events_malformed += 1
            by_reason[record.reason] = by_reason.get(record.reason, 0) + 1
        else:
            for alert in engine.process(*record):
                emit(alert)
        if progress_every and stats.events_read % progress_every == 0:
            peak_rss = max(peak_rss, resident_memory_bytes())
            if on_progress is not None:
                on_progress(stats.events_read, engines)

    stats.events_processed = stats.events_read - stats.events_malformed
    stats.users_seen = engine.users_seen
    stats.profiles_computed = engine.profiles_computed
    stats.alerts_emitted = engine.alerts_emitted
    stats.wall_time_s = time.perf_counter() - started
    stats.peak_rss_bytes = max(peak_rss, resident_memory_bytes())
    return stats, engines


# --------------------------------------------------------------------------
# State snapshots
# --------------------------------------------------------------------------

def _state_to_json(state: EntityState) -> dict[str, Any]:
    events = state.events_by_week
    profile = state.profile
    return {
        "weeks": {str(p): list(events[p])
                  for p in state.used_periods + state.accumulated_periods},
        "used": len(state.used_periods),
        "alerts": list(state.alerts),
        "profile": None if profile is None else profile.sample.tolist(),
    }


def dump_state(engine: MonitorEngine | Sequence[MonitorEngine]) -> dict[str, Any]:
    """Serialize engine state (one engine or the list ``run_monitor``
    returns) to a JSON document. Must be called at a step boundary."""
    if not isinstance(engine, MonitorEngine):
        engines = list(engine)
        if len(engines) != 1:
            raise ValueError(f"dump_state needs one engine, got {len(engines)}")
        engine = engines[0]
    users = engine.export_users()
    return {
        "schema": STATE_SCHEMA,
        "config": engine.config.to_dict(),
        "users": {u: _state_to_json(users[u]) for u in sorted(users)},
    }


def _require(mapping: Mapping[str, Any], key: str, kind: type, where: str) -> Any:
    if key not in mapping:
        raise RestoreError(f"{where}: missing key {key!r}")
    value = mapping[key]
    if not isinstance(value, kind):
        raise RestoreError(f"{where}.{key}: expected {kind.__name__}, "
                           f"got {type(value).__name__}")
    return value


def _all_ints(values: list[Any]) -> bool:
    return all(isinstance(v, int) and not isinstance(v, bool) for v in values)


def _profile_from_json(sample: Any, where: str, config: DetectorConfig) -> KdeProfile | None:
    if sample is None:
        return None
    if not isinstance(sample, list):
        raise RestoreError(f"{where}: expected a list of integers or null")
    if not sample:
        raise RestoreError(f"{where}: empty")
    if not _all_ints(sample):
        raise RestoreError(f"{where}: expected a list of integers")
    if min(sample) < 0 or max(sample) >= GRID_MINUTES:
        raise RestoreError(f"{where}: minutes must lie in [0, {GRID_MINUTES - 1}]")
    # The refit's own bandwidth rule and fit on the refit's own sample:
    # bit-identical densities. Called through kde's names, not detector's,
    # which bench/tracer.py wraps to count the run's own refits.
    bandwidth = (float(config.bandwidth_value) if config.bandwidth_method == "fixed"
                 else None)
    return fit_profile(sample, bandwidth, circular=config.circular)


_USER_KEYS = ("weeks", "used", "alerts", "profile")


def _state_from_json(data: Any, where: str, config: DetectorConfig) -> EntityState:
    if not isinstance(data, dict):
        raise RestoreError(f"{where}: expected an object")
    unknown = sorted(set(data).difference(_USER_KEYS))
    if unknown:
        raise RestoreError(f"{where}: unknown key {unknown[0]!r}")
    raw_weeks = _require(data, "weeks", dict, where)
    weeks: dict[int, list[int]] = {}
    for raw_period, minutes in raw_weeks.items():
        try:
            period = int(raw_period)
        except (TypeError, ValueError):
            period = None
        if str(period) != raw_period:  # also refuses "2022_25", which re-dumps as "202225"
            raise RestoreError(f"{where}.weeks: bad period key {raw_period!r}")
        if not isinstance(minutes, list) or not _all_ints(minutes):
            raise RestoreError(f"{where}.weeks[{raw_period}]: expected a list of integers")
        weeks[period] = list(minutes)
    used = _require(data, "used", int, where)
    if isinstance(used, bool) or not 0 < used <= len(weeks):
        raise RestoreError(f"{where}.used: expected an integer in [1, {len(weeks)}], "
                           f"got {used!r}")
    alerts = _require(data, "alerts", list, where)
    if not all(isinstance(a, str) for a in alerts):
        raise RestoreError(f"{where}.alerts: expected a list of strings")
    if "profile" not in data:  # null is "no profile"; a lost key must not read as one
        raise RestoreError(f"{where}: missing key 'profile'")
    periods = list(weeks)  # check_invariants checks that they ascend
    return EntityState(
        events_by_week=weeks,
        used_periods=periods[:used],
        accumulated_periods=periods[used:],
        profile=_profile_from_json(data["profile"], f"{where}.profile", config),
        alerts=list(alerts),
    )


def restore_state(snapshot: Mapping[str, Any] | str) -> MonitorEngine:
    """Rebuild an engine from a snapshot document (parsed or raw JSON text).

    Raises RestoreError naming the offending location on any corruption.
    """
    if isinstance(snapshot, str):
        try:
            snapshot = json.loads(snapshot)
        except json.JSONDecodeError as exc:
            raise RestoreError(f"invalid JSON: {exc}") from exc
    if not isinstance(snapshot, Mapping):
        raise RestoreError("snapshot: expected a JSON object")
    schema = snapshot.get("schema")
    if schema != STATE_SCHEMA:
        raise RestoreError(f"schema: expected {STATE_SCHEMA!r}, got {schema!r}; "
                           f"this version reads no other snapshot schema, so "
                           f"regenerate the snapshot by replaying the input")
    raw_config = snapshot.get("config")
    if not isinstance(raw_config, dict):
        raise RestoreError("config: expected an object")
    try:
        config = DetectorConfig.from_dict(raw_config)
    except ConfigError as exc:
        raise RestoreError(f"config: {exc}") from exc
    raw_users = snapshot.get("users")
    if not isinstance(raw_users, dict):
        raise RestoreError("users: expected an object")
    engine = MonitorEngine(config)
    for user_id, raw_state in raw_users.items():
        where = f"users[{user_id!r}]"
        state = _state_from_json(raw_state, where, config)
        try:
            engine.adopt_user(user_id, state)
        except ValueError as exc:
            raise RestoreError(f"{where}: {exc}") from exc
    return engine
