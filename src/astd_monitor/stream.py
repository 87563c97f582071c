"""Line-delimited JSON ingestion, engine driving, and state snapshots.

Events arrive one JSON object per line with fields ``Id`` (or ``ID``),
``CreationTime`` (UTC, ``YYYY-mm-ddTHH:MM:ssZ``), and ``UserId``; any
other fields are ignored. Each timestamp is parsed once, into the ISO week
(``period``) and minute of day the detector keys on. Input order is
processing order: the window manager is built for out-of-order arrival, so
no re-sorting happens here.

Malformed lines are counted and skipped; they never touch engine state.
Each line goes straight to the C scanner behind ``json.loads``, with the same
whitespace rule on both sides of the value, so any line ``json.loads`` refuses
(also one nested too deeply, or holding an int of over 4,300 digits) is bad JSON.

Snapshots serialize every user's window state into one versioned JSON
document that writes each fact once: per user, the minutes of every used
then every accumulated week in ascending order (``weeks``), how many of
them are used (``used``), the alert history, and the profile as the minutes
its refit read of weeks that have left the window since (``dropped``) and
how many leading minutes it read of each used week (``counts``). Restore
takes the document's JSON text, checks each user through
``MonitorEngine.adopt_user``'s own check, the one every way in takes, then
refits the sample from the checked minutes with the refit's own bandwidth
rule (the config's fixed value, or Silverman's recomputed from the sample).
Like every refit it installs the sample and the bandwidth and builds no
grid (a binned profile fills it at its first scores), and the densities
come back bit for bit (given the same numpy and libm builds): resuming from
a snapshot is equivalent to an uninterrupted run. Dump, restore and
re-adoption run with the cyclic collector paused: what they build holds no
cycles.
"""

from __future__ import annotations

import json
import sys
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
    gc_paused,
)
from .kde import KdeProfile, fit_profile

try:
    import resource
except ImportError:  # Windows
    resource = None

STATE_SCHEMA = "astd-monitor/state/4"


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


# json.loads's own steps: one value after JSON whitespace, then only more of it.
_scan_once = json.JSONDecoder().scan_once
_skip_ws = json.decoder.WHITESPACE.match


def parse_record(line: str) -> ParsedEvent | MalformedRecord:
    """Parse one input line; never raises."""
    try:
        obj, end = _scan_once(line, _skip_ws(line, 0).end())
    except (StopIteration, RecursionError, ValueError):  # ValueError: also a 4,300+ digit int
        return MalformedRecord("bad JSON")
    if _skip_ws(line, end).end() != len(line):
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
    """``peak_rss_bytes`` is the process's lifetime peak: a caller embedding
    ``run_monitor`` sees whatever the process held before the run too."""

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


_ALERT_LINE = '{"event_id":%s,"user_id":%s,"period":%d,"minute":%d,"density":%r,"threshold":%r}'
_quote = json.encoder.encode_basestring_ascii  # json's own C quoting


def alert_to_json(alert: AlertRecord) -> str:
    """``json.dumps(vars(alert), separators=(",", ":"))``, byte for byte."""
    e, u, p, m, d, t = vars(alert).values()
    return _ALERT_LINE % (_quote(e), _quote(u), p, m, d, t)


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
    ``workers``, ``initial_users`` and the list return remain because
    ``bench/replay.py`` calls them, and only a change to the benchmark may
    drop them.
    """
    if workers != 1:
        raise ConfigError(f"workers must be 1, got {workers}")
    engine = MonitorEngine(config)  # validates the config
    engines = [engine]
    with gc_paused():
        for user_id, state in (initial_users or {}).items():
            engine.adopt_user(user_id, state)
    emit = alert_sink if alert_sink is not None else (lambda alert: None)

    stats = RunStats()
    by_reason = stats.malformed_by_reason
    started = time.perf_counter()

    for line in source:
        if not line.strip(" \t\r\n"):  # JSON whitespace only
            continue
        stats.events_read += 1
        record = parse_record(line)
        if isinstance(record, MalformedRecord):
            stats.events_malformed += 1
            by_reason[record.reason] = by_reason.get(record.reason, 0) + 1
        else:
            for alert in engine.process(*record):
                emit(alert)
        if (on_progress is not None and progress_every
                and stats.events_read % progress_every == 0):
            on_progress(stats.events_read, engines)

    stats.events_processed = stats.events_read - stats.events_malformed
    stats.users_seen = engine.users_seen
    stats.profiles_computed = engine.profiles_computed
    stats.alerts_emitted = engine.alerts_emitted
    stats.wall_time_s = time.perf_counter() - started
    if resource is not None:
        # The process's true peak: ru_maxrss counts bytes on macOS, KiB elsewhere.
        scale = 1 if sys.platform == "darwin" else 1024
        stats.peak_rss_bytes = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * scale
    return stats, engines


# --------------------------------------------------------------------------
# State snapshots
# --------------------------------------------------------------------------

def _user_to_json(attrs: Mapping[str, Any]) -> dict[str, Any]:
    if attrs["start_kde"]:
        raise ValueError("cannot dump a state mid-step (start_kde set)")
    events, used, profile = attrs["events_by_week"], attrs["used_periods"], attrs["user_kde"]
    if profile is not None:
        counts = [attrs["profile_counts"].get(p, 0) for p in used]
        sample = profile.sample
        profile = {"dropped": sample[:sample.size - sum(counts)].tolist(), "counts": counts}
    return {
        "weeks": {str(p): list(events[p]) for p in used + attrs["accumulated_periods"]},
        "used": len(used),
        "alerts": list(attrs["alerts"]),
        "profile": profile,
    }


@gc_paused()
def dump_state(engine: MonitorEngine | Sequence[MonitorEngine]) -> dict[str, Any]:
    """Serialize engine state (one engine or the list ``run_monitor``
    returns) to a JSON document. Must be called at a step boundary."""
    if not isinstance(engine, MonitorEngine):
        engines = list(engine)
        if len(engines) != 1:
            raise ValueError(f"dump_state needs one engine, got {len(engines)}")
        engine = engines[0]
    users = engine.attributes()
    return {
        "schema": STATE_SCHEMA,
        "config": engine.config.to_dict(),
        "users": {u: _user_to_json(users[u]) for u in sorted(users)},
    }


def _is_minute_list(values: list[Any]) -> bool:
    """Whether every value is an int (not a bool) minute of the day."""
    for m in values:
        if type(m) is not int or not 0 <= m <= 1439:
            return False
    return True


def _profile_from_json(data: Any, where: str, used: dict[int, list[int]],
                       config: DetectorConfig) -> tuple[KdeProfile | None, dict[int, int]]:
    """The profile refitted on ``dropped`` then the counted prefix of each
    week in ``used``, and the nonzero counts by week."""
    if data is None:
        return None, {}
    if not isinstance(data, dict) or set(data) != {"dropped", "counts"}:
        raise RestoreError(f"{where}: expected null or an object with exactly the keys "
                           f"'dropped' and 'counts'")
    dropped, counts = data["dropped"], data["counts"]
    if not isinstance(dropped, list) or not _is_minute_list(dropped):
        raise RestoreError(f"{where}.dropped: expected a list of minutes in [0, 1439]")
    if not isinstance(counts, list) or len(counts) != len(used):
        raise RestoreError(f"{where}.counts: expected a list of {len(used)} counts, "
                           f"one per used week")
    sample = list(dropped)
    for i, (count, minutes) in enumerate(zip(counts, used.values())):
        if type(count) is not int or not 0 <= count <= len(minutes):
            raise RestoreError(f"{where}.counts[{i}]: expected an integer in "
                               f"[0, {len(minutes)}], got {count!r}")
        sample += minutes[:count]
    if not sample:
        raise RestoreError(f"{where}: empty sample")
    # The refit's own bandwidth rule and fit on the refit's own sample:
    # bit-identical densities. Called through kde's names, not detector's,
    # which bench/tracer.py wraps to count the run's own refits.
    return (fit_profile(sample, config.fixed_bandwidth, circular=config.circular),
            {p: c for p, c in zip(used, counts) if c})


# Each key of a snapshot user and its JSON type; a null profile is "no profile".
_USER_KEYS = {"weeks": dict, "used": int, "alerts": list, "profile": object}


def _state_from_json(data: Any, where: str) -> EntityState:
    """What JSON can get wrong and ``check_invariants`` cannot see; the
    profile is left for after adoption, which checks the minutes it reads."""
    if not isinstance(data, dict):
        raise RestoreError(f"{where}: expected an object")
    unknown = sorted(set(data).difference(_USER_KEYS))
    if unknown:
        raise RestoreError(f"{where}: unknown key {unknown[0]!r}")
    for key, kind in _USER_KEYS.items():
        if key not in data:
            raise RestoreError(f"{where}: missing key {key!r}")
        if not isinstance(data[key], kind):
            raise RestoreError(f"{where}.{key}: expected {kind.__name__}, "
                               f"got {type(data[key]).__name__}")
    weeks: dict[int, list[int]] = {}
    for raw_period, minutes in data["weeks"].items():
        try:
            period = int(raw_period)
        except (TypeError, ValueError):
            period = None
        if str(period) != raw_period:  # also refuses "2022_25", which re-dumps as "202225"
            raise RestoreError(f"{where}.weeks: bad period key {raw_period!r}")
        if not isinstance(minutes, list):
            raise RestoreError(f"{where}.weeks[{raw_period}]: expected a list")
        weeks[period] = minutes
    used = data["used"]
    if isinstance(used, bool) or not 0 < used <= len(weeks):
        raise RestoreError(f"{where}.used: expected an integer in [1, {len(weeks)}], "
                           f"got {used!r}")
    periods = list(weeks)  # check_invariants checks that they ascend
    return EntityState(events_by_week=weeks, used_periods=periods[:used],
                       accumulated_periods=periods[used:], profile=None, alerts=data["alerts"])


@gc_paused()
def restore_state(text: str) -> MonitorEngine:
    """Rebuild an engine from the JSON text of a snapshot document.

    Raises RestoreError naming the offending location on any corruption.
    """
    try:
        snapshot = json.loads(text)
    except (RecursionError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise RestoreError(f"invalid JSON: {exc}") from exc
    if not isinstance(snapshot, dict):
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
        state = _state_from_json(raw_state, where)
        try:
            attrs = engine.adopt_user(user_id, state)
        except ValueError as exc:
            raise RestoreError(f"{where}: {exc}") from exc
        # Fitted only from minutes adoption checked (an int64 sample turns 3.5
        # into 3); its counts then read the tail of its sample by construction.
        attrs["user_kde"], attrs["profile_counts"] = _profile_from_json(
            raw_state["profile"], f"{where}.profile",
            {p: state.events_by_week[p] for p in state.used_periods}, config)
    return engine
