"""Per-user activity monitor composed from the state-machine algebra.

The composition is an interleave over the event's user id; each user gets
an isolated attribute dict, which a two-automaton pipeline reads and writes:

* ``training``: an unguarded self-loop whose transition action records the
  event into the sliding week window, and whose node action refits the
  density profile whenever the window manager raised the refresh flag.
* ``alerting``: a self-loop guarded on "a profile exists" whose transition
  action scores the event's minute of day and emits an alert at or below
  the density threshold.

The training side runs first within each step, so the very event that
completes a window is scored against the profile that window produced.

``MonitorEngine`` runs the composition through the interpreter
(``astd.build``): the root interleave maps each user to that dict, and
each event is one call of ``step`` on that interleave, whose payload
carries the event's ISO week (``period``) and minute of day as ints,
parsed once at ingest. Refits and alerts reach the engine's
counters through the registry's ``on_refit`` and ``on_alert`` hooks. The
window parameters ``n`` and ``k`` and the ``threshold`` are read from the
configuration, not copied into each user.

Window management: ``used_periods`` holds the weeks feeding the current
profile; once it spans at least ``n`` weeks holding at least ``k`` events,
newer weeks collect in ``accumulated_periods``. The first event of the
first accumulated week raises ``start_kde``: refit over the used window,
noting in ``profile_counts`` how many minutes it read of each used week.
When the window minus its oldest week plus the accumulated weeks reaches
``k`` events again (with at least two accumulated events), the window
advances: oldest week (and its count) dropped, accumulated weeks adopted,
the accumulator cleared. Every week in ``events_by_week`` is a used or an
accumulated one, so only an event of a new week places it: in the window
while that is short of ``n`` weeks or ``k`` events, or when the week is
older than the window's newest, and in the accumulator otherwise. A new
head week is refused, and its event not recorded, when it lies more than
``max_gap_weeks`` before its list's head or when its list already holds
``n + k`` weeks, so a walk back one week at a time stays bounded.
"""

from __future__ import annotations

import gc
import math
import sys
from bisect import insort
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import Any, Callable, Iterator, Mapping, MutableMapping

from .astd import (
    AttributeDecl,
    Automaton,
    Flow,
    Interleave,
    Transition,
    build,
    step,  # the engine's one call into the interpreter per event
)
from .calendar_periods import (
    DEFAULT_MAX_GAP_WEEKS,
    count_events,
    period_start,
    week_distance,
)
from .kde import KdeProfile, density_at, fit_profile, select_bandwidth

EVENT_LABEL = "activity"
USER_VAR = "user"


# The smallest fixed bandwidth h at which the kernel's widest scaled distance
# squared, (1439 / h) ** 2, is a finite float; below it the fit and the score
# overflow.
MIN_FIXED_BANDWIDTH = 1439 / math.sqrt(sys.float_info.max)


class ConfigError(ValueError):
    """A monitor configuration value is out of range or unsupported."""


def _is_number(value: Any, kind: type | tuple[type, ...]) -> bool:
    """``isinstance(value, kind)``, but never for a bool (an int subclass)."""
    return isinstance(value, kind) and not isinstance(value, bool)


@dataclass
class DetectorConfig:
    """Tuning knobs for the window manager and the density model.

    ``n``: minimum number of weeks in a full training window.
    ``k``: minimum number of events in a full training window.
    ``threshold``: density at or below which a minute is anomalous.
    ``max_gap_weeks``: reject weeks this much older than the window head.
    ``bandwidth_method``: "silverman" (data-driven) or "fixed".
    ``bandwidth_value``: kernel bandwidth in minutes when fixed.
    ``circular``: wrap minute distances around midnight when fitting.
    """

    n: int = 3
    k: int = 10
    threshold: float = 0.001
    max_gap_weeks: int = DEFAULT_MAX_GAP_WEEKS
    bandwidth_method: str = "silverman"
    bandwidth_value: float | None = None
    circular: bool = False

    def validate(self) -> None:
        if not _is_number(self.n, int) or self.n < 1:
            raise ConfigError(f"n must be an integer >= 1, got {self.n!r}")
        if not _is_number(self.k, int) or self.k < 1:
            raise ConfigError(f"k must be an integer >= 1, got {self.k!r}")
        # Finite too: every alert line writes it, and JSON has no NaN or Infinity.
        if not (_is_number(self.threshold, (int, float)) and 0 < self.threshold <= sys.float_info.max):
            raise ConfigError(f"threshold must be finite and > 0, got {self.threshold!r}")
        if not _is_number(self.max_gap_weeks, int) or self.max_gap_weeks < 0:
            raise ConfigError(f"max_gap_weeks must be an integer >= 0, got {self.max_gap_weeks!r}")
        if self.bandwidth_method not in ("silverman", "fixed"):
            raise ConfigError(f"bandwidth_method must be 'silverman' or 'fixed', got {self.bandwidth_method!r}")
        if self.bandwidth_method == "fixed":
            # A finite float too: fixed_bandwidth takes float(value).
            if not (_is_number(self.bandwidth_value, (int, float))
                    and MIN_FIXED_BANDWIDTH <= self.bandwidth_value <= sys.float_info.max):
                raise ConfigError(f"fixed bandwidth requires a finite bandwidth_value >= "
                                  f"{MIN_FIXED_BANDWIDTH!r}, got {self.bandwidth_value!r}")
        if not isinstance(self.circular, bool):
            raise ConfigError(f"circular must be a boolean, got {self.circular!r}")

    @property
    def fixed_bandwidth(self) -> float | None:
        """The bandwidth of every refit, or None when each selects its own."""
        return float(self.bandwidth_value) if self.bandwidth_method == "fixed" else None

    def to_dict(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DetectorConfig":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        config = cls(**dict(data))
        config.validate()
        return config


@dataclass(frozen=True)
class AlertRecord:
    """One anomalous event, its density at or below the threshold. Only what
    ``stream.alert_to_json`` writes as JSON constructs: these exact types (an
    int threshold too), finite numbers and no subclass."""

    event_id: str
    user_id: str
    period: int
    minute: int
    density: float
    threshold: float

    def __post_init__(self):
        if not (type(self) is AlertRecord and type(self.event_id) is type(self.user_id) is str
                and type(self.period) is type(self.minute) is int and type(self.density) is float
                and type(self.threshold) in (float, int)):
            kinds = [type(v).__name__ for v in vars(self).values()]
            raise TypeError(f"{type(self).__name__} of {kinds}: an alert holds str, str, int, "
                            f"int, float and a float or int")
        if not -sys.float_info.max <= self.density <= self.threshold <= sys.float_info.max:
            raise ValueError(f"density {self.density!r} not finite or above a finite threshold")


@dataclass
class EntityState:
    """Deep-copied view of one user's attribute dict at a step boundary,
    without the refresh flag (false at every step boundary). The profile's
    sample is the minutes of weeks that left the window since its refit,
    then the leading ``profile_counts[week]`` minutes of each used week
    (none for a week without a count)."""

    events_by_week: dict[int, list[int]]
    used_periods: list[int]
    accumulated_periods: list[int]
    profile: KdeProfile | None
    alerts: list[str]
    profile_counts: dict[int, int] = field(default_factory=dict)

    @classmethod
    def capture(cls, attrs: Mapping[str, Any]) -> "EntityState":
        if attrs["start_kde"]:
            raise ValueError("cannot capture a state mid-step (start_kde set)")
        return cls(
            events_by_week={p: list(v) for p, v in attrs["events_by_week"].items()},
            used_periods=list(attrs["used_periods"]),
            accumulated_periods=list(attrs["accumulated_periods"]),
            profile=attrs["user_kde"],
            alerts=list(attrs["alerts"]),
            profile_counts=dict(attrs["profile_counts"]),
        )

    def check_invariants(self, config: DetectorConfig) -> None:
        """Raise ValueError on the first violated state invariant, or if
        weeks accumulate behind a window that ``add_event`` would still fill
        under ``config``: the state is not one the window rules reach."""
        used, acc, events = self.used_periods, self.accumulated_periods, self.events_by_week
        for name, periods in (("used_periods", used), ("accumulated_periods", acc)):
            for period in periods:
                if type(period) is not int:
                    raise ValueError(f"{name}: {period!r} is not an integer")
                # Weeks 1-52 of ISO years 1-9999 always exist.
                if not (100 <= period < 1_000_000 and 1 <= period % 100 <= 52):
                    try:
                        period_start(period)
                    except ValueError as exc:
                        raise ValueError(f"{name}: {period} is not an ISO week: {exc}") from None
            # Valid periods sort chronologically as plain ints.
            for a, b in zip(periods, periods[1:]):
                if a >= b:
                    raise ValueError(f"{name} not strictly ascending: {a} before {b}")
        # Both ascend, so used[-1] < acc[0] also rules out a shared week;
        # accumulated weeks behind no used week fail the n check below.
        if acc and used and used[-1] >= acc[0]:
            raise ValueError(f"accumulated period {acc[0]} does not follow "
                             f"window end {used[-1]}")
        if events.keys() != {*used, *acc}:
            raise ValueError(f"events_by_week weeks {sorted(events)} are not "
                             f"the used and accumulated weeks {sorted({*used, *acc})}")
        for period, minutes in events.items():
            if not minutes:
                raise ValueError(f"week {period} holds no minutes")
            for m in minutes:
                if type(m) is not int or not 0 <= m <= 1439:
                    kind = "not an integer" if type(m) is not int else "out of range [0, 1439]"
                    raise ValueError(f"minute {m!r} in week {period} is {kind}")
        if acc:
            held = count_events(events, used)
            if len(used) < config.n or held < config.k:
                raise ValueError(f"accumulated weeks behind a window short of "
                                 f"n = {config.n} weeks or k = {config.k} events "
                                 f"(weeks: {len(used)}, events: {held})")
        for alert in self.alerts:
            if not isinstance(alert, str):
                raise ValueError(f"alert id {alert!r} is not a string")
        profile, counts = self.profile, self.profile_counts
        if profile is not None and not isinstance(profile, KdeProfile):
            raise ValueError(f"profile has unexpected type {type(profile).__name__}")
        if not counts:
            return
        if profile is None or not counts.keys() <= set(used):
            raise ValueError(f"profile counts of weeks {list(counts)} that are not used "
                             f"weeks of a profile")
        tail: list[int] = []
        for period in used:
            count, minutes = counts.get(period, 0), events[period]
            if type(count) is not int or not 0 <= count <= len(minutes):
                raise ValueError(f"profile count {count!r} of week {period} is not "
                                 f"in [0, {len(minutes)}]")
            tail += minutes[:count]
        if tail and profile.sample[-len(tail):].tolist() != tail:
            raise ValueError("profile counts do not read the tail of the profile's sample")


# --------------------------------------------------------------------------
# The three registered actions
# --------------------------------------------------------------------------

def add_event(attrs: MutableMapping[str, Any], period: int, minute: int,
              config: DetectorConfig) -> None:
    """Record one event, of ISO week ``period`` (``YYYYWW``) at ``minute`` of
    the day, and advance the sliding week window.

    Every key of ``events_by_week`` is a used or an accumulated week, so a
    known week only takes the minute. A new week is placed in one of the
    two lists, or refused as a stale head, and then keeps nothing.
    """
    events = attrs["events_by_week"]
    used = attrs["used_periods"]
    acc = attrs["accumulated_periods"]
    minutes = events.get(period)
    if minutes is None:
        # Window still filling, or a week older than its newest: place it
        # there. Otherwise accumulate it; the first accumulated week marks
        # the window complete, which triggers the refit of this step.
        if (len(used) < config.n or period < used[-1]
                or count_events(events, used) < config.k):
            periods = used
        else:
            if not acc:
                attrs["start_kde"] = True
            periods = acc
        if periods and period < periods[0] and (
                len(periods) >= config.n + config.k
                or week_distance(period, periods[0]) > config.max_gap_weeks):
            return
        insort(periods, period)
        minutes = events[period] = []
    minutes.append(minute)
    if not acc:
        return
    accumulated = count_events(events, acc)
    if accumulated >= 2 and count_events(events, used[1:]) + accumulated >= config.k:
        oldest = used.pop(0)
        del events[oldest]
        attrs["profile_counts"].pop(oldest, None)
        used += acc
        acc.clear()


def refresh_profile(attrs: MutableMapping[str, Any], config: DetectorConfig) -> bool:
    """Refit the density profile if the window manager requested it, and
    record how many minutes it read of each used week.

    Returns True when a profile was computed.
    """
    if not attrs["start_kde"]:
        return False
    attrs["user_kde"] = None
    events = attrs["events_by_week"]
    used = attrs["used_periods"]
    sample = [m for p in used for m in events[p]]
    if not sample:
        raise AssertionError("profile refresh requested with no training data")
    bandwidth = config.fixed_bandwidth
    if bandwidth is None:
        bandwidth = select_bandwidth(sample)
    attrs["user_kde"] = fit_profile(sample, bandwidth, circular=config.circular)
    attrs["profile_counts"] = {p: len(events[p]) for p in used}
    attrs["start_kde"] = False
    return True


def check_event(attrs: MutableMapping[str, Any], event_id: str, user_id: str,
                period: int, minute: int, config: DetectorConfig) -> AlertRecord | None:
    """Score one event, of ISO week ``period`` at ``minute`` of the day,
    against the current profile; alert when at or below the threshold.
    Callers must ensure a profile exists."""
    density = density_at(attrs["user_kde"], minute)
    threshold = config.threshold
    if density <= threshold:
        attrs["alerts"].append(event_id)
        return AlertRecord(event_id, user_id, period, minute, density, threshold)
    return None


# --------------------------------------------------------------------------
# Composition and registry
# --------------------------------------------------------------------------

def detector_spec() -> Interleave:
    """The monitor's composition tree.

    All mutable state is declared on the per-user pipeline node, so both
    automata share it while users stay fully isolated from each other.
    """
    training = Automaton(
        name="training",
        states=("ready",),
        initial="ready",
        transitions=(
            Transition(event=EVENT_LABEL, source="ready", target="ready",
                       action="add_event"),
        ),
        action="refresh_profile",
    )
    alerting = Automaton(
        name="alerting",
        states=("ready",),
        initial="ready",
        transitions=(
            Transition(event=EVENT_LABEL, source="ready", target="ready",
                       guard="profile_exists", action="check_event"),
        ),
    )
    pipeline = Flow(
        name="user_pipeline",
        left=training,
        right=alerting,
        attributes=(
            AttributeDecl("events_by_week", "init_week_map"),
            AttributeDecl("used_periods", "init_period_list"),
            AttributeDecl("accumulated_periods", "init_period_list"),
            AttributeDecl("start_kde", "init_false"),
            AttributeDecl("user_kde", "init_no_profile"),
            AttributeDecl("profile_counts", "init_week_map"),
            AttributeDecl("alerts", "init_alert_list"),
        ),
    )
    return Interleave(name="monitor", variable=USER_VAR, child=pipeline)


def make_registry(config: DetectorConfig, *,
                  on_refit: Callable[[], None] | None = None,
                  on_alert: Callable[[AlertRecord], None] | None = None,
                  ) -> dict[str, Callable]:
    """Guards, actions, and initializers closed over one configuration.

    ``on_refit`` is called after each profile refit and ``on_alert`` with
    each alert; that is how the engine counts them. The actions return
    nothing to the runtime.
    """

    def _add_event(payload, attrs):
        add_event(attrs, payload["period"], payload["minute"], config)

    def _refresh_profile(payload, attrs):
        if refresh_profile(attrs, config) and on_refit is not None:
            on_refit()

    def _profile_exists(payload, attrs):
        return attrs["user_kde"] is not None

    def _check_event(payload, attrs):
        alert = check_event(attrs, payload["event_id"], payload[USER_VAR],
                            payload["period"], payload["minute"], config)
        if alert is not None and on_alert is not None:
            on_alert(alert)

    return {
        "init_week_map": dict,
        "init_period_list": list,
        "init_false": lambda: False,
        "init_no_profile": lambda: None,
        "init_alert_list": list,
        "add_event": _add_event,
        "refresh_profile": _refresh_profile,
        "profile_exists": _profile_exists,
        "check_event": _check_event,
    }


# --------------------------------------------------------------------------
# Engine facade
# --------------------------------------------------------------------------

class _Tally:
    """What the registry hooks report to one engine: the refits so far and
    the alerts of the current step. The instance tree's registry references
    this, never the engine, so a dropped engine is freed at once instead of at
    the next cyclic garbage collection."""

    __slots__ = ("refits", "raised")

    def __init__(self) -> None:
        self.refits = 0
        self.raised: list[AlertRecord] = []

    def count_refit(self) -> None:
        self.refits += 1


@contextmanager
def gc_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector, if on, until the block exits: user
    state built in bulk holds no cycles, so a collection would free nothing."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


class MonitorEngine:
    """Runs the interpreted composition one event at a time and collects alerts."""

    def __init__(self, config: DetectorConfig | None = None):
        self.config = config if config is not None else DetectorConfig()
        self.config.validate()
        self.alerts_emitted = 0
        self._tally = tally = _Tally()
        self._root = build(detector_spec(), make_registry(
            self.config, on_refit=tally.count_refit, on_alert=tally.raised.append))

    @property
    def profiles_computed(self) -> int:
        return self._tally.refits

    @property
    def users_seen(self) -> int:
        return len(self._root.children)

    def process(self, event_id: str, user_id: str, period: int,
                minute: int) -> list[AlertRecord]:
        """Deliver one event, of ISO week ``period`` (``YYYYWW``) at ``minute``
        of the day (``calendar_periods.parse_timestamp`` gives both); return
        the alerts it raised (empty or one)."""
        step(self._root, EVENT_LABEL,
             {USER_VAR: user_id, "event_id": event_id, "period": period, "minute": minute})
        raised = self._tally.raised
        if not raised:
            return []
        alerts = raised[:]
        raised.clear()
        self.alerts_emitted += len(alerts)
        return alerts

    def attributes(self) -> dict[str, Mapping[str, Any]]:
        """The root interleave's own map from each seen user id to that
        user's live attribute dict: neither is a copy."""
        return self._root.children

    def entity_state(self, user_id: str) -> EntityState | None:
        """Deep-copied state of one user, or None if never seen."""
        attrs = self._root.children.get(user_id)
        return None if attrs is None else EntityState.capture(attrs)

    @gc_paused()
    def export_users(self) -> dict[str, EntityState]:
        return {user: EntityState.capture(attrs)
                for user, attrs in self.attributes().items()}

    def adopt_user(self, user_id: str, state: EntityState) -> dict[str, Any]:
        """Install a previously captured state for one user as a new attribute
        dict, holding its own copy of each list, and return that dict. Raises
        ValueError, installing nothing, if the state breaks an invariant or
        is one the window rules cannot reach."""
        state.check_invariants(self.config)
        attrs = self._root.children[user_id] = {
            "events_by_week": {p: list(v) for p, v in state.events_by_week.items()},
            "used_periods": list(state.used_periods),
            "accumulated_periods": list(state.accumulated_periods),
            "start_kde": False,
            "user_kde": state.profile,
            "profile_counts": dict(state.profile_counts),
            "alerts": list(state.alerts),
        }
        return attrs
