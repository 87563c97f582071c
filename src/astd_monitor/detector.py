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
first accumulated week raises ``start_kde`` (profile refit over the used
window). When the window minus its oldest week plus the accumulated weeks
reaches ``k`` events again (with at least two accumulated events), the
window advances: oldest week dropped, accumulated weeks adopted, the
accumulator cleared. Every week in ``events_by_week`` is a used or an
accumulated one, so only an event of a new week places it: in the window
while that is short of ``n`` weeks or ``k`` events, or when the week is
older than the window's newest, and in the accumulator otherwise. A new
head week is refused, and its event not recorded, when it lies more than
``max_gap_weeks`` before its list's head or when its list already holds
``n + k`` weeks, so a walk back one week at a time stays bounded.
"""

from __future__ import annotations

import sys
from bisect import insort
from dataclasses import dataclass, fields
from typing import Any, Callable, Mapping, MutableMapping

from .astd import (
    AttributeDecl,
    Automaton,
    Flow,
    Interleave,
    InterleaveInstance,
    Transition,
    build,
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
        if not (_is_number(self.threshold, (int, float)) and self.threshold > 0):
            raise ConfigError(f"threshold must be > 0, got {self.threshold!r}")
        if not _is_number(self.max_gap_weeks, int) or self.max_gap_weeks < 0:
            raise ConfigError(f"max_gap_weeks must be an integer >= 0, got {self.max_gap_weeks!r}")
        if self.bandwidth_method not in ("silverman", "fixed"):
            raise ConfigError(f"bandwidth_method must be 'silverman' or 'fixed', got {self.bandwidth_method!r}")
        if self.bandwidth_method == "fixed":
            # A finite float too: the refit and restore take float(value).
            if not (_is_number(self.bandwidth_value, (int, float))
                    and 0 < self.bandwidth_value <= sys.float_info.max):
                raise ConfigError(f"fixed bandwidth requires a finite bandwidth_value > 0, "
                                  f"got {self.bandwidth_value!r}")
        if not isinstance(self.circular, bool):
            raise ConfigError(f"circular must be a boolean, got {self.circular!r}")

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
    """One anomalous event: its density was at or below the threshold."""

    event_id: str
    user_id: str
    period: int
    minute: int
    density: float
    threshold: float

    def __post_init__(self):
        if self.density > self.threshold:
            raise ValueError(
                f"alert density {self.density} exceeds threshold {self.threshold}"
            )


@dataclass
class EntityState:
    """Deep-copied view of one user's attribute dict at a step boundary:
    the minutes of every used and accumulated week, the two week lists, the
    profile and the alert history. The refresh flag is not part of it,
    because it is false at every step boundary."""

    events_by_week: dict[int, list[int]]
    used_periods: list[int]
    accumulated_periods: list[int]
    profile: KdeProfile | None
    alerts: list[str]

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
        )

    def check_invariants(self) -> None:
        """Raise ValueError on the first violated state invariant."""
        for name, periods in (("used_periods", self.used_periods),
                              ("accumulated_periods", self.accumulated_periods)):
            for period in periods:
                try:
                    period_start(period)
                except ValueError as exc:
                    raise ValueError(f"{name}: {period} is not an ISO week: {exc}") from None
            # Valid periods sort chronologically as plain ints.
            for a, b in zip(periods, periods[1:]):
                if a >= b:
                    raise ValueError(f"{name} not strictly ascending: {a} before {b}")
        overlap = set(self.used_periods) & set(self.accumulated_periods)
        if overlap:
            raise ValueError(f"used and accumulated periods overlap: {sorted(overlap)}")
        if self.accumulated_periods:
            if not self.used_periods:
                raise ValueError("accumulated periods present with an empty window")
            if self.used_periods[-1] >= self.accumulated_periods[0]:
                raise ValueError(
                    f"accumulated period {self.accumulated_periods[0]} does not follow "
                    f"window end {self.used_periods[-1]}"
                )
        live = set(self.used_periods) | set(self.accumulated_periods)
        if set(self.events_by_week) != live:
            raise ValueError(f"events_by_week weeks {sorted(self.events_by_week)} are not "
                             f"the used and accumulated weeks {sorted(live)}")
        if self.profile is not None and not isinstance(self.profile, KdeProfile):
            raise ValueError(f"profile has unexpected type {type(self.profile).__name__}")
        for period, minutes in self.events_by_week.items():
            if not minutes:
                raise ValueError(f"week {period} holds no minutes")
            for m in minutes:
                if not 0 <= m <= 1439:
                    raise ValueError(f"minute {m} out of range in week {period}")
        for alert in self.alerts:
            if not isinstance(alert, str):
                raise ValueError(f"alert id {alert!r} is not a string")

    def check_window(self, config: DetectorConfig) -> None:
        """Raise ValueError if weeks accumulate behind a window that
        ``add_event`` would still fill. Needs :meth:`check_invariants` first."""
        if self.accumulated_periods:
            used = self.used_periods
            held = count_events(self.events_by_week, used)
            if len(used) < config.n or held < config.k:
                raise ValueError(f"accumulated weeks behind a window short of "
                                 f"n = {config.n} weeks or k = {config.k} events "
                                 f"(weeks: {len(used)}, events: {held})")


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
        del events[used.pop(0)]
        used += acc
        acc.clear()


def refresh_profile(attrs: MutableMapping[str, Any], config: DetectorConfig) -> bool:
    """Refit the density profile if the window manager requested it.

    Returns True when a profile was computed.
    """
    if not attrs["start_kde"]:
        return False
    attrs["user_kde"] = None
    events = attrs["events_by_week"]
    sample = [m for p in attrs["used_periods"] for m in events[p]]
    if not sample:
        raise AssertionError("profile refresh requested with no training data")
    if config.bandwidth_method == "fixed":
        bandwidth = float(config.bandwidth_value)
    else:
        bandwidth = select_bandwidth(sample)
    attrs["user_kde"] = fit_profile(sample, bandwidth, circular=config.circular)
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
        return AlertRecord(
            event_id=event_id,
            user_id=user_id,
            period=period,
            minute=minute,
            density=density,
            threshold=threshold,
        )
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
            AttributeDecl("events_by_week", "init_events_by_week"),
            AttributeDecl("used_periods", "init_period_list"),
            AttributeDecl("accumulated_periods", "init_period_list"),
            AttributeDecl("start_kde", "init_false"),
            AttributeDecl("user_kde", "init_no_profile"),
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
        "init_events_by_week": dict,
        "init_period_list": list,
        "init_false": lambda: False,
        "init_no_profile": lambda: None,
        "init_alert_list": list,
        "add_event": _add_event,
        "refresh_profile": _refresh_profile,
        "profile_exists": _profile_exists,
        "check_event": _check_event,
    }


# The engine's one call into the interpreter per event: the root
# interleave's step, bound directly so that no wrapper sits in between.
step = InterleaveInstance._step


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
        step(self._root, EVENT_LABEL, {
            USER_VAR: user_id,
            "event_id": event_id,
            "period": period,
            "minute": minute,
        })
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

    def export_users(self) -> dict[str, EntityState]:
        return {user: EntityState.capture(attrs)
                for user, attrs in self.attributes().items()}

    def adopt_user(self, user_id: str, state: EntityState) -> None:
        """Install a previously captured state for one user. Raises
        ValueError, installing nothing, if the state breaks an invariant or
        is one the window rules cannot reach."""
        state.check_invariants()
        state.check_window(self.config)
        attrs = self._root.ensure_child(user_id)
        attrs["events_by_week"] = {int(p): [int(m) for m in v]
                                   for p, v in state.events_by_week.items()}
        attrs["used_periods"] = [int(p) for p in state.used_periods]
        attrs["accumulated_periods"] = [int(p) for p in state.accumulated_periods]
        attrs["user_kde"] = state.profile
        attrs["alerts"] = list(state.alerts)
