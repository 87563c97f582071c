"""Built-in 14-event reference trace with checkpointed expected state.

One user's activity over weeks 202221..202229 exercises every window
transition: window fill, stale-week rejection, first profile fit, a late
arrival into the middle of the window, and a window advance. Checkpoints
C1..C5 freeze the expected state after key events; ``run_trace`` replays
the sequence through a fresh engine and reports each comparison.

The sequence also pins a deliberately subtle case: after event 13 the
candidate window (all weeks but the oldest, plus the accumulated week)
holds only 9 events, one short of k=10, so the window must NOT advance
yet even though two accumulated events have arrived. The advance happens
one event later. ``run_trace`` reports this as an explicit note because
an informal reading of the window protocol gets it wrong.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .calendar_periods import parse_timestamp
from .detector import DetectorConfig, EntityState, MonitorEngine
from .kde import KdeProfile

TRACE_USER = "u1"

# (event id, UTC timestamp); minutes cluster around 09:00-10:15 except e13.
TRACE_EVENTS: tuple[tuple[str, str], ...] = (
    ("e1", "2022-06-22T09:00:00Z"),   # 202225, minute 540
    ("e2", "2022-06-23T09:30:00Z"),   # 202225, minute 570
    ("e3", "2022-06-24T10:00:00Z"),   # 202225, minute 600
    ("e4", "2022-05-23T10:00:00Z"),   # 202221, stale: 4 weeks before the head
    ("e5", "2022-07-05T09:15:00Z"),   # 202227, minute 555
    ("e6", "2022-07-06T09:45:00Z"),   # 202227, minute 585
    ("e7", "2022-07-07T10:15:00Z"),   # 202227, minute 615
    ("e8", "2022-07-11T09:05:00Z"),   # 202228, minute 545
    ("e9", "2022-07-12T09:50:00Z"),   # 202228, minute 590
    ("e10", "2022-07-13T10:10:00Z"),  # 202228, minute 610
    ("e11", "2022-07-14T09:20:00Z"),  # 202228, minute 560
    ("e12", "2022-07-18T09:30:00Z"),  # 202229, first week past the full window
    ("e13", "2022-07-19T03:00:00Z"),  # 202229, minute 180: the anomaly
    ("e14", "2022-06-28T10:00:00Z"),  # 202226, late arrival -> window advances
)

TRACE_CONFIG = DetectorConfig(n=3, k=10, threshold=0.001)

DEFERRAL_NOTE = (
    "after event e13 the candidate window [202227, 202228, 202229] holds 9 "
    "events, one short of k=10, so the window does not advance yet; it "
    "advances at event e14"
)

EXPECTED_ALERTS = ("e13",)
EXPECTED_FINAL_USED = [202226, 202227, 202228, 202229]
EXPECTED_FINAL_COUNTS = {202226: 1, 202227: 3, 202228: 4, 202229: 2}

# event index -> (checkpoint name, {label: expected value}); ``_facts``
# computes every label, in the order the details list them.
CHECKPOINTS: dict[int, tuple[str, dict[str, object]]] = {
    3: ("C1 window starts", {"used_periods": [202225], "accumulated_periods": []}),
    4: ("C2 stale week rejected", {"used_periods": [202225], "accumulated_periods": [],
                                   "stale week not recorded": True}),
    11: ("C3 window full", {"used_periods": [202225, 202227, 202228],
                            "events per week": {202225: 3, 202227: 3, 202228: 4}}),
    12: ("C4 first profile", {"accumulated_periods": [202229],
                              "profile refits so far": 1, "profile sample count": 10}),
    14: ("C5 window advances", {"used_periods": EXPECTED_FINAL_USED,
                                "accumulated_periods": [],
                                "events per week": EXPECTED_FINAL_COUNTS,
                                "alerts": list(EXPECTED_ALERTS),
                                "profile unchanged by the advance": True}),
}


@dataclass
class CheckpointResult:
    name: str
    passed: bool
    details: list[str] = field(default_factory=list)


@dataclass
class TraceResult:
    checkpoints: list[CheckpointResult]
    notes: list[str]
    alerts: list[str]

    @property
    def passed(self) -> bool:
        return all(cp.passed for cp in self.checkpoints)


def _facts(engine: MonitorEngine, state: EntityState, alerts: list[str],
           last_profile: KdeProfile | None) -> dict[str, object]:
    """The value of every checkpoint label after the current event;
    ``last_profile`` is the profile at the previous checkpoint."""
    return {
        "used_periods": state.used_periods,
        "accumulated_periods": state.accumulated_periods,
        "stale week not recorded": 202221 not in state.events_by_week,
        "events per week": {p: len(state.events_by_week[p]) for p in state.used_periods},
        "profile refits so far": engine.profiles_computed,
        "profile sample count": None if state.profile is None else state.profile.sample.size,
        "alerts": alerts,
        "profile unchanged by the advance":
            last_profile is not None and state.profile == last_profile,
    }


def run_trace(config: DetectorConfig | None = None) -> TraceResult:
    """Replay the reference trace through a fresh engine and check C1..C5."""
    engine = MonitorEngine(config if config is not None else TRACE_CONFIG)
    checkpoints: list[CheckpointResult] = []
    notes: list[str] = []
    alerts: list[str] = []
    last_profile = None

    for index, (event_id, creation) in enumerate(TRACE_EVENTS, start=1):
        alerts.extend(a.event_id for a in engine.process(event_id, TRACE_USER,
                                                         *parse_timestamp(creation)))
        # A flag left set means the refit did not run: the state cannot be
        # captured, and the rest of the trace cannot be checked.
        if engine.attributes()[TRACE_USER]["start_kde"]:
            checkpoints.append(CheckpointResult(
                f"refresh flag consumed after {event_id}", False,
                ["start_kde still set at the step boundary"]))
            break
        state = engine.entity_state(TRACE_USER)
        if index == 13 and state.used_periods == [202225, 202227, 202228] \
                and state.accumulated_periods == [202229]:
            notes.append(DEFERRAL_NOTE)
        if index in CHECKPOINTS:
            name, expected = CHECKPOINTS[index]
            facts = _facts(engine, state, alerts, last_profile)
            result = CheckpointResult(name, True)
            for label, want in expected.items():
                got = facts[label]
                result.passed &= got == want
                result.details.append(f"{label}: {got!r} (ok)" if got == want
                                      else f"{label}: expected {want!r}, got {got!r}")
            checkpoints.append(result)
            last_profile = state.profile

    return TraceResult(checkpoints, notes, alerts)


def format_trace_result(result: TraceResult) -> str:
    lines = []
    for cp in result.checkpoints:
        lines.append(f"{'PASS' if cp.passed else 'FAIL'}  {cp.name}")
        for detail in cp.details:
            lines.append(f"      {detail}")
    for note in result.notes:
        lines.append(f"note: {note}")
    lines.append(f"alerts: {result.alerts}")
    lines.append("trace: " + ("all checkpoints passed" if result.passed
                              else "CHECKPOINT MISMATCH"))
    return "\n".join(lines)
