"""Per-layer tracing from outside the program.

``Tracer`` replaces the names the program's modules look up at call time
with timing wrappers, keeps a span stack so each wrapper also gets its
self time (its duration minus the time of wrapped calls inside it),
aggregates in memory, and puts every original back when it exits.

The guards and registry closures of the detector are not wrapped, so the
self time of ``astd.step`` is the interpreter's dispatch.
"""

from __future__ import annotations

import functools
import re
import time
from collections import Counter
from typing import Any, Callable

from astd_monitor import detector, stream
from astd_monitor.detector import MonitorEngine
from astd_monitor.stream import MalformedRecord

import corpus
import replay

# (owner, attribute, span name). Spans are named after the layer that owns
# the code, not the module the name is looked up in.
HOOKS: tuple[tuple[Any, str, str], ...] = (
    (stream, "run_monitor", "stream.run_monitor"),
    (stream, "parse_record", "stream.parse_record"),
    (stream, "parse_timestamp", "calendar_periods.parse_timestamp"),
    (stream, "alert_to_json", "stream.alert_to_json"),
    (stream, "dump_state", "stream.dump_state"),
    (stream, "restore_state", "stream.restore_state"),
    (replay, "encode_snapshot", "stream.snapshot_encode"),
    (MonitorEngine, "process", "detector.process"),
    (detector, "step", "astd.step"),
    (detector, "add_event", "detector.add_event"),
    (detector, "refresh_profile", "detector.refresh_profile"),
    (detector, "check_event", "detector.check_event"),
    (detector, "select_bandwidth", "kde.select_bandwidth"),
    (detector, "fit_profile", "kde.fit_profile"),
    (detector, "density_at", "kde.density_at"),
)

# Self time of the spans on the per-event ingest path, grouped by layer.
LAYERS = {
    "stream": ("stream.run_monitor", "stream.parse_record", "stream.alert_to_json"),
    "calendar_periods": ("calendar_periods.parse_timestamp",),
    "astd": ("astd.step",),
    "detector": ("detector.process", "detector.add_event",
                 "detector.refresh_profile", "detector.check_event"),
    "kde": ("kde.select_bandwidth", "kde.fit_profile", "kde.density_at"),
}


def reason_slug(reason: str) -> str:
    return re.sub(r"[^a-z0-9]+", "_", reason.lower()).strip("_")


class Span:
    """Aggregate of one wrapped name."""

    __slots__ = ("calls", "total_ns", "self_ns")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0


class Tracer:
    """Context manager that installs the wrappers in ``HOOKS``."""

    def __init__(self) -> None:
        self.spans = {name: Span() for _, _, name in HOOKS}
        self.malformed: Counter[str] = Counter()
        self.refits = 0
        self.fitted_samples = 0
        self.alerts = 0
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def charge(self, ns: int) -> None:
        """Book ``ns`` of untraced work to the innermost open span's children."""
        if self._stack:
            self._stack[-1] += ns

    def _observe(self, name: str) -> Callable[[Any, tuple], None] | None:
        if name == "stream.parse_record":
            def seen(result, args):
                if isinstance(result, MalformedRecord):
                    self.malformed[result.reason] += 1
        elif name == "detector.refresh_profile":
            def seen(result, args):
                if result is True:
                    self.refits += 1
        elif name == "kde.fit_profile":
            def seen(result, args):
                self.fitted_samples += len(args[0])
        elif name == "detector.check_event":
            def seen(result, args):
                if result is not None:
                    self.alerts += 1
        else:
            return None
        return seen

    def _wrap(self, name: str, fn: Callable) -> Callable:
        span = self.spans[name]
        stack = self._stack
        clock = time.perf_counter_ns
        seen = self._observe(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                span.calls += 1
                span.total_ns += elapsed
                span.self_ns += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if seen is not None:
                seen(result, args)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        try:
            for owner, attr, name in HOOKS:
                original = vars(owner)[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> bool:
        self._restore()
        return False

    def _restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def metrics(self, events: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of everything traced so far, as (value, unit)."""
        s = self.spans
        out: dict[str, tuple[float, str]] = {}

        def put(name: str, value: float, unit: str) -> None:
            out[name] = (value, unit)

        put("stream.parse_record.calls", s["stream.parse_record"].calls, "count")
        put("stream.parse_record.self_s", s["stream.parse_record"].self_ns / 1e9, "s")
        put("stream.parse_record.malformed", sum(self.malformed.values()), "count")
        for reason in corpus.MALFORMED_REASONS:
            put(f"stream.parse_record.malformed.{reason_slug(reason)}",
                self.malformed[reason], "count")
        put("stream.run_monitor.self_s", s["stream.run_monitor"].self_ns / 1e9, "s")
        put("calendar_periods.parse_timestamp.calls",
            s["calendar_periods.parse_timestamp"].calls, "count")
        put("calendar_periods.parse_timestamp.s",
            s["calendar_periods.parse_timestamp"].total_ns / 1e9, "s")
        put("astd.step.calls", s["astd.step"].calls, "count")
        put("astd.step.self_s", s["astd.step"].self_ns / 1e9, "s")
        put("detector.process.self_s", s["detector.process"].self_ns / 1e9, "s")
        put("detector.add_event.calls", s["detector.add_event"].calls, "count")
        put("detector.add_event.s", s["detector.add_event"].total_ns / 1e9, "s")
        refresh_calls = s["detector.refresh_profile"].calls
        put("detector.refresh_profile.calls", refresh_calls, "count")
        put("detector.refresh_profile.refits", self.refits, "count")
        put("detector.refresh_profile.refit_ratio",
            self.refits / refresh_calls if refresh_calls else 0.0, "ratio")
        put("detector.check_event.calls", s["detector.check_event"].calls, "count")
        put("detector.check_event.self_s", s["detector.check_event"].self_ns / 1e9, "s")
        put("detector.alerts", self.alerts, "count")
        for short in ("select_bandwidth", "fit_profile", "density_at"):
            span = s[f"kde.{short}"]
            put(f"kde.{short}.calls", span.calls, "count")
            put(f"kde.{short}.s", span.total_ns / 1e9, "s")
        put("kde.fit_profile.samples", self.fitted_samples, "count")
        put("stream.alert_to_json.calls", s["stream.alert_to_json"].calls, "count")
        put("stream.alert_to_json.s", s["stream.alert_to_json"].total_ns / 1e9, "s")
        put("stream.dump_state.s", s["stream.dump_state"].total_ns / 1e9, "s")
        put("stream.snapshot_encode.s", s["stream.snapshot_encode"].total_ns / 1e9, "s")
        put("stream.restore_state.s", s["stream.restore_state"].total_ns / 1e9, "s")
        ingest_self = sum(s[n].self_ns for names in LAYERS.values() for n in names)
        for layer, names in LAYERS.items():
            put(f"layer.{layer}.self_share",
                sum(s[n].self_ns for n in names) / ingest_self if ingest_self else 0.0,
                "ratio")
        put("layer.ingest.self_us_per_event", ingest_self / 1e3 / max(events, 1), "us")
        return out
