"""Independent reference implementations the tests compare the package
against. Everything here is deliberately written with different tools and
code shapes than the package (statistics module, per-sample accumulation,
straight-line window replay) so agreement is meaningful. The exceptions
are ``broadcast_kde``, ``convolve_kde`` and ``silverman_numpy``: they keep
the package's former arithmetic so that tests can require equal bits, not
just close values, because alert records carry the density's last digits; and
``InterpretedMonitor``, which runs the detector's composition through the
package's own interpreter, as the engine does, but parses with the oracle's
own ``period_of``/``minute_of`` and collects alerts from its own hook.
``datetime_timestamp`` keeps the package's former timestamp parser,
which defines which strings are timestamps."""

from __future__ import annotations

import math
import re
import statistics
from datetime import date, datetime, timezone

import numpy as np

GRID = 1440
SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


# --------------------------------------------------------------------------
# Density oracles
# --------------------------------------------------------------------------

def naive_kde(sample, bandwidth, circular=False):
    """Per-sample accumulation over the minute grid (numpy, no binning)."""
    grid = np.arange(GRID, dtype=np.float64)
    total = np.zeros(GRID, dtype=np.float64)
    for x in sample:
        dist = np.abs(grid - float(x))
        if circular:
            dist = np.minimum(dist, GRID - dist)
        total += np.exp(-0.5 * (dist / bandwidth) ** 2)
    return total / (len(sample) * bandwidth * SQRT_TWO_PI)


def naive_kde_pure(sample, bandwidth, circular=False):
    """Pure-python double loop with fsum; only sensible for small samples."""
    out = []
    for g in range(GRID):
        terms = []
        for x in sample:
            dist = abs(g - x)
            if circular:
                dist = min(dist, GRID - dist)
            terms.append(math.exp(-0.5 * (dist / bandwidth) ** 2))
        out.append(math.fsum(terms) / (len(sample) * bandwidth * SQRT_TWO_PI))
    return out


def broadcast_kde(sample, bandwidth, circular=False):
    """The package's former small-sample fit, kept verbatim as a bit-exact
    reference: the kernel over an m x 1440 broadcast of grid-to-sample
    distances, summed over the sample axis."""
    x = np.asarray(sample, dtype=np.int64)
    grid = np.arange(GRID, dtype=np.float64)
    diff = np.abs(grid[np.newaxis, :] - x[:, np.newaxis].astype(np.float64))
    if circular:
        diff = np.minimum(diff, GRID - diff)
    z = diff / bandwidth
    kernel = np.exp(-0.5 * z * z) / SQRT_TWO_PI
    return kernel.sum(axis=0) / (len(sample) * bandwidth)


def convolve_kde(sample, bandwidth, circular=False):
    """The package's former binned fit (m > 256), kept verbatim as a bit-exact
    reference: every output of the full np.convolve of the per-minute counts
    with the kernel table (exact-zero tails trimmed), sliced to the grid."""
    x = np.asarray(sample, dtype=np.int64)
    offsets = np.abs(np.arange(-(GRID - 1), GRID, dtype=np.float64))
    if circular:
        offsets = np.minimum(offsets, GRID - offsets)
    z = offsets / bandwidth
    kernel = np.exp(-0.5 * z * z) / SQRT_TWO_PI
    counts = np.bincount(x, minlength=GRID).astype(np.float64)
    nonzero = np.flatnonzero(kernel)
    lo, hi = nonzero[0], nonzero[-1]
    full = np.convolve(counts, kernel[lo : hi + 1])
    start = GRID - 1 - lo
    return full[start : start + GRID] / (len(sample) * bandwidth)


def silverman_numpy(sample):
    """The package's former bandwidth rule, kept verbatim as a bit-exact
    reference: ndarray.std and np.percentile, floored at 1.0."""
    x = np.asarray(sample, dtype=np.float64)
    sigma = float(x.std())
    q75, q25 = np.percentile(x, [75, 25])
    h = 0.9 * min(sigma, (q75 - q25) / 1.34) * len(x) ** -0.2
    return max(h, 1.0)


def _quantile(sorted_vals, q):
    pos = q * (len(sorted_vals) - 1)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def silverman_reference(sample):
    """Rule-of-thumb bandwidth via the statistics module, floored at 1.0."""
    m = len(sample)
    if m == 1:
        return 1.0
    sigma = statistics.pstdev(sample)
    vals = sorted(sample)
    iqr = _quantile(vals, 0.75) - _quantile(vals, 0.25)
    h = 0.9 * min(sigma, iqr / 1.34) * m ** (-0.2)
    return max(h, 1.0)


# --------------------------------------------------------------------------
# Window oracle
# --------------------------------------------------------------------------

_TIMESTAMP_RE = re.compile(r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z")


def datetime_timestamp(text: str) -> datetime | None:
    """The package's former timestamp parser, kept as the reference for
    which strings are timestamps: the strict regex, then an aware datetime
    from the fixed offsets. None for a string it rejected."""
    if _TIMESTAMP_RE.fullmatch(text) is None:
        return None
    try:
        return datetime(int(text[0:4]), int(text[5:7]), int(text[8:10]),
                        int(text[11:13]), int(text[14:16]), int(text[17:19]),
                        tzinfo=timezone.utc)
    except ValueError:
        return None


def period_of(ts: str) -> int:
    d = datetime.strptime(ts, "%Y-%m-%dT%H:%M:%SZ")
    year, week, _ = d.date().isocalendar()
    return year * 100 + week


def minute_of(ts: str) -> int:
    d = datetime.strptime(ts, "%Y-%m-%dT%H:%M:%SZ")
    return d.hour * 60 + d.minute


def week_serial(period: int) -> int:
    return date.fromisocalendar(period // 100, period % 100, 1).toordinal() // 7


class WindowOracle:
    """Straight-line replay of the sliding-window rules for one user.

    Mirrors the engine's per-event behavior: an event's minute is kept only
    when its week ends up used or accumulated, so a stale week keeps
    nothing. A new head week is stale when it lies more than ``max_gap``
    weeks before its list's head, or when its list already holds ``n + k``
    weeks. Profile fitting itself is left to the density oracles
    (``profile_samples`` records each refit's training sample).
    """

    def __init__(self, n: int, k: int, max_gap_weeks: int = 3):
        self.n = n
        self.k = k
        self.max_gap = max_gap_weeks
        self.events: dict[int, list[int]] = {}
        self.used: list[int] = []
        self.acc: list[int] = []
        self.profile_samples: list[list[int]] = []
        self._pending_refit = False

    def _count(self, periods) -> int:
        return sum(len(self.events.get(p, [])) for p in periods)

    def _insert(self, lst: list[int], p: int) -> list[int]:
        merged = sorted(lst + [p])
        if lst and merged[0] == p and (week_serial(lst[0]) - week_serial(p) > self.max_gap
                                       or len(merged) > self.n + self.k):
            return list(lst)
        return merged

    def feed(self, ts: str) -> None:
        p = period_of(ts)
        if (not self.used or self._count(self.used) < self.k
                or len(self.used) < self.n or p <= self.used[-1]):
            if p not in self.used:
                self.used = self._insert(self.used, p)
        else:
            if not self.acc:
                self._pending_refit = True
            if p not in self.acc:
                self.acc = self._insert(self.acc, p)
        if p in self.used + self.acc:
            self.events.setdefault(p, []).append(minute_of(ts))

        renewed = self.used[1:] + self.acc
        if (len(self.used) >= self.n and self._count(self.acc) >= 2
                and self._count(renewed) >= self.k):
            self.events.pop(self.used[0], None)
            self.used = renewed
            self.acc = []

        if self._pending_refit:
            self.profile_samples.append(
                [m for q in self.used for m in self.events.get(q, [])])
            self._pending_refit = False


class InterpretedMonitor:
    """The detector composition stepped by the public ``astd.step``, to run
    in lockstep with a ``MonitorEngine``. Both use the same interpreter, so
    what it referees is the rest of the engine's path: the timestamp parser
    (it parses with ``period_of``/``minute_of``), the action order (its
    registry's three actions record their names in call order) and the
    engine's alert plumbing (its own ``on_alert`` hook collects the alerts)."""

    def __init__(self, config):
        from astd_monitor.astd import build
        from astd_monitor.detector import detector_spec, make_registry

        config.validate()
        self._actions: list[str] = []
        self._alerts: list = []
        registry = make_registry(config, on_alert=self._alerts.append)
        for name in ("add_event", "refresh_profile", "check_event"):
            registry[name] = self._recording(name, registry[name])
        self.root = build(detector_spec(), registry)

    def _recording(self, name, action):
        def run(payload, attrs):
            self._actions.append(name)
            action(payload, attrs)
        return run

    def process(self, event_id: str, user_id: str, ts: str):
        """Step one event; return the names of the actions it ran, in order,
        and the alerts it raised."""
        from astd_monitor.astd import step
        from astd_monitor.detector import EVENT_LABEL, USER_VAR

        step(self.root, EVENT_LABEL, {USER_VAR: user_id, "event_id": event_id,
                                      "period": period_of(ts), "minute": minute_of(ts)})
        actions, alerts = self._actions[:], self._alerts[:]
        self._actions.clear()
        self._alerts.clear()
        return actions, alerts

    def entity_state(self, user_id: str):
        from astd_monitor.detector import EntityState

        return EntityState.capture(self.root.children[user_id])
