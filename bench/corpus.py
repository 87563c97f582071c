"""Seeded corpus generator for the replay benchmark.

A corpus is line-delimited JSON in the monitor's input format, written to a
file so the program under test only ever sees the generated lines. The
shape follows the acceptance-5 generator (users with a daily centre, a
normal spread around it, uniform outliers, week-ordered arrival) and adds
the knobs the workloads need: events per user-week, late arrivals,
planted malformed lines and the spread itself.

The same workload and seed always give the same bytes.
"""

from __future__ import annotations

import zlib
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_SEED = 1

# Monday of the first generated week.
BASE_DAY = np.datetime64("2022-03-07")

# One template per MalformedRecord.reason that parse_record can return.
# Each replaces one event line; ``n`` is the line number.
MALFORMED_TEMPLATES = {
    "bad JSON": '{"Id":"bad%(n)d","CreationTime":"%(ts)s","UserId":"%(user)s"',
    "not a JSON object": '["bad%(n)d","%(ts)s","%(user)s"]',
    "missing Id": '{"CreationTime":"%(ts)s","UserId":"%(user)s"}',
    "bad Id": '{"Id":%(n)d,"CreationTime":"%(ts)s","UserId":"%(user)s"}',
    "missing CreationTime": '{"Id":"bad%(n)d","UserId":"%(user)s"}',
    "missing UserId": '{"Id":"bad%(n)d","CreationTime":"%(ts)s"}',
    "bad UserId": '{"Id":"bad%(n)d","CreationTime":"%(ts)s","UserId":""}',
    "bad timestamp": '{"Id":"bad%(n)d","CreationTime":"%(badts)s","UserId":"%(user)s"}',
}
MALFORMED_REASONS = tuple(MALFORMED_TEMPLATES)


@dataclass(frozen=True)
class Workload:
    """Corpus shape of one benchmark workload; ``why`` says what it stresses."""

    name: str
    why: str
    users: int
    weeks: int
    events_per_user_week: float  # Poisson mean per user and arrival week
    spread_minutes: float        # standard deviation around each user's centre
    outlier_share: float         # events at a uniformly random minute
    late_share: float            # events stamped 1-6 weeks before their arrival week
    malformed_share: float       # lines replaced by a planted malformed record
    checkpoint_week: int         # the run checkpoints before this arrival week
    pinned_digest: str           # alert-stream digest at DEFAULT_SEED, uninterrupted run


WORKLOADS = {w.name: w for w in (
    Workload(
        name="dense",
        why=("Few users with 150 events per user-week for 12 weeks, in week order: "
             "refits are rare, so parsing, astd dispatch and add_event dominate."),
        users=50, weeks=12, events_per_user_week=150.0, spread_minutes=45.0,
        outlier_share=0.005, late_share=0.0, malformed_share=0.001,
        checkpoint_week=8,
        pinned_digest="0fda5c3927dd167bdf176814fd8cba16a3c0c869caf84fb53b5079d0dfecfd2f",
    ),
    Workload(
        name="sparse",
        why=("Thousands of users at about 1.2 events per user-week reach k late, "
             "so refits on small windows (kde direct path) and 1440-float "
             "snapshot profiles dominate."),
        users=2000, weeks=14, events_per_user_week=1.2, spread_minutes=45.0,
        outlier_share=0.005, late_share=0.0, malformed_share=0.001,
        checkpoint_week=9,
        pinned_digest="203d4d76ac40eb83cde0fa214a5ca3d420b7d3278a46d46c90c277c9da0c30ea",
    ),
    Workload(
        name="disorder",
        why=("Wide daily spread (sd 3 h), 20% of events 1-6 weeks late, 1% malformed: "
             "stale and interior add_event branches, refits on 1.3% of events (2/3 "
             "untrimmed binned kde), 15% alerts."),
        users=100, weeks=12, events_per_user_week=60.0, spread_minutes=180.0,
        outlier_share=0.005, late_share=0.2, malformed_share=0.01,
        checkpoint_week=8,
        pinned_digest="1cdf110886bdee2d168358e2c7bda4856499a0c36681feb9cb7b90e92800107c",
    ),
)}


@dataclass(frozen=True)
class Manifest:
    """What the generator wrote, for the correctness gate."""

    path: Path
    lines: int
    cut_line: int               # lines before the checkpoint week
    users: tuple[str, ...]
    malformed: dict[str, int]   # planted count per MalformedRecord.reason

    @property
    def malformed_total(self) -> int:
        return sum(self.malformed.values())


def generate(workload: Workload, seed: int, path: Path) -> Manifest:
    """Write the corpus of ``workload`` for ``seed`` to ``path``."""
    rng = np.random.default_rng([seed, zlib.crc32(workload.name.encode())])
    users = tuple(f"user-{i:05d}" for i in range(workload.users))
    centers = rng.integers(360, 1200, size=workload.users)
    days = [str(BASE_DAY + d) for d in range(7 * workload.weeks)]
    # Malformed lines sit at a fixed stride and cycle through every reason,
    # so each reason is planted and the counts are exact.
    stride = round(1 / workload.malformed_share)
    planted: Counter[str] = Counter()
    line = 0
    cut_line = 0
    with open(path, "w", encoding="utf-8") as fh:
        for week in range(workload.weeks):
            if week == workload.checkpoint_week:
                cut_line = line
            per_user = rng.poisson(workload.events_per_user_week, size=workload.users)
            uidx = np.repeat(np.arange(workload.users), per_user)
            rng.shuffle(uidx)
            count = uidx.size
            lag = rng.integers(1, 7, size=count)
            lag = np.where((rng.random(count) < workload.late_share) & (lag <= week), lag, 0)
            day = (week - lag) * 7 + rng.integers(0, 7, size=count)
            minute = np.where(
                rng.random(count) < workload.outlier_share,
                rng.integers(0, 1440, size=count),
                np.clip(rng.normal(centers[uidx], workload.spread_minutes)
                        .astype(np.int64), 0, 1439),
            )
            hour, mm = np.divmod(minute, 60)
            sec = rng.integers(0, 60, size=count)
            rows = []
            for i in range(count):
                line += 1
                ts = "%sT%02d:%02d:%02dZ" % (days[day[i]], hour[i], mm[i], sec[i])
                user = users[uidx[i]]
                if line % stride:
                    rows.append('{"Id":"ev%d","CreationTime":"%s","UserId":"%s"}'
                                % (line, ts, user))
                    continue
                reason = MALFORMED_REASONS[(line // stride) % len(MALFORMED_REASONS)]
                planted[reason] += 1
                rows.append(MALFORMED_TEMPLATES[reason] % {
                    "n": line, "ts": ts, "user": user, "badts": ts.replace("T", " ")})
            if rows:
                fh.write("\n".join(rows) + "\n")
    return Manifest(path=path, lines=line, cut_line=cut_line, users=users,
                    malformed={r: planted[r] for r in MALFORMED_REASONS})
