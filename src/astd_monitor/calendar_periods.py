"""Calendar arithmetic for week-keyed training windows.

A *period* is an ISO calendar week encoded as an int ``YYYYWW`` (ISO year
times 100 plus ISO week number, 1..53). Encoded ints sort chronologically,
but differences between them are meaningless across year boundaries:
202301 - 202252 is 49 even though the weeks are adjacent. Use
:func:`week_distance` for any gap computation.

Timestamps are ingested in the exact textual form ``YYYY-mm-ddTHH:MM:ssZ``
(UTC only) and handled internally as aware :class:`datetime.datetime`.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from datetime import date, datetime, timezone
from typing import Iterable, Mapping, Sequence

Period = int
MinuteOfDay = int

DEFAULT_MAX_GAP_WEEKS = 3

_TIMESTAMP_RE = re.compile(r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z")


class TimestampError(ValueError):
    """Raised for text that is not a valid UTC timestamp."""


def parse_timestamp(text: str) -> datetime:
    """Parse ``YYYY-mm-ddTHH:MM:ssZ`` into an aware UTC datetime.

    The format is enforced strictly (zero padding, trailing ``Z``); any
    deviation raises :class:`TimestampError`.
    """
    if _TIMESTAMP_RE.fullmatch(text) is None:
        raise TimestampError(f"invalid timestamp {text!r}, expected YYYY-mm-ddTHH:MM:ssZ")
    # Every field sits at a fixed offset: ``\d`` matches one code point.
    try:
        return datetime(int(text[0:4]), int(text[5:7]), int(text[8:10]),
                        int(text[11:13]), int(text[14:16]), int(text[17:19]),
                        tzinfo=timezone.utc)
    except ValueError as exc:
        raise TimestampError(f"invalid timestamp {text!r}: {exc}") from exc


def compute_period(ts: datetime) -> Period:
    """Return the ISO year-week of ``ts`` encoded as YYYYWW."""
    iso_year, iso_week, _ = ts.isocalendar()
    return iso_year * 100 + iso_week


def compute_minute(ts: datetime) -> MinuteOfDay:
    """Return the minute of the day in [0, 1439]; seconds are truncated."""
    return ts.hour * 60 + ts.minute


def period_start(period: Period) -> date:
    """Monday of the encoded week. Raises ValueError for invalid encodings."""
    return date.fromisocalendar(period // 100, period % 100, 1)


def week_distance(earlier: Period, later: Period) -> int:
    """Signed number of calendar weeks from ``earlier`` to ``later``.

    Computed on week serials, so it is exact across year boundaries:
    week_distance(202252, 202301) == 1.
    """
    return (period_start(later) - period_start(earlier)).days // 7


def insert_period(
    periods: Sequence[Period],
    period: Period,
    max_gap_weeks: int = DEFAULT_MAX_GAP_WEEKS,
) -> list[Period]:
    """Insert ``period`` into a strictly ascending list, rejecting stale heads.

    Returns a new list; the input is never modified. ``period`` must not
    already be present (callers check membership first). When the period
    would become the new head of a non-empty list and lies more than
    ``max_gap_weeks`` weeks before the current head, it is considered a
    late straggler and the list is returned unchanged. Interior, tail and
    empty-list insertions are always accepted.
    """
    at = bisect_right(periods, period)
    if at == 0 and periods and week_distance(period, periods[0]) > max_gap_weeks:
        return list(periods)
    out = list(periods)
    out.insert(at, period)
    return out


def count_events(
    events_by_week: Mapping[Period, Sequence[MinuteOfDay]],
    periods: Iterable[Period],
) -> int:
    """Total number of recorded minutes across ``periods``.

    Periods absent from the mapping contribute zero.
    """
    return sum(len(events_by_week.get(p, ())) for p in periods)
