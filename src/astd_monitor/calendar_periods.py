"""Calendar arithmetic for week-keyed training windows.

A *period* is an ISO calendar week encoded as an int ``YYYYWW`` (ISO year
times 100 plus ISO week number, 1..53). Encoded ints sort chronologically,
but differences between them are meaningless across year boundaries:
202301 - 202252 is 49 even though the weeks are adjacent. Use
:func:`week_distance` for any gap computation.

Timestamps are ingested in the exact textual form ``YYYY-mm-ddTHH:MM:ssZ``
(UTC only) and parsed once, straight into the ``(period, minute)`` pair the
detector keys on; no :class:`datetime.datetime` is built per event.
"""

from __future__ import annotations

import re
from datetime import date
from typing import Iterable, Mapping, Sequence

Period = int
MinuteOfDay = int

DEFAULT_MAX_GAP_WEEKS = 3

_TIMESTAMP_RE = re.compile(r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z", re.ASCII)

# ISO week of each validated ``YYYY-mm-dd`` prefix. A pure function of its
# key, so sharing it across engines is safe; cleared whenever it fills, so
# it stays bounded whatever the input's spread of days.
DAY_CACHE_SIZE = 4096
_week_of_day: dict[str, Period] = {}


class TimestampError(ValueError):
    """Raised for text that is not a valid UTC timestamp."""


def parse_timestamp(text: str) -> tuple[Period, MinuteOfDay]:
    """Parse ``YYYY-mm-ddTHH:MM:ssZ`` into its ISO week and minute of day.

    The format is enforced strictly (ASCII digits, zero padding, trailing
    ``Z``), and so are the calendar and clock ranges (no Feb 30, hour 24 or
    second 60); any deviation raises :class:`TimestampError`. Seconds are
    validated, then truncated.
    """
    if _TIMESTAMP_RE.fullmatch(text) is None:
        raise TimestampError(f"invalid timestamp {text!r}, expected YYYY-mm-ddTHH:MM:ssZ")
    # Every field sits at a fixed offset: ``\d`` matches one code point.
    day = text[:10]
    period = _week_of_day.get(day)
    if period is None:
        try:
            iso_year, iso_week, _ = date(int(text[0:4]), int(text[5:7]),
                                         int(text[8:10])).isocalendar()
        except ValueError as exc:
            raise TimestampError(f"invalid timestamp {text!r}: {exc}") from exc
        period = iso_year * 100 + iso_week
        if len(_week_of_day) >= DAY_CACHE_SIZE:
            _week_of_day.clear()
        _week_of_day[day] = period  # only days that passed ``date``
    hour, minute = int(text[11:13]), int(text[14:16])
    if hour > 23 or minute > 59 or int(text[17:19]) > 59:
        raise TimestampError(f"invalid timestamp {text!r}: time out of range")
    return period, hour * 60 + minute


def period_start(period: Period) -> date:
    """Monday of the encoded week. Raises ValueError for invalid encodings."""
    return date.fromisocalendar(period // 100, period % 100, 1)


def week_distance(earlier: Period, later: Period) -> int:
    """Signed number of calendar weeks from ``earlier`` to ``later``.

    Computed on week serials, so it is exact across year boundaries:
    week_distance(202252, 202301) == 1.
    """
    return (period_start(later) - period_start(earlier)).days // 7


def count_events(
    events_by_week: Mapping[Period, Sequence[MinuteOfDay]],
    periods: Iterable[Period],
) -> int:
    """Total number of recorded minutes across ``periods``, each a key of
    ``events_by_week``."""
    return sum(len(events_by_week[p]) for p in periods)
