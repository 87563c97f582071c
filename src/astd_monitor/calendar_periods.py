"""Calendar arithmetic for week-keyed training windows.

A *period* is an ISO calendar week encoded as an int ``YYYYWW`` (ISO year
times 100 plus ISO week number, 1..53). Encoded ints sort chronologically,
but differences between them are meaningless across year boundaries:
202301 - 202252 is 49 even though the weeks are adjacent. Use
:func:`week_distance` for any gap computation.

Timestamps are ingested in the exact textual form ``YYYY-mm-ddTHH:MM:ssZ``
(UTC only) and parsed once, straight into the ``(period, minute)`` pair the
detector keys on; no :class:`datetime.datetime` is built per event. Every text
is answered from tables: the validated days, every ``HH:MM`` and every seconds
field. A day not yet in the table is checked once (ASCII digits, then
:class:`datetime.date`) and added, so each key passed the full check.
"""

from __future__ import annotations

import re
from datetime import date
from typing import Iterable, Mapping, Sequence

Period = int
MinuteOfDay = int

DEFAULT_MAX_GAP_WEEKS = 3

_DAY_RE = re.compile(r"\d{4}-\d{2}-\d{2}", re.ASCII)

# ISO week of each validated ``YYYY-mm-dd`` prefix. A pure function of its
# key, so sharing it across engines is safe; cleared whenever it fills, so
# it stays bounded whatever the input's spread of days.
DAY_CACHE_SIZE = 4096
_week_of_day: dict[str, Period] = {}

# Every ``HH:MM`` clock time to its minute of day, and every seconds field.
_TWO_DIGITS = [f"{n:02d}" for n in range(60)]
_MINUTE_OF_CLOCK = {f"{hh}:{mm}": 60 * h + m for h, hh in enumerate(_TWO_DIGITS[:24])
                    for m, mm in enumerate(_TWO_DIGITS)}
_SECONDS = frozenset(_TWO_DIGITS)


class TimestampError(ValueError):
    """Raised for text that is not a valid UTC timestamp."""


def _week_of_new_day(day: str) -> Period | None:
    """The ISO week of a valid ``YYYY-mm-dd`` day, now cached; else None."""
    if _DAY_RE.fullmatch(day) is None:
        return None
    try:
        iso_year, iso_week, _ = date(int(day[:4]), int(day[5:7]), int(day[8:])).isocalendar()
    except ValueError:
        return None
    if len(_week_of_day) >= DAY_CACHE_SIZE:
        _week_of_day.clear()
    period = _week_of_day[day] = iso_year * 100 + iso_week
    return period


def parse_timestamp(text: str) -> tuple[Period, MinuteOfDay]:
    """Parse ``YYYY-mm-ddTHH:MM:ssZ`` into its ISO week and minute of day.

    The format is enforced strictly (ASCII digits, zero padding, trailing
    ``Z``), and so are the calendar and clock ranges (no Feb 30, hour 24 or
    second 60); any deviation raises :class:`TimestampError`. Seconds are
    validated, then truncated.
    """
    if len(text) == 20 and text[10] == "T" and text[16] == ":" and text[19] == "Z":
        period = _week_of_day.get(text[:10]) or _week_of_new_day(text[:10])
        minute = _MINUTE_OF_CLOCK.get(text[11:16])
        if period is not None and minute is not None and text[17:19] in _SECONDS:
            return period, minute
    raise TimestampError(f"invalid timestamp {text!r}, expected YYYY-mm-ddTHH:MM:ssZ")


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
