"""Announcement timelines, period bucketing, and plot-ready count tables.

Periods are half-open intervals keyed to announcement dates at midnight UTC:
a tweet belongs to period k when boundary_k <= t < boundary_{k+1}; anything
before the first announcement is the pre-period, anything on or after the
last boundary falls in the final (open-ended) period. So a tweet's period,
daily row and final-cutoff test depend only on its UTC date, and the report
reads every table off one per-day histogram (``day_counts``). Recall and
onset events ride along as annotations and never bound a period.

An ``EventTimeline`` is valid by construction (``validate_timeline``), so its
boundaries strictly increase and no function that takes one checks it again.
"""
from __future__ import annotations

import csv
import io
import re
from bisect import bisect_right
from datetime import date
from typing import Iterable, Iterator, Sequence

from .corpus import TweetRecord, _is_unicode, parse_date
from .errors import TimelineError
from .value import Value

ILLNESS_ONSET = "illness_onset"
ANNOUNCEMENT = "announcement"
RECALL = "recall"
FINAL_ANNOUNCEMENT = "final_announcement"
EVENT_KINDS = (ILLNESS_ONSET, ANNOUNCEMENT, RECALL, FINAL_ANNOUNCEMENT)
BOUNDARY_KINDS = frozenset({ANNOUNCEMENT, FINAL_ANNOUNCEMENT})

TIMELINE_HEADER = ("date", "kind", "new_ill", "cumulative_ill", "states", "note")
# A count cell: empty, or a non-negative integer in ASCII digits.
_COUNT_SHAPE = re.compile(r"[0-9]*")


class EventRecord(Value):
    """One dated event: an official announcement, a recall, or the onset."""

    __slots__ = _fields = ("date", "kind", "new_ill", "cumulative_ill", "states", "note")

    def __init__(self, date: date, kind: str, new_ill: int | None = None,
                 cumulative_ill: int | None = None, states: int | None = None, note: str = ""):
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}")
        for name, value in (("new_ill", new_ill), ("cumulative_ill", cumulative_ill),
                            ("states", states)):
            if value is not None and value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")
        self._set_slots(date, kind, new_ill, cumulative_ill, states, note)


class EventTimeline(Value):
    """Date-ordered events that pass validate_timeline: construction raises
    TimelineError naming every violation on one line, so each timeline is
    valid."""

    # boundaries: the announcement dates, strictly increasing, which bound
    # the periods of period_counts
    __slots__ = ("events", "boundaries")
    _fields = ("events",)

    def __init__(self, events: tuple[EventRecord, ...]):
        self._set_slots(events, tuple(e.date for e in events if e.kind in BOUNDARY_KINDS))
        violations = validate_timeline(self)
        if violations:
            raise TimelineError("invalid timeline: " + "; ".join(violations))

    def announcements(self) -> tuple[EventRecord, ...]:
        return tuple(e for e in self.events if e.kind in BOUNDARY_KINDS)


class PeriodRow(Value):
    """One aggregation row; start None means pre-period, end None means open."""

    __slots__ = _fields = ("start", "end", "count")

    def __init__(self, start: date | None, end: date | None, count: int):
        self._set_slots(start, end, count)


class PeriodReport(Value):
    """Tweet counts per announcement period, one row per period in date
    order, the pre-period first (see ``period_counts``)."""

    __slots__ = _fields = ("rows",)

    def __init__(self, rows: tuple[PeriodRow, ...]):
        self._set_slots(rows)

    @property
    def total(self) -> int:
        return sum(row.count for row in self.rows)


# The built-in fixture, exactly the CSV that ``timeline --print-builtin``
# writes: the CDC timeline of the 2015 cucumber-linked Salmonella outbreak,
# with cumulative case counts per announcement.
BUILTIN_CDC_TIMELINE_CSV = """\
date,kind,new_ill,cumulative_ill,states,note
2015-07-03,illness_onset,,,,estimated first illness onset (identified retrospectively)
2015-09-04,announcement,,285,27,initial public announcement
2015-09-04,recall,,,,Andrew & Williamson Fresh Produce recall (Limited Edition brand)
2015-09-09,announcement,56,341,30,
2015-09-11,recall,,,,Custom Produce Sales recall (Fat Boy brand)
2015-09-15,announcement,77,418,31,
2015-09-22,announcement,140,558,33,
2015-09-29,announcement,113,671,34,
2015-10-06,announcement,61,732,35,
2015-10-14,announcement,35,767,36,
2015-11-19,announcement,71,838,38,
2016-01-26,announcement,50,888,39,
2016-03-18,final_announcement,19,907,40,
"""


def builtin_cdc_timeline() -> EventTimeline:
    """The built-in fixture, read and validated like any timeline file."""
    return parse_timeline_file(BUILTIN_CDC_TIMELINE_CSV.splitlines())


def day_counts(tweets: Iterable[TweetRecord]) -> dict[date, int]:
    """Tweets per calendar day of their timestamp, which ``parse_timestamp``
    always returns in UTC."""
    days: dict[date, int] = {}
    for tweet in tweets:
        day = tweet.timestamp.date()
        days[day] = days.get(day, 0) + 1
    return days


def period_counts(timeline: EventTimeline, days: dict[date, int]) -> PeriodReport:
    """Count a day histogram's tweets per period, pre-period first; every day
    lands in exactly one row, so the rows sum to the histogram's total."""
    bounds = timeline.boundaries
    counts = [0] * (len(bounds) + 1)
    for day, count in days.items():
        counts[bisect_right(bounds, day)] += count
    # row k runs from boundary k-1 (None: the pre-period) to boundary k (None: open)
    return PeriodReport(rows=tuple(map(PeriodRow, [None, *bounds], [*bounds, None], counts)))


def bucket_counts(timeline: EventTimeline, tweets: Iterable[TweetRecord]) -> PeriodReport:
    """Count tweets per period (``period_counts`` of their ``day_counts``)."""
    return period_counts(timeline, day_counts(tweets))


def validate_timeline(timeline: EventTimeline) -> list[str]:
    """Check ordering, cumulative monotonicity, and new/cumulative arithmetic.

    Returns all violations found (empty list means the timeline is valid).
    ``EventTimeline`` runs it on itself as it is built.
    """
    violations: list[str] = []
    events = timeline.events
    if not events:
        return ["timeline has no events"]
    bounds = timeline.boundaries
    if not bounds:
        violations.append("timeline has no announcement events")

    for prev, cur in zip(events, events[1:]):
        if cur.date < prev.date:
            violations.append(f"events out of order: {cur.date} after {prev.date}")

    for prev, cur in zip(bounds, bounds[1:]):
        if cur <= prev:
            violations.append(f"announcement dates must strictly increase: {prev} then {cur}")

    prev_cum: int | None = None
    prev_date: date | None = None
    for event in events:
        if event.cumulative_ill is None:
            continue
        if prev_cum is not None:
            if event.cumulative_ill < prev_cum:
                violations.append(
                    f"cumulative illnesses decrease from {prev_cum} to "
                    f"{event.cumulative_ill} at {event.date}"
                )
            if event.new_ill is not None and prev_cum + event.new_ill != event.cumulative_ill:
                violations.append(
                    f"arithmetic mismatch at {event.date}: {prev_cum} + {event.new_ill} "
                    f"!= {event.cumulative_ill} (previous cumulative at {prev_date})"
                )
        prev_cum = event.cumulative_ill
        prev_date = event.date
    return violations


def daily_frequency(days: dict[date, int], start: date | None = None,
                    end: date | None = None) -> list[tuple[date, int]]:
    """Per-calendar-day tweet counts over [start, end] from a ``day_counts``
    histogram, zero-filled. An unset bound is the histogram's first or last
    day; with no day to take, or with end before start, there are no rows."""
    start = start or min(days, default=None)
    end = end or max(days, default=None)
    if start is None or end is None:
        return []
    # Step over day ordinals: adding a day to 9999-12-31 would overflow.
    return [(day, days.get(day, 0))
            for day in map(date.fromordinal, range(start.toordinal(), end.toordinal() + 1))]


def parse_timeline_file(lines: Iterable[str]) -> EventTimeline:
    """Read a timeline from CSV text with the canonical header row.

    Columns: date (YYYY-MM-DD), kind, new_ill, cumulative_ill, states
    (integers in ASCII digits, or empty), note (free text). Raises
    TimelineError on any malformed row, including one holding an
    undecodable byte (read with ``errors="surrogateescape"``) or a lone
    surrogate, and on a timeline that fails validate_timeline, listing
    every violation.
    """
    rows = _unicode_rows(lines)
    try:
        _, header = next(rows)
    except StopIteration:
        raise TimelineError("timeline file is empty") from None
    if tuple(h.strip() for h in header) != TIMELINE_HEADER:
        raise TimelineError(
            f"timeline header must be {','.join(TIMELINE_HEADER)}, got {','.join(header)}"
        )
    events = []
    for row_no, row in rows:
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(TIMELINE_HEADER):
            raise TimelineError(f"row {row_no}: expected {len(TIMELINE_HEADER)} columns")
        raw_date, kind, new_ill, cum_ill, states, note = (cell.strip() for cell in row)
        try:
            event_date = parse_date(raw_date)
        except ValueError:
            raise TimelineError(f"row {row_no}: bad date {raw_date!r}") from None
        for cell in (new_ill, cum_ill, states):
            if not _COUNT_SHAPE.fullmatch(cell):
                raise TimelineError(f"row {row_no}: bad count {cell!r}")
        try:
            event = EventRecord(
                date=event_date,
                kind=kind,
                new_ill=int(new_ill) if new_ill else None,
                cumulative_ill=int(cum_ill) if cum_ill else None,
                states=int(states) if states else None,
                note=note,
            )
        except ValueError as exc:
            raise TimelineError(f"row {row_no}: {exc}") from None
        events.append(event)
    return EventTimeline(events=tuple(events))


def _unicode_rows(lines: Iterable[str]) -> Iterator[tuple[int, list[str]]]:
    """CSV rows numbered from 1; a row that no UTF-8 can encode, or that the
    csv module refuses (a field over its size limit), is an error."""
    row_no = 0
    try:
        for row_no, row in enumerate(csv.reader(lines), start=1):
            if not all(map(_is_unicode, row)):
                raise TimelineError(f"row {row_no}: invalid UTF-8")
            yield row_no, row
    except csv.Error as exc:
        raise TimelineError(f"row {row_no + 1}: {exc}") from None


def _csv_text(header: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """The header row, then the rows, as CSV text with ``\\n`` line ends."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def format_period_report(report: PeriodReport) -> str:
    """CSV table: period_start, period_end, tweet_count."""
    return _csv_text(("period_start", "period_end", "tweet_count"), (
        [
            "" if row.start is None else row.start.isoformat(),
            "" if row.end is None else row.end.isoformat(),
            row.count,
        ]
        for row in report.rows
    ))


def format_daily_counts(series: Sequence[tuple[date, int]]) -> str:
    """CSV table: date, count."""
    return _csv_text(("date", "count"), ([day.isoformat(), count] for day, count in series))
