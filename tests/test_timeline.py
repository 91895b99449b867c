import hashlib
import random
from datetime import date, datetime, timedelta, timezone

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from outbreakmon.cli import EXIT_OK, main
from outbreakmon.corpus import TweetRecord
from outbreakmon.errors import TimelineError
from outbreakmon.timeline import (
    ANNOUNCEMENT,
    BUILTIN_CDC_TIMELINE_CSV,
    FINAL_ANNOUNCEMENT,
    ILLNESS_ONSET,
    RECALL,
    EventRecord,
    EventTimeline,
    bucket_counts,
    builtin_cdc_timeline,
    daily_frequency,
    day_counts,
    format_daily_counts,
    format_period_report,
    parse_timeline_file,
    period_counts,
    validate_timeline,
)

from oracles import brute_bucket, brute_daily
from synthdata import ANNOUNCEMENT_DATES, CUMULATIVE_STEPS, TABLE_COUNTS, table_replay_records


def utc(y, m, d, h=0, mi=0, s=0):
    return datetime(y, m, d, h, mi, s, tzinfo=timezone.utc)


def record(i, instant):
    return TweetRecord(id=f"t{i}", timestamp=instant, text="salmonella")


def period_of(timeline, instant):
    """Index of the bucket_counts row that one tweet at the instant lands
    in: 0 is the pre-period, k the period opened by announcement k."""
    counts = [row.count for row in bucket_counts(timeline, [record(0, instant)]).rows]
    assert sum(counts) == 1
    return counts.index(1)


def violations_of(*events):
    """The violations in the TimelineError that building a timeline of
    ``events`` raises."""
    with pytest.raises(TimelineError) as caught:
        EventTimeline(events=events)
    header, _, violations = str(caught.value).partition(": ")
    assert header == "invalid timeline"
    return violations.split("; ")


class TestBuiltinTimeline:
    def test_event_census(self):
        timeline = builtin_cdc_timeline()
        assert len(timeline.events) == 13
        kinds = [e.kind for e in timeline.events]
        assert kinds.count(ILLNESS_ONSET) == 1
        assert kinds.count(ANNOUNCEMENT) == 9
        assert kinds.count(FINAL_ANNOUNCEMENT) == 1
        assert kinds.count(RECALL) == 2

    def test_second_announcement_cumulative(self):
        timeline = builtin_cdc_timeline()
        second = [e for e in timeline.announcements()][1]
        assert second.date == date(2015, 9, 9)
        assert second.cumulative_ill == 341
        assert second.new_ill == 56
        assert 285 + 56 == 341

    def test_final_cumulative(self):
        final = builtin_cdc_timeline().announcements()[-1]
        assert final.kind == FINAL_ANNOUNCEMENT
        assert final.cumulative_ill == 907
        assert final.states == 40

    def test_onset_uses_2015(self):
        onset = [e for e in builtin_cdc_timeline().events if e.kind == ILLNESS_ONSET][0]
        assert onset.date == date(2015, 7, 3)

    def test_recall_dates(self):
        recalls = [e.date for e in builtin_cdc_timeline().events if e.kind == RECALL]
        assert recalls == [date(2015, 9, 4), date(2015, 9, 11)]

    def test_announcement_dates_match_fixture_table(self):
        timeline = builtin_cdc_timeline()
        assert tuple(e.date for e in timeline.announcements()) == ANNOUNCEMENT_DATES
        assert timeline.boundaries == ANNOUNCEMENT_DATES

    def test_validates_clean(self):
        assert validate_timeline(builtin_cdc_timeline()) == []

    def test_all_cumulative_arithmetic_identities(self):
        # every adjacent pair, 285+56=341 through 888+19=907
        for prev_cum, new, cum in CUMULATIVE_STEPS:
            assert prev_cum + new == cum


class TestAssignPeriod:
    """The period a single tweet is assigned to, read off bucket_counts."""

    def test_boundary_instant_opens_its_period(self):
        assert period_of(builtin_cdc_timeline(), utc(2015, 9, 4)) == 1

    def test_before_initial_announcement_is_pre_period(self):
        assert period_of(builtin_cdc_timeline(), utc(2015, 8, 15, 10)) == 0

    def test_last_second_before_next_boundary(self):
        assert period_of(builtin_cdc_timeline(), utc(2015, 9, 8, 23, 59, 59)) == 1

    def test_final_period_is_open_ended(self):
        timeline = builtin_cdc_timeline()
        assert period_of(timeline, utc(2016, 3, 18)) == 10
        assert period_of(timeline, utc(2019, 1, 1)) == 10

    def test_monotone_in_time(self):
        timeline = builtin_cdc_timeline()
        rng = random.Random(5)
        instants = sorted(
            utc(2015, 7, 1) + timedelta(seconds=rng.randrange(0, 40_000_000))
            for _ in range(300)
        )
        periods = [period_of(timeline, t) for t in instants]
        assert periods == sorted(periods)

    # A timeline that could not bound periods cannot be built.
    def test_timeline_without_announcements_rejected(self):
        assert violations_of(EventRecord(date=date(2015, 7, 3), kind=ILLNESS_ONSET)) \
            == ["timeline has no announcement events"]

    def test_unordered_announcements_rejected(self):
        assert violations_of(EventRecord(date=date(2015, 9, 9), kind=ANNOUNCEMENT),
                             EventRecord(date=date(2015, 9, 4), kind=ANNOUNCEMENT)) == [
            "events out of order: 2015-09-04 after 2015-09-09",
            "announcement dates must strictly increase: 2015-09-09 then 2015-09-04",
        ]


class TestBucketCounts:
    def test_empty_collection(self):
        report = bucket_counts(builtin_cdc_timeline(), [])
        assert all(row.count == 0 for row in report.rows)
        assert len(report.rows) == 11

    def test_partition_property(self):
        rng = random.Random(11)
        tweets = [
            record(i, utc(2015, 7, 1) + timedelta(seconds=rng.randrange(0, 40_000_000)))
            for i in range(500)
        ]
        report = bucket_counts(builtin_cdc_timeline(), tweets)
        assert report.total == len(tweets)

    def test_table_replay_counts(self):
        tweets = table_replay_records()
        report = bucket_counts(builtin_cdc_timeline(), tweets)
        assert tuple(row.count for row in report.rows) == TABLE_COUNTS

    def test_rows_carry_boundary_dates(self):
        report = bucket_counts(builtin_cdc_timeline(), [])
        assert report.rows[0].start is None
        assert report.rows[0].end == date(2015, 9, 4)
        assert report.rows[1].start == date(2015, 9, 4)
        assert report.rows[1].end == date(2015, 9, 9)
        assert report.rows[-1].start == date(2016, 3, 18)
        assert report.rows[-1].end is None

    def test_agrees_with_brute_scan(self):
        rng = random.Random(21)
        tweets = [
            record(i, utc(2015, 6, 1) + timedelta(seconds=rng.randrange(0, 45_000_000)))
            for i in range(2000)
        ]
        report = bucket_counts(builtin_cdc_timeline(), tweets)
        expected = brute_bucket(ANNOUNCEMENT_DATES, [t.timestamp for t in tweets])
        assert [row.count for row in report.rows] == expected


class TestValidateTimeline:
    """validate_timeline runs as an EventTimeline is built: an invalid one
    raises a TimelineError naming each violation."""

    def _violations(self, *rows):
        return violations_of(*(
            EventRecord(date=d, kind=ANNOUNCEMENT, new_ill=new, cumulative_ill=cum)
            for d, new, cum in rows
        ))

    def test_monotonicity_violation(self):
        violations = self._violations(
            (date(2015, 9, 4), None, 341), (date(2015, 9, 9), None, 300)
        )
        assert violations == ["cumulative illnesses decrease from 341 to 300 at 2015-09-09"]

    def test_arithmetic_violation(self):
        violations = self._violations(
            (date(2015, 9, 4), None, 285), (date(2015, 9, 9), 50, 341)
        )
        assert violations == ["arithmetic mismatch at 2015-09-09: 285 + 50 != 341 "
                              "(previous cumulative at 2015-09-04)"]

    def test_out_of_order_dates(self):
        violations = self._violations(
            (date(2015, 9, 9), None, 285), (date(2015, 9, 4), 56, 341)
        )
        assert "events out of order: 2015-09-04 after 2015-09-09" in violations

    def test_duplicate_announcement_dates(self):
        violations = self._violations(
            (date(2015, 9, 4), None, 285), (date(2015, 9, 4), 56, 341)
        )
        assert violations == [
            "announcement dates must strictly increase: 2015-09-04 then 2015-09-04"]

    def test_reports_all_violations_not_just_first(self):
        violations = self._violations(
            (date(2015, 9, 9), None, 341),
            (date(2015, 9, 4), 10, 300),
        )
        assert len(violations) == 4

    def test_empty_timeline(self):
        assert violations_of() == ["timeline has no events"]

    def test_perturbing_any_cumulative_by_one_is_caught(self):
        base = builtin_cdc_timeline()
        for index, event in enumerate(base.events):
            if event.cumulative_ill is None:
                continue
            for delta in (-1, +1):
                mutated = list(base.events)
                mutated[index] = EventRecord(event.date, event.kind, event.new_ill,
                                             event.cumulative_ill + delta, event.states,
                                             event.note)
                assert violations_of(*mutated), (
                    f"perturbation at index {index} delta {delta} not caught"
                )


class TestDailyFrequency:
    def test_zero_fill(self):
        tweets = [record(i, utc(2015, 9, 4, 10)) for i in range(3)]
        series = daily_frequency(day_counts(tweets), date(2015, 9, 3), date(2015, 9, 5))
        assert series == [
            (date(2015, 9, 3), 0),
            (date(2015, 9, 4), 3),
            (date(2015, 9, 5), 0),
        ]

    def test_empty_input(self):
        series = daily_frequency({}, date(2015, 9, 1), date(2015, 9, 10))
        assert len(series) == 10
        assert all(count == 0 for _, count in series)

    def test_inverted_interval_gives_no_rows(self):
        assert daily_frequency({}, date(2015, 9, 2), date(2015, 9, 1)) == []

    def test_an_unset_bound_is_the_histograms_first_or_last_day(self):
        days = {date(2015, 9, 4): 2, date(2015, 9, 6): 1}
        assert daily_frequency(days) == [
            (date(2015, 9, 4), 2), (date(2015, 9, 5), 0), (date(2015, 9, 6), 1)]
        assert daily_frequency(days, start=date(2015, 9, 5)) == [
            (date(2015, 9, 5), 0), (date(2015, 9, 6), 1)]
        assert daily_frequency(days, end=date(2015, 9, 5)) == [
            (date(2015, 9, 4), 2), (date(2015, 9, 5), 0)]

    def test_no_bounds_and_no_days_give_no_rows(self):
        assert daily_frequency({}) == []
        assert daily_frequency({}, start=date(2015, 9, 1)) == []
        assert daily_frequency({}, end=date(2015, 9, 1)) == []

    def test_one_bound_beyond_the_data_gives_no_rows(self):
        days = {date(2015, 9, 4): 2, date(2015, 9, 6): 1}
        assert daily_frequency(days, start=date(2015, 9, 7)) == []
        assert daily_frequency(days, end=date(2015, 9, 3)) == []

    def test_series_may_end_on_the_last_representable_day(self):
        series = daily_frequency({}, date(9999, 12, 30), date.max)
        assert series == [(date(9999, 12, 30), 0), (date.max, 0)]

    def test_figure_range_has_fifty_days(self):
        series = daily_frequency({}, date(2015, 9, 1), date(2015, 10, 20))
        assert len(series) == 50

    def test_agrees_with_brute_scan(self):
        rng = random.Random(31)
        tweets = [
            record(i, utc(2015, 9, 1) + timedelta(seconds=rng.randrange(0, 86400 * 50)))
            for i in range(10_000)
        ]
        start, end = date(2015, 9, 1), date(2015, 10, 20)
        series = daily_frequency(day_counts(tweets), start, end)
        assert series == brute_daily([t.timestamp for t in tweets], start, end)
        inside = sum(1 for t in tweets if start <= t.timestamp.date() <= end)
        assert sum(c for _, c in series) == inside


_EDGE_DAYS = (date.min, date(2015, 9, 4), date(2016, 3, 18), date(2016, 3, 31), date.max)
_DAYS = st.one_of(st.sampled_from(_EDGE_DAYS), st.dates())


@st.composite
def _report_case(draw):
    """Announcement dates, record instants (midnight and the last second of a
    day among them), a cutoff or None, and a daily window of up to 81 days
    around a drawn day, clipped to the calendar."""
    bounds = sorted(draw(st.lists(_DAYS, min_size=1, max_size=5, unique=True)))
    instants = draw(st.lists(st.builds(
        lambda day, second: utc(day.year, day.month, day.day) + timedelta(seconds=second),
        st.one_of(_DAYS, st.sampled_from(bounds)),
        st.one_of(st.sampled_from((0, 86399)), st.integers(0, 86399))), max_size=30))
    cutoff = draw(st.one_of(st.none(), _DAYS, st.sampled_from(bounds)))
    anchor = draw(st.one_of(_DAYS, st.sampled_from([t.date() for t in instants] or bounds)))
    start = max(anchor.toordinal() - draw(st.integers(0, 40)), date.min.toordinal())
    end = min(anchor.toordinal() + draw(st.integers(0, 40)), date.max.toordinal())
    return bounds, instants, cutoff, date.fromordinal(start), date.fromordinal(end)


@settings(max_examples=300, deadline=None)
@given(case=_report_case())
@example(case=([date.min, date(2015, 9, 4), date.max],
               [utc(1, 1, 1), utc(2015, 9, 3, 23, 59, 59), utc(2015, 9, 4),
                utc(9999, 12, 31), utc(9999, 12, 31, 23, 59, 59)],
               None, date(9999, 12, 1), date.max))
@example(case=([date(2015, 9, 4), date(2016, 3, 18)],
               [utc(1, 1, 1), utc(2016, 3, 31, 23, 59, 59), utc(2016, 4, 1),
                utc(9999, 12, 31, 23, 59, 59)],
               date(2016, 3, 31), date.min, date(1, 2, 10)))
@example(case=([date(2015, 9, 4)], [utc(1, 1, 1), utc(9999, 12, 31, 23, 59, 59)],
               date.max, date(9999, 12, 31), date.max))
@example(case=([date(2015, 9, 4)], [utc(1, 1, 1)], date.min, date.min, date.min))
def test_cut_histogram_equals_brute_scans(case):
    """The report's path (one histogram, cut at the final cutoff) against
    per-instant scans of the instants dated on or before the cutoff."""
    bounds, instants, cutoff, start, end = case
    timeline = EventTimeline(events=tuple(EventRecord(date=d, kind=ANNOUNCEMENT)
                                          for d in bounds))
    days = day_counts(record(i, t) for i, t in enumerate(instants))
    if cutoff is not None:
        days = {day: count for day, count in days.items() if day <= cutoff}
    kept = [t for t in instants if cutoff is None or t.date() <= cutoff]
    report = period_counts(timeline, days)
    assert [row.count for row in report.rows] == brute_bucket(bounds, kept)
    assert daily_frequency(days, start, end) == brute_daily(kept, start, end)


class TestTimelineFiles:
    def test_print_builtin_stdout_is_pinned(self, capsys):
        assert main(["timeline", "--print-builtin"]) == EXIT_OK
        stdout = capsys.readouterr().out
        assert stdout == BUILTIN_CDC_TIMELINE_CSV
        assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == (
            "bfe0e62dacbc85e61b68215a4160cf98d5044f1005e6be948afcaa4417e6c241")

    def test_parsing_validates_and_names_every_violation(self):
        lines = ["date,kind,new_ill,cumulative_ill,states,note",
                 "2015-09-09,announcement,,341,30,",
                 "2015-09-04,announcement,10,300,31,"]
        with pytest.raises(TimelineError) as excinfo:
            parse_timeline_file(lines)
        message = str(excinfo.value)
        assert message.startswith("invalid timeline: ")
        assert "\n" not in message
        assert "events out of order: 2015-09-04 after 2015-09-09" in message
        assert "cumulative illnesses decrease from 341 to 300 at 2015-09-04" in message

    def test_blank_lines_are_skipped(self, tmp_path, capsys):
        stream = tmp_path / "s.jsonl"
        instants = [utc(2015, 8, 20) + timedelta(days=9 * i) for i in range(12)]
        stream.write_text("".join(record(i, instant).output_line()
                                  for i, instant in enumerate(instants)), encoding="utf-8")
        rows = BUILTIN_CDC_TIMELINE_CSV.splitlines()
        tables = []
        for name, text in (("plain", "\n".join(rows) + "\n"),
                           ("blank", "\n\n  \n".join(rows) + "\n\n")):
            timeline = tmp_path / f"{name}.csv"
            timeline.write_text(text, encoding="utf-8")
            out = tmp_path / name
            assert main(["report", "--input", str(stream), "--timeline", str(timeline),
                         "--output", str(out), "--quiet"]) == EXIT_OK
            tables.append([(out / n).read_bytes()
                           for n in ("period_counts.csv", "daily_counts.csv")])
        assert tables[0] == tables[1]
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("row_no", [1, 3])
    def test_undecodable_byte_names_its_row(self, row_no):
        # what a file read with errors="surrogateescape" yields for byte 0xff
        lines = ["date,kind,new_ill,cumulative_ill,states,note",
                 "2015-09-04,announcement,,285,27,",
                 "2015-09-09,announcement,56,341,30,"]
        lines[row_no - 1] += "\udcff"
        with pytest.raises(TimelineError, match=f"row {row_no}: invalid UTF-8"):
            parse_timeline_file(lines)


class TestReportFormatting:
    def test_period_csv_shape(self):
        report = bucket_counts(builtin_cdc_timeline(), [record(0, utc(2015, 9, 5))])
        text = format_period_report(report)
        lines = text.splitlines()
        assert lines[0] == "period_start,period_end,tweet_count"
        assert lines[1] == ",2015-09-04,0"
        assert lines[2] == "2015-09-04,2015-09-09,1"
        assert lines[-1] == "2016-03-18,,0"

    def test_daily_csv_shape(self):
        series = [(date(2015, 9, 4), 3), (date(2015, 9, 5), 0)]
        assert format_daily_counts(series) == "date,count\n2015-09-04,3\n2015-09-05,0\n"


def test_event_record_rejects_bad_values():
    with pytest.raises(ValueError):
        EventRecord(date=date(2015, 9, 4), kind="festival")
    with pytest.raises(ValueError):
        EventRecord(date=date(2015, 9, 4), kind=ANNOUNCEMENT, new_ill=-2)
