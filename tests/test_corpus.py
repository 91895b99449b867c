import json
import os
import re
from datetime import datetime, timedelta, timezone
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from outbreakmon import corpus
from outbreakmon.corpus import (
    _CANONICAL_LINE,
    Corpus,
    TweetRecord,
    class_counts,
    format_timestamp,
    load_corpus,
    load_labeled_set,
    open_text_atomic,
    parse_timestamp,
    parse_tweet_line,
    write_text_atomic,
)
from outbreakmon.errors import ParseError, TrainingDataError

from oracles import fstring_timestamp

# The documented timestamp shape, as a strptime format: the oracle of parse_timestamp.
TIMESTAMP_FORMAT = "%Y-%m-%dT%H:%M:%SZ"
GOOD_LINE = '{"id":"t1","timestamp":"2015-09-04T12:00:00Z","text":"salmonella cucumber recall"}'


def make_line(record_id="t1", timestamp="2015-09-04T12:00:00Z", text="hello world",
              ensure_ascii=True, **extra):
    obj = {"id": record_id, "timestamp": timestamp, "text": text, **extra}
    return json.dumps(obj, ensure_ascii=ensure_ascii)


class TestParseTweetLine:
    def test_direct_field_mapping(self):
        record = parse_tweet_line(GOOD_LINE)
        assert record.id == "t1"
        assert record.timestamp == datetime(2015, 9, 4, 12, 0, 0, tzinfo=timezone.utc)
        assert record.text == "salmonella cucumber recall"

    # ideographic space, the information separator U+001C and NEL: Unicode
    # whitespace that str.strip() removes
    @pytest.mark.parametrize("blank", ["\u3000", "\x1c", "\x85", " \u3000\x1c\x85\t"])
    @pytest.mark.parametrize("ensure_ascii", [True, False])
    def test_unicode_whitespace_id_or_text_is_empty(self, blank, ensure_ascii):
        with pytest.raises(ParseError, match="empty id"):
            parse_tweet_line(make_line(record_id=blank, ensure_ascii=ensure_ascii))
        with pytest.raises(ParseError, match="empty text"):
            parse_tweet_line(make_line(text=blank, ensure_ascii=ensure_ascii))

    @settings(max_examples=500, deadline=None)
    @given(value=st.text(alphabet=st.one_of(
        st.characters(blacklist_categories=("Cs",)),
        st.sampled_from(" \t\n\r\x0b\x0c\x1c\x1d\x1e\x1f\x85\xa0\u1680\u2000\u2028\u3000"))))
    def test_blank_exactly_when_strip_leaves_nothing(self, value):
        for field, message in (("record_id", "empty id"), ("text", "empty text")):
            line = make_line(**{field: value}, ensure_ascii=False)
            if value.strip():
                parse_tweet_line(line)
            else:
                with pytest.raises(ParseError, match=message):
                    parse_tweet_line(line)

    def test_timestamp_error_names_the_documented_shape(self):
        expected = ("line 4: timestamp '2015-09-04 12:00:00' is not in YYYY-MM-DDTHH:MM:SSZ "
                    "form (expected e.g. 2015-09-04T12:00:00Z)")
        with pytest.raises(ParseError) as excinfo:
            parse_tweet_line(make_line(timestamp="2015-09-04 12:00:00"), line_no=4)
        assert str(excinfo.value) == expected

    def test_unknown_field_ok_lenient_rejected_strict(self):
        line = make_line(retweets=3)
        assert parse_tweet_line(line, strict=False).id == "t1"
        with pytest.raises(ParseError, match="unknown fields: retweets"):
            parse_tweet_line(line, strict=True)

    def test_label_is_a_known_field_in_strict_mode(self):
        assert parse_tweet_line(make_line(label=1), strict=True).id == "t1"

    @pytest.mark.parametrize("timestamp", [
        "2015-9-4T1:2:3Z",
        "\uff12\uff10\uff11\uff15-09-04T12:00:00Z",
        "2015-09-04t12:00:00z",
        "2015-02-30T12:00:00Z",
    ], ids=["non-padded", "full-width-digits", "lower-case-separators", "impossible-date"])
    def test_only_the_documented_timestamp_shape(self, timestamp):
        with pytest.raises(ParseError, match="timestamp"):
            parse_tweet_line(make_line(timestamp=timestamp))
        with pytest.raises(ParseError, match="timestamp"):
            parse_timestamp(timestamp)

    def test_undecodable_byte_rejected(self):
        # what a file read with errors="surrogateescape" yields for byte 0xff
        line = make_line(text="salmonella \udcff", ensure_ascii=False)
        with pytest.raises(ParseError, match="line 3.*invalid UTF-8"):
            parse_tweet_line(line, line_no=3)

    @pytest.mark.parametrize("field", ["id", "text"])
    def test_escaped_lone_surrogate_rejected(self, field):
        line = make_line(**{field: "salmonella \ud83d"})
        assert "\\ud83d" in line  # JSON escape, so the line itself is ASCII
        with pytest.raises(ParseError, match="lone surrogate"):
            parse_tweet_line(line)

    def test_escaped_surrogate_pair_accepted(self):
        line = make_line(text="salmonella \U0001f952")
        assert "\\ud83e\\udd52" in line
        assert parse_tweet_line(line).text == "salmonella \U0001f952"


def _compact(obj):
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


# Ways to write one record's fields as a line. Only the compact ones with the
# keys in to_line's order can take the canonical-line fast path; "unescaped"
# splices the fields in raw, so quotes, backslashes and control characters
# reach the parser as they are.
_RENDERINGS = {
    "compact": _compact,
    "compact-newline": lambda obj: _compact(obj) + "\n",
    "compact-crlf": lambda obj: _compact(obj) + "\r\n",
    "compact-ascii": lambda obj: json.dumps(obj, separators=(",", ":")),
    "json-dumps-defaults": json.dumps,
    "reordered-keys": lambda obj: _compact(dict(reversed(obj.items()))),
    "extra-field": lambda obj: _compact({**obj, "lang": "en"}),
    "surrounding-whitespace": lambda obj: " " + _compact(obj) + " \n",
    "unescaped": lambda obj: '{"id":"%s","timestamp":"%s","text":"%s"}' % tuple(obj.values()),
}
_FIELD = st.text(max_size=6, alphabet=st.one_of(
    st.characters(max_codepoint=0x7f),
    st.sampled_from('"\\\t\x7f\u2028\u00e9\u3000\U0001f952\ud83d\udcff ')))
_TIMESTAMP = st.one_of(
    st.sampled_from(["2015-09-04T12:00:00Z", "2015-02-30T12:00:00Z", "2015-9-4T1:2:3Z"]),
    st.datetimes(timezones=st.just(timezone.utc)).map(format_timestamp),
    _FIELD)


def _outcome(parse):
    try:
        return parse()
    except ParseError as exc:
        return "ParseError", str(exc), exc.line_no


@settings(max_examples=1000, deadline=None)
@given(record_id=_FIELD, timestamp=_TIMESTAMP, text=_FIELD,
       rendering=st.sampled_from(sorted(_RENDERINGS)), strict=st.booleans(),
       line_no=st.sampled_from([None, 7]))
@example(record_id="a", timestamp="2015-02-30T12:00:00Z", text="x", rendering="compact",
         strict=True, line_no=7)
@example(record_id="a", timestamp="2015-09-04T12:00:00Z", text=" \u3000", rendering="compact",
         strict=False, line_no=7)
@example(record_id="a", timestamp="2015-09-04T12:00:00Z", text="x\ud83d",
         rendering="json-dumps-defaults", strict=False, line_no=7)
@example(record_id="a\udcff", timestamp="2015-09-04T12:00:00Z", text="x",
         rendering="compact", strict=False, line_no=7)
@example(record_id="a", timestamp="2015-09-04T12:00:00Z", text="x\ty",
         rendering="unescaped", strict=False, line_no=7)
@example(record_id="a", timestamp="2015-09-04T12:00:00Z", text="x", rendering="compact-crlf",
         strict=True, line_no=7)
# two faults on one line: the first check to fail names the line's fault
@example(record_id="", timestamp="2015-02-30T12:00:00Z", text="x", rendering="compact",
         strict=False, line_no=7)
@example(record_id="a\ud83d", timestamp="2015-09-04T12:00:00Z", text="",
         rendering="json-dumps-defaults", strict=False, line_no=7)
def test_parse_tweet_line_equals_the_full_json_parse(record_id, timestamp, text, rendering,
                                                     strict, line_no):
    line = _RENDERINGS[rendering]({"id": record_id, "timestamp": timestamp, "text": text})
    outcome = _outcome(lambda: parse_tweet_line(line, line_no=line_no, strict=strict))
    # the oracle reads the same line with json.loads: no line is canonical
    with mock.patch.object(corpus, "_CANONICAL_LINE", re.compile(r"(?!)")):
        assert outcome == _outcome(lambda: parse_tweet_line(line, line_no=line_no,
                                                            strict=strict))


_NOT_THE_SHAPE = "is not in YYYY-MM-DDTHH:MM:SSZ form (expected e.g. 2015-09-04T12:00:00Z)"


@pytest.mark.parametrize("line, reason", [
    (make_line(text="   "), "empty text"),
    (make_line(record_id="  "), "empty id"),
    ('{"id":"a","timestamp":"2015-09-04T12:00:00Z"}', "missing field 'text'"),
    ("{not json", "invalid JSON (Expecting property name enclosed in double quotes at column 2)"),
    (make_line(timestamp="09/04/2015"), f"timestamp '09/04/2015' {_NOT_THE_SHAPE}"),
    (make_line(timestamp="2015-09-04T12:00:00+00:00"),
     f"timestamp '2015-09-04T12:00:00+00:00' {_NOT_THE_SHAPE}"),
    (_compact({"id": "", "timestamp": "2015-02-30T12:00:00Z", "text": "x"}), "empty id"),
    (json.dumps({"id": "a\ud83d", "timestamp": "2015-09-04T12:00:00Z", "text": ""}),
     "empty text"),
], ids=["blank-text", "blank-id", "missing-field", "invalid-json", "us-style-date",
        "offset-timestamp", "empty-id-before-impossible-date", "empty-text-before-lone-surrogate"])
def test_the_first_failed_check_names_the_fault(line, reason):
    with pytest.raises(ParseError) as excinfo:
        parse_tweet_line(line, line_no=7)
    assert str(excinfo.value) == f"line 7: {reason}"


@pytest.mark.parametrize("line", [
    GOOD_LINE,
    GOOD_LINE + "\n",
    _compact({"id": "t\u00e9", "timestamp": "2015-09-04T12:00:00Z",
              "text": "salmonella \U0001f952\x7f\u2028 cucumbers"}),
], ids=["ascii", "newline", "non-ascii"])
def test_canonical_line_is_parsed_without_json_loads(monkeypatch, line):
    expected = parse_tweet_line(line)

    def refuse(*args, **kwargs):
        raise AssertionError("json.loads called")

    monkeypatch.setattr(json, "loads", refuse)
    assert parse_tweet_line(line, strict=True) == expected
    with pytest.raises(AssertionError, match="json.loads called"):
        parse_tweet_line(" " + line)


# Strings that _CANONICAL_LINE admits as they are: anything but a quote, a
# backslash or a control character, blanks included; the field adds lone
# surrogates.
_CANONICAL_CHARS = st.one_of(
    st.characters(blacklist_characters='"\\', blacklist_categories=("Cc", "Cs")),
    st.sampled_from("\x7f\x85\u2028\u3000 "))
_CANONICAL_FIELD = st.text(max_size=8, alphabet=st.one_of(
    _CANONICAL_CHARS, st.sampled_from("\ud83d\udcff")))


@settings(max_examples=500, deadline=None)
@given(record_id=_CANONICAL_FIELD, text=_CANONICAL_FIELD, newline=st.sampled_from(["", "\n"]),
       timestamp=st.one_of(
           st.datetimes(min_value=datetime(1, 1, 1), timezones=st.just(timezone.utc))
           .map(format_timestamp),
           st.sampled_from(["2015-02-30T12:00:00Z", "2015-09-04T24:00:00Z"])))
def test_accepted_canonical_line_is_its_own_to_line(record_id, timestamp, text, newline):
    line = '{"id":"%s","timestamp":"%s","text":"%s"}%s' % (record_id, timestamp, text, newline)
    assert _CANONICAL_LINE.fullmatch(line)
    try:
        record = parse_tweet_line(line)
    except ParseError:
        return
    assert record.to_line() == line.rstrip("\n")
    # a stage writes the line itself back: to_line() and one newline
    assert record.source_line == record.output_line() == record.to_line() + "\n"


def test_only_a_parsed_canonical_line_is_echoed():
    echoed = parse_tweet_line(GOOD_LINE)
    built = TweetRecord(echoed.id, echoed.timestamp, echoed.text)
    decoded = parse_tweet_line(make_line(text=echoed.text))
    changed = TweetRecord(echoed.id, echoed.timestamp, "salmonella")
    assert echoed.source_line == GOOD_LINE + "\n"
    assert built.source_line is decoded.source_line is changed.source_line is None
    assert echoed == built == decoded and repr(echoed) == repr(built)
    assert built.output_line() == decoded.output_line() == GOOD_LINE + "\n"
    assert changed.output_line() == changed.to_line() + "\n"


def _misshapen(instant, how):
    """A timestamp near ``instant`` that is not in TIMESTAMP_FORMAT's shape."""
    stamp = format_timestamp(instant)
    if how == "full-width-digits":
        return stamp.translate({ord("0") + i: 0xFF10 + i for i in range(10)})
    if how == "lower-case-separators":
        return stamp.lower()
    if how == "non-padded":
        return (f"{instant.year}-{instant.month}-{instant.day}"
                f"T{instant.hour}:{instant.minute}:{instant.second}Z")
    # an impossible date in the right shape: February 30, or month 13
    return stamp[:8] + "30" + stamp[10:] if instant.month == 2 else stamp[:5] + "13" + stamp[7:]


@settings(max_examples=500, deadline=None)
@given(record_id=st.text(_CANONICAL_CHARS, max_size=8).filter(str.strip),
       text=st.text(_CANONICAL_CHARS, max_size=8).filter(str.strip),
       instant=st.datetimes(min_value=datetime(1, 1, 1), timezones=st.just(timezone.utc)),
       how=st.sampled_from(["full-width-digits", "lower-case-separators", "non-padded",
                            "impossible-date"]),
       line_no=st.sampled_from([None, 7]))
@example(record_id="a", text="x", instant=datetime(2015, 2, 4, tzinfo=timezone.utc),
         how="impossible-date", line_no=7)
def test_misshapen_timestamp_fails_as_in_the_json_dumps_rendering(record_id, text, instant,
                                                                  how, line_no):
    timestamp = _misshapen(instant, how)
    assume(timestamp != format_timestamp(instant))
    obj = {"id": record_id, "timestamp": timestamp, "text": text}
    outcome = _outcome(lambda: parse_tweet_line(_compact(obj), line_no=line_no))
    assert outcome[0] == "ParseError"
    assert outcome == _outcome(lambda: parse_tweet_line(json.dumps(obj), line_no=line_no))


@pytest.mark.parametrize("line, reason", [
    ('{"id":"a\tb","timestamp":"2015-09-04T12:00:00Z","text":"x"}',
     "Invalid control character at column 9"),
    ("{not json", "Expecting property name enclosed in double quotes at column 2"),
    ("", "Expecting value at column 1"),
])
def test_invalid_json_reason_names_the_column(line, reason):
    with pytest.raises(ParseError) as caught:
        parse_tweet_line(line, line_no=3)
    assert (str(caught.value), caught.value.line_no) == (f"line 3: invalid JSON ({reason})", 3)


class TestLoadCorpus:
    def test_all_valid_lenient(self):
        lines = [make_line(record_id=f"t{i}") for i in range(3)]
        corpus = load_corpus(lines)
        assert len(corpus) == 3
        assert corpus.rejected_count == 0

    def test_lenient_skips_and_counts(self):
        lines = [make_line(record_id=f"t{i}") for i in range(3)] + ["{broken"]
        corpus = load_corpus(lines)
        assert len(corpus) == 3
        assert corpus.rejected_count == 1

    def test_strict_aborts_at_line(self):
        lines = [make_line(record_id="t0"), "{broken", make_line(record_id="t2")]
        with pytest.raises(ParseError, match="line 2"):
            load_corpus(lines, strict=True)

    def test_duplicate_id_fails_both_modes(self):
        lines = [make_line(record_id="dup"), make_line(record_id="dup")]
        for strict in (True, False):
            with pytest.raises(ParseError, match="duplicate id"):
                load_corpus(lines, strict=strict)

    def test_order_preserved(self):
        lines = [make_line(record_id=f"t{i}") for i in range(10)]
        corpus = load_corpus(lines)
        assert [r.id for r in corpus] == [f"t{i}" for i in range(10)]

    def test_bad_strictness_value(self):
        # strict is a keyword-only bool, so a mode word in its place, which
        # would be truthy, is refused rather than read as strict
        with pytest.raises(TypeError):
            load_corpus([], "chaotic")

    def test_conservation_records_plus_rejected(self):
        lines = [make_line(record_id=f"t{i}") for i in range(5)]
        lines[1] = "oops"
        lines[4] = '{"id":"x","timestamp":"bad","text":"y"}'
        corpus = load_corpus(lines)
        assert len(corpus) + corpus.rejected_count == len(lines)

    def test_deterministic(self):
        lines = [make_line(record_id=f"t{i}", text=f"text {i}") for i in range(20)]
        assert load_corpus(lines) == load_corpus(lines)

    @pytest.mark.parametrize("bad", [
        make_line(record_id="bad", text="\udcff", ensure_ascii=False),
        make_line(record_id="bad", text="\ud83d"),
    ], ids=["undecodable-byte", "escaped-lone-surrogate"])
    def test_invalid_unicode_is_one_rejected_line(self, bad):
        lines = [make_line(record_id="t0"), bad, make_line(record_id="t2")]
        corpus = load_corpus(lines)
        assert [r.id for r in corpus] == ["t0", "t2"]
        assert corpus.rejected_count == 1
        with pytest.raises(ParseError, match="line 2"):
            load_corpus(lines, strict=True)


class TestLoadLabeledSet:
    def test_hundred_plus_hundred(self):
        lines = [make_line(record_id=f"p{i}", label=1) for i in range(100)]
        lines += [make_line(record_id=f"n{i}", label=-1) for i in range(100)]
        examples = load_labeled_set(lines)
        assert len(examples) == 200
        assert class_counts(examples) == (100, 100)

    @pytest.mark.parametrize("lines, error, message", [
        ([make_line(label=0)], ParseError, "line 1: label must be -1 or 1, got 0"),
        ([make_line(label="1")], ParseError, "line 1: label must be the integer -1 or 1, got '1'"),
        ([make_line(label=True)], ParseError,
         "line 1: label must be the integer -1 or 1, got True"),
        ([make_line()], ParseError, "line 1: missing field 'label'"),
        ([], TrainingDataError, "labeled set is empty"),
        ([make_line(record_id="a", label=1), "junk"], ParseError,
         "line 2: invalid JSON (Expecting value at column 1)"),
    ], ids=["label-zero", "label-string", "label-bool", "label-missing", "empty", "malformed-line"])
    def test_rejected(self, lines, error, message):
        with pytest.raises(error) as excinfo:
            load_labeled_set(lines)
        assert str(excinfo.value) == message


@settings(max_examples=200, deadline=None)
@given(
    record_id=st.text(min_size=1).filter(lambda s: s.strip()),
    instant=st.datetimes(
        min_value=datetime(2000, 1, 1), max_value=datetime(2030, 1, 1)
    ).map(lambda d: d.replace(microsecond=0, tzinfo=timezone.utc)),
    text=st.text(min_size=1).filter(lambda s: s.strip()),
)
@example(record_id='"\\', instant=datetime(2015, 9, 4, tzinfo=timezone.utc),
         text="\u2028\u2029\x00\x1f\x7f\n")
def test_round_trip_line_format(record_id, instant, text):
    record = TweetRecord(id=record_id, timestamp=instant, text=text)
    line = record.to_line()
    assert "\n" not in line  # stays one line even with newlines in the text
    assert parse_tweet_line(line) == record


# Characters json escapes or treats specially, and lone surrogates, which
# to_line must write out exactly as json.dumps(ensure_ascii=False) does.
_ANY_TEXT = st.text(alphabet=st.one_of(
    st.characters(),
    st.sampled_from('"\\/\x00\x08\x0c\x1f\x7f\u2028\u2029\ud800\udbff\udc00\udcff\udfff')))


@settings(max_examples=500, deadline=None)
@given(record_id=_ANY_TEXT, text=_ANY_TEXT, instant=st.datetimes(
    min_value=datetime(1, 1, 1), timezones=st.just(timezone.utc)))
def test_to_line_equals_compact_json_dumps(record_id, instant, text):
    record = TweetRecord(id=record_id, timestamp=instant.replace(microsecond=0), text=text)
    assert record.to_line() == json.dumps(
        {"id": record_id, "timestamp": format_timestamp(record.timestamp), "text": text},
        ensure_ascii=False, separators=(",", ":"))


def test_format_timestamp_is_canonical():
    instant = datetime(2015, 9, 4, 0, 0, 0, tzinfo=timezone.utc)
    assert format_timestamp(instant) == "2015-09-04T00:00:00Z"


# Days 2 to 30 of years 1 and 9999 keep a +02:00 instant inside the
# datetime range when it is converted to UTC.
@settings(max_examples=1000, deadline=None)
@given(instant=st.datetimes(
    min_value=datetime(1, 1, 2), max_value=datetime(9999, 12, 30),
    timezones=st.sampled_from([None, timezone.utc, timezone(timedelta(hours=2))])))
@example(instant=datetime(1, 1, 2, 1, 59, 59, 999999, tzinfo=timezone(timedelta(hours=2))))
@example(instant=datetime(999, 12, 31, 23, 59, 59, 500000))
@example(instant=datetime(9999, 12, 30, 23, 59, 59, 1, tzinfo=timezone.utc))
def test_format_timestamp_equals_the_field_by_field_rule(instant):
    assert format_timestamp(instant) == fstring_timestamp(instant)


def test_format_timestamp_converts_other_offsets_to_utc():
    plus_two = timezone(timedelta(hours=2))
    assert format_timestamp(datetime(2015, 9, 4, 1, 30, tzinfo=plus_two)) == "2015-09-03T23:30:00Z"
    assert parse_timestamp("2015-09-03T23:30:00Z").tzinfo is timezone.utc


@settings(max_examples=300, deadline=None)
@given(instant=st.datetimes(min_value=datetime(1, 1, 1)).map(
    lambda d: d.replace(microsecond=0, tzinfo=timezone.utc)))
@example(instant=datetime(999, 1, 1, tzinfo=timezone.utc))
@example(instant=datetime(1, 1, 1, tzinfo=timezone.utc))
def test_timestamp_round_trip_over_every_year(instant):
    assert parse_timestamp(format_timestamp(instant)) == instant


_YEARS = st.one_of(st.integers(0, 9999), st.sampled_from([0, 1, 999, 1900, 2000, 2015, 2016]))


# Fields of the fixed shape drawn a little past their ranges: month 00/13,
# Feb 29 in leap and common years, hour 24 and second 60 all occur.
@settings(max_examples=1000, deadline=None)
@given(year=_YEARS, month=st.integers(0, 13), day=st.integers(0, 32),
       hour=st.integers(0, 25), minute=st.integers(0, 61), second=st.integers(0, 61))
@example(year=2016, month=2, day=29, hour=0, minute=0, second=0)
@example(year=2015, month=2, day=29, hour=0, minute=0, second=0)
@example(year=1900, month=2, day=29, hour=0, minute=0, second=0)
@example(year=2015, month=9, day=4, hour=24, minute=0, second=0)
@example(year=2015, month=12, day=31, hour=23, minute=59, second=60)
def test_parse_timestamp_agrees_with_strptime(year, month, day, hour, minute, second):
    raw = f"{year:04d}-{month:02d}-{day:02d}T{hour:02d}:{minute:02d}:{second:02d}Z"
    try:
        expected = datetime.strptime(raw, TIMESTAMP_FORMAT).replace(tzinfo=timezone.utc)
    except ValueError:
        with pytest.raises(ParseError):
            parse_timestamp(raw)
    else:
        parsed = parse_timestamp(raw)
        assert parsed == expected and parsed.tzinfo is timezone.utc


def test_corpus_iteration_matches_records():
    records = tuple(
        TweetRecord(f"t{i}", datetime(2015, 9, 4, tzinfo=timezone.utc), "x") for i in range(4)
    )
    corpus = Corpus(records=records)
    assert list(corpus) == list(records)
    assert len(corpus) == 4


def test_write_text_atomic_replaces_with_umask_mode_and_no_leftover(tmp_path, monkeypatch):
    # the writes neither change the process umask, which every thread shares,
    # nor set a mode: the open that creates the file applies the umask
    path = tmp_path / "new" / "out.txt"
    old_umask = os.umask(0o027)
    try:
        with monkeypatch.context() as patched:
            for name in ("umask", "chmod"):
                patched.setattr(os, name, mock.Mock(side_effect=AssertionError(name)))
            write_text_atomic(path, "first\n")
            write_text_atomic(path, "second \u00e9\n")
    finally:
        os.umask(old_umask)
    assert path.read_bytes() == "second \u00e9\n".encode("utf-8")
    assert path.stat().st_mode & 0o777 == 0o640
    assert [p.name for p in path.parent.iterdir()] == ["out.txt"]


def test_a_temporary_name_taken_fails_and_touches_no_file(tmp_path, monkeypatch):
    path = tmp_path / "out.txt"
    path.write_text("old\n", encoding="utf-8")
    taken = tmp_path / "out.txt.0000000000000000.tmp"
    taken.write_text("another writer's\n", encoding="utf-8")
    monkeypatch.setattr(os, "urandom", lambda n: bytes(n))
    with pytest.raises(FileExistsError):
        write_text_atomic(path, "new\n")
    assert taken.read_text(encoding="utf-8") == "another writer's\n"
    assert path.read_text(encoding="utf-8") == "old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt", taken.name]


def test_two_writers_to_one_path_never_share_a_temporary_file(tmp_path):
    path = tmp_path / "out.txt"
    with open_text_atomic(path) as outer:
        outer.write("outer\n")
        with open_text_atomic(path) as inner:
            inner.write("inner\n")
            names = [p.name for p in tmp_path.iterdir()]
            assert len(names) == 2
            assert all(re.fullmatch(r"out\.txt\.[0-9a-f]{16}\.tmp", name) for name in names)
    assert path.read_text(encoding="utf-8") == "outer\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_open_text_atomic_error_leaves_files_and_directories_as_they_were(tmp_path):
    old = tmp_path / "old.txt"
    old.write_text("old\n", encoding="utf-8")
    for path in (old, tmp_path / "a" / "b" / "new.txt"):
        with pytest.raises(ParseError):
            with open_text_atomic(path) as fh:
                fh.write("partial\n")
                assert path.parent.is_dir()
                raise ParseError("abort mid-stream", 7)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["old.txt"]
    assert old.read_text(encoding="utf-8") == "old\n"


def test_open_text_atomic_keeps_a_directory_it_made_that_is_in_use(tmp_path):
    path = tmp_path / "a" / "out.txt"
    with pytest.raises(ParseError):
        with open_text_atomic(path):
            (tmp_path / "a" / "other.txt").write_text("kept\n", encoding="utf-8")
            raise ParseError("abort mid-stream", 7)
    assert [p.name for p in (tmp_path / "a").iterdir()] == ["other.txt"]
