"""Parsing and loading of line-delimited tweet records.

Input is UTF-8 text, one record per line. Each line is a JSON object with
exactly the fields ``id`` (string), ``timestamp`` (ISO-8601 UTC with a ``Z``
suffix, second precision) and ``text`` (string); training files additionally
carry ``label`` (integer -1 or +1). Unknown fields are ignored in lenient
mode and rejected in strict mode. A line that is not valid UTF-8, or whose
id or text holds a lone surrogate, is malformed like any other bad line.

Also home to ``open_text_atomic``, the one writer behind every output file.
"""
from __future__ import annotations

import json
import os
import re
from contextlib import contextmanager, suppress
from datetime import date, datetime, timezone
from json.encoder import encode_basestring
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

from .errors import ParseError, TrainingDataError, diagnose, json_fault
from .value import Value

# The exact shapes of a YYYY-MM-DD day and a YYYY-MM-DDTHH:MM:SSZ timestamp
# in ASCII digits.
_DATE_SHAPE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")
_TIMESTAMP_SHAPE = re.compile(_DATE_SHAPE.pattern + r"T[0-9]{2}:[0-9]{2}:[0-9]{2}Z")
# The one shape to_line writes, its timestamp in _TIMESTAMP_SHAPE and each
# other string free of quotes, backslashes and control characters: json.loads
# of such a line returns exactly the three groups.
_CANONICAL_LINE = re.compile(
    r'\{"id":"([^"\\\x00-\x1f]*)","timestamp":"(' + _TIMESTAMP_SHAPE.pattern + ')",'
    r'"text":"([^"\\\x00-\x1f]*)"\}\n?')
KNOWN_FIELDS = frozenset({"id", "timestamp", "text", "label"})
VALID_LABELS = (-1, 1)


class TweetRecord(Value):
    """One text item from the raw stream, timestamped in aware UTC."""

    # source_line: the input line, "\n" included, that parse_tweet_line found
    # already in to_line's shape and passes as the source_line parameter;
    # None for a record built any other way
    __slots__ = ("id", "timestamp", "text", "source_line")
    _fields = ("id", "timestamp", "text")

    def __init__(self, id: str, timestamp: datetime, text: str,
                 source_line: str | None = None):
        _set_id(self, id)
        _set_timestamp(self, timestamp)
        _set_text(self, text)
        _set_source_line(self, source_line)

    def to_line(self) -> str:
        """Serialize back to the one-record-per-line input format.

        Re-parsing the returned line yields an equal record. The line is
        ``json.dumps`` of the three fields with ``ensure_ascii=False`` and
        compact separators, built from the string encoder that call uses.
        """
        return (f'{{"id":{encode_basestring(self.id)},'
                f'"timestamp":"{format_timestamp(self.timestamp)}",'
                f'"text":{encode_basestring(self.text)}}}')

    def output_line(self) -> str:
        """``to_line() + "\n"``, the line every stage writes: the input line
        itself when it was already in that shape, else serialized."""
        return self.source_line or self.to_line() + "\n"


# The setter of each slot, which __init__ calls. parse_tweet_line builds one
# record per input line, and a slot's setter skips the lookup that
# object.__setattr__ makes.
_set_id, _set_timestamp, _set_text, _set_source_line = (
    getattr(TweetRecord, name).__set__ for name in TweetRecord.__slots__)


class LabeledExample(Value):
    """A tweet record paired with its hand-assigned relevance label (-1/+1)."""

    __slots__ = _fields = ("record", "label")

    def __init__(self, record: TweetRecord, label: int):
        self._set_slots(record, label)


class Corpus(Value):
    """Validated records in input order, plus the count of rejected lines."""

    __slots__ = _fields = ("records", "rejected_count")

    def __init__(self, records: tuple[TweetRecord, ...], rejected_count: int = 0):
        self._set_slots(records, rejected_count)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TweetRecord]:
        return iter(self.records)


def format_timestamp(instant: datetime) -> str:
    """Render a UTC instant in the canonical second-precision input format."""
    if instant.tzinfo is not None and instant.tzinfo is not timezone.utc:
        instant = instant.astimezone(timezone.utc)
    # isoformat zero-pads the year (strftime("%Y") does not on glibc); the
    # first 19 characters drop microseconds and any offset
    return instant.isoformat()[:19] + "Z"


def parse_timestamp(raw: str, line_no: int | None = None) -> datetime:
    """Parse the single accepted timestamp format into an aware UTC datetime.

    Day-level bucketing downstream depends on unambiguous instants, so any
    other date shape is an error rather than a guess.
    """
    if isinstance(raw, str) and _TIMESTAMP_SHAPE.fullmatch(raw):
        return _utc_from_shaped(raw, line_no)
    raise _timestamp_error(raw, line_no)


# Bound once, so a call skips the attribute lookup; it reads the "Z" itself.
_fromisoformat = datetime.fromisoformat


def _utc_from_shaped(raw: str, line_no: int | None) -> datetime:
    """The instant of a timestamp already in _TIMESTAMP_SHAPE. Raises
    ParseError for an impossible date such as 2015-02-30."""
    try:
        return _fromisoformat(raw)
    except ValueError:
        raise _timestamp_error(raw, line_no) from None


def _timestamp_error(raw: object, line_no: int | None) -> ParseError:
    return ParseError(
        f"timestamp {raw!r} is not in YYYY-MM-DDTHH:MM:SSZ form "
        "(expected e.g. 2015-09-04T12:00:00Z)",
        line_no,
    )


def parse_date(raw: str) -> date:
    """Parse a ``YYYY-MM-DD`` day in ASCII digits, the one date shape of the
    command line, config files and timeline files.

    Raises ValueError for any other shape (``date.fromisoformat`` alone
    takes ``20150909`` and ``2015-W37-4`` from Python 3.11 on) and for an
    impossible date such as 2015-02-30.
    """
    if not _DATE_SHAPE.fullmatch(raw):
        raise ValueError(f"date {raw!r} is not in YYYY-MM-DD form")
    return date.fromisoformat(raw)


def _is_unicode(value: str) -> bool:
    """False if ``value`` holds a lone surrogate, which no UTF-8 can encode:
    an undecodable input byte (read with ``errors="surrogateescape"``) or a
    JSON ``\\ud83d``-style escape without its pair."""
    if value.isascii():
        return True
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def parse_tweet_line(
    line: str, *, line_no: int | None = None, strict: bool = False
) -> TweetRecord:
    """Parse one input line into a validated TweetRecord.

    Raises ParseError (carrying ``line_no`` when given) for invalid UTF-8,
    malformed JSON, missing or mistyped fields, unparseable timestamps, text
    that is empty after trimming, and an id or text holding a lone
    surrogate. ``strict`` additionally rejects unknown fields.
    """
    # A line in to_line's shape skips json.loads and the second timestamp
    # shape check, and is its record's output line: json.dumps escapes only
    # what the pattern excludes, and a shaped timestamp formats to itself.
    # Only a line that is UTF-8 takes this path, so its fields are too.
    match = _CANONICAL_LINE.fullmatch(line)
    canonical = match is not None and _is_unicode(line)
    if canonical:
        record_id, raw_timestamp, text = match.groups()
        source_line = line if line[-1] == "\n" else line + "\n"
    else:
        if not _is_unicode(line):
            raise ParseError("invalid UTF-8", line_no)
        try:
            obj = json.loads(line)
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"invalid JSON ({json_fault(exc)})", line_no) from None
        if not isinstance(obj, dict):
            raise ParseError("record is not an object", line_no)
        if strict:
            unknown = sorted(set(obj) - KNOWN_FIELDS)
            if unknown:
                raise ParseError(f"unknown fields: {', '.join(unknown)}", line_no)
        record_id, raw_timestamp, text = obj.get("id"), obj.get("timestamp"), obj.get("text")
        if not (type(record_id) is type(raw_timestamp) is type(text) is str):
            for field in ("id", "timestamp", "text"):
                if field not in obj:
                    raise ParseError(f"missing field {field!r}", line_no)
                if not isinstance(obj[field], str):
                    raise ParseError(f"field {field!r} must be a string", line_no)
        source_line = None

    # The checks on the three string fields, in one order whichever way they
    # were read. "not s or s.isspace()" equals "not s.strip()" and copies nothing.
    if not record_id or record_id.isspace():
        raise ParseError("empty id", line_no)
    if canonical:  # parse_timestamp, less the shape check _CANONICAL_LINE made
        timestamp = _utc_from_shaped(raw_timestamp, line_no)
    else:
        timestamp = parse_timestamp(raw_timestamp, line_no)
    if not text or text.isspace():
        raise ParseError("empty text", line_no)
    if not canonical and not (record_id.isascii() and text.isascii()):
        for field, value in (("id", record_id), ("text", text)):
            if not _is_unicode(value):
                raise ParseError(f"field {field!r} holds a lone surrogate", line_no)

    return TweetRecord(record_id, timestamp, text, source_line)


class RecordStream:
    """The records of an iterable of input lines, in input order, each line
    parsed once (``parse_tweet_line``) as the stream is iterated.

    With ``strict`` (strict mode), the first bad line raises, and a line
    with an unknown field is bad, as for ``parse_tweet_line``. Without it
    (lenient mode), bad lines are skipped, counted in ``rejected``, and each
    writes a ``WARNING rejected line N: reason`` diagnostic. A duplicate id
    raises in both modes because duplicates would double-count in every
    downstream report. ``accepted`` counts the records yielded so far.
    """

    def __init__(self, lines: Iterable[str], *, strict: bool = False):
        self._lines = lines
        self._strict = strict
        self._seen_ids: set[str] = set()
        self.rejected = 0

    @property
    def accepted(self) -> int:
        return len(self._seen_ids)

    def __iter__(self) -> Iterator[TweetRecord]:
        strict, seen_ids = self._strict, self._seen_ids
        for line_no, line in enumerate(self._lines, start=1):
            try:
                record = parse_tweet_line(line, line_no=line_no, strict=strict)
            except ParseError as exc:
                if strict:
                    raise
                self.rejected += 1
                diagnose("WARNING", f"rejected {exc}")
                continue
            if record.id in seen_ids:
                raise ParseError(f"duplicate id {record.id!r}", line_no)
            seen_ids.add(record.id)
            yield record


def load_corpus(lines: Iterable[str], *, strict: bool = False) -> Corpus:
    """All of a ``RecordStream``'s records, with its count of rejected lines;
    ``strict`` as for ``RecordStream``."""
    stream = RecordStream(lines, strict=strict)
    return Corpus(records=tuple(stream), rejected_count=stream.rejected)


def load_labeled_set(lines: Iterable[str]) -> list[LabeledExample]:
    """Parse a labeled training file into examples.

    The set is hand-curated, so it is read as a strict ``RecordStream``,
    where any bad line aborts, and every line must also carry a valid label.
    Raises TrainingDataError if the input holds no examples at all.
    """
    lines = list(lines)
    stream = RecordStream(lines, strict=True)  # one record per line, in order, or it raises
    examples: list[LabeledExample] = []
    for line, record in zip(lines, stream):
        line_no = stream.accepted  # every line so far is a record
        obj = json.loads(line)  # cannot fail: the stream has decoded it
        if "label" not in obj:
            raise ParseError("missing field 'label'", line_no)
        label = obj["label"]
        if isinstance(label, bool) or not isinstance(label, int):
            raise ParseError(f"label must be the integer -1 or 1, got {label!r}", line_no)
        if label not in VALID_LABELS:
            raise ParseError(f"label must be -1 or 1, got {label}", line_no)
        examples.append(LabeledExample(record=record, label=label))
    if not examples:
        raise TrainingDataError("labeled set is empty")
    return examples


def class_counts(examples: Sequence[LabeledExample]) -> tuple[int, int]:
    """Return (negative, positive) example counts."""
    positive = sum(1 for ex in examples if ex.label == 1)
    return len(examples) - positive, positive


@contextmanager
def open_text_atomic(path: str | Path) -> Iterator[TextIO]:
    """A UTF-8 text file to write that replaces ``path`` when the ``with``
    block ends without an error, so readers see the old file or the new one,
    never a part.

    The text goes to a file ``<name>.<random>.tmp`` (16 hex digits) in the
    same directory, created by one exclusive open with the umask's mode, so
    the process umask is never changed; a taken name raises
    ``FileExistsError`` and touches no file. The file is fsynced, then
    renamed over ``path``. On any error, in the block or in the write, the
    temporary file is removed, ``path`` is left as it was, and so are the
    directories above it: any that this call created are removed again.
    """
    path = Path(path)
    created = []  # deepest first
    for directory in (path.parent, *path.parent.parents):
        if directory.exists():
            break
        created.append(directory)
    tmp = None
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        name = path.parent / f"{path.name}.{os.urandom(8).hex()}.tmp"
        fd = os.open(name, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        tmp = name  # only now is it this call's to remove
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if tmp is not None:
            with suppress(FileNotFoundError):
                os.unlink(tmp)
        for directory in created:
            with suppress(OSError):  # no longer empty: another writer's
                directory.rmdir()
        raise


def write_text_atomic(path: str | Path, text: str) -> None:
    """Replace ``path`` with ``text`` (UTF-8) through ``open_text_atomic``."""
    with open_text_atomic(path) as fh:
        fh.write(text)
