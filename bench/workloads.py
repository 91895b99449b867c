"""Seeded input streams for the pipeline benchmark, with their ground truth.

Every line is generated together with what the pipeline must make of it:
its class (relevant, decoy, noise, other, or a malformation) and its
timestamp. The expected output files are derived from that knowledge alone,
never from the program's own code, so a benchmark run can check every byte
the program writes.

Workloads:

- ``outbreak``: 50% relevant templates, 20% keyword-matching decoys, 30%
  noise. Each new text carries 1-3 distinct out-of-vocabulary hashtag/handle
  tokens; about a third of the records repeat an earlier text exactly, like
  retweets. Loads every layer behind the keyword filter.
- ``firehose``: 3% of the records match a phrase; the rest are distinct
  tweet-length texts over a large pseudo-word list. Parse and keyword match
  do nearly all the work.
- ``dirty``: the ``outbreak`` mix with about a fifth of the lines malformed
  in the ways lenient mode skips. Loads the rejection path.
"""
from __future__ import annotations

import csv
import io
import json
import random
import re
from bisect import bisect_right
from dataclasses import dataclass
from datetime import date, datetime, timedelta, timezone

WORKLOADS = ("outbreak", "firehose", "dirty")

# The builtin watch list; no generated noise or suffix token may use its words.
PHRASES = (
    "Salmonella",
    "Salmonella Poona",
    "Salmonella Tainted",
    "Contaminated Cucumbers",
    "Andrew & Williamson Fresh Produce",
    "Fat Boy Brand",
    "Mexican Cucumbers",
)

# Midnight UTC of these dates bounds the periods of the builtin CDC timeline.
ANNOUNCEMENT_DATES = (
    date(2015, 9, 4),
    date(2015, 9, 9),
    date(2015, 9, 15),
    date(2015, 9, 22),
    date(2015, 9, 29),
    date(2015, 10, 6),
    date(2015, 10, 14),
    date(2015, 11, 19),
    date(2016, 1, 26),
    date(2016, 3, 18),
)

# Timestamps span the whole timeline: first illness onset to the end of
# March 2016, past the final announcement.
SPAN_START = datetime(2015, 7, 3, tzinfo=timezone.utc)
SPAN_END = datetime(2016, 4, 1, tzinfo=timezone.utc)

# The labeled set trains on exactly these texts (relevant +1, decoy -1), so a
# model that reproduces its training set predicts each template's label.
RELEVANT_TEMPLATES = (
    "salmonella outbreak traced to cucumbers recall widens",
    "cdc links salmonella poona infections to imported cucumbers",
    "more illnesses reported in salmonella cucumber outbreak",
    "contaminated cucumbers recalled after salmonella infections",
    "salmonella warning stores pull mexican cucumbers from shelves",
    "health officials confirm salmonella cases tied to cucumber shipments",
    "fat boy brand cucumbers recalled over salmonella contamination",
    "salmonella sickens hundreds cucumber recall expands to more states",
)

DECOY_TEMPLATES = (
    "salmonella jokes aside this party needs better snacks",
    "calling my fantasy team salmonella because it makes everyone sick",
    "that salmonella meme is still the funniest thing online",
    "salmonella is my new band name no cucumbers were harmed",
    "why does autocorrect keep typing salmonella instead of salmon",
    "quiz which salmonella headline are you lol",
)

NOISE_TEMPLATES = (
    "great sunset at the beach tonight",
    "traffic on the highway is terrible again",
    "new album drops friday so excited",
    "homework due tomorrow and the printer died",
    "pizza night with friends best plan ever",
    "puppy learned a new trick today",
)

RELEVANT, DECOY, NOISE, OTHER = "relevant", "decoy", "noise", "other"
MATCHING = frozenset({RELEVANT, DECOY})

# Malformations lenient mode must skip. Two known defects stay out until they
# are fixed: non-padded timestamps (accepted today) and invalid UTF-8 (aborts
# the whole run).
BAD_KINDS = (
    "invalid_json",
    "non_object",
    "missing_field",
    "non_string_field",
    "bad_timestamp",
    "empty_text",
)
DIRTY_SHARE = 0.2
REPEAT_SHARE = 1 / 3
FIREHOSE_MATCH_SHARE = 0.03

BAD_TIMESTAMPS = (
    "2015-09-04 12:00:00Z",
    "2015-09-04T12:00:00",
    "2015-09-04T12:00:00+00:00",
    "2015-09-04T12:00:00.250Z",
    "04/09/2015 12:00:00",
    "2015-13-04T12:00:00Z",
    "2015-09-04T25:00:00Z",
    "1441368000",
    "",
)

_WORD_RE = re.compile(r"[^\W_]+")


def _words(text: str) -> set[str]:
    return set(_WORD_RE.findall(text.lower()))


PHRASE_WORDS = frozenset(w for p in PHRASES for w in _words(p))
TRAINED_WORDS = frozenset(
    w for t in RELEVANT_TEMPLATES + DECOY_TEMPLATES for w in _words(t)
)
_RESERVED = PHRASE_WORDS | TRAINED_WORDS


def canonical_line(record_id: str, timestamp: str, text: str, **extra) -> str:
    """One record in the canonical form the pipeline writes back out."""
    obj = {"id": record_id, "timestamp": timestamp, "text": text, **extra}
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


def labeled_lines(n_per_class: int = 100) -> list[str]:
    """Training set: relevant templates +1, decoy templates -1."""
    base = datetime(2015, 9, 5, tzinfo=timezone.utc)
    lines = []
    for label, templates in ((1, RELEVANT_TEMPLATES), (-1, DECOY_TEMPLATES)):
        for i in range(n_per_class):
            stamp = _stamp(base + timedelta(minutes=i, seconds=30 * (label < 0)))
            lines.append(canonical_line(f"l{label}_{i}", stamp, templates[i % len(templates)],
                                        label=label))
    return lines


def _stamp(instant: datetime) -> str:
    return instant.strftime("%Y-%m-%dT%H:%M:%SZ")


def pseudo_words(count: int, seed: int = 7) -> list[str]:
    """Distinct pronounceable words, none of them a phrase or trained word."""
    rng = random.Random(seed)
    consonants, vowels = "bcdfghjklmnprstvwz", "aeiou"
    words: dict[str, None] = {}
    while len(words) < count:
        word = "".join(rng.choice(consonants) + rng.choice(vowels)
                       for _ in range(rng.randint(2, 4)))
        if word not in _RESERVED:
            words[word] = None
    return list(words)


@dataclass(frozen=True)
class Line:
    """One generated input line and what the pipeline must make of it."""

    text: str
    kind: str  # RELEVANT, DECOY, NOISE, OTHER, or one of BAD_KINDS
    epoch: int | None = None  # timestamp of a well-formed line


class _Generator:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.serial = 0

    def next_id(self) -> str:
        self.serial += 1
        return f"{900_000_000 + self.serial * 7919}"

    def epoch(self) -> int:
        lo, hi = int(SPAN_START.timestamp()), int(SPAN_END.timestamp())
        return self.rng.randrange(lo, hi)

    def suffix_tokens(self) -> list[str]:
        """1-3 tokens, distinct from each other and outside vocabulary and
        phrase list, so the record's tf-idf vector equals its template's."""
        alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
        tokens: list[str] = []
        count = self.rng.randint(1, 3)
        while len(tokens) < count:
            tok = self.rng.choice(alphabet[:26]) + "".join(
                self.rng.choice(alphabet) for _ in range(5))
            if tok not in _RESERVED and tok not in tokens:
                tokens.append(tok)
        return [self.rng.choice("#@") + tok for tok in tokens]

    def template_text(self, kind: str) -> str:
        templates = {RELEVANT: RELEVANT_TEMPLATES, DECOY: DECOY_TEMPLATES,
                     NOISE: NOISE_TEMPLATES}[kind]
        return " ".join([self.rng.choice(templates), *self.suffix_tokens()])

    def good(self, text: str, kind: str) -> Line:
        epoch = self.epoch()
        stamp = _stamp(datetime.fromtimestamp(epoch, tz=timezone.utc))
        return Line(canonical_line(self.next_id(), stamp, text), kind, epoch)

    def outbreak_text(self, seen: list[tuple[str, str]]) -> tuple[str, str]:
        if seen and self.rng.random() < REPEAT_SHARE:
            return self.rng.choice(seen)
        roll = self.rng.random()
        kind = RELEVANT if roll < 0.5 else DECOY if roll < 0.7 else NOISE
        pair = (self.template_text(kind), kind)
        seen.append(pair)
        return pair

    def bad(self, kind: str) -> Line:
        rng = self.rng
        rid, stamp = self.next_id(), _stamp(datetime.fromtimestamp(self.epoch(), tz=timezone.utc))
        text = self.template_text(rng.choice((RELEVANT, DECOY, NOISE)))
        fields = {"id": rid, "timestamp": stamp, "text": text}
        if kind == "invalid_json":
            whole = canonical_line(rid, stamp, text)
            line = rng.choice((
                whole[: rng.randint(1, len(whole) - 2)],
                whole.replace('":"', '":', 1),
                "RT " + text,
                whole + ",",
            ))
        elif kind == "non_object":
            line = json.dumps(rng.choice(([rid, stamp, text], text, 42, None, True)))
        elif kind == "missing_field":
            del fields[rng.choice(tuple(fields))]
            line = json.dumps(fields)
        elif kind == "non_string_field":
            fields[rng.choice(tuple(fields))] = rng.choice((7, 1.5, None, ["x"], {"a": 1}))
            line = json.dumps(fields)
        elif kind == "bad_timestamp":
            fields["timestamp"] = rng.choice(BAD_TIMESTAMPS)
            line = json.dumps(fields)
        elif kind == "empty_text":
            fields["text"] = rng.choice(("", " ", "   ", "\t", " \n "))
            line = json.dumps(fields)
        else:
            raise ValueError(f"unknown malformation {kind!r}")
        return Line(line, kind)


def generate(workload: str, n: int, seed: int) -> list[Line]:
    """The ``n`` input lines of one workload; equal seeds give equal lines."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    gen = _Generator(seed)
    seen: list[tuple[str, str]] = []
    lines = []
    if workload == "firehose":
        vocab = pseudo_words(20_000)
        for _ in range(n):
            if gen.rng.random() < FIREHOSE_MATCH_SHARE:
                kind = RELEVANT if gen.rng.random() < 5 / 7 else DECOY
                lines.append(gen.good(gen.template_text(kind), kind))
            else:
                words = gen.rng.choices(vocab, k=gen.rng.randint(8, 18))
                lines.append(gen.good(" ".join(words), OTHER))
        return lines
    for _ in range(n):
        if workload == "dirty" and gen.rng.random() < DIRTY_SHARE:
            lines.append(gen.bad(gen.rng.choice(BAD_KINDS)))
        else:
            text, kind = gen.outbreak_text(seen)
            lines.append(gen.good(text, kind))
    return lines


def _csv(header: tuple[str, ...], rows: list[list]) -> bytes:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue().encode("utf-8")


def _jsonl(lines: list[Line]) -> bytes:
    return "".join(line.text + "\n" for line in lines).encode("utf-8")


@dataclass(frozen=True)
class Expected:
    """Byte-exact output files, standard output, and manifest stage counts."""

    files: dict[str, bytes]
    stdout: bytes
    counts: dict[str, int]


def expected(lines: list[Line]) -> Expected:
    """What a correct ``pipeline`` run over ``lines`` writes, in lenient mode
    with the builtin keywords and timeline and no date options."""
    good = [line for line in lines if line.epoch is not None]
    kept = [line for line in good if line.kind in MATCHING]
    relevant = [line for line in kept if line.kind == RELEVANT]

    bounds = [int(datetime(d.year, d.month, d.day, tzinfo=timezone.utc).timestamp())
              for d in ANNOUNCEMENT_DATES]
    period = [0] * (len(bounds) + 1)
    for line in relevant:
        period[bisect_right(bounds, line.epoch)] += 1
    starts = [None, *ANNOUNCEMENT_DATES]
    ends = [*ANNOUNCEMENT_DATES, None]
    period_csv = _csv(("period_start", "period_end", "tweet_count"), [
        ["" if s is None else s.isoformat(), "" if e is None else e.isoformat(), c]
        for s, e, c in zip(starts, ends, period)
    ])

    per_day: dict[date, int] = {}
    for line in relevant:
        day = datetime.fromtimestamp(line.epoch, tz=timezone.utc).date()
        per_day[day] = per_day.get(day, 0) + 1
    daily_rows = []
    if per_day:
        day, last = min(per_day), max(per_day)
        while day <= last:
            daily_rows.append([day.isoformat(), per_day.get(day, 0)])
            day += timedelta(days=1)
    daily_csv = _csv(("date", "count"), daily_rows)

    counts = {
        "filter.input_records": len(good),
        "filter.rejected_lines": len(lines) - len(good),
        "filter.kept": len(kept),
        "filter.dropped": len(good) - len(kept),
        "classify.input_records": len(kept),
        "classify.relevant": len(relevant),
        "classify.irrelevant": len(kept) - len(relevant),
        "report.input_records": len(relevant),
        "report.periods": len(period),
        "report.period_total": len(relevant),
        "report.daily_days": len(daily_rows),
        "report.daily_total": len(relevant),
    }
    return Expected(
        files={
            "filtered.jsonl": _jsonl(kept),
            "relevant.jsonl": _jsonl(relevant),
            "period_counts.csv": period_csv,
            "daily_counts.csv": daily_csv,
        },
        stdout=period_csv,
        counts=counts,
    )
