"""Stage-1 noise reduction: keep records whose text mentions a watched phrase.

Matching is word-boundary aligned over normalized text, so "salmonellosis"
does not match the phrase "salmonella". Any single phrase hit retains the
record (logical OR over the set).

Most records of a keyword-tracked stream match nothing, so ``matches`` first
looks for each phrase's anchor (its longest normalized token) in the
lowercased text and skips normalization when none is there. The skip is
exact: every token of ``normalize_text(text)`` is a substring of
``text.lower()``, so a text holding no anchor cannot hold any phrase.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable

from .corpus import Corpus, _is_unicode
from .errors import ParseError

# Built-in watch list for the 2015 cucumber-linked Salmonella outbreak.
DEFAULT_PHRASES = (
    "Salmonella",
    "Salmonella Poona",
    "Salmonella Tainted",
    "Contaminated Cucumbers",
    "Andrew & Williamson Fresh Produce",
    "Fat Boy Brand",
    "Mexican Cucumbers",
)

# A maximal run of alphanumerics and ``&``: ``\w`` is exactly
# ``str.isalnum()`` plus ``_``, and normalize_text removes ``_`` first.
_WORD_RUN = re.compile(r"[\w&]+")


@dataclass(frozen=True)
class KeywordSet:
    """A non-empty collection of non-empty keyword phrases."""

    phrases: tuple[str, ...]
    # each phrase normalized and wrapped in single spaces, for matches()
    padded: tuple[str, ...] = field(init=False, repr=False, compare=False)
    # the longest token of each normalized phrase, deduplicated: a text whose
    # lowercase form holds none of them matches no phrase
    anchors: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.phrases:
            raise ValueError("keyword set needs at least one phrase")
        padded = []
        anchors: dict[str, None] = {}
        for phrase in self.phrases:
            normalized = normalize_text(phrase)
            if not normalized:
                raise ValueError(f"phrase {phrase!r} is empty after normalization")
            padded.append(f" {normalized} ")
            anchors[max(normalized.split(" "), key=len)] = None
        object.__setattr__(self, "padded", tuple(padded))
        object.__setattr__(self, "anchors", tuple(anchors))


def default_keywords() -> KeywordSet:
    """The built-in seven-phrase watch list."""
    return KeywordSet(phrases=DEFAULT_PHRASES)


def normalize_text(text: str) -> str:
    """Lowercase; map punctuation other than ``&`` to spaces; collapse runs.

    ``&`` survives so brand names written with an ampersand can match
    verbatim.
    """
    return " ".join(_WORD_RUN.findall(text.lower().replace("_", " ")))


def matches(keywords: KeywordSet, text: str) -> bool:
    """True iff the normalized text contains some phrase as a contiguous,
    word-aligned token run.

    Normalized text is tokens joined by single spaces, so with a space on
    each side a token run is exactly a substring. A text whose lowercase form
    holds no anchor is not normalized at all (see the module docstring).
    """
    lowered = text.lower()
    for anchor in keywords.anchors:
        if anchor in lowered:
            break
    else:
        return False
    padded = f" {normalize_text(text)} "
    for phrase in keywords.padded:
        if phrase in padded:
            return True
    return False


def filter_corpus(corpus: Corpus, keywords: KeywordSet) -> Corpus:
    """Order-preserving subset of records with at least one phrase match.

    The result carries over the source corpus's rejected-line count since no
    re-parse happens here.
    """
    kept = tuple(record for record in corpus.records if matches(keywords, record.text))
    return Corpus(records=kept, rejected_count=corpus.rejected_count)


def load_keywords(lines: Iterable[str]) -> KeywordSet:
    """Read a keyword file: one phrase per line, ``#`` comments and blank
    lines ignored. A line holding an undecodable byte (read with
    ``errors="surrogateescape"``) is a ParseError at that line."""
    phrases: list[str] = []
    for line_no, raw in enumerate(lines, start=1):
        if not _is_unicode(raw):
            raise ParseError("invalid UTF-8", line_no)
        phrase = raw.strip()
        if not phrase or phrase.startswith("#"):
            continue
        if not normalize_text(phrase):
            raise ParseError(f"phrase {phrase!r} is empty after normalization", line_no)
        phrases.append(phrase)
    if not phrases:
        raise ParseError("keyword file contains no phrases")
    return KeywordSet(phrases=tuple(phrases))
