"""Stage-1 noise reduction: keep records whose text mentions a watched phrase.

Matching is word-boundary aligned over normalized text, so "salmonellosis"
does not match the phrase "salmonella". Any single phrase hit retains the
record (logical OR over the set).

A KeywordSet compiles its phrases into one pattern over lowercased text.
Each phrase becomes its normalized tokens joined by runs of separators, a
separator being any character but ``&`` and those ``str.isalnum()`` accepts
(so ``_`` is one), and no alphanumeric or ``&`` may touch either end of the
run. The pattern finds a phrase exactly when ``normalize_text`` would show
it as a contiguous token run, without building the normalized text.

Most records of a keyword-tracked stream match nothing, so ``matches`` first
looks for each phrase's anchor (its longest normalized token) in the
lowercased text and runs the pattern only when one is there. The skip is
exact: every token of ``normalize_text(text)`` is a substring of
``text.lower()``, so a text holding no anchor cannot hold any phrase.
"""
from __future__ import annotations

import re
from typing import Iterable

from .corpus import Corpus, _is_unicode
from .errors import ParseError
from .value import Value

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
# What lies between two tokens of normalized text: a run of anything else.
_SEPARATORS = r"(?:[^\w&]|_)+"


class KeywordSet(Value):
    """A non-empty collection of non-empty keyword phrases. A phrase with no
    token after normalization raises ValueError: it has no first token."""

    # pattern: every phrase as a token run in lowercased text, for matches();
    # anchors: the longest token of each normalized phrase, deduplicated: a
    # text whose lowercase form holds none of them matches no phrase
    __slots__ = ("phrases", "pattern", "anchors")
    _fields = ("phrases",)

    def __init__(self, phrases: tuple[str, ...]):
        if not phrases:
            raise ValueError("keyword set needs at least one phrase")
        runs: dict[str, None] = {}
        anchors: dict[str, None] = {}
        for phrase in phrases:
            tokens = normalize_text(phrase).split()
            first, *rest = map(re.escape, tokens)
            # no letter, digit or & may touch either end of the run; the
            # check before it follows the first token, so that every branch
            # starts with a literal the regex engine can skip ahead to
            runs[rf"{first}(?<![^\W_]{first})(?<!&{first})"
                 + "".join(_SEPARATORS + token for token in rest)] = None
            anchors[max(tokens, key=len)] = None
        pattern = rf"(?:{'|'.join(runs)})(?![^\W_])(?!&)"
        self._set_slots(phrases, re.compile(pattern), tuple(anchors))


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

    The text is not normalized: the keyword set's pattern runs on its
    lowercase form, and only when that holds an anchor (see the module
    docstring).
    """
    lowered = text.lower()
    for anchor in keywords.anchors:
        if anchor in lowered:
            return keywords.pattern.search(lowered) is not None
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
