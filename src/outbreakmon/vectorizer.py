"""Tokenization and the tf-idf sparse-vector representation.

Per-tweet term frequency is the double-normalized form
``0.5 + 0.5 * f / max_f`` (computed over the terms actually in the tweet),
and document frequency idf is ``ln(N / df)`` over the fitted training set.
Only terms present in a tweet produce entries, so vectors stay sparse, and
zero products (terms appearing in every training document) are dropped.

``vectorize`` looks terms up in ``Vocabulary.index_idf``, which holds only
the terms that can produce an entry. In a tweet where no token repeats,
every ``f`` equals ``max_f``, so tf is exactly 1.0 and each entry is the
term's ``(index, idf)`` pair as stored: such a tweet needs no counting.
"""
from __future__ import annotations

import math
import re
from itertools import filterfalse
from typing import Iterable, Sequence

from .errors import TrainingDataError
from .value import Value

# Tokenization policy identifier; stored in model files so a model file is
# self-describing. Any change to tokenize() must introduce a new identifier.
TOKEN_RULES_V1 = "lower/alnum-split/minlen2/dropnum"

# A maximal alphanumeric run of two or more characters once ``_`` is folded
# to a space (``\w`` is exactly ``str.isalnum()`` plus ``_``): a shorter run
# can never match, so the regex alone drops single-character tokens.
_TOKEN_RE = re.compile(r"\w{2,}")


def _word_runs(text: str) -> list[str]:
    """The lowercased text's alphanumeric runs of two or more characters,
    split on everything else (incl. ``&`` and ``_``); pure numbers kept."""
    return _TOKEN_RE.findall(text.lower().replace("_", " "))


def tokenize(text: str) -> list[str]:
    """Lowercase, split on non-alphanumerics (incl. ``&`` and ``_``), and
    drop single-character tokens and pure numbers."""
    return list(filterfalse(str.isdigit, _word_runs(text)))


class Vocabulary(Value):
    """Term index, per-term document frequencies, and training-corpus size."""

    # index_idf: term -> (dense index, idf), built once for vectorize(). It
    # holds only the terms that can produce an entry, so vectorize() keeps
    # every hit: a pure number (tokenize drops it) and a term in every
    # training document (idf 0, so a zero product) are left out.
    __slots__ = ("terms", "doc_frequency", "corpus_size", "index_idf")
    _fields = ("terms", "doc_frequency", "corpus_size")

    def __init__(self, terms: dict[str, int], doc_frequency: dict[str, int], corpus_size: int):
        """``terms`` maps each term to its dense index, in first-seen order;
        ``doc_frequency`` to the number of training docs containing it."""
        self._set_slots(terms, doc_frequency, corpus_size, {})
        for term, index in terms.items():
            idf = inverse_document_frequency(self, term)
            if idf != 0.0 and not term.isdigit():
                self.index_idf[term] = (index, idf)

    def __len__(self) -> int:
        return len(self.terms)


class SparseVector(Value):
    """Index-sorted, zero-free (index, value) entries of a tweet vector.

    ``vectorize`` builds the entries sorted by strictly increasing index and
    free of zeros; the constructor does not check them."""

    __slots__ = _fields = ("entries",)

    def __init__(self, entries: tuple[tuple[int, float], ...] = ()):
        _set_entries(self, entries)

    def dot(self, dense: Sequence[float]) -> float:
        """The products summed left to right in index order. An explicit loop,
        not ``sum``: Python 3.12's ``sum`` compensates float rounding, which
        would change the last bits of a decision value."""
        total = 0.0
        for index, value in self.entries:
            total += dense[index] * value
        return total

    def squared_norm(self) -> float:
        """The squares summed left to right in an explicit loop, as ``dot`` sums."""
        total = 0.0
        for _, value in self.entries:
            total += value * value
        return total

    def as_dict(self) -> dict[int, float]:
        return dict(self.entries)

    def __len__(self) -> int:
        return len(self.entries)


# The setter of the slot. One vector is built per distinct scored text, and
# calling it skips the attribute lookup that object.__setattr__ makes.
_set_entries = SparseVector.entries.__set__


class TfIdfModel(Value):
    """A vocabulary fitted on texts tokenized by ``tokenize`` (TOKEN_RULES_V1)."""

    __slots__ = _fields = ("vocabulary",)

    def __init__(self, vocabulary: Vocabulary):
        self._set_slots(vocabulary)


def build_vocabulary(training_docs: Iterable[Sequence[str]]) -> Vocabulary:
    """Index all distinct tokens in first-seen order and count, per term, the
    number of documents containing it at least once."""
    terms: dict[str, int] = {}
    doc_frequency: dict[str, int] = {}
    corpus_size = 0
    for doc in training_docs:
        corpus_size += 1
        for token in dict.fromkeys(doc):  # distinct tokens, order preserved
            if token not in terms:
                terms[token] = len(terms)
            doc_frequency[token] = doc_frequency.get(token, 0) + 1
    if not terms:
        raise TrainingDataError("training documents contain no tokens")
    return Vocabulary(terms=terms, doc_frequency=doc_frequency, corpus_size=corpus_size)


def inverse_document_frequency(vocab: Vocabulary, term: str) -> float:
    """Natural-log idf, ``ln(N / df)``; zero for terms in every document."""
    return math.log(vocab.corpus_size / vocab.doc_frequency[term])


def fit_tfidf(texts: Iterable[str]) -> TfIdfModel:
    """Tokenize the training texts and fit the vocabulary."""
    vocab = build_vocabulary(tokenize(text) for text in texts)
    return TfIdfModel(vocabulary=vocab)


def vectorize(model: TfIdfModel, text: str) -> SparseVector:
    """Map a text to its sparse tf-idf vector under the fitted model: the one
    place the tf-idf formula is applied.

    Tokens outside the vocabulary are ignored (they still count toward the
    within-tweet frequency maximum); entries whose product is exactly zero
    are dropped.
    """
    runs = _word_runs(text)
    index_idf = model.vocabulary.index_idf
    if len(set(runs)) == len(runs):
        # No token repeats, so tf = 0.5 + 0.5 * 1 / 1 = 1.0 for every term.
        return SparseVector(tuple(sorted(filter(None, map(index_idf.get, runs)))))
    counts: dict[str, int] = {}
    for token in filterfalse(str.isdigit, runs):
        counts[token] = counts.get(token, 0) + 1
    max_f = max(counts.values(), default=1)  # no counts: only numbers repeat
    entries = []
    for token, occurrences in counts.items():
        known = index_idf.get(token)
        if known is not None:
            index, idf = known
            entries.append((index, (0.5 + 0.5 * occurrences / max_f) * idf))
    entries.sort()
    return SparseVector(tuple(entries))
