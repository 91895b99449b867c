import random
from datetime import datetime, timezone

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outbreakmon.corpus import Corpus, TweetRecord
from outbreakmon.errors import ParseError
from outbreakmon.keywords import (
    DEFAULT_PHRASES,
    KeywordSet,
    default_keywords,
    filter_corpus,
    load_keywords,
    matches,
    normalize_text,
)

from oracles import brute_normalize, brute_phrase_match, padded_phrase_match


def record(i, text):
    return TweetRecord(f"t{i}", datetime(2015, 9, 4, tzinfo=timezone.utc), text)


class TestDefaultKeywords:
    def test_exactly_the_seven_builtin_phrases(self):
        keywords = default_keywords()
        assert keywords.phrases == (
            "Salmonella",
            "Salmonella Poona",
            "Salmonella Tainted",
            "Contaminated Cucumbers",
            "Andrew & Williamson Fresh Produce",
            "Fat Boy Brand",
            "Mexican Cucumbers",
        )
        assert len(keywords.phrases) == 7

    def test_every_phrase_normalizes_non_empty(self):
        assert all(normalize_text(p) for p in default_keywords().phrases)


class TestNormalizeText:
    def test_punctuation_and_case(self):
        assert normalize_text("Fat  Boy  BRAND!!") == "fat boy brand"

    def test_ampersand_preserved(self):
        assert normalize_text("Andrew & Williamson") == "andrew & williamson"

    def test_empty(self):
        assert normalize_text("") == ""

    def test_whitespace_collapse(self):
        assert normalize_text("  a\t\tb \n c  ") == "a b c"


class TestMatches:
    def test_phrase_present_after_normalization(self):
        assert matches(default_keywords(), "CDC issues recall of fat boy brand cucumbers")

    def test_no_phrase_present(self):
        assert not matches(default_keywords(), "I love tacos")

    def test_word_boundary_no_substring_hit(self):
        text = "salmonellafear is trending"
        assert not matches(default_keywords(), text)
        assert not brute_phrase_match(DEFAULT_PHRASES, text)

    def test_multiword_phrase_needs_contiguity(self):
        assert not matches(default_keywords(), "fat brand boy")
        assert matches(default_keywords(), "so the fat boy brand thing is real")

    def test_anchors_are_the_longest_token_of_each_phrase(self):
        assert default_keywords().anchors == (
            "salmonella", "contaminated", "williamson", "brand", "cucumbers")
        assert KeywordSet(phrases=("a bb", "BB!", "cc dd")).anchors == ("bb", "cc")

    def test_text_without_an_anchor_is_not_searched(self):
        keywords = default_keywords()
        pattern, calls = keywords.pattern, []

        class Spy:
            def search(self, text):
                calls.append(text)
                return pattern.search(text)

        object.__setattr__(keywords, "pattern", Spy())
        assert not matches(keywords, "I love tacos")
        assert calls == []
        assert matches(keywords, "Fat Boy BRAND recall")
        assert calls == ["fat boy brand recall"]

    def test_ampersand_brand_phrase(self):
        assert matches(default_keywords(), "Recall: Andrew & Williamson Fresh Produce cucumbers!")

    def test_agrees_with_window_oracle_on_random_texts(self):
        rng = random.Random(99)
        vocab = ["salmonella", "fear", "fat", "boy", "brand", "cucumbers", "tacos",
                 "mexican", "salmonellosis", "poona", "contaminated", "recall", "&"]
        keywords = default_keywords()
        for _ in range(500):
            words = [rng.choice(vocab) for _ in range(rng.randrange(0, 12))]
            text = " ".join(words)
            assert matches(keywords, text) == brute_phrase_match(DEFAULT_PHRASES, text)


class TestFilterCorpus:
    def test_all_match(self):
        corpus = Corpus(tuple(record(i, f"salmonella news {i} update") for i in range(5)))
        assert filter_corpus(corpus, default_keywords()) == corpus

    def test_none_match(self):
        corpus = Corpus(tuple(record(i, "just tacos") for i in range(5)))
        filtered = filter_corpus(corpus, default_keywords())
        assert len(filtered) == 0

    def test_mixed_subset_equals_per_record_check(self):
        texts = [
            "salmonella outbreak",
            "nice weather",
            "MEXICAN CUCUMBERS recalled",
            "salmonellosis study",
            "Fat Boy Brand!!",
            "cucumber salad recipe",
            "contaminated cucumbers warning",
            "fat boy",
            "Salmonella Poona strain",
            "random chatter",
        ]
        corpus = Corpus(tuple(record(i, t) for i, t in enumerate(texts)))
        filtered = filter_corpus(corpus, default_keywords())
        expected = tuple(
            r for r in corpus.records if brute_phrase_match(DEFAULT_PHRASES, r.text)
        )
        assert filtered.records == expected

    def test_idempotent(self):
        corpus = Corpus(tuple(record(i, t) for i, t in enumerate(
            ["salmonella alert", "tacos", "fat boy brand cucumbers"] * 4)))
        once = filter_corpus(corpus, default_keywords())
        twice = filter_corpus(once, default_keywords())
        assert once == twice

    def test_kept_plus_dropped_conservation(self):
        rng = random.Random(4)
        texts = [
            " ".join(rng.choice(["salmonella", "x", "boy", "fat", "yes"]) for _ in range(5))
            for _ in range(50)
        ]
        corpus = Corpus(tuple(record(i, t) for i, t in enumerate(texts)))
        filtered = filter_corpus(corpus, default_keywords())
        dropped = len(corpus) - len(filtered)
        assert len(filtered) + dropped == len(corpus)

    def test_never_reorders(self):
        corpus = Corpus(tuple(record(i, "salmonella " + "x" * i) for i in range(20)))
        filtered = filter_corpus(corpus, default_keywords())
        ids = [r.id for r in filtered]
        assert ids == sorted(ids, key=lambda s: int(s[1:]))


# Latin-1 only: exotic one-way case mappings (U+017F and friends) can turn a
# non-matching token into a keyword under upper(), which is not the contract.
@settings(max_examples=150, deadline=None)
@given(
    text=st.text(alphabet=st.characters(min_codepoint=0x20, max_codepoint=0xFF)),
    pad_left=st.text(alphabet=" \t\n", max_size=5),
    pad_right=st.text(alphabet=" \t\n", max_size=5),
)
def test_matches_invariant_under_case_and_padding(text, pad_left, pad_right):
    keywords = default_keywords()
    base = matches(keywords, text)
    assert matches(keywords, text.upper()) == base
    assert matches(keywords, pad_left + text + pad_right) == base


# Phrase words and their near misses, glued to arbitrary Unicode so that hits,
# word-boundary misses and exotic separators all occur. The near misses hold a
# phrase's anchor without matching it, and the last three characters change
# length or form under lower(), so matches' anchor prefilter is tested at its
# edge.
_PHRASE_WORDS = ["Salmonella", "salmonellosis", "POONA", "tainted", "contaminated",
                 "Cucumbers", "andrew", "&", "Williamson", "fresh", "produce", "fat",
                 "boy", "Brand", "mexican", " ", "!", "Williamsons", "salmonella_",
                 "BRANDS", "cucumbers&co", "\u0130", "\u1e9e", "\u212a"]
_texts = st.lists(st.one_of(st.text(), st.sampled_from(_PHRASE_WORDS)), max_size=12).map("".join)
_keyword_sets = st.one_of(
    st.just(default_keywords()),
    st.lists(_texts.filter(lambda p: normalize_text(p)), min_size=1, max_size=4).map(
        lambda phrases: KeywordSet(phrases=tuple(phrases))),
)


@settings(max_examples=300, deadline=None)
@given(keywords=_keyword_sets, texts=st.lists(_texts, max_size=8))
def test_filter_keeps_exactly_the_window_oracle_matches(keywords, texts):
    corpus = Corpus(tuple(record(i, text) for i, text in enumerate(texts)))
    expected = tuple(r for r in corpus.records if brute_phrase_match(keywords.phrases, r.text))
    assert filter_corpus(corpus, keywords).records == expected


@settings(max_examples=300, deadline=None)
@given(keywords=_keyword_sets, text=_texts)
def test_anchor_prefilter_changes_no_verdict(keywords, text):
    assert matches(keywords, text) == (keywords.pattern.search(text.lower()) is not None)


# Separators, joiners and characters whose case mapping changes length or
# form: the places where one pattern over lowercased text and the padded
# substring test over normalized text could part ways.
_TRICKY = st.text(alphabet="&_-\t\u00a0\u2028\u0130\u00df\u03a3\u03c2\u0301\u0663\u00b2 ab",
                  max_size=10)
_tricky_texts = st.lists(st.one_of(_TRICKY, st.sampled_from(_PHRASE_WORDS)),
                         max_size=8).map("".join)


@settings(max_examples=500, deadline=None)
@given(phrases=st.lists(_tricky_texts.filter(normalize_text), min_size=1, max_size=4),
       texts=st.lists(_tricky_texts, max_size=6))
def test_matches_agrees_with_padded_substring_oracle(phrases, texts):
    keywords = KeywordSet(phrases=tuple(phrases))
    for text in texts + [" ".join(phrases), "_".join(phrases).upper()]:
        assert matches(keywords, text) == padded_phrase_match(phrases, text)


@settings(max_examples=500, deadline=None)
@given(text=st.one_of(st.text(), _texts, st.text(alphabet="_&- \t\u00a0\u2028Aa1\u0130")))
def test_normalize_text_agrees_with_brute_oracle(text):
    assert normalize_text(text) == brute_normalize(text)


class TestKeywordFiles:
    def test_load_with_comments_and_blanks(self):
        lines = ["# watch list", "", "Salmonella", "  Fat Boy Brand  ", "# end"]
        keywords = load_keywords(lines)
        assert keywords.phrases == ("Salmonella", "Fat Boy Brand")

    def test_empty_file_rejected(self):
        with pytest.raises(ParseError):
            load_keywords(["# nothing here", ""])

    def test_unnormalizable_phrase_rejected(self):
        with pytest.raises(ParseError, match="line 2"):
            load_keywords(["ok", "!!!"])

    def test_keyword_set_invariants(self):
        with pytest.raises(ValueError):
            KeywordSet(phrases=())
        with pytest.raises(ValueError):
            KeywordSet(phrases=("...",))
