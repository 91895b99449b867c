import json
import math
import sys
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from outbreakmon import vectorizer
from outbreakmon.errors import TrainingDataError
from outbreakmon.svm import SvmModel, TrainingMeta, load_model, save_model
from outbreakmon.vectorizer import (
    SparseVector,
    TOKEN_RULES_V1,
    Vocabulary,
    build_vocabulary,
    fit_tfidf,
    inverse_document_frequency,
    tokenize,
    vectorize,
)

from oracles import findall_tokenize, tfidf_by_hand

LN_2 = 0.6931471805599453  # math.log(2), frozen
LN_200 = 5.298317366548036  # math.log(200), frozen


class TestTokenize:
    def test_basic(self):
        assert tokenize("Salmonella outbreak!") == ["salmonella", "outbreak"]

    def test_numbers_and_short_tokens_dropped(self):
        assert tokenize("CDC: 285 ill") == ["cdc", "ill"]

    def test_empty(self):
        assert tokenize("") == []

    def test_ampersand_and_underscore_split(self):
        assert tokenize("at&t and foo_bar") == ["at", "and", "foo", "bar"]

    def test_alphanumeric_mix_kept(self):
        assert tokenize("h1n1 2015") == ["h1n1"]

    # "²" is a digit that isdecimal() rejects; "İ" lowercases to "i" plus a
    # combining dot, which is not alphanumeric.
    @settings(max_examples=1000, deadline=None)
    @given(text=st.text(alphabet=st.one_of(
        st.characters(), st.sampled_from("aZ09_& ²İ\u0307\u00b9\u0661ǅ"))))
    @example(text="a_b a&b x² ²² 1² İİ aİ __ab__ 9a 99")
    def test_equals_the_findall_then_filter_rule(self, text):
        assert tokenize(text) == findall_tokenize(text)

    # tokenize runs \w over text with "_" folded to a space; the oracle runs
    # [^\W_]. Every code point of this Python's Unicode tables, on its own
    # doubled and between two ASCII letters, shows the two classes agree.
    @pytest.mark.parametrize("context", ["{0}{0}", "a{0}b"])
    def test_equals_the_findall_then_filter_rule_on_every_code_point(self, context):
        text = "".join(context.format(chr(point)) for point in range(sys.maxunicode + 1))
        assert tokenize(text) == findall_tokenize(text)


class TestBuildVocabulary:
    def test_direct_counting(self):
        vocab = build_vocabulary([["aa", "bb"], ["bb", "cc"]])
        assert vocab.terms == {"aa": 0, "bb": 1, "cc": 2}
        assert vocab.doc_frequency == {"aa": 1, "bb": 2, "cc": 1}
        assert vocab.corpus_size == 2

    def test_presence_not_occurrence(self):
        vocab = build_vocabulary([["xx", "xx", "xx"]])
        assert vocab.doc_frequency["xx"] == 1
        assert vocab.corpus_size == 1

    def test_two_hundred_docs(self):
        docs = [[f"tok{i}", "shared"] for i in range(200)]
        vocab = build_vocabulary(docs)
        assert vocab.corpus_size == 200
        assert vocab.doc_frequency["shared"] == 200

    def test_dense_first_seen_indices(self):
        vocab = build_vocabulary([["cc", "aa"], ["bb", "aa"]])
        assert list(vocab.terms.values()) == [0, 1, 2]
        assert list(vocab.terms) == ["cc", "aa", "bb"]

    def test_empty_training_set_rejected(self):
        with pytest.raises(TrainingDataError):
            build_vocabulary([])

    def test_tokenless_training_set_rejected(self):
        with pytest.raises(TrainingDataError):
            build_vocabulary([[], []])


# The tf formula lives only inside vectorize(), so its cases are read off
# vector entries: every term below is in exactly one of two training
# documents, so its idf is ln 2 and its entry is tf * ln 2.
def _entries_over_idf_ln2(terms, text):
    model = fit_tfidf([" ".join(terms), "qq"])
    assert all(idf == LN_2 for _, idf in model.vocabulary.index_idf.values())
    index_of = model.vocabulary.terms
    got = vectorize(model, text).as_dict()
    return {term: got[index_of[term]] for term in terms if index_of[term] in got}


class TestTermFrequency:
    def test_max_frequency_term(self):
        entries = _entries_over_idf_ln2(["salmonella", "cucumbers"],
                                        "salmonella cucumbers salmonella")
        assert entries["salmonella"] == 1.0 * LN_2

    def test_half_of_max(self):
        entries = _entries_over_idf_ln2(["salmonella", "cucumbers"],
                                        "salmonella cucumbers salmonella")
        assert entries["cucumbers"] == 0.75 * LN_2

    def test_singleton(self):
        assert _entries_over_idf_ln2(["xx"], "xx") == {"xx": 1.0 * LN_2}

    @settings(max_examples=200, deadline=None)
    @given(
        counts=st.dictionaries(
            st.text(alphabet="abcdef", min_size=2, max_size=6),
            st.integers(min_value=1, max_value=50), min_size=1, max_size=8,
        )
    )
    def test_range_half_exclusive_to_one(self, counts):
        text = " ".join(term for term, f in counts.items() for _ in range(f))
        entries = _entries_over_idf_ln2(list(counts), text)
        assert set(entries) == set(counts)
        for value in entries.values():
            assert 0.5 * LN_2 < value <= 1.0 * LN_2


class TestInverseDocumentFrequency:
    def test_term_in_every_document_is_zero(self):
        vocab = Vocabulary(terms={"t": 0}, doc_frequency={"t": 4}, corpus_size=4)
        assert inverse_document_frequency(vocab, "t") == 0.0

    def test_natural_log_half(self):
        vocab = Vocabulary(terms={"t": 0}, doc_frequency={"t": 2}, corpus_size=4)
        assert inverse_document_frequency(vocab, "t") == pytest.approx(LN_2, rel=1e-12)

    def test_rare_term_in_200_docs(self):
        vocab = Vocabulary(terms={"t": 0}, doc_frequency={"t": 1}, corpus_size=200)
        assert inverse_document_frequency(vocab, "t") == pytest.approx(LN_200, rel=1e-12)

    def test_unknown_term_raises(self):
        vocab = Vocabulary(terms={"t": 0}, doc_frequency={"t": 1}, corpus_size=1)
        with pytest.raises(KeyError):
            inverse_document_frequency(vocab, "nope")


class TestVectorize:
    def test_hand_computed_example(self):
        # fit on two docs {aa bb} {bb cc}; "aa aa bb" gives tf(aa)=1, idf(aa)=ln 2,
        # and bb drops out because its idf is ln(2/2) = 0.
        model = fit_tfidf(["aa bb", "bb cc"])
        vector = vectorize(model, "aa aa bb")
        assert vector.as_dict() == {0: pytest.approx(LN_2, rel=1e-12)}

    def test_out_of_vocabulary_only(self):
        model = fit_tfidf(["aa bb", "bb cc"])
        assert vectorize(model, "zz qq").entries == ()

    def test_empty_text(self):
        model = fit_tfidf(["aa bb", "bb cc"])
        assert vectorize(model, "").entries == ()

    def test_oov_tokens_still_raise_the_frequency_ceiling(self):
        # "zz" occurs 3 times and owns max_f even though it is not in the
        # vocabulary, so tf(aa) = 0.5 + 0.5/3.
        model = fit_tfidf(["aa bb", "bb cc"])
        vector = vectorize(model, "zz zz zz aa")
        expected = (0.5 + 0.5 / 3) * LN_2
        assert vector.as_dict() == {0: pytest.approx(expected, rel=1e-12)}

    def test_reproduces_formula_oracle_on_training_docs(self):
        texts = [
            "salmonella outbreak cucumbers recalled",
            "cucumbers cucumbers salad recipe fresh",
            "outbreak warning salmonella poona strain officials",
            "weather sunny salad picnic fresh fresh fresh",
        ]
        model = fit_tfidf(texts)
        docs = [tokenize(t) for t in texts]
        expected = tfidf_by_hand(docs)
        index_of = model.vocabulary.terms
        for text, want in zip(texts, expected):
            got = vectorize(model, text).as_dict()
            assert set(got) == {index_of[t] for t in want}
            for term, value in want.items():
                assert got[index_of[term]] == pytest.approx(value, rel=1e-12)

    # Tokens of two or three characters pass tokenize() unchanged unless they
    # are all digits, which it drops and which then count toward no maximum;
    # a small alphabet makes repeats, shared terms and terms in every
    # document common.
    @settings(max_examples=300, deadline=None)
    @given(docs=st.lists(st.lists(st.text(alphabet="ab1", min_size=2, max_size=3),
                                  max_size=10), min_size=1, max_size=8))
    def test_bit_equal_to_formula_oracle_on_random_token_documents(self, docs):
        terms = [[token for token in doc if not token.isdigit()] for doc in docs]
        assume(any(terms))
        texts = [" ".join(doc) for doc in docs]
        model = fit_tfidf(texts)
        index_of = model.vocabulary.terms
        for text, want in zip(texts, tfidf_by_hand(terms)):
            expected = tuple(sorted((index_of[term], value) for term, value in want.items()))
            vector = vectorize(model, text)
            assert vector.entries == expected
            # built without the public checks, yet equal to a checked vector
            assert vector == SparseVector(entries=expected)

    def test_entries_sorted_and_nonzero(self):
        model = fit_tfidf(["dd cc bb aa", "aa ee"])
        vector = vectorize(model, "aa bb cc dd ee")
        indices = [i for i, _ in vector.entries]
        assert indices == sorted(indices)
        assert all(v != 0.0 for _, v in vector.entries)

    def test_deterministic(self):
        model = fit_tfidf(["aa bb cc", "cc dd"])
        assert vectorize(model, "aa cc dd") == vectorize(model, "aa cc dd")

    def test_values_non_negative_and_entry_count_bounded(self):
        model = fit_tfidf(["aa bb cc", "cc dd ee", "ee ff"])
        vector = vectorize(model, "aa aa cc ff zz")
        assert all(value >= 0.0 for _, value in vector.entries)
        distinct_in_vocab = {"aa", "cc", "ff"}
        assert len(vector) <= len(distinct_in_vocab)


# "every" is in every training document, so its idf is 0 and it makes no entry.
_MIXED_TRAINING = ["every salmonella outbreak çava", "every cucumbers salmonella naïve",
                   "every outbreak h1n1 recall", "every recall naïve naïve"]
_IN_VOCABULARY = ["every", "salmonella", "SALMONELLA", "outbreak", "Çava", "naïve", "h1n1",
                  "recall", "cucumbers"]
# Pieces that add no vocabulary term: out-of-vocabulary words, handles,
# hashtags and URLs, pure numbers, single characters and bare separators.
_OUT_OF_VOCABULARY = ["@cdcgov", "#outbreak2015", "http://t.co/x1", "zq9x", "123", "2015",
                      "a", "É", "_", "&", "fat_boy", "at&t", "ça", "²²", "salmonellosis"]


class TestOutOfVocabularyTokens:
    model = fit_tfidf(_MIXED_TRAINING)

    # Texts in which no token repeats and texts in which one does take
    # different paths through vectorize(); the examples force each of them.
    @settings(max_examples=500, deadline=None)
    @given(pieces=st.lists(st.sampled_from(_IN_VOCABULARY + _OUT_OF_VOCABULARY), max_size=12),
           separator=st.sampled_from([" ", "_", "&", "-", "  "]))
    @example(pieces=["every", "salmonella", "2015", "fat_boy", "h1n1", "zq9x"], separator=" ")
    @example(pieces=["salmonella", "salmonella", "zq9x", "zq9x", "zq9x"], separator=" ")
    @example(pieces=["every", "recall", "every"], separator="&")
    @example(pieces=["2015", "outbreak", "2015"], separator="_")
    @example(pieces=["2015", "2015"], separator=" ")
    def test_bit_equal_to_a_by_hand_formula_on_mixed_texts(self, pieces, separator):
        text = separator.join(pieces)
        training = [findall_tokenize(doc) for doc in _MIXED_TRAINING]
        [want] = tfidf_by_hand(training, [findall_tokenize(text)])
        index_of = self.model.vocabulary.terms
        expected = tuple(sorted((index_of[term], value) for term, value in want.items()))
        assert vectorize(self.model, text).entries == expected

    # Each piece is kept in the text, or added to it only in the second one;
    # an added piece is always outside the vocabulary.
    @settings(max_examples=300, deadline=None)
    @given(pieces=st.lists(st.one_of(
        st.tuples(st.sampled_from(_IN_VOCABULARY + _OUT_OF_VOCABULARY), st.just(False)),
        st.tuples(st.sampled_from(_OUT_OF_VOCABULARY), st.just(True))), max_size=12))
    @example(pieces=[("salmonella", False), ("#outbreak2015", True), ("@cdcgov", True)])
    def test_added_tokens_outside_the_vocabulary_change_nothing(self, pieces):
        text = " ".join(piece for piece, added in pieces if not added)
        extended = " ".join(piece for piece, _ in pieces)
        highest = [max(Counter(tokenize(t)).values(), default=0) for t in (text, extended)]
        assume(highest[0] == highest[1])
        assert vectorize(self.model, text) == vectorize(self.model, extended)


class TestSparseVector:
    def test_rejects_unsorted_indices(self):
        with pytest.raises(ValueError):
            SparseVector(entries=((2, 1.0), (1, 1.0)))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            SparseVector(entries=((1, 1.0), (1, 2.0)))

    def test_rejects_stored_zero(self):
        with pytest.raises(ValueError):
            SparseVector(entries=((0, 0.0),))

    def test_dot_and_norm(self):
        vector = SparseVector(entries=((0, 2.0), (3, -1.0)))
        assert vector.dot([1.0, 9.0, 9.0, 4.0]) == -2.0
        assert vector.squared_norm() == 5.0

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.floats(-1e6, 1e6, allow_nan=False).filter(bool), max_size=30))
    def test_squared_norm_is_the_left_to_right_loop(self, values):
        total = 0.0
        for value in values:
            total = total + value * value
        assert SparseVector(entries=tuple(enumerate(values))).squared_norm() == total

    # The exact sum of the squares is 1 + 2e-16. Left to right, each 1e-16 is
    # lost against 1.0; a compensated sum (math.fsum, or sum() over floats from
    # Python 3.12 on) rounds the exact sum up to the next double.
    def test_squared_norm_probe_unchanged_by_a_compensated_sum(self, monkeypatch):
        values = (1.0, 1e-8, 1e-8)
        assert math.fsum(v * v for v in values) == 1.0000000000000002
        monkeypatch.setattr(vectorizer, "sum", math.fsum, raising=False)
        assert SparseVector(entries=tuple(enumerate(values))).squared_norm() == 1.0


# Vocabulary terms that can make no entry: a pure number, capitals and a
# single character, which tokenize() never yields, and "every", which is in
# all four training documents (idf 0).
_ODD_MODEL = """{"format": "outbreakmon-svm-model", "version": 1,
 "token_rules": "lower/alnum-split/minlen2/dropnum",
 "vocabulary": {"corpus_size": 4, "terms": [["2015", 1], ["ABC", 2], ["salmonella", 2],
                                            ["x", 1], ["every", 4]]},
 "weights": [0.5, -0.25, 1.5, 2.0, -3.0], "bias": 0.125,
 "training_meta": {"C": 1.0, "epochs_run": 3, "final_objective": 0.5}}
"""


@pytest.mark.parametrize("text, entries", [
    ("2015 abc ABC_x X every salmonella", ((2, 0.75 * LN_2),)),  # "abc" repeats
    ("Salmonella 2015 ABC x every", ((2, LN_2),)),  # no token repeats
    ("2015 2015 abc every", ()),
])
def test_terms_that_can_make_no_entry_load_and_make_none(tmp_path, text, entries):
    path = tmp_path / "model.json"
    path.write_text(_ODD_MODEL, encoding="utf-8")
    model = load_model(path)
    assert model.vectorizer.vocabulary == Vocabulary(
        terms={"2015": 0, "ABC": 1, "salmonella": 2, "x": 3, "every": 4},
        doc_frequency={"2015": 1, "ABC": 2, "salmonella": 2, "x": 1, "every": 4},
        corpus_size=4)
    assert (model.weights, model.bias) == ((0.5, -0.25, 1.5, 2.0, -3.0), 0.125)
    assert vectorize(model.vectorizer, text).entries == entries


def test_token_rules_recorded_in_model(tmp_path):
    model = SvmModel(weights=[0.5, -0.5], bias=0.0, vectorizer=fit_tfidf(["aa bb"]),
                     training_meta=TrainingMeta(C=1.0, epochs_run=1, final_objective=0.0))
    save_model(model, tmp_path / "model.json")
    assert json.loads((tmp_path / "model.json").read_text())["token_rules"] == TOKEN_RULES_V1
