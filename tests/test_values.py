"""Value semantics of the package's record types: no field can be assigned
or deleted, and equality, hash and repr read the declared fields only."""
from datetime import date, datetime, timezone

import pytest

from outbreakmon.cli import PipelineConfig
from outbreakmon.corpus import Corpus, LabeledExample, TweetRecord, parse_tweet_line
from outbreakmon.keywords import KeywordSet
from outbreakmon.svm import SvmModel, TrainingConfig, TrainingMeta
from outbreakmon.timeline import EventRecord, EventTimeline, PeriodReport, PeriodRow
from outbreakmon.vectorizer import SparseVector, TfIdfModel, Vocabulary

STAMP = datetime(2015, 9, 4, 12, tzinfo=timezone.utc)
LINE = '{"id":"1","timestamp":"2015-09-04T12:00:00Z","text":"salmonella"}'


def _record():
    return TweetRecord("1", STAMP, "salmonella")


def _vocabulary():
    return Vocabulary(terms={"salmonella": 0, "cucumber": 1},
                      doc_frequency={"salmonella": 1, "cucumber": 2}, corpus_size=2)


def _model():
    return SvmModel([1, -1], 0.5, TfIdfModel(_vocabulary()), TrainingMeta(1.0, 3, 0.25))


def _event():
    return EventRecord(date(2015, 9, 4), "announcement", None, 285, 27, "initial")


# frozen type -> (a builder whose calls give equal values, every attribute it has)
FROZEN = {
    TweetRecord: (_record, ("id", "timestamp", "text", "source_line")),
    LabeledExample: (lambda: LabeledExample(_record(), 1), ("record", "label")),
    Corpus: (lambda: Corpus((_record(),), 2), ("records", "rejected_count")),
    KeywordSet: (lambda: KeywordSet(("Salmonella Poona",)), ("phrases", "pattern", "anchors")),
    Vocabulary: (_vocabulary, ("terms", "doc_frequency", "corpus_size", "index_idf")),
    SparseVector: (lambda: SparseVector(((0, 0.5), (3, 1.5))), ("entries",)),
    TfIdfModel: (lambda: TfIdfModel(_vocabulary()), ("vocabulary",)),
    TrainingConfig: (lambda: TrainingConfig(C=2.0), ("C", "tolerance", "max_epochs", "seed")),
    TrainingMeta: (lambda: TrainingMeta(1.0, 3, 0.25), ("C", "epochs_run", "final_objective")),
    SvmModel: (_model, ("weights", "bias", "vectorizer", "training_meta")),
    EventRecord: (_event, ("date", "kind", "new_ill", "cumulative_ill", "states", "note")),
    EventTimeline: (lambda: EventTimeline((_event(),)), ("events", "boundaries")),
    PeriodRow: (lambda: PeriodRow(None, date(2015, 9, 4), 3), ("start", "end", "count")),
    PeriodReport: (lambda: PeriodReport((PeriodRow(None, None, 3),)), ("rows",)),
}
# the frozen types whose fields include a dict, so that no value of them hashes
UNHASHABLE = (Vocabulary, TfIdfModel)


@pytest.mark.parametrize("cls", FROZEN, ids=lambda cls: cls.__name__)
def test_no_attribute_can_be_assigned_or_deleted(cls):
    make, names = FROZEN[cls]
    value = make()
    for name in names:
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before
    with pytest.raises(AttributeError):
        value.unknown = 1


@pytest.mark.parametrize("cls", [cls for cls in FROZEN if cls is not SvmModel],
                         ids=lambda cls: cls.__name__)
def test_equal_values_hash_equal(cls):
    make = FROZEN[cls][0]
    first, second = make(), make()
    assert first is not second
    assert first == second and not first != second
    assert repr(first) == repr(second)
    assert first != tuple(getattr(first, name) for name in FROZEN[cls][1])
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(first)
    else:
        assert hash(first) == hash(second)
        assert len({first, second}) == 1


def test_values_differing_in_one_field_are_unequal():
    assert TweetRecord("1", STAMP, "salmonella") != TweetRecord("2", STAMP, "salmonella")
    assert SparseVector(((0, 0.5),)) != SparseVector(((0, 0.25),))
    assert EventRecord(date(2015, 9, 4), "recall") != EventRecord(date(2015, 9, 4), "recall",
                                                                  note="Fat Boy")
    assert PeriodRow(None, None, 3) != PeriodRow(None, None, 4)


def test_tweet_record_equality_hash_and_repr_ignore_the_source_line():
    echoed, built = parse_tweet_line(LINE), _record()
    assert echoed.source_line == LINE + "\n" and built.source_line is None
    assert echoed == built and hash(echoed) == hash(built)
    assert repr(echoed) == repr(built) == (
        "TweetRecord(id='1', timestamp=datetime.datetime(2015, 9, 4, 12, 0, "
        "tzinfo=datetime.timezone.utc), text='salmonella')")


def test_svm_models_compare_by_identity():
    first, second = _model(), _model()
    assert first == first and hash(first) == hash(first)
    assert first.weights == second.weights and first.training_meta == second.training_meta
    assert first != second and len({first, second}) == 2


def test_keyword_sets_compare_on_their_phrases_only():
    first, second = KeywordSet(("Salmonella",)), KeywordSet(("Salmonella",))
    object.__setattr__(second, "pattern", None)
    object.__setattr__(second, "anchors", ())
    assert first == second and hash(first) == hash(second)
    assert repr(first) == repr(second) == "KeywordSet(phrases=('Salmonella',))"
    assert first != KeywordSet(("Salmonella Poona",))


def test_vocabularies_compare_on_terms_frequencies_and_size_only():
    first, second = _vocabulary(), _vocabulary()
    object.__setattr__(second, "index_idf", {})
    assert first == second
    assert repr(first) == repr(second) == (
        "Vocabulary(terms={'salmonella': 0, 'cucumber': 1}, "
        "doc_frequency={'salmonella': 1, 'cucumber': 2}, corpus_size=2)")
    assert first != Vocabulary(first.terms, first.doc_frequency, 3)


def test_pipeline_config_is_a_frozen_hashable_value():
    config = PipelineConfig()
    assert config == PipelineConfig() and config != PipelineConfig(seed=7)
    assert repr(PipelineConfig(seed=7)).startswith("PipelineConfig(input=None, keywords=None,")
    with pytest.raises(AttributeError):
        config.seed = 7
    with pytest.raises(AttributeError):
        del config.seed
    assert config.replace(seed=7) == PipelineConfig(seed=7) and config == PipelineConfig()
    assert hash(config) == hash(PipelineConfig())
    assert len({config, PipelineConfig(), config.replace(seed=7)}) == 2
    with pytest.raises(TypeError):
        PipelineConfig(sead=7)
