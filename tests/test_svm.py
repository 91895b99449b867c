import hashlib
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outbreakmon import svm, vectorizer
from outbreakmon.corpus import load_labeled_set
from outbreakmon.errors import ModelFileError, TrainingDataError
from outbreakmon.svm import (
    SvmModel,
    TrainingConfig,
    TrainingMeta,
    decision_value,
    load_model,
    objective,
    predict,
    save_model,
    train,
    train_from_labeled,
    training_accuracy,
)
from outbreakmon.vectorizer import SparseVector, TfIdfModel, Vocabulary

from oracles import svm_grid_solve, svm_qp_solve
from synthdata import labeled_lines


def sv(*dense):
    return SparseVector(entries=tuple((i, float(v)) for i, v in enumerate(dense) if v))


# (name, X rows, labels, C, frozen optimal objective from the QP oracle)
ORACLE_FIXTURES = [
    ("symmetric_1d", [[1.0], [-1.0]], [1, -1], 10.0, 0.5),
    ("separable_2d", [[1.0, 1.0], [2.0, 2.0], [-1.0, -1.0], [-2.0, -1.0]], [1, 1, -1, -1], 1.0, 0.25),
    ("overlap_1d", [[1.0], [-1.0], [-0.2], [0.3]], [1, -1, 1, -1], 1.0, 3.0),
    ("axes_3d",
     [[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0], [-1.0, 0, 0], [0, -1.0, 0], [0, 0, -1.0]],
     [1, 1, 1, -1, -1, -1], 0.5, 1.5),
]

BIG_INT = "1" + "0" * 400  # a JSON integer that float() overflows

# sha256 of the model file that default training on labeled_lines() saves
GOLDEN_MODEL_SHA256 = "1de71bcbbc8b139a41636253c95561e61862dfaf7b54893fcd9f83473b736cd4"

TIGHT = TrainingConfig(C=1.0, tolerance=1e-10, max_epochs=20000, seed=42)


def examples_of(rows, labels):
    return [(sv(*row), label) for row, label in zip(rows, labels)]


class TestObjective:
    def test_zero_weights_gives_c_times_n(self):
        examples = examples_of([[1.0], [2.0], [-1.0]], [1, -1, 1])
        assert objective([0.0], 0.0, examples, C=3.0) == 3.0 * 3

    def test_matches_direct_formula(self):
        examples = examples_of([[1.0, 2.0], [-1.0, 0.5]], [1, -1])
        w, b, C = [0.3, -0.2], 0.1, 2.0
        expected = 0.5 * (0.3**2 + 0.2**2 + 0.1**2)
        for (vec, y) in examples:
            margin = y * (vec.dot(w) + b)
            expected += C * max(0.0, 1.0 - margin)
        assert objective(w, b, examples, C) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("name,rows,labels,C,frozen", ORACLE_FIXTURES)
    def test_oracle_optimum_value(self, name, rows, labels, C, frozen):
        X = np.array(rows, dtype=float)
        y = np.array(labels, dtype=float)
        _, _, oracle_objective = svm_qp_solve(X, y, C)
        assert oracle_objective == pytest.approx(frozen, rel=1e-9)


def test_enumeration_and_grid_oracles_agree():
    for name, rows, labels, C, _ in ORACLE_FIXTURES:
        X = np.array(rows, dtype=float)
        y = np.array(labels, dtype=float)
        _, _, enum_val = svm_qp_solve(X, y, C)
        _, _, grid_val = svm_grid_solve(X, y, C)
        assert grid_val == pytest.approx(enum_val, rel=1e-6), name


class TestTrain:
    def test_symmetric_1d_boundary(self):
        examples = examples_of([[1.0], [-1.0]], [1, -1])
        model = train(examples, TrainingConfig(C=10.0, tolerance=1e-10, max_epochs=1000, seed=42))
        assert model.weights[0] > 0
        assert abs(model.bias) < model.weights[0]
        assert predict(model, sv(1.0)) == 1
        assert predict(model, sv(-1.0)) == -1

    @pytest.mark.parametrize("name,rows,labels,C,frozen", ORACLE_FIXTURES)
    def test_objective_matches_qp_oracle(self, name, rows, labels, C, frozen):
        X = np.array(rows, dtype=float)
        y = np.array(labels, dtype=float)
        oracle_w, oracle_b, oracle_objective = svm_qp_solve(X, y, C)
        examples = examples_of(rows, labels)
        config = TrainingConfig(C=C, tolerance=1e-10, max_epochs=20000, seed=42)
        model = train(examples, config)
        trained_objective = objective(model.weights, model.bias, examples, C)
        assert trained_objective == pytest.approx(oracle_objective, rel=1e-6)
        assert model.training_meta.final_objective == trained_objective
        for vec, _ in examples:
            oracle_sign = 1 if vec.dot(oracle_w) + oracle_b >= 0 else -1
            assert predict(model, vec) == oracle_sign

    def test_dual_variables_stay_in_box(self):
        snapshots = []
        for name, rows, labels, C, _ in ORACLE_FIXTURES:
            examples = examples_of(rows, labels)
            config = TrainingConfig(C=C, tolerance=1e-10, max_epochs=20000, seed=42)
            train(examples, config, trace_hook=lambda e, a, o: snapshots.append((C, a)))
        assert snapshots
        for C, alpha in snapshots:
            assert all(0.0 <= a <= C for a in alpha)

    def test_per_epoch_objective_non_increasing(self):
        for name, rows, labels, C, _ in ORACLE_FIXTURES:
            values = []
            examples = examples_of(rows, labels)
            config = TrainingConfig(C=C, tolerance=1e-10, max_epochs=20000, seed=42)
            train(examples, config, trace_hook=lambda e, a, o: values.append(o))
            for earlier, later in zip(values, values[1:]):
                assert later <= earlier + 1e-9, name

    def test_label_negation_symmetry(self):
        rows = [[1.0, 1.0], [2.0, 2.0], [-1.0, -1.0], [-2.0, -1.0]]
        labels = [1, 1, -1, -1]
        model_pos = train(examples_of(rows, labels), TIGHT)
        model_neg = train(examples_of(rows, [-y for y in labels]), TIGHT)
        probes = [sv(0.0, 0.0), sv(1.0, 0.5), sv(-2.0, 3.0), sv(0.25, -0.75)]
        for probe in probes:
            assert decision_value(model_neg, probe) == pytest.approx(
                -decision_value(model_pos, probe), abs=1e-9
            )
            assert predict(model_neg, probe) == -predict(model_pos, probe) or (
                decision_value(model_pos, probe) == 0.0
            )

    def test_determinism_same_seed_same_model(self):
        examples = load_labeled_set(labeled_lines(40, 40))
        config = TrainingConfig(seed=7)
        first = train_from_labeled(examples, config)
        second = train_from_labeled(examples, config)
        assert np.array_equal(first.weights, second.weights)
        assert first.bias == second.bias
        assert first.training_meta == second.training_meta

    def test_single_class_rejected(self):
        with pytest.raises(TrainingDataError):
            train(examples_of([[1.0], [2.0]], [1, 1]), TIGHT)

    def test_empty_rejected(self):
        with pytest.raises(TrainingDataError):
            train([], TIGHT)

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError):
            train(examples_of([[1.0], [2.0]], [1, 0]), TIGHT)

    def test_non_finite_feature_rejected(self):
        bad = [(SparseVector(entries=((0, math.inf),)), 1), (sv(1.0), -1)]
        with pytest.raises(ValueError):
            train(bad, TIGHT)

    def test_index_beyond_dim_rejected(self):
        with pytest.raises(IndexError):
            train(examples_of([[1.0, 2.0], [-1.0, 0.0]], [1, -1]), TIGHT, dim=1)

    def test_accepts_a_generator_of_examples(self):
        pairs = examples_of([[1.0], [-1.0]], [1, -1])
        model = train((p for p in pairs), TIGHT)
        assert predict(model, sv(1.0)) == 1

    def test_separable_hundred_plus_hundred_reaches_full_accuracy(self):
        examples = load_labeled_set(labeled_lines(100, 100))
        model = train_from_labeled(examples, TrainingConfig())
        assert training_accuracy(model, examples) == 1.0


class TestDecisionValueAndPredict:
    def test_zero_vector_gives_bias(self):
        model = _tiny_model(weights=[2.0, 0.0], bias=-1.0)
        assert decision_value(model, SparseVector()) == -1.0

    def test_sparse_dot(self):
        model = _tiny_model(weights=[2.0, 0.0], bias=-1.0)
        assert decision_value(model, SparseVector(entries=((0, 1.5),))) == 2.0

    def test_sign_agreement(self):
        model = _tiny_model(weights=[1.0, -2.0], bias=0.25)
        for vec in (sv(1.0, 0.0), sv(0.0, 1.0), sv(-3.0, 0.5), SparseVector()):
            value = decision_value(model, vec)
            label = predict(model, vec)
            assert label == (1 if value >= 0 else -1)

    def test_tie_goes_positive(self):
        model = _tiny_model(weights=[1.0], bias=0.0)
        assert decision_value(model, SparseVector()) == 0.0
        assert predict(model, SparseVector()) == 1

    def test_index_out_of_range(self):
        model = _tiny_model(weights=[1.0])
        with pytest.raises(IndexError):
            decision_value(model, SparseVector(entries=((5, 1.0),)))


_FINITE = st.floats(-1e6, 1e6, allow_nan=False)


@st.composite
def _weights_and_vector(draw):
    weights = draw(st.lists(_FINITE, min_size=1, max_size=30))
    indices = sorted(draw(st.sets(st.integers(0, len(weights) - 1))))
    values = draw(st.lists(_FINITE.filter(bool), min_size=len(indices),
                           max_size=len(indices)))
    return weights, SparseVector(entries=tuple(zip(indices, values)))


class TestBitExactScoring:
    @settings(max_examples=500, deadline=None)
    @given(case=_weights_and_vector(), bias=_FINITE)
    def test_decision_value_is_the_left_to_right_sum_plus_bias(self, case, bias):
        weights, vector = case
        total = 0.0
        for index, value in vector.entries:
            total = total + weights[index] * value
        value = decision_value(_tiny_model(weights, bias), vector)
        assert type(value) is float
        assert value == total + bias

    # 0.1 + 0.2 rounds up to 0.30000000000000004, so the left-to-right sum
    # lands exactly on the tie. The exact sum of the three doubles is about
    # -2.8e-17: a compensated sum (math.fsum, or sum() over floats from
    # Python 3.12 on) would flip this probe to irrelevant.
    def test_probe_rounded_onto_the_tie_stays_relevant(self):
        model = _tiny_model(weights=[0.1, 0.2], bias=-0.30000000000000004)
        vector = SparseVector(entries=((0, 1.0), (1, 1.0)))
        assert math.fsum([0.1, 0.2, -0.30000000000000004]) < 0.0
        assert decision_value(model, vector) == 0.0
        assert predict(model, vector) == 1

    @pytest.mark.parametrize("bias, expected, label", [
        (-0.3, 5.551115123125783e-17, 1),
        (-0.3000000000000001, -5.551115123125783e-17, -1),
    ])
    def test_probe_within_1e_9_of_zero_keeps_value_and_label(self, bias, expected, label):
        model = _tiny_model(weights=[0.1, 0.2], bias=bias)
        vector = SparseVector(entries=((0, 1.0), (1, 1.0)))
        assert abs(expected) < 1e-9
        assert decision_value(model, vector) == expected
        assert predict(model, vector) == label

    def test_weights_are_stored_as_python_floats(self):
        model = _tiny_model(weights=np.asarray([1.0, -2.5]))
        assert model.weights == (1.0, -2.5)
        assert all(type(w) is float for w in model.weights)

    @pytest.mark.parametrize("weights", [[1.0, math.nan], np.asarray([math.inf])])
    def test_non_finite_weights_rejected(self, weights):
        with pytest.raises(ValueError, match="finite"):
            _tiny_model(weights=weights)


def _tiny_model(weights, bias=0.0):
    return SvmModel(
        weights=np.asarray(weights, dtype=float),
        bias=bias,
        vectorizer=None,
        training_meta=TrainingMeta(C=1.0, epochs_run=0, final_objective=0.0),
    )


class TestModelFile:
    @pytest.fixture()
    def trained(self):
        return train_from_labeled(load_labeled_set(labeled_lines(30, 30)), TrainingConfig())

    def test_round_trip_bit_identical(self, trained, tmp_path):
        path = tmp_path / "model.json"
        save_model(trained, path)
        loaded = load_model(path)
        assert np.array_equal(loaded.weights, trained.weights)
        assert loaded.bias == trained.bias
        assert loaded.training_meta == trained.training_meta
        assert loaded.vectorizer == trained.vectorizer

    def test_final_objective_is_a_python_float(self, trained):
        assert type(trained.training_meta.final_objective) is float

    def test_default_training_writes_the_golden_model_file(self, tmp_path):
        # Frozen bytes: any change to the shuffle's random() stream, its
        # Fisher-Yates loop or the order of a training sum shows up here.
        path = tmp_path / "model.json"
        save_model(train_from_labeled(load_labeled_set(labeled_lines()), TrainingConfig()), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN_MODEL_SHA256

    def test_same_seed_byte_identical_files(self, tmp_path):
        examples = load_labeled_set(labeled_lines(30, 30))
        paths = []
        for name in ("a.json", "b.json"):
            model = train_from_labeled(examples, TrainingConfig(seed=42))
            path = tmp_path / name
            save_model(model, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_corrupt_file(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{definitely not json")
        with pytest.raises(ModelFileError, match="corrupt"):
            load_model(path)

    @pytest.mark.parametrize("step", ["write", "replace"])
    def test_failed_save_keeps_the_old_file(self, trained, tmp_path, monkeypatch, step):
        path = tmp_path / "model.json"
        save_model(trained, path)
        before = path.read_bytes()
        if step == "write":
            # a lone surrogate cannot be encoded, so the write itself raises
            vocab = Vocabulary(terms={"\ud83d": 0}, doc_frequency={"\ud83d": 1}, corpus_size=1)
            model = SvmModel(weights=np.asarray([1.0]), bias=0.0,
                             vectorizer=TfIdfModel(vocabulary=vocab),
                             training_meta=trained.training_meta)
            with pytest.raises(UnicodeEncodeError):
                save_model(model, path)
        else:
            def fail(*args, **kwargs):
                raise OSError("injected failure")

            monkeypatch.setattr(os, "replace", fail)
            with pytest.raises(OSError, match="injected"):
                save_model(trained, path)
            monkeypatch.undo()
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]

    def test_save_without_vectorizer_rejected(self, tmp_path):
        with pytest.raises(AttributeError):
            save_model(_tiny_model(weights=[1.0]), tmp_path / "m.json")
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("field, raw", [
        ("weight", "1e999"),
        ("bias", "1e999"),
        ("weight", BIG_INT),
        ("bias", BIG_INT),
        ("C", BIG_INT),
        ("final_objective", "1e999"),
        ("epochs_run", "1e999"),
        ("epochs_run", "2.5"),
        ("bias", "true"),
        ("corpus_size", "true"),
        # no trainer writes these: TrainingConfig requires C > 0, and the
        # trainer counts epochs from 0
        ("C", "0"),
        ("C", "-0.0"),
        ("C", "-1.0"),
        ("C", "-5e-324"),
        ("epochs_run", "-1"),
    ], ids=lambda value: "10**400" if value == BIG_INT else value)
    def test_out_of_range_or_mistyped_number_is_corrupt(self, trained, tmp_path, field, raw):
        path = tmp_path / "model.json"
        save_model(trained, path)
        write_model_with(path, field, raw)
        with pytest.raises(ModelFileError, match=field):
            load_model(path)

    # the least C and epochs_run that load: the smallest positive float and 0
    @pytest.mark.parametrize("field, raw, value", [
        ("C", "5e-324", 5e-324),
        ("epochs_run", "0", 0),
    ])
    def test_least_accepted_value_loads(self, trained, tmp_path, field, raw, value):
        path = tmp_path / "model.json"
        save_model(trained, path)
        write_model_with(path, field, raw)
        assert getattr(load_model(path).training_meta, field) == value


def write_model_with(path, field, raw):
    """Rewrite a saved model with one number replaced by the raw JSON text
    ``raw`` ("weight" is the first weight, "corpus_size" is in vocabulary,
    "C", "epochs_run" and "final_objective" are in training_meta)."""
    payload = json.loads(path.read_text())
    if field == "weight":
        payload["weights"][0] = "@"
    elif field == "bias":
        payload["bias"] = "@"
    elif field == "corpus_size":
        payload["vocabulary"]["corpus_size"] = "@"
    else:
        payload["training_meta"][field] = "@"
    path.write_text(json.dumps(payload).replace('"@"', raw))


def test_trained_model_does_not_depend_on_builtin_sum(tmp_path, monkeypatch):
    # math.fsum stands in for a compensated builtin sum, as Python 3.12 has:
    # training must sum in explicit loops, so the model file keeps its bytes.
    examples = load_labeled_set(labeled_lines(30, 30))
    save_model(train_from_labeled(examples), tmp_path / "plain.json")
    for module in (svm, vectorizer):
        monkeypatch.setattr(module, "sum", math.fsum, raising=False)
    save_model(train_from_labeled(examples), tmp_path / "compensated.json")
    assert (tmp_path / "plain.json").read_bytes() == (tmp_path / "compensated.json").read_bytes()


class TestTrainingConfig:
    @pytest.mark.parametrize(
        "kwargs", [{"C": 0.0}, {"C": -1.0}, {"tolerance": 0.0}, {"max_epochs": 0},
                   {"C": math.inf}, {"seed": -1}]
    )
    def test_invalid_hyperparameters(self, kwargs):
        with pytest.raises(ValueError):
            TrainingConfig(**kwargs)

    def test_defaults(self):
        config = TrainingConfig()
        assert (config.C, config.tolerance, config.max_epochs, config.seed) == (
            1.0, 1e-4, 1000, 42,
        )


def test_model_invariant_weights_must_match_vocab():
    vocab = Vocabulary(terms={"aa": 0, "bb": 1}, doc_frequency={"aa": 1, "bb": 1}, corpus_size=2)
    with pytest.raises(ValueError):
        SvmModel(
            weights=np.asarray([1.0], dtype=float),
            bias=0.0,
            vectorizer=TfIdfModel(vocabulary=vocab),
            training_meta=TrainingMeta(C=1.0, epochs_run=1, final_objective=0.0),
        )
