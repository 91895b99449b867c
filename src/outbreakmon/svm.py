"""Soft-margin linear SVM trained by dual coordinate descent.

The bias rides on an implicit constant feature of value 1 appended to every
example, so it takes part in the regularizer. The objective minimized (and
reported) everywhere is therefore

    0.5 * (||w||^2 + b^2) + C * sum_i max(0, 1 - y_i * (w . x_i + b)).

Coordinate descent moves one dual variable at a time inside [0, C], which
makes the dual value monotone but lets the primal value of the current
iterate rise transiently; the trainer keeps the best primal iterate seen at
any epoch end and returns that, so reported per-epoch objectives never
increase.
"""
from __future__ import annotations

import json
import math
import random
from pathlib import Path
from typing import Callable, Sequence

from .corpus import LabeledExample, write_text_atomic
from .errors import ModelFileError, TrainingDataError, json_fault
from .value import Value
from .vectorizer import (
    SparseVector,
    TfIdfModel,
    TOKEN_RULES_V1,
    Vocabulary,
    fit_tfidf,
    vectorize,
)

MODEL_FORMAT = "outbreakmon-svm-model"
MODEL_VERSION = 1

TraceHook = Callable[[int, list[float], float], None]


class TrainingConfig(Value):
    """Solver hyperparameters; defaults are documented and overridable."""

    __slots__ = _fields = ("C", "tolerance", "max_epochs", "seed")

    def __init__(self, C: float = 1.0, tolerance: float = 1e-4, max_epochs: int = 1000,
                 seed: int = 42):
        if not (C > 0 and math.isfinite(C)):
            raise ValueError(f"C must be positive and finite, got {C}")
        if not (tolerance > 0):
            raise ValueError(f"tolerance must be positive, got {tolerance}")
        if max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {max_epochs}")
        if seed < 0:  # random.Random(-s) seeds exactly like random.Random(s)
            raise ValueError(f"seed must be non-negative, got {seed}")
        self._set_slots(C, tolerance, max_epochs, seed)


class TrainingMeta(Value):
    """How training went: the penalty C it used, the epochs it ran, and the
    primal objective of the returned iterate. Saved with the model."""

    __slots__ = _fields = ("C", "epochs_run", "final_objective")

    def __init__(self, C: float, epochs_run: int, final_objective: float):
        self._set_slots(C, epochs_run, final_objective)


class SvmModel(Value):
    """Decision boundary (weights, bias) plus the vectorizer that feeds it.

    ``weights`` accepts any sequence of numbers and is stored as a tuple of
    Python floats; its length equals the vocabulary size when ``vectorizer``
    is set. Two models are equal only when they are the same object.
    """

    __slots__ = _fields = ("weights", "bias", "vectorizer", "training_meta")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __init__(self, weights: Sequence[float], bias: float, vectorizer: TfIdfModel | None,
                 training_meta: TrainingMeta):
        weights = tuple(map(float, weights))
        if not all(map(math.isfinite, weights)) or not math.isfinite(bias):
            raise ValueError("model weights and bias must be finite")
        if vectorizer is not None and len(weights) != len(vectorizer.vocabulary):
            raise ValueError(
                f"weights length {len(weights)} does not match "
                f"vocabulary size {len(vectorizer.vocabulary)}"
            )
        self._set_slots(weights, bias, vectorizer, training_meta)


def objective(
    weights: Sequence[float], bias: float, examples: Sequence[tuple[SparseVector, int]], C: float
) -> float:
    """Primal objective with the bias inside the regularized norm."""
    norm = 0.0
    for value in weights:
        norm += value * value
    total = 0.5 * (norm + bias * bias)
    hinge = 0.0
    for vector, label in examples:
        margin = label * (vector.dot(weights) + bias)
        if margin < 1.0:
            hinge += 1.0 - margin
    return total + C * hinge


def train(
    examples: Sequence[tuple[SparseVector, int]],
    config: TrainingConfig,
    *,
    dim: int | None = None,
    vectorizer: TfIdfModel | None = None,
    trace_hook: TraceHook | None = None,
) -> SvmModel:
    """Fit weights and bias by dual coordinate descent.

    Sweeps the examples in a seeded Fisher-Yates order each epoch, clamping
    each dual variable into [0, C]; stops when the projected-gradient gap over
    an epoch drops below ``config.tolerance`` or after ``config.max_epochs``.
    ``dim`` fixes the feature dimension (defaults to 1 + highest index seen).
    ``trace_hook(epoch, dual_variables, objective)`` is called after each
    epoch with a snapshot, for diagnostics and tests.
    """
    examples = list(examples)
    if not examples:
        raise TrainingDataError("no training examples")
    labels = {label for _, label in examples}
    if not labels <= {-1, 1}:
        raise ValueError(f"labels must be -1 or +1, got {sorted(labels - {-1, 1})}")
    if len(labels) < 2:
        raise TrainingDataError("training data contains a single class")
    max_index = -1
    for vector, _ in examples:
        for index, value in vector.entries:
            if not math.isfinite(value):
                raise ValueError(f"non-finite feature value {value!r} at index {index}")
        if vector.entries:
            max_index = max(max_index, vector.entries[-1][0])
    if dim is None:
        dim = max_index + 1
    elif max_index >= dim:
        raise IndexError(f"feature index {max_index} out of range for dimension {dim}")

    n = len(examples)
    C = config.C
    ys = [float(label) for _, label in examples]
    q_diag = [vector.squared_norm() + 1.0 for vector, _ in examples]

    # Augmented weight vector: slots [0, dim) are features, slot dim is bias.
    w = [0.0] * (dim + 1)
    alpha = [0.0] * n
    order = list(range(n))
    rng = random.Random(config.seed)  # random()'s stream per seed is fixed across versions

    def current_objective() -> float:
        return objective(w[:dim], w[dim], examples, C)

    best_objective = current_objective()
    best_w = list(w)
    epochs_run = 0
    for epoch in range(1, config.max_epochs + 1):
        pg_max = -math.inf
        pg_min = math.inf
        for k in range(n - 1, 0, -1):
            j = int(rng.random() * (k + 1))
            order[k], order[j] = order[j], order[k]
        for i in order:
            vector = examples[i][0]
            y = ys[i]
            g = y * (vector.dot(w) + w[dim]) - 1.0
            a = alpha[i]
            if a <= 0.0:
                pg = min(g, 0.0)
            elif a >= C:
                pg = max(g, 0.0)
            else:
                pg = g
            if pg > pg_max:
                pg_max = pg
            if pg < pg_min:
                pg_min = pg
            if abs(pg) > 1e-12:
                a_new = min(max(a - g / q_diag[i], 0.0), C)
                delta = (a_new - a) * y
                if delta != 0.0:
                    for j, v in vector.entries:
                        w[j] += delta * v
                    w[dim] += delta
                    alpha[i] = a_new
        epochs_run = epoch
        epoch_objective = current_objective()
        if epoch_objective < best_objective:
            best_objective = epoch_objective
            best_w = list(w)
        if trace_hook is not None:
            trace_hook(epoch, list(alpha), best_objective)
        if pg_max - pg_min < config.tolerance:
            break

    meta = TrainingMeta(C=C, epochs_run=epochs_run, final_objective=best_objective)
    return SvmModel(
        weights=best_w[:dim],
        bias=best_w[dim],
        vectorizer=vectorizer,
        training_meta=meta,
    )


def train_from_labeled(
    examples: Sequence[LabeledExample], config: TrainingConfig = TrainingConfig()
) -> SvmModel:
    """Fit the tf-idf vectorizer on the labeled set, then train on it."""
    tfidf = fit_tfidf(ex.record.text for ex in examples)
    vectors = [(vectorize(tfidf, ex.record.text), ex.label) for ex in examples]
    return train(vectors, config, dim=len(tfidf.vocabulary), vectorizer=tfidf)


def decision_value(model: SvmModel, vector: SparseVector) -> float:
    """Signed distance proxy ``w . v + b``: the products summed left to right
    in sorted index order (``SparseVector.dot``), then the bias added."""
    return vector.dot(model.weights) + model.bias


def predict(model: SvmModel, vector: SparseVector) -> int:
    """+1 (relevant) when the decision value is >= 0, else -1.

    The tie at exactly zero goes to +1: reviewing one extra record is cheaper
    than dropping a relevant one.
    """
    return 1 if decision_value(model, vector) >= 0.0 else -1


def training_accuracy(model: SvmModel, examples: Sequence[LabeledExample]) -> float:
    """Fraction of labeled examples the model reproduces."""
    hits = sum(
        1
        for ex in examples
        if predict(model, vectorize(model.vectorizer, ex.record.text)) == ex.label
    )
    return hits / len(examples)


def _reject_constant(value: str):
    raise ModelFileError(f"non-finite number {value!r} in model file")


def _finite_number(value: object, name: str) -> float:
    """A JSON number as a finite float. A boolean or any other type, and a
    number past the float range (``1e999`` parses as infinity, a 400-digit
    integer overflows ``float``), make the model file corrupt."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ModelFileError(f"{name} must be a number, got {type(value).__name__}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ModelFileError(f"{name} is outside the float range")
    return number


def save_model(model: SvmModel, destination: str | Path) -> None:
    """Write the model as a versioned, human-inspectable JSON text file.

    Floats are serialized with shortest round-trip repr, so loading restores
    every numeric field bit-exactly; the write is atomic (``write_text_atomic``).
    """
    vocab = model.vectorizer.vocabulary
    index_to_term = sorted(vocab.terms, key=vocab.terms.get)
    payload = {
        "format": MODEL_FORMAT,
        "version": MODEL_VERSION,
        "token_rules": TOKEN_RULES_V1,
        "vocabulary": {
            "corpus_size": vocab.corpus_size,
            "terms": [[term, vocab.doc_frequency[term]] for term in index_to_term],
        },
        "weights": list(model.weights),
        "bias": float(model.bias),
        "training_meta": {
            "C": model.training_meta.C,
            "epochs_run": model.training_meta.epochs_run,
            "final_objective": model.training_meta.final_objective,
        },
    }
    text = json.dumps(payload, ensure_ascii=False, allow_nan=False, indent=1)
    write_text_atomic(destination, text + "\n")


def load_model(source: str | Path) -> SvmModel:
    """Read a model file back; raises ModelFileError on any inconsistency."""
    try:
        raw = Path(source).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ModelFileError(f"model file is not valid UTF-8 (byte {exc.start})") from None
    try:
        payload = json.loads(raw, parse_constant=_reject_constant)
    except (ValueError, RecursionError) as exc:
        raise ModelFileError(f"corrupt model file: {json_fault(exc, lines=True)}") from None
    if not isinstance(payload, dict) or payload.get("format") != MODEL_FORMAT:
        raise ModelFileError("not a recognized model file")
    if payload.get("version") != MODEL_VERSION:
        raise ModelFileError(
            f"unsupported model file version {payload.get('version')!r} "
            f"(expected {MODEL_VERSION})"
        )
    try:
        token_rules = payload["token_rules"]
        vocab_obj = payload["vocabulary"]
        corpus_size = vocab_obj["corpus_size"]
        term_rows = vocab_obj["terms"]
        weights = payload["weights"]
        bias = payload["bias"]
        meta_obj = payload["training_meta"]
        epochs_run = meta_obj["epochs_run"]
        if isinstance(epochs_run, bool) or not isinstance(epochs_run, int):
            raise ModelFileError("training_meta.epochs_run must be an integer")
        if epochs_run < 0:
            raise ModelFileError(f"training_meta.epochs_run {epochs_run} is negative")
        C = _finite_number(meta_obj["C"], "training_meta.C")
        if not C > 0:  # TrainingConfig rejects any other C
            raise ModelFileError(f"training_meta.C must be positive, got {C!r}")
        meta = TrainingMeta(
            C=C,
            epochs_run=epochs_run,
            final_objective=_finite_number(
                meta_obj["final_objective"], "training_meta.final_objective"),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelFileError(f"model file is missing or mistypes a field: {exc}") from None

    if token_rules != TOKEN_RULES_V1:
        raise ModelFileError(f"unsupported token rules {token_rules!r}")
    if isinstance(corpus_size, bool) or not isinstance(corpus_size, int) or corpus_size < 1:
        raise ModelFileError(f"invalid corpus_size {corpus_size!r}")
    if not isinstance(term_rows, list):
        raise ModelFileError("vocabulary terms must be a list")
    terms: dict[str, int] = {}
    doc_frequency: dict[str, int] = {}
    for row in term_rows:
        if (
            not isinstance(row, list)
            or len(row) != 2
            or not isinstance(row[0], str)
            or isinstance(row[1], bool)
            or not isinstance(row[1], int)
        ):
            raise ModelFileError(f"malformed vocabulary row {row!r}")
        term, df = row
        if term in terms:
            raise ModelFileError(f"duplicate vocabulary term {term!r}")
        if not (1 <= df <= corpus_size):
            raise ModelFileError(f"document frequency {df} out of range for term {term!r}")
        terms[term] = len(terms)
        doc_frequency[term] = df
    if not isinstance(weights, list):
        raise ModelFileError("weights must be a list of numbers")
    if len(weights) != len(terms):
        raise ModelFileError(
            f"weights length {len(weights)} does not match vocabulary size {len(terms)}"
        )

    vocabulary = Vocabulary(terms=terms, doc_frequency=doc_frequency, corpus_size=corpus_size)
    return SvmModel(
        weights=[_finite_number(x, "weight") for x in weights],
        bias=_finite_number(bias, "bias"),
        vectorizer=TfIdfModel(vocabulary=vocabulary),
        training_meta=meta,
    )
