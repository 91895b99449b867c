"""Independent brute-force oracles used by the tests.

Everything here recomputes expected values from first principles, staying off
the library code paths it checks (the tokenizer is shared where only the
downstream arithmetic is under test). The materializing stages at the end
share the per-record functions with the library and differ in how records
flow through a stage.
"""
from __future__ import annotations

import itertools
import math
import re
import sys
from collections import Counter
from datetime import date, datetime, timedelta, timezone

import numpy as np

from outbreakmon.cli import (
    DAILY_CSV_NAME,
    FILTERED_NAME,
    PERIOD_CSV_NAME,
    RELEVANT_NAME,
    _open_records,
)
from outbreakmon.corpus import parse_tweet_line, write_text_atomic
from outbreakmon.errors import ParseError
from outbreakmon.keywords import matches
from outbreakmon.svm import predict
from outbreakmon.timeline import (
    bucket_counts,
    daily_frequency,
    day_counts,
    format_daily_counts,
    format_period_report,
)
from outbreakmon.vectorizer import vectorize


# ---------------------------------------------------------------------------
# Soft-margin linear SVM with augmented bias
# ---------------------------------------------------------------------------

def svm_primal_value(w, b, X, y, C):
    """0.5 * (||w||^2 + b^2) + C * sum hinge, straight from the formula."""
    w = np.asarray(w, dtype=float)
    margins = y * (X @ w + b)
    hinge = np.maximum(0.0, 1.0 - margins)
    return 0.5 * (float(w @ w) + b * b) + C * float(np.sum(hinge))


def svm_qp_solve(X, y, C, tol=1e-10):
    """Exact optimum by KKT enumeration over the box-constrained dual.

    With the bias as a constant feature there is no equality constraint, so
    each point is at its lower bound (0), upper bound (C), or free; for every
    assignment the free block solves a linear system and the KKT sign
    conditions select the true optimum. Exhaustive for the <= 6-point
    fixtures used in tests.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(y)
    Xa = np.hstack([X, np.ones((n, 1))])
    Q = (y[:, None] * Xa) @ (y[:, None] * Xa).T
    best = None
    for assign in itertools.product((0, 1, 2), repeat=n):
        lower = [i for i, a in enumerate(assign) if a == 0]
        upper = [i for i, a in enumerate(assign) if a == 1]
        free = [i for i, a in enumerate(assign) if a == 2]
        alpha = np.zeros(n)
        alpha[upper] = C
        if free:
            Qff = Q[np.ix_(free, free)]
            rhs = np.ones(len(free)) - Q[np.ix_(free, upper)] @ (C * np.ones(len(upper)))
            try:
                a_free = np.linalg.solve(Qff, rhs)
            except np.linalg.LinAlgError:
                continue
            if np.max(np.abs(Qff @ a_free - rhs)) > 1e-8:
                continue
            if np.any(a_free < -tol) or np.any(a_free > C + tol):
                continue
            alpha[free] = np.clip(a_free, 0.0, C)
        grad = Q @ alpha - 1.0
        if lower and np.min(grad[lower]) < -1e-8:
            continue
        if upper and np.max(grad[upper]) > 1e-8:
            continue
        if free and np.max(np.abs(grad[free])) > 1e-8:
            continue
        dual_val = 0.5 * alpha @ Q @ alpha - np.sum(alpha)
        if best is None or dual_val < best[0] - 1e-12:
            best = (dual_val, alpha.copy())
    if best is None:
        raise RuntimeError("KKT enumeration found no optimum")
    _, alpha = best
    w_aug = ((alpha * y)[:, None] * Xa).sum(axis=0)
    w, b = w_aug[:-1], float(w_aug[-1])
    return w, b, svm_primal_value(w, b, X, y, C)


def svm_grid_solve(X, y, C, span=6.0, levels=48, points=13):
    """Derivative-free check: nested grid refinement over (w, b).

    Each level's grid is scored in one array expression, the primal value
    row by row as svm_primal_value computes it; the first candidate of the
    smallest value wins, and only if it beats the best so far."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    center = np.zeros(X.shape[1] + 1)
    width = span
    best_val = np.inf
    for _ in range(levels):
        axes = [np.linspace(c - width, c + width, points) for c in center]
        grid = np.array(list(itertools.product(*axes)))
        w, b = grid[:, :-1], grid[:, -1]
        hinge = np.maximum(0.0, 1.0 - y * (w @ X.T + b[:, None]))
        squared_norms = (w[:, None, :] @ w[:, :, None])[:, 0, 0]  # each row's w @ w
        values = 0.5 * (squared_norms + b * b) + C * hinge.sum(axis=1)
        first = int(np.argmin(values))
        if values[first] < best_val:
            best_val, center = float(values[first]), grid[first]
        width *= 0.55
    return center[:-1], float(center[-1]), best_val


# ---------------------------------------------------------------------------
# tf-idf from the defining formulas
# ---------------------------------------------------------------------------

def tfidf_by_hand(token_docs, queries=None):
    """Per-document {term: tf*idf} evaluated directly from the formulas:
    tf = 1/2 + 1/2 * f/max_f within the document, idf = ln(N / df) over the
    collection; zero products omitted. With ``queries``, the same for each
    query document instead, whose terms outside the collection count toward
    max_f only."""
    n_docs = len(token_docs)
    df = Counter()
    for doc in token_docs:
        df.update(set(doc))
    out = []
    for doc in token_docs if queries is None else queries:
        counts = Counter(doc)
        if not counts:
            out.append({})
            continue
        max_f = max(counts.values())
        values = {}
        for term, f in counts.items():
            if term not in df:
                continue
            tf = 0.5 + 0.5 * f / max_f
            idf = math.log(n_docs / df[term])
            if tf * idf != 0.0:
                values[term] = tf * idf
        out.append(values)
    return out


# ---------------------------------------------------------------------------
# Per-record kernels in their plain, slower form
# ---------------------------------------------------------------------------

def fstring_timestamp(instant):
    """The canonical timestamp field from the date fields one by one."""
    if instant.tzinfo is not None and instant.tzinfo is not timezone.utc:
        instant = instant.astimezone(timezone.utc)
    return (f"{instant.year:04d}-{instant.month:02d}-{instant.day:02d}"
            f"T{instant.hour:02d}:{instant.minute:02d}:{instant.second:02d}Z")


def findall_tokenize(text):
    """Every maximal alphanumeric run of the lowercased text, then the
    single-character and pure-digit runs dropped."""
    return [tok for tok in re.findall(r"[^\W_]+", text.lower())
            if len(tok) >= 2 and not tok.isdigit()]


# ---------------------------------------------------------------------------
# Keyword phrase matching over token windows
# ---------------------------------------------------------------------------

_NORM_STRIP = re.compile(r"[^\w&\s]|_", re.UNICODE)


def brute_normalize(text):
    return " ".join(_NORM_STRIP.sub(" ", text.lower()).split())


def brute_phrase_match(phrases, text):
    """Enumerate every token window of the text and compare to each phrase."""
    tokens = brute_normalize(text).split()
    windows = set()
    for width in {len(brute_normalize(p).split()) for p in phrases}:
        for i in range(len(tokens) - width + 1):
            windows.add(tuple(tokens[i:i + width]))
    return any(tuple(brute_normalize(p).split()) in windows for p in phrases)


def padded_phrase_match(phrases, text):
    """A phrase hit as a substring test: normalized text is tokens joined by
    single spaces, so with a space on each side a token run is exactly a
    substring."""
    padded = f" {brute_normalize(text)} "
    return any(f" {brute_normalize(p)} " in padded for p in phrases)


# ---------------------------------------------------------------------------
# Period bucketing and daily counting by linear scan
# ---------------------------------------------------------------------------

def brute_bucket(boundary_dates, instants):
    """Counts per period by scanning every boundary for every instant.

    Returns a list of len(boundaries) + 1 counts, index 0 = pre-period.
    """
    bounds = [
        datetime(d.year, d.month, d.day, tzinfo=timezone.utc) for d in boundary_dates
    ]
    counts = [0] * (len(bounds) + 1)
    for instant in instants:
        slot = 0
        for k, bound in enumerate(bounds):
            if instant >= bound:
                slot = k + 1
        counts[slot] += 1
    return counts


def brute_daily(instants, start: date, end: date):
    """(day, count) rows by re-scanning all instants for every day."""
    rows = []
    day = start
    while day <= end:
        rows.append((day, sum(1 for t in instants if t.astimezone(timezone.utc).date() == day)))
        if day == end:  # the day after 9999-12-31 does not exist
            break
        day = day + timedelta(days=1)
    return rows


# ---------------------------------------------------------------------------
# The filter, classify and report stages as they were before streaming:
# each parses its whole input into a tuple, then writes one joined string.
# Their diagnostics are spelled out here as the lines a run without --quiet
# writes to standard error.
# ---------------------------------------------------------------------------

def materialized_corpus(lines, strictness):
    """(records, rejected line count) of a whole input: every line parsed,
    a bad one skipped and reported (lenient) or raised (strict), a duplicate
    id raised in both modes."""
    records, seen_ids, rejected = [], set(), 0
    for line_no, line in enumerate(lines, start=1):
        try:
            record = parse_tweet_line(line, line_no=line_no, strict=strictness == "strict")
        except ParseError as exc:
            if strictness == "strict":
                raise
            rejected += 1
            sys.stderr.write(f"WARNING rejected {exc}\n")
            continue
        if record.id in seen_ids:
            raise ParseError(f"duplicate id {record.id!r}", line_no)
        seen_ids.add(record.id)
        records.append(record)
    return tuple(records), rejected


def _materialized_input(cfg):
    with _open_records(cfg.input) as fh:
        return materialized_corpus(fh, cfg.strictness)


def materialized_filter(cfg, keywords):
    records, rejected = _materialized_input(cfg)
    kept = [r for r in records if matches(keywords, r.text)]
    out_path = cfg.output / FILTERED_NAME
    write_text_atomic(out_path, "".join(r.to_line() + "\n" for r in kept))
    sys.stderr.write(f"INFO filter: {len(records)} read ({rejected} rejected lines), "
                     f"{len(kept)} kept, {len(records) - len(kept)} dropped -> {out_path}\n")
    return {"input_records": len(records), "rejected_lines": rejected, "kept": len(kept),
            "dropped": len(records) - len(kept), "output": FILTERED_NAME}


def materialized_classify(cfg, model):
    records, rejected = _materialized_input(cfg)
    relevant = [r for r in records if predict(model, vectorize(model.vectorizer, r.text)) == 1]
    out_path = cfg.output / RELEVANT_NAME
    write_text_atomic(out_path, "".join(r.to_line() + "\n" for r in relevant))
    sys.stderr.write(f"INFO classify: {len(records)} read, {len(relevant)} relevant, "
                     f"{len(records) - len(relevant)} irrelevant -> {out_path}\n")
    return {"input_records": len(records), "rejected_lines": rejected,
            "relevant": len(relevant), "irrelevant": len(records) - len(relevant),
            "output": RELEVANT_NAME}


def materialized_report(cfg, timeline):
    records, rejected = _materialized_input(cfg)
    kept = [r for r in records
            if cfg.final_cutoff is None or r.timestamp.date() <= cfg.final_cutoff]
    report = bucket_counts(timeline, kept)
    period_table = format_period_report(report)
    write_text_atomic(cfg.output / PERIOD_CSV_NAME, period_table)
    days = sorted({r.timestamp.date() for r in kept})
    start = cfg.daily_start or (days[0] if days else None)
    end = cfg.daily_end or (days[-1] if days else None)
    if start is None or end is None or end < start:
        series = []
    else:
        series = daily_frequency(day_counts(kept), start, end)
    write_text_atomic(cfg.output / DAILY_CSV_NAME, format_daily_counts(series))
    sys.stdout.write(period_table)
    excluded = len(records) - len(kept)
    sys.stderr.write(f"INFO report: {report.total} records bucketed into {len(report.rows)} "
                     f"periods ({excluded} excluded past cutoff), {len(series)} daily rows\n")
    return {"input_records": len(records), "rejected_lines": rejected,
            "excluded_after_cutoff": excluded, "periods": len(report.rows),
            "period_total": report.total, "daily_days": len(series),
            "daily_total": sum(count for _, count in series),
            "outputs": [PERIOD_CSV_NAME, DAILY_CSV_NAME]}
