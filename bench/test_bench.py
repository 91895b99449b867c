"""Tests of the pipeline benchmark itself: its generator, its ground truth
and its refusal to run without the program's sources.

Run with ``PYTHONPATH=src python3 -m pytest -q bench/test_bench.py``.
"""
from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from outbreakmon.corpus import parse_tweet_line
from outbreakmon.errors import ParseError
from outbreakmon.vectorizer import fit_tfidf, vectorize

BENCH = Path(__file__).resolve().parent


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    first = workloads.generate(workload, 1500, seed=5)
    assert first == workloads.generate(workload, 1500, seed=5)
    assert first != workloads.generate(workload, 1500, seed=6)


def test_dirty_bad_lines_rejected_and_good_lines_accepted():
    lines = workloads.generate("dirty", 3000, seed=9)
    assert {line.kind for line in lines} >= set(workloads.BAD_KINDS)
    for line in lines:
        if line.kind in workloads.BAD_KINDS:
            with pytest.raises(ParseError):
                parse_tweet_line(line.text)
        else:
            record = parse_tweet_line(line.text)
            assert record.to_line() == line.text
            assert int(record.timestamp.timestamp()) == line.epoch


def test_outbreak_records_vectorize_like_their_templates():
    model = fit_tfidf(workloads.RELEVANT_TEMPLATES + workloads.DECOY_TEMPLATES)
    lines = workloads.generate("outbreak", 2000, seed=3)
    texts = [parse_tweet_line(line.text).text for line in lines]
    assert len(set(texts)) < len(texts) * 0.8  # retweet-style repeats
    for line, text in zip(lines, texts):
        template = " ".join(t for t in text.split() if t[0] not in "#@")
        assert template != text
        assert vectorize(model, text) == vectorize(model, template)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_ground_truth_equals_a_real_pipeline_run(workload, tmp_path, monkeypatch):
    monkeypatch.setitem(run.SIZES, workload, 400)
    bench = run.Run(workload, seed=2, work=tmp_path)
    bench.pipeline(bench.input)
    bench.pipeline(bench.empty)
    assert bench.failures == []
    assert bench.attempted == 2


def test_traced_run_reports_every_per_layer_metric(tmp_path, monkeypatch):
    monkeypatch.setitem(run.SIZES, "outbreak", 400)
    bench = run.Run("outbreak", seed=4, work=tmp_path)
    values = run.per_layer(bench, seconds=0.01)
    assert bench.failures == []
    assert set(values) == set(run.PER_LAYER_UNITS)
    assert values["corpus.parse_calls_per_line"] > 2
    assert values["corpus.rejected"] == 0


def test_end_to_end_reports_every_metric(tmp_path, monkeypatch):
    monkeypatch.setitem(run.SIZES, "firehose", 400)
    bench = run.Run("firehose", seed=3, work=tmp_path)
    values = run.end_to_end(bench, seconds=0.01)
    assert bench.failures == []
    assert set(values) == set(run.END_TO_END_UNITS)
    assert all(value > 0 for value in values.values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, str(tmp_path / BENCH.name / "run.py"), "--workload", "outbreak",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
