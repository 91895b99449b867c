"""Command-line front end: filter, train, classify, report, pipeline.

Data goes to files or standard output; diagnostics go to standard error.
Exit codes are stable: 0 success, 2 I/O or bad arguments, 3 parse failure,
4 unusable training data, 5 model-file failure, 6 timeline failure.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import logging
import sys
from dataclasses import dataclass, replace
from datetime import date
from pathlib import Path

from . import __version__
from .corpus import (
    STRICTNESS_MODES,
    class_counts,
    load_corpus,
    load_labeled_set,
    write_text_atomic,
)
from .errors import ModelFileError, ParseError, TimelineError, TrainingDataError
from .keywords import DEFAULT_PHRASES, default_keywords, filter_corpus, load_keywords
from .svm import (
    TrainingConfig,
    load_model,
    predict,
    save_model,
    train_from_labeled,
    training_accuracy,
)
from .timeline import (
    builtin_cdc_timeline,
    bucket_counts,
    daily_frequency,
    format_daily_counts,
    format_period_report,
    format_timeline,
    parse_timeline_file,
    validate_timeline,
)
from .vectorizer import vectorize

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_IO = 2
EXIT_PARSE = 3
EXIT_TRAINING_DATA = 4
EXIT_MODEL = 5
EXIT_TIMELINE = 6

FILTERED_NAME = "filtered.jsonl"
RELEVANT_NAME = "relevant.jsonl"
PERIOD_CSV_NAME = "period_counts.csv"
DAILY_CSV_NAME = "daily_counts.csv"
MANIFEST_NAME = "manifest.json"

MANIFEST_FORMAT = "outbreakmon-manifest"
MANIFEST_VERSION = 2

# Distinct texts whose verdicts run_classify keeps before it starts over.
SCORE_MEMO_LIMIT = 2**16


@dataclass
class PipelineConfig:
    """Resolved settings for one invocation (defaults < config file < flags)."""

    input_path: Path | None = None
    keywords_path: Path | None = None
    labeled_path: Path | None = None
    model_path: Path | None = None
    timeline_path: Path | None = None
    output_dir: Path = Path(".")
    strictness: str = "lenient"
    C: float = 1.0
    tolerance: float = 1e-4
    max_epochs: int = 1000
    seed: int = 42
    daily_start: date | None = None
    daily_end: date | None = None
    final_cutoff: date | None = None


# config-file key -> (PipelineConfig field, converter from string)
CONFIG_KEYS = {
    "input": ("input_path", Path),
    "keywords": ("keywords_path", Path),
    "labeled": ("labeled_path", Path),
    "model": ("model_path", Path),
    "timeline": ("timeline_path", Path),
    "output": ("output_dir", Path),
    "strictness": ("strictness", str),
    "c": ("C", float),
    "tolerance": ("tolerance", float),
    "max_epochs": ("max_epochs", int),
    "seed": ("seed", int),
    "daily_start": ("daily_start", date.fromisoformat),
    "daily_end": ("daily_end", date.fromisoformat),
    "final_cutoff": ("final_cutoff", date.fromisoformat),
}


def parse_config_file(path: Path) -> dict[str, object]:
    """Read a flat ``key = value`` config file into converted values."""
    values: dict[str, object] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected key = value")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in CONFIG_KEYS:
                raise ValueError(f"{path}:{line_no}: unknown config key {key!r}")
            field, convert = CONFIG_KEYS[key]
            try:
                values[field] = convert(value)
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: bad value for {key}: {exc}") from None
    return values


def build_config(args: argparse.Namespace) -> PipelineConfig:
    """Defaults, then the config file, then flags. Each flag's dest is its
    config key, and argparse converts it with the same CONFIG_KEYS converter
    the config file uses."""
    cfg = PipelineConfig()
    if getattr(args, "config", None):
        for field, value in parse_config_file(Path(args.config)).items():
            setattr(cfg, field, value)
    for key, (field, _) in CONFIG_KEYS.items():
        value = getattr(args, key, None)
        if value is not None:
            setattr(cfg, field, value)
    if cfg.strictness not in STRICTNESS_MODES:
        raise ValueError(f"strictness must be strict or lenient, got {cfg.strictness!r}")
    return cfg


def _open_records(path: Path):
    """Open a record, keyword or timeline file for line-by-line parsing;
    undecodable bytes reach the parser as lone surrogates, which it rejects
    naming the line or row."""
    return open(path, "r", encoding="utf-8", errors="surrogateescape")


def _load_corpus_file(path: Path | None, strictness: str, role: str):
    if path is None:
        raise FileNotFoundError(f"no {role} file configured")
    with _open_records(path) as fh:
        return load_corpus(fh, strictness)


def _load_keyword_set(path: Path | None):
    if path is None:
        return default_keywords()
    with _open_records(path) as fh:
        return load_keywords(fh)


def _load_timeline(path: Path | None):
    if path is None:
        return builtin_cdc_timeline()
    with _open_records(path) as fh:
        return parse_timeline_file(fh)


def config_hash(cfg: PipelineConfig) -> str:
    """Hash of the pipeline-semantic settings (output location excluded, so
    reruns into different directories produce identical manifests)."""
    semantic = {
        "input": str(cfg.input_path) if cfg.input_path else None,
        "keywords": str(cfg.keywords_path) if cfg.keywords_path else None,
        "model": str(cfg.model_path) if cfg.model_path else None,
        "timeline": str(cfg.timeline_path) if cfg.timeline_path else None,
        "strictness": cfg.strictness,
        "daily_start": cfg.daily_start.isoformat() if cfg.daily_start else None,
        "daily_end": cfg.daily_end.isoformat() if cfg.daily_end else None,
        "final_cutoff": cfg.final_cutoff.isoformat() if cfg.final_cutoff else None,
    }
    canonical = json.dumps(semantic, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def file_sha256(path: Path) -> str:
    """sha256 of a file's bytes, read in 1 MiB chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def input_hashes(cfg: PipelineConfig) -> dict:
    """sha256 of each input file's bytes, so the manifest tells two files
    apart that share a path; None for the built-in keywords or timeline."""
    roles = (("input", cfg.input_path), ("keywords", cfg.keywords_path),
             ("model", cfg.model_path), ("timeline", cfg.timeline_path))
    return {role: None if path is None else file_sha256(path) for role, path in roles}


def run_filter(cfg: PipelineConfig) -> dict:
    corpus = _load_corpus_file(cfg.input_path, cfg.strictness, "input")
    keywords = _load_keyword_set(cfg.keywords_path)
    filtered = filter_corpus(corpus, keywords)
    out_path = cfg.output_dir / FILTERED_NAME
    write_text_atomic(out_path, "".join(r.to_line() + "\n" for r in filtered))
    kept, dropped = len(filtered), len(corpus) - len(filtered)
    log.info("filter: %d read (%d rejected lines), %d kept, %d dropped -> %s",
             len(corpus), corpus.rejected_count, kept, dropped, out_path)
    return {
        "input_records": len(corpus),
        "rejected_lines": corpus.rejected_count,
        "kept": kept,
        "dropped": dropped,
        "output": FILTERED_NAME,
    }


def run_train(cfg: PipelineConfig) -> dict:
    if cfg.labeled_path is None:
        raise FileNotFoundError("no labeled training file configured")
    if cfg.model_path is None:
        raise FileNotFoundError("no model output path configured")
    with _open_records(cfg.labeled_path) as fh:
        examples = load_labeled_set(fh)
    negative, positive = class_counts(examples)
    train_config = TrainingConfig(
        C=cfg.C, tolerance=cfg.tolerance, max_epochs=cfg.max_epochs, seed=cfg.seed
    )
    model = train_from_labeled(examples, train_config)
    save_model(model, cfg.model_path)
    accuracy = training_accuracy(model, examples)
    log.info(
        "train: %d negative / %d positive examples, %d epochs, "
        "final objective %.6g, training accuracy %.4f -> %s",
        negative, positive, model.training_meta.epochs_run,
        model.training_meta.final_objective, accuracy, cfg.model_path,
    )
    return {
        "examples": len(examples),
        "negative": negative,
        "positive": positive,
        "epochs_run": model.training_meta.epochs_run,
        "training_accuracy": accuracy,
    }


def run_classify(cfg: PipelineConfig) -> dict:
    if cfg.model_path is None:
        raise FileNotFoundError("no model file configured")
    model = load_model(cfg.model_path)
    corpus = _load_corpus_file(cfg.input_path, cfg.strictness, "input")
    # A verdict depends on the text alone, and retweets repeat a text word for
    # word, so each distinct text is scored once. The memo starts over at
    # SCORE_MEMO_LIMIT entries, which keeps its memory bounded on any stream.
    verdicts: dict[str, bool] = {}
    relevant = []
    for record in corpus:
        verdict = verdicts.get(record.text)
        if verdict is None:
            if len(verdicts) >= SCORE_MEMO_LIMIT:
                verdicts.clear()
            verdict = predict(model, vectorize(model.vectorizer, record.text)) == 1
            verdicts[record.text] = verdict
        if verdict:
            relevant.append(record)
    out_path = cfg.output_dir / RELEVANT_NAME
    write_text_atomic(out_path, "".join(r.to_line() + "\n" for r in relevant))
    log.info("classify: %d read, %d relevant, %d irrelevant -> %s",
             len(corpus), len(relevant), len(corpus) - len(relevant), out_path)
    return {
        "input_records": len(corpus),
        "rejected_lines": corpus.rejected_count,
        "relevant": len(relevant),
        "irrelevant": len(corpus) - len(relevant),
        "output": RELEVANT_NAME,
    }


def run_report(cfg: PipelineConfig) -> dict:
    if (
        cfg.daily_start is not None
        and cfg.daily_end is not None
        and cfg.daily_end < cfg.daily_start
    ):
        raise ValueError(f"inverted daily interval: {cfg.daily_start}..{cfg.daily_end}")
    corpus = _load_corpus_file(cfg.input_path, cfg.strictness, "input")
    timeline = _load_timeline(cfg.timeline_path)
    violations = validate_timeline(timeline)
    if violations:
        raise TimelineError("invalid timeline:\n  " + "\n  ".join(violations))

    tweets = corpus.records
    excluded = 0
    if cfg.final_cutoff is not None:
        bounded = tuple(t for t in tweets if t.timestamp.date() <= cfg.final_cutoff)
        excluded = len(tweets) - len(bounded)
        tweets = bounded

    report = bucket_counts(timeline, tweets)
    period_table = format_period_report(report)
    write_text_atomic(cfg.output_dir / PERIOD_CSV_NAME, period_table)

    tweet_days = [t.timestamp.date() for t in tweets]
    start = cfg.daily_start or (min(tweet_days) if tweet_days else None)
    end = cfg.daily_end or (max(tweet_days) if tweet_days else None)
    if start is None or end is None or end < start:
        # no data and no explicit range, or one bound beyond the data: header only
        series = []
    else:
        series = daily_frequency(tweets, start, end)
    write_text_atomic(cfg.output_dir / DAILY_CSV_NAME, format_daily_counts(series))

    sys.stdout.write(period_table)
    log.info("report: %d records bucketed into %d periods (%d excluded past cutoff), "
             "%d daily rows", len(tweets), len(report.rows), excluded, len(series))
    return {
        "input_records": len(corpus),
        "rejected_lines": corpus.rejected_count,
        "excluded_after_cutoff": excluded,
        "periods": len(report.rows),
        "period_total": report.total,
        "daily_days": len(series),
        "daily_total": sum(count for _, count in series),
        "outputs": [PERIOD_CSV_NAME, DAILY_CSV_NAME],
    }


def run_pipeline(cfg: PipelineConfig) -> dict:
    # Validate the full configuration before any stage writes anything.
    for role, path in (("input", cfg.input_path), ("model", cfg.model_path)):
        if path is None:
            raise FileNotFoundError(f"no {role} file configured")
        if not Path(path).exists():
            raise FileNotFoundError(f"{role} file does not exist: {path}")
    for role, path in (("keywords", cfg.keywords_path), ("timeline", cfg.timeline_path)):
        if path is not None and not Path(path).exists():
            raise FileNotFoundError(f"{role} file does not exist: {path}")

    stages = {
        "filter": run_filter(cfg),
        "classify": run_classify(replace(cfg, input_path=cfg.output_dir / FILTERED_NAME)),
        "report": run_report(replace(cfg, input_path=cfg.output_dir / RELEVANT_NAME)),
    }
    manifest = {
        "format": MANIFEST_FORMAT,
        "version": MANIFEST_VERSION,
        "tool_version": __version__,
        "config_hash": config_hash(cfg),
        "inputs": input_hashes(cfg),
        "stages": stages,
    }
    write_text_atomic(
        cfg.output_dir / MANIFEST_NAME,
        json.dumps(manifest, indent=2, sort_keys=True) + "\n",
    )
    log.info("pipeline complete; manifest -> %s", cfg.output_dir / MANIFEST_NAME)
    return manifest


def _add_flag(parser: argparse.ArgumentParser, flag: str, key: str, **kwargs) -> None:
    """A flag that sets config key ``key``, converted as in a config file."""
    parser.add_argument(flag, dest=key, type=CONFIG_KEYS[key][1], **kwargs)


def _add_strict_flag(parser: argparse.ArgumentParser, **kwargs) -> None:
    parser.add_argument("--strict", action="store_const", const="strict",
                        dest="strictness", **kwargs)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="outbreakmon",
        description="Filter a tweet stream by keyword phrases, classify relevance "
                    "with a tf-idf linear SVM, and report counts per announcement period.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key = value config file")
    _add_flag(common, "--output", "output", help="output directory (default: current directory)")
    common.add_argument("--quiet", action="store_true", default=None,
                        help="suppress informational messages")

    p = sub.add_parser("filter", parents=[common],
                       help="keep only records matching a keyword phrase")
    _add_flag(p, "--input", "input", help="raw record file (one JSON object per line)")
    _add_flag(p, "--keywords", "keywords", help="phrase file, one per line (default: builtin set)")
    _add_strict_flag(p, help="abort on the first malformed line")

    p = sub.add_parser("train", parents=[common],
                       help="fit the tf-idf vocabulary and train the relevance SVM")
    _add_flag(p, "--labeled", "labeled", help="labeled training file (label -1 or 1 per record)")
    _add_flag(p, "--model", "model", help="where to write the model file")
    _add_flag(p, "--seed", "seed", help="shuffling seed (default 42)")
    _add_flag(p, "--c-param", "c", help="soft-margin penalty C (default 1.0)")
    _add_flag(p, "--tolerance", "tolerance", help="stopping tolerance (default 1e-4)")
    _add_flag(p, "--max-epochs", "max_epochs", help="epoch cap (default 1000)")

    p = sub.add_parser("classify", parents=[common],
                       help="keep only records the model predicts relevant")
    _add_flag(p, "--input", "input", help="record file to classify")
    _add_flag(p, "--model", "model", help="trained model file")
    _add_strict_flag(p)

    p = sub.add_parser("report", parents=[common],
                       help="bucket classified records into announcement periods")
    _add_flag(p, "--input", "input", help="classified record file")
    _add_flag(p, "--timeline", "timeline", help="timeline CSV (default: builtin CDC timeline)")
    _add_flag(p, "--daily-start", "daily_start",
              help="first day of the daily-frequency table (YYYY-MM-DD)")
    _add_flag(p, "--daily-end", "daily_end",
              help="last day of the daily-frequency table (YYYY-MM-DD)")
    _add_flag(p, "--final-cutoff", "final_cutoff",
              help="last day counted in the final open-ended period")
    _add_strict_flag(p)

    p = sub.add_parser("pipeline", parents=[common],
                       help="filter, classify with an existing model, then report")
    _add_flag(p, "--input", "input", help="raw record file")
    _add_flag(p, "--keywords", "keywords", help="phrase file (default: builtin set)")
    _add_flag(p, "--model", "model", help="trained model file (train separately first)")
    _add_flag(p, "--timeline", "timeline", help="timeline CSV (default: builtin CDC timeline)")
    _add_flag(p, "--daily-start", "daily_start")
    _add_flag(p, "--daily-end", "daily_end")
    _add_flag(p, "--final-cutoff", "final_cutoff")
    _add_strict_flag(p)

    p = sub.add_parser("timeline", help="inspect the builtin timeline")
    p.add_argument("--print-builtin", action="store_true", dest="print_builtin",
                   help="write the builtin timeline CSV to standard output")

    p = sub.add_parser("keywords", help="inspect the builtin keyword set")
    p.add_argument("--print-builtin", action="store_true", dest="print_builtin",
                   help="write the builtin phrases to standard output")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    quiet = bool(getattr(args, "quiet", False))
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.WARNING if quiet else logging.INFO,
        format="%(levelname)s %(message)s",
        force=True,
    )

    if args.command == "timeline":
        if not args.print_builtin:
            parser.error("timeline: nothing to do (use --print-builtin)")
        sys.stdout.write(format_timeline(builtin_cdc_timeline()))
        return EXIT_OK
    if args.command == "keywords":
        if not args.print_builtin:
            parser.error("keywords: nothing to do (use --print-builtin)")
        sys.stdout.write("\n".join(DEFAULT_PHRASES) + "\n")
        return EXIT_OK

    try:
        cfg = build_config(args)
        if args.command == "filter":
            run_filter(cfg)
        elif args.command == "train":
            run_train(cfg)
        elif args.command == "classify":
            run_classify(cfg)
        elif args.command == "report":
            run_report(cfg)
        elif args.command == "pipeline":
            run_pipeline(cfg)
        else:  # unreachable: argparse rejects unknown commands
            parser.error(f"unknown command {args.command!r}")
    except OSError as exc:
        log.error("%s", exc)
        return EXIT_IO
    except ParseError as exc:
        log.error("parse failure: %s", exc)
        return EXIT_PARSE
    except TrainingDataError as exc:
        log.error("training data unusable: %s", exc)
        return EXIT_TRAINING_DATA
    except ModelFileError as exc:
        log.error("model failure: %s", exc)
        return EXIT_MODEL
    except TimelineError as exc:
        log.error("timeline failure: %s", exc)
        return EXIT_TIMELINE
    except ValueError as exc:
        log.error("bad arguments: %s", exc)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
