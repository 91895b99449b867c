"""Command-line front end: filter, train, classify, report, pipeline.

Data goes to files or standard output; diagnostics go to standard error.
Exit codes are stable: 0 success, 2 I/O or bad arguments, 3 parse failure,
4 unusable training data, 5 model-file failure, 6 timeline failure. A run
stopped by SIGINT, SIGTERM or SIGHUP ends by that signal.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import sys
import threading
from functools import lru_cache, partial
from pathlib import Path

from . import __version__
from .corpus import (
    RecordStream,
    _is_unicode,
    class_counts,
    load_labeled_set,
    open_text_atomic,
    parse_date,
    write_text_atomic,
)
from .errors import (
    ModelFileError,
    ParseError,
    TimelineError,
    TrainingDataError,
    diagnose,
    to_null_device,
)
from .keywords import (
    DEFAULT_PHRASES,
    KeywordSet,
    load_keywords,
    matches,
)
from .svm import (
    SvmModel,
    TrainingConfig,
    load_model,
    predict,
    save_model,
    train_from_labeled,
    training_accuracy,
)
from .timeline import (
    BUILTIN_CDC_TIMELINE_CSV,
    EventTimeline,
    daily_frequency,
    day_counts,
    format_daily_counts,
    format_period_report,
    parse_timeline_file,
    period_counts,
)
from .value import Value
from .vectorizer import vectorize

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

# Distinct texts whose verdicts run_classify keeps, the most recently used.
SCORE_MEMO_LIMIT = 2**16

# The signals that stop a run; see main.
STOP_SIGNALS = (signal.SIGINT, signal.SIGTERM, signal.SIGHUP)

# quiet is True while main runs, in this thread, a command given --quiet,
# which drops that command's INFO diagnostics.
_call = threading.local()


# the solver's defaults, which the settings below default to
_TRAINING = TrainingConfig()


def parse_path(value: str) -> Path:
    """A path setting. An empty one is refused: ``Path("")`` is ``.``, the
    working directory, which no setting means."""
    if not value:
        raise ValueError("empty path")
    return Path(value)


def parse_strictness(value: str) -> str:
    if value not in ("strict", "lenient"):
        raise ValueError(f"must be strict or lenient, got {value!r}")
    return value


# config-file key (a PipelineConfig field) -> (converter from a string, flag,
# help, default); `--strict` is the one flag that takes no value
CONFIG_KEYS = {
    "input": (parse_path, "--input", "record file, one JSON object per line", None),
    "keywords": (parse_path, "--keywords", "phrase file, one per line (default: builtin set)",
                 None),
    "labeled": (parse_path, "--labeled", "labeled training file (label -1 or 1 per record)",
                None),
    "model": (parse_path, "--model",
              "model file (train writes it; classify and pipeline read it)", None),
    "timeline": (parse_path, "--timeline", "timeline CSV (default: builtin CDC timeline)", None),
    "output": (parse_path, "--output", "output directory (default: current directory)", Path(".")),
    "strictness": (parse_strictness, "--strict", "abort on the first malformed line", "lenient"),
    "c": (float, "--c-param", f"soft-margin penalty C (default {_TRAINING.C})", _TRAINING.C),
    "tolerance": (float, "--tolerance", f"stopping tolerance (default {_TRAINING.tolerance})",
                  _TRAINING.tolerance),
    "max_epochs": (int, "--max-epochs", f"epoch cap (default {_TRAINING.max_epochs})",
                   _TRAINING.max_epochs),
    "seed": (int, "--seed", f"shuffling seed (default {_TRAINING.seed})", _TRAINING.seed),
    "daily_start": (parse_date, "--daily-start",
                    "first day of the daily-frequency table (YYYY-MM-DD)", None),
    "daily_end": (parse_date, "--daily-end",
                  "last day of the daily-frequency table (YYYY-MM-DD)", None),
    "final_cutoff": (parse_date, "--final-cutoff",
                     "last day counted in the final open-ended period (YYYY-MM-DD)", None),
}


class PipelineConfig(Value):
    """Resolved settings for one invocation (defaults < config file < flags).
    Each field is named after its config key; an unset one takes the key's
    default."""

    __slots__ = _fields = tuple(CONFIG_KEYS)

    def __init__(self, **settings):
        unknown = settings.keys() - CONFIG_KEYS.keys()
        if unknown:
            raise TypeError(f"unknown setting {min(unknown)!r}")
        self._set_slots(*(settings.get(key, entry[3]) for key, entry in CONFIG_KEYS.items()))

    def replace(self, **changes) -> PipelineConfig:
        """A copy with the fields named in ``changes`` set to their values."""
        return PipelineConfig(**dict(zip(self._fields, self._values()), **changes))


# subcommand -> (summary, the config keys it takes a flag for, the files it
# writes in the output directory); each also takes --config, --output and
# --quiet. Its path keys name the files it reads, except train's model, which
# it writes.
COMMANDS = {
    "filter": ("keep only records matching a keyword phrase",
               ("input", "keywords", "strictness"), (FILTERED_NAME,)),
    "train": ("fit the tf-idf vocabulary and train the relevance SVM",
              ("labeled", "model", "seed", "c", "tolerance", "max_epochs"), ()),
    "classify": ("keep only records the model predicts relevant",
                 ("input", "model", "strictness"), (RELEVANT_NAME,)),
    "report": ("bucket classified records into announcement periods",
               ("input", "timeline", "daily_start", "daily_end", "final_cutoff", "strictness"),
               (PERIOD_CSV_NAME, DAILY_CSV_NAME)),
    "pipeline": ("filter, classify with an existing model, then report",
                 ("input", "keywords", "model", "timeline", "daily_start", "daily_end",
                  "final_cutoff", "strictness"),
                 (FILTERED_NAME, RELEVANT_NAME, PERIOD_CSV_NAME, DAILY_CSV_NAME,
                  MANIFEST_NAME)),
}

# inspection subcommand -> (summary, what its --print-builtin writes, the
# parser of its file); the same names are the path keys that fall back to a
# built-in when unset, which is read from that text as a file would be
BUILTINS = {
    "timeline": ("inspect the builtin timeline", BUILTIN_CDC_TIMELINE_CSV, parse_timeline_file),
    "keywords": ("inspect the builtin keyword set", "\n".join(DEFAULT_PHRASES) + "\n",
                 load_keywords),
}


def _path_keys(command: str) -> tuple[str, ...]:
    """The config keys of the files ``command`` reads (and train's model)."""
    return tuple(key for key in COMMANDS[command][1] if CONFIG_KEYS[key][0] is parse_path)


def parse_config_file(path: Path) -> dict[str, object]:
    """Read a flat ``key = value`` config file into converted values."""
    values: dict[str, object] = {}
    set_on: dict[str, int] = {}
    with _open_records(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            if not _is_unicode(raw):
                raise ValueError(f"{path}:{line_no}: invalid UTF-8")
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
            if key in set_on:
                raise ValueError(f"{path}:{line_no}: {key} already set on line {set_on[key]}")
            set_on[key] = line_no
            try:
                values[key] = CONFIG_KEYS[key][0](value)
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: bad value for {key}: {exc}") from None
    return values


def build_config(args: argparse.Namespace) -> PipelineConfig:
    """Defaults, then the config file, then flags. Each flag's dest is its
    config key, and argparse converts it with the same CONFIG_KEYS converter
    the config file uses."""
    cfg = PipelineConfig()
    if getattr(args, "config", None) is not None:
        cfg = cfg.replace(**parse_config_file(args.config))
    cfg = cfg.replace(**{key: getattr(args, key) for key in CONFIG_KEYS
                         if getattr(args, key, None) is not None})
    if cfg.daily_start and cfg.daily_end and cfg.daily_end < cfg.daily_start:
        raise ValueError(f"inverted daily interval: {cfg.daily_start}..{cfg.daily_end}")
    return cfg


def _open_records(path: Path):
    """Open a record, keyword, timeline or config file for line-by-line parsing;
    one leading byte-order mark is skipped, and undecodable bytes reach the
    parser as lone surrogates, which it rejects naming the line or row."""
    return open(path, "r", encoding="utf-8-sig", errors="surrogateescape")


def _refuse_to_replace(inputs, outputs) -> None:
    """No command modifies its input files: refuse (exit 2) an output path
    that names the same file as an input, or a directory, which no file
    can replace, before anything is read or written."""
    for output in outputs:
        if output.is_dir():
            raise ValueError(f"output {output} is a directory")
        for path in inputs:
            if (path is not None and path.exists() and output.exists()
                    and os.path.samefile(path, output)):
                raise ValueError(f"output {output} would replace input file {path}")


def _load_builtin_or_file(cfg: PipelineConfig, key: str):
    """Parse the keyword or timeline file that ``cfg`` names under ``key``,
    or, when it is unset, the text ``<key> --print-builtin`` writes, with the
    same parser."""
    _, text, parse = BUILTINS[key]
    path = getattr(cfg, key)
    if path is None:
        return parse(text.splitlines())
    with _open_records(path) as fh:
        return parse(fh)


def config_hash(cfg: PipelineConfig) -> str:
    """Hash of the settings pipeline takes a flag for, as typed (output
    location excluded, so reruns into different directories produce
    identical manifests)."""
    semantic = {key: None if getattr(cfg, key) is None else str(getattr(cfg, key))
                for key in COMMANDS["pipeline"][1]}
    canonical = json.dumps(semantic, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def file_sha256(path: Path) -> str:
    """sha256 of a file's bytes."""
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def input_hashes(cfg: PipelineConfig) -> dict:
    """sha256 of each input file's bytes, so the manifest tells two files
    apart that share a path; None for the built-in keywords or timeline."""
    return {key: None if getattr(cfg, key) is None else file_sha256(getattr(cfg, key))
            for key in _path_keys("pipeline")}


def _write_kept(cfg: PipelineConfig, name: str, keep) -> tuple[RecordStream, int]:
    """Stream the records of ``cfg.input`` into ``cfg.output / name``, writing
    each one whose text ``keep`` accepts; returns the spent stream and the
    number kept."""
    kept = 0
    with _open_records(cfg.input) as fh, open_text_atomic(cfg.output / name) as out:
        records = RecordStream(fh, strict=cfg.strictness == "strict")
        for record in records:
            if keep(record.text):
                out.write(record.output_line())
                kept += 1
    return records, kept


def run_filter(cfg: PipelineConfig, keywords: KeywordSet) -> dict:
    records, kept = _write_kept(cfg, FILTERED_NAME, partial(matches, keywords))
    dropped = records.accepted - kept
    _info(f"filter: {records.accepted} read ({records.rejected} rejected lines), "
          f"{kept} kept, {dropped} dropped -> {cfg.output / FILTERED_NAME}")
    return {
        "input_records": records.accepted,
        "rejected_lines": records.rejected,
        "kept": kept,
        "dropped": dropped,
        "output": FILTERED_NAME,
    }


def run_train(cfg: PipelineConfig) -> None:
    with _open_records(cfg.labeled) as fh:
        examples = load_labeled_set(fh)
    negative, positive = class_counts(examples)
    train_config = TrainingConfig(
        C=cfg.c, tolerance=cfg.tolerance, max_epochs=cfg.max_epochs, seed=cfg.seed
    )
    model = train_from_labeled(examples, train_config)
    save_model(model, cfg.model)
    accuracy = training_accuracy(model, examples)
    meta = model.training_meta
    _info(f"train: {negative} negative / {positive} positive examples, "
          f"{meta.epochs_run} epochs, final objective {meta.final_objective:.6g}, "
          f"training accuracy {accuracy:.4f} -> {cfg.model}")


def run_classify(cfg: PipelineConfig, model: SvmModel) -> dict:
    # A verdict depends on the text alone, and retweets repeat a text word for
    # word, so each distinct text is scored once. The cache belongs to this
    # call, so no verdict outlives its model, and it keeps the verdicts of the
    # SCORE_MEMO_LIMIT most recently used texts, which bounds its memory.
    @lru_cache(maxsize=SCORE_MEMO_LIMIT)
    def is_relevant(text: str) -> bool:
        return predict(model, vectorize(model.vectorizer, text)) == 1

    records, relevant = _write_kept(cfg, RELEVANT_NAME, is_relevant)
    irrelevant = records.accepted - relevant
    _info(f"classify: {records.accepted} read, {relevant} relevant, "
          f"{irrelevant} irrelevant -> {cfg.output / RELEVANT_NAME}")
    return {
        "input_records": records.accepted,
        "rejected_lines": records.rejected,
        "relevant": relevant,
        "irrelevant": irrelevant,
        "output": RELEVANT_NAME,
    }


def run_report(cfg: PipelineConfig, timeline: EventTimeline) -> dict:
    # Every table depends on a record's UTC day alone, so one histogram is kept.
    with _open_records(cfg.input) as fh:
        records = RecordStream(fh, strict=cfg.strictness == "strict")
        days = day_counts(records)
    if cfg.final_cutoff is not None:
        days = {day: count for day, count in days.items() if day <= cfg.final_cutoff}
    excluded = records.accepted - sum(days.values())

    report = period_counts(timeline, days)
    period_table = format_period_report(report)
    write_text_atomic(cfg.output / PERIOD_CSV_NAME, period_table)

    series = daily_frequency(days, cfg.daily_start, cfg.daily_end)
    write_text_atomic(cfg.output / DAILY_CSV_NAME, format_daily_counts(series))

    _write_stdout(period_table)
    _info(f"report: {report.total} records bucketed into {len(report.rows)} periods "
          f"({excluded} excluded past cutoff), {len(series)} daily rows")
    return {
        "input_records": records.accepted,
        "rejected_lines": records.rejected,
        "excluded_after_cutoff": excluded,
        "periods": len(report.rows),
        "period_total": report.total,
        "daily_days": len(series),
        "daily_total": sum(count for _, count in series),
        "outputs": [PERIOD_CSV_NAME, DAILY_CSV_NAME],
    }


def run_pipeline(cfg: PipelineConfig) -> dict:
    # Load every small input before any stage writes.
    keywords = _load_builtin_or_file(cfg, "keywords")
    model = load_model(cfg.model)
    timeline = _load_builtin_or_file(cfg, "timeline")
    stages = {
        "filter": run_filter(cfg, keywords),
        "classify": run_classify(cfg.replace(input=cfg.output / FILTERED_NAME), model),
        "report": run_report(cfg.replace(input=cfg.output / RELEVANT_NAME), timeline),
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
        cfg.output / MANIFEST_NAME,
        json.dumps(manifest, indent=2, sort_keys=True) + "\n",
    )
    _info(f"pipeline complete; manifest -> {cfg.output / MANIFEST_NAME}")
    return manifest


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser that raises each refusal as a ValueError, which main
    reports as one ERROR line (exit 2), and writes its help and version text
    through _write_stdout, so a failed write exits 2 with one ERROR line."""

    def error(self, message: str):
        raise ValueError(message)

    def _print_message(self, message: str, file=None) -> None:
        if message:
            _write_stdout(message)


def _build_parser() -> argparse.ArgumentParser:
    def flag_type(convert):
        # a ValueError would be reported as "invalid parse_path value: ''"; an
        # ArgumentTypeError shows its message, as a config file's bad value does
        def converted(value: str):
            try:
                return convert(value)
            except ValueError as exc:
                raise argparse.ArgumentTypeError(str(exc)) from None
        return converted

    parser = _Parser(
        prog="outbreakmon",
        allow_abbrev=False,
        description="Filter a tweet stream by keyword phrases, classify relevance "
                    "with a tf-idf linear SVM, and report counts per announcement period.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, keys, _) in COMMANDS.items():
        p = sub.add_parser(command, help=summary, allow_abbrev=False)
        p.add_argument("--config", type=flag_type(parse_path),
                       help="flat key = value config file")
        for key in ("output", *keys):
            convert, flag, help_text, _ = CONFIG_KEYS[key]
            if key == "strictness":
                p.add_argument(flag, action="store_const", const="strict", dest=key,
                               help=help_text)
            else:
                p.add_argument(flag, dest=key, type=flag_type(convert), help=help_text)
        p.add_argument("--quiet", action="store_true", default=None,
                       help="suppress informational messages")
    for command, (summary, _, _) in BUILTINS.items():
        p = sub.add_parser(command, help=summary, allow_abbrev=False)
        p.add_argument("--print-builtin", action="store_true",
                       help=f"write the builtin {command} to standard output")
    return parser


def _write_stdout(text: str) -> None:
    """Write ``text`` to standard output and flush it. If that fails, fd 1 is
    pointed at the null device, so that the interpreter's final flush cannot
    fail again, and the error is raised naming standard output (exit 2)."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        to_null_device(1)
        raise OSError(exc.errno, f"cannot write standard output: {exc.strerror}") from None


def _info(message: str) -> None:
    """An INFO diagnostic, unless this thread's main call has --quiet."""
    if not getattr(_call, "quiet", False):
        diagnose("INFO", message)


class _Stopped(BaseException):
    """A stop signal arrived while main ran. Not an Exception, so no handler
    of a command's errors takes it, and not SystemExit, which main takes for
    the end of --help; open_text_atomic's cleanup runs as for any error."""


def _stop(signum: int, frame) -> None:
    # The first stop signal ends the run: the rest are ignored, so that none
    # interrupts the cleanup of the output being written.
    for other in STOP_SIGNALS:
        signal.signal(other, signal.SIG_IGN)
    raise _Stopped(signal.Signals(signum))


def main(argv: list[str] | None = None) -> int:
    """Run the command ``argv`` names and return its exit code. A stop signal
    (STOP_SIGNALS) that the process does not ignore, as nohup ignores SIGHUP,
    cleans up as a failed run does, writes one ERROR line and then ends the
    process by that signal; on every other path the handlers main found are
    put back."""
    found = {}
    try:
        if threading.current_thread() is threading.main_thread():
            for signum in STOP_SIGNALS:
                # None: a handler set outside Python, which could not be put back
                if signal.getsignal(signum) not in (signal.SIG_IGN, None):
                    found[signum] = signal.signal(signum, _stop)
        return _run(argv)
    except _Stopped as stop:
        (signum,) = stop.args
        diagnose("ERROR", f"stopped by {signum.name}")
        signal.signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)
        raise  # not reached: the signal ends the process
    finally:
        for signum, handler in found.items():
            signal.signal(signum, handler)


def _run(argv: list[str] | None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _call.quiet = getattr(args, "quiet", False)
        if args.command in BUILTINS:
            if not args.print_builtin:
                raise ValueError(f"{args.command}: nothing to do (use --print-builtin)")
            _write_stdout(BUILTINS[args.command][1])
            return EXIT_OK
        cfg = build_config(args)
        # Check the command's files before any input loads: each it needs is
        # set, no output is a directory or replaces an input, the config file
        # included, and none that pipeline hashes is a pipe.
        paths = {key: getattr(cfg, key) for key in _path_keys(args.command)}
        for key, path in paths.items():
            if path is None and key not in BUILTINS:
                raise FileNotFoundError(f"no {key} file configured")
        outputs = [cfg.output / name for name in COMMANDS[args.command][2]]
        if args.command == "train":
            outputs.append(paths.pop("model"))
        _refuse_to_replace([args.config, *paths.values()], outputs)
        if args.command == "pipeline":
            # pipeline hashes each file after reading it, which a pipe cannot
            # give again; is_fifo leaves a missing file to the load that names it
            for key, path in paths.items():
                if path is not None and path.is_fifo():
                    raise ValueError(f"{key} {path} is a pipe, and pipeline hashes only files")
        if args.command == "filter":
            run_filter(cfg, _load_builtin_or_file(cfg, "keywords"))
        elif args.command == "train":
            run_train(cfg)
        elif args.command == "classify":
            run_classify(cfg, load_model(cfg.model))
        elif args.command == "report":
            run_report(cfg, _load_builtin_or_file(cfg, "timeline"))
        else:
            run_pipeline(cfg)
    except OSError as exc:
        diagnose("ERROR", str(exc))
        return EXIT_IO
    except ParseError as exc:
        diagnose("ERROR", f"parse failure: {exc}")
        return EXIT_PARSE
    except TrainingDataError as exc:
        diagnose("ERROR", f"training data unusable: {exc}")
        return EXIT_TRAINING_DATA
    except ModelFileError as exc:
        diagnose("ERROR", f"model failure: {exc}")
        return EXIT_MODEL
    except TimelineError as exc:
        diagnose("ERROR", f"timeline failure: {exc}")
        return EXIT_TIMELINE
    except ValueError as exc:
        diagnose("ERROR", f"bad arguments: {exc}")
        return EXIT_IO
    except SystemExit as exc:  # --help or --version, once its text is written
        return exc.code
    finally:
        _call.quiet = False
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
