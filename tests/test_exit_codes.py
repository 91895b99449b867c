"""The README's exit-code table: one row per fault, one driver.

A row holds the files to write into an empty directory (bytes, or a function
of the shared trained model's bytes; a name such as ``o/x.jsonl`` is written
into a subdirectory the driver makes), the arguments as one string that
``shlex.split`` splits, so ``''`` is an empty argument, with ``{tmp}`` for
that directory, the exit code and the whole of standard error. The driver
runs ``cli.main`` and also asserts that the run wrote nothing: no standard
output, no path in the directory but the row's files and their
subdirectories (no output directory, model or temporary file), and each file
still holding the bytes the row wrote.
"""
import json
import math
import shlex
import sys
from pathlib import Path

import pytest

from outbreakmon.cli import EXIT_IO, EXIT_MODEL, EXIT_PARSE, EXIT_TIMELINE, EXIT_TRAINING_DATA, main

from synthdata import labeled_lines


def _file(*lines):
    return "".join(f"{line}\n" for line in lines).encode("utf-8")


def _model_with(*path, edit):
    """The model file's bytes -> the model with ``edit`` applied to its value
    at ``path``, and an infinite number written as 1e999, past the float range."""
    def edited(model):
        root = {"": json.loads(model)}
        *parents, last = ("", *path)
        node = root
        for key in parents:
            node = node[key]
        node[last] = edit(node[last])
        return json.dumps(root[""]).replace("Infinity", "1e999").encode("utf-8")
    return edited


RECORD = b'{"id":"a","timestamp":"2015-09-05T00:00:00Z","text":"salmonella"}\n'
STREAM = {"s.jsonl": RECORD}
MODEL = {"m.json": lambda model: model}
UNDECODABLE = b'{"id":"b","timestamp":"2015-09-05T00:00:00Z","text":"salmonella \xff"}\n'
LONE_SURROGATE = b'{"id":"b","timestamp":"2015-09-05T00:00:00Z","text":"salmonella \\ud83d"}\n'
# nested past the recursion limit, where json.loads raises RecursionError
NESTED_TOO_DEEP = b'{"x":' + b"[" * 100_000 + b"\n"
# one digit past the longest integer literal int() converts
LONG_INTEGER = b"1" * (sys.get_int_max_str_digits() + 1)
TOO_LONG = f"integer of more than {sys.get_int_max_str_digits()} digits"
LABELED = _file(*labeled_lines(2, 2))
TIMELINE = b"date,kind,new_ill,cumulative_ill,states,note\n"
HEADER_FAULT = "timeline header must be date,kind,new_ill,cumulative_ill,states,note, got "
# csv's default field limit is 131,072 characters
LONG_CELL = (TIMELINE + b"2015-09-04,announcement,,285,27,\n"
             b"2015-09-09,announcement,56,341,30," + b"x" * 131_073 + b"\n")
# Dates that are no day in YYYY-MM-DD form, most of them shapes that Python
# 3.11's date.fromisoformat takes.
NOT_YYYY_MM_DD = ["20150909", "2015-W37-4", "2015-252", "2015-09-09T00:00",
                  "２０１５-09-09", "2015-9-9", "2015-02-30", ""]

FILTER = "filter --input {tmp}/s.jsonl --output {tmp}/o"
TRAIN = "train --labeled {tmp}/l.jsonl --model {tmp}/m.json"
CLASSIFY = "classify --input {tmp}/s.jsonl --model {tmp}/m.json --output {tmp}/o"
REPORT = "report --input {tmp}/s.jsonl --output {tmp}/o"
PIPELINE = "pipeline --input {tmp}/s.jsonl --model {tmp}/m.json --output {tmp}/o"

BAD_ARGUMENTS = "ERROR bad arguments: "
PARSE_FAILURE = "ERROR parse failure: "
INVALID = "invalid timeline: "


def _config(command, text, message):
    return ({"c.conf": text}, command + " --config {tmp}/c.conf --output {tmp}/o", EXIT_IO,
            BAD_ARGUMENTS + "{tmp}/c.conf:" + message + "\n")


def _strict(line, reason):
    return ({"s.jsonl": RECORD + line}, FILTER + " --strict", EXIT_PARSE,
            f"{PARSE_FAILURE}line 2: {reason}\n")


def _classify(model, message):
    return {**STREAM, "m.json": model}, CLASSIFY, EXIT_MODEL, f"ERROR model failure: {message}\n"


def _report(timeline, message, files=STREAM, argv=REPORT):
    return ({**files, "t.csv": timeline}, argv + " --timeline {tmp}/t.csv", EXIT_TIMELINE,
            f"ERROR timeline failure: {message}\n")


def _not_a_date(raw):
    if raw == "2015-02-30":
        return "day is out of range for month"
    return f"date {raw!r} is not in YYYY-MM-DD form"


# (command, the required file it leaves unset, the arguments that set its others)
UNSET_FILE_RUNS = [
    ("filter", "input", ""), ("report", "input", ""),
    # train writes its model, so here that goes under the output directory
    ("train", "labeled", " --model {tmp}/o/m.json"), ("train", "model", " --labeled {tmp}/l.jsonl"),
    ("classify", "input", " --model {tmp}/m.json"), ("classify", "model", " --input {tmp}/s.jsonl"),
    ("pipeline", "input", " --model {tmp}/m.json"), ("pipeline", "model", " --input {tmp}/s.jsonl"),
]
# command -> (the output o/<name> that its --config names, its settings, more arguments)
CONFIG_OUTPUT_RUNS = {
    "filter": ("filtered.jsonl", b"input = s.jsonl\n", ""),
    "train": ("m.conf", b"labeled = l.jsonl\n", " --model {tmp}/o/m.conf"),
    "classify": ("relevant.jsonl", b"input = s.jsonl\nmodel = m.json\n", ""),
    "report": ("daily_counts.csv", b"input = s.jsonl\n", ""),
    "pipeline": ("manifest.json", b"input = s.jsonl\nmodel = m.json\n", ""),
}
# a file setting -> a command that takes it
FILE_SETTINGS = {"input": "filter", "keywords": "filter", "labeled": "train", "model": "train",
                 "timeline": "report", "output": "filter"}


# row id -> (files, arguments, exit code, standard error)
ROWS = {
    # 2: I/O failure or unusable arguments or config
    "missing-input": ({}, "filter --input {tmp}/nope.jsonl --output {tmp}/o", EXIT_IO,
                      "ERROR [Errno 2] No such file or directory: '{tmp}/nope.jsonl'\n"),
    "pipeline-missing-model": (
        STREAM, "pipeline --input {tmp}/s.jsonl --model {tmp}/absent.json --output {tmp}/o",
        EXIT_IO, "ERROR [Errno 2] No such file or directory: '{tmp}/absent.json'\n"),
    "c-param-negative": ({"l.jsonl": LABELED}, TRAIN + " --c-param -3", EXIT_IO,
                         BAD_ARGUMENTS + "C must be positive and finite, got -3.0\n"),
    "c-param-infinite": ({"l.jsonl": LABELED}, TRAIN + " --c-param inf", EXIT_IO,
                         BAD_ARGUMENTS + "C must be positive and finite, got inf\n"),
    "seed-negative": ({"l.jsonl": LABELED}, TRAIN + " --seed -1", EXIT_IO,
                      BAD_ARGUMENTS + "seed must be non-negative, got -1\n"),
    "inverted-daily-interval": (
        STREAM, REPORT + " --daily-start 2015-10-01 --daily-end 2015-09-01", EXIT_IO,
        BAD_ARGUMENTS + "inverted daily interval: 2015-10-01..2015-09-01\n"),
    "config-unknown-key": _config("filter", b"inptu = x.jsonl\n", "1: unknown config key 'inptu'"),
    "config-undecodable-byte": _config(
        "report", b"# settings\nfinal_cutoff = 2016-03-31 \xff\n", "2: invalid UTF-8"),
    "config-line-without-equals": _config(
        "report", b"# settings\nfinal_cutoff 2016-03-31\n", "2: expected key = value"),
    "config-bad-strictness": _config(
        "report", b"# settings\nstrictness = strickt\n",
        "2: bad value for strictness: must be strict or lenient, got 'strickt'"),
    "config-key-set-twice": _config("filter", b"input = a.jsonl\n# the same key again\ninput = b\n",
                                    "3: input already set on line 1"),
    "config-path-empty": ({}, "filter --config= --output {tmp}/o", EXIT_IO,
                          BAD_ARGUMENTS + "argument --config: empty path\n"),
    # refusals of the command line, the first three in argparse's own words
    "no-subcommand": ({}, "", EXIT_IO,
                      BAD_ARGUMENTS + "the following arguments are required: command\n"),
    "unknown-option": ({}, "filter --output {tmp}/o --bogus", EXIT_IO,
                       BAD_ARGUMENTS + "unrecognized arguments: --bogus\n"),
    # an option is taken only by its full name, never by a prefix of it
    "input-prefix": (STREAM, "filter --inp {tmp}/s.jsonl --output {tmp}/o", EXIT_IO,
                     BAD_ARGUMENTS + "unrecognized arguments: --inp {tmp}/s.jsonl\n"),
    "output-prefix": (STREAM, "filter --input {tmp}/s.jsonl --out {tmp}/o", EXIT_IO,
                      BAD_ARGUMENTS + "unrecognized arguments: --out {tmp}/o\n"),
    "quiet-prefix": (STREAM, FILTER + " --q", EXIT_IO,
                     BAD_ARGUMENTS + "unrecognized arguments: --q\n"),
    "strict-prefix": ({**STREAM, **MODEL}, PIPELINE + " --str", EXIT_IO,
                      BAD_ARGUMENTS + "unrecognized arguments: --str\n"),
    "daily-start-prefix": (STREAM, REPORT + " --daily-s 2015-09-01", EXIT_IO,
                           BAD_ARGUMENTS + "unrecognized arguments: --daily-s 2015-09-01\n"),
    "daily-start-not-yyyy-mm-dd": (
        STREAM, REPORT + " --daily-start 20150909", EXIT_IO,
        BAD_ARGUMENTS + "argument --daily-start: date '20150909' is not in YYYY-MM-DD form\n"),
    # the flag and the config file both name the fault, not argparse's
    # "invalid parse_date value"; the first date is the row above
    **{f"daily-start-{raw or 'empty'}": (
        {}, f"report --daily-start '{raw}'", EXIT_IO,
        f"{BAD_ARGUMENTS}argument --daily-start: {_not_a_date(raw)}\n")
       for raw in NOT_YYYY_MM_DD[1:]},
    **{f"daily-end-{raw or 'empty'}": _config("report", f"daily_end = {raw}\n".encode(),
                                              f"1: bad value for daily_end: {_not_a_date(raw)}")
       for raw in NOT_YYYY_MM_DD},
    # Path("") is ".": read as a path, an empty value named the working directory
    **{f"{key}-path-empty": ({}, f"{command} --{key} ''", EXIT_IO,
                             f"{BAD_ARGUMENTS}argument --{key}: empty path\n")
       for key, command in FILE_SETTINGS.items()},
    **{f"config-{key}-path-empty": _config(command, f"# settings\n{key} =\n".encode(),
                                           f"2: bad value for {key}: empty path")
       for key, command in FILE_SETTINGS.items()},
    # each file a command needs is set before the output directory is made
    **{f"{command}-{key}-unset": ({**STREAM, "l.jsonl": LABELED, **MODEL},
                                  f"{command}{others} --output {{tmp}}/o", EXIT_IO,
                                  f"ERROR no {key} file configured\n")
       for command, key, others in UNSET_FILE_RUNS},
    **{f"{command}-output-replaces-config": (
        {f"o/{name}": settings}, f"{command} --config {{tmp}}/o/{name}{more} --output {{tmp}}/o",
        EXIT_IO, f"{BAD_ARGUMENTS}output {{tmp}}/o/{name} would replace input file "
                 f"{{tmp}}/o/{name}\n")
       for command, (name, settings, more) in CONFIG_OUTPUT_RUNS.items()},
    **{f"{command}-without-print-builtin": ({}, command, EXIT_IO,
                                            f"{BAD_ARGUMENTS}{command}: nothing to do "
                                            "(use --print-builtin)\n")
       for command in ("keywords", "timeline")},
    # 3: parse failure
    "strict-malformed-line": _strict(b"{broken\n", "invalid JSON (Expecting property name "
                                                    "enclosed in double quotes at column 2)"),
    "strict-undecodable-byte": _strict(UNDECODABLE, "invalid UTF-8"),
    "strict-escaped-lone-surrogate": _strict(LONE_SURROGATE, "field 'text' holds a lone surrogate"),
    "strict-nested-too-deep": _strict(NESTED_TOO_DEEP, "invalid JSON (nested too deeply)"),
    "strict-integer-too-long": _strict(b'{"id":' + LONG_INTEGER + b"}\n",
                                       f"invalid JSON ({TOO_LONG})"),
    # a line break in the input is written as its escape: the diagnostic stays one line
    "strict-field-name-with-line-break": _strict(
        b'{"id":"1","timestamp":"2015-09-04T12:00:00Z","text":"salmonella",'
        b'"a\\nWARNING forged":1}\n', "unknown fields: a\\nWARNING forged"),
    # and so is any other character that is not printable, as an ESC
    "strict-field-name-with-escape-sequence": _strict(
        b'{"id":"1","timestamp":"2015-09-04T12:00:00Z","text":"salmonella",'
        b'"a\\u001b[1A\\u001b[2KINFO all fine":1}\n',
        "unknown fields: a\\x1b[1A\\x1b[2KINFO all fine"),
    "keywords-only-comments": ({**STREAM, "k.txt": b"# only comments\n"},
                               FILTER + " --keywords {tmp}/k.txt", EXIT_PARSE,
                               PARSE_FAILURE + "keyword file contains no phrases\n"),
    "keywords-undecodable-byte": ({**STREAM, "k.txt": b"salmonella\n\xffcucumbers\n"},
                                  FILTER + " --keywords {tmp}/k.txt", EXIT_PARSE,
                                  PARSE_FAILURE + "line 2: invalid UTF-8\n"),
    "label-two": ({"l.jsonl": LABELED.replace(b'"label":1', b'"label":2')}, TRAIN, EXIT_PARSE,
                  PARSE_FAILURE + "line 1: label must be -1 or 1, got 2\n"),
    "labeled-repeated-id": ({"l.jsonl": LABELED + _file(labeled_lines(2, 2)[1])}, TRAIN,
                            EXIT_PARSE, PARSE_FAILURE + "line 5: duplicate id 'pos1'\n"),
    "labeled-undecodable-byte": ({"l.jsonl": UNDECODABLE}, TRAIN, EXIT_PARSE,
                                 PARSE_FAILURE + "line 1: invalid UTF-8\n"),
    "labeled-nested-too-deep": ({"l.jsonl": NESTED_TOO_DEEP}, TRAIN, EXIT_PARSE,
                                PARSE_FAILURE + "line 1: invalid JSON (nested too deeply)\n"),
    "labeled-integer-too-long": ({"l.jsonl": b'{"id":' + LONG_INTEGER + b"}\n"}, TRAIN,
                                 EXIT_PARSE, f"{PARSE_FAILURE}line 1: invalid JSON ({TOO_LONG})\n"),
    # 4: training data unusable
    "single-class": ({"l.jsonl": _file(*labeled_lines(10, 0))}, TRAIN, EXIT_TRAINING_DATA,
                     "ERROR training data unusable: training data contains a single class\n"),
    # 5: model file corrupt, wrong version or inconsistent
    "model-not-json": _classify(b"not a model",
                                "corrupt model file: Expecting value at line 1 column 1"),
    "model-undecodable-byte": _classify(lambda model: b"\xff" + model,
                                        "model file is not valid UTF-8 (byte 0)"),
    "model-wrong-format": _classify(b'{"format": "something-else", "version": 1}',
                                    "not a recognized model file"),
    "model-version-99": _classify(_model_with("version", edit=lambda _: 99),
                                  "unsupported model file version 99 (expected 1)"),
    "model-token-rules": _classify(_model_with("token_rules", edit=lambda _: "stemming-v9"),
                                   "unsupported token rules 'stemming-v9'"),
    # json.dumps writes an infinite bias as the JSON constant Infinity
    "model-infinite-bias": _classify(
        lambda model: json.dumps(json.loads(model) | {"bias": math.inf}).encode("utf-8"),
        "non-finite number 'Infinity' in model file"),
    "model-nested-too-deep": _classify(NESTED_TOO_DEEP, "corrupt model file: nested too deeply"),
    "model-integer-too-long": _classify(b'{"version":' + LONG_INTEGER + b"}",
                                        f"corrupt model file: {TOO_LONG}"),
    "model-weight-past-float-range": _classify(_model_with("weights", 0, edit=lambda _: 1e999),
                                               "weight is outside the float range"),
    "model-non-positive-c": _classify(_model_with("training_meta", "C", edit=lambda _: -1.0),
                                      "training_meta.C must be positive, got -1.0"),
    "model-missing-bias": _classify(
        _model_with(edit=lambda payload: {key: payload[key] for key in payload if key != "bias"}),
        "model file is missing or mistypes a field: 'bias'"),
    "model-terms-object": _classify(_model_with("vocabulary", "terms", edit=dict),
                                    "vocabulary terms must be a list"),
    "model-one-element-row": _classify(_model_with("vocabulary", "terms", 0, edit=lambda r: r[:1]),
                                       "malformed vocabulary row ['salmonella']"),
    # the second vocabulary row takes the first row's term
    "model-repeated-term": _classify(
        _model_with("vocabulary", "terms", 1, edit=lambda row: ["salmonella", row[1]]),
        "duplicate vocabulary term 'salmonella'"),
    "model-weights-object": _classify(_model_with("weights", edit=lambda w: {"0": w[0]}),
                                      "weights must be a list of numbers"),
    # the shared model has 85 terms from 80 documents, the first 'salmonella'
    "model-one-weight": _classify(_model_with("weights", edit=lambda w: w[:1]),
                                  "weights length 1 does not match vocabulary size 85"),
    "model-df-past-corpus-size": _classify(
        _model_with("vocabulary", "terms", 0, 1, edit=lambda _: 81),
        "document frequency 81 out of range for term 'salmonella'"),
    # 6: timeline malformed or failed validation
    "timeline-empty": _report(b"", "timeline file is empty"),
    "timeline-no-header": _report(b"2015-09-04,announcement,,,,\n",
                                  HEADER_FAULT + "2015-09-04,announcement,,,,"),
    "timeline-header-with-line-break": _report(
        TIMELINE.replace(b"note", b'"note\nWARNING forged"'),
        HEADER_FAULT + "date,kind,new_ill,cumulative_ill,states,note\\nWARNING forged"),
    # a spreadsheet's "CSV UTF-8" starts with a byte-order mark
    "timeline-header-with-bom": _report(
        b"\xef\xbb\xbf" + TIMELINE,
        HEADER_FAULT + "\\ufeffdate,kind,new_ill,cumulative_ill,states,note"),
    "timeline-undecodable-header": _report(TIMELINE.replace(b"note", b"note\xff"),
                                           "row 1: invalid UTF-8"),
    "timeline-undecodable-byte": _report(
        TIMELINE + b"2015-09-04,announcement,,285,27,\n2015-09-09,announcement,56,341,30,\xff\n",
        "row 3: invalid UTF-8"),
    "timeline-five-cells": _report(TIMELINE + b"2015-09-04,announcement,,285,27\n",
                                   "row 2: expected 6 columns"),
    "timeline-bad-date": _report(TIMELINE + b"soon,announcement,,,,\n", "row 2: bad date 'soon'"),
    "timeline-bad-kind": _report(TIMELINE + b"2015-09-04,party,,,,\n",
                                 "row 2: unknown event kind 'party'"),
    **{f"timeline-date-{raw}": _report(TIMELINE + f"{raw},announcement,,7,,\n".encode(),
                                       f"row 2: bad date {raw!r}")
       for raw in NOT_YYYY_MM_DD if raw},
    # a count is ASCII digits only
    **{f"timeline-count-{cell}": _report(
        TIMELINE + f"2015-09-04,announcement,,{cell},,\n".encode(), f"row 2: bad count {cell!r}")
       for cell in ("7_7", "٣", "+7", "-7", "7.0", "0x7")},
    **{f"{command}-timeline-cell-past-field-limit": _report(
        LONG_CELL, "row 3: field larger than field limit (131072)", files, argv)
       for command, files, argv in (("report", STREAM, REPORT),
                                    ("pipeline", {**STREAM, **MODEL}, PIPELINE))},
    "timeline-no-events": _report(TIMELINE, INVALID + "timeline has no events"),
    "timeline-no-announcement": _report(TIMELINE + b"2015-07-03,illness_onset,,,,\n",
                                        INVALID + "timeline has no announcement events"),
    "timeline-out-of-order": _report(
        TIMELINE + b"2015-09-09,recall,,,,\n2015-09-04,announcement,,285,27,\n",
        INVALID + "events out of order: 2015-09-04 after 2015-09-09"),
    "timeline-same-day": _report(
        TIMELINE + b"2015-09-04,announcement,,285,27,\n2015-09-04,announcement,56,341,30,\n",
        INVALID + "announcement dates must strictly increase: 2015-09-04 then 2015-09-04"),
    "timeline-decrease": _report(
        TIMELINE + b"2015-09-04,announcement,,341,27,\n2015-09-09,announcement,,300,30,\n",
        INVALID + "cumulative illnesses decrease from 341 to 300 at 2015-09-09"),
    "timeline-mismatch": _report(
        TIMELINE + b"2015-09-04,announcement,,285,27,\n2015-09-09,announcement,50,341,30,\n",
        INVALID + "arithmetic mismatch at 2015-09-09: 285 + 50 != 341 "
                  "(previous cumulative at 2015-09-04)"),
    "timeline-several": _report(
        TIMELINE + b"2015-09-09,announcement,,341,30,\n2015-09-04,announcement,10,300,31,\n"
                   b"2015-09-04,recall,,,,\n",
        INVALID + "events out of order: 2015-09-04 after 2015-09-09; "
        "announcement dates must strictly increase: 2015-09-09 then 2015-09-04; "
        "cumulative illnesses decrease from 341 to 300 at 2015-09-04; "
        "arithmetic mismatch at 2015-09-04: 341 + 10 != 300 (previous cumulative at 2015-09-09)"),
}


@pytest.mark.parametrize("files, argv, code, stderr", ROWS.values(), ids=ROWS.keys())
def test_exit_code_and_whole_stderr(tmp_path, trained_model, capsys, files, argv, code, stderr):
    model = trained_model.read_bytes()
    written = {name: content(model) if callable(content) else content
               for name, content in files.items()}
    for name, content in written.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_bytes(content)
    exit_code = main([arg.replace("{tmp}", str(tmp_path)) for arg in shlex.split(argv)])
    out, err = capsys.readouterr()
    assert (exit_code, out, err.replace(str(tmp_path), "{tmp}")) == (code, "", stderr)
    assert {path.relative_to(tmp_path) for path in tmp_path.rglob("*")} == {
        path for name in files for path in (Path(name), *Path(name).parents[:-1])}
    assert {name: (tmp_path / name).read_bytes() for name in files} == written
