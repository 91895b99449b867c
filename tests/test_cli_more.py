"""Exit-code and edge-case coverage that did not fit the main CLI scenarios."""
import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import tomllib
from datetime import date, datetime, timezone
from pathlib import Path

import pytest

import outbreakmon
from outbreakmon.cli import (
    COMMANDS,
    CONFIG_KEYS,
    DAILY_CSV_NAME,
    EXIT_IO,
    EXIT_MODEL,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_TIMELINE,
    FILTERED_NAME,
    MANIFEST_NAME,
    PERIOD_CSV_NAME,
    RELEVANT_NAME,
    PipelineConfig,
    _build_parser,
    build_config,
    config_hash,
    main,
)

from outbreakmon.corpus import load_labeled_set, parse_date
from outbreakmon.svm import TrainingConfig, load_model, train_from_labeled

from synthdata import RELEVANT_TEMPLATES, labeled_lines, record_line, stream_lines


def _one_record_file(tmp_path):
    path = tmp_path / "c.jsonl"
    line = record_line("a", datetime(2015, 9, 5, tzinfo=timezone.utc), "salmonella")
    path.write_text(line + "\n", encoding="utf-8")
    return path


def test_daily_bound_beyond_data_yields_header_only(tmp_path):
    classified = _one_record_file(tmp_path)
    out = tmp_path / "o"
    code = main(["report", "--input", str(classified), "--output", str(out),
                 "--daily-start", "2016-01-01", "--quiet"])
    assert code == EXIT_OK
    assert (out / DAILY_CSV_NAME).read_text() == "date,count\n"


def test_scoring_commands_never_import_numpy(tmp_path, child_env):
    # numpy is a test dependency only: every command must run in a process
    # where importing it fails.
    labeled = tmp_path / "labeled.jsonl"
    lines = labeled_lines(30, 30)
    labeled.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    model = tmp_path / "model.json"
    stream = tmp_path / "stream.jsonl"
    stream.write_text("".join(line + "\n" for line in stream_lines(200)), encoding="utf-8")
    script = (
        "import sys\n"
        "sys.modules['numpy'] = None  # any import of numpy now raises ImportError\n"
        "import outbreakmon.cli as cli\n"
        "labeled, model, stream, out = sys.argv[1:]\n"
        "codes = [cli.main(['train', '--labeled', labeled, '--model', model, '--quiet'])]\n"
        "codes += [cli.main([command, '--input', stream, *extra,\n"
        "                    '--output', out + '/' + command, '--quiet'])\n"
        "          for command, extra in (('filter', []), ('classify', ['--model', model]),\n"
        "                                 ('report', []), ('pipeline', ['--model', model]))]\n"
        "assert codes == [0] * 5, codes\n"
    )
    result = subprocess.run([sys.executable, "-c", script, str(labeled), str(model),
                             str(stream), str(tmp_path / "o")],
                            env=child_env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "o" / "pipeline" / "manifest.json").is_file()
    # the file holds exactly the model the in-process trainer produces
    trained = train_from_labeled(load_labeled_set(lines), TrainingConfig())
    loaded = load_model(model)
    assert (loaded.weights, loaded.bias) == (trained.weights, trained.bias)
    assert loaded.training_meta == trained.training_meta
    assert all(type(w) is float for w in loaded.weights)


def test_runs_under_two_hash_seeds_write_the_same_bytes(tmp_path, child_env):
    # The iteration order of a set or dict of strings depends on the hash
    # seed, so a rerun in a new process is byte-identical only if no output
    # depends on that order.
    labeled = tmp_path / "labeled.jsonl"
    labeled.write_text("".join(line + "\n" for line in labeled_lines(30, 30)), encoding="utf-8")
    stream = tmp_path / "stream.jsonl"
    stream.write_text("".join(line + "\n" for line in stream_lines(300)), encoding="utf-8")
    model = tmp_path / "model.json"
    script = "import sys\nfrom outbreakmon.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    runs = []
    for seed in ("1", "2"):
        env = dict(child_env, PYTHONHASHSEED=seed)
        out = tmp_path / f"seed{seed}"
        stdout = []
        for argv in (["train", "--labeled", str(labeled), "--model", str(model)],
                     ["pipeline", "--input", str(stream), "--model", str(model),
                      "--output", str(out)]):
            result = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                                    capture_output=True, timeout=120)
            assert result.returncode == 0, result.stderr
            stdout.append(result.stdout)
        files = {path.name: path.read_bytes() for path in out.iterdir()}
        runs.append((model.read_bytes(), stdout, files))
    assert sorted(runs[0][2]) == sorted(COMMANDS["pipeline"][2])
    assert runs[0] == runs[1]


def test_model_written_into_new_directory(tmp_path):
    labeled = tmp_path / "labeled.jsonl"
    lines = [
        record_line("p", datetime(2015, 9, 5, tzinfo=timezone.utc),
                    "salmonella outbreak recall", label=1),
        record_line("n", datetime(2015, 9, 5, tzinfo=timezone.utc),
                    "salmonella meme lol", label=-1),
    ]
    labeled.write_text("".join(l + "\n" for l in lines), encoding="utf-8")
    nested = tmp_path / "models" / "deep" / "m.json"
    assert main(["train", "--labeled", str(labeled), "--model", str(nested),
                 "--quiet"]) == EXIT_OK
    assert nested.exists()


def test_version_flag(capsys):
    assert main(["--version"]) == EXIT_OK
    assert capsys.readouterr() == (f"outbreakmon {outbreakmon.__version__}\n", "")


@pytest.mark.parametrize("argv, usage", [(["--help"], "usage: outbreakmon [-h]"),
                                         (["pipeline", "--help"], "usage: outbreakmon pipeline")],
                         ids=["help", "pipeline-help"])
def test_help_goes_to_stdout_and_main_returns_0(capsys, argv, usage):
    assert main(argv) == EXIT_OK
    out, err = capsys.readouterr()
    assert (out.startswith(usage), err) == (True, "")


def _lines_file(path, *lines):
    path.write_bytes(b"".join(line + b"\n" for line in lines))
    return path


def _good_line(record_id):
    return record_line(record_id, datetime(2015, 9, 5, tzinfo=timezone.utc),
                       f"salmonella {record_id}").encode("utf-8")


BAD_UNICODE_LINES = {
    "undecodable-byte":
        b'{"id":"bad","timestamp":"2015-09-05T00:00:00Z","text":"salmonella \xff"}',
    "escaped-lone-surrogate":
        b'{"id":"bad","timestamp":"2015-09-05T00:00:00Z","text":"salmonella \\ud83d"}',
}


@pytest.mark.parametrize("kind", sorted(BAD_UNICODE_LINES))
def test_invalid_unicode_line_is_rejected_in_lenient_mode(tmp_path, capsys, kind):
    stream = _lines_file(tmp_path / "s.jsonl",
                         _good_line("a"), BAD_UNICODE_LINES[kind], _good_line("c"))
    out = tmp_path / "o"
    code = main(["filter", "--input", str(stream), "--output", str(out), "--quiet"])
    assert code == EXIT_OK
    kept = (out / FILTERED_NAME).read_bytes()
    assert kept == _good_line("a") + b"\n" + _good_line("c") + b"\n"
    assert sorted(p.name for p in out.iterdir()) == [FILTERED_NAME]
    rejections = [line for line in capsys.readouterr().err.splitlines() if "rejected" in line]
    assert len(rejections) == 1 and "line 2" in rejections[0]


# Nested past the recursion limit, where json.loads raises RecursionError.
NESTED_TOO_DEEP = b'{"x":' + b"[" * 100_000


def test_line_nested_too_deep_is_rejected_in_lenient_mode(tmp_path, capsys):
    stream = _lines_file(tmp_path / "s.jsonl", _good_line("a"), NESTED_TOO_DEEP, _good_line("c"))
    out = tmp_path / "o"
    assert main(["filter", "--input", str(stream), "--output", str(out)]) == EXIT_OK
    assert (out / FILTERED_NAME).read_bytes() == _good_line("a") + b"\n" + _good_line("c") + b"\n"
    rejections = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("WARNING rejected")]
    assert rejections == ["WARNING rejected line 2: invalid JSON (nested too deeply)"]


def test_integer_past_the_digit_limit_is_rejected_in_lenient_mode(tmp_path, capsys,
                                                                  trained_model):
    limit = sys.get_int_max_str_digits()
    line = b'{"id":' + b"1" * (limit + 1) + b',"timestamp":"2015-09-05T00:00:00Z","text":"x"}'
    stream = _lines_file(tmp_path / "s.jsonl", _good_line("a"), line, _good_line("c"))
    out = tmp_path / "o"
    assert main(["pipeline", "--input", str(stream), "--model", str(trained_model),
                 "--output", str(out), "--quiet"]) == EXIT_OK
    assert capsys.readouterr().err == (
        f"WARNING rejected line 2: invalid JSON (integer of more than {limit} digits)\n")
    assert (out / FILTERED_NAME).read_bytes() == _good_line("a") + b"\n" + _good_line("c") + b"\n"
    manifest = json.loads((out / MANIFEST_NAME).read_text(encoding="utf-8"))
    assert manifest["stages"]["filter"]["rejected_lines"] == 1


def _raise_oserror(*args, **kwargs):
    raise OSError("injected failure")


@pytest.mark.parametrize("step", ["fsync", "replace"])
def test_failed_output_write_keeps_the_old_file(tmp_path, monkeypatch, step):
    out = tmp_path / "o"
    first = _lines_file(tmp_path / "first.jsonl", _good_line("a"))
    assert main(["filter", "--input", str(first), "--output", str(out), "--quiet"]) == EXIT_OK
    before = (out / FILTERED_NAME).read_bytes()

    second = _lines_file(tmp_path / "second.jsonl", _good_line("b"), _good_line("c"))
    monkeypatch.setattr(os, step, _raise_oserror)
    code = main(["filter", "--input", str(second), "--output", str(out), "--quiet"])
    monkeypatch.undo()
    assert code == EXIT_IO
    assert (out / FILTERED_NAME).read_bytes() == before
    assert sorted(p.name for p in out.iterdir()) == [FILTERED_NAME]


# config key -> (subcommand, flag arguments, file value, other file value, parsed value)
FLAG_CASES = {
    "input": ("filter", ["--input", "a.jsonl"], "a.jsonl", "z.jsonl", Path("a.jsonl")),
    "keywords": ("filter", ["--keywords", "k.txt"], "k.txt", "z.txt", Path("k.txt")),
    "labeled": ("train", ["--labeled", "l.jsonl"], "l.jsonl", "z.jsonl", Path("l.jsonl")),
    "model": ("train", ["--model", "m.json"], "m.json", "z.json", Path("m.json")),
    "timeline": ("report", ["--timeline", "t.csv"], "t.csv", "z.csv", Path("t.csv")),
    "output": ("filter", ["--output", "out"], "out", "z", Path("out")),
    "strictness": ("filter", ["--strict"], "strict", "lenient", "strict"),
    "c": ("train", ["--c-param", "2.5"], "2.5", "0.5", 2.5),
    "tolerance": ("train", ["--tolerance", "0.01"], "0.01", "0.5", 0.01),
    "max_epochs": ("train", ["--max-epochs", "7"], "7", "9", 7),
    "seed": ("train", ["--seed", "7"], "7", "9", 7),
    "daily_start": ("report", ["--daily-start", "2015-09-01"], "2015-09-01", "2015-01-01",
                    date(2015, 9, 1)),
    "daily_end": ("report", ["--daily-end", "2015-10-20"], "2015-10-20", "2015-01-01",
                  date(2015, 10, 20)),
    "final_cutoff": ("pipeline", ["--final-cutoff", "2016-03-31"], "2016-03-31",
                     "2015-01-01", date(2016, 3, 31)),
}


def test_every_config_key_has_a_flag_case():
    assert set(FLAG_CASES) == set(CONFIG_KEYS)


def test_config_keys_are_the_config_fields():
    assert list(PipelineConfig._fields) == list(CONFIG_KEYS)


@pytest.mark.parametrize("key", sorted(FLAG_CASES))
def test_config_file_and_flag_set_the_same_field_and_the_flag_wins(tmp_path, key):
    command, flag_args, value, other, parsed = FLAG_CASES[key]

    def config(file_value, *argv):
        path = tmp_path / "run.conf"
        path.write_text(f"{key} = {file_value}\n", encoding="utf-8")
        args = _build_parser().parse_args([command, "--config", str(path), *argv])
        return getattr(build_config(args), key)

    assert getattr(PipelineConfig(), key) != parsed
    assert config(value) == parsed
    assert getattr(build_config(_build_parser().parse_args([command, *flag_args])),
                   key) == parsed
    assert config(other, *flag_args) == parsed


def test_a_flag_given_twice_takes_its_last_value(tmp_path):
    record = _one_record_file(tmp_path)
    out = tmp_path / "o"
    assert main(["filter", "--input", str(tmp_path / "absent.jsonl"), "--input", str(record),
                 "--output", str(out), "--quiet"]) == EXIT_OK
    assert (out / FILTERED_NAME).read_bytes() == record.read_bytes()


def test_config_hash_is_pinned():
    # every hashed setting set; the hex is the one manifests have always written
    args = _build_parser().parse_args([
        "pipeline", "--input", "in/stream.jsonl", "--keywords", "kw.txt",
        "--model", "model.json", "--timeline", "tl.csv", "--strict",
        "--daily-start", "2015-09-01", "--daily-end", "2015-10-20",
        "--final-cutoff", "2016-03-31", "--output", "out"])
    assert config_hash(build_config(args)) \
        == "917e1296dd6993c69a72bf1fb001bad44a432792a787373d9b8a738c4a3a57ca"


# case -> (arguments whose output replaces the input o/<name>, <name>, the
# exit code of the same arguments into an empty directory). The last three
# cases also name the file "bad", which cannot load: the refusal comes first.
REPLACING_RUNS = {
    "filter": (["filter", "--input", "o/filtered.jsonl"], FILTERED_NAME, EXIT_OK),
    "train": (["train", "--labeled", "o/l.jsonl", "--model", "o/../o/l.jsonl"], "l.jsonl",
              None),
    "classify": (["classify", "--input", "o/relevant.jsonl", "--model", "model.json"],
                 RELEVANT_NAME, EXIT_OK),
    "report": (["report", "--input", "o/period_counts.csv"], PERIOD_CSV_NAME, EXIT_OK),
    "pipeline": (["pipeline", "--input", "o/relevant.jsonl", "--model", "model.json"],
                 RELEVANT_NAME, EXIT_OK),
    "classify-corrupt-model": (["classify", "--input", "o/relevant.jsonl", "--model", "bad"],
                               RELEVANT_NAME, EXIT_MODEL),
    "filter-undecodable-keywords": (["filter", "--input", "o/filtered.jsonl",
                                     "--keywords", "bad"], FILTERED_NAME, EXIT_PARSE),
    "report-invalid-timeline": (["report", "--input", "o/period_counts.csv",
                                 "--timeline", "bad"], PERIOD_CSV_NAME, EXIT_TIMELINE),
}


@pytest.mark.parametrize("case", sorted(REPLACING_RUNS))
def test_output_that_is_an_input_file_exits_2_before_any_write(tmp_path, monkeypatch,
                                                                capsys, model_file, case):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad").write_bytes(b"\xff\n")
    argv, name, elsewhere = REPLACING_RUNS[case]
    out = tmp_path / "o"
    out.mkdir()
    (out / name).write_text("".join(line + "\n" for line in labeled_lines(20, 20)),
                            encoding="utf-8")
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    assert main([*argv, "--output", "o"]) == EXIT_IO
    # train's output is its --model, the last argument
    output = argv[-1] if case == "train" else f"o/{name}"
    assert capsys.readouterr().err == (
        f"ERROR bad arguments: output {output} would replace input file o/{name}\n")
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before
    if elsewhere is not None:
        # into another directory the same inputs load, or fail with their own code
        assert main([*argv, "--output", "elsewhere", "--quiet"]) == elsewhere


@pytest.mark.parametrize("command", ["filter", "classify", "report", "pipeline"])
def test_a_run_into_an_empty_directory_writes_exactly_its_listed_files(tmp_path, monkeypatch,
                                                                       model_file, command):
    # the refusal to replace an input checks only the files COMMANDS lists
    monkeypatch.chdir(tmp_path)
    stream = tmp_path / "stream.jsonl"
    stream.write_text("".join(line + "\n" for line in stream_lines(200)), encoding="utf-8")
    model_flags = ["--model", str(model_file)] if command in ("classify", "pipeline") else []
    out = tmp_path / "o"
    out.mkdir()
    assert main([command, "--input", str(stream), *model_flags, "--output", str(out),
                 "--quiet"]) == EXIT_OK
    assert sorted(path.name for path in out.iterdir()) == sorted(COMMANDS[command][2])


def test_record_on_the_last_representable_day_is_reported(tmp_path, trained_model):
    stream = tmp_path / "s.jsonl"
    stream.write_text(record_line("a", datetime(9999, 12, 31, 23, 59, 59, tzinfo=timezone.utc),
                                  RELEVANT_TEMPLATES[0]) + "\n", encoding="utf-8")
    for command, extra in (("report", []), ("pipeline", ["--model", str(trained_model)])):
        out = tmp_path / command
        assert main([command, "--input", str(stream), "--output", str(out), "--quiet",
                     *extra]) == EXIT_OK
        assert (out / DAILY_CSV_NAME).read_text() == "date,count\n9999-12-31,1\n"


# The exit-code table pins each date shape's diagnostic as text; this checks,
# for one shape, that both routes report parse_date's own reason.
@pytest.mark.parametrize("raw", ["20150909"])
def test_date_settings_take_only_yyyy_mm_dd(tmp_path, capsys, raw):
    with pytest.raises(ValueError) as excinfo:
        parse_date(raw)
    reason = str(excinfo.value)
    assert main(["report", "--daily-start", raw]) == EXIT_IO
    assert capsys.readouterr() == (
        "", f"ERROR bad arguments: argument --daily-start: {reason}\n")
    config = tmp_path / "run.conf"
    config.write_text(f"daily_end = {raw}\n", encoding="utf-8")
    assert main(["report", "--config", str(config), "--quiet"]) == EXIT_IO
    assert capsys.readouterr() == (
        "", f"ERROR bad arguments: {config}:1: bad value for daily_end: {reason}\n")


def _subparsers():
    (action,) = [action for action in _build_parser()._actions
                 if isinstance(action, argparse._SubParsersAction)]
    return action.choices


_EVERY_STAGE = {"-h", "--help", "--config", "--output", "--quiet"}
# subcommand -> every option string it takes
COMMAND_OPTIONS = {
    "filter": _EVERY_STAGE | {"--input", "--keywords", "--strict"},
    "train": _EVERY_STAGE | {"--labeled", "--model", "--seed", "--c-param", "--tolerance",
                             "--max-epochs"},
    "classify": _EVERY_STAGE | {"--input", "--model", "--strict"},
    "report": _EVERY_STAGE | {"--input", "--timeline", "--daily-start", "--daily-end",
                              "--final-cutoff", "--strict"},
    "pipeline": _EVERY_STAGE | {"--input", "--keywords", "--model", "--timeline",
                                "--daily-start", "--daily-end", "--final-cutoff", "--strict"},
    "timeline": {"-h", "--help", "--print-builtin"},
    "keywords": {"-h", "--help", "--print-builtin"},
}


def test_each_subcommand_takes_exactly_its_pinned_options():
    assert {command: {option for action in parser._actions for option in action.option_strings}
            for command, parser in _subparsers().items()} == COMMAND_OPTIONS


def test_no_parser_takes_a_prefix_of_an_option():
    parsers = {"outbreakmon": _build_parser(), **_subparsers()}
    assert {name: parser.allow_abbrev for name, parser in parsers.items()} \
        == dict.fromkeys(["outbreakmon", *COMMAND_OPTIONS], False)


@pytest.mark.parametrize("command", sorted(COMMAND_OPTIONS))
def test_every_option_has_help(command):
    parser = _subparsers()[command]
    assert [action.option_strings for action in parser._actions if not action.help] == []


def _readme_section(title):
    """The text of the README's ``### title`` section, up to the next heading."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    return readme.split(f"\n### {title}\n", 1)[1].split("\n#", 1)[0]


def test_readme_lists_exactly_the_exit_codes_and_config_keys():
    codes = re.findall(r"^\| (\d+) +\|", _readme_section("Exit codes"), flags=re.M)
    assert sorted(map(int, codes)) == sorted(
        value for name, value in vars(outbreakmon.cli).items() if name.startswith("EXIT_"))
    # the key list runs from "Keys:" to the end of its sentence; a parenthesis
    # after a key names that key's values
    keys = _readme_section("Config file").split("Keys:", 1)[1].split(". ", 1)[0]
    assert re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", keys)) == list(CONFIG_KEYS)


def test_pyproject_workflow_and_readme_name_the_same_python_floor():
    root = Path(__file__).resolve().parent.parent
    project = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    # no YAML library is installed: read the matrix's quoted versions
    workflow = (root / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    (matrix,) = re.findall(r"^\s*python-version: \[(.*)\]$", workflow, flags=re.M)
    lowest = min(re.findall(r'"(3\.\d+)"', matrix), key=lambda v: tuple(map(int, v.split("."))))
    readme = (root / "README.md").read_text(encoding="utf-8")
    assert (project["requires-python"], lowest, re.findall(r"Requires Python (\S+)\+", readme)) \
        == (">=3.11", "3.11", ["3.11"])


@pytest.mark.parametrize("sink", ["/dev/full", "closed pipe"])
@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("command", [["timeline", "--print-builtin"],
                                     ["keywords", "--print-builtin"],
                                     ["report", "--input", os.devnull],
                                     ["--help"],
                                     ["pipeline", "--help"],
                                     ["--version"]],
                         ids=["timeline", "keywords", "report", "help", "pipeline-help",
                              "version"])
def test_failed_stdout_write_exits_2_with_one_error_line(tmp_path, child_env, command,
                                                         unbuffered, sink):
    env = dict(child_env, PYTHONUNBUFFERED="1") if unbuffered else child_env
    if sink == "/dev/full":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        stdout = os.open("/dev/full", os.O_WRONLY)
    else:
        read_end, stdout = os.pipe()
        os.close(read_end)
    try:
        result = subprocess.run([sys.executable, "-m", "outbreakmon.cli", *command],
                                cwd=tmp_path, env=env, stdout=stdout, stderr=subprocess.PIPE,
                                text=True, timeout=60)
    finally:
        os.close(stdout)
    assert result.returncode == EXIT_IO, result.stderr
    errors = [line for line in result.stderr.splitlines() if line.startswith("ERROR")]
    assert len(errors) == 1 and "cannot write standard output" in errors[0], result.stderr
    assert "Traceback" not in result.stderr
    assert "Exception ignored" not in result.stderr


def _pipeline_child(tmp_path, child_env, files, **run):
    """Run ``pipeline`` in a child on ``files`` (config key -> path) into
    ``tmp_path / "out"``; a child that blocks fails the test at its timeout."""
    argv = [arg for key, path in files.items() for arg in (CONFIG_KEYS[key][1], str(path))]
    return subprocess.run([sys.executable, "-m", "outbreakmon.cli", "pipeline", *argv,
                           "--output", str(tmp_path / "out"), "--quiet"],
                          cwd=tmp_path, env=child_env, capture_output=True, timeout=30, **run)


# pipeline hashes each input after reading it, which a pipe cannot give twice
@pytest.mark.parametrize("key", ["input", "keywords", "model", "timeline", "stdin"])
def test_pipeline_refuses_a_pipe_at_once_and_writes_nothing(tmp_path, trained_model, child_env,
                                                           key):
    stream = _one_record_file(tmp_path)
    files = {"input": stream, "model": trained_model}
    if key == "stdin":
        key, run = "input", {"input": stream.read_bytes()}
        files[key] = Path("/dev/stdin")
    else:  # a FIFO that no process writes
        run = {"stdin": subprocess.DEVNULL}
        files[key] = tmp_path / "fifo"
        os.mkfifo(files[key])
    result = _pipeline_child(tmp_path, child_env, files, **run)
    assert (result.returncode, result.stdout, result.stderr.decode("utf-8")) == (
        EXIT_IO, b"",
        f"ERROR bad arguments: {key} {files[key]} is a pipe, and pipeline hashes only files\n")
    assert not (tmp_path / "out").exists()


def test_pipeline_hashes_standard_input_redirected_from_a_file(tmp_path, trained_model,
                                                               child_env):
    stream = _one_record_file(tmp_path)
    with open(stream, "rb") as stdin:
        result = _pipeline_child(tmp_path, child_env,
                                 {"input": Path("/dev/stdin"), "model": trained_model},
                                 stdin=stdin)
    assert result.returncode == EXIT_OK, result.stderr
    manifest = json.loads((tmp_path / "out" / MANIFEST_NAME).read_text(encoding="utf-8"))
    assert manifest["inputs"]["input"] == hashlib.sha256(stream.read_bytes()).hexdigest()
    assert manifest["stages"]["filter"]["input_records"] == 1
