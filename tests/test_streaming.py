"""The streaming stages against the materializing ones they replaced, and
``pipeline`` against its three commands run in turn.

``tests/oracles.py`` keeps the old ``filter``/``classify``/``report``, which
parse their whole input into a tuple and write one joined string. Every
``pipeline`` run here is made twice, with the stages of ``cli`` and with
those oracles, and must give the same exit code, standard output, standard
error and output directory, byte for byte.
"""
import contextlib
import io
import json
import shutil
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import oracles
from outbreakmon import cli
from outbreakmon.cli import EXIT_OK, FILTERED_NAME, MANIFEST_NAME, RELEVANT_NAME, main
from outbreakmon.corpus import format_timestamp

from synthdata import DECOY_TEMPLATES, NOISE_TEMPLATES, RELEVANT_TEMPLATES

_BASE = datetime(2015, 8, 20, tzinfo=timezone.utc)
# texts the filter keeps or drops and the model scores either way, plus
# texts that json.dumps escapes (quote, backslash, control characters)
_TEXTS = st.one_of(
    st.sampled_from(RELEVANT_TEMPLATES + DECOY_TEMPLATES + NOISE_TEMPLATES),
    st.sampled_from(['salmonella "recall" \\ today', "cucumbers\tsalmonella\x00",
                     "Salmonella é\U0001f952 cucumbers", "salmonella 2015 2015"]),
)
_MALFORMED = st.sampled_from([
    b"not json",
    b'{"id":"m","timestamp":"2015-09-05T12:00:00Z"}',
    b'{"id":"m","timestamp":"2015-9-5T12:00:00Z","text":"salmonella"}',
    b'{"id":"m","timestamp":"2015-09-05T12:00:00Z","text":"  "}',
    b'{"id":"m","timestamp":"2015-09-05T12:00:00Z","text":"salmonella \xff"}',
    b'{"id":"m","timestamp":"2015-09-05T12:00:00Z","text":"salmonella \\ud83d"}',
    b"[1, 2]",
])


@st.composite
def _streams(draw):
    """Bytes of an input file: records in the compact, json.dumps-default
    or escaped form, malformed lines, records with an unknown field, and
    now and then an id seen before."""
    lines = []
    for i in range(draw(st.integers(0, 25))):
        kind = draw(st.sampled_from(["compact"] * 12 + ["default", "extra", "malformed",
                                                        "duplicate"]))
        if kind == "malformed":
            lines.append(draw(_MALFORMED))
            continue
        record_id = f"t{i}"
        if kind == "duplicate" and i:
            record_id = f"t{draw(st.integers(0, i - 1))}"
        instant = _BASE + timedelta(hours=draw(st.integers(0, 24 * 240)))
        obj = {"id": record_id, "timestamp": format_timestamp(instant), "text": draw(_TEXTS)}
        if kind == "extra":
            obj["retweets"] = 3
        if kind == "default":
            line = json.dumps(obj)
        else:
            line = json.dumps(obj, ensure_ascii=False, separators=(",", ":"))
        lines.append(line.encode("utf-8"))
    ends = [draw(st.sampled_from([b"\n", b"\n", b"\r\n"])) for _ in lines]
    if lines and draw(st.booleans()):
        ends[-1] = b""
    return b"".join(line + end for line, end in zip(lines, ends))


def _run(argv, out):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([*argv, "--output", str(out)])
    files = {}
    if out.exists():
        files = {path.name: path.read_bytes() for path in out.iterdir()}
    return code, stdout.getvalue(), stderr.getvalue().replace(str(out), "OUT"), files


def _materialized_run(argv, out):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "run_filter", oracles.materialized_filter)
        patch.setattr(cli, "run_classify", oracles.materialized_classify)
        patch.setattr(cli, "run_report", oracles.materialized_report)
        return _run(argv, out)


@settings(max_examples=200, deadline=None)
@given(stream=_streams(), strict=st.booleans(), previous=st.booleans(),
       cutoff=st.sampled_from([[], ["--final-cutoff", "2015-10-01"]]))
def test_streaming_pipeline_equals_the_materializing_stages(trained_model, stream, strict,
                                                            previous, cutoff):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        source = work / "stream.jsonl"
        source.write_bytes(stream)
        argv = ["pipeline", "--input", str(source), "--model", str(trained_model), *cutoff]
        if strict:
            argv.append("--strict")
        results = []
        for name, run in (("streaming", _run), ("materialized", _materialized_run)):
            # into a directory that holds a previous run, or a path that
            # does not exist yet, two levels deep
            out = work / name / "out"
            if previous:
                out.mkdir(parents=True)
                for output in cli.COMMANDS["pipeline"][2]:
                    (out / output).write_text(f"previous {output}\n", encoding="utf-8")
            results.append((run(argv, out), (work / name).exists()))
            shutil.rmtree(work / name, ignore_errors=True)
        event(f"exit {results[0][0][0]}")
        assert results[0] == results[1]


def _chained_run(source, model, flags, cutoff, out):
    """``filter``, ``classify`` on its output, then ``report`` on that, into
    one directory, stopping at the first non-zero exit."""
    steps = (["filter", "--input", str(source)],
             ["classify", "--input", str(out / FILTERED_NAME), "--model", str(model)],
             ["report", "--input", str(out / RELEVANT_NAME), *cutoff])
    stdout = stderr = ""
    for argv in steps:
        code, step_stdout, step_stderr, files = _run([*argv, *flags], out)
        stdout += step_stdout
        stderr += step_stderr
        if code != EXIT_OK:
            break
    return code, stdout, stderr, files


@settings(max_examples=100, deadline=None)
@given(stream=_streams(), strict=st.booleans(),
       cutoff=st.sampled_from([[], ["--final-cutoff", "2015-10-01"]]))
def test_pipeline_equals_its_three_commands_chained(trained_model, stream, strict, cutoff):
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        source = work / "stream.jsonl"
        source.write_bytes(stream)
        flags = ["--strict"] if strict else []
        code, stdout, stderr, files = _run(
            ["pipeline", "--input", str(source), "--model", str(trained_model), *cutoff, *flags],
            work / "pipeline")
        chained = _chained_run(source, trained_model, flags, cutoff, work / "chained")
        event(f"exit {code}")
        # pipeline's closing line, which an abort leaves out, and its manifest
        # are the two things the commands run in turn do not make
        closing = f"INFO pipeline complete; manifest -> OUT/{MANIFEST_NAME}\n"
        if code == EXIT_OK:
            assert stderr.endswith(closing)
            stderr = stderr.removesuffix(closing)
        files.pop(MANIFEST_NAME, None)
        assert (code, stdout, stderr, files) == chained
