"""Diagnostics: the exact lines a run writes to standard error, and a run
whose standard error cannot be written.

Each diagnostic is one ``INFO|WARNING|ERROR message`` line of printable
characters, whatever line breaks or control characters the message holds. A
failed write of one is dropped and never changes the exit code. ``--quiet``
drops the ``INFO`` lines of its own call only.
"""
import errno
import io
import os
import shutil
import subprocess
import sys
import threading
import time
from contextlib import redirect_stderr
from datetime import datetime, timezone

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from outbreakmon.cli import COMMANDS, EXIT_IO, EXIT_OK, main
from outbreakmon.errors import diagnose

from synthdata import DECOY_TEMPLATES, NOISE_TEMPLATES, RELEVANT_TEMPLATES, record_line


def _good(record_id, day, text):
    return record_line(record_id, datetime(2015, 9, day, 12, tzinfo=timezone.utc),
                       text).encode("utf-8")


# One line of each kind a lenient run rejects, between records it keeps.
MIXED_LINES = [
    _good("g1", 5, RELEVANT_TEMPLATES[0]),
    b'{"id":"u","timestamp":"2015-09-05T12:00:00Z","text":"salmonella \xff"}',
    b"not json",
    b"",
    b'{"id":"c","timestamp":"2015-09-05T12:00:00Z","text":"salmonella\tcucumber"}',
    b"[1, 2]",
    b'{"id":"m","timestamp":"2015-09-05T12:00:00Z"}',
    b'{"id":5,"timestamp":"2015-09-05T12:00:00Z","text":"salmonella"}',
    b'{"id":" ","timestamp":"2015-09-05T12:00:00Z","text":"salmonella"}',
    b'{"id":"t","timestamp":"2015-09-05 12:00:00","text":"salmonella"}',
    b'{"id":"d","timestamp":"2015-02-30T12:00:00Z","text":"salmonella"}',
    b'{"id":"e","timestamp":"2015-09-05T12:00:00Z","text":"  "}',
    b'{"id":"s","timestamp":"2015-09-05T12:00:00Z","text":"salmonella \\ud83d"}',
    b'{"x":' + b"[" * 100_000,
    _good("g2", 12, RELEVANT_TEMPLATES[1]),
    _good("g3", 20, DECOY_TEMPLATES[0]),
    _good("g4", 21, NOISE_TEMPLATES[0]),
]

WARNINGS = [
    "WARNING rejected line 2: invalid UTF-8",
    "WARNING rejected line 3: invalid JSON (Expecting value at column 1)",
    "WARNING rejected line 4: invalid JSON (Expecting value at column 1)",
    "WARNING rejected line 5: invalid JSON (Invalid control character at column 64)",
    "WARNING rejected line 6: record is not an object",
    "WARNING rejected line 7: missing field 'text'",
    "WARNING rejected line 8: field 'id' must be a string",
    "WARNING rejected line 9: empty id",
    "WARNING rejected line 10: timestamp '2015-09-05 12:00:00' is not in "
    "YYYY-MM-DDTHH:MM:SSZ form (expected e.g. 2015-09-04T12:00:00Z)",
    "WARNING rejected line 11: timestamp '2015-02-30T12:00:00Z' is not in "
    "YYYY-MM-DDTHH:MM:SSZ form (expected e.g. 2015-09-04T12:00:00Z)",
    "WARNING rejected line 12: empty text",
    "WARNING rejected line 13: field 'text' holds a lone surrogate",
    "WARNING rejected line 14: invalid JSON (nested too deeply)",
]
INFOS = [
    "INFO filter: 4 read (13 rejected lines), 3 kept, 1 dropped -> OUT/filtered.jsonl",
    "INFO classify: 3 read, 2 relevant, 1 irrelevant -> OUT/relevant.jsonl",
    "INFO report: 2 records bucketed into 11 periods (0 excluded past cutoff), "
    "8 daily rows",
    "INFO pipeline complete; manifest -> OUT/manifest.json",
]


def _cli(args, cwd, env, stderr=subprocess.PIPE):
    return subprocess.run([sys.executable, "-m", "outbreakmon.cli", *args], cwd=cwd, env=env,
                          stdout=subprocess.PIPE, stderr=stderr, timeout=120)


@pytest.fixture(scope="module")
def work(tmp_path_factory, trained_model):
    """A directory holding a copy of the trained model and the mixed input."""
    work = tmp_path_factory.mktemp("diagnostics")
    shutil.copyfile(trained_model, work / "model.json")
    (work / "mixed.jsonl").write_bytes(b"".join(line + b"\n" for line in MIXED_LINES))
    return work


def _pipeline(work, out, env, *flags, **run):
    return _cli(["pipeline", "--input", str(work / "mixed.jsonl"),
                 "--model", str(work / "model.json"), "--output", str(out), *flags],
                work, env, **run)


@pytest.mark.parametrize("flags, expected", [([], WARNINGS + INFOS),
                                             (["--quiet"], WARNINGS)],
                         ids=["default", "quiet"])
def test_pipeline_writes_exactly_these_diagnostics(work, tmp_path, child_env, flags, expected):
    out = tmp_path / "out"
    result = _pipeline(work, out, child_env, *flags)
    assert result.returncode == EXIT_OK
    stderr = result.stderr.decode("utf-8").replace(str(out), "OUT")
    assert stderr == "".join(line + "\n" for line in expected)


def test_quiet_drops_the_info_lines_of_its_own_call_only(tmp_path, capsys):
    # A --quiet filter in another thread waits on a FIFO while a plain filter
    # runs to its end in this one.
    good = b"".join(line + b"\n" for line in MIXED_LINES if line.startswith(b'{"id":"g'))
    (tmp_path / "in.jsonl").write_bytes(good)
    fifo = tmp_path / "fifo.jsonl"
    os.mkfifo(fifo)
    codes = []
    quiet = threading.Thread(target=lambda: codes.append(main(
        ["filter", "--input", str(fifo), "--output", str(tmp_path / "A"), "--quiet"])))
    quiet.start()
    deadline = time.monotonic() + 60
    writer = None
    try:
        while writer is None:  # a non-blocking open fails until the quiet call opens the FIFO
            assert quiet.is_alive() and time.monotonic() < deadline
            try:
                writer = os.open(fifo, os.O_WRONLY | os.O_NONBLOCK)
            except OSError as exc:
                assert exc.errno == errno.ENXIO
                time.sleep(0.01)
        assert main(["filter", "--input", str(tmp_path / "in.jsonl"),
                     "--output", str(tmp_path / "B")]) == EXIT_OK
        os.write(writer, good)
    finally:
        if writer is not None:
            os.close(writer)
        quiet.join(timeout=60)
    assert not quiet.is_alive()
    assert codes == [EXIT_OK]
    assert capsys.readouterr().err.replace(str(tmp_path), "T") == (
        "INFO filter: 4 read (0 rejected lines), 3 kept, 1 dropped -> T/B/filtered.jsonl\n")


@given(message=st.text())
@example(message="a\r\nb\vc\fd\x1ce\x1df\x1eg\x85h\u2028i\u2029j\\n")
@example(message="\x1b[2K\ufeff")
def test_a_diagnostic_is_one_line_and_a_printable_message_keeps_its_text(message):
    with redirect_stderr(io.StringIO()) as stream:
        diagnose("WARNING", message)
    line = stream.getvalue()
    assert line.endswith("\n") and len(line.splitlines()) == 1 and line[:-1].isprintable()
    if message.isprintable():
        assert line == f"WARNING {message}\n"


@pytest.mark.parametrize("module", ["logging", "dataclasses", "inspect"])
def test_importing_the_cli_does_not_import(child_env, module):
    result = subprocess.run(
        [sys.executable, "-c",
         f"import sys, outbreakmon.cli; sys.exit({module!r} in sys.modules)"],
        env=child_env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize("sink", ["/dev/full", "closed pipe"])
@pytest.mark.parametrize("unbuffered", [False, True])
@pytest.mark.parametrize("case, expected_code", [("lenient pipeline", EXIT_OK),
                                                 ("missing input", EXIT_IO),
                                                 ("usage error", EXIT_IO)],
                         ids=["pipeline", "missing-input", "usage-error"])
def test_failed_stderr_write_keeps_the_exit_code(work, tmp_path, child_env, case, expected_code,
                                                 unbuffered, sink):
    if sink == "/dev/full":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        stderr = os.open("/dev/full", os.O_WRONLY)
    else:
        read_end, stderr = os.pipe()
        os.close(read_end)
    out = tmp_path / "out"
    env = dict(child_env, PYTHONUNBUFFERED="1") if unbuffered else child_env
    try:
        if case == "lenient pipeline":
            result = _pipeline(work, out, env, stderr=stderr)
        elif case == "missing input":
            result = _cli(["filter", "--input", str(tmp_path / "absent.jsonl"),
                           "--output", str(out)], work, env, stderr=stderr)
        else:
            result = _cli(["no-such-command"], work, env, stderr=stderr)
    finally:
        os.close(stderr)
    assert result.returncode == expected_code
    if case == "lenient pipeline":
        assert sorted(path.name for path in out.iterdir()) == sorted(COMMANDS["pipeline"][2])
        assert result.stdout.startswith(b"period_start,period_end,tweet_count\n")
    else:
        assert not out.exists()
