"""Stop signals. A run stopped by SIGINT, SIGTERM or SIGHUP cleans up as a
failed run does, writes one ``ERROR stopped by <SIGNAME>`` line and ends by
that signal; a signal the process ignores stays ignored. On every path that
returns, ``main`` puts back the handlers it found.

Each subprocess run reads its ``--input`` from a FIFO, so it is stopped at a
known point: its temporary output file exists and it waits for more input.
"""
import errno
import os
import signal
import subprocess
import sys
import threading
import time
from datetime import datetime, timedelta, timezone

import pytest

from outbreakmon.cli import (
    EXIT_IO,
    EXIT_MODEL,
    EXIT_OK,
    EXIT_PARSE,
    FILTERED_NAME,
    STOP_SIGNALS,
    main,
)

from synthdata import record_line

LINES = "".join(
    record_line(f"r{n}", datetime(2015, 9, 5, tzinfo=timezone.utc) + timedelta(minutes=n),
                "salmonella") + "\n"
    for n in range(100))

# os.unlink, which removes the temporary file, first raises a second signal
SECOND_SIGNAL_IN_CLEANUP = """
import os, signal, sys
from outbreakmon import cli
unlink = os.unlink
def unlink_after_a_signal(path):
    signal.raise_signal(signal.SIGINT)
    unlink(path)
os.unlink = unlink_after_a_signal
sys.exit(cli.main(sys.argv[1:]))
"""


def _start_with(ignored):
    """A child's pre-exec hook: each stop signal starts ignored if it is in
    ``ignored`` and at SIG_DFL if not, as from a terminal, whatever this
    process has (a shell starts a background job with SIGINT ignored)."""
    def reset():
        for signum in STOP_SIGNALS:
            signal.signal(signum, signal.SIG_IGN if signum in ignored else signal.SIG_DFL)
    return reset


def _filter_then_signal(tmp_path, env, signum, code=("-m", "outbreakmon.cli"), ignored=()):
    """Run ``filter`` with its input on a FIFO, write LINES to it, wait until
    the temporary output file exists, send ``signum`` and then close the
    FIFO; returns the finished child and its stdout and stderr."""
    fifo = tmp_path / "in.jsonl"
    os.mkfifo(fifo)
    child = subprocess.Popen(
        [sys.executable, *code, "filter", "--input", str(fifo),
         "--output", str(tmp_path / "out")],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, preexec_fn=_start_with(ignored))
    deadline = time.monotonic() + 60
    writer = None
    try:
        while writer is None:  # a non-blocking open fails until the child opens the FIFO
            assert child.poll() is None and time.monotonic() < deadline
            try:
                writer = os.open(fifo, os.O_WRONLY | os.O_NONBLOCK)
            except OSError as exc:
                assert exc.errno == errno.ENXIO
                time.sleep(0.01)
        os.write(writer, LINES.encode("utf-8"))
        while not list((tmp_path / "out").glob("*.tmp")):
            assert child.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        child.send_signal(signum)
        os.close(writer)
        writer = None
        out, err = child.communicate(timeout=60)
    finally:
        if writer is not None:
            os.close(writer)
        if child.poll() is None:
            child.kill()
            child.wait()
    return child, out.decode("utf-8"), err.decode("utf-8")


@pytest.mark.parametrize("previous", [False, True], ids=["new-directory", "previous-run"])
@pytest.mark.parametrize("signum", STOP_SIGNALS, ids=lambda signum: signum.name)
def test_a_stop_signal_cleans_up_and_ends_the_run_by_that_signal(tmp_path, child_env, signum,
                                                                 previous):
    out = tmp_path / "out"
    if previous:
        earlier = tmp_path / "earlier.jsonl"
        earlier.write_text(LINES[:LINES.index("\n") + 1], encoding="utf-8")
        assert main(["filter", "--input", str(earlier), "--output", str(out), "--quiet"]) \
            == EXIT_OK
        before = (out / FILTERED_NAME).read_bytes()
    child, stdout, stderr = _filter_then_signal(tmp_path, child_env, signum)
    assert (child.returncode, stdout, stderr) \
        == (-signum, "", f"ERROR stopped by {signum.name}\n")
    assert list(tmp_path.rglob("*.tmp")) == []
    if previous:
        assert [path.name for path in out.iterdir()] == [FILTERED_NAME]
        assert (out / FILTERED_NAME).read_bytes() == before
    else:
        assert not out.exists()


def test_a_second_signal_does_not_interrupt_the_cleanup(tmp_path, child_env):
    child, stdout, stderr = _filter_then_signal(tmp_path, child_env, signal.SIGTERM,
                                                code=("-c", SECOND_SIGNAL_IN_CLEANUP))
    assert (child.returncode, stdout, stderr) \
        == (-signal.SIGTERM, "", "ERROR stopped by SIGTERM\n")
    assert list(tmp_path.rglob("*.tmp")) == []
    assert not (tmp_path / "out").exists()


def test_an_ignored_stop_signal_stays_ignored(tmp_path, child_env):
    # as under nohup, which starts the run with SIGHUP ignored
    child, stdout, stderr = _filter_then_signal(tmp_path, child_env, signal.SIGHUP,
                                                ignored=(signal.SIGHUP,))
    assert (child.returncode, stdout) == (EXIT_OK, "")
    assert stderr.startswith("INFO filter: 100 read (0 rejected lines), 100 kept")
    assert (tmp_path / "out" / FILTERED_NAME).read_text(encoding="utf-8") == LINES


@pytest.mark.parametrize("case, code", [("kept", EXIT_OK), ("missing-input", EXIT_IO),
                                        ("strict-malformed-line", EXIT_PARSE),
                                        ("corrupt-model", EXIT_MODEL)])
def test_main_puts_back_the_handlers_it_found(tmp_path, capsys, case, code):
    stream = tmp_path / "s.jsonl"
    stream.write_text(LINES + "{broken\n", encoding="utf-8")
    (tmp_path / "m.json").write_text("not a model", encoding="utf-8")
    argv = {
        "kept": ["filter", "--input", str(stream)],
        "missing-input": ["filter", "--input", str(tmp_path / "absent.jsonl")],
        "strict-malformed-line": ["filter", "--input", str(stream), "--strict"],
        "corrupt-model": ["classify", "--input", str(stream),
                          "--model", str(tmp_path / "m.json")],
    }[case]
    # one of each kind of handler, none of them one that main installs
    before = dict(zip(STOP_SIGNALS, (lambda signum, frame: None, signal.SIG_DFL, signal.SIG_IGN)))
    found = {signum: signal.signal(signum, handler) for signum, handler in before.items()}
    try:
        assert main([*argv, "--output", str(tmp_path / "o"), "--quiet"]) == code
        assert {signum: signal.getsignal(signum) for signum in STOP_SIGNALS} == before
    finally:
        for signum, handler in found.items():
            signal.signal(signum, handler)


def test_main_runs_outside_the_main_thread(tmp_path, capsys):
    # only the main thread may set a signal handler; main sets none elsewhere
    stream = tmp_path / "s.jsonl"
    stream.write_text(LINES, encoding="utf-8")
    codes = []
    thread = threading.Thread(target=lambda: codes.append(
        main(["filter", "--input", str(stream), "--output", str(tmp_path / "o"), "--quiet"])))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert codes == [EXIT_OK]
