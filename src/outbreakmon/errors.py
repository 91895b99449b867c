"""Exception types raised across the pipeline, and the writer of the
diagnostics that report them.

Each class maps to one CLI exit code (see ``outbreakmon.cli``).
"""
import json
import os
import sys
from contextlib import suppress


class ParseError(Exception):
    """An input line or file could not be parsed.

    Carries the offending line number (1-based) when known, so batch loaders
    can point at the exact record.
    """

    def __init__(self, reason: str, line_no: int | None = None):
        self.line_no = line_no
        prefix = f"line {line_no}: " if line_no is not None else ""
        super().__init__(f"{prefix}{reason}")


class TrainingDataError(Exception):
    """Labeled data unusable for training (empty set, single class)."""


class ModelFileError(Exception):
    """Model file is corrupt, wrong version, or internally inconsistent."""


class TimelineError(Exception):
    """Event timeline is malformed or fails validation."""


def json_fault(exc: ValueError | RecursionError, *, lines: bool = False) -> str:
    """Why ``json.loads`` refused a text, with where for a JSONDecodeError:
    its column, and its line too with ``lines``."""
    if isinstance(exc, RecursionError):
        return "nested too deeply"
    if not isinstance(exc, json.JSONDecodeError):  # int() refused a long literal
        return f"integer of more than {sys.get_int_max_str_digits()} digits"
    where = f"line {exc.lineno} column {exc.colno}" if lines else f"column {exc.colno}"
    # some messages end in a bare "at" ("Invalid control character at")
    return f"{exc.msg.removesuffix(' at')} at {where}"


def to_null_device(fd: int) -> None:
    """Point file descriptor ``fd`` at the null device, so that no later
    write to it can fail, the interpreter's final flush of what a failed
    write left in its buffer included. If even that fails, ``fd`` is left
    as it was."""
    with suppress(OSError):
        null = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(null, fd)
        finally:
            os.close(null)


def diagnose(level: str, message: str) -> None:
    """One diagnostic line, ``INFO``, ``WARNING`` or ``ERROR`` and then
    ``message``, on ``sys.stderr`` as it is now. Each character of
    ``message`` that is not printable (input text can hold a line break, an
    ESC or a byte-order mark) is written as its Python escape, so the
    diagnostic stays one line and moves no terminal cursor. A diagnostic never
    changes how a run ends: with no standard error, or when the write fails,
    the line is dropped and fd 2 is pointed at the null device."""
    if not message.isprintable():
        message = "".join(char if char.isprintable() else char.encode("unicode_escape").decode()
                          for char in message)
    stream = sys.stderr
    if stream is not None:
        try:
            stream.write(f"{level} {message}\n")
            return
        except (OSError, ValueError):  # ValueError: a closed stream
            pass
    to_null_device(2)
