"""Run one ``outbreakmon`` command in-process with its layer calls wrapped.

Usage: ``PYTHONPATH=src python3 bench/traced.py STATS_JSON COMMAND [ARGS...]``

Every function that ``cli`` imports from another module of the package is
wrapped where ``cli`` looks it up, and so are the four ``cli`` stage
functions and the per-record functions that other modules call internally
(``parse_tweet_line``, ``parse_timestamp``, ``normalize_text``,
``TweetRecord.to_line``). Each wrapper adds to a count and a total time,
plus the time not spent in nested wrapped calls (self time); no per-call
spans are kept. The totals are written to STATS_JSON as
``{"module.function": {"calls", "errors", "total_s", "self_s", "observed"}}``
and the process exits with the command's own exit code.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time

from outbreakmon import cli, corpus, keywords

# Values summed per call from (args, result), for the ratio metrics.
OBSERVERS = {
    "keywords.filter_corpus": lambda args, result: (len(args[0]), len(result)),
    "vectorizer.vectorize": lambda args, result: (len(result),),
    "svm.predict": lambda args, result: (int(result == 1),),
}


class Tracer:
    """Per-function counters, with a stack of child times for self time."""

    def __init__(self):
        self.stats: dict[str, dict] = {}
        self._child_time = [0.0]

    def wrap(self, name: str, fn):
        stat = self.stats.setdefault(
            name, {"calls": 0, "errors": 0, "total_s": 0.0, "self_s": 0.0, "observed": []})
        observe = OBSERVERS.get(name)
        stack = self._child_time
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                stat["errors"] += 1
                raise
            finally:
                elapsed = clock() - start
                stat["calls"] += 1
                stat["total_s"] += elapsed
                stat["self_s"] += elapsed - stack.pop()
                stack[-1] += elapsed
            if observe is not None:
                values = observe(args, result)
                totals = stat["observed"] or [0] * len(values)
                stat["observed"] = [t + v for t, v in zip(totals, values)]
            return result

        return wrapper

    def install(self) -> None:
        for module, name in ((corpus, "parse_tweet_line"), (corpus, "parse_timestamp"),
                             (keywords, "normalize_text")):
            setattr(module, name, self.wrap(f"{_layer(module.__name__)}.{name}",
                                            getattr(module, name)))
        record = corpus.TweetRecord
        record.to_line = self.wrap("corpus.to_line", record.to_line)
        for name, obj in list(vars(cli).items()):
            owner = getattr(obj, "__module__", "") or ""
            if (inspect.isfunction(obj) and owner.startswith("outbreakmon.")
                    and owner != cli.__name__):
                setattr(cli, name, self.wrap(f"{_layer(owner)}.{name}", obj))
        for name in ("run_pipeline", "run_filter", "run_classify", "run_report"):
            setattr(cli, name, self.wrap(f"cli.{name}", getattr(cli, name)))


def _layer(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    stats_path, command = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    code = cli.main(command)
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.stats, fh, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
