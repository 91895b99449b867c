"""Fixed reference task that gauges how fast the host runs Python right now.

Usage: ``python3 bench/reference.py``

The benchmark runs this script next to every timed ``outbreakmon`` process
and divides the process's CPU time by the script's. On a shared host the
speed a process gets drifts by tens of percent from second to second and
from minute to minute; the ratio cancels most of that drift. The task uses
only the standard library and none of the program's code, and does the same
kinds of work as the pipeline (JSON parsing and writing, timestamp parsing,
character-level text cleanup, dictionary counting), so a change to the
program moves the ratio and a change of host speed does not. Its output is
one line, a checksum, so that no part of the work can be skipped.
"""
from __future__ import annotations

import json
import random
import zlib
from datetime import datetime, timedelta, timezone

LINES = 6000


def make_lines() -> list[str]:
    rng = random.Random(20150904)
    words = ["".join(rng.choice("bcdfghjklmnprstvwz") + rng.choice("aeiou")
                     for _ in range(rng.randint(2, 4))) for _ in range(2000)]
    start = datetime(2015, 7, 3, tzinfo=timezone.utc)
    return [
        json.dumps({
            "id": str(900_000_000 + i),
            "timestamp": (start + timedelta(seconds=rng.randrange(23_000_000)))
            .strftime("%Y-%m-%dT%H:%M:%SZ"),
            "text": " ".join(rng.choice(words) for _ in range(rng.randint(6, 18))).title()
            + "!",
        }, separators=(",", ":"))
        for i in range(LINES)
    ]


def main() -> int:
    counts: dict[str, int] = {}
    days: dict[str, int] = {}
    checksum = 0
    for line in make_lines():
        obj = json.loads(line)
        stamp = datetime.strptime(obj["timestamp"], "%Y-%m-%dT%H:%M:%SZ")
        day = stamp.replace(tzinfo=timezone.utc).date().isoformat()
        days[day] = days.get(day, 0) + 1
        cleaned = "".join(ch if ch.isalnum() else " " for ch in obj["text"].lower())
        for word in cleaned.split():
            counts[word] = counts.get(word, 0) + 1
        out = json.dumps({"id": obj["id"], "timestamp": obj["timestamp"], "text": cleaned},
                         ensure_ascii=False, separators=(",", ":"))
        checksum = zlib.crc32(out.encode(), checksum)
    print(checksum, len(counts), len(days))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
