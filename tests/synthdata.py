"""Deterministic synthetic datasets shared by the unit and acceptance tests.

The reported per-period counts of the built-in CDC timeline are frozen here
so a replay corpus can be laid out with exactly those many timestamps per
inter-announcement window.
"""
from __future__ import annotations

import json
import random
from datetime import date, datetime, timedelta, timezone

from outbreakmon.corpus import TweetRecord, format_timestamp

# Tweet counts per period of the built-in timeline: pre-period first, then one
# count per announcement window, final window capped at 2016-03-31.
TABLE_COUNTS = (442, 18006, 9425, 1531, 4130, 533, 2047, 639, 1359, 1582, 349)

ANNOUNCEMENT_DATES = (
    date(2015, 9, 4),
    date(2015, 9, 9),
    date(2015, 9, 15),
    date(2015, 9, 22),
    date(2015, 9, 29),
    date(2015, 10, 6),
    date(2015, 10, 14),
    date(2015, 11, 19),
    date(2016, 1, 26),
    date(2016, 3, 18),
)

# (previous cumulative, newly reported, cumulative) per announcement after the
# first; every adjacent pair in the timeline must satisfy prev + new == cum.
CUMULATIVE_STEPS = (
    (285, 56, 341),
    (341, 77, 418),
    (418, 140, 558),
    (558, 113, 671),
    (671, 61, 732),
    (732, 35, 767),
    (767, 71, 838),
    (838, 50, 888),
    (888, 19, 907),
)

RELEVANT_TEMPLATES = (
    "salmonella outbreak traced to cucumbers recall widens",
    "cdc links salmonella poona infections to imported cucumbers",
    "more illnesses reported in salmonella cucumber outbreak",
    "contaminated cucumbers recalled after salmonella infections",
    "salmonella warning stores pull mexican cucumbers from shelves",
    "health officials confirm salmonella cases tied to cucumber shipments",
    "fat boy brand cucumbers recalled over salmonella contamination",
    "salmonella sickens hundreds cucumber recall expands to more states",
)

DECOY_TEMPLATES = (
    "salmonella jokes aside this party needs better snacks",
    "calling my fantasy team salmonella because it makes everyone sick",
    "that salmonella meme is still the funniest thing online",
    "salmonella is my new band name no cucumbers were harmed",
    "why does autocorrect keep typing salmonella instead of salmon",
    "quiz which salmonella headline are you lol",
)

NOISE_TEMPLATES = (
    "great sunset at the beach tonight",
    "traffic on the highway is terrible again",
    "new album drops friday so excited",
    "homework due tomorrow and the printer died",
    "pizza night with friends best plan ever",
    "puppy learned a new trick today",
)


def _utc(day: date, seconds: int) -> datetime:
    return datetime(day.year, day.month, day.day, tzinfo=timezone.utc) + timedelta(
        seconds=seconds
    )


def spread_instants(start: datetime, end: datetime, count: int) -> list[datetime]:
    """Evenly place `count` instants in [start, end), second resolution."""
    if count == 0:
        return []
    total = int((end - start).total_seconds())
    step = max(total // count, 1)
    return [start + timedelta(seconds=(i * step) % total) for i in range(count)]


def table_replay_records(prefix: str = "rp") -> list[TweetRecord]:
    """A corpus whose period bucket counts reproduce TABLE_COUNTS exactly."""
    windows = [(_utc(date(2015, 7, 3), 0), _utc(ANNOUNCEMENT_DATES[0], 0))]
    for k, start_day in enumerate(ANNOUNCEMENT_DATES):
        if k + 1 < len(ANNOUNCEMENT_DATES):
            end = _utc(ANNOUNCEMENT_DATES[k + 1], 0)
        else:
            end = _utc(date(2016, 4, 1), 0)  # final window runs through March 31
        windows.append((_utc(start_day, 0), end))
    records = []
    serial = 0
    for (start, end), count in zip(windows, TABLE_COUNTS):
        for instant in spread_instants(start, end, count):
            records.append(
                TweetRecord(
                    id=f"{prefix}{serial}",
                    timestamp=instant,
                    text=RELEVANT_TEMPLATES[serial % len(RELEVANT_TEMPLATES)],
                )
            )
            serial += 1
    return records


def record_line(record_id: str, instant: datetime, text: str, label: int | None = None) -> str:
    obj = {"id": record_id, "timestamp": format_timestamp(instant), "text": text}
    if label is not None:
        obj["label"] = label
    return json.dumps(obj, ensure_ascii=False, separators=(",", ":"))


def labeled_lines(n_positive: int = 100, n_negative: int = 100) -> list[str]:
    """A separable labeled set: relevant templates vs salmonella decoys."""
    base = _utc(date(2015, 9, 5), 0)
    lines = []
    for i in range(n_positive):
        lines.append(
            record_line(
                f"pos{i}", base + timedelta(minutes=i),
                RELEVANT_TEMPLATES[i % len(RELEVANT_TEMPLATES)], label=1,
            )
        )
    for i in range(n_negative):
        lines.append(
            record_line(
                f"neg{i}", base + timedelta(minutes=i, seconds=30),
                DECOY_TEMPLATES[i % len(DECOY_TEMPLATES)], label=-1,
            )
        )
    return lines


def stream_lines(total: int, seed: int = 1337) -> list[str]:
    """A mixed raw stream: relevant, keyword-matching decoys, and noise.

    Timestamps walk deterministically through September 2015; the mix is a
    seeded shuffle so the file order is stable across runs.
    """
    rng = random.Random(seed)
    start = _utc(date(2015, 9, 1), 0)
    lines = []
    for i in range(total):
        roll = rng.random()
        if roll < 0.5:
            text = RELEVANT_TEMPLATES[i % len(RELEVANT_TEMPLATES)]
        elif roll < 0.7:
            text = DECOY_TEMPLATES[i % len(DECOY_TEMPLATES)]
        else:
            text = NOISE_TEMPLATES[i % len(NOISE_TEMPLATES)]
        # large prime stride so even short streams spread over the 50-day window
        instant = start + timedelta(seconds=(i * 200_003) % (50 * 86400))
        lines.append(record_line(f"s{i}", instant, text))
    return lines


if __name__ == "__main__":
    # python tests/synthdata.py DIR: write DIR/labeled.jsonl and DIR/stream.jsonl
    import sys
    from pathlib import Path

    for name, lines in (("labeled", labeled_lines(30, 30)), ("stream", stream_lines(500))):
        Path(sys.argv[1], f"{name}.jsonl").write_text(
            "".join(line + "\n" for line in lines), encoding="utf-8")
