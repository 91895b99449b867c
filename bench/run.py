"""Pipeline benchmark for outbreakmon.

Usage (from the repository root):

    python3 bench/run.py --workload outbreak --seed 1 --seconds 35 --trace 0

Generates the workload's input from the seed, trains a model on the
benchmark's own labeled set, and then spawns ``outbreakmon pipeline``
processes over that input until ``--seconds`` have passed. Every output of
every process is checked byte for byte against the generator's ground truth.
See ``bench/README.md`` for the metrics and workloads.

``--trace 0`` reports the end-to-end metrics, each the median over the
processes of the run; times are CPU times gauged against the fixed task
``bench/reference.py``, run between the timed processes. ``--trace 1``
alternates untraced processes with traced ones (``bench/traced.py``) and
reports the per-layer metrics.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
TRACED = Path(__file__).resolve().parent / "traced.py"
REFERENCE = Path(__file__).resolve().parent / "reference.py"

# Input lines per workload: each pipeline process then takes 1.5-3 s on a
# 2-core machine, so a 35 s run holds about eleven timed processes.
SIZES = {"outbreak": 20_000, "firehose": 20_000, "dirty": 20_000}
CHILD_TIMEOUT_S = 60.0
# CPU seconds that reference.py takes at the typical speed of the 2-vCPU
# shared machine the benchmark was built on. Timed processes are reported in
# these units: their CPU time times REFERENCE_S over the reference's CPU time
# measured beside them (see end_to_end and reference.py).
REFERENCE_S = 0.4

END_TO_END_UNITS = {"records_per_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER_UNITS = {
    "cli.filter_s": "s",
    "cli.classify_s": "s",
    "cli.report_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "corpus.load_s": "s",
    "corpus.parse_calls_per_line": "calls/line",
    "corpus.timestamp_us": "us",
    "corpus.serialize_s": "s",
    "corpus.rejected": "count",
    "corpus.log_bytes": "bytes",
    "keywords.filter_s": "s",
    "keywords.normalize_calls_per_record": "calls/record",
    "keywords.kept_ratio": "ratio",
    "vectorizer.vectorize_s": "s",
    "vectorizer.entries_per_record": "entries/record",
    "svm.score_s": "s",
    "svm.relevant_ratio": "ratio",
    "svm.load_s": "s",
    "timeline.bucket_s": "s",
    "timeline.daily_s": "s",
    "trace.overhead_share": "ratio",
}


@dataclass(frozen=True)
class Child:
    """One finished process: wall time from spawn to exit, its own CPU time
    (user + system), exit code, peak RSS."""

    wall_s: float
    cpu_s: float
    exit_code: int
    peak_rss_mb: float


def spawn(argv: list[str], stdout: Path, stderr: Path) -> Child:
    """Run ``argv`` with the package on the path; rusage is this child's own."""
    # One BLAS thread: the pipeline does no dense linear algebra, and idle
    # BLAS workers would add their start-up to the child's CPU time.
    env = dict(os.environ, PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    # Cache bytecode as an installed tool does, whatever the caller's setting,
    # so the warm-up leaves compiled modules for the timed processes.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    actions = [
        (os.POSIX_SPAWN_OPEN, 1, str(stdout), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, str(stderr), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env, file_actions=actions)
    reaped = False
    watchdog = threading.Timer(CHILD_TIMEOUT_S, os.kill, (pid, signal.SIGKILL))
    watchdog.start()
    try:
        _, status, usage = os.wait4(pid, 0)
        reaped = True
    finally:
        watchdog.cancel()
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
    wall = time.perf_counter() - start
    return Child(wall, usage.ru_utime + usage.ru_stime, os.waitstatus_to_exitcode(status),
                 usage.ru_maxrss / 1024)


class Run:
    """Inputs, ground truth and checked pipeline processes of one workload."""

    def __init__(self, workload: str, seed: int, work: Path):
        self.work = work
        self.lines = workloads.generate(workload, SIZES[workload], seed)
        self.input = work / "input.jsonl"
        self.empty = work / "empty.jsonl"
        self.model = work / "model.json"
        self.input.write_text("".join(line.text + "\n" for line in self.lines), encoding="utf-8")
        self.empty.write_text("", encoding="utf-8")
        labeled = work / "labeled.jsonl"
        labeled.write_text("".join(line + "\n" for line in workloads.labeled_lines()),
                           encoding="utf-8")
        trained = spawn(["-m", "outbreakmon.cli", "train", "--labeled", str(labeled),
                         "--model", str(self.model)], work / "train.out", work / "train.err")
        if trained.exit_code != 0:
            raise RuntimeError(f"training failed with exit code {trained.exit_code}: "
                               + (work / "train.err").read_text(errors="replace")[-2000:])
        self.expected = {self.input: workloads.expected(self.lines),
                         self.empty: workloads.expected([])}
        self.attempted = 0
        self.failures: list[str] = []
        self.serial = 0
        self.notes: list[str] = []  # printed as "#" lines with the result
        self._reference_output: bytes | None = None

    def reference(self) -> float:
        """Run ``reference.py`` once; its CPU seconds. Every run of it must
        print the same checksum, or the gauge itself is broken."""
        out = self.work / "reference.out"
        child = spawn([str(REFERENCE)], out, self.work / "reference.err")
        output = out.read_bytes()
        if self._reference_output is None:
            self._reference_output = output
        if child.exit_code != 0 or not output or output != self._reference_output:
            raise RuntimeError(f"reference.py failed (exit code {child.exit_code}, "
                               f"output {output[:200]!r})")
        return child.cpu_s

    def pipeline(self, source: Path, traced: bool = False) -> tuple[Child, Path]:
        """Spawn one ``pipeline`` process over ``source`` into a fresh output
        directory and check all of its outputs. Returns the child and the
        output directory, which also holds ``stdout``, ``stderr`` and, when
        traced, ``stats.json``, until the next call replaces it. (Removing
        each run's outputs before the kernel writes them back keeps disk
        writeback out of the timed processes.)"""
        self.serial += 1
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        command = ["pipeline", "--input", str(source), "--model", str(self.model),
                   "--output", str(out)]
        prefix = [str(TRACED), str(out / "stats.json")] if traced else ["-m", "outbreakmon.cli"]
        child = spawn(prefix + command, out / "stdout", out / "stderr")
        self.attempted += 1
        problems = check(out, child, self.expected[source])
        if problems:
            self.failures.append(f"{source.name} run {self.serial}: " + "; ".join(problems))
        return child, out


def check(out: Path, child: Child, want: workloads.Expected) -> list[str]:
    """Every way the process's outputs differ from the ground truth."""
    if child.exit_code != 0:
        return [f"exit code {child.exit_code}"]
    problems = []
    for name, data in want.files.items():
        path = out / name
        if not path.is_file():
            problems.append(f"{name} missing")
        elif path.read_bytes() != data:
            problems.append(f"{name} differs")
    if (out / "stdout").read_bytes() != want.stdout:
        problems.append("standard output differs")
    try:
        stages = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["stages"]
        for key, count in want.counts.items():
            stage, field = key.split(".")
            if stages[stage][field] != count:
                problems.append(f"manifest {key} = {stages[stage][field]}, expected {count}")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        problems.append(f"manifest unreadable: {exc!r}")
    return problems


def end_to_end(run: Run, seconds: float) -> dict[str, float]:
    """Workload, set-up and reference processes in turn until ``seconds``
    have passed. Each workload and set-up process is measured in CPU time
    relative to the mean of the reference processes just before and just
    after it, then scaled by ``REFERENCE_S`` back to seconds."""
    rates, setups, raw_rates, raw_setups, refs = [], [], [], [], [run.reference()]
    children = []
    deadline = time.perf_counter() + seconds
    while not children or time.perf_counter() < deadline:
        child = run.pipeline(run.input)[0]
        setup = run.pipeline(run.empty)[0]
        refs.append(run.reference())
        scale = REFERENCE_S / ((refs[-2] + refs[-1]) / 2)
        children.append(child)
        rates.append(len(run.lines) / (child.cpu_s * scale))
        setups.append(setup.cpu_s * scale)
        raw_rates.append(len(run.lines) / child.wall_s)
        raw_setups.append(setup.wall_s)
    run.notes += [
        f"processes {len(children)} workload + {len(setups)} set-up + {len(refs)} reference",
        f"reference_cpu_s {statistics.median(refs):.6g} s (median; REFERENCE_S {REFERENCE_S})",
        f"wall records_per_s {statistics.median(raw_rates):.6g} 1/s (median, unscaled)",
        f"wall setup_s {statistics.median(raw_setups):.6g} s (median, unscaled)",
    ]
    return {
        "records_per_s": statistics.median(rates),
        "peak_rss_mb": statistics.median(c.peak_rss_mb for c in children),
        "setup_s": statistics.median(setups),
    }


def per_layer(run: Run, seconds: float) -> dict[str, float]:
    samples: list[dict[str, float]] = []
    deadline = time.perf_counter() + seconds
    while True:
        plain, plain_out = run.pipeline(run.input)
        log_bytes = (plain_out / "stderr").stat().st_size
        traced, traced_out = run.pipeline(run.input, traced=True)
        try:
            stats = json.loads((traced_out / "stats.json").read_text(encoding="utf-8"))
        except (OSError, ValueError):
            stats = None  # the traced process failed; check() has counted it
        if stats is not None:
            sample = layer_metrics(stats, len(run.lines), traced_out)
            sample["corpus.log_bytes"] = log_bytes
            sample["trace.overhead_share"] = (traced.wall_s - plain.wall_s) / plain.wall_s
            samples.append(sample)
        if time.perf_counter() >= deadline:
            break
    if not samples:
        return {}
    return {name: statistics.median(s[name] for s in samples) for name in samples[0]}


def layer_metrics(stats: dict, lines: int, out: Path) -> dict[str, float]:
    """Per-layer metrics of one traced process (see traced.py for ``stats``)."""
    def stat(name: str) -> dict:
        return stats.get(name, {"calls": 0, "errors": 0, "total_s": 0.0, "self_s": 0.0,
                                "observed": []})

    def per(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    filtered = stat("keywords.filter_corpus")["observed"] or [0, 0]
    stamps = stat("corpus.parse_timestamp")
    vectors = stat("vectorizer.vectorize")
    scores = stat("svm.predict")
    written = sum(p.stat().st_size for p in out.iterdir()
                  if p.is_file() and p.name not in ("stdout", "stderr", "stats.json"))
    return {
        "cli.filter_s": stat("cli.run_filter")["total_s"],
        "cli.classify_s": stat("cli.run_classify")["total_s"],
        "cli.report_s": stat("cli.run_report")["total_s"],
        "cli.self_s": sum(s["self_s"] for name, s in stats.items() if name.startswith("cli.")),
        "cli.bytes_written": written,
        "corpus.load_s": stat("corpus.load_corpus")["total_s"],
        "corpus.parse_calls_per_line": per(stat("corpus.parse_tweet_line")["calls"], lines),
        "corpus.timestamp_us": per(stamps["total_s"] * 1e6, stamps["calls"]),
        "corpus.serialize_s": stat("corpus.to_line")["total_s"],
        "corpus.rejected": stat("corpus.parse_tweet_line")["errors"],
        "keywords.filter_s": stat("keywords.filter_corpus")["total_s"],
        "keywords.normalize_calls_per_record": per(stat("keywords.normalize_text")["calls"],
                                                   filtered[0]),
        "keywords.kept_ratio": per(filtered[1], filtered[0]),
        "vectorizer.vectorize_s": vectors["total_s"],
        "vectorizer.entries_per_record": per((vectors["observed"] or [0])[0], vectors["calls"]),
        "svm.score_s": scores["total_s"],
        "svm.relevant_ratio": per((scores["observed"] or [0])[0], scores["calls"]),
        "svm.load_s": stat("svm.load_model")["total_s"],
        "timeline.bucket_s": stat("timeline.bucket_counts")["total_s"],
        "timeline.daily_s": stat("timeline.daily_frequency")["total_s"],
    }


def environment(workload: str, seed: int) -> dict:
    """What the result was measured on; printed with every result."""
    rev = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
                                 capture_output=True, text=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "outbreakmon").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "not installed"
    return {
        "workload": workload,
        "seed": seed,
        "lines": SIZES[workload],
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
    }


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "outbreakmon" / "cli.py").is_file():
        print(f"error: no outbreakmon sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    signal.signal(signal.SIGTERM, _terminate)

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = Run(args.workload, args.seed, work)
        run.pipeline(run.input)  # discarded warm-up: bytecode and page cache
        if args.trace:
            values, units = per_layer(run, args.seconds), PER_LAYER_UNITS
        else:
            values, units = end_to_end(run, args.seconds), END_TO_END_UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()  # only when no other run is using it
        except OSError:
            pass

    print("# env " + json.dumps(environment(args.workload, args.seed), sort_keys=True))
    for note in run.notes:
        print(f"# {note}")
    for failure in run.failures:
        print(f"# FAILED {failure}")
    print(f"# failed_share {len(run.failures) / run.attempted:.6g} ratio "
          f"({len(run.failures)} of {run.attempted} pipeline runs)")
    for name, unit in units.items():
        if name in values:
            print(f"# {name} {values[name]:.6g} {unit}")
    result = {
        "correct": not run.failures and set(values) == set(units),
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items() if name in values},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
