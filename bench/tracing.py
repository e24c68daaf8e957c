"""Timing of the benchmark's calls into holoheis, and the arithmetic that turns
those timings into metrics: medians, tail percentiles, span self times and
rates.

Pure standard library, so run.py can import it before numpy is loaded (the
thread-count variables must be set first).
"""

from __future__ import annotations

import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# Percentiles tried for a tail figure, highest first. A percentile is only
# reported when at least ten samples lie beyond it, so p75 needs 40 samples.
TAIL_LADDER = (99.9, 99.0, 90.0, 75.0)
TAIL_MIN_BEYOND = 10


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


def _rank(p: float, n: int) -> int:
    """1-based nearest rank of the p-th percentile among n samples; the
    rounding keeps 99.9% of 10000 at rank 9990, not 9991."""
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def nearest_rank(values, p: float) -> float:
    """The p-th percentile by the nearest-rank rule: the smallest sample with
    at least p percent of the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    return float(ordered[_rank(p, len(ordered)) - 1])


def tail_percentile(values):
    """(p, value) for the highest percentile in TAIL_LADDER that leaves at
    least TAIL_MIN_BEYOND samples above its rank, or None when no percentile
    does (fewer than 40 samples): then only the median is a fair summary."""
    n = len(values)
    for p in TAIL_LADDER:
        beyond = n - _rank(p, n)
        if beyond >= TAIL_MIN_BEYOND:
            return p, nearest_rank(values, p)
    return None


def rate(work: float, seconds: float) -> float:
    """Work per second; a rate over no time is undefined, not infinite."""
    if seconds <= 0.0:
        raise ValueError(f"rate over a non-positive time {seconds!r}")
    return work / seconds


@dataclass
class Span:
    """One timed call: name, start and end on the perf_counter clock, the id
    of the enclosing span (None at the top) and the run it belongs to."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run_id: str
    round: int

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of its interval that its direct
    children cover (overlapping children are counted once)."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, []), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = s.duration - covered
    return out


@dataclass
class Round:
    """Per-round totals: busy seconds by span name and work counts by metric
    name. The round's own span is bench.round, so its wall time is the busy
    time under that name."""

    busy: dict[str, float] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return self.busy["bench.round"]


class Recorder:
    """Times every call the benchmark makes into the program.

    Inside a round, each span adds its duration to the round's busy total
    for its name and one call plus its work counts to the round's counts.
    With keep_spans the Span records themselves (with parents) are kept in
    memory as well; that is the traced mode, whose records are written out
    once the run ends.
    """

    def __init__(self, run_id: str, keep_spans: bool):
        self.run_id = run_id
        self.keep_spans = keep_spans
        self.spans: list[Span] = []
        self.rounds: list[Round] = []
        self.durations: dict[str, list[float]] = {}
        self._current: Round | None = None
        self._stack: list[int] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str, **counts):
        """Time the enclosed block under `name`; each count is added to the
        round as `<name>.<key>`."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        round_index = len(self.rounds) - 1 if self._current is not None else -1
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.durations.setdefault(name, []).append(end - start)
            if self._current is not None:
                busy = self._current.busy
                busy[name] = busy.get(name, 0.0) + (end - start)
                self.count(f"{name}.calls", 1)
                for key, value in counts.items():
                    self.count(f"{name}.{key}", value)
            if self.keep_spans:
                self.spans.append(
                    Span(span_id, name, start, end, parent, self.run_id, round_index)
                )

    def count(self, metric: str, value: float):
        """Add work to the current round; outside rounds nothing is counted."""
        if self._current is not None:
            counts = self._current.counts
            counts[metric] = counts.get(metric, 0) + value

    @contextmanager
    def round(self):
        """One round of the workload, itself a span named bench.round."""
        self._current = Round()
        self.rounds.append(self._current)
        try:
            with self.span("bench.round"):
                yield
        finally:
            self._current = None

    def self_busy(self) -> list[dict[str, float]]:
        """Per round, summed self time by span name (traced mode only)."""
        if not self.keep_spans:
            raise RuntimeError("self times need the kept spans")
        selfs = self_times(self.spans)
        out: list[dict[str, float]] = [{} for _ in self.rounds]
        for s in self.spans:
            if s.round >= 0:
                per = out[s.round]
                per[s.name] = per.get(s.name, 0.0) + selfs[s.id]
        return out
