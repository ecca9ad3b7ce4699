"""Pure arithmetic behind the benchmark: percentiles, spreads, span self
times, the open-loop saturation rule and failure accounting.

Nothing here imports the program under test, so the rules can be tested
on synthetic inputs (see ``perfbench/tests``).
"""

from __future__ import annotations

import re
import statistics
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
_UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")


def valid_metric_name(name: str) -> bool:
    """A name starts with a letter or digit and uses only ``[A-Za-z0-9_.-]``
    (at most 64 characters)."""
    return isinstance(name, str) and bool(_NAME.match(name))


def valid_unit(unit: str) -> bool:
    return isinstance(unit, str) and bool(_UNIT.match(unit))


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default), ``q`` in [0, 100]."""
    if not values:
        raise ValueError("percentile of an empty sequence")
    ordered = sorted(float(v) for v in values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    if rank == low or ordered[high] == ordered[low]:
        return ordered[low]
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def relative_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance over the median, as the acceptance check
    computes it (``statistics.quantiles(values, n=4)``)."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


# --------------------------------------------------------------- span math
@dataclass
class Span:
    """One recorded interval: ``parent`` is the id of the span that
    caused it (``None`` for a root); ``run`` is the id shared by every
    span of one run or request."""

    id: int
    name: str
    start: float
    end: float
    parent: Optional[int] = None
    run: str = ""
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(intervals: Iterable[Tuple[float, float]],
             lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, cursor = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans: Sequence[Span],
               keep: Optional[Iterable[str]] = None) -> Dict[int, float]:
    """Self time per span id: its duration minus the part of its interval
    covered by its children.

    With ``keep``, only spans whose name is in ``keep`` take part: each
    kept span's parent becomes its nearest kept ancestor, so a stage's
    self time subtracts nested stages but not the finer layers inside
    it.
    """
    by_id = {s.id: s for s in spans}
    kept = {s.id for s in spans if keep is None or s.name in set(keep)}

    def kept_parent(span: Span) -> Optional[int]:
        parent = span.parent
        while parent is not None and parent not in kept:
            ancestor = by_id.get(parent)
            parent = ancestor.parent if ancestor is not None else None
        return parent

    children: Dict[int, List[Tuple[float, float]]] = {i: [] for i in kept}
    for span_id in kept:
        parent = kept_parent(by_id[span_id])
        if parent is not None:
            span = by_id[span_id]
            children[parent].append((span.start, span.end))
    return {
        i: by_id[i].duration - _covered(children[i], by_id[i].start,
                                        by_id[i].end)
        for i in kept
    }


def self_time_by_name(spans: Sequence[Span],
                      keep: Optional[Iterable[str]] = None) -> Dict[str, float]:
    """Summed self time per span name (see :func:`self_times`)."""
    by_id = {s.id: s for s in spans}
    totals: Dict[str, float] = {}
    for span_id, value in self_times(spans, keep).items():
        name = by_id[span_id].name
        totals[name] = totals.get(name, 0.0) + value
    return totals


# ------------------------------------------------------ open-loop ladders
def in_flight(sends: Sequence[float], completions: Sequence[float],
              at: float) -> int:
    """Requests sent by ``at`` and not yet complete at ``at``."""
    sent = sum(1 for t in sends if t <= at)
    done = sum(1 for t in completions if t <= at)
    return sent - done


def busy_seconds(sends: Sequence[float],
                 completions: Sequence[float]) -> float:
    """Time with at least one request in flight: the length of the union
    of the ``[send, completion]`` intervals of completed requests."""
    intervals = [(s, c) for s, c in zip(sends, completions)
                 if c != float("inf")]
    if not intervals:
        return 0.0
    return _covered(intervals, min(s for s, _ in intervals),
                    max(c for _, c in intervals))


def backlog_grows(sends: Sequence[float], completions: Sequence[float],
                  window_end: float, rate_rps: float,
                  tolerance: float = 0.05, samples: int = 20) -> bool:
    """Whether the backlog grows over the second half of a step.

    The in-flight count is sampled at ``samples`` evenly spaced times
    over ``[window_end / 2, window_end]`` (times relative to the step
    start) and a least-squares slope fitted.  The backlog grows when
    requests accumulate faster than ``tolerance`` of the offered rate.
    ``completions`` of requests that never completed are ``inf``.
    """
    lo = window_end / 2.0
    times = [lo + (window_end - lo) * i / (samples - 1) for i in range(samples)]
    counts = [in_flight(sends, completions, t) for t in times]
    mean_t = sum(times) / len(times)
    mean_c = sum(counts) / len(counts)
    var = sum((t - mean_t) ** 2 for t in times)
    slope = sum((t - mean_t) * (c - mean_c)
                for t, c in zip(times, counts)) / var
    return slope > tolerance * rate_rps


@dataclass
class StepOutcome:
    """Summary of one ladder step."""

    rate_rps: float
    p90_ms: float
    backlog_grew: bool
    failed: int = 0

    def sustained(self, limit_ms: float) -> bool:
        return (not self.backlog_grew and self.failed == 0
                and self.p90_ms <= limit_ms)


def max_sustained_rate(steps: Sequence[StepOutcome], limit_ms: float) -> float:
    """Highest ladder rate at which this and every lower step held the
    p90 limit without a growing backlog or a failed request; ``0.0``
    when even the lowest step fails."""
    best = 0.0
    for step in sorted(steps, key=lambda s: s.rate_rps):
        if not step.sustained(limit_ms):
            break
        best = step.rate_rps
    return best


# ------------------------------------------------------ failure accounting
@dataclass
class Tally:
    """Operations attempted and how each one that did not succeed ended.

    Every attempt ends in exactly one bucket, so ``attempted`` always
    equals ``ok + sum(failures)``; a failed request also counts as
    missing any latency limit.
    """

    ok: int = 0
    failures: Dict[str, int] = field(default_factory=dict)

    def succeed(self, count: int = 1) -> None:
        self.ok += count

    def fail(self, kind: str, count: int = 1) -> None:
        self.failures[kind] = self.failures.get(kind, 0) + count

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    @property
    def attempted(self) -> int:
        return self.ok + self.failed

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    def merge(self, other: "Tally") -> None:
        self.ok += other.ok
        for kind, count in other.failures.items():
            self.fail(kind, count)


def latency_ms_with_failures(latencies_ms: Sequence[float], failed: int,
                             ) -> List[float]:
    """Latency samples where each failed request counts as infinitely
    late, so it misses every latency limit."""
    return list(latencies_ms) + [float("inf")] * failed
