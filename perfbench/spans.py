"""In-memory span tracing around diffpol's public functions.

Spans are recorded only from the benchmark's side: ``install`` replaces
each target function, as it is bound in the module that calls it, with a
timing wrapper, and ``restore`` puts the originals back.  diffpol itself
is never edited.  A target whose attribute no longer exists is reported
as absent instead of failing.
"""

from __future__ import annotations

import gzip
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable

# (start, end) pairs are perf_counter seconds.


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1      # index into Tracer.spans, -1 for a root
    group: int = -1       # id shared by the spans of one train run / episode
    info: Any = None      # whatever the target's on_result hook recorded

    @property
    def dur(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _groups: int = 0

    def call(self, name: str, fn: Callable, args: tuple, kwargs: dict,
             new_group: bool = False,
             on_result: Callable | None = None) -> Any:
        """Run fn(*args, **kwargs) inside a span named ``name``."""
        parent = self._stack[-1] if self._stack else -1
        if new_group or parent < 0:
            group = self._groups
            self._groups += 1
        else:
            group = self.spans[parent].group
        idx = len(self.spans)
        span = Span(name, 0.0, parent=parent, group=group)
        self.spans.append(span)
        self._stack.append(idx)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if on_result is not None:
            span.info = on_result(args, kwargs, result)
        return result

    def wrap(self, name: str, fn: Callable, new_group: bool = False,
             on_result: Callable | None = None) -> Callable:
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, new_group, on_result)
        traced.__wrapped__ = fn
        return traced

    def write(self, path: str) -> None:
        """Spans as gzipped CSV: index,name,start,end,parent,group."""
        t0 = self.spans[0].start if self.spans else 0.0
        with gzip.open(path, "wt", newline="") as f:
            f.write("index,name,start_s,end_s,parent,group\n")
            for i, s in enumerate(self.spans):
                f.write(f"{i},{s.name},{s.start - t0:.9f},{s.end - t0:.9f},"
                        f"{s.parent},{s.group}\n")


@dataclass(frozen=True)
class Target:
    """Wrap ``owner.attr`` (a module or a class) as span ``name``."""

    owner: Any
    attr: str
    name: str
    new_group: bool = False
    on_result: Callable | None = None


@dataclass
class Installed:
    saved: list[tuple[Any, str, Any]]
    absent: list[str]


def install(tracer: Tracer, targets: list[Target]) -> Installed:
    """Swap every present target for its traced wrapper."""
    saved, absent = [], []
    for t in targets:
        # vars() and not getattr: a class attribute is restored exactly
        # as stored, descriptor and all
        if t.attr not in vars(t.owner):
            absent.append(f"{getattr(t.owner, '__name__', t.owner)}.{t.attr}")
            continue
        orig = vars(t.owner)[t.attr]
        saved.append((t.owner, t.attr, orig))
        setattr(t.owner, t.attr,
                tracer.wrap(t.name, orig, t.new_group, t.on_result))
    return Installed(saved, absent)


def restore(inst: Installed) -> None:
    for owner, attr, orig in reversed(inst.saved):
        setattr(owner, attr, orig)


# -- arithmetic over spans ----------------------------------------------------


def covered(intervals: list[tuple[float, float]], lo: float,
            hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return [s.dur - covered(children.get(i, []), s.start, s.end)
            for i, s in enumerate(spans)]


# percentiles in tenths of a percent, so ranks are exact integers
TAIL_LADDER = (999, 990, 950, 900, 750, 500)
MIN_BEYOND = 10


def _rank(permille: int, n: int) -> int:
    """Nearest-rank position (1-based) of a percentile of n samples."""
    return max(1, -(-permille * n // 1000))


def tail_percentile(samples) -> tuple[float, float, int]:
    """(percentile, value, n): the highest percentile of TAIL_LADDER with
    at least MIN_BEYOND samples above its nearest-rank position, or the
    median when there are too few samples for any.  n = 0 gives NaN."""
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        return 50.0, math.nan, 0
    for pm in TAIL_LADDER:
        if n - _rank(pm, n) >= MIN_BEYOND:
            return pm / 10, xs[_rank(pm, n) - 1], n
    return 50.0, xs[_rank(500, n) - 1], n


def percentile(samples, pct: float) -> float:
    """Nearest-rank percentile; NaN for no samples."""
    xs = sorted(samples)
    if not xs:
        return math.nan
    return xs[_rank(round(pct * 10), len(xs)) - 1]
