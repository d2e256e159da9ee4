"""In-memory spans recorded around calls, and the self-time arithmetic on them.

A span holds a name, start, end, the index of the span that was open when
it began (its parent) and a job id. Spans stay in memory until the job ends.
"""

from __future__ import annotations

import functools
import resource
import time
from dataclasses import asdict, dataclass
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: str
    error: bool = False
    rss_rise_mb: float = 0.0


def peak_rss_mb() -> float:
    """This process's peak resident set size so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# called with (counts, args, kwargs, result) after a wrapped call returns
CountHook = Callable[[dict, tuple, dict, object], None]


class Tracer:
    """Records one span per call of each wrapped function, for one job."""

    def __init__(self, job: str, clock: Callable[[], float] = time.perf_counter):
        self.job = job
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.notes: list[str] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable, hook: CountHook | None = None,
             rss: bool = False) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, self._open[-1] if self._open else None, self.job)
            self._open.append(len(self.spans))
            self.spans.append(span)
            peak_before = peak_rss_mb() if rss else 0.0
            span.start = self.clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = self.clock()
                self._open.pop()
                if rss:
                    span.rss_rise_mb = peak_rss_mb() - peak_before
            if hook is not None:
                try:
                    hook(self.counts, args, kwargs, result)
                except Exception as exc:  # a count must never fail the job
                    self.notes.append(f"{name}: count hook failed: {exc!r}")
            return result

        return traced

    def to_json(self) -> dict:
        return {"spans": [asdict(s) for s in self.spans], "counts": self.counts,
                "notes": self.notes}


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for index, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for child in sorted(children.get(index, ()), key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((span.end - span.start) - covered)
    return out
