"""In-memory span recorder for the benchmark's traced pass.

A span covers one call into a library layer: its name, start and end on the
perf_counter clock, the span that was open when it started, the run it
belongs to, and counts attached where the work happens.  Spans stay in
memory and are written out with the run's result.  A disabled tracer hands
out throwaway spans and reads no clock, so the untraced passes that give
the end-to-end metrics pay nothing for it.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    id: int = -1
    parent: int | None = None
    run_id: str = ""
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, enabled: bool, run_id: str = ""):
        self.enabled = enabled
        self.run_id = run_id
        self.spans: list[Span] = []
        self._open: list[Span] = []

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield Span(name, attrs=attrs)
            return
        s = Span(name, id=len(self.spans),
                 parent=self._open[-1].id if self._open else None,
                 run_id=self.run_id, attrs=attrs)
        self.spans.append(s)
        self._open.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._open.pop()

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover.

        Spans nest strictly (one thread, context managers), so the children
        of a span cover disjoint parts of it and their durations add up.
        """
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.duration
        return [s.duration - c for s, c in zip(self.spans, covered)]

    def self_time(self, name: str) -> float:
        return sum((t for s, t in zip(self.spans, self.self_times()) if s.name == name), 0.0)

    def records(self) -> list[dict]:
        return [asdict(s) for s in self.spans]
