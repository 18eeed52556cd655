"""In-memory span recorder for the traced benchmark run.

A span is [name, start, end, parent index, operation id].  Spans stay in a
list while the run measures and are written out once, at the end.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Callable

Duration = Callable[[float, float], float]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, op: int):
        parent = self._open[-1] if self._open else None
        record = [name, time.perf_counter(), None, parent, op]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def totals(self, since: int, until: int, duration: Duration) -> dict[str, float]:
        """Summed duration per span name over spans[since:until]."""
        sums: dict[str, float] = defaultdict(float)
        for name, start, end, _, _ in self.spans[since:until]:
            sums[name] += duration(start, end)
        return sums

    def self_times(self, since: int, until: int, duration: Duration) -> dict[str, float]:
        """Summed self time per span name: duration minus the child spans' durations.

        Children of one span never overlap, because spans are opened and closed
        in one thread.
        """
        own = {i: duration(s[1], s[2]) for i, s in enumerate(self.spans[since:until], since)}
        for i, (_, start, end, parent, _) in enumerate(self.spans[since:until], since):
            if parent in own:
                own[parent] -= duration(start, end)
        sums: dict[str, float] = defaultdict(float)
        for i, value in own.items():
            sums[self.spans[i][0]] += value
        return sums

    def write(self, path: Path) -> None:
        keys = ("name", "start", "end", "parent", "op")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([dict(zip(keys, span)) for span in self.spans], handle)


class NullTracer:
    """Same interface, records nothing: the untraced side of the overhead comparison."""

    _null = nullcontext()

    def span(self, name: str, op: int):
        return self._null
