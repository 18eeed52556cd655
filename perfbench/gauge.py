"""Rescale wall times to a reference CPU speed.

On a shared host the speed at which the CPU runs interpreted code can swing by
a factor of two within seconds, as other tenants load the machine.  A Gauge
runs a fixed, stdlib-only calibration workload between timed operations and
rescales each operation's wall time by how long the calibrations around it
took: time x CALIBRATION_REF_S / calibration time.  A time so rescaled reads
in seconds at the speed where the calibration takes CALIBRATION_REF_S.

The calibration never calls the program, so a change to the program cannot
move it; what it cancels is the host's speed, which slows the calibration and
the program alike.
"""

from __future__ import annotations

import csv
import gc
import io
import json
import re
import statistics
import time
from bisect import bisect_left, bisect_right

CALIBRATION_REF_S = 0.0025
CALIBRATION_EVERY_S = 0.2

_TEXT = "\n".join(",".join(f"{(i * j) % 97}.{j}" for j in range(8)) for i in range(300))
_NUMBER = re.compile(r"(\d+)\.(\d+)")


def _calibration() -> None:
    """Parsing, matching, dict and float work of the kind a spreadsheet audit does."""
    cells = {}
    for r, row in enumerate(csv.reader(io.StringIO(_TEXT))):
        for c, text in enumerate(row):
            match = _NUMBER.match(text)
            cells[f"{chr(65 + c)}{r}"] = (float(text), match.group(1))
    sum(value for value, _ in cells.values())
    json.dumps(list(cells.items())[:500])


class Gauge:
    def __init__(self) -> None:
        self.ends: list[float] = []
        self.costs: list[float] = []

    def sample(self) -> None:
        """Calibrate twice and keep the faster, so that a stray interrupt or a
        collection of this process's own garbage does not read as a slow host."""
        costs = []
        gc.disable()
        try:
            for _ in range(2):
                start = time.perf_counter()
                _calibration()
                end = time.perf_counter()
                costs.append(end - start)
        finally:
            gc.enable()
        self.ends.append(end)
        self.costs.append(min(costs))

    def maybe_sample(self) -> None:
        """Calibrate if the last calibration ended CALIBRATION_EVERY_S ago or more."""
        if not self.ends or time.perf_counter() - self.ends[-1] >= CALIBRATION_EVERY_S:
            self.sample()

    def scaled(self, start: float, end: float) -> float:
        """Wall seconds from start to end at the reference speed.

        Uses the calibrations from the last one to end before start through the
        first one to end after end; sample() before and after the interval.
        """
        lo = max(bisect_right(self.ends, start) - 1, 0)
        hi = min(bisect_left(self.ends, end), len(self.ends) - 1)
        cost = statistics.fmean(self.costs[lo:hi + 1])
        return (end - start) * CALIBRATION_REF_S / cost

    def speed(self) -> float:
        """Median host speed over the run, relative to the reference."""
        return CALIBRATION_REF_S / statistics.median(self.costs)
