"""Times scaled by the machine's speed at the moment they were taken.

On a shared machine the CPU's speed drifts by up to 2x, for milliseconds,
seconds or minutes at a time, and it drifts alike for factrail's code and for
any other Python code. A fixed pure-Python reference task, read just before
and just after an operation, tells how fast the machine ran meanwhile. An
operation's scaled time is its raw time times REFERENCE_S over the mean of
the two readings: the time it would have taken at the speed the reference
was calibrated at. An operation that outlasts the speed its two readings
show is scaled by the mean of all the run's readings instead. Scaled times
vary far less between runs than raw times.
"""

from __future__ import annotations

import random
import time

# Best time of one reference task on a 2-vCPU Intel Xeon VM under Python
# 3.11.7, so scaled times read as seconds on that machine at full speed.
# Only ratios between runs matter; the constant sets the scale.
REFERENCE_S = 0.0023


class Speedometer:
    """Reads the machine's current speed with a fixed reference task.

    The task does what factrail's hot loops do (dict updates over posting
    tuples, a sort, string split and join) on a small working set, so it
    neither grows the heap nor depends on anything factrail does.
    """

    def __init__(self) -> None:
        rng = random.Random("factrail-bench:speedometer")
        self._words = [f"w{i}" for i in range(3000)]
        self._postings = {
            w: [(pid, 1 + pid % 3) for pid in range(rng.randint(5, 60))] for w in self._words
        }
        self._queries = [[rng.choice(self._words) for _ in range(6)] for _ in range(40)]
        self.readings: list[float] = []

    def _task(self) -> float:
        start = time.perf_counter()
        for query in self._queries:
            scores: dict[int, float] = {}
            for term in query:
                for pid, tf in self._postings[term]:
                    scores[pid] = scores.get(pid, 0.0) + 2.2 * tf / (tf + 1.08)
            sorted(scores.items(), key=lambda item: (-item[1], item[0]))[:10]
        " ".join(self._words).split()
        return time.perf_counter() - start

    def read(self) -> float:
        """Best of three runs of the reference task, in seconds."""
        reading = min(self._task() for _ in range(3))
        self.readings.append(reading)
        return reading

    @staticmethod
    def scale(raw: float, before: float, after: float) -> float:
        return raw * REFERENCE_S * 2.0 / (before + after)

    def timed(self, fn, *args):
        """Call fn(*args) between two readings; return (result, raw s, scaled s)."""
        before = self.read()
        start = time.perf_counter()
        result = fn(*args)
        raw = time.perf_counter() - start
        return result, raw, self.scale(raw, before, self.read())


def scale_by_mean(raw: float, readings: list[float]) -> float:
    """raw scaled by the mean of a run's readings instead of the two around it."""
    return raw * REFERENCE_S * len(readings) / sum(readings)
