"""Machine-speed correction: a fixed reference loop timed next to each measurement.

On a shared host the same query's time drifts by 10-25% within seconds, and
all code slows and speeds up together.  Each timed interval is therefore
bracketed by runs of ``reference``, a loop of the kind of work the queries
do (dict updates, float arithmetic, small NumPy calls) that touches none of
the program's code, and is scaled by ``REF_MS`` over the loop's mean time at
its two ends.  The scaled time reads in milliseconds at the speed the loop
runs at on an idle machine; a change to the program moves it as much as the
raw time, a change of machine speed much less.  The raw times are kept in
the report.

Work on Spark is scaled by the run's speed instead, the median of every
reference run so far: right after a Spark job the loop also feels the
job's JVM and workers winding down, so its two ends misread the speed.
"""
from __future__ import annotations

import time

import numpy as np

# The reference loop's median time (ms) on the 4-core x86-64 host the
# benchmark was tuned on; only fixes the scale of the corrected times.
REF_MS = 2.5


def reference() -> float:
    """Run the reference loop once; its wall time in ms."""
    t0 = time.perf_counter()
    d: dict[int, float] = {}
    x = 0.0
    for i in range(20000):
        d[i & 1023] = x
        x += i * 0.5
    a = np.arange(200.0)
    for _ in range(100):
        a = np.sqrt(a + 1.0)
    return (time.perf_counter() - t0) * 1e3


def scale(raw: float, before_ms: float, after_ms: float) -> float:
    """``raw`` (any unit) at reference speed, given the loop's times at its two ends."""
    return raw * REF_MS / (0.5 * (before_ms + after_ms))


class Timer:
    """Times calls with the reference loop run between consecutive ones."""

    def __init__(self):
        self.refs = [reference()]

    def __call__(self, fn, *args, **kwargs):
        """``(result, raw seconds, corrected seconds)``."""
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        raw = time.perf_counter() - t0
        self.refs.append(reference())
        return out, raw, scale(raw, self.refs[-2], self.refs[-1])

    def at_run_speed(self, raw: float) -> float:
        """``raw`` scaled by the median of the reference runs so far."""
        return raw * REF_MS / float(np.median(self.refs))
