"""Machine-speed reference for timings taken on a machine whose speed drifts.

On shared machines identical code can swing by 2x in speed, in phases lasting
from seconds to minutes.  The reference is a fixed pure-Python loop of tuple
keys, dict updates and integer arithmetic (the kind of work ``LaurentPoly``
does) that shares no code with tqeuler.  It is timed in the process being
measured, at the same moments, and a time ``t`` is reported as
``t * NOMINAL_S / mean(reference times)``: seconds on a machine where one
reference loop takes ``NOMINAL_S``.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

ITERATIONS = 5_000
NOMINAL_S = 0.0015
INTERVAL_S = 0.1  # reference samples during an operation
SETUP_REPEAT = 10  # reference loops timed right after set-up


def reference_s(repeat: int = 1) -> float:
    """Wall time of one reference loop (mean over ``repeat``), collector off.

    The collector is off so that the loop's cost does not depend on how
    many objects the measured program keeps alive.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(repeat):
            d: dict[tuple[int, int], int] = {}
            for i in range(ITERATIONS):
                k = (i & 63, (i >> 6) & 63)
                d[k] = d.get(k, 0) + i * 7
        return (time.perf_counter() - start) / repeat
    finally:
        if was_enabled:
            gc.enable()


class OpClock:
    """Times an operation and, with ``sample``, samples the reference every
    ``INTERVAL_S``.

    The samples run from a ``SIGALRM`` handler, between bytecodes of the
    operation; their time is excluded from ``now()`` and ``elapsed``.  Traced
    operations are not sampled, so that no sample lands in a layer's time.
    """

    def __init__(self, sample: bool):
        self.sample = sample
        self.refs: list[float] = []
        self.paused = 0.0
        self.start = self.elapsed = 0.0
        self._old_handler = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.refs.append(reference_s())
        self.paused += time.perf_counter() - t0

    def now(self) -> float:
        return time.perf_counter() - self.paused

    def __enter__(self) -> "OpClock":
        if self.sample:
            self.refs.append(reference_s())
            self._old_handler = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self.start = self.now()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed = self.now() - self.start
        if self.sample:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._old_handler)
            self.refs.append(reference_s())

    @property
    def scale(self) -> float | None:
        return NOMINAL_S / statistics.mean(self.refs) if self.refs else None
