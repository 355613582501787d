"""Host speed, sampled while a job list runs, to rescale its times.

The benchmark runs on a few vCPUs of a shared host whose CPU speed swings
by up to 1.8x for seconds to minutes at a time: a fixed pure-Python loop
reads anywhere from 5.4 to 9.7 ms. Raw times then measure the host more
than the program. So a child interpreter samples the host's speed while
its jobs run: a SIGALRM timer interrupts the program every PERIOD_S, and
the handler times one short, fixed piece of pure-Python work
(`calibrate`). The benchmark reports each time rescaled to a fixed
reference speed: every stretch of program time between two samples is
multiplied by REFERENCE_S / (the calibration's local duration). The
handler's own time is taken out of every job time. Set-up time is
rescaled the same way by a burst of `setup_calibrate` taken just after
set-up, in the same interpreter.

The reference speed is what a 2.0 GHz Xeon vCPU of the shared host gives
in a quiet stretch, so rescaled times read as quiet-host seconds there.
The speed a calibration measures only stands in for the program's own,
so a rescaled time still moves a little with the host.

The handler runs between bytecodes in the main thread, so no thread or
process is added and the program sees nothing but a short pause.
"""

from __future__ import annotations

import signal
import statistics
import time
from array import array
from bisect import bisect_left, bisect_right
from fractions import Fraction

PERIOD_S = 0.05        # one sample per 50 ms of wall time
SMOOTH = 3             # samples on each side in the local median
REFERENCE_S = 0.0004   # calibrate() time at the reference speed
SETUP_REFERENCE_S = 0.0008   # setup_calibrate() time at that speed
BURST = 41             # samples taken back to back by setup_burst()
ZERO_FILL = 8 << 20    # bytes zero-filled by setup_calibrate()

_ROW = [Fraction(i, 7 + i) for i in range(1, 9)]


def calibrate() -> None:
    """About half a millisecond of the interpreter work coxtoric does:
    Fraction and small-int arithmetic, lists, dicts and calls."""
    acc = Fraction(0)
    counts: dict[int, int] = {}
    for k in range(72):
        acc += _ROW[k % 8] * _ROW[(3 * k + 1) % 8]
        key = (k * 7) % 5
        counts[key] = counts.get(key, 0) + sum(
            a * b for a, b in zip(range(k, k + 8), range(8)))
    if acc <= 0 or len(counts) != 5:
        raise AssertionError("calibration work went wrong")


def setup_calibrate() -> None:
    """calibrate() plus a memory-bound zero fill of ZERO_FILL bytes.
    Interpreter start-up mixes bytecode with memory-bound work (mapping
    and unmarshalling modules), so it slows less than pure bytecode when
    the host slows; this mix follows it more closely."""
    calibrate()
    if len(bytearray(ZERO_FILL)) != ZERO_FILL:
        raise AssertionError("calibration work went wrong")


def setup_burst() -> float:
    """Median duration of BURST setup calibrations run back to back."""
    times = []
    for _ in range(BURST):
        t0 = time.perf_counter()
        setup_calibrate()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Sampler:
    """Calibration samples taken on a timer while the program runs."""

    def __init__(self) -> None:
        self.starts = array("d")    # perf_counter at each handler entry
        self.costs = array("d")     # calibration time of each sample
        self.ends = array("d")      # perf_counter at each handler exit
        self.local: list[float] = []   # smoothed costs, set on exit

    def _handler(self, signum, frame) -> None:
        t0 = time.perf_counter()
        calibrate()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.costs.append(t1 - t0)
        self.ends.append(time.perf_counter())

    def __enter__(self) -> "Sampler":
        self._handler(None, None)   # a first sample, however short the run
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._handler(None, None)
        self._smooth()

    def _smooth(self) -> None:
        n = len(self.costs)
        self.local = [statistics.median(
            self.costs[max(0, i - SMOOTH):i + SMOOTH + 1]) for i in range(n)]

    def paused(self, a: float, b: float) -> float:
        """Handler time inside [a, b]."""
        lo, hi = bisect_right(self.ends, a), bisect_left(self.starts, b)
        return sum(min(self.ends[i], b) - max(self.starts[i], a)
                   for i in range(lo, hi))

    def scaled(self, a: float, b: float) -> float:
        """Program time inside [a, b], without handler time, rescaled to
        the reference speed. A stretch between two samples takes the
        local median speed of the sample that ends it (or of the last
        sample, after the last one)."""
        n = len(self.starts)
        total = 0.0
        i = bisect_right(self.ends, a)       # first handler ending after a
        t = a
        while t < b:
            stop = min(self.starts[i], b) if i < n else b
            if stop > t:
                total += (stop - t) * REFERENCE_S / self.local[min(i, n - 1)]
            if i >= n or self.starts[i] >= b:
                break
            t = self.ends[i]
            i += 1
        return total
