"""Machine-speed calibration of timings.

The benchmark's host shares its cores with other tenants, and the speed of
a core drifts by up to 2x over tens of seconds.  Raw wall time then
measures the neighbours more than the program.  So every measured process
runs a fixed calibration loop at its start and then every `PERIOD_S`
seconds (from a ``SIGALRM`` handler, so on the same thread and core as the
work), and each timing is converted to *reference seconds*: wall time
outside the calibration windows, with each piece scaled by
``REFERENCE_S / calibration time``, the median over the `NEIGHBOURS`
windows nearest to it (the one before it and the one after it).  A
reference second is a second on a machine where one calibration loop takes
`REFERENCE_S`.

The loop does integer arithmetic, dict updates and str conversions, like
supercalc's exact arithmetic, and allocates no objects that the garbage
collector tracks, so it neither depends on supercalc nor shifts the
program's collections.  It costs about 2% of the run.
"""

from __future__ import annotations

import bisect
import signal
import time
from array import array
from math import gcd

REFERENCE_S = 0.001
LOOP_N = 800
PERIOD_S = 0.05
NEIGHBOURS = 2
_TABLE = dict.fromkeys(range(64), 0)


def _loop(n: int = LOOP_N) -> int:
    # integer rationals, dict updates and str conversions: the mix of
    # supercalc's exact arithmetic, on objects the collector does not track
    a, b, t = 1, 1, 0
    table = _TABLE
    for k in range(1, n):
        num = a * (k % 7 + 1) + b * 3
        den = b * (k % 5 + 2)
        g = gcd(num, den)
        a, b = num // g % 1000003 + 1, den // g % 999983 + 1
        key = (a ^ b) & 63
        table[key] += len(str(a))
        t += table[key]
    return t


def _median(values: list[float]) -> float:
    values = sorted(values)
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else (values[mid - 1] + values[mid]) / 2


class SpeedLog:
    """Calibration samples of one process, as a flat array of
    (window start, window end, loop seconds) on the ``perf_counter`` clock,
    which is the system-wide monotonic clock and so is shared with the
    parent process."""

    def __init__(self):
        self.samples = array("d")

    def sample(self, *_) -> None:
        start = time.perf_counter()
        _loop()
        end = time.perf_counter()
        self.samples.extend((start, end, end - start))

    def start(self) -> None:
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()


class Scale:
    """Converts wall-clock intervals to reference seconds, from the samples
    of the process that ran them."""

    def __init__(self, samples):
        rows = sorted(zip(samples[0::3], samples[1::3], samples[2::3]))
        if not rows:
            raise ValueError("no calibration samples")
        self.starts = [s for s, _, _ in rows]
        self.ends = [e for _, e, _ in rows]
        factors = [REFERENCE_S / d for _, _, d in rows]
        # gap j lies before window j and takes the median factor of the
        # windows nearest to it
        half = NEIGHBOURS // 2
        self.gap_factor = [_median(factors[max(0, j - half) : j + half]) for j in range(len(factors) + 1)]

    def seconds(self, t0: float, t1: float) -> float:
        """Reference seconds of the wall interval [t0, t1], calibration
        windows left out."""
        starts, ends = self.starts, self.ends
        j = bisect.bisect_right(ends, t0)
        total = 0.0
        lo = t0
        while j < len(starts) and starts[j] < t1:
            if starts[j] > lo:
                total += (starts[j] - lo) * self.gap_factor[j]
            lo = max(lo, ends[j])
            j += 1
        if t1 > lo:
            total += (t1 - lo) * self.gap_factor[j]
        return total
