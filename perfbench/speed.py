"""Machine speed probe: converts measured times to reference-speed seconds.

The benchmark runs on a few cores of a shared host whose speed drifts by
up to a factor of two within a minute, with the same code, as neighbours
load the physical cores.  A run therefore also times a fixed calibration
loop, ``Spin``, every ``INTERVAL`` seconds from a timer signal, so the
samples interleave with the workload wherever it is, also inside one long
call.  A measured interval is then reported as

    (duration - calibration time inside it) * REFERENCE_S / mean spin time

over the spin samples within ``INTERVAL`` of the interval (the nearest
ones if none is that close): the time it would have taken on a machine
where one spin takes ``REFERENCE_S``.  The spin is plain Python doing
what knotcert does most: exact rational elimination and small-int list
and dict work.  (Random reads from a table larger than the cache, tried
as a further part, followed the drift less well.)  The spin never calls
knotcert, so a change to the package moves the reported times and leaves
the spin alone.
"""

from __future__ import annotations

import bisect
import random
import signal
from fractions import Fraction
from time import perf_counter

INTERVAL = 0.25
# One spin's duration, in seconds, at the reference speed.  About its
# median on the 2-vCPU host the benchmark was written on.
REFERENCE_S = 0.015


class Spin:
    """The fixed calibration work, with its inputs built once."""

    def __init__(self):
        rng = random.Random(0)
        self.matrix = [[rng.randint(-4, 4) for _ in range(24)] for _ in range(24)]
        self.word = [rng.choice((1, -1)) * rng.randint(1, 5) for _ in range(6400)]

    def __call__(self) -> int:
        """Rational elimination on a 24x24 integer matrix, then free
        reduction and letter counts of a 6400-letter word."""
        m = [[Fraction(x) for x in row] for row in self.matrix]
        n = len(m)
        for k in range(n):
            d = m[k][k] or Fraction(1)
            for i in range(k + 1, n):
                f = m[i][k] / d
                if f:
                    for j in range(k, n):
                        m[i][j] -= f * m[k][j]
        stack: list[int] = []
        for e in self.word:
            if stack and stack[-1] == -e:
                stack.pop()
            else:
                stack.append(e)
        counts: dict[int, int] = {}
        for e in stack:
            counts[abs(e)] = counts.get(abs(e), 0) + 1
        return len(stack) + len(counts)


class SpeedProbe:
    """Spin samples taken from ``SIGALRM`` while the probe is started.

    Use as a context manager around everything that is timed; intervals
    are converted with ``seconds`` after it has stopped, so that samples
    taken after an interval count for it too.
    """

    def __init__(self):
        self._spin = Spin()
        self._starts: list[float] = []
        self._spins: list[float] = []

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _sample(self, _signum, _frame):
        start = perf_counter()
        self._spin()
        self._starts.append(start)
        self._spins.append(perf_counter() - start)

    @property
    def samples(self) -> int:
        return len(self._spins)

    def seconds(self, start: float, end: float) -> float:
        """Reference-speed seconds of the interval [start, end]."""
        lo = bisect.bisect_left(self._starts, start)
        hi = bisect.bisect_right(self._starts, end)
        busy = end - start - sum(self._spins[lo:hi])
        lo = bisect.bisect_left(self._starts, start - INTERVAL)
        hi = bisect.bisect_right(self._starts, end + INTERVAL)
        if lo == hi:
            lo, hi = max(lo - 1, 0), hi + 1
        near = self._spins[lo:hi]
        if not near:
            raise RuntimeError("the speed probe took no sample")
        return busy * REFERENCE_S * len(near) / sum(near)
