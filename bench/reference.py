"""Host-speed reference that makes timings comparable across runs.

On a shared 2-vCPU host the same work was seen to take from 1x to 2x its
quiet time, in spells of 10-60 s, as other tenants come and go.  Such a
spell covers a whole benchmark run, so no statistic taken inside the run
can remove it.  A run therefore also times a fixed reference chunk
(Python arithmetic and 3x3 numpy work, no raygeo code) every
``INTERVAL_S`` seconds from a SIGALRM handler, and reports each interval
it measured at the speed where the chunk takes ``NOMINAL_S``::

    scaled = (measured - reference chunks inside it) * NOMINAL_S / r

where ``r`` is the mean chunk time around the interval.  A change to the
program moves the measured time and not ``r``, so it shows in full.  On
the host above, scaling cut the spread of 35 s averages of identical work
from 17 % to 2-5 % (quartile distance over median).
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

INTERVAL_S = 0.25
NOMINAL_S = 0.005
#: Chunks this close to an interval also count towards its speed, so a
#: short interval still averages a few chunks.
WINDOW_S = 0.5


def _chunk() -> float:
    rng = np.random.Generator(np.random.Philox(key=[1, 2]))
    acc = 0.0
    for _ in range(150):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        q = np.linalg.qr(a)[0]
        v = q @ a[:, 0]
        acc += float(np.linalg.norm(v)) + abs(complex(np.vdot(v, v)))
        acc += sum(x * 0.5 for x in range(20))
    return acc


def _ignore(*_signal_args) -> None:
    pass


class Reference:
    """Reference chunk timings, sampled on demand or from a timer."""

    def __init__(self):
        self.starts: list[float] = []
        self.ends: list[float] = []
        _chunk()  # untimed: the first call pays for lazy set-up

    def sample(self, *_signal_args) -> None:
        start = time.perf_counter()
        _chunk()
        self.starts.append(start)
        self.ends.append(time.perf_counter())

    def __enter__(self):
        """Sample every INTERVAL_S seconds until exit."""
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        # A no-op, not SIG_DFL: a signal still pending would otherwise
        # end the process (or raise) after the timer is stopped.
        signal.signal(signal.SIGALRM, _ignore)
        return False

    def chunk_s(self, t0: float, t1: float) -> float:
        """Mean chunk time around [t0, t1]; the nearest chunk if none is near."""
        lo = bisect.bisect_left(self.starts, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.starts, t1 + WINDOW_S)
        if hi == lo:
            near = [j for j in (lo - 1, lo) if 0 <= j < len(self.starts)]
            lo = min(near, key=lambda j: abs(self.starts[j] - t0))
            hi = lo + 1
        return sum(self.ends[i] - self.starts[i] for i in range(lo, hi)) / (hi - lo)

    def scale(self, t0: float, t1: float) -> float:
        """Factor from measured time around [t0, t1] to nominal-speed time."""
        return NOMINAL_S / self.chunk_s(t0, t1)

    def scaled(self, t0: float, t1: float) -> float:
        """Time of [t0, t1], without the chunks inside it, at nominal speed."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        inside = sum(min(self.ends[i], t1) - self.starts[i] for i in range(lo, hi))
        return (t1 - t0 - inside) * self.scale(t0, t1)

    @property
    def mean_chunk_s(self) -> float:
        return sum(e - s for s, e in zip(self.starts, self.ends)) / max(1, len(self.starts))
