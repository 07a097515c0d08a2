"""A clock that reads in reference-speed seconds on a machine whose speed drifts.

On a shared machine the speed of one core drifts by tens of percent within
seconds as neighbours come and go, so wall times of the same work spread
widely from run to run.  The benchmark therefore times chernkit with
`SpeedClock`.  While the clock runs, a timer signal interrupts the work
every INTERVAL_S seconds and runs `probe`, a fixed loop of small numpy
calls and Python arithmetic.  Wall time after a probe is scaled by
REFERENCE_S over the mean duration of the last two probes.  A reading is
thus the time the work would have taken at the speed where the probe takes
REFERENCE_S.  Time spent in probes is left out.
"""

from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

INTERVAL_S = 0.02
REFERENCE_S = 0.001  # probe duration that defines the reference speed
_R = np.arange(16.0).reshape(2, 2, 2, 2) + 0j
_Z = np.random.default_rng(0).standard_normal((30, 2)) + 0j


def probe() -> float:
    """Seconds taken by a fixed loop of batched small einsums and Python arithmetic.

    The mix resembles chernkit's own work, so that the probe slows down with
    chernkit when the machine does.
    """
    start = perf_counter()
    acc = 0.0
    for i in range(12):
        zc = np.conj(_Z)
        acc += float(np.einsum("ijkl,bi,bj,bk,bl->b", _R, _Z, zc, _Z, zc).real.sum())
        acc += float(np.linalg.norm(_Z, axis=1).sum())
        for k in range(60):
            acc += abs(complex(k, -i)) * 0.5
    return perf_counter() - start


class SpeedClock:
    """Reference-speed clock, running inside a `with` block.

    Uses SIGALRM and ITIMER_REAL, so only one can run at a time, and only
    in the main thread.
    """

    def __init__(self):
        self.scaled = 0.0  # reference-speed seconds up to _mark
        self.wall = 0.0  # wall seconds up to _mark, probes excluded
        self._mark = 0.0
        self._rate = 1.0  # reference seconds per wall second since _mark
        self._probe = REFERENCE_S
        self._generation = 0
        self._running = False

    def _advance(self):
        now = perf_counter()
        self.scaled += (now - self._mark) * self._rate
        self.wall += now - self._mark
        p = probe()
        self._rate = REFERENCE_S / (0.5 * (p + self._probe))
        self._probe = p
        self._generation += 1
        self._mark = perf_counter()

    def _tick(self, signum, frame):
        self._advance()
        if self._running:  # a tick that lands inside __exit__ must not re-arm
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    def now(self) -> float:
        """Reference-speed seconds since the clock started."""
        while True:
            generation = self._generation
            value = self.scaled + (perf_counter() - self._mark) * self._rate
            if generation == self._generation:  # no probe ran in between
                return value

    def __enter__(self):
        self.scaled = self.wall = 0.0
        self._probe = probe()
        self._rate = REFERENCE_S / self._probe
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._running = True
        self._mark = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        now = perf_counter()
        self.scaled += (now - self._mark) * self._rate
        self.wall += now - self._mark
        self._mark = now
        return False
