"""CPU time rescaled to a fixed machine speed.

The benchmark runs on a shared host whose CPU speed changes on its own: on
the VM in README.md a fixed piece of work takes up to 1.6 times as long in
the host's slow phases as in its fast ones, and the phases switch every few
seconds.  Process CPU time does not remove that, so ``ScaledTimer`` samples
the speed while the program runs.  A SIGPROF interval timer interrupts the
process after every ``PERIOD`` seconds of its CPU time, and the handler
times one fixed slice of exact rational arithmetic.  The slice is the
benchmark's own stdlib code, never skewex code, so a change to the program
does not change it.  The interval's CPU time, less the time of the slices,
is then rescaled by (``REF_SLICE_S`` over the mean slice time) to the power
``SPEED_EXPONENT``: the result estimates the CPU time the interval would
have taken at the speed at which one slice takes ``REF_SLICE_S`` seconds.
"""

from __future__ import annotations

import random
import signal
from fractions import Fraction
from time import perf_counter, thread_time

# CPU seconds between two speed samples.
PERIOD = 0.01
# Thread CPU seconds of one slice at the reference speed: about the fast
# phase of the VM in README.md.
REF_SLICE_S = 3.0e-4
# An interval shorter than this many periods gets extra slices at its end.
MIN_SLICES = 8
# The workloads slow more than the slice in the host's slow phases.  Over
# 207 passes of the three benchmark workloads at speeds 0.67 to 1.33, the
# rescaled time drifted across speed bins of 0.1 by 12 to 14% with a power
# of 1 and by 8 to 11% with powers 1.15 to 1.25; of those, 1.15 spread least
# in a set of runs during which the host changed phase.
SPEED_EXPONENT = 1.15

_rng = random.Random(3)
_ROWS = tuple(tuple(Fraction(_rng.randint(-9, 9), _rng.randint(1, 5)) for _ in range(5))
              for _ in range(4))


def reference_slice() -> list:
    """Gauss-Jordan elimination of a fixed 4x5 rational matrix."""
    rows = [list(row) for row in _ROWS]
    for c in range(4):
        inv = 1 / rows[c][c]
        rows[c] = [x * inv for x in rows[c]]
        for i in range(4):
            if i != c:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return rows


class ScaledTimer:
    """Times the enclosed code in CPU seconds at the reference speed.

    After the block: ``cpu`` is the block's own thread CPU time (slices
    excluded), ``speed`` the measured speed relative to the reference and
    ``seconds`` the rescaled time, ``cpu * speed ** SPEED_EXPONENT``.  Only
    the main thread of a single-threaded process may use it.
    """

    def __init__(self, on_slice=None):
        # on_slice(start, end), if given, sees each slice's perf_counter interval
        self.on_slice = on_slice
        self.slices = 0
        self.slice_s = 0.0

    def _sample(self, signum=None, frame=None) -> None:
        wall = perf_counter()
        started = thread_time()
        reference_slice()
        self.slice_s += thread_time() - started
        self.slices += 1
        if self.on_slice is not None:
            self.on_slice(wall, perf_counter())

    def __enter__(self) -> "ScaledTimer":
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        self._started = thread_time()
        signal.setitimer(signal.ITIMER_PROF, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        self.cpu = thread_time() - self._started - self.slice_s
        signal.signal(signal.SIGPROF, self._previous)
        while self.slices < MIN_SLICES:
            self._sample()
        self.speed = REF_SLICE_S * self.slices / self.slice_s
        self.seconds = self.cpu * self.speed ** SPEED_EXPONENT
