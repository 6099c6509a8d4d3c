"""How fast the machine was while something was being timed.

The sandbox's CPU flips between its undisturbed speed and one 1.4-2x
slower, in stretches that last from under a second to minutes (README,
*Why calibrated medians*): the best of a run's rounds moved by 30 %
between one quarter of an hour and the next.  Nothing inside a run can
wait that out, so a run measures the slowdown instead and divides it
out.

While a timing is open an interval timer interrupts the process every
``INTERVAL`` seconds and the signal handler times one *quantum*: a fixed
pure-Python loop that no change to the repository can make faster.  A
quantum that ran undisturbed takes the run's floor time; one that took
k times as long ran on a CPU k times slower.  The mean of floor / sample
over the samples is the machine's mean speed during the timing (1.0 =
undisturbed), and CPU seconds x speed is the time the same work takes
with an undisturbed CPU to itself.

Both the work and the quanta are timed in CPU seconds, not wall seconds:
time the process spends runnable but descheduled (by the hypervisor or
by another process of the guest) never reaches a 55 us quantum, so no
sample could correct for it.

Python runs signal handlers in the main thread between two bytecodes, so
the samples land inside the timed code without a second thread; a long
call into C (a numpy sort) delays its sample to the call's return.  The
sampler costs about 2 % of the time it observes.
"""

from __future__ import annotations

import signal
import time
from typing import List, Sequence

#: Seconds between speed samples.
INTERVAL = 0.004
#: Iterations of the quantum's loop: about 55 us undisturbed.
QUANTUM_LOOPS = 1500
#: Undisturbed quanta are not all alike: the fastest of a few thousand is
#: 4-7 % under their bulk.  A quantum within this factor of the fastest
#: counts as undisturbed, so that a quiet run's speed reads 1.0 and its
#: calibrated time is its plain CPU time.
JITTER = 1.05


def _quantum() -> int:
    total = 0
    for i in range(QUANTUM_LOOPS):
        total += i & 3
    return total


class SpeedSampler:
    """Times one quantum every ``INTERVAL`` seconds between start and
    stop, and the CPU seconds the process used between the two."""

    def __init__(self) -> None:
        self.quanta: List[float] = []
        self.cpu = 0.0
        self._previous = None

    def _sample(self, _signum, _frame) -> None:
        start = time.thread_time()
        _quantum()
        self.quanta.append(time.thread_time() - start)

    def start(self) -> None:
        self.quanta = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        self.cpu = -time.process_time()

    def stop(self) -> List[float]:
        """Disarm the timer, restore the handler, hand over the samples."""
        self.cpu += time.process_time()
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return self.quanta

    def __enter__(self) -> "SpeedSampler":
        self.start()
        return self

    def __exit__(self, *_exc) -> None:
        self.stop()


def undisturbed(quanta: Sequence[float]) -> float:
    """The quantum's time with the CPU to itself: the fastest of a run's
    samples bar one (one CPU-clock reading in 500 000 came out as 0).
    A percentile is not safe: in a 20 s stretch of the worst noise
    recorded, half a percent of 4 900 quanta ran undisturbed, the 2nd
    percentile sat 1.34x above the floor, and every time calibrated with
    it read 15-38 % high; the fastest quanta of such a stretch stayed
    within 5 % of a quiet stretch's."""
    return sorted(quanta)[min(1, len(quanta) - 1)]


def speed(quanta: Sequence[float], floor: float) -> float:
    """Mean machine speed over ``quanta``; 1.0 is the undisturbed machine."""
    if not quanta:
        return 1.0  # shorter than one interval: nothing to correct with
    ceiling = JITTER * floor
    return sum(ceiling / q if q > ceiling else 1.0 for q in quanta) / len(quanta)
