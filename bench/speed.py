"""Host-speed reference for the benchmark's timings.

On a shared host the speed of a core drifts: the median time of a fixed
piece of work, taken over 15-second windows, ranges over 1.6x within a few
minutes, and single 0.1 s timings of it jump by 1.7x from one second to the
next.  Raw wall times of runs made minutes apart therefore differ by more
than any useful regression bound.  The benchmark times a fixed pure-Python
kernel right before and right after every timed op, and a CLI op is also
stopped (SIGSTOP) once a second while the kernel runs, so that the host's
speed is read throughout the op.  Op times are reported in reference
seconds:

    reference seconds = wall seconds * KERNEL_REF_S / kernel seconds

where wall seconds leave out the stops and kernel seconds is the mean of
the kernel timings around and during the op.  On a 2-core host, over
28-second windows, this cut the spread (interquartile range over median) of
the median time of a 6-8 s op from 5-15% to 4%; the readings before and
after the op alone left 12%.

The kernel does the kind of work respo's hot paths do (hashing tuples and
strings, dict and frozenset traffic, Fraction arithmetic) and never calls
respo.  It runs in the benchmark's own process, whose heap stays small, with
the garbage collector off.  KERNEL_REF_S is about its time on a 2.1 GHz Xeon
vCPU in its fast state, so reference seconds read close to wall seconds
there.
"""

from __future__ import annotations

import gc
import statistics
from fractions import Fraction
from time import perf_counter

KERNEL_REF_S = 0.025
_ROUNDS = 16000
#: Kernel timings per speed reading; their median is the reading.
_SAMPLES = 4


def _kernel() -> int:
    table: dict[tuple, int] = {}
    total = Fraction(0)
    sizes = 0
    for i in range(_ROUNDS):
        key = (i % 97, i % 89, str(i % 1000))
        table[key] = table.get(key, 0) + 1
        sizes += len(frozenset(key))
        if i % 7 == 0:
            total += Fraction(1, 1 + i % 13)
    return len(sorted(table)) + sizes + total.denominator


def kernel_seconds() -> float:
    """Median wall seconds of a few runs of the reference kernel."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        samples = []
        for _ in range(_SAMPLES):
            start = perf_counter()
            _kernel()
            samples.append(perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(samples)


def to_reference(seconds: float, readings: list[float]) -> float:
    """Wall seconds in reference seconds, given the kernel timings taken
    around and during them."""
    return seconds * KERNEL_REF_S / statistics.mean(readings)
