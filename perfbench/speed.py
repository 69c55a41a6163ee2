"""The clock the benchmark times calls with, and the machine's speed beside it.

This machine's vCPUs change speed, on every kind of Python work, by up to
1.85x in phases of seconds to minutes (figures in README.md), so a run that
meets a slow phase reads slower by the phase, not by anything the program
did.  While the calls run, a `Speedometer` therefore times `probe`, a fixed
piece of pure-Python work, every PROBE_PERIOD_S of wall time; the probes
fall inside the calls in proportion to their length.  A time measured while
probes took `samples` is scaled by `scale(samples)`, which turns it into
seconds at the reference speed: the speed at which one probe takes
PROBE_REF_S.  The benchmark's code holds the probe, so no change to the
program can move it.
"""
from __future__ import annotations

import resource
import signal
from time import process_time

PROBE_PERIOD_S = 0.02
# CPU time of one probe in the machine's fast phase (2-vCPU Xeon, Python
# 3.11.7); it sets the unit of the scaled figures and nothing else.
PROBE_REF_S = 0.0006


def cpu_seconds():
    """CPU time of this process and of the children it has waited for.

    The calls are single-threaded and CPU-bound, with their inputs in the
    page cache, so on an undisturbed machine this is their wall time.
    Unlike the wall clock it leaves out the time a virtual machine's host
    runs other guests on our vCPU (steal time), which comes in bursts.
    Children count so that work moved into a subprocess is still timed.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return process_time() + children.ru_utime + children.ru_stime


def probe():
    """Dictionary updates and integer arithmetic; about 0.6 ms here."""
    table = {}
    total = 0
    for i in range(1500):
        key = (i & 31, i % 7)
        table[key] = table.get(key, 0) + i
        total += i * i % 7
    return total


def scale(samples):
    """Factor from CPU seconds measured beside `samples` to reference seconds."""
    return PROBE_REF_S * len(samples) / sum(samples)


class Speedometer:
    """Runs and times `probe` from a SIGALRM handler while in a `with` block.

    `samples` holds each probe's CPU time in order and `spent` their sum,
    which the caller subtracts from what it timed around them.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._busy = False

    def _tick(self, signum, frame):
        if self._busy:  # a tick that arrives during a probe is dropped
            return
        self._busy = True
        t0 = process_time()
        probe()
        took = process_time() - t0
        self.samples.append(took)
        self.spent += took
        self._busy = False

    def __enter__(self):
        # A wall-clock timer: while a CPU-time timer (ITIMER_PROF) is armed,
        # Linux updates the process CPU clock only once per tick.
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
