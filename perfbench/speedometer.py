"""Host speedometer: a fixed reference kernel timed on every CPU all
through a run.

Each of the host's CPUs switches, on its own, between a fast and a slow
state in episodes of about a second; the slow one runs
interpreter-bound code in about 1.6 times the CPU time, and the share
of slow time drifts from minute to minute.  The guest sees no steal for
it: CPU time grows with it (README.md, "Host drift").  A
:class:`Speedometer` runs one thread pinned to each CPU; every
:data:`PERIOD_S` the thread times a small fixed kernel of the
benchmark's own (it calls nothing in the program).  The mean kernel
CPU time over an interval, averaged over the CPUs and divided by the
kernel's :data:`NOMINAL_S`, is the host's slowdown factor for that
interval.  A CPU time divided by it reads in *nominal seconds*: the CPU
time the same work takes with the host in its fast state.  A change to
the program moves the work and not the kernel; a change of host speed
moves both.
"""

from __future__ import annotations

import bisect
import heapq
import os
import threading
import time
from typing import List, Set

#: The kernel's CPU time with the host in its fast state (Intel Xeon,
#: 2 vCPUs, Python 3.11): the unit normalised CPU times are read in.
NOMINAL_S = 0.0005
#: Wall seconds from the start of one kernel run to the next, per CPU.
PERIOD_S = 0.04


class _Node:
    __slots__ = ("key", "deps", "value")

    def __init__(self, key: int, deps: int) -> None:
        self.key = key
        self.deps = deps
        self.value = 0.0

    def step(self, x: float) -> float:
        self.value += x
        self.deps -= 1
        return self.value


def kernel() -> float:
    """Fixed interpreter-bound work: object churn, method calls, a heap
    and a dict, like the program's task machinery."""
    total = 0.0
    heap = []
    table = {}
    for i in range(300):
        node = _Node(i, i % 5 + 1)
        table[i] = node
        heapq.heappush(heap, ((i * 7919) % 1013, i, node))
    while heap:
        _, key, node = heapq.heappop(heap)
        total += node.step(key * 1e-6)
        if node.deps > 0 and key % 3 == 0:
            del table[key]
    return total


class _Probe:
    """The kernel runs of one thread pinned to one CPU."""

    def __init__(self, cpu: int) -> None:
        self.cpu_id = cpu
        #: Wall time at each kernel run's start, and its CPU seconds.
        self.starts: List[float] = []
        self.cpu: List[float] = []
        self.thread = None
        self.clock_id = None

    def run(self, stop: threading.Event) -> None:
        os.sched_setaffinity(threading.get_native_id(), {self.cpu_id})
        clock = time.perf_counter
        next_start = clock()
        while not stop.is_set():
            start = clock()
            c0 = time.thread_time()
            kernel()
            self.cpu.append(time.thread_time() - c0)
            self.starts.append(start)
            next_start += PERIOD_S
            stop.wait(max(0.0, next_start - clock()))

    def mean(self, intervals) -> float:
        """Mean CPU seconds of the kernel runs that started in any of
        the ``(start, end)`` *intervals* (for an interval in which none
        started, the run nearest to its start)."""
        picked = []
        for start, end in intervals:
            lo = bisect.bisect_left(self.starts, start)
            hi = bisect.bisect_left(self.starts, end)
            if hi <= lo:
                lo = min(lo, len(self.cpu) - 1)
                hi = lo + 1
            picked.extend(self.cpu[lo:hi])
        return sum(picked) / len(picked)


class Speedometer:
    """One daemon thread per CPU of this process, each pinned to its CPU
    and timing :func:`kernel` every :data:`PERIOD_S`.

    Use it as a context manager around the whole measurement; inside,
    :meth:`factor` gives the mean slowdown over intervals of
    :func:`time.perf_counter` readings, and :meth:`own_cpu_s` the CPU
    time its threads have used, which CPU readings of the process
    subtract.
    """

    def __init__(self, cpus=None) -> None:
        self.probes = [_Probe(cpu) for cpu in
                       sorted(os.sched_getaffinity(0) if cpus is None
                              else cpus)]
        self._stop = threading.Event()

    def __enter__(self) -> "Speedometer":
        kernel()
        for probe in self.probes:
            probe.thread = threading.Thread(
                target=probe.run, args=(self._stop,), daemon=True,
                name=f"perfbench-speedometer-{probe.cpu_id}")
            probe.thread.start()
            probe.clock_id = time.pthread_getcpuclockid(probe.thread.ident)
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        for probe in self.probes:
            probe.thread.join()

    @property
    def native_ids(self) -> Set[int]:
        """Thread ids of the speedometer's threads."""
        return {probe.thread.native_id for probe in self.probes}

    def own_cpu_s(self) -> float:
        """CPU seconds the speedometer's threads have used so far."""
        return sum(time.clock_gettime(probe.clock_id)
                   for probe in self.probes)

    def factor(self, intervals) -> float:
        """The host's slowdown over the ``(start, end)`` *intervals*:
        the mean kernel CPU time of each CPU, averaged over the CPUs,
        over :data:`NOMINAL_S`."""
        means = [probe.mean(intervals) for probe in self.probes]
        return sum(means) / len(means) / NOMINAL_S
