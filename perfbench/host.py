"""Host description, thread plan and memory readings for a result.

Every result carries the host it was measured on, so ledger rows from
different machines are never compared by accident.
"""

from __future__ import annotations

import multiprocessing
import os
import platform
import time
from typing import Dict, List, Optional, Set

#: Environment variables that size native thread pools; the benchmark
#: sets each to 1 before numpy is imported (spawned workers inherit it).
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_config() -> Dict[str, str]:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return {"name": "unknown"}
    return {key: str(blas.get(key, "")) for key in
            ("name", "version", "openblas configuration")}


def describe(seed: int) -> dict:
    import numpy as np
    import scipy
    return {
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_config(),
        "thread_env": {name: os.environ.get(name, "") for name in THREAD_ENV},
        "seed": seed,
    }


def thread_plan(engine_workers: int, clients: int) -> dict:
    """The run's thread budget, and whether it fits the host.

    The engine's workers, each with the native threads it may start,
    must fit the CPUs.  Client threads are counted apart: each blocks
    while its operation is in flight, so together with the workers they
    may exceed the CPUs without oversubscribing them.  The runnable
    count measured during the windows (:func:`runnable_threads`) checks
    that claim.
    """
    blas = max(int(os.environ.get(name) or 1) for name in THREAD_ENV)
    cpus = nproc()
    runnable = engine_workers * blas
    return {
        "nproc": cpus,
        "engine_workers": engine_workers,
        "blas_threads_per_worker": blas,
        "client_threads": clients,
        "runnable_threads": runnable,
        "fits": runnable <= cpus and clients <= cpus,
    }


def os_threads() -> int:
    """Threads of this process right now."""
    return len(os.listdir("/proc/self/task"))


def _status_kb(pid, field: str) -> int:
    with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    return 0


def spawned_workers() -> List[int]:
    """Pids of this process's live ``multiprocessing`` workers."""
    return [child.pid for child in multiprocessing.active_children()]


def runnable_threads(pids: List[int], exclude: Set[int]) -> int:
    """Threads of *pids* (``0`` is this process) that are running or
    waiting for a CPU right now, leaving out the thread ids *exclude*."""
    count = 0
    for pid in pids:
        base = f"/proc/{pid or 'self'}/task"
        try:
            tids = os.listdir(base)
        except OSError:
            continue
        for tid in tids:
            if int(tid) in exclude:
                continue
            try:
                with open(f"{base}/{tid}/stat", encoding="utf-8") as handle:
                    state = handle.read().rsplit(")", 1)[1].split()[0]
            except (OSError, IndexError):
                continue
            count += state == "R"
    return count


def _worker_cpu_s(pid: int) -> float:
    """utime + stime of a live process, in seconds."""
    with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def cpu_seconds(workers: Optional[List[int]] = None) -> float:
    """CPU time used so far by this process and its live spawned
    workers (*workers*, default: look them up).  The kernel leaves out
    time the hypervisor stole."""
    total = time.process_time()
    for pid in spawned_workers() if workers is None else workers:
        try:
            total += _worker_cpu_s(pid)
        except OSError:
            continue
    return total


def cpu_ticks() -> Dict[str, int]:
    """Host-wide ``busy`` and ``steal`` ticks from ``/proc/stat``."""
    with open("/proc/stat", encoding="utf-8") as handle:
        fields = [int(v) for v in handle.readline().split()[1:]]
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields[:8]
    return {"busy": user + nice + system + irq + softirq, "steal": steal}


def steal_share(before: Dict[str, int], after: Dict[str, int]) -> float:
    """Share of the time the CPUs wanted to run that the hypervisor
    gave to someone else, between two :func:`cpu_ticks` readings."""
    busy = after["busy"] - before["busy"]
    steal = after["steal"] - before["steal"]
    return steal / (busy + steal) if busy + steal else 0.0


def peak_rss_mb() -> float:
    """This process's peak resident set plus that of its spawned
    workers (``VmHWM``), in MiB."""
    total_kb = _status_kb("self", "VmHWM")
    for pid in spawned_workers():
        try:
            total_kb += _status_kb(pid, "VmHWM")
        except OSError:
            continue
    return total_kb / 1024.0
