#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-fft --seed 1 --seconds 10 \\
        --trace 0

Run from the root of a checkout; the program is imported from its
``src`` directory.  ``--trace 0`` measures the end-to-end metrics with
nothing wrapped.  ``--trace 1`` alternates untraced and traced windows
and reports per-layer metrics from the traced ones (see README.md).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines
before it are a readable table and a JSON report with the host, the
thread plan, the tail percentile and the verification counts.
"""

import os

from host import THREAD_ENV

# Before numpy is imported anywhere: one native thread per engine
# worker.  Spawned fleet workers inherit the environment.
for _name in THREAD_ENV:
    os.environ[_name] = "1"

import argparse  # noqa: E402
import faulthandler  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import host  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

#: Warm-up rounds per client after the cold operation, untimed.  Their
#: results are the ones verified against an independent reference, so
#: with the cold operation they cover every pool entry.
WARMUP_ROUNDS = 3
#: A run that has not finished by then is stopped with a traceback.
WATCHDOG_S = 170
#: End-to-end metrics the benchmark gates on, with their units.  The
#: CPU times read in nominal seconds: divided by the host's slowdown
#: factor to the workload's elasticity (README.md, "Host drift").
END_TO_END = {
    "setup_s": "s",
    "cpu_s_per_op": "s",
    "peak_rss_mb": "MiB",
}
#: Wall-clock end-to-end metrics: printed with every result, not gated.
WALL_CLOCK = {
    "setup_wall_s": "s",
    "latency_s_p50": "s",
    "latency_s_tail": "s",
    "throughput_per_s": "1/s",
}
#: Shortest chunk of a window ``cpu_s_per_op`` takes a rate over.
CHUNK_S = 0.5
#: Seconds between two samples of the runnable-thread count.
RUNNABLE_EVERY_S = 0.05
#: Samples a tail percentile must leave beyond it.
TAIL_BEYOND = 10


class Window:
    """One closed-loop window: its wall-clock span and what it did."""

    def __init__(self, start: float, end: float, marks, steal: float,
                 latencies, kept, errors: int, next_round: int,
                 os_threads: int, runnable) -> None:
        self.start = start
        self.end = end
        #: ``(time, CPU seconds)`` at the start and at every completion.
        self.marks = sorted(marks)
        #: Host-wide share of wanted CPU time the hypervisor stole.
        self.steal = steal
        self.latencies = latencies
        self.kept = kept
        self.errors = errors
        self.next_round = next_round
        self.os_threads = os_threads
        #: Runnable threads of the workload, sampled every
        #: :data:`RUNNABLE_EVERY_S`.
        self.runnable = runnable

    @property
    def ops(self) -> int:
        return len(self.latencies)

    def cpu_per_op(self, scale=None) -> float:
        """CPU seconds the system used per completed operation: the
        window is cut at completions into chunks of at least
        :data:`CHUNK_S` (worker CPU time is read in clock ticks), and
        the median chunk's CPU per completion is returned, so a burst
        of interference moves one chunk, not the result.
        ``scale(cpu, [(start, end)])``, if given, converts each chunk's
        CPU seconds first."""
        rates = []
        t0, cpu0 = self.marks[0]
        done = 0
        for t, cpu in self.marks[1:]:
            done += 1
            if t - t0 >= CHUNK_S:
                used = cpu - cpu0
                if scale is not None:
                    used = scale(used, [(t0, t)])
                rates.append(used / done)
                t0, cpu0, done = t, cpu, 0
        if not rates:
            raise RuntimeError("window too short for one CPU chunk")
        return statistics.median(rates)


class CpuClock:
    """CPU seconds of this process and its spawned workers, less the
    speedometer thread's own (the kernel leaves out stolen time)."""

    def __init__(self, speed) -> None:
        self.speed = speed
        self.workers = None

    def find_workers(self) -> None:
        """Look up the spawned workers once, for readings in a loop."""
        self.workers = host.spawned_workers()

    def __call__(self) -> float:
        return host.cpu_seconds(self.workers) - self.speed.own_cpu_s()


def closed_loop(workload, system, inputs, first_round: int, cpu: CpuClock,
                *, seconds=None, rounds=None, record=True) -> Window:
    """Run every client for *seconds* (or *rounds* each) and return
    the window.  Client ``c`` in round ``r`` works on input index
    ``c + clients * r``; client 0 drains the system at the end."""
    clients = workload.clients
    latencies = [[] for _ in range(clients)]
    kept = [[] for _ in range(clients)]
    errors = [0] * clients
    done_rounds = [first_round] * clients
    clock = time.perf_counter
    cpu.find_workers()
    ticks = host.cpu_ticks()
    start = clock()
    marks = [(start, cpu())]
    deadline = None if seconds is None else start + seconds

    def client(c: int) -> None:
        r = first_round
        while (rounds is None or r < first_round + rounds) and \
                (deadline is None or clock() < deadline):
            t0 = clock()
            try:
                result = workload.op(system, inputs, c + clients * r)
            except Exception:
                if not any(errors):
                    traceback.print_exc(file=sys.stderr)
                errors[c] += 1
            else:
                t1 = clock()
                marks.append((t1, cpu()))
                latencies[c].append(t1 - t0)
                kept[c].append(workload.record(result) if record
                               else result)
            r += 1
        done_rounds[c] = r
        if c == 0:
            # Inside the window and on a client thread, so the traced
            # thread set stays the threads that do the workload's work.
            workload.drain(system)

    threads = [threading.Thread(target=client, args=(c,),
                                name=f"perfbench-client-{c}")
               for c in range(clients)]
    for thread in threads:
        thread.start()
    os_threads = host.os_threads()
    # The benchmark's own threads (this one, the speedometer) are not
    # the workload's.
    own = {threading.get_native_id()} | cpu.speed.native_ids
    pids = [0] + (cpu.workers or [])
    runnable = []
    alive = threads
    while alive:
        runnable.append(host.runnable_threads(pids, own))
        alive[0].join(RUNNABLE_EVERY_S)
        alive = [thread for thread in alive if thread.is_alive()]
    end = clock()
    steal = host.steal_share(ticks, host.cpu_ticks())
    return Window(start, end, marks, steal,
                  [x for per in latencies for x in per],
                  [x for per in kept for x in per],
                  sum(errors), max(done_rounds), os_threads, runnable)


def tail(latencies):
    """``(value, percentile)`` of the highest percentile that leaves at
    least :data:`TAIL_BEYOND` samples beyond it (the maximum when that
    percentile would not be above the median)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def set_up(workload, inputs, cpu: CpuClock):
    """Build the system and run its first, cold operation: one set-up,
    from the first constructor call to the end of the cold operation.
    Returns ``(system, cold result, CPU seconds, wall start, wall
    end)``."""
    # Look the workers up at each reading: a fleet spawns them here.
    cpu.workers = None
    c0 = cpu()
    t0 = time.perf_counter()
    system = workload.build()
    try:
        cold = workload.op(system, inputs, 0)
    except BaseException:
        workload.close(system)
        raise
    return system, cold, cpu() - c0, t0, time.perf_counter()


def measure(workload, inputs, seconds: float, trace: bool, speed) -> dict:
    """Set up, warm up, measure, tear down and verify."""
    from spans import SpanRecorder, layer_report, snapshot

    cpu = CpuClock(speed)

    def scale(used: float, intervals) -> float:
        """CPU seconds used in the ``(start, end)`` *intervals*, in
        nominal seconds."""
        return used / speed.factor(intervals) ** workload.speed_elasticity

    # The measured system is the first set-up, so its peak memory is
    # not raised by the other set-ups, which follow its windows.
    system, cold, used, t0, t1 = set_up(workload, inputs, cpu)
    setups = [(used, t0, t1)]
    recorder = SpanRecorder() if trace else None
    try:
        warm = closed_loop(workload, system, inputs, 1, cpu,
                           rounds=WARMUP_ROUNDS, record=False)
        warmup = [cold] + warm.kept
        errors = warm.errors
        if not trace:
            timed = closed_loop(workload, system, inputs, warm.next_round,
                                cpu, seconds=seconds)
            windows = [timed]
            peak_rss = host.peak_rss_mb()
        else:
            originals = snapshot()
            pairs = max(1, round(seconds / 2))
            untraced, traced = [], []
            cache_bytes = 0
            next_round = warm.next_round
            for _ in range(pairs):
                window = closed_loop(workload, system, inputs, next_round,
                                     cpu, seconds=seconds / (2 * pairs))
                untraced.append(window)
                with recorder:
                    window = closed_loop(workload, system, inputs,
                                         window.next_round, cpu,
                                         seconds=seconds / (2 * pairs))
                    cache_bytes = max(cache_bytes, recorder.cache_bytes())
                traced.append(window)
                next_round = window.next_round
            windows = untraced + traced
            now = snapshot()
            unrestored = [t for t in originals if now[t] is not originals[t]]
            if unrestored:
                raise RuntimeError(f"wrappers not restored: {unrestored}")
    finally:
        workload.close(system)
    try:
        while len(setups) < workload.setups:
            other, _, used, t0, t1 = set_up(workload, inputs, cpu)
            workload.close(other)
            setups.append((used, t0, t1))
    finally:
        _stop_resource_tracker()

    kept = [x for w in windows for x in w.kept]
    failures = workload.verify(inputs, warmup, kept)
    errors += sum(w.errors for w in windows)
    attempted = len(warmup) + len(kept) + errors
    failed = errors + failures["warmup"] + failures["timed"]
    runnable = [n for w in windows for n in w.runnable]
    result = {"attempted": attempted, "failed": failed,
              "verification": failures,
              "os_threads": max(w.os_threads for w in windows),
              "runnable_mean": statistics.mean(runnable),
              "runnable_median": statistics.median(runnable),
              "runnable_max": max(runnable),
              "steal_share": [w.steal for w in windows]}
    if not trace:
        latencies = timed.latencies
        if not latencies:
            raise RuntimeError("no operation completed in the window")
        tail_value, percentile = tail(latencies)
        # A set-up is too short for a steady factor of its own: the
        # median is scaled by the factor over all of them.
        raw_setup_s = statistics.median(used for used, _, _ in setups)
        result["metrics"] = {
            "setup_s": scale(raw_setup_s, [(t0, t1) for _, t0, t1 in setups]),
            "cpu_s_per_op": timed.cpu_per_op(scale),
            "peak_rss_mb": peak_rss,
        }
        result["wall_clock"] = {
            "setup_wall_s": statistics.median(t1 - t0 for _, t0, t1
                                              in setups),
            "latency_s_p50": statistics.median(latencies),
            "latency_s_tail": tail_value,
            "throughput_per_s": timed.ops / (timed.end - timed.start),
        }
        result["tail"] = {"percentile": percentile, "n": timed.ops}
        result["setup_samples_s"] = [used for used, _, _ in setups]
        result["raw_cpu"] = {
            "setup_s": raw_setup_s,
            "cpu_s_per_op": timed.cpu_per_op(),
        }
        result["host_factor"] = speed.factor([(timed.start, timed.end)])
        result["speed_elasticity"] = workload.speed_elasticity
    else:
        spans_windows = [(w.start, w.end, w.ops) for w in traced]
        metrics = layer_report(recorder, spans_windows, cache_bytes)
        traced_per_op = (sum(w.end - w.start for w in traced)
                         / sum(w.ops for w in traced))
        untraced_per_op = (sum(w.end - w.start for w in untraced)
                           / sum(w.ops for w in untraced))
        metrics["trace.overhead_ratio"] = traced_per_op / untraced_per_op
        result["metrics"] = metrics
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{workload.name}-seed{workload.seed}.jsonl"
        recorder.dump(str(path))
        result["spans_file"] = str(path.relative_to(ROOT))
        result["spans"] = len(recorder.spans)
        result["traced_ops"] = sum(w.ops for w in traced)
    return result


def _stop_resource_tracker() -> None:
    """Stop (and wait for) multiprocessing's resource tracker, which
    the fleet's shared memory starts; every process the run started
    must have ended before it exits."""
    from multiprocessing import resource_tracker
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and getattr(tracker, "_fd", None) is not None:
        tracker._stop()


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program under {ROOT / 'src'}; run from the "
              "root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    faulthandler.dump_traceback_later(WATCHDOG_S, exit=True)
    from workloads import get_workload
    from spans import metric_units
    from speedometer import Speedometer

    workload = get_workload(args.workload, args.seed)
    plan = host.thread_plan(workload.engine_workers, workload.clients)
    if not plan["fits"]:
        print(f"error: thread plan does not fit this host: {plan}",
              file=sys.stderr)
        return 3
    inputs = workload.make_inputs()
    with Speedometer() as speed:
        result = measure(workload, inputs, args.seconds, bool(args.trace),
                         speed)
    plan["os_threads_seen"] = result.pop("os_threads")
    for key in ("runnable_mean", "runnable_median", "runnable_max"):
        plan[key] = result.pop(key)
    # The median, not the mean: a thread woken for a moment while the
    # workers compute is not oversubscription.
    if plan["runnable_median"] > plan["nproc"]:
        print(f"error: the workload oversubscribed the CPUs: {plan}",
              file=sys.stderr)
        return 3
    units = metric_units() if args.trace else END_TO_END
    metrics = {name: {"value": float(result["metrics"][name]),
                      "unit": unit} for name, unit in units.items()}
    failed_frac = result["failed"] / result["attempted"]

    print(f"workload {workload.name}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    for name, metric in metrics.items():
        print(f"  {name:34s} {metric['value']:.6g} {metric['unit']}")
    for name, value in result.get("wall_clock", {}).items():
        note = ""
        if name == "latency_s_tail":
            note = (f" (p{result['tail']['percentile']:.1f}, "
                    f"n={result['tail']['n']})")
        print(f"  {name:34s} {value:.6g} {WALL_CLOCK[name]}{note}")
    print(f"  {'failed_frac':34s} {failed_frac:.6g} ratio "
          f"({result['failed']} of {result['attempted']})")
    print(f"  {'steal_share':34s} "
          f"{statistics.mean(result['steal_share']):.3g} ratio")
    report = {"workload": workload.name, "why": workload.why,
              "host": host.describe(args.seed), "thread_plan": plan,
              "failed_frac": {"value": failed_frac, "unit": "ratio"}}
    report.update({k: v for k, v in result.items()
                   if k not in ("metrics", "attempted", "failed")})
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
