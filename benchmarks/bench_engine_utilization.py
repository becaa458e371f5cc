"""Live-engine utilization (instrumented traces).

Runs traced training rounds and reports per-family time split (forward/
backward/update/FFT work) and worker utilization — the live-engine
counterpart of the DES utilization numbers behind Figs 5–7.  Also
benchmarks the two future-work features: thread-local allocation and
automatic strategy selection.
"""

import numpy as np
import pytest

from _bench_utils import fmt, print_table
from repro.analysis import runtime as check_runtime
from repro.core import Network, SGD
from repro.graph import build_layered_network
from repro.memory import PoolAllocator, ThreadLocalAllocator
from repro.observability import get_registry, render_metrics
from repro.observability.tracing import Tracer, set_tracer, task_summary
from repro.scheduler import select_strategy
from repro.sync import HeapOfLists


def training(num_workers=2, rounds=2):
    """Training rounds of the utilization workload under whichever
    tracer is installed."""
    graph = build_layered_network("CTMCT", width=3, kernel=3, window=2,
                                  transfer="tanh")
    net = Network(graph, input_shape=(18, 18, 18), conv_mode="fft",
                  seed=0, num_workers=num_workers,
                  optimizer=SGD(learning_rate=1e-3))
    rng = np.random.default_rng(1)
    x = rng.standard_normal((18, 18, 18))
    targets = {n.name: np.zeros(n.shape) for n in net.output_nodes}
    for _ in range(rounds):
        net.train_step(x, targets)
    net.synchronize()
    net.close()


def traced_training(num_workers=2, rounds=2):
    """The same rounds under a fresh enabled tracer; returns the task
    summary of their spans."""
    tracer = Tracer(enabled=True, process="bench")
    previous = set_tracer(tracer)
    try:
        training(num_workers, rounds)
    finally:
        set_tracer(previous)
    return task_summary(tracer.spans())


def test_print_family_breakdown():
    summary = traced_training()
    total = sum(summary.time_per_family.values())
    rows = [[family, fmt(seconds, 3), fmt(seconds / total, 3)]
            for family, seconds in sorted(summary.time_per_family.items(),
                                          key=lambda kv: -kv[1])]
    print_table("traced training: time per task family",
                ["family", "seconds", "fraction"], rows)
    assert {"provider", "fwd", "bwd", "lossgrad"} <= set(
        summary.time_per_family)
    # forward+backward convolution work dominates a conv net
    heavy = (summary.time_per_family.get("fwd", 0)
             + summary.time_per_family.get("bwd", 0)
             + summary.time_per_family.get("upd", 0))
    assert heavy > 0.5 * total


def test_print_worker_utilization():
    s = traced_training(num_workers=2)
    rows = [[w, fmt(b, 3)] for w, b in sorted(s.busy_per_worker.items())]
    print_table(f"worker busy time over span {s.span:.3f}s "
                f"(utilization {s.utilization:.0%})",
                ["worker", "busy s"], rows)
    assert 0 < s.utilization <= 1.0


def test_autoselect_report():
    graph = build_layered_network("CTMCT", width=4, kernel=3, window=2)
    graph.propagate_shapes(16)
    choice = select_strategy(graph, num_workers=4)
    rows = [[p, fmt(m / 1e6, 4)] for p, m in
            sorted(choice.policy_makespans.items(), key=lambda kv: kv[1])]
    print_table(f"strategy autoselect (chosen: {choice.scheduler})",
                ["policy", "makespan (MFLOP-units)"], rows)
    assert choice.scheduler in ("priority", "fifo", "lifo",
                                "work-stealing")


def test_thread_local_allocator_report():
    shared = PoolAllocator(alignment=64)
    tl = ThreadLocalAllocator(backing=shared, local_capacity=4)
    for _ in range(100):
        a = tl.allocate_array((16, 16, 16))
        tl.deallocate_array(a)
    print_table("thread-local allocator after 100 alloc/free cycles",
                ["local hit rate", "global requests"],
                [[fmt(tl.local_hit_rate, 3), tl.global_requests]])
    assert tl.local_hit_rate > 0.9


def test_print_metrics_registry_snapshot():
    """A traced run's registry snapshot — the same counters the CLI's
    ``repro metrics`` command prints."""
    reg = get_registry()
    reg.reset()
    traced_training(num_workers=1, rounds=1)
    snap = reg.snapshot()
    print(render_metrics(snap, title="registry after one traced round"))
    assert snap.get("queue.pop", 0) > 0
    assert any(name.startswith("engine.tasks") for name in snap)


def test_bench_traced_round(benchmark):
    benchmark(traced_training, 1, 1)


def test_bench_traced_round_metrics_disabled(benchmark):
    """Same round with the registry in no-op mode — compare against
    test_bench_traced_round to bound instrumentation overhead (<5%)."""
    reg = get_registry()
    reg.disable()
    try:
        benchmark(traced_training, 1, 1)
    finally:
        reg.enable()


def test_bench_traced_round_span_tracing(benchmark):
    """Same round with span tracing on (REPRO_TRACING semantics) —
    compare against test_bench_traced_round_span_tracing_off to see the
    per-span cost in situ.  Span recording costs ~3µs/span micro
    (open + close + ring append); at this toy 18³ scale the round is
    only a few ms, so the relative overhead is larger than at the
    representative volumes the CI trace-smoke lane gates at ≤5%."""
    previous = set_tracer(Tracer(enabled=True, process="bench"))
    try:
        benchmark(training, 1, 1)
    finally:
        set_tracer(previous)


def test_bench_traced_round_span_tracing_off(benchmark):
    """The tracing-off fast path (one enabled-check branch per
    instrumentation site) — the pair of
    test_bench_traced_round_span_tracing."""
    previous = set_tracer(Tracer(enabled=False, process="bench"))
    try:
        benchmark(training, 1, 1)
    finally:
        set_tracer(previous)


def test_bench_traced_round_repro_check(benchmark):
    """Same round with the REPRO_CHECK runtime checker enabled —
    compare against test_bench_traced_round for the debug-mode cost
    (CheckedLock + lockset notes on every queue/pool/cache op)."""
    if check_runtime.checking_enabled():
        pytest.skip("REPRO_CHECK already on; baseline bench meaningless")
    check_runtime.enable_checks()
    try:
        benchmark(traced_training, 1, 1)
        check_runtime.assert_clean()
    finally:
        check_runtime.disable_checks()


def test_bench_queue_cycle_checker_off(benchmark):
    """Hot-path cost with checking off (the default, and the shipped
    configuration): make_lock() handed the queue a plain
    threading.Lock and each op pays one captured-bool branch — the
    <1%-when-off budget of docs/static_analysis.md.  Compare with
    test_bench_queue_cycle_checker_on."""
    if check_runtime.checking_enabled():
        pytest.skip("REPRO_CHECK already on; off-mode bench meaningless")
    queue = HeapOfLists()

    def cycle():
        queue.push(1, "item")
        queue.pop(block=False)

    benchmark(cycle)


def test_bench_queue_cycle_checker_on(benchmark):
    check_runtime.enable_checks()
    try:
        queue = HeapOfLists()

        def cycle():
            queue.push(1, "item")
            queue.pop(block=False)

        benchmark(cycle)
        check_runtime.assert_clean()
    finally:
        check_runtime.disable_checks()


def test_bench_autoselect(benchmark):
    graph = build_layered_network("CTC", width=3, kernel=2)
    graph.propagate_shapes(12)
    benchmark(select_strategy, graph, 4)


def test_bench_thread_local_cycle(benchmark):
    tl = ThreadLocalAllocator(local_capacity=4)
    a = tl.allocate_array((16, 16, 16))
    tl.deallocate_array(a)

    def cycle():
        arr = tl.allocate_array((16, 16, 16))
        tl.deallocate_array(arr)

    benchmark(cycle)
