#!/usr/bin/env python
"""Engine introspection: traced training, the metrics registry,
Chrome-trace export, automatic strategy selection, and checkpointing.

Demonstrates the infrastructure around the core trainer:

1. enable span tracing and see where one round of gradient learning
   spends its time (forward / backward / update / loss tasks), including
   queue waits;
2. read the process-global metrics registry — queue traffic, FFT-cache
   hit rate, allocator pressure — and export the trace as
   ``chrome://tracing`` JSON;
3. let the Section X future-work selector pick a scheduling strategy
   for this network by simulating its task graph under every policy;
4. checkpoint the trained network and restore it into a fresh instance.

Run:  python examples/profiling_and_strategies.py
"""

import json
import os
import tempfile

import numpy as np

from repro import Network, RandomProvider, SGD, Trainer, build_layered_network
from repro.core import load_network, save_network
from repro.observability import get_registry, render_metrics
from repro.observability.tracing import (
    Tracer,
    set_tracer,
    spans_to_chrome_trace,
    task_summary,
)
from repro.scheduler import select_strategy


def main() -> None:
    graph = build_layered_network("CTMCTCT", width=4, kernel=3, window=2,
                                  skip_kernels=True, transfer="tanh",
                                  final_transfer="linear", output_nodes=1)
    graph.propagate_shapes((26, 26, 26))

    # -- 3. pick a scheduling strategy by simulation -------------------
    choice = select_strategy(graph, num_workers=2)
    print("strategy selection (simulated makespans, FLOP-units):")
    for policy, makespan in sorted(choice.policy_makespans.items(),
                                   key=lambda kv: kv[1]):
        print(f"  {policy:>10}: {makespan:.3g}")
    print(f"  -> chosen scheduler: {choice.scheduler}\n")

    # -- 1. traced training --------------------------------------------
    registry = get_registry()
    registry.reset()  # start the counters from zero for this run
    tracer = Tracer(enabled=True)
    previous_tracer = set_tracer(tracer)  # every task becomes a span
    net = Network(graph, input_shape=(26, 26, 26), conv_mode="auto",
                  seed=0, num_workers=2, scheduler=choice.scheduler,
                  optimizer=SGD(learning_rate=1e-4, momentum=0.9))
    provider = RandomProvider((26, 26, 26), net.output_nodes[0].shape,
                              seed=1)
    Trainer(net, provider).run(rounds=5)
    net.synchronize()
    set_tracer(previous_tracer)

    spans = tracer.spans()
    summary = task_summary(spans)
    total = sum(summary.time_per_family.values())
    print(f"traced {summary.tasks} tasks over {summary.span:.3f}s "
          f"({summary.workers} workers, "
          f"utilization {summary.utilization:.0%}, "
          f"mean queue wait {summary.mean_queue_wait * 1e3:.2f}ms):")
    for family, seconds in sorted(summary.time_per_family.items(),
                                  key=lambda kv: -kv[1]):
        print(f"  {family:>10}: {seconds:7.3f}s ({seconds / total:5.1%})")

    # -- 2. metrics registry + Chrome-trace export ----------------------
    print()
    print(render_metrics(registry=registry,
                         title="metrics after 5 training rounds"))
    trace_path = os.path.join(tempfile.gettempdir(), "repro_example.trace.json")
    with open(trace_path, "w") as fh:
        json.dump(spans_to_chrome_trace(spans), fh)
    print(f"\nChrome trace written to {trace_path} "
          "(load it in chrome://tracing or https://ui.perfetto.dev)")

    # -- 4. checkpoint round-trip ---------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.npz")
        save_network(net, path)
        restored = Network(graph, input_shape=(26, 26, 26),
                           conv_mode="direct", seed=999)
        rounds = load_network(restored, path)
        x, _ = provider.sample()
        a = net.forward(x)
        b = restored.forward(x)
        name = net.output_nodes[0].name
        print(f"\ncheckpoint: {rounds} rounds restored; "
              f"max |output difference| = "
              f"{np.abs(a[name] - b[name]).max():.2e}")
        restored.close()
    net.close()


if __name__ == "__main__":
    main()
