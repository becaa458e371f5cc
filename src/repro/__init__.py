"""repro — a reproduction of ZNN (Zlateski, Lee & Seung, IPDPS 2016):
fast and scalable training of 3D convolutional networks on multi-core
and many-core shared-memory machines.

Subpackages
-----------
``repro.core``
    The paper's contribution: task-parallel ConvNet training
    (:class:`~repro.core.Network`), direct/FFT autotuned convolution,
    FFT memoization, losses, SGD, dense-output inference, multi-scale
    and dropout extensions.
``repro.tensor``
    Convolution (direct & FFT, sparse/dilated), max-pooling,
    max-filtering, transfer functions, FFT memoization cache.
``repro.graph``
    Computation graphs, layered builders, priority orderings, the task
    dependency graph.
``repro.scheduler``
    Priority task engine with the FORCE protocol; FIFO/LIFO/
    work-stealing alternatives; serial baseline.
``repro.sync``
    Wait-free concurrent summation; heap-of-lists priority queue.
``repro.memory``
    Pooled power-of-two allocators.
``repro.observability``
    Metrics registry (thread-safe counters/gauges/histograms) fed by
    every subsystem above, plus Chrome-trace and snapshot exporters.
``repro.pram``
    FLOP cost model (Tables I–IV) and Brent-bound speedups (Fig 4).
``repro.simulate``
    Table V machine models and the discrete-event scheduler used to
    reproduce the scalability figures (Figs 5–7).
``repro.baselines``
    Calibrated GPU cost models and the CPU-vs-GPU harness (Figs 8–9).
``repro.data``
    Synthetic connectomics-style volumes, providers, metrics.

Quickstart
----------
>>> from repro import Network, build_layered_network, SGD
>>> graph = build_layered_network("CTMCTMCTCT", width=4, kernel=3,
...                               window=2, skip_kernels=True,
...                               output_nodes=1)
>>> net = Network(graph, input_shape=(30, 30, 30), conv_mode="auto",
...               optimizer=SGD(learning_rate=0.01), num_workers=2)
"""

from repro.core import (
    Network,
    SGD,
    Trainer,
    TrainingReport,
    autotune_graph,
    copy_parameters,
    dense_equivalent_network,
    get_loss,
    sliding_window_forward,
)
from repro.data import PatchProvider, RandomProvider, make_cell_volume
from repro.graph import (
    ComputationGraph,
    build_layered_network,
    build_task_graph,
    pool_to_filter_spec,
)
from repro.observability import (
    MetricsRegistry,
    get_registry,
    metrics_snapshot,
)
from repro.scheduler import SerialEngine, TaskEngine
from repro.simulate import MACHINES, get_machine, simulate_schedule

__version__ = "1.0.0"

__all__ = [
    "Network",
    "SGD",
    "Trainer",
    "TrainingReport",
    "autotune_graph",
    "copy_parameters",
    "dense_equivalent_network",
    "get_loss",
    "sliding_window_forward",
    "PatchProvider",
    "RandomProvider",
    "make_cell_volume",
    "ComputationGraph",
    "build_layered_network",
    "build_task_graph",
    "pool_to_filter_spec",
    "SerialEngine",
    "TaskEngine",
    "MetricsRegistry",
    "get_registry",
    "metrics_snapshot",
    "MACHINES",
    "get_machine",
    "simulate_schedule",
    "__version__",
]
