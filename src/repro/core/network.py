"""The ConvNet training network (Sections III, VI; Algorithms 1–3).

:class:`Network` binds a :class:`repro.graph.ComputationGraph` to
runtime nodes/edges and executes gradient learning as a cascade of
tasks on a pluggable engine:

* one **forward task** per edge, queued when its source image is ready,
  whose execution FORCEs the edge's pending update task first;
* one **loss-gradient task** per output node (or one joint task for
  cross-node losses), queued as its output completes;
* one **backward task** per edge, which also creates and enqueues the
  edge's **update task** at the lowest priority, capturing the images
  the gradient needs;
* a **data-provider task** seeding the input nodes.

Convergent contributions are accumulated with the wait-free
:class:`repro.sync.ConcurrentSum`; the thread that adds the last image
finalises the node and queues the dependents — exactly Algorithms 1–3.

Update tasks are *deferred*: a training round completes when the
backward pass does, and pending updates either run on idle workers, are
FORCEd by the next round's forward pass, or are drained explicitly by
:meth:`Network.synchronize`.

Priorities come from :mod:`repro.graph.ordering`.  Convolution mode is
``"direct"``, ``"fft"``, a per-edge dict, or ``"auto"`` (layerwise
autotuning, Section IV); FFT mode memoizes spectra in a
:class:`repro.tensor.TransformCache` (Table II "(Memoized)") unless
``memoize=False``.
"""

from __future__ import annotations

import threading
import warnings
from typing import Dict, Mapping, Optional, Union

import numpy as np

from repro.core.edges import ConvEdge, RuntimeEdge, SharedKernel, \
    make_runtime_edge
from repro.core.loss import Loss, get_loss
from repro.core.nodes import RuntimeNode
from repro.core.optimizer import SGD
from repro.graph.computation_graph import ComputationGraph
from repro.graph.ordering import backward_priorities, forward_priorities
from repro.observability.metrics import get_registry
from repro.resilience.faults import active_plan
from repro.resilience.retry import RetryPolicy
from repro.scheduler.engine import LOWEST_PRIORITY, TaskEngine
from repro.scheduler.serial import SerialEngine
from repro.scheduler.strategies import make_scheduler
from repro.scheduler.task import Task, TaskState, force
from repro.tensor.fft_cache import TransformCache
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_array3

__all__ = ["Network"]

InputsLike = Union[np.ndarray, Mapping[str, np.ndarray]]


class Network:
    """A trainable ConvNet over an arbitrary computation graph.

    Parameters
    ----------
    graph:
        The computation graph (shapes need not be propagated yet).
    input_shape:
        Shape of the input image(s); all input nodes share it.
    conv_mode:
        ``"direct"``, ``"fft"``, ``"auto"`` (layerwise autotuning), or a
        per-edge-name dict.
    memoize:
        Enable FFT memoization (Table II "(Memoized)").
    optimizer:
        An :class:`repro.core.SGD` instance.
    loss:
        Loss name or instance (see :mod:`repro.core.loss`).
    num_workers:
        1 → deterministic serial engine; >1 → threaded
        :class:`TaskEngine` with that many workers.
    scheduler:
        Scheduling strategy name: ``"priority"`` (paper), ``"fifo"``,
        ``"lifo"``, ``"work-stealing"``.
    seed:
        Seed for weight init and dropout.
    fft_fast_sizes:
        Pad FFT transforms up to 5-smooth sizes (faster transforms,
        slightly more memory; results are bit-compatible to ~1e-12).
    deterministic_sums:
        Reduce convergent-node sums in fixed edge order
        (:class:`repro.sync.OrderedSum`) so results are bitwise
        identical across worker counts and schedules, at slightly
        higher memory (all contributions held until a node completes).
    retry_policy:
        Optional :class:`repro.resilience.RetryPolicy` handed to the
        engine: failed tasks re-execute with exponential backoff and
        (threaded engine only) tasks stuck past ``timeout`` are
        abandoned and re-issued.  See ``docs/robustness.md``.
    """

    def __init__(self, graph: ComputationGraph,
                 input_shape,
                 conv_mode: Union[str, Dict[str, str]] = "direct",
                 memoize: bool = True,
                 optimizer: Optional[SGD] = None,
                 loss: Union[str, Loss] = "euclidean",
                 num_workers: int = 1,
                 scheduler: str = "priority",
                 seed: SeedLike = None,
                 fft_fast_sizes: bool = False,
                 deterministic_sums: bool = False,
                 retry_policy: Optional[RetryPolicy] = None) -> None:
        graph.validate()
        graph.propagate_shapes(input_shape)
        self.graph = graph
        self.optimizer = optimizer if optimizer is not None else SGD()
        self.loss = get_loss(loss)
        self.cache = TransformCache(enabled=memoize)
        self.rng = as_generator(seed)

        # Resolve per-edge convolution modes.
        if conv_mode == "auto":
            from repro.core.autotune import autotune_graph
            modes: Dict[str, str] = autotune_graph(graph)
        elif isinstance(conv_mode, str):
            if conv_mode not in ("direct", "fft"):
                raise ValueError(
                    f"conv_mode must be direct|fft|auto, got {conv_mode!r}")
            modes = {e.name: conv_mode for e in graph.edges.values()
                     if e.kind == "conv"}
        else:
            modes = dict(conv_mode)
        self.conv_modes = modes

        # Runtime nodes and edges.
        self.nodes: Dict[str, RuntimeNode] = {
            name: RuntimeNode(spec) for name, spec in graph.nodes.items()}
        self.edges: Dict[str, RuntimeEdge] = {}
        for name, spec in graph.edges.items():
            edge = make_runtime_edge(
                spec, self.nodes[spec.src], self.nodes[spec.dst],
                mode=modes.get(name, "direct"), cache=self.cache,
                rng=self.rng, fast_sizes=fft_fast_sizes)
            self.edges[name] = edge
            self.nodes[spec.src].out_edges.append(edge)
            self.nodes[spec.dst].in_edges.append(edge)
        for node in self.nodes.values():
            node.wire(deterministic=deterministic_sums)
        for edge in self.edges.values():
            if isinstance(edge, ConvEdge):
                edge.on_degrade = self._record_degraded_edge

        fp = forward_priorities(graph)
        bp = backward_priorities(graph)
        for name, edge in self.edges.items():
            edge.fwd_priority = fp[name]
            edge.bwd_priority = bp[name]

        self.input_nodes = [n for n in self.nodes.values() if n.is_input]
        self.output_nodes = [n for n in self.nodes.values() if n.is_output]

        # Engine.
        self.num_workers = int(num_workers)
        if self.num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        if self.num_workers == 1:
            self.engine = SerialEngine(
                scheduler=make_scheduler(scheduler, 1),
                retry_policy=retry_policy)
        else:
            try:
                plan = active_plan()
                if plan is not None:
                    plan.check("engine-start", "engine-start")
                self.engine = TaskEngine(
                    self.num_workers,
                    scheduler=make_scheduler(scheduler, self.num_workers),
                    retry_policy=retry_policy).start()
            except Exception as exc:
                # Graceful degradation: a broken parallel runtime must
                # not kill the run — fall back to the serial engine.
                get_registry().counter("resilience.engine_degraded").inc()
                warnings.warn(
                    f"parallel engine failed to start "
                    f"({type(exc).__name__}: {exc}); degrading to the "
                    "serial engine", RuntimeWarning, stacklevel=2)
                self.num_workers = 1
                self.engine = SerialEngine(
                    scheduler=make_scheduler(scheduler, 1),
                    retry_policy=retry_policy)

        # Round bookkeeping.
        self._lock = threading.Lock()
        self._fwd_done = threading.Event()
        self._bwd_done = threading.Event()
        self._outputs_remaining = 0
        self._inputs_remaining = 0
        self._training = False
        self._targets: Dict[str, np.ndarray] = {}
        self._loss_parts: Dict[str, float] = {}
        self.rounds = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Drain pending updates and stop the engine."""
        self.synchronize()
        self.engine.shutdown()

    def __enter__(self) -> "Network":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:  # don't mask the original error with drain failures
            try:
                self.engine.shutdown()
            except BaseException:
                pass

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def forward(self, inputs: InputsLike) -> Dict[str, np.ndarray]:
        """Run one forward pass; returns {output node name: image}."""
        self._begin_round(training=False)
        self._seed_forward(inputs)
        self._await(self._fwd_done, "forward pass")
        return {n.name: np.array(n.fwd_image) for n in self.output_nodes}

    # deterministic
    def train_step(self, inputs: InputsLike,
                   targets: InputsLike) -> float:
        """One round of gradient learning (steps 1–5 of Section III).

        Returns the loss value.  Weight updates may still be pending
        when this returns (they are FORCEd by the next round or drained
        by :meth:`synchronize`) — the paper's deferred-update design.
        """
        self._begin_round(training=True)
        self._targets = self._normalize_targets(targets)
        self._seed_forward(inputs)
        self._await(self._bwd_done, "training round")
        self.rounds += 1
        return self._loss_value()

    def _loss_value(self) -> float:
        """Round loss: per-node parts reduced in sorted-name order so
        the value is schedule-independent."""
        with self._lock:
            parts = dict(self._loss_parts)
        total = 0.0
        for name in sorted(parts):
            total += parts[name]
        return total

    def synchronize(self) -> None:
        """Execute every pending update task (steal-or-wait)."""
        if isinstance(self.engine, SerialEngine):
            self.engine.run_until_idle()
            return
        for edge in self.edges.values():
            task = edge.update_task
            if task is None:
                continue
            if task.try_steal():
                task.execute()
            else:
                while task.state is not TaskState.COMPLETED:
                    if self.engine.errors:
                        raise self.engine.errors[0]
                    threading.Event().wait(0.0005)

    def outputs(self) -> Dict[str, np.ndarray]:
        """Output images of the most recent forward pass."""
        return {n.name: np.array(n.fwd_image) for n in self.output_nodes
                if n.fwd_image is not None}

    def kernels(self) -> Dict[str, np.ndarray]:
        """Current kernel of every convolution edge (copies)."""
        return {name: np.array(e.kernel.array)
                for name, e in self.edges.items() if hasattr(e, "kernel")}

    def biases(self) -> Dict[str, float]:
        """Current bias of every transfer edge."""
        return {name: e.bias for name, e in self.edges.items()
                if hasattr(e, "bias")}

    def set_kernel(self, edge_name: str, kernel: np.ndarray) -> None:
        """Overwrite one conv edge's kernel (e.g. to copy weights
        between a max-pooling net and its max-filtering equivalent)."""
        edge = self.edges[edge_name]
        if not hasattr(edge, "kernel"):
            raise ValueError(f"edge {edge_name!r} has no kernel")
        arr = np.asarray(kernel, dtype=np.float64)
        if arr.shape != edge.kernel.array.shape:
            raise ValueError(
                f"kernel shape {arr.shape} != {edge.kernel.array.shape}")
        edge.kernel.array[...] = arr

    def set_bias(self, edge_name: str, bias: float) -> None:
        edge = self.edges[edge_name]
        if not hasattr(edge, "bias"):
            raise ValueError(f"edge {edge_name!r} has no bias")
        edge.bias = float(bias)

    def share_kernels(self, edge_names) -> SharedKernel:
        """Make the named conv edges share one kernel parameter (the
        scale-invariant weight-sharing extension).  The first edge's
        kernel becomes the shared one."""
        names = list(edge_names)
        if len(names) < 2:
            raise ValueError("need at least two edges to share")
        first = self.edges[names[0]]
        if not hasattr(first, "kernel"):
            raise ValueError(f"edge {names[0]!r} has no kernel")
        shared = first.kernel
        for name in names[1:]:
            edge = self.edges[name]
            if not hasattr(edge, "kernel"):
                raise ValueError(f"edge {name!r} has no kernel")
            if edge.kernel.array.shape != shared.array.shape:
                raise ValueError("shared kernels must have equal shapes")
            edge.kernel = shared
        return shared

    def set_learning_rate(self, learning_rate: float) -> None:
        """Replace the optimizer's global learning rate (used by
        learning-rate schedules; momentum state is preserved on the
        edges, which own it)."""
        import dataclasses

        self.optimizer = dataclasses.replace(self.optimizer,
                                             learning_rate=learning_rate)

    def _record_degraded_edge(self, edge: ConvEdge) -> None:
        """FFT-fallback hook: keep the autotune state (``conv_modes``)
        in sync with the mode each edge actually executes, so
        inspection and re-planning tooling see the truth."""
        self.conv_modes[edge.name] = "direct"

    def set_training(self, training: bool) -> None:
        """Toggle train/inference behaviour of dropout edges."""
        for edge in self.edges.values():
            if hasattr(edge, "training"):
                edge.training = bool(training)

    # ------------------------------------------------------------------
    # round machinery
    # ------------------------------------------------------------------

    def _normalize_inputs(self, inputs: InputsLike) -> Dict[str, np.ndarray]:
        if isinstance(inputs, Mapping):
            images = {k: check_array3(v, f"input {k!r}") for k, v in inputs.items()}
        else:
            if len(self.input_nodes) != 1:
                raise ValueError(
                    f"network has {len(self.input_nodes)} input nodes; "
                    "pass a dict of inputs")
            images = {self.input_nodes[0].name:
                      check_array3(inputs, "input")}
        for node in self.input_nodes:
            if node.name not in images:
                raise ValueError(f"missing input for node {node.name!r}")
            if images[node.name].shape != node.shape:
                raise ValueError(
                    f"input {node.name!r} has shape "
                    f"{images[node.name].shape}, expected {node.shape}")
        return images

    def _normalize_targets(self, targets: InputsLike) -> Dict[str, np.ndarray]:
        if isinstance(targets, Mapping):
            imgs = {k: check_array3(v, f"target {k!r}") for k, v in targets.items()}
        else:
            if len(self.output_nodes) != 1:
                raise ValueError(
                    f"network has {len(self.output_nodes)} output nodes; "
                    "pass a dict of targets")
            imgs = {self.output_nodes[0].name: check_array3(targets, "target")}
        for node in self.output_nodes:
            if node.name not in imgs:
                raise ValueError(f"missing target for node {node.name!r}")
            if imgs[node.name].shape != node.shape:
                raise ValueError(
                    f"target {node.name!r} has shape "
                    f"{imgs[node.name].shape}, expected {node.shape}")
        return imgs

    def _begin_round(self, training: bool) -> None:
        if getattr(self.engine, "errors", None):
            raise self.engine.errors[0]
        self.cache.next_round()
        for node in self.nodes.values():
            node.reset_round()
        with self._lock:
            self._training = training
            self._outputs_remaining = len(self.output_nodes)
            self._inputs_remaining = len(self.input_nodes)
            self._loss_parts = {}
        self._fwd_done.clear()
        self._bwd_done.clear()

    def _seed_forward(self, inputs: InputsLike) -> None:
        images = self._normalize_inputs(inputs)

        def provider() -> None:
            for node in self.input_nodes:
                node.fwd_image = images[node.name].copy()
                self._node_forward_complete(node)

        self.engine.spawn(provider, priority=-1, name="provider")
        if isinstance(self.engine, SerialEngine):
            self.engine.run_until_idle()

    def _await(self, event: threading.Event, what: str,
               timeout: float = 300.0) -> None:
        if isinstance(self.engine, SerialEngine):
            self.engine.run_until_idle()
            if not event.is_set():
                raise RuntimeError(f"{what} did not complete (queue drained)")
            return
        deadline = timeout
        step = 0.05
        waited = 0.0
        while not event.wait(step):
            if self.engine.errors:
                raise self.engine.errors[0]
            waited += step
            if waited >= deadline:
                raise TimeoutError(f"{what} did not complete in {deadline}s")

    # -- forward -----------------------------------------------------------

    def _spawn_forward_task(self, edge: RuntimeEdge) -> None:
        """Queue the FORWARD-TASK of Algorithm 1 for *edge*."""

        def forward_task() -> None:
            # FORCE the pending update (from the previous round) and run
            # DO-FORWARD afterwards, on whichever thread wins.
            subtask = Task(lambda: self._do_forward(edge),
                           name=f"do-fwd:{edge.name}")
            force(edge.update_task, subtask)

        self.engine.spawn(forward_task, priority=edge.fwd_priority,
                          name=f"fwd:{edge.name}")

    def _do_forward(self, edge: RuntimeEdge) -> None:
        contribution = edge.forward(edge.src.fwd_image)
        if edge.dst.add_forward(edge, contribution):
            edge.dst.finalize_forward()
            self._node_forward_complete(edge.dst)

    def _node_forward_complete(self, node: RuntimeNode) -> None:
        if node.is_output:
            self._output_ready(node)
            return
        for out_edge in node.out_edges:
            self._spawn_forward_task(out_edge)

    def _output_ready(self, node: RuntimeNode) -> None:
        with self._lock:
            self._outputs_remaining -= 1
            last = self._outputs_remaining == 0
            training = self._training
        if not training:
            if last:
                self._fwd_done.set()
            return
        if self.loss.per_node:
            self._spawn_lossgrad(node)
            if last:
                self._fwd_done.set()
        elif last:
            self._spawn_joint_lossgrad()
            self._fwd_done.set()

    # -- loss gradient -------------------------------------------------------

    def _spawn_lossgrad(self, node: RuntimeNode) -> None:
        def lossgrad() -> None:
            value, grad = self.loss.node_value_and_gradient(
                node.fwd_image, self._targets[node.name])
            with self._lock:
                self._loss_parts[node.name] = value
            node.bwd_image = grad
            self._node_backward_complete(node)

        self.engine.spawn(lossgrad, priority=-1,
                          name=f"lossgrad:{node.name}")

    def _spawn_joint_lossgrad(self) -> None:
        def lossgrad() -> None:
            outputs = {n.name: n.fwd_image for n in self.output_nodes}
            value, grads = self.loss.joint_value_and_gradient(
                outputs, self._targets)
            with self._lock:
                self._loss_parts["__joint__"] = value
            for n in self.output_nodes:
                n.bwd_image = grads[n.name]
                self._node_backward_complete(n)

        self.engine.spawn(lossgrad, priority=-1, name="lossgrad:joint")

    # -- backward -------------------------------------------------------------

    def _node_backward_complete(self, node: RuntimeNode) -> None:
        if node.is_input:
            with self._lock:
                self._inputs_remaining -= 1
                last = self._inputs_remaining == 0
            if last:
                self._bwd_done.set()
            return
        for in_edge in node.in_edges:
            self.engine.spawn(lambda e=in_edge: self._backward_task(e),
                              priority=in_edge.bwd_priority,
                              name=f"bwd:{in_edge.name}")

    def _backward_task(self, edge: RuntimeEdge) -> None:
        contribution = edge.backward(edge.dst.bwd_image)
        if edge.is_trainable:
            update_fn = edge.capture_update(self.optimizer)
            task = Task(update_fn, priority=LOWEST_PRIORITY,
                        name=f"upd:{edge.name}")
            edge.update_task = task
            self.engine.submit(task)
        if edge.src.add_backward(edge, contribution):
            edge.src.finalize_backward()
            self._node_backward_complete(edge.src)
