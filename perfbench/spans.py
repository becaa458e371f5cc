"""Outside-in span tracing for the benchmark's traced run.

The program is not changed.  :class:`SpanRecorder` replaces public
functions and methods of ``repro`` at the place their callers look them
up -- a module global such as ``repro.core.edges.correlate_valid`` or a
class attribute such as ``Task.execute`` -- with a wrapper that records
one span per call, and puts every original back on :meth:`restore`.

A span is ``(id, target, start, end, thread, parent, key)``; ``parent``
is the innermost wrapped call open on the same thread when the span
began (0 at top level), and ``key`` ties a request's spans together
(the ``id`` of its volume; 0 when unused).  Spans are kept in memory
and written out by :meth:`SpanRecorder.dump`.

:func:`layer_report` turns the spans of one traced window into
per-operation rows: each row is the *self time* of the wrapped calls of
one layer (a span's duration minus the part its child spans cover),
clipped to the window.  ``unattributed_s`` is the rest of the window's
thread-seconds (every thread that recorded a span counts for the whole
window), so the rows always add up to the thread-seconds; a large
``unattributed_s`` means a layer is missing from :data:`TARGETS`.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Dict, Iterable, List, Sequence, Tuple

#: ``(target, layer)``.  A target is ``module:attr`` or
#: ``module:Class.attr``, named where the program's callers look it up.
#: Several targets may share a layer; the layer names the row.
TARGETS: Tuple[Tuple[str, str], ...] = (
    ("repro.tensor.conv_fft:forward_transform", "tensor.fourier.fwd"),
    ("repro.core.edges:forward_transform", "tensor.fourier.fwd"),
    ("repro.tensor.conv_fft:inverse_transform", "tensor.fourier.inv"),
    ("repro.tensor.conv_fft:FftConvPlan.image_spectrum", "tensor.conv_fft"),
    ("repro.tensor.conv_fft:FftConvPlan.grad_spectrum", "tensor.conv_fft"),
    ("repro.tensor.conv_fft:FftConvPlan.kernel_spectrum", "tensor.conv_fft"),
    ("repro.tensor.conv_fft:FftConvPlan.forward_product", "tensor.conv_fft"),
    ("repro.tensor.conv_fft:FftConvPlan.backward_product", "tensor.conv_fft"),
    ("repro.tensor.conv_fft:FftConvPlan.update_product", "tensor.conv_fft"),
    ("repro.tensor.conv_fft:FftConvPlan.finalize_forward", "tensor.conv_fft"),
    ("repro.tensor.conv_fft:FftConvPlan.finalize_backward",
     "tensor.conv_fft"),
    ("repro.tensor.conv_fft:FftConvPlan.finalize_update", "tensor.conv_fft"),
    ("repro.tensor.fft_cache:TransformCache.get_or_compute",
     "tensor.fft_cache"),
    ("repro.core.edges:correlate_valid", "tensor.conv_direct"),
    ("repro.core.edges:conv_backward_input", "tensor.conv_direct"),
    ("repro.core.edges:conv_kernel_gradient", "tensor.conv_direct"),
    ("repro.tensor.transfer:TransferFunction.apply", "tensor.pointwise"),
    ("repro.tensor.transfer:TransferFunction.backward", "tensor.pointwise"),
    ("repro.core.edges:max_pool_forward", "tensor.pointwise"),
    ("repro.core.edges:max_pool_backward", "tensor.pointwise"),
    ("repro.core.edges:max_filter_forward", "tensor.pointwise"),
    ("repro.core.edges:max_filter_backward", "tensor.pointwise"),
    ("repro.sync.summation:ConcurrentSum.add", "sync.summation"),
    ("repro.sync.summation:OrderedSum.add", "sync.summation"),
    ("repro.sync.priority_queue:HeapOfLists.push", "sync.queue.push"),
    ("repro.sync.priority_queue:HeapOfLists.pop", "sync.queue.pop"),
    ("repro.scheduler.task:Task.execute", "scheduler.task"),
    ("repro.core.optimizer:SGD.update", "core.optimizer"),
    ("repro.core.optimizer:SGD.update_scalar", "core.optimizer"),
    ("repro.core.network:Network.forward", "core.forward"),
    ("repro.core.network:Network.train_step", "core.train_step"),
    ("repro.serving.registry:WarmModel.run", "serving.warm_model"),
    ("repro.serving.registry:run_plan", "serving.tiler"),
    ("repro.serving.pipeline:InferenceServer.submit",
     "serving.pipeline.submit"),
    ("repro.serving.pipeline:PendingRequest.result",
     "serving.pipeline.result"),
    ("repro.serving.fleet:FleetServer.submit", "serving.fleet.submit"),
    # Inherited from PendingRequest: the wrapper is set on the subclass,
    # where ``request.result()`` finds it first, and deleted again.
    ("repro.serving.fleet:FleetRequest.result", "serving.fleet.result"),
)

#: The compute callable handed to ``TransformCache.get_or_compute`` is
#: wrapped too; a span of this pseudo-target marks a cache miss (a
#: racing duplicate compute counts as a miss).
CACHE_COMPUTE = "repro.tensor.fft_cache:<compute>"

#: Layer -> self-time row.  Every layer has exactly one row.
ROWS: Dict[str, str] = {
    "tensor.fourier.fwd": "tensor.fourier.fwd_s",
    "tensor.fourier.inv": "tensor.fourier.inv_s",
    "tensor.conv_fft": "tensor.conv_fft.s",
    "tensor.fft_cache": "tensor.fft_cache.s",
    "tensor.conv_direct": "tensor.conv_direct.s",
    "tensor.pointwise": "tensor.pointwise.s",
    "sync.summation": "sync.summation.s",
    "sync.queue.push": "sync.queue.push_s",
    "sync.queue.pop": "sync.queue.pop_wait_s",
    "scheduler.task": "scheduler.task_overhead_s",
    "core.optimizer": "core.optimizer.s",
    "core.forward": "core.network.s",
    "core.train_step": "core.network.s",
    "serving.warm_model": "serving.warm_model.lock_wait_s",
    "serving.tiler": "serving.tiler.stitch_s",
    "serving.pipeline.submit": "serving.pipeline.submit_s",
    "serving.pipeline.result": "serving.pipeline.result_wait_s",
    "serving.fleet.submit": "serving.fleet.submit_s",
    "serving.fleet.result": "serving.fleet.roundtrip_s",
}

#: Per-operation call counts: metric -> layer whose calls it counts.
COUNTS: Dict[str, str] = {
    "tensor.fourier.fwd_calls": "tensor.fourier.fwd",
    "tensor.fourier.inv_calls": "tensor.fourier.inv",
    "tensor.conv_fft.calls": "tensor.conv_fft",
    "tensor.fft_cache.lookups": "tensor.fft_cache",
    "tensor.conv_direct.calls": "tensor.conv_direct",
    "sync.summation.adds": "sync.summation",
    "sync.queue.pushes": "sync.queue.push",
    "scheduler.tasks": "scheduler.task",
    "core.forward.calls": "core.forward",
}

UNATTRIBUTED = "unattributed_s"


def row_names() -> List[str]:
    """Every self-time row, ``unattributed_s`` last."""
    return sorted(set(ROWS.values())) + [UNATTRIBUTED]


def metric_units() -> Dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {name: "s" for name in row_names()}
    for name in COUNTS:
        units[name] = "count"
    units.update({
        "tensor.fft_cache.hit_frac": "ratio",
        "tensor.fft_cache.bytes": "bytes",
        "core.forward_s_per_tile": "s",
        "serving.pipeline.queue_wait_s": "s",
        "serving.tiler.tiles": "count",
        "trace.threads": "count",
        "trace.thread_s": "s",
        "trace.overhead_ratio": "ratio",
    })
    return units


_MISSING = object()

#: Span keys: the id of the request's volume, so a pipeline request's
#: submit and its WarmModel.run can be matched.
_KEYS = {
    "repro.serving.pipeline:InferenceServer.submit":
        lambda args, request: id(request.volume) if request else 0,
    "repro.serving.registry:WarmModel.run": lambda args, _: id(args[1]),
}


def _resolve(target: str):
    """``(owner, attr)`` for *target*: a module or a class, and a name."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *classes, attr = path.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return owner, attr


def snapshot() -> Dict[str, object]:
    """What each target's owner holds under its name right now (a
    sentinel for an inherited attribute); compare with ``is``."""
    out = {}
    for target, _ in TARGETS:
        owner, attr = _resolve(target)
        out[target] = vars(owner).get(attr, _MISSING)
    return out


class SpanRecorder:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self) -> None:
        self.layers = dict(TARGETS)
        self.layers[CACHE_COMPUTE] = "tensor.fft_cache"
        #: ``(id, target, start, end, thread, parent, key)`` per call.
        self.spans: List[tuple] = []
        #: Every TransformCache a wrapped lookup touched (for bytes).
        self.caches: Dict[int, object] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: List[tuple] = []

    # -- install / restore --------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("span wrappers are already installed")
        # Look every target up before patching any, so a subclass
        # target wraps the inherited original, not its parent's wrapper.
        found = []
        for target, _ in TARGETS:
            owner, attr = _resolve(target)
            current = getattr(owner, attr)
            if not callable(current):
                raise TypeError(f"{target} is not callable")
            found.append((target, owner, attr, current))
        try:
            for target, owner, attr, current in found:
                if target.endswith("TransformCache.get_or_compute"):
                    wrapper = self._wrap_cache_lookup(current, target)
                else:
                    wrapper = self._wrap(current, target,
                                         _KEYS.get(target))
                self._saved.append(
                    (owner, attr, vars(owner).get(attr, _MISSING)))
                setattr(owner, attr, wrapper)
        except BaseException:
            self.restore()
            raise

    def restore(self) -> None:
        """Put every original back (inherited ones are un-shadowed)."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def __enter__(self) -> "SpanRecorder":
        self.install()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.restore()

    # -- wrappers -----------------------------------------------------

    def _wrap(self, fn, target: str, key_of=None):
        spans = self.spans
        ids = self._ids
        local = self._local
        clock = time.perf_counter
        ident = threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                key = key_of(args, result) if key_of is not None else 0
                spans.append((sid, target, start, end, ident(), parent,
                              key))
        return wrapper

    def _wrap_cache_lookup(self, fn, target: str):
        lookup = self._wrap(fn, target)
        caches = self.caches
        wrap = self._wrap

        @functools.wraps(fn)
        def wrapper(cache, kind, name, compute):
            caches[id(cache)] = cache
            return lookup(cache, kind, name, wrap(compute, CACHE_COMPUTE))
        return wrapper

    # -- output -------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines (one list per span)."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")

    def cache_bytes(self) -> int:
        """Spectrum bytes currently held by every cache seen so far."""
        return sum(cache.nbytes for cache in self.caches.values())


def self_times(spans: Iterable[tuple], start: float, end: float
               ) -> Dict[int, float]:
    """Self time of each span, clipped to ``[start, end]``.

    Children nest inside their parent on the parent's thread, so a
    span's clipped duration minus its children's clipped durations is
    the time the thread spent in that call and no wrapped callee.
    """
    clipped: Dict[int, float] = {}
    children: Dict[int, float] = defaultdict(float)
    for sid, _, t0, t1, _, parent, _ in spans:
        duration = max(0.0, min(t1, end) - max(t0, start))
        clipped[sid] = duration
        if parent:
            children[parent] += duration
    return {sid: duration - children.get(sid, 0.0)
            for sid, duration in clipped.items()}


def layer_report(recorder: SpanRecorder,
                 windows: Sequence[Tuple[float, float, int]],
                 cache_bytes: float = 0.0) -> Dict[str, float]:
    """Per-operation layer metrics over the traced *windows*.

    *windows* is ``[(start, end, operations completed), ...]``.
    Returns every metric of :func:`metric_units` except
    ``trace.overhead_ratio``, which needs the untraced run.
    """
    layers = recorder.layers
    ops = sum(n for _, _, n in windows)
    if ops < 1:
        raise ValueError("no operation completed while tracing")
    rows = dict.fromkeys(row_names(), 0.0)
    calls: Dict[str, int] = defaultdict(int)
    thread_s = 0.0
    threads = 0
    forward_s = 0.0
    tiles = 0
    queue_waits: List[float] = []
    for start, end, _ in windows:
        inside = [s for s in recorder.spans if s[3] > start and s[2] < end]
        own = self_times(inside, start, end)
        by_id = {s[0]: s for s in inside}
        tids = {s[4] for s in inside}
        threads += len(tids)
        thread_s += len(tids) * (end - start)
        for span in inside:
            sid, target, t0, t1, _, parent, _ = span
            layer = layers[target]
            rows[ROWS[layer]] += own[sid]
            if not start <= t0 < end:
                continue
            if target == CACHE_COMPUTE:
                calls["tensor.fft_cache.miss"] += 1
                continue
            calls[layer] += 1
            if layer == "core.forward":
                forward_s += t1 - t0
                up = by_id.get(parent)
                if up is not None and layers[up[1]] == "serving.tiler":
                    tiles += 1
        queue_waits.extend(_queue_waits(inside, layers, start, end))
    attributed = sum(rows.values())
    rows[UNATTRIBUTED] = thread_s - attributed
    out = {name: value / ops for name, value in rows.items()}
    for metric, layer in COUNTS.items():
        out[metric] = calls[layer] / ops
    lookups = calls["tensor.fft_cache"]
    out["tensor.fft_cache.hit_frac"] = (
        1.0 - calls["tensor.fft_cache.miss"] / lookups if lookups else 0.0)
    out["tensor.fft_cache.bytes"] = float(cache_bytes)
    out["core.forward_s_per_tile"] = (
        forward_s / calls["core.forward"] if calls["core.forward"] else 0.0)
    out["serving.pipeline.queue_wait_s"] = (
        sum(queue_waits) / len(queue_waits) if queue_waits else 0.0)
    out["serving.tiler.tiles"] = tiles / ops
    out["trace.threads"] = threads / len(windows)
    out["trace.thread_s"] = thread_s / ops
    return out


def _queue_waits(spans: Sequence[tuple], layers: Dict[str, str],
                 start: float, end: float) -> List[float]:
    """Admission wait of each pipeline request: from the client's
    ``InferenceServer.submit`` returning to a serving worker entering
    ``WarmModel.run`` for the same volume (planning and the model
    lookup included).  Clients never have two requests in flight for
    one volume object, so the latest earlier submit of that volume is
    the request's own."""
    submits: Dict[int, List[float]] = defaultdict(list)
    for span in spans:
        if layers[span[1]] == "serving.pipeline.submit":
            submits[span[6]].append(span[3])
    waits = []
    for span in spans:
        if layers[span[1]] != "serving.warm_model" \
                or not start <= span[2] < end:
            continue
        earlier = [t for t in submits.get(span[6], ()) if t <= span[2]]
        if earlier:
            waits.append(span[2] - max(earlier))
    return waits
