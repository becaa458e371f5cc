"""Hierarchical, request-scoped tracing with context propagation.

Spans are the one record of what ran: every task an engine executes is
a span (with its ``worker`` and ``queue_wait`` attached), and the
*causal* structure around them comes for free — which request did a
conv task belong to, how long did the request wait in admission before
its first tile ran, which training round produced this worker's
gradient pass.  This module provides:

* :class:`Span` — one named interval with a ``trace_id`` (the request /
  round it belongs to), a ``span_id``, and a ``parent_id`` forming a
  tree;
* :class:`SpanContext` — the picklable ``(trace_id, span_id)`` pair
  that crosses thread, engine-task and process boundaries.  A task
  captures the creating thread's context at construction time; a
  spawned worker process receives the coordinator's context in the
  round message and ships its spans back over the pipe;
* :class:`Tracer` — the process-global span sink: a bounded ring
  buffer, a thread-local context stack, and exporters (Chrome trace,
  span-tree text view, per-process trace files that merge onto a
  shared timeline);
* :func:`task_summary` — the Section VIII aggregates (per-worker busy
  time, utilization, per-family time split, queue wait) computed from
  the task spans;
* :class:`FlightRecorder` — a small always-cheap ring of the most
  recent spans and notes, dumped to disk when something goes wrong
  (task failure, FFT degradation, worker death) so the moments *before*
  a crash are inspectable after it.

Tracing is **off by default**: every entry point checks
``tracer.enabled`` first, so the disabled fast path is one attribute
read and a branch (budgeted at <=5% overhead in CI's trace-smoke
lane).  Enable with ``REPRO_TRACING=1`` or ``get_tracer().enable()``.

Timestamps are *epoch-aligned monotonic*: each process captures one
``(wall, monotonic)`` origin pair and records spans at
``wall_origin + (monotonic() - mono_origin)``.  Within a process that
clock never goes backwards; across processes on one host the traces
align to wall-clock accuracy, which is what lets ``repro trace
--merge`` place coordinator and worker spans on one timeline.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Deque,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.analysis.runtime import make_lock
from repro.observability.metrics import get_registry

__all__ = [
    "Span",
    "SpanContext",
    "Tracer",
    "FlightRecorder",
    "get_tracer",
    "set_tracer",
    "current_context",
    "get_flight_recorder",
    "flight_note",
    "flight_dump",
    "spans_to_chrome_trace",
    "TraceSummary",
    "task_summary",
    "render_span_tree",
    "write_trace_file",
    "read_trace_file",
    "merge_trace_files",
]

#: Schema tag of per-process trace files (``write_trace_file``).
TRACE_SCHEMA = "repro.trace/v1"

#: Default ring-buffer capacity of the tracer (spans) and flight
#: recorder (events).  Spans beyond the cap evict the oldest —
#: ``tracing.dropped`` counts them.
DEFAULT_MAX_SPANS = 100_000
DEFAULT_FLIGHT_EVENTS = 512


class SpanContext(NamedTuple):
    """The propagatable identity of a span: ``(trace_id, span_id)``.

    Plain strings, so a context pickles across the spawn boundary and
    serialises into HTTP headers (``X-Trace-Id``).
    """

    trace_id: str
    span_id: str


@dataclass(slots=True)
class Span:
    """One recorded interval in a trace tree."""

    trace_id: str
    span_id: str
    parent_id: Optional[str]
    name: str
    category: str
    start: float
    end: float
    #: Which process recorded the span ("coordinator", "worker-1",
    #: "serve", ...) — the stable pid axis of merged Chrome traces.
    process: str
    #: Native thread id within the recording process.
    thread: int
    status: str = "ok"
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id)

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "category": self.category,
            "start": self.start,
            "end": self.end,
            "process": self.process,
            "thread": self.thread,
            "status": self.status,
            "attrs": self.attrs,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Span":
        return cls(
            trace_id=str(payload["trace_id"]),
            span_id=str(payload["span_id"]),
            parent_id=payload.get("parent_id"),
            name=str(payload["name"]),
            category=str(payload.get("category", "")),
            start=float(payload["start"]),
            end=float(payload["end"]),
            process=str(payload.get("process", "unknown")),
            thread=int(payload.get("thread", 0)),
            status=str(payload.get("status", "ok")),
            attrs=dict(payload.get("attrs", {})),
        )


class _ActiveSpan:
    """Handle for an in-flight span opened by :meth:`Tracer.span`.

    Usable as a context manager; ``set`` attaches attributes and
    ``fail`` marks the error status before the span closes.
    """

    __slots__ = ("_tracer", "trace_id", "span_id", "parent_id", "name",
                 "category", "start", "attrs", "status", "end",
                 "process", "thread")

    def __init__(self, tracer: "Tracer", trace_id: str, span_id: str,
                 parent_id: Optional[str], name: str, category: str,
                 attrs: Dict[str, object]) -> None:
        self._tracer = tracer
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.category = category
        self.start = time.monotonic() + tracer._offset
        self.attrs = attrs
        self.status = "ok"

    @property
    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id)

    # Once closed (end/process/thread filled in by Tracer._finish) the
    # handle itself is the stored record; readers materialise a Span
    # lazily so the close path builds no second object.

    def to_span(self) -> Span:
        return Span(self.trace_id, self.span_id, self.parent_id,
                    self.name, self.category, self.start, self.end,
                    self.process, self.thread, self.status, self.attrs)

    def to_dict(self) -> dict:
        return self.to_span().to_dict()

    def set(self, **attrs: object) -> "_ActiveSpan":
        self.attrs.update(attrs)
        return self

    def fail(self, status: str = "error") -> None:
        self.status = status

    def __enter__(self) -> "_ActiveSpan":
        self._tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None and self.status == "ok":
            self.status = "error"
            self.attrs.setdefault("error", exc_type.__name__)
        self._tracer._pop(self)


class _NoopSpan:
    """The disabled-tracer stand-in: absorbs the whole span API."""

    __slots__ = ()

    context: Optional[SpanContext] = None
    span_id = ""
    trace_id = ""

    def set(self, **attrs: object) -> "_NoopSpan":
        return self

    def fail(self, status: str = "error") -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NOOP_SPAN = _NoopSpan()


class _RemoteParent:
    """Context-stack entry adopting a foreign :class:`SpanContext`
    (a request accepted on another thread, a coordinator round in a
    worker process) as the parent of subsequently opened spans."""

    __slots__ = ("trace_id", "span_id")

    def __init__(self, ctx: SpanContext) -> None:
        self.trace_id = ctx.trace_id
        self.span_id = ctx.span_id

    @property
    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id)


class _Activation:
    """Context manager produced by :meth:`Tracer.activate`."""

    __slots__ = ("_tracer", "_entry")

    def __init__(self, tracer: "Tracer",
                 entry: Optional[_RemoteParent]) -> None:
        self._tracer = tracer
        self._entry = entry

    def __enter__(self) -> "_Activation":
        if self._entry is not None:
            self._tracer._push(self._entry)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if self._entry is not None:
            self._tracer._pop(self._entry)


class Tracer:
    """Process-global span collector with a thread-local context stack.

    Every mutation is gated on :attr:`enabled`; a disabled tracer costs
    one branch per instrumentation site.  Spans are kept in a bounded
    ring (oldest evicted, counted by ``tracing.dropped``), so tracing a
    long-lived server cannot grow without bound.
    """

    def __init__(self, enabled: Optional[bool] = None,
                 process: Optional[str] = None,
                 max_spans: int = DEFAULT_MAX_SPANS) -> None:
        if enabled is None:
            enabled = os.environ.get("REPRO_TRACING", "0").lower() in (
                "1", "true", "on", "yes")
        self.enabled = bool(enabled)
        self.process = process if process is not None \
            else f"pid-{os.getpid()}"
        self._lock = make_lock("observability.tracer")
        self._spans: Deque[Span] = deque(maxlen=max_spans)  # guarded-by: _lock
        self._tls = threading.local()
        self._ids = itertools.count(1)
        # Epoch-aligned monotonic origin (see module docstring).
        self._origin_wall = time.time()
        self._origin_mono = time.monotonic()
        self._offset = self._origin_wall - self._origin_mono
        # Id pieces precomputed once: id generation is on the per-span
        # hot path.
        self._trace_id_fix = (
            f"t-{os.getpid():x}-",
            f"-{int(self._origin_wall * 1e3) & 0xffffff:x}")
        self._span_id_prefix = self.process + ":"
        reg = get_registry()
        self._m_spans = reg.counter("tracing.spans")
        self._m_dropped = reg.counter("tracing.dropped")
        # Hot-path tallies; folded into the counters by _sync_metrics
        # so recording a span never touches the metrics registry.
        self._recorded = 0    # guarded-by: _lock
        self._dropped = 0     # guarded-by: _lock
        self._synced = 0
        self._synced_dropped = 0
        self.flight: Optional[FlightRecorder] = None

    # -- lifecycle -----------------------------------------------------

    def enable(self) -> "Tracer":
        self.enabled = True
        return self

    def disable(self) -> None:
        self.enabled = False

    def set_process(self, label: str) -> None:
        """Relabel this process ("coordinator", "worker-3", ...)."""
        self.process = str(label)
        self._span_id_prefix = self.process + ":"

    @property
    def dropped(self) -> int:
        """Spans evicted from the ring buffer so far: when non-zero,
        :meth:`spans` is a partial trace."""
        with self._lock:
            return self._dropped

    def clear(self) -> None:
        self._sync_metrics()
        with self._lock:
            self._spans.clear()

    # -- time ----------------------------------------------------------

    def now(self) -> float:
        """The tracer clock: epoch-aligned monotonic seconds."""
        return time.monotonic() + self._offset

    def from_monotonic(self, t: float) -> float:
        """Map a raw ``time.monotonic()`` stamp onto the tracer clock."""
        return t + self._offset

    # -- context stack -------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _push(self, entry) -> None:
        self._stack().append(entry)

    def _pop(self, entry) -> None:
        stack = self._stack()
        if stack and stack[-1] is entry:
            stack.pop()
            if entry.__class__ is _ActiveSpan:
                self._finish(entry)
            return
        # Unbalanced exit (a span closed out of order) — drop down to
        # the entry, finishing any skipped active spans so nothing
        # leaks.
        while stack:
            top = stack.pop()
            if top.__class__ is _ActiveSpan:
                self._finish(top)
            if top is entry:
                return

    def current_context(self) -> Optional[SpanContext]:
        """The active span/parent context on this thread, or None."""
        if not self.enabled:
            return None
        stack = getattr(self._tls, "stack", None)
        if not stack:
            return None
        return stack[-1].context

    def activate(self, ctx: Optional[SpanContext]) -> _Activation:
        """Adopt *ctx* (e.g. a pickled remote parent) as the current
        context for the duration of the returned context manager."""
        if not self.enabled or ctx is None:
            return _Activation(self, None)
        return _Activation(self, _RemoteParent(SpanContext(*ctx)))

    # -- span creation -------------------------------------------------

    def new_trace_id(self) -> str:
        """A fresh trace id, unique across processes on this host."""
        head, tail = self._trace_id_fix
        return head + format(next(self._ids), "x") + tail

    def _new_span_id(self) -> str:
        return self._span_id_prefix + str(next(self._ids))

    def span(self, name: str, category: str = "",
             parent: Optional[SpanContext] = None,
             trace_id: Optional[str] = None, **attrs: object):
        """Open a span as a context manager.

        The parent defaults to the thread's current context; with no
        parent and no *trace_id* a fresh trace is started (the span is
        a root).
        """
        if not self.enabled:
            return _NOOP_SPAN
        if parent is None:
            # Inlined current_context(): stack entries (_ActiveSpan /
            # _RemoteParent) expose trace_id/span_id directly, so the
            # hot path skips building an intermediate SpanContext.
            stack = getattr(self._tls, "stack", None)
            if stack:
                parent = stack[-1]
        if parent is not None:
            tid = parent.trace_id if trace_id is None else trace_id
            parent_id: Optional[str] = parent.span_id
        else:
            tid = trace_id if trace_id is not None else self.new_trace_id()
            parent_id = None
        # **attrs is already a fresh dict owned by this call.
        return _ActiveSpan(self, tid, self._new_span_id(), parent_id,
                           name, category, attrs)

    def task_span(self, task, category: str, worker: int,
                  queue_wait: float):
        """The engine hook: a span for one scheduler task, parented on
        the context captured when the task was created."""
        if not self.enabled:
            return _NOOP_SPAN
        return self.span(task.name or "(anonymous)", category=category,
                         parent=task.span_context, worker=worker,
                         queue_wait=queue_wait)

    def record(self, name: str, start: float, end: float,
               category: str = "",
               parent: Optional[SpanContext] = None,
               trace_id: Optional[str] = None,
               context: Optional[SpanContext] = None,
               status: str = "ok", **attrs: object
               ) -> Optional[SpanContext]:
        """Record a completed span directly (for intervals measured
        outside the context-manager discipline, e.g. a request's
        admission wait, whose start and end happen on different
        threads).  *start*/*end* are tracer-clock seconds
        (:meth:`now` / :meth:`from_monotonic`)."""
        if not self.enabled:
            return None
        if context is not None:
            tid, span_id = context
        else:
            tid = trace_id
            if tid is None:
                tid = (parent.trace_id if parent is not None
                       else self.new_trace_id())
            span_id = self._new_span_id()
        span = Span(trace_id=tid, span_id=span_id,
                    parent_id=parent.span_id if parent is not None else None,
                    name=name, category=category, start=float(start),
                    end=float(end), process=self.process,
                    thread=threading.get_ident(), status=status,
                    attrs=attrs)
        self._store(span)
        return SpanContext(tid, span_id)

    def make_context(self, trace_id: Optional[str] = None) -> SpanContext:
        """Allocate a context (e.g. a request root) whose span body
        will be recorded later via ``record(context=...)``."""
        tid = trace_id if trace_id else self.new_trace_id()
        return SpanContext(tid, self._new_span_id())

    def _finish(self, active: _ActiveSpan) -> None:
        active.end = time.monotonic() + self._offset
        active.process = self.process
        active.thread = threading.get_ident()
        self._store(active)

    def _store(self, span) -> None:
        # *span* is a closed _ActiveSpan (hot path) or a Span
        # (record()); both expose the same fields and to_dict().
        spans = self._spans
        with self._lock:
            if len(spans) == spans.maxlen:
                self._dropped += 1
            spans.append(span)
            self._recorded += 1
        flight = self.flight
        if flight is not None:
            flight.record_span(span)

    def _sync_metrics(self) -> None:
        """Fold the hot-path span/drop tallies into the registry
        counters.  Runs on every read-side API (and as a registry read
        hook), so snapshots stay accurate while recording a span never
        touches the metrics registry."""
        with self._lock:
            d_spans = self._recorded - self._synced
            d_dropped = self._dropped - self._synced_dropped
            self._synced = self._recorded
            self._synced_dropped = self._dropped
        if d_spans:
            self._m_spans.inc(d_spans)
        if d_dropped:
            self._m_dropped.inc(d_dropped)

    # -- ingestion / export --------------------------------------------

    def ingest(self, payloads: Iterable[dict],
               process: Optional[str] = None) -> int:
        """Adopt foreign spans (shipped from a worker process or read
        from a trace file); returns the count ingested."""
        count = 0
        spans = []
        for payload in payloads:
            span = Span.from_dict(payload)
            if process is not None:
                span.process = process
            spans.append(span)
            count += 1
        with self._lock:
            room = self._spans.maxlen - len(self._spans)
            self._dropped += max(0, count - room)
            self._spans.extend(spans)
        return count

    def spans(self) -> List[Span]:
        self._sync_metrics()
        with self._lock:
            raw = list(self._spans)
        return [s if s.__class__ is Span else s.to_span() for s in raw]

    def drain(self) -> List[dict]:
        """Remove and return all buffered spans as dicts (the worker →
        coordinator shipping payload)."""
        self._sync_metrics()
        with self._lock:
            spans = list(self._spans)
            self._spans.clear()
        return [s.to_dict() for s in spans]

    def __len__(self) -> int:
        self._sync_metrics()
        with self._lock:
            return len(self._spans)


# ---------------------------------------------------------------------------
# Flight recorder
# ---------------------------------------------------------------------------


class FlightRecorder:
    """A bounded ring of recent spans and notes, dumped on trouble.

    The recorder is cheap enough to leave on whenever tracing is on
    (one deque append per completed span).  :meth:`dump` writes the
    ring plus a metrics snapshot; :func:`flight_dump` is the trigger
    hook instrumented subsystems call on crash/degradation — it writes
    into ``REPRO_FLIGHT_DIR`` when that is set and is a no-op
    otherwise, so production opt-in is one environment variable.
    """

    def __init__(self, capacity: int = DEFAULT_FLIGHT_EVENTS) -> None:
        # deque appends are atomic under the GIL; no lock needed on the
        # hot path.
        self._events: Deque[dict] = deque(maxlen=capacity)
        self._dump_lock = make_lock("observability.flight")
        self.dumps = 0

    def record_span(self, span) -> None:
        # Raw span record (Span or closed _ActiveSpan); serialised
        # lazily in events()/dump() so the per-span hot path is one
        # deque append, no dict building.
        self._events.append(span)

    def note(self, message: str, **attrs: object) -> None:
        self._events.append({"kind": "note", "time": time.time(),
                             "message": str(message), "attrs": attrs})

    def events(self) -> List[dict]:
        return [e if isinstance(e, dict)
                else {"kind": "span", **e.to_dict()}
                for e in self._events]

    def clear(self) -> None:
        self._events.clear()

    def dump(self, path: str, reason: str = "manual") -> str:
        """Write the ring (plus a metrics snapshot) to *path*."""
        events = self.events()
        try:
            get_tracer()._sync_metrics()
            snapshot = get_registry().snapshot()
        except Exception:  # pragma: no cover - metrics must not block
            snapshot = {}
        doc = {
            "schema": "repro.flight/v1",
            "reason": reason,
            "time": time.time(),
            "process": get_tracer().process,
            "pid": os.getpid(),
            "events": events,
            "metrics": snapshot,
        }
        payload = json.dumps(doc)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)
        with self._dump_lock:
            self.dumps += 1
        get_registry().counter("flight.dumps").inc()
        return path


# ---------------------------------------------------------------------------
# Process-global instances
# ---------------------------------------------------------------------------

_global_tracer = Tracer()
_global_flight = FlightRecorder()
_global_tracer.flight = _global_flight


def _sync_global_tracer_metrics() -> None:
    _global_tracer._sync_metrics()


# Fold deferred span tallies in whenever the registry is read, so
# exporters (snapshot, /metrics) see up-to-date tracing counters.
get_registry().add_read_hook(_sync_global_tracer_metrics)


def get_tracer() -> Tracer:
    """The process-global tracer instrumented code defaults to."""
    return _global_tracer


def set_tracer(tracer: Tracer) -> Tracer:
    """Swap the global tracer (tests); returns the previous one."""
    global _global_tracer
    previous = _global_tracer
    if tracer.flight is None:
        tracer.flight = _global_flight
    _global_tracer = tracer
    return previous


def current_context() -> Optional[SpanContext]:
    """The calling thread's active span context (None when tracing is
    off or no span is open) — the one-liner task constructors use."""
    tracer = _global_tracer
    if not tracer.enabled:
        return None
    return tracer.current_context()


def get_flight_recorder() -> FlightRecorder:
    return _global_flight


def flight_note(message: str, **attrs: object) -> None:
    """Append a note to the flight ring (cheap; always available)."""
    _global_flight.note(message, **attrs)


def flight_dump(reason: str, directory: Optional[str] = None
                ) -> Optional[str]:
    """Crash/degradation trigger: dump the flight ring.

    Writes into *directory* or ``$REPRO_FLIGHT_DIR``; with neither set
    this is a no-op returning None (the production default — recording
    stays cheap, dumping is opt-in).
    """
    target = directory if directory is not None \
        else os.environ.get("REPRO_FLIGHT_DIR")
    if not target:
        return None
    safe = "".join(c if c.isalnum() or c in "-._" else "-"
                   for c in reason)[:80]
    path = os.path.join(
        target, f"flight-{os.getpid()}-{safe or 'event'}.json")
    try:
        return _global_flight.dump(path, reason=reason)
    except OSError:  # pragma: no cover - dump target unwritable
        return None


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------


def _stable_pids(processes: Sequence[str]) -> Dict[str, int]:
    """Deterministic pid assignment for merged traces: the coordinator
    is pid 0, ``worker-N`` is pid N, anything else gets the next free
    pid in sorted order."""
    pids: Dict[str, int] = {}
    leftovers = []
    for process in sorted(set(processes)):
        if process in ("coordinator", "serve", "main"):
            pids[process] = 0
        elif process.startswith("worker-"):
            suffix = process.rsplit("-", 1)[-1]
            if suffix.isdigit():
                pids[process] = int(suffix)
            else:
                leftovers.append(process)
        else:
            leftovers.append(process)
    used = set(pids.values())
    next_pid = 0
    for process in leftovers:
        while next_pid in used:
            next_pid += 1
        pids[process] = next_pid
        used.add(next_pid)
    return pids


def spans_to_chrome_trace(spans: Sequence[Span]) -> dict:
    """Render spans as Chrome Trace Event JSON (complete events).

    One trace *process* per recording process (stable pids: see
    :func:`_stable_pids`), one trace *thread* per native thread, and
    trace/span/parent ids attached as args so the viewer's detail pane
    shows the causal identity of every slice.
    """
    if not spans:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    t0 = min(s.start for s in spans)
    pids = _stable_pids([s.process for s in spans])
    events: List[dict] = []
    for process, pid in sorted(pids.items(), key=lambda kv: kv[1]):
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "args": {"name": process}})
    threads: Dict[Tuple[str, int], int] = {}
    for span in spans:
        key = (span.process, span.thread)
        if key not in threads:
            tid = len([k for k in threads if k[0] == span.process])
            threads[key] = tid
            events.append({
                "name": "thread_name", "ph": "M",
                "pid": pids[span.process], "tid": tid,
                "args": {"name": f"{span.process}/t{tid}"}})
    for span in spans:
        event = {
            "name": span.name,
            "cat": span.category or "span",
            "ph": "X",
            "pid": pids[span.process],
            "tid": threads[(span.process, span.thread)],
            "ts": (span.start - t0) * 1e6,
            "dur": max(span.duration, 0.0) * 1e6,
            "args": {
                "trace_id": span.trace_id,
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "status": span.status,
                **span.attrs,
            },
        }
        if span.status != "ok":
            event["cname"] = "terrible"
        events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


@dataclass(frozen=True)
class TraceSummary:
    """Aggregates over the task spans of one traced run."""

    tasks: int
    span: float
    busy_per_worker: Dict[object, float]
    time_per_family: Dict[str, float]
    #: Task attempts whose body raised (still counted in ``tasks``).
    failed: int = 0
    #: Total seconds tasks spent queued before execution.
    total_queue_wait: float = 0.0

    @property
    def workers(self) -> int:
        return len(self.busy_per_worker)

    @property
    def utilization(self) -> float:
        """Busy worker-time divided by (span x workers)."""
        if not self.span or not self.busy_per_worker:
            return 0.0
        return sum(self.busy_per_worker.values()) / (
            self.span * len(self.busy_per_worker))

    @property
    def mean_queue_wait(self) -> float:
        return self.total_queue_wait / self.tasks if self.tasks else 0.0


def task_summary(spans: Iterable[Span]) -> TraceSummary:
    """Summarise the engine task spans (those carrying a ``worker``
    attribute) among *spans*; other spans are ignored.

    Workers are keyed by their engine index; when the spans come from
    several processes (a data-parallel run) the key is
    ``"<process>/<index>"`` so the processes' workers stay apart.  The
    family of a task is its span category.
    """
    tasks = [s for s in spans if "worker" in s.attrs]
    if not tasks:
        return TraceSummary(0, 0.0, {}, {})
    several = len({s.process for s in tasks}) > 1
    busy: Dict[object, float] = {}
    families: Dict[str, float] = {}
    failed = 0
    wait = 0.0
    for s in tasks:
        if s.end < s.start:
            raise ValueError(f"task span {s.name!r} ends before it starts")
        worker = s.attrs["worker"]
        if several:
            worker = f"{s.process}/{worker}"
        busy[worker] = busy.get(worker, 0.0) + s.duration
        families[s.category] = families.get(s.category, 0.0) + s.duration
        failed += s.status != "ok"
        wait += max(float(s.attrs.get("queue_wait", 0.0)), 0.0)
    return TraceSummary(
        tasks=len(tasks),
        span=max(s.end for s in tasks) - min(s.start for s in tasks),
        busy_per_worker=busy, time_per_family=families, failed=failed,
        total_queue_wait=wait)


def render_span_tree(spans: Sequence[Span],
                     trace_id: Optional[str] = None) -> str:
    """Text view of span trees — one indented block per trace.

    Orphans (parents evicted from the ring or recorded in a process
    whose spans were lost) are promoted to roots, so a tree is always
    printable."""
    selected = [s for s in spans
                if trace_id is None or s.trace_id == trace_id]
    if not selected:
        return "(no spans)"
    by_id = {s.span_id: s for s in selected}
    children: Dict[Optional[str], List[Span]] = {}
    roots: List[Span] = []
    for span in selected:
        if span.parent_id is not None and span.parent_id in by_id:
            children.setdefault(span.parent_id, []).append(span)
        else:
            roots.append(span)
    for sibling_list in children.values():
        sibling_list.sort(key=lambda s: (s.start, s.span_id))
    roots.sort(key=lambda s: (s.trace_id, s.start, s.span_id))
    lines: List[str] = []

    def emit(span: Span, depth: int) -> None:
        status = "" if span.status == "ok" else f"  [{span.status}]"
        lines.append(
            f"{'  ' * depth}{span.name}  "
            f"{span.duration * 1e3:.2f}ms  "
            f"({span.process}){status}")
        for child in children.get(span.span_id, ()):
            emit(child, depth + 1)

    last_trace = None
    for root in roots:
        if root.trace_id != last_trace:
            lines.append(f"trace {root.trace_id}")
            last_trace = root.trace_id
        emit(root, 1)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Per-process trace files + merge
# ---------------------------------------------------------------------------


def write_trace_file(path: str, tracer: Optional[Tracer] = None,
                     spans: Optional[Sequence[Span]] = None) -> str:
    """Write one process's spans as a mergeable trace file."""
    if tracer is None:
        tracer = get_tracer()
    if spans is None:
        spans = tracer.spans()
    doc = {
        "schema": TRACE_SCHEMA,
        "process": tracer.process,
        "pid": os.getpid(),
        "origin_wall": tracer._origin_wall,
        "spans": [s.to_dict() for s in spans],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def read_trace_file(path: str) -> List[Span]:
    """Load the spans of one per-process trace file."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema") != TRACE_SCHEMA:
        raise ValueError(
            f"{path}: not a {TRACE_SCHEMA} trace file "
            f"(schema={doc.get('schema')!r})")
    default_process = str(doc.get("process", "unknown"))
    spans = []
    for payload in doc.get("spans", []):
        span = Span.from_dict(payload)
        if span.process == "unknown":
            span.process = default_process
        spans.append(span)
    return spans


def merge_trace_files(paths: Sequence[str],
                      out_path: Optional[str] = None) -> dict:
    """Merge per-process trace files into one Chrome trace.

    Span timestamps are already epoch-aligned per process (see the
    module docstring), so merging is concatenation onto the shared
    origin; pid/tid naming is stable (coordinator = 0, worker-N = N).
    Writes the Chrome JSON to *out_path* when given; returns the trace
    document either way.
    """
    spans: List[Span] = []
    for path in paths:
        spans.extend(read_trace_file(path))
    spans.sort(key=lambda s: (s.start, s.process, s.span_id))
    doc = spans_to_chrome_trace(spans)
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return doc
