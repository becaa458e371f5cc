"""Task objects and the FORCE protocol (Section VI, Algorithms 1–3).

A task wraps a callable plus scheduling metadata.  Its lifecycle is

    PENDING → QUEUED → STOLEN (claimed) → EXECUTING → COMPLETED

A queued task is claimed exactly once, by whichever thread flips it
QUEUED→STOLEN first: the engine worker that popped it, FORCE, or
``Network.synchronize``.  A worker whose popped task was claimed by
someone else simply drops it.

The interesting transition is FORCE: a forward task whose edge has a
pending weight update must not *wait* for it.  Instead (Algorithm 1's
``FORCE(e.update_task, t)``):

* **Completed** update → the calling thread just runs the forward
  subtask.
* **Queued** update → the calling thread *steals* it (atomically flips
  QUEUED→STOLEN; the queue entry is lazily invalidated) and executes the
  update followed by the forward subtask itself.
* **Claimed or executing** update → the forward subtask is *attached*
  to the update task; the thread running the update executes the
  attachment as soon as the update completes (Algorithm 3 lines 3–6),
  and the calling thread goes back to the queue for other work.

No thread ever blocks on another — the design keeps workers busy, and
running the update immediately before the forward task that consumes
its result maximises cache locality (Section VI-A).
"""

from __future__ import annotations

import enum
import itertools
from typing import Any, Callable, Optional

from repro.analysis.runtime import make_lock
from repro.observability.tracing import current_context

__all__ = ["TaskState", "Task", "force"]

_task_ids = itertools.count()


class TaskState(enum.Enum):
    """Lifecycle states of a :class:`Task`."""

    PENDING = "pending"
    QUEUED = "queued"
    STOLEN = "stolen"
    EXECUTING = "executing"
    COMPLETED = "completed"


class Task:
    """A schedulable unit of work.

    Parameters
    ----------
    fn:
        Zero-argument callable; its return value is discarded (tasks
        communicate through the computation-graph state).
    priority:
        Smaller values are more urgent.  Update tasks get the engine's
        ``lowest_priority``.
    name:
        Diagnostic label ("fwd conv1:3→7" etc.).
    """

    __slots__ = ("fn", "priority", "name", "task_id", "queued_at",
                 "attempts", "abandoned", "span_context", "_state",
                 "_lock", "_attached")

    def __init__(self, fn: Callable[[], Any], priority: int = 0,
                 name: str = "") -> None:
        self.fn = fn
        self.priority = int(priority)
        self.name = name
        self.task_id = next(_task_ids)
        #: The creating thread's span context (None when tracing is
        #: off).  Tasks are spawned by the code that needs them — the
        #: serving worker, or a worker thread executing a parent task —
        #: so capturing here threads the request/round trace id through
        #: the whole task cascade transitively.
        self.span_context = current_context()
        #: perf_counter timestamp set by the engine at submit time; the
        #: worker that pops the task derives its queue wait from it.
        self.queued_at: Optional[float] = None
        #: Failed execution attempts so far (retry bookkeeping).
        self.attempts = 0
        #: Set by the watchdog when the task overran its timeout and a
        #: replacement was issued; the stuck worker must not execute it.
        self.abandoned = False
        self._lock = make_lock("scheduler.task")
        self._state = TaskState.PENDING  # guarded-by: _lock
        self._attached: Optional["Task"] = None  # guarded-by: _lock

    # -- state machine -------------------------------------------------

    @property
    def state(self) -> TaskState:
        with self._lock:
            return self._state

    def mark_queued(self) -> None:
        with self._lock:
            if self._state is not TaskState.PENDING:
                raise RuntimeError(f"cannot queue task in state {self._state}")
            self._state = TaskState.QUEUED

    def try_steal(self) -> bool:
        """Atomically claim a QUEUED task (FORCE case 2, or an engine
        worker claiming the task it popped).  The queue's
        lazy-invalidation callback (:meth:`is_queued`) will skip it."""
        with self._lock:
            if self._state is TaskState.QUEUED:
                self._state = TaskState.STOLEN
                return True
            return False

    def try_begin(self) -> bool:
        """Claim the task for execution from QUEUED/STOLEN/PENDING."""
        with self._lock:
            if self._state in (TaskState.QUEUED, TaskState.STOLEN,
                               TaskState.PENDING):
                self._state = TaskState.EXECUTING
                return True
            return False

    def is_queued(self) -> bool:
        """Validity callback handed to the queue: stolen entries vanish.

        A lock-free read, because it is only a filter: the worker that
        pops the task still claims it with :meth:`try_steal`, which
        fails if a steal raced in after this read.
        """
        return self._state is TaskState.QUEUED

    def try_attach(self, subtask: "Task") -> bool:
        """Attach *subtask* to run right after this task completes
        (FORCE case 3).  Fails iff this task already completed — the
        caller must then run the subtask itself."""
        with self._lock:
            if self._state is TaskState.COMPLETED:
                return False
            if self._attached is not None:
                raise RuntimeError(
                    f"task {self.name!r} already has an attached subtask")
            self._attached = subtask
            return True

    # -- retry support ---------------------------------------------------

    def reset_for_retry(self) -> bool:
        """Return a failed task to PENDING so the engine can re-submit
        it (counting the attempt).

        Succeeds only when the failure happened in *this* task's body
        (state STOLEN — claimed, but an injected fault fired before the
        body began — or EXECUTING).  A COMPLETED task whose *attached*
        subtask failed is not resettable: re-running it would
        double-execute the parent body.
        """
        with self._lock:
            if self._state not in (TaskState.STOLEN, TaskState.EXECUTING):
                return False
            self._state = TaskState.PENDING
            self.attempts += 1
            return True

    def clone_for_retry(self) -> "Task":
        """A fresh task with the same body for speculative re-execution
        after a timeout (the original may still be running; its state
        machine must stay untouched)."""
        clone = Task(self.fn, priority=self.priority, name=self.name)
        clone.attempts = self.attempts + 1
        # The watchdog thread has no span context; keep the original's
        # so the retry stays inside the request's trace.
        clone.span_context = self.span_context
        return clone

    # -- execution -------------------------------------------------------

    def execute(self) -> None:
        """Run the task body, then any attached subtask (Algorithm 3).

        Attached subtasks may themselves have attachments; the loop
        drains the chain on the current thread.
        """
        current: Optional[Task] = self
        while current is not None:
            if not current.try_begin():
                raise RuntimeError(
                    f"task {current.name!r} executed twice "
                    f"(state={current.state})")
            current.fn()
            with current._lock:
                current._state = TaskState.COMPLETED
                nxt = current._attached
                current._attached = None
            current = nxt

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Task(id={self.task_id}, name={self.name!r}, "
                f"priority={self.priority}, state={self.state.value})")


def force(update_task: Optional[Task], subtask: Task) -> None:
    """FORCE (Algorithm 1): ensure *update_task* has run, then run
    *subtask*, without ever waiting.

    Called from the thread scheduled to execute the forward task.  The
    three cases of Section VI-B:

    1. update completed (or never existed) → run the subtask here;
    2. update queued → steal it, run update then subtask here;
    3. update claimed or executing → attach the subtask; the updating
       thread runs it on completion and this thread returns for other
       work.
    """
    if update_task is None:
        subtask.execute()
        return
    if update_task.try_steal():
        # Case 2: we now own the update; run it and the subtask follows
        # via the execute() body below.
        update_task.execute()
        subtask.execute()
        return
    # Either executing, completed, or pending-but-unqueued; try to attach.
    if update_task.try_attach(subtask):
        # Case 3: delegated to the executing thread.
        return
    # Case 1: already completed.
    subtask.execute()
