"""Threaded task-execution engine (Section VI-B).

A predetermined number of worker threads repeatedly pick the most
urgent task off a shared scheduling structure and execute it.  The
default structure is the heap-of-lists priority queue; FIFO / LIFO /
work-stealing alternatives (Section X) plug in through the same
interface (see :mod:`repro.scheduler.strategies`).

In CPython the GIL serialises pure-Python bytecode, but the heavy task
bodies here are numpy FFTs, tensordots and ufuncs which release the GIL
for their inner loops, so workers do overlap real work on multi-core
hosts.  The scalability *measurements* of the paper are reproduced by
the discrete-event simulator (:mod:`repro.simulate`) which schedules the
identical task graph with this engine's policy — see DESIGN.md.

Both engines run every popped task through :func:`run_task`, the one
per-task hook: it claims the task, applies an installed fault plan,
opens the task's trace span (worker index and queue wait attached) and
feeds the per-family ``engine.tasks`` counters and
``engine.busy_seconds`` — with ``engine.failed`` and
``engine.idle_seconds``, the live counterpart of the utilization
quantities behind Figs 5–7.

Beyond the paper, the engine is fault-tolerant (see
``docs/robustness.md``): an optional
:class:`repro.resilience.RetryPolicy` re-executes failed tasks with
exponential backoff (``engine.tasks.retried``) before the failure
propagates, and its watchdog abandons tasks stuck past ``timeout``
(``engine.tasks.timed_out``), replacing both the task and the stuck
worker.  An installed :class:`repro.resilience.FaultPlan` injects
failures/hangs per task family for chaos testing; with no plan the
hot path pays a single global read.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional

from repro.analysis.runtime import make_lock
from repro.observability.metrics import Counter, get_registry
from repro.observability.tracing import flight_dump, flight_note, get_tracer
from repro.resilience.faults import active_plan
from repro.resilience.retry import RetryPolicy, TaskTimeout
from repro.scheduler.task import Task, force
from repro.sync.priority_queue import HeapOfLists, QueueClosed

__all__ = ["TaskEngine", "LOWEST_PRIORITY", "task_family", "run_task"]

#: Priority value assigned to update tasks — strictly less urgent than
#: any forward/backward priority the graph can produce (Section VI-A).
LOWEST_PRIORITY = 2**31


def task_family(name: str) -> str:
    """Task-name prefix before the first colon ('fwd', 'upd', …)."""
    head, _, _ = name.partition(":")
    return head or "anonymous"


class EngineCounters:
    """The ``engine.*`` counters both engines feed, fetched from the
    registry that is current when the engine is built."""

    def __init__(self) -> None:
        reg = get_registry()
        self._registry = reg
        self.busy = reg.counter("engine.busy_seconds")
        self.failed = reg.counter("engine.failed")
        self.timed_out = reg.counter("engine.tasks.timed_out")
        self._lock = make_lock("scheduler.engine_counters")
        #: name -> family -> counter, for the per-family counters.
        self._per_family: Dict[str, Dict[str, Counter]] = {  # guarded-by: _lock
            "engine.tasks": {}, "engine.tasks.retried": {}}

    def family(self, name: str, family: str) -> Counter:
        """The ``name{family=...}`` counter (``engine.tasks`` or
        ``engine.tasks.retried``)."""
        # Fast path: dict reads are GIL-atomic.  Insertion is
        # double-checked under the lock — concurrent first use of a
        # family must not race the dict resize.
        by_family = self._per_family[name]
        counter = by_family.get(family)
        if counter is None:
            with self._lock:
                counter = by_family.get(family)
                if counter is None:
                    counter = self._registry.counter(name, family=family)
                    by_family[family] = counter
        return counter


def run_task(task: Task, worker: int, counters: EngineCounters) -> bool:
    """Run one popped *task* on behalf of engine worker *worker*.

    The claim succeeds only from QUEUED: a task that FORCE or
    ``Network.synchronize`` stole after the queue handed it out belongs
    to the stealer, and this returns False without running anything.
    Otherwise the fault plan, the task span and the body run, every
    attempt — failed ones included — counts once in
    ``engine.tasks{family}``, and the body's exception propagates to
    the engine's own retry/failure policy.
    """
    if not task.try_steal():
        return False
    family = task_family(task.name)
    t0 = time.perf_counter()
    try:
        tracer = get_tracer()
        if tracer.enabled:
            queue_wait = max(t0 - task.queued_at, 0.0) \
                if task.queued_at else 0.0
            with tracer.task_span(task, family, worker, queue_wait):
                _run_claimed(task, family)
        else:
            _run_claimed(task, family)
    finally:
        counters.busy.inc(time.perf_counter() - t0)
        counters.family("engine.tasks", family).inc()
    return True


def _run_claimed(task: Task, family: str) -> None:
    plan = active_plan()
    if plan is not None:
        plan.check(family, task.name)
    # An injected hang may have let the watchdog abandon this task;
    # the replacement owns it now.
    if not task.abandoned:
        task.execute()


class TaskEngine:
    """Executes tasks with *num_workers* threads until closed.

    Parameters
    ----------
    num_workers:
        Worker thread count (the paper's ``N`` workers).
    scheduler:
        Scheduling structure implementing ``push(priority, item,
        is_valid)``, ``pop(block, timeout)``, ``close()``.  Defaults to
        a fresh :class:`repro.sync.HeapOfLists`.
    retry_policy:
        Optional :class:`repro.resilience.RetryPolicy`.  Without one
        (the default) the first task failure closes the queue and
        propagates on :meth:`shutdown`, exactly the paper's behaviour.

    Use as a context manager to guarantee shutdown::

        with TaskEngine(num_workers=4) as engine:
            engine.submit(task)
            done.wait()
    """

    def __init__(self, num_workers: int = 1,
                 scheduler: Optional[Any] = None,
                 retry_policy: Optional[RetryPolicy] = None) -> None:
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        self.num_workers = num_workers
        self.queue = scheduler if scheduler is not None else HeapOfLists()
        self.retry_policy = retry_policy
        self._lock = make_lock("scheduler.engine")
        self._threads: List[threading.Thread] = []  # guarded-by: _lock
        self._lost_threads: List[threading.Thread] = []  # guarded-by: _lock
        self._started = False  # guarded-by: _lock
        self._executed = 0  # guarded-by: _lock
        self._errors: List[BaseException] = []  # guarded-by: _lock
        self._errors_noted = False  # guarded-by: _lock
        self._next_worker = 0  # guarded-by: _lock
        #: worker index -> (task, start time), for the watchdog.
        self._executing: Dict[int, tuple] = {}  # guarded-by: _lock
        self._abandoned: set = set()  # guarded-by: _lock
        self._watchdog: Optional[threading.Thread] = None
        self._watchdog_stop = threading.Event()
        self._counters = EngineCounters()
        self._m_idle = get_registry().counter("engine.idle_seconds")

    # ------------------------------------------------------------------

    def start(self) -> "TaskEngine":
        with self._lock:
            if self._started:
                return self
            self._started = True
        for _ in range(self.num_workers):
            self._spawn_worker()
        if self.retry_policy is not None and self.retry_policy.timeout:
            self._watchdog = threading.Thread(target=self._watchdog_loop,
                                              name="znn-watchdog",
                                              daemon=True)
            self._watchdog.start()
        return self

    def _spawn_worker(self) -> None:
        with self._lock:
            index = self._next_worker
            self._next_worker += 1
        t = threading.Thread(target=self._worker_loop,
                             name=f"znn-worker-{index}", daemon=True)
        t.start()
        with self._lock:
            self._threads.append(t)

    def shutdown(self) -> None:
        """Close the queue and join all workers.

        If workers failed, the first exception is raised with every
        later one attached as an exception note (so multi-worker
        failures are not swallowed) and available via :attr:`errors`.
        Workers abandoned by the watchdog are daemon threads and are
        only joined briefly — a genuinely hung body cannot block
        shutdown.
        """
        self.queue.close()
        self._watchdog_stop.set()
        if self._watchdog is not None:
            self._watchdog.join()
            self._watchdog = None
        with self._lock:
            threads = list(self._threads)
            self._threads.clear()
            lost = list(self._lost_threads)
            self._lost_threads.clear()
        for t in threads:
            t.join()
        for t in lost:
            t.join(timeout=0.1)
        if self._errors:
            primary = self._errors[0]
            with self._lock:
                note_rest = not self._errors_noted
                self._errors_noted = True
            if note_rest:
                for extra in self._errors[1:]:
                    primary.add_note(
                        "additional worker error (see TaskEngine.errors): "
                        f"{type(extra).__name__}: {extra}")
            raise primary

    def __enter__(self) -> "TaskEngine":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    # ------------------------------------------------------------------

    def submit(self, task: Task) -> Task:
        """Enqueue *task* at its own priority."""
        task.mark_queued()
        task.queued_at = time.perf_counter()
        self.queue.push(task.priority, task, is_valid=task.is_queued)
        return task

    def spawn(self, fn: Callable[[], Any], priority: int = 0,
              name: str = "") -> Task:
        """Create and enqueue a task in one step."""
        return self.submit(Task(fn, priority=priority, name=name))

    def force(self, update_task: Optional[Task], fn: Callable[[], Any],
              name: str = "") -> None:
        """FORCE a forward subtask behind its edge's update task
        (Algorithm 1) from the current worker thread."""
        force(update_task, Task(fn, name=name))

    # ------------------------------------------------------------------

    @property
    def executed(self) -> int:
        """Popped tasks executed to completion so far (a task's
        attached subtasks run inside it and are not counted apart)."""
        with self._lock:
            return self._executed

    @property
    def errors(self) -> List[BaseException]:
        with self._lock:
            return list(self._errors)

    # ------------------------------------------------------------------

    def _worker_loop(self) -> None:
        worker_index = int(threading.current_thread().name.rsplit("-", 1)[-1])
        counters = self._counters
        t_wait = time.perf_counter()
        while True:
            try:
                _, task = self.queue.pop(block=True, timeout=None)
            except QueueClosed:
                return
            except IndexError:  # pragma: no cover - timeout unused here
                t_wait = time.perf_counter()
                continue
            t0 = time.perf_counter()
            self._m_idle.inc(t0 - t_wait)
            error: Optional[BaseException] = None
            ran = False
            with self._lock:
                self._executing[worker_index] = (task, t0)
            try:
                ran = run_task(task, worker_index, counters)
            except BaseException as exc:  # propagate via shutdown()
                error = exc
            finally:
                with self._lock:
                    self._executing.pop(worker_index, None)
                    worker_abandoned = worker_index in self._abandoned
            t_wait = time.perf_counter()  # idle clock restarts here
            if worker_abandoned:
                # The watchdog spawned a replacement worker while this
                # one was stuck; it has already accounted for the task.
                return
            if error is None:
                if ran:
                    with self._lock:
                        self._executed += 1
                continue
            family = task_family(task.name)
            if (self.retry_policy is not None
                    and self.retry_policy.should_retry(error, task.attempts)
                    and task.reset_for_retry()):
                counters.family("engine.tasks.retried", family).inc()
                time.sleep(self.retry_policy.backoff(task.attempts - 1))
                try:
                    self.submit(task)
                except QueueClosed:
                    pass  # another worker failed fatally; so do we
                else:
                    t_wait = time.perf_counter()
                    continue
            counters.failed.inc()
            with self._lock:
                self._errors.append(error)
            flight_note("engine task failed fatally",
                        task=task.name, worker=worker_index,
                        error=f"{type(error).__name__}: {error}")
            flight_dump(f"engine-failed-{family}")
            self.queue.close()
            return

    # -- watchdog ------------------------------------------------------

    def _watchdog_loop(self) -> None:
        timeout = self.retry_policy.timeout
        interval = max(min(timeout / 4.0, 0.05), 0.001)
        while not self._watchdog_stop.wait(interval):
            now = time.perf_counter()
            with self._lock:
                overdue = [(w, task) for w, (task, t0)
                           in self._executing.items()
                           if now - t0 > timeout]
            for worker_index, task in overdue:
                self._handle_timeout(worker_index, task)

    def _handle_timeout(self, worker_index: int, task: Task) -> None:
        """Abandon a stuck (task, worker) pair; speculatively re-submit
        the task on a fresh worker while retry budget remains, else
        record a :class:`TaskTimeout` and close the queue."""
        with self._lock:
            if worker_index in self._abandoned:
                return
            current = self._executing.get(worker_index)
            if current is None or current[0] is not task:
                return  # finished between scan and handling
            self._abandoned.add(worker_index)
            task.abandoned = True
            self._executing.pop(worker_index, None)
            name = f"znn-worker-{worker_index}"
            for t in list(self._threads):
                if t.name == name:
                    self._threads.remove(t)
                    self._lost_threads.append(t)
        self._counters.timed_out.inc()
        timeout_error = TaskTimeout(
            f"task {task.name!r} exceeded {self.retry_policy.timeout}s "
            f"(attempt {task.attempts + 1})")
        if self.retry_policy.should_retry(timeout_error, task.attempts):
            self._counters.family("engine.tasks.retried",
                                  task_family(task.name)).inc()
            self._spawn_worker()
            try:
                self.submit(task.clone_for_retry())
            except QueueClosed:
                pass
            return
        with self._lock:
            self._errors.append(timeout_error)
        self.queue.close()
