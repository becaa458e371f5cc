"""Serial task executor — the ``T_1`` baseline.

Executes the same task objects as :class:`repro.scheduler.TaskEngine`
but on the calling thread, draining the queue in priority order.  This
is both the speedup denominator of Section VIII and a deterministic
execution mode that makes unit-testing the graph logic easy.

Like the threaded engine it honours an optional
:class:`repro.resilience.RetryPolicy` (failed tasks re-execute in place
after backoff) and an installed :class:`repro.resilience.FaultPlan`.
A serial engine cannot preempt its own thread, so ``timeout`` is
advisory here: overruns are counted in ``engine.tasks.timed_out`` but
never abort the task.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Optional

from repro.resilience.retry import RetryPolicy
from repro.scheduler.engine import EngineCounters, run_task, task_family
from repro.scheduler.task import Task, force
from repro.sync.priority_queue import HeapOfLists

__all__ = ["SerialEngine"]


class SerialEngine:
    """Drop-in single-threaded replacement for :class:`TaskEngine`.

    ``submit`` enqueues; ``run_until_idle`` (called automatically by
    ``shutdown``/context exit, or manually mid-round) pops and executes
    until the queue drains.  Because spawned tasks land back on the same
    queue, one call executes a whole training round.
    """

    def __init__(self, scheduler: Optional[Any] = None,
                 retry_policy: Optional[RetryPolicy] = None) -> None:
        self.num_workers = 1
        self.queue = scheduler if scheduler is not None else HeapOfLists()
        self.retry_policy = retry_policy
        self._executed = 0
        self._counters = EngineCounters()

    def start(self) -> "SerialEngine":
        return self

    def __enter__(self) -> "SerialEngine":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.run_until_idle()

    def shutdown(self) -> None:
        self.run_until_idle()

    # ------------------------------------------------------------------

    def submit(self, task: Task) -> Task:
        task.mark_queued()
        task.queued_at = (
            time.perf_counter())  # nondeterministic: queue-wait metric
        self.queue.push(task.priority, task, is_valid=task.is_queued)
        return task

    def spawn(self, fn: Callable[[], Any], priority: int = 0,
              name: str = "") -> Task:
        return self.submit(Task(fn, priority=priority, name=name))

    def force(self, update_task: Optional[Task], fn: Callable[[], Any],
              name: str = "") -> None:
        force(update_task, Task(fn, name=name))

    def run_until_idle(self) -> int:
        """Execute queued tasks (and everything they spawn) to quiescence.

        Returns the number of tasks executed by this call.  With a
        retry policy, a failing task re-executes in place (after
        backoff) until it succeeds or the retry budget is exhausted;
        only then does the failure propagate.
        """
        policy = self.retry_policy
        timeout = policy.timeout if policy is not None else None
        counters = self._counters
        count = 0
        while True:
            try:
                _, task = self.queue.pop(block=False)
            except IndexError:
                break
            while True:
                t0 = time.perf_counter() if timeout is not None else 0.0
                try:
                    ran = run_task(task, 0, counters)
                except BaseException as exc:
                    if (policy is not None
                            and policy.should_retry(exc, task.attempts)
                            and task.reset_for_retry()):
                        counters.family("engine.tasks.retried",
                                        task_family(task.name)).inc()
                        time.sleep(policy.backoff(task.attempts - 1))
                        task.mark_queued()  # re-execute in place
                        continue
                    counters.failed.inc()
                    self._executed += count
                    raise
                break
            if not ran:
                continue
            if timeout is not None and time.perf_counter() - t0 > timeout:
                # Advisory only: the serial engine cannot preempt itself.
                counters.timed_out.inc()
            count += 1
        self._executed += count
        return count

    @property
    def executed(self) -> int:
        return self._executed

    @property
    def errors(self) -> list:
        return []
