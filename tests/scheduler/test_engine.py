"""Threaded TaskEngine and SerialEngine tests."""

import threading

import pytest

from repro.scheduler import (
    LOWEST_PRIORITY,
    SerialEngine,
    Task,
    TaskEngine,
    TaskState,
    force,
    run_task,
)
from repro.scheduler.engine import EngineCounters
from repro.sync import HeapOfLists


class TestTaskEngine:
    def test_executes_submitted_tasks(self):
        done = threading.Event()
        with TaskEngine(num_workers=2) as engine:
            engine.spawn(done.set)
            assert done.wait(timeout=5)
        assert engine.executed >= 1

    def test_tasks_can_spawn_tasks(self):
        results = []
        done = threading.Event()
        with TaskEngine(num_workers=2) as engine:
            def child():
                results.append("child")
                done.set()

            engine.spawn(lambda: engine.spawn(child))
            assert done.wait(timeout=5)
        assert results == ["child"]

    def test_many_tasks_all_run(self):
        count = 200
        seen = []
        lock = threading.Lock()
        remaining = threading.Semaphore(0)
        with TaskEngine(num_workers=4) as engine:
            for i in range(count):
                def body(i=i):
                    with lock:
                        seen.append(i)
                    remaining.release()

                engine.spawn(body, priority=i % 5)
            for _ in range(count):
                assert remaining.acquire(timeout=5)
        assert sorted(seen) == list(range(count))

    def test_error_propagates_on_shutdown(self):
        engine = TaskEngine(num_workers=1).start()
        engine.spawn(lambda: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            # allow the worker to hit the error, then join
            import time
            time.sleep(0.1)
            engine.shutdown()

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            TaskEngine(num_workers=0)

    def test_force_through_engine(self):
        order = []
        done = threading.Event()
        with TaskEngine(num_workers=1) as engine:
            upd = Task(lambda: order.append("upd"),
                       priority=LOWEST_PRIORITY, name="upd")
            engine.submit(upd)

            def fwd_task():
                engine.force(upd, lambda: (order.append("fwd"), done.set()))

            engine.spawn(fwd_task, priority=0)
            assert done.wait(timeout=5)
        assert order == ["upd", "fwd"]


class TestMultiWorkerFailures:
    def _fail_both_workers(self):
        import time

        engine = TaskEngine(num_workers=2).start()
        barrier = threading.Barrier(2)

        def boom(i):
            barrier.wait(timeout=5)  # both workers inside a task body
            raise RuntimeError(f"worker failure {i}")

        engine.spawn(lambda: boom(0), name="fwd:a")
        engine.spawn(lambda: boom(1), name="fwd:b")
        deadline = time.time() + 5
        while len(engine.errors) < 2 and time.time() < deadline:
            time.sleep(0.01)
        return engine

    def test_errors_property_collects_every_failure(self):
        engine = self._fail_both_workers()
        errors = engine.errors
        assert len(errors) == 2
        assert {str(e) for e in errors} == {"worker failure 0",
                                           "worker failure 1"}
        with pytest.raises(RuntimeError):
            engine.shutdown()

    def test_shutdown_notes_secondary_errors(self):
        engine = self._fail_both_workers()
        with pytest.raises(RuntimeError) as excinfo:
            engine.shutdown()
        notes = getattr(excinfo.value, "__notes__", [])
        assert len(notes) == 1
        assert "additional worker error" in notes[0]
        assert "worker failure" in notes[0]

    def test_shutdown_reraise_is_idempotent(self):
        engine = self._fail_both_workers()
        with pytest.raises(RuntimeError) as first:
            engine.shutdown()
        with pytest.raises(RuntimeError) as second:
            engine.shutdown()
        # Same primary exception, and its notes are not duplicated.
        assert second.value is first.value
        assert len(getattr(first.value, "__notes__", [])) == 1


class TestQueueClosedVsForce:
    def test_pending_force_survives_queue_close(self):
        """A QUEUED update whose queue closed underneath it can still be
        FORCEd: the steal works on the task's state machine, not the
        queue, so the update is not lost."""
        from repro.sync import QueueClosed

        engine = TaskEngine(num_workers=1)  # not started: deterministic
        order = []
        upd = Task(lambda: order.append("upd"),
                   priority=LOWEST_PRIORITY, name="upd:e")
        engine.submit(upd)
        engine.queue.close()
        with pytest.raises(QueueClosed):
            engine.spawn(lambda: None, name="fwd:late")
        engine.force(upd, lambda: order.append("sub"), name="do-fwd:e")
        assert order == ["upd", "sub"]

    def test_force_races_worker_failure_close(self):
        """A worker failure closes the queue while another worker is
        about to FORCE a pending update; the forced chain still runs."""
        import time

        started = threading.Event()
        order = []
        engine = TaskEngine(num_workers=2).start()
        upd = Task(lambda: order.append("upd"),
                   priority=LOWEST_PRIORITY, name="upd:e")
        engine.submit(upd)

        def fwd():
            started.set()
            deadline = time.time() + 5
            while not engine.errors and time.time() < deadline:
                time.sleep(0.005)
            engine.force(upd, lambda: order.append("sub"), name="do-fwd:e")

        def boom():
            assert started.wait(5)
            raise RuntimeError("fatal")

        engine.spawn(fwd, priority=0, name="fwd:e")
        engine.spawn(boom, priority=1, name="bwd:boom")
        with pytest.raises(RuntimeError, match="fatal"):
            engine.shutdown()
        assert order == ["upd", "sub"]


class TestPoppedTaskClaim:
    """A popped task is claimed only from QUEUED, so a steal between the
    queue's pop and the worker's claim cannot run it twice.  Both
    interleavings are driven step by step on one thread."""

    def _pushed(self, body, name="upd:e"):
        queue = HeapOfLists()
        task = Task(body, priority=LOWEST_PRIORITY, name=name)
        task.mark_queued()
        queue.push(task.priority, task, is_valid=task.is_queued)
        _, popped = queue.pop(block=False)
        assert popped is task
        return task

    def test_steal_after_pop_leaves_the_task_to_the_stealer(self):
        runs = []
        task = self._pushed(lambda: runs.append("upd"))
        # FORCE steals the popped task before the worker claims it.
        force(task, Task(lambda: runs.append("fwd")))
        assert runs == ["upd", "fwd"]
        assert run_task(task, 0, EngineCounters()) is False
        assert runs == ["upd", "fwd"]  # body ran once, nothing raised
        assert task.state is TaskState.COMPLETED

    def test_claim_before_force_attaches_the_subtask(self):
        runs = []
        task = None

        def update():
            runs.append("upd")
            # FORCE arrives while the hook owns the task: the subtask
            # attaches and runs right after the update, on this thread.
            force(task, Task(lambda: runs.append("fwd")))
            assert runs == ["upd"]

        task = self._pushed(update)
        assert run_task(task, 0, EngineCounters()) is True
        assert runs == ["upd", "fwd"]
        assert task.state is TaskState.COMPLETED

    def test_synchronize_style_steal_after_pop(self):
        runs = []
        task = self._pushed(lambda: runs.append("upd"))
        assert task.try_steal()  # Network.synchronize's steal
        task.execute()
        assert run_task(task, 0, EngineCounters()) is False
        assert runs == ["upd"]


class TestSerialEngine:
    def test_run_until_idle_executes_all(self):
        engine = SerialEngine()
        seen = []
        engine.spawn(lambda: seen.append(1))
        engine.spawn(lambda: seen.append(2))
        assert engine.run_until_idle() == 2
        assert sorted(seen) == [1, 2]

    def test_priority_order_respected(self):
        engine = SerialEngine()
        order = []
        engine.spawn(lambda: order.append("late"), priority=5)
        engine.spawn(lambda: order.append("early"), priority=1)
        engine.run_until_idle()
        assert order == ["early", "late"]

    def test_spawned_children_run_in_same_drain(self):
        engine = SerialEngine()
        order = []

        def parent():
            order.append("parent")
            engine.spawn(lambda: order.append("child"))

        engine.spawn(parent)
        engine.run_until_idle()
        assert order == ["parent", "child"]

    def test_executed_counter(self):
        engine = SerialEngine()
        for _ in range(5):
            engine.spawn(lambda: None)
        engine.run_until_idle()
        assert engine.executed == 5

    def test_context_manager_drains(self):
        seen = []
        with SerialEngine() as engine:
            engine.spawn(lambda: seen.append(1))
        assert seen == [1]

    def test_force_steals_queued_update(self):
        engine = SerialEngine()
        order = []
        upd = Task(lambda: order.append("upd"), priority=LOWEST_PRIORITY)
        engine.submit(upd)
        engine.force(upd, lambda: order.append("fwd"))
        assert order == ["upd", "fwd"]
        # the queue entry was invalidated; draining runs nothing more
        assert engine.run_until_idle() == 0
