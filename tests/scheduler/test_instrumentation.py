"""Engine instrumentation: task spans and the summary computed from them.

Every test that runs an engine records into a fresh enabled tracer (the
``task_tracer`` fixture), which is restored afterwards.
"""

import threading

import numpy as np
import pytest

from repro.observability import MetricsRegistry, set_registry
from repro.observability.tracing import Span, task_summary
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    clear_plan,
    install_plan,
)
from repro.scheduler import (
    SerialEngine,
    TaskEngine,
    task_family,
)


def task_span(name, worker, start, end, queue_wait=0.0, status="ok",
              process="test"):
    """A task span as the engine hook records it."""
    return Span("t", f"{process}:{name}:{start}", None, name,
                task_family(name), start, end, process, 1, status,
                {"worker": worker, "queue_wait": queue_wait})


class TestRecorder:
    """The tracer as the per-task record: summaries of task spans."""

    def test_records_and_summarises(self):
        s = task_summary([task_span("fwd:a", 0, 0.0, 1.0),
                          task_span("upd:a", 0, 1.0, 1.5),
                          task_span("fwd:b", 1, 0.0, 2.0)])
        assert s.tasks == 3
        assert s.span == pytest.approx(2.0)
        assert s.busy_per_worker == {0: 1.5, 1: 2.0}
        assert s.time_per_family == {"fwd": 3.0, "upd": 0.5}
        assert s.utilization == pytest.approx(3.5 / 4.0)

    def test_empty_summary(self):
        s = task_summary([])
        assert s.tasks == 0 and s.utilization == 0.0

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            task_summary([task_span("x", 0, 1.0, 0.5)])

    def test_clear(self, task_tracer):
        engine = SerialEngine()
        engine.spawn(lambda: None, name="fwd:x")
        engine.run_until_idle()
        assert task_summary(task_tracer.spans()).tasks == 1
        task_tracer.clear()
        assert len(task_tracer) == 0
        assert task_summary(task_tracer.spans()).tasks == 0

    def test_family_without_colon(self, task_tracer):
        engine = SerialEngine()
        engine.spawn(lambda: None, name="provider")
        engine.run_until_idle()
        assert set(task_summary(task_tracer.spans()).time_per_family) == {
            "provider"}
        s = task_summary([task_span("provider", 0, 0.0, 1.0)])
        assert s.time_per_family == {"provider": 1.0}

    def test_single_task_span(self):
        s = task_summary([task_span("fwd:only", 3, 5.0, 5.25,
                                    queue_wait=0.1)])
        assert s.tasks == 1
        assert s.span == pytest.approx(0.25)
        assert s.workers == 1
        assert s.utilization == pytest.approx(1.0)
        assert s.mean_queue_wait == pytest.approx(0.1)

    def test_zero_duration_task(self):
        s = task_summary([task_span("fwd:instant", 0, 1.0, 1.0)])
        assert s.tasks == 1 and s.span == 0.0
        assert s.utilization == 0.0  # zero span guards the division

    def test_overlapping_workers_full_utilization(self):
        s = task_summary([task_span("fwd:a", 0, 0.0, 1.0),
                          task_span("fwd:b", 1, 0.0, 1.0),
                          task_span("fwd:c", 2, 0.0, 1.0)])
        assert s.workers == 3
        assert s.utilization == pytest.approx(1.0)

    def test_out_of_order_records(self):
        """Spans arriving in non-chronological order (as they do from
        racing workers) still produce the correct span and totals."""
        s = task_summary([task_span("fwd:late", 0, 2.0, 3.0, queue_wait=0.2),
                          task_span("fwd:early", 1, 0.0, 1.0,
                                    queue_wait=0.1),
                          task_span("fwd:mid", 0, 1.0, 2.0)])
        assert s.span == pytest.approx(3.0)
        assert s.busy_per_worker == {0: 2.0, 1: 1.0}
        assert s.total_queue_wait == pytest.approx(0.3)
        assert s.mean_queue_wait == pytest.approx(0.1)

    def test_negative_queue_wait_clamped(self):
        s = task_summary([task_span("fwd:x", 0, 0.0, 1.0, queue_wait=-0.5)])
        assert s.total_queue_wait == 0.0

    def test_failed_status_counted(self):
        spans = [task_span("fwd:ok", 0, 0.0, 1.0),
                 task_span("fwd:bad", 0, 1.0, 2.0, status="error")]
        s = task_summary(spans)
        assert s.failed == 1
        assert s.tasks == 2  # failed tasks still count
        assert spans[1].status != "ok"

    def test_non_task_spans_ignored(self):
        round_span = Span("t", "r", None, "round:0", "training", 0.0, 9.0,
                          "test", 1)
        s = task_summary([round_span, task_span("fwd:a", 0, 1.0, 2.0)])
        assert s.tasks == 1 and s.span == pytest.approx(1.0)

    def test_processes_keep_their_workers_apart(self):
        s = task_summary([task_span("fwd:a", 0, 0.0, 1.0,
                                    process="worker-1"),
                          task_span("fwd:b", 0, 0.0, 1.0,
                                    process="worker-2")])
        assert s.busy_per_worker == {"worker-1/0": 1.0, "worker-2/0": 1.0}
        assert s.utilization == pytest.approx(1.0)


class TestEngineIntegration:
    def test_serial_engine_records(self, task_tracer):
        engine = SerialEngine()
        engine.spawn(lambda: None, name="fwd:x")
        engine.spawn(lambda: None, name="bwd:x")
        engine.run_until_idle()
        spans = task_tracer.spans()
        assert len(spans) == 2
        assert {s.category for s in spans} == {"fwd", "bwd"}
        assert {s.attrs["worker"] for s in spans} == {0}

    def test_threaded_engine_records(self, task_tracer):
        done = threading.Semaphore(0)
        with TaskEngine(num_workers=2) as engine:
            for i in range(10):
                engine.spawn(done.release, name=f"fwd:t{i}")
            for _ in range(10):
                assert done.acquire(timeout=5)
        spans = task_tracer.spans()
        assert len(spans) == 10
        workers = {s.attrs["worker"] for s in spans}
        assert workers <= {0, 1}

    def test_network_training_trace(self, rng, task_tracer):
        """A traced training round contains every task family of
        Fig 3."""
        from repro.core import Network, SGD
        from repro.graph import build_layered_network

        graph = build_layered_network("CTC", width=2, kernel=2)
        net = Network(graph, input_shape=(8, 8, 8), seed=0,
                      optimizer=SGD(learning_rate=0.01))
        x = rng.standard_normal((8, 8, 8))
        targets = {n.name: np.zeros(n.shape) for n in net.output_nodes}
        net.train_step(x, targets)
        net.synchronize()
        summary = task_summary(task_tracer.spans())
        families = set(summary.time_per_family)
        assert {"provider", "fwd", "lossgrad", "bwd"} <= families
        # updates may run inline via FORCE (then they appear as part of
        # the forcing task) or as their own queued tasks
        assert summary.tasks >= len(net.edges) * 2

    def test_threaded_engine_records_queue_wait(self, task_tracer):
        done = threading.Semaphore(0)
        with TaskEngine(num_workers=1) as engine:
            for i in range(4):
                engine.spawn(done.release, name=f"fwd:t{i}")
            for _ in range(4):
                assert done.acquire(timeout=5)
        spans = task_tracer.spans()
        assert all(s.attrs["queue_wait"] >= 0.0 for s in spans)
        assert task_summary(spans).total_queue_wait >= 0.0


class TestFailureRecording:
    def _boom(self):
        raise RuntimeError("boom")

    def test_threaded_engine_records_failed_task(self, task_tracer):
        engine = TaskEngine(num_workers=1).start()
        engine.spawn(self._boom, name="upd:bad")
        with pytest.raises(RuntimeError, match="boom"):
            engine.shutdown()
        spans = task_tracer.spans()
        assert len(spans) == 1
        assert spans[0].status == "error"
        assert task_summary(spans).failed == 1

    def test_serial_engine_records_failed_task_then_raises(self,
                                                           task_tracer):
        engine = SerialEngine()
        engine.spawn(self._boom, name="upd:bad")
        with pytest.raises(RuntimeError, match="boom"):
            engine.run_until_idle()
        spans = task_tracer.spans()
        assert len(spans) == 1
        assert spans[0].status == "error"

    def test_shutdown_notes_additional_errors(self):
        """With several workers failing, shutdown raises the first error
        and attaches the others as exception notes instead of dropping
        them (all stay reachable via ``engine.errors``)."""
        barrier = threading.Barrier(2, timeout=10)

        def fail(tag):
            def body():
                barrier.wait()  # both workers mid-task before either closes
                raise RuntimeError(f"boom-{tag}")
            return body

        engine = TaskEngine(num_workers=2).start()
        engine.spawn(fail("a"), name="upd:a")
        engine.spawn(fail("b"), name="upd:b")
        with pytest.raises(RuntimeError, match="boom-") as excinfo:
            engine.shutdown()
        assert len(engine.errors) == 2
        notes = getattr(excinfo.value, "__notes__", [])
        assert len(notes) == 1
        assert "additional worker error" in notes[0]
        # a second shutdown must not duplicate the notes
        with pytest.raises(RuntimeError):
            engine.shutdown()
        assert len(getattr(excinfo.value, "__notes__", [])) == 1


def _family_counts(registry):
    """``engine.tasks{family=...}`` values keyed by family."""
    prefix = "engine.tasks{family="
    return {name[len(prefix):-1]: value
            for name, value in registry.snapshot().items()
            if name.startswith(prefix)}


def _run_on(engine_kind, bodies):
    """Run ``(name, body)`` tasks to completion on a fresh engine of
    *engine_kind* (``"serial"`` or ``"threaded"``) with a one-retry
    policy."""
    policy = RetryPolicy(max_retries=1, backoff_seconds=0.001,
                         max_backoff_seconds=0.001)
    if engine_kind == "serial":
        engine = SerialEngine(retry_policy=policy)
        for name, body in bodies:
            engine.spawn(body, name=name)
        engine.run_until_idle()
        return
    done = threading.Semaphore(0)

    def signalling(body):
        def run():
            body()
            done.release()
        return run

    with TaskEngine(num_workers=2, retry_policy=policy) as engine:
        for name, body in bodies:
            engine.spawn(signalling(body), name=name)
        for _ in bodies:
            assert done.acquire(timeout=10)


class TestEngineTaskCounter:
    """``engine.tasks{family}`` counts every attempt an engine worker
    runs — one per task span — on both engines."""

    @pytest.fixture
    def registry(self):
        fresh = MetricsRegistry()
        previous = set_registry(fresh)
        yield fresh
        set_registry(previous)

    @pytest.fixture(autouse=True)
    def no_global_plan(self):
        clear_plan()
        yield
        clear_plan()

    BODIES = [("fwd:a", lambda: None), ("fwd:b", lambda: None),
              ("bwd:a", lambda: None), ("provider", lambda: None)]

    def test_injected_failure_counts_the_same_on_both_engines(self,
                                                              registry):
        counts = {}
        for kind in ("serial", "threaded"):
            registry.reset()
            install_plan(FaultPlan([FaultSpec.parse("fail:fwd:1")]))
            _run_on(kind, self.BODIES)
            clear_plan()
            counts[kind] = _family_counts(registry)
        # The failed first fwd attempt counts alongside its retry.
        assert counts["serial"] == {"fwd": 3, "bwd": 1, "provider": 1}
        assert counts["threaded"] == counts["serial"]

    @pytest.mark.parametrize("kind", ["serial", "threaded"])
    def test_task_spans_close_against_the_counter(self, kind, registry,
                                                  task_tracer):
        install_plan(FaultPlan([FaultSpec.parse("fail:bwd:1")]))
        _run_on(kind, self.BODIES)
        spans_per_family = {}
        for span in task_tracer.spans():
            spans_per_family[span.category] = (
                spans_per_family.get(span.category, 0) + 1)
        assert spans_per_family == _family_counts(registry)
        assert task_summary(task_tracer.spans()).failed == 1
