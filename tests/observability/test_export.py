"""Exporter tests: Chrome-trace JSON of task spans and metrics
snapshots."""

import json

import pytest

from repro.observability import (
    MetricsRegistry,
    metrics_snapshot,
    render_metrics,
    write_metrics_json,
)
from repro.observability.tracing import (
    Span,
    Tracer,
    merge_trace_files,
    read_trace_file,
    spans_to_chrome_trace,
    write_trace_file,
)


def _task_span(name, family, worker, thread, start, end, queue_wait=0.0,
               status="ok"):
    return Span("t1", f"main:{name}", None, name, family, start, end,
                "main", thread, status,
                {"worker": worker, "queue_wait": queue_wait})


def _recorded_span():
    return [
        _task_span("fwd:a", "fwd", 0, 100, 10.0, 10.5, queue_wait=0.001),
        _task_span("bwd:a", "bwd", 1, 101, 10.5, 11.0),
        _task_span("upd:a", "upd", 0, 100, 11.0, 11.2, status="error"),
    ]


class TestChromeTrace:
    def test_empty_records(self):
        doc = spans_to_chrome_trace([])
        assert doc == {"traceEvents": [], "displayTimeUnit": "ms"}

    def test_slices_and_metadata(self):
        events = spans_to_chrome_trace(_recorded_span())["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        slices = [e for e in events if e["ph"] == "X"]
        assert len(slices) == 3
        # process name + one thread name per worker thread
        names = {e["name"] for e in meta}
        assert names == {"process_name", "thread_name"}
        assert {e["args"]["name"] for e in meta} == {
            "main", "main/t0", "main/t1"}

    def test_timestamps_relative_microseconds(self):
        slices = [e for e in
                  spans_to_chrome_trace(_recorded_span())["traceEvents"]
                  if e["ph"] == "X"]
        by_name = {e["name"]: e for e in slices}
        assert by_name["fwd:a"]["ts"] == pytest.approx(0.0)
        assert by_name["fwd:a"]["dur"] == pytest.approx(0.5e6)
        assert by_name["bwd:a"]["ts"] == pytest.approx(0.5e6)
        assert by_name["fwd:a"]["args"]["queue_wait"] == pytest.approx(1e-3)
        assert by_name["bwd:a"]["args"]["worker"] == 1

    def test_failed_task_marked(self):
        slices = [e for e in
                  spans_to_chrome_trace(_recorded_span())["traceEvents"]
                  if e["ph"] == "X"]
        failed = [e for e in slices if e["args"]["status"] == "error"]
        assert len(failed) == 1
        assert failed[0]["cname"] == "terrible"
        ok = [e for e in slices if e["args"]["status"] == "ok"]
        assert all("cname" not in e for e in ok)

    def test_family_becomes_category(self):
        slices = [e for e in
                  spans_to_chrome_trace(_recorded_span())["traceEvents"]
                  if e["ph"] == "X"]
        assert {e["cat"] for e in slices} == {"fwd", "bwd", "upd"}

    def test_write_roundtrip(self, tmp_path):
        spans_file = str(tmp_path / "spans.json")
        write_trace_file(spans_file, Tracer(process="main"),
                         spans=_recorded_span())
        path = tmp_path / "trace.json"
        merge_trace_files([spans_file], str(path))
        with open(path) as fh:
            doc = json.load(fh)
        assert doc["displayTimeUnit"] == "ms"
        assert len([e for e in doc["traceEvents"] if e["ph"] == "X"]) == 3

    def test_accepts_record_list(self, tmp_path):
        """Spans read back from a trace file export exactly like the
        live ones."""
        spans = _recorded_span()
        path = str(tmp_path / "spans.json")
        write_trace_file(path, Tracer(process="main"), spans=spans)
        assert (spans_to_chrome_trace(read_trace_file(path))
                == spans_to_chrome_trace(spans))


class TestMetricsExport:
    def _registry(self):
        reg = MetricsRegistry()
        reg.counter("queue.pop").inc(7)
        reg.gauge("queue.depth").set(2)
        reg.histogram("queue.wait_seconds", buckets=[1.0]).observe(0.25)
        return reg

    def test_snapshot_of_explicit_registry(self):
        snap = metrics_snapshot(self._registry())
        assert snap["queue.pop"] == 7
        assert snap["queue.depth"] == 2
        assert snap["queue.wait_seconds"]["count"] == 1

    def test_render_contains_all_metrics(self):
        text = render_metrics(registry=self._registry())
        for fragment in ("queue.pop", "queue.depth", "queue.wait_seconds",
                         "count=1"):
            assert fragment in text

    def test_render_histogram_without_observations(self):
        reg = MetricsRegistry()
        reg.histogram("empty", buckets=[1.0])
        text = render_metrics(registry=reg)
        assert "count=0" in text and "max=-" in text

    def test_write_metrics_json(self, tmp_path):
        path = tmp_path / "metrics.json"
        write_metrics_json(str(path), registry=self._registry())
        with open(path) as fh:
            snap = json.load(fh)
        assert snap["queue.pop"] == 7
        assert snap["queue.wait_seconds"]["buckets"]["le=+inf"] == 0


class TestEndToEnd:
    def test_training_round_fills_registry_and_trace(self, rng, tmp_path,
                                                     task_tracer):
        """One traced, pooled training round populates every acceptance
        metric family and yields a loadable Chrome trace."""
        import numpy as np

        from repro.core import Network, SGD, Trainer
        from repro.data import PatchProvider, make_cell_volume
        from repro.observability import set_registry

        from repro.memory.pools import reset_global_allocators

        fresh = MetricsRegistry()
        previous = set_registry(fresh)
        reset_global_allocators()  # rebuild pools against the fresh registry
        try:
            from repro.graph import build_layered_network

            graph = build_layered_network("CTC", width=2, kernel=2,
                                          output_nodes=1)
            net = Network(graph, input_shape=(12, 12, 12), seed=0,
                          conv_mode="fft",
                          optimizer=SGD(learning_rate=0.01))
            volume = make_cell_volume((24, 24, 24), seed=1)
            out_shape = net.output_nodes[0].shape
            provider = PatchProvider(volume, (12, 12, 12), out_shape,
                                     seed=2, pooled=True)
            Trainer(net, provider).run(rounds=2)
            net.synchronize()
            snap = fresh.snapshot()
            assert snap["queue.pop"] > 0
            assert snap["fft_cache.hit"] + snap["fft_cache.miss"] > 0
            assert any(name.startswith("pool.alloc") and value > 0
                       for name, value in snap.items()
                       if not isinstance(value, dict))
            assert snap["train.rounds"] == 2
            assert snap["train.seconds_per_update"]["count"] == 2
            path = str(tmp_path / "t.json")
            with open(path, "w") as fh:
                json.dump(spans_to_chrome_trace(task_tracer.spans()), fh)
            with open(path) as fh:
                doc = json.load(fh)
            assert any(e["ph"] == "X" for e in doc["traceEvents"])
            assert np.isfinite(snap["train.loss"])
        finally:
            set_registry(previous)
            reset_global_allocators()
