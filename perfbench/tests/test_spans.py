"""Tests of the outside-in tracer: wrappers come off, rows close."""

import time

import numpy as np
import pytest

from spans import (CACHE_COMPUTE, SpanRecorder, layer_report, row_names,
                   self_times, snapshot)
from workloads import wait_for_updates


def test_install_patches_and_restore_puts_every_original_back():
    before = snapshot()
    recorder = SpanRecorder()
    with recorder:
        during = snapshot()
        assert all(during[t] is not before[t] for t in before)
    after = snapshot()
    assert all(after[t] is before[t] for t in before)


def test_inherited_target_is_unshadowed_after_restore():
    from repro.serving.fleet import FleetRequest
    from repro.serving.pipeline import PendingRequest

    request = FleetRequest("m", np.zeros((1, 1, 1)), None)
    request._resolve(np.ones(1), None)
    recorder = SpanRecorder()
    with recorder:
        assert FleetRequest.result is not PendingRequest.result
        request.result()
    assert "result" not in vars(FleetRequest)
    assert FleetRequest.result is PendingRequest.result
    # One span, the subclass's: its wrapper wraps the original method,
    # not PendingRequest's wrapper.
    assert [s[1] for s in recorder.spans] == [
        "repro.serving.fleet:FleetRequest.result"]


def test_self_times_subtract_children_and_clip_to_window():
    spans = [(1, "a", 0.0, 10.0, 7, 0, 0),
             (2, "b", 2.0, 5.0, 7, 1, 0),
             (3, "c", 3.0, 4.0, 7, 2, 0)]
    assert self_times(spans, 0.0, 10.0) == pytest.approx(
        {1: 7.0, 2: 2.0, 3: 1.0})
    assert self_times(spans, 4.0, 6.0) == pytest.approx(
        {1: 1.0, 2: 1.0, 3: 0.0})


def test_rows_and_unattributed_add_up_to_thread_seconds():
    from repro.core.network import Network
    from repro.graph.builders import build_layered_network

    graph = build_layered_network("CTMCT", width=2, kernel=2, window=2,
                                  skip_kernels=True, output_nodes=1)
    rng = np.random.default_rng(0)
    net = Network(graph, input_shape=(10, 10, 10), conv_mode="fft",
                  num_workers=2, seed=0)
    sample = rng.standard_normal((10, 10, 10))
    target = rng.random(net.output_nodes[0].shape)
    before = snapshot()
    recorder = SpanRecorder()
    try:
        net.train_step(sample, target)
        with recorder:
            start = time.perf_counter()
            for _ in range(3):
                net.train_step(sample, target)
            wait_for_updates(net)
            end = time.perf_counter()
    finally:
        wait_for_updates(net)
        net.close()
    after = snapshot()
    assert all(after[t] is before[t] for t in before)

    report = layer_report(recorder, [(start, end, 3)])
    # The caller plus the two engine workers recorded spans; each counts
    # for the whole window.
    threads = {span[4] for span in recorder.spans}
    assert len(threads) == 3 == report["trace.threads"]
    thread_s = len(threads) * (end - start) / 3
    rows = sum(report[name] for name in row_names())
    assert rows == pytest.approx(thread_s, rel=1e-9)
    # Self times never exceed the time their thread had, so no row, and
    # not the rest left unattributed, is negative.
    assert all(report[name] >= -1e-9 for name in row_names())
    assert report["tensor.fourier.fwd_calls"] > 0
    assert report["tensor.conv_direct.calls"] == 0


def test_cache_hit_fraction_counts_computes_as_misses():
    from repro.tensor.fft_cache import TransformCache

    cache = TransformCache()
    recorder = SpanRecorder()
    with recorder:
        start = time.perf_counter()
        for _ in range(4):
            cache.get_or_compute("img", "n", lambda: np.ones(8))
        end = time.perf_counter()
    assert sum(1 for s in recorder.spans if s[1] == CACHE_COMPUTE) == 1
    report = layer_report(recorder, [(start, end, 1)], recorder.cache_bytes())
    assert report["tensor.fft_cache.lookups"] == 4
    assert report["tensor.fft_cache.hit_frac"] == pytest.approx(0.75)
    assert report["tensor.fft_cache.bytes"] == 64
