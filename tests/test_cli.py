"""CLI and reporting tests."""

import numpy as np
import pytest

from repro import reporting
from repro.cli import build_parser, main


class TestReporting:
    def test_render_table(self):
        text = reporting.render_table("T", ["a", "bb"], [[1, 2], [30, 4]])
        lines = text.splitlines()
        assert lines[0] == "== T =="
        assert "bb" in lines[1]
        assert "30" in lines[4]

    def test_figure4_structure(self):
        header, rows = reporting.figure4(widths=(5, 20))
        assert header == ["P", "w=5", "w=20"]
        assert len(rows) == 5  # FIG4_PROCESSORS

    def test_figure5_structure(self):
        header, rows = reporting.figure5("xeon-8", 3, widths=(5,))
        assert header[0] == "width"
        assert len(rows) == 1

    def test_figure6_7(self):
        header, rows = reporting.figure6_7(3, widths=(5,),
                                           machine_keys=("xeon-8",))
        assert rows[0][0] == "xeon-8"
        assert float(rows[0][1]) > 1.0

    def test_figure8_has_oom(self):
        header, rows = reporting.figure8(outputs=(8,))
        flat = [c for row in rows for c in row]
        assert "OOM" in flat

    def test_figure9_winners(self):
        header, rows = reporting.figure9()
        winners = {row[-1] for row in rows}
        assert winners == {"theano", "znn"}

    def test_table5(self):
        header, rows = reporting.table5()
        assert len(rows) == 4


class TestCliCommands:
    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "Table V" in out and "Xeon Phi" in out

    @pytest.mark.parametrize("number", ["4", "8", "9"])
    def test_figures_fast(self, number, capsys):
        assert main(["figure", number]) == 0
        out = capsys.readouterr().out
        assert "Fig" in out

    def test_figure5(self, capsys):
        assert main(["figure", "5", "--machine", "xeon-8",
                     "--dims", "3"]) == 0
        assert "xeon-8" in capsys.readouterr().out

    def test_simulate(self, capsys):
        assert main(["simulate", "--machine", "xeon-8", "--width", "5",
                     "--threads", "8"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out

    def test_simulate_default_threads(self, capsys):
        assert main(["simulate", "--machine", "xeon-8", "--width", "5"]) == 0
        assert "threads   16" in capsys.readouterr().out

    def test_autotune(self, capsys):
        assert main(["autotune", "--image", "12", "--kernels", "2",
                     "--repeats", "1"]) == 0
        out = capsys.readouterr().out
        assert "chosen" in out

    def test_train_default_network(self, capsys, tmp_path):
        ckpt = tmp_path / "model.npz"
        assert main(["train", "--rounds", "2", "--input-size", "20",
                     "--volume-size", "32", "--conv-mode", "direct",
                     "--checkpoint", str(ckpt)]) == 0
        out = capsys.readouterr().out
        assert "loss/voxel" in out
        assert ckpt.exists()

    def test_train_from_spec_file(self, capsys, tmp_path):
        spec = tmp_path / "net.cfg"
        spec.write_text("[layered]\nspec = CTC\nwidth = 2 1\nkernel = 2\n"
                        "transfer = tanh\nfinal_transfer = linear\n")
        assert main(["train", "--spec", str(spec), "--rounds", "2",
                     "--input-size", "10", "--volume-size", "24",
                     "--conv-mode", "direct"]) == 0
        assert "loss/voxel" in capsys.readouterr().out

    def test_train_checkpoint_loadable(self, tmp_path, capsys):
        ckpt = tmp_path / "model.npz"
        main(["train", "--rounds", "1", "--input-size", "20",
              "--volume-size", "32", "--conv-mode", "direct",
              "--checkpoint", str(ckpt)])
        capsys.readouterr()
        from repro.core import Network, load_network
        from repro.graph import build_layered_network

        graph = build_layered_network("CTMCTCT", width=6, kernel=3,
                                      window=2, transfer="tanh",
                                      final_transfer="linear",
                                      skip_kernels=True, output_nodes=1)
        net = Network(graph, input_shape=(20, 20, 20), seed=5)
        assert load_network(net, ckpt) == 1


class TestParallelTrain:
    _FAST = ["--rounds", "1", "--input-size", "20", "--volume-size",
             "32", "--conv-mode", "direct"]

    def test_workers_exceeding_cpus_exits_nonzero(self, monkeypatch,
                                                  capsys):
        monkeypatch.setattr("repro.parallel.trainer.visible_cpus",
                            lambda: 1)
        assert main(["train", "--workers", "2", *self._FAST]) == 2
        err = capsys.readouterr().err
        assert "--workers 2 exceeds the 1 visible CPU(s)" in err
        assert "--oversubscribe" in err

    def test_workers_within_cpus_accepted(self, monkeypatch, capsys):
        monkeypatch.setattr("repro.parallel.trainer.visible_cpus",
                            lambda: 8)
        assert main(["train", "--workers", "1", "--batch", "2",
                     *self._FAST]) == 0
        out = capsys.readouterr().out
        assert "data-parallel: 1 process(es), global batch 2" in out
        assert "state digest: " in out

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_invalid_worker_count_rejected(self, value, capsys):
        assert main(["train", "--workers", value, *self._FAST]) == 2
        assert "--workers must be >= 1" in capsys.readouterr().err

    def test_incompatible_flags_rejected(self, tmp_path, capsys):
        assert main(["train", "--workers", "1", "--resume",
                     "--checkpoint-dir", str(tmp_path), *self._FAST]) == 2
        assert "not supported with data-parallel" \
            in capsys.readouterr().err

    @pytest.mark.slow
    def test_digest_is_workers_invariant_via_cli(self, capsys):
        """--workers 1 and --workers 2 print the same state digest for
        the same seed (the acceptance contract, at CLI level)."""

        def digest_of(argv):
            assert main(argv) == 0
            out = capsys.readouterr().out
            return [line for line in out.splitlines()
                    if line.startswith("state digest: ")][0]

        base = ["train", "--batch", "2", "--seed", "3", *self._FAST]
        d1 = digest_of([*base, "--workers", "1"])
        d2 = digest_of([*base, "--workers", "2", "--oversubscribe"])
        assert d1 == d2


class TestObservabilityCommands:
    _SIZE = ["--input-size", "20", "--volume-size", "32"]

    def test_metrics_table(self, capsys):
        assert main(["metrics", "--rounds", "1", *self._SIZE,
                     "--conv-mode", "fft"]) == 0
        out = capsys.readouterr().out
        assert "queue.pop" in out
        assert "fft_cache.hit" in out and "fft_cache.miss" in out
        assert "pool.alloc" in out

    def test_metrics_json(self, capsys):
        import json

        assert main(["metrics", "--rounds", "1", *self._SIZE,
                     "--conv-mode", "direct", "--json"]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["queue.pop"] > 0
        assert snap["train.rounds"] == 1

    def test_trace_writes_chrome_json(self, capsys, tmp_path):
        import json

        out_file = tmp_path / "trace.json"
        assert main(["trace", "--out", str(out_file), "--rounds", "1",
                     "--workers", "2", *self._SIZE]) == 0
        with open(out_file) as fh:
            doc = json.load(fh)
        slices = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
        assert slices
        assert all({"name", "ts", "dur", "tid"} <= set(e) for e in slices)
        out = capsys.readouterr().out
        assert "tasks over" in out
        assert "utilization" in out and "mean queue wait" in out

    def test_trace_reports_a_partial_trace(self, capsys, tmp_path,
                                           monkeypatch):
        import functools

        from repro.observability import tracing

        monkeypatch.setattr(tracing, "Tracer",
                            functools.partial(tracing.Tracer, max_spans=20))
        assert main(["trace", "--out", str(tmp_path / "trace.json"),
                     "--rounds", "1", "--workers", "1", *self._SIZE]) == 0
        out = capsys.readouterr().out
        assert "partial trace: the ring buffer evicted" in out
        assert "20 tasks over" in out

    def test_train_trace_out_and_metrics(self, capsys, tmp_path):
        import json

        out_file = tmp_path / "trace.json"
        assert main(["train", "--rounds", "2", *self._SIZE,
                     "--conv-mode", "fft", "--trace-out", str(out_file),
                     "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "loss/voxel" in out
        assert "queue.pop" in out  # --metrics table
        assert "utilization" in out and "mean queue wait" in out
        with open(out_file) as fh:
            doc = json.load(fh)
        assert any(e.get("ph") == "X" for e in doc["traceEvents"])
        _check_span_trace(doc)

    def test_parallel_train_trace_out_has_the_same_schema(self, capsys,
                                                          tmp_path):
        import json

        out_file = tmp_path / "trace.json"
        assert main(["train", "--workers", "1", "--rounds", "1",
                     *self._SIZE, "--conv-mode", "direct",
                     "--trace-out", str(out_file)]) == 0
        out = capsys.readouterr().out
        assert "process(es)" in out
        assert "utilization" in out and "mean queue wait" in out
        with open(out_file) as fh:
            _check_span_trace(json.load(fh))


def _check_span_trace(doc):
    """The span-trace schema every ``--trace-out`` file shares: complete
    slices whose parent ids all resolve, with task slices carrying their
    worker and queue wait."""
    events = doc["traceEvents"]
    slices = [e for e in events if e.get("ph") == "X"]
    assert slices, "trace contains no task slices"
    for e in slices:
        assert {"name", "ph", "pid", "tid", "ts", "dur"} <= set(e)
    # Every span's parent id must resolve within the trace.
    ids = {e["args"]["span_id"] for e in slices}
    orphans = [e["name"] for e in slices
               if e["args"].get("parent_id")
               and e["args"]["parent_id"] not in ids]
    assert not orphans
    tasks = [e for e in slices if "worker" in e["args"]]
    assert tasks
    assert all("queue_wait" in e["args"] for e in tasks)


class TestResilienceCli:
    @pytest.fixture(autouse=True)
    def clean_faults(self):
        from repro.resilience import clear_plan

        clear_plan()
        yield
        clear_plan()

    def _spec(self, tmp_path):
        spec = tmp_path / "net.cfg"
        spec.write_text("[layered]\nspec = CTC\nwidth = 2 1\nkernel = 2\n"
                        "transfer = tanh\nfinal_transfer = linear\n")
        return spec

    def _train(self, tmp_path, *extra):
        return main(["train", "--spec", str(self._spec(tmp_path)),
                     "--input-size", "10", "--volume-size", "24",
                     "--conv-mode", "direct", *extra])

    def test_checkpoint_flags_write_and_print(self, capsys, tmp_path):
        ckdir = tmp_path / "ckpts"
        assert self._train(tmp_path, "--rounds", "2",
                           "--checkpoint-every", "1",
                           "--checkpoint-dir", str(ckdir)) == 0
        out = capsys.readouterr().out
        assert "latest checkpoint:" in out
        names = sorted(p.name for p in ckdir.iterdir())
        assert names[-1] == "ckpt-00000002.npz"

    def test_resume_continues_previous_run(self, capsys, tmp_path):
        ckdir = tmp_path / "ckpts"
        assert self._train(tmp_path, "--rounds", "2",
                           "--checkpoint-every", "1",
                           "--checkpoint-dir", str(ckdir)) == 0
        capsys.readouterr()
        assert self._train(tmp_path, "--rounds", "4", "--resume",
                           "--checkpoint-every", "1",
                           "--checkpoint-dir", str(ckdir)) == 0
        out = capsys.readouterr().out
        assert "resumed from" in out
        assert "2 rounds remaining" in out
        assert (ckdir / "ckpt-00000004.npz").exists()

    def test_resume_with_nothing_to_do(self, capsys, tmp_path):
        ckdir = tmp_path / "ckpts"
        assert self._train(tmp_path, "--rounds", "1",
                           "--checkpoint-every", "1",
                           "--checkpoint-dir", str(ckdir)) == 0
        capsys.readouterr()
        assert self._train(tmp_path, "--rounds", "1", "--resume",
                           "--checkpoint-dir", str(ckdir)) == 0
        assert "0 rounds remaining" in capsys.readouterr().out

    def test_resume_requires_checkpoint_dir(self, capsys, tmp_path):
        assert self._train(tmp_path, "--rounds", "1", "--resume") == 2

    def test_checkpoint_every_requires_dir(self, capsys, tmp_path):
        assert self._train(tmp_path, "--rounds", "1",
                           "--checkpoint-every", "1") == 2

    def test_recovery_events_none_on_clean_run(self, capsys, tmp_path):
        assert self._train(tmp_path, "--rounds", "1") == 0
        assert "recovery events: none" in capsys.readouterr().out

    def test_recovery_events_reported(self, capsys, tmp_path):
        from repro.resilience import FaultPlan, install_plan

        install_plan(FaultPlan.from_string("corrupt:loss:1"))
        ckdir = tmp_path / "ckpts"
        assert self._train(tmp_path, "--rounds", "2",
                           "--checkpoint-every", "1",
                           "--checkpoint-dir", str(ckdir)) == 0
        out = capsys.readouterr().out
        assert "recovery events:" in out
        assert "loss rollbacks 1" in out
        assert "injected faults 1" in out

    def test_task_retries_flag(self, capsys, tmp_path):
        from repro.resilience import FaultPlan, install_plan

        install_plan(FaultPlan.from_string("fail:fwd:1"))
        assert self._train(tmp_path, "--rounds", "1",
                           "--task-retries", "2") == 0
        out = capsys.readouterr().out
        assert "task retries 1" in out


class TestGradcheckCommand:
    def test_passing_network(self, capsys, tmp_path):
        spec = tmp_path / "net.cfg"
        spec.write_text("[layered]\nspec = CTC\nwidth = 2 1\nkernel = 2\n"
                        "transfer = tanh\n")
        assert main(["gradcheck", "--spec", str(spec),
                     "--input-size", "8"]) == 0
        out = capsys.readouterr().out
        assert "OK" in out

    def test_fft_mode(self, capsys, tmp_path):
        spec = tmp_path / "net.cfg"
        spec.write_text("[layered]\nspec = CT\nwidth = 1\nkernel = 2\n"
                        "transfer = logistic\n")
        assert main(["gradcheck", "--spec", str(spec), "--input-size", "8",
                     "--conv-mode", "fft"]) == 0


class TestObservabilityCli:
    _SIZE = ["--input-size", "20", "--volume-size", "32"]

    def test_profile_writes_validated_cost_model(self, capsys, tmp_path):
        import json

        from repro.observability.profile import validate_cost_model

        out_file = tmp_path / "cost_model.json"
        assert main(["profile", "--out", str(out_file), "--rounds", "1",
                     *self._SIZE, "--conv-mode", "direct"]) == 0
        out = capsys.readouterr().out
        assert "cost model written" in out
        assert "gflop/s" in out
        doc = validate_cost_model(json.load(open(out_file)))
        assert {e["op"] for e in doc["entries"]} == {"fwd", "bwd", "upd"}

    def test_profile_json_mode(self, capsys, tmp_path):
        import json

        out_file = tmp_path / "cost_model.json"
        assert main(["profile", "--out", str(out_file), "--rounds", "1",
                     *self._SIZE, "--json"]) == 0
        stdout = capsys.readouterr().out
        doc = json.loads(stdout[:stdout.rindex("}") + 1])
        assert doc["schema"] == "repro.cost_model/v1"

    def test_slo_reports_attainment(self, capsys):
        assert main(["slo", "--requests", "3", "--volume-size", "12",
                     "--workers", "1", "--deadline", "30"]) == 0
        out = capsys.readouterr().out
        assert "SLO report" in out
        assert "attainment" in out

    def test_trace_merge_and_tree(self, capsys, tmp_path):
        import json

        from repro.observability.tracing import Tracer, write_trace_file

        a = Tracer(enabled=True, process="coordinator")
        b = Tracer(enabled=True, process="worker-1")
        with a.span("round:0"):
            pass
        with b.span("worker.round"):
            pass
        pa, pb = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        write_trace_file(pa, a)
        write_trace_file(pb, b)
        merged = tmp_path / "merged.json"
        assert main(["trace", "--merge", pa, pb,
                     "--out", str(merged)]) == 0
        out = capsys.readouterr().out
        assert "coordinator, worker-1" in out
        doc = json.load(open(merged))
        pids = {e["pid"] for e in doc["traceEvents"]
                if e.get("ph") == "M" and e.get("name") == "process_name"}
        assert pids == {0, 1}
        assert main(["trace", "--merge", pa, pb, "--tree"]) == 0
        tree = capsys.readouterr().out
        assert "round:0" in tree and "worker.round" in tree

    def test_trace_merge_rejects_garbage(self, capsys, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text("{}")
        assert main(["trace", "--merge", str(bogus),
                     "--out", str(tmp_path / "out.json")]) == 1
        assert "merge failed" in capsys.readouterr().err


class TestAsciiChart:
    def test_renders_all_series(self):
        chart = reporting.ascii_chart(
            {"a": [(0, 0.0), (10, 5.0)], "b": [(0, 5.0), (10, 0.0)]},
            width=30, height=8)
        assert "*" in chart and "o" in chart
        assert "a" in chart and "b" in chart

    def test_empty(self):
        assert reporting.ascii_chart({}) == "(no data)"

    def test_constant_series_no_crash(self):
        chart = reporting.ascii_chart({"flat": [(0, 1.0), (5, 1.0)]})
        assert "flat" in chart

    def test_axis_labels(self):
        chart = reporting.ascii_chart({"a": [(0, 0), (1, 1)]},
                                      x_label="width", y_label="speedup")
        assert "width" in chart and "speedup" in chart

    def test_cli_chart_flag(self, capsys):
        assert main(["figure", "7", "--chart"]) == 0
        out = capsys.readouterr().out
        assert "network width" in out


class TestFleetCli:
    def test_serve_parser_accepts_fleet_flags(self):
        args = build_parser().parse_args(
            ["serve", "--spec", "m.spec", "--fleet", "3",
             "--inflight-per-worker", "2", "--request-attempts", "4",
             "--drain-timeout", "5"])
        assert args.fleet == 3
        assert args.inflight_per_worker == 2
        assert args.request_attempts == 4
        assert args.drain_timeout == 5.0

    def test_fleet_defaults_to_single_process(self):
        args = build_parser().parse_args(["serve", "--spec", "m.spec"])
        assert args.fleet == 0

    def test_fleet_status_parser(self):
        args = build_parser().parse_args(["fleet", "status", "--json"])
        assert args.command == "fleet"
        assert args.json

    def test_fleet_status_renders_worker_table(self, capsys,
                                               monkeypatch):
        # `repro fleet status` reads /healthz; fake the HTTP round
        # trip and check the rendering of a fleet-shaped document.
        import io
        import json as jsonlib
        import urllib.request

        doc = {
            "status": "ok", "role": "fleet", "models": ["small"],
            "queue_depth": 1, "orphaned": 0, "max_queue": 16,
            "admission": {"capacity": 16},
            "workers": {
                "0": {"state": "healthy", "pid": 11, "restarts": 2,
                      "queued": 1, "inflight": 0, "served": 9,
                      "deadline_missed": 0,
                      "last_restart_reason": "crash: injected fault"},
                "1": {"state": "quarantined", "pid": None,
                      "restarts": 3, "queued": 0, "inflight": 0,
                      "served": 4, "deadline_missed": 1,
                      "last_restart_reason":
                          "hang: no heartbeat for 0.50s"},
            },
        }

        def fake_urlopen(url, timeout=None):
            body = io.BytesIO(jsonlib.dumps(doc).encode("utf-8"))
            body.read  # noqa: B018 - shaped like HTTPResponse enough
            class Resp:
                def __enter__(self):
                    return body
                def __exit__(self, *exc):
                    return False
            return Resp()

        monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
        assert main(["fleet", "status"]) == 0
        out = capsys.readouterr().out
        assert "fleet status: ok" in out
        assert "quarantined" in out
        assert "crash: injected fault" in out
        assert "hang: no heartbeat" in out

    def test_fleet_status_unreachable_exits_nonzero(self, capsys):
        # Nothing listens on this port.
        assert main(["fleet", "status",
                     "--url", "http://127.0.0.1:9"]) == 69
        assert "cannot reach" in capsys.readouterr().err


class TestLoadtestCli:
    ARGS = ["loadtest", "--sim", "--scenario", "flash-crowd",
            "--duration", "20", "--rate", "2", "--seed", "7",
            "--size", "12:12", "--workers", "2"]

    def test_sim_report_is_byte_identical(self, capsys, tmp_path):
        # The determinism satellite: same seed, same flags => the
        # written report file is byte-for-byte identical.
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main([*self.ARGS, "--autoscale", "1:3",
                     "--out", str(a)]) == 0
        assert main([*self.ARGS, "--autoscale", "1:3",
                     "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
        assert len(a.read_bytes()) > 0

    def test_sim_emits_valid_report(self, capsys, tmp_path):
        import json

        from repro.loadgen import validate_loadtest_report

        out = tmp_path / "report.json"
        trace = tmp_path / "trace.jsonl"
        assert main([*self.ARGS, "--out", str(out),
                     "--emit-trace", str(trace), "--json"]) == 0
        stdout = capsys.readouterr().out
        doc = validate_loadtest_report(json.load(open(out)))
        assert doc["mode"] == "sim"
        assert doc["trace"]["name"] == "flash-crowd"
        assert json.loads(stdout)["schema"] == doc["schema"]
        # The emitted trace replays to the same report.
        from repro.loadgen import load_trace
        assert len(load_trace(str(trace))) == doc["trace"]["requests"]

    def test_table_output(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "loadtest (sim)" in out
        assert "served" in out

    def test_multiplier_scales_trace(self, capsys):
        assert main([*self.ARGS, "--multiplier", "10", "--json"]) == 0
        import json

        doc = json.loads(capsys.readouterr().out)
        assert doc["trace"]["multiplier"] == 10.0
        assert doc["trace"]["duration"] == pytest.approx(2.0)

    def test_bad_size_range_rejected(self):
        with pytest.raises(SystemExit):
            main(["loadtest", "--sim", "--size", "banana"])

    def test_autoscale_requires_fleet_in_live_mode(self):
        with pytest.raises(SystemExit):
            main(["loadtest", "--scenario", "steady", "--duration",
                  "1", "--autoscale", "1:2"])


class TestLintExitCodes:
    """`repro lint` exits non-zero only on *unsuppressed* findings."""

    ACTIVE = ("# deterministic\n"
              "def entry(slots: set) -> float:\n"
              "    return sum(slots)\n")
    SUPPRESSED = ("# deterministic\n"
                  "def entry() -> float:\n"
                  "    return helper()\n"
                  "\n"
                  "def helper():  # nondeterministic: diagnostics\n"
                  "    return sum({1.0, 2.0})\n")

    def test_exit_one_on_active_finding(self, capsys, tmp_path):
        path = tmp_path / "active.py"
        path.write_text(self.ACTIVE)
        assert main(["lint", "--rules", "determinism", str(path)]) == 1
        captured = capsys.readouterr()
        assert "reassociating-reduction" in captured.out
        assert "1 violation(s)" in captured.err

    def test_exit_zero_when_all_findings_suppressed(self, capsys,
                                                    tmp_path):
        path = tmp_path / "suppressed.py"
        path.write_text(self.SUPPRESSED)
        assert main(["lint", "--rules", "determinism", str(path)]) == 0
        captured = capsys.readouterr()
        assert "clean" in captured.out
        assert "1 suppressed" in captured.err

    def test_show_suppressed_lists_but_still_exits_zero(self, capsys,
                                                        tmp_path):
        path = tmp_path / "suppressed.py"
        path.write_text(self.SUPPRESSED)
        assert main(["lint", "--rules", "determinism",
                     "--show-suppressed", str(path)]) == 0
        out = capsys.readouterr().out
        assert "[suppressed: diagnostics]" in out

    def test_exit_zero_on_clean_file(self, capsys, tmp_path):
        path = tmp_path / "clean.py"
        path.write_text("def fine() -> int:\n    return 1\n")
        assert main(["lint", str(path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_sarif_embeds_suppressions_and_exits_zero(self, capsys,
                                                      tmp_path):
        import json

        path = tmp_path / "suppressed.py"
        path.write_text(self.SUPPRESSED)
        assert main(["lint", "--rules", "determinism",
                     "--format", "sarif", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        results = doc["runs"][0]["results"]
        assert len(results) == 1
        assert results[0]["suppressions"][0]["justification"] \
            == "diagnostics"

    def test_sarif_on_active_finding_exits_one(self, capsys, tmp_path):
        import json

        path = tmp_path / "active.py"
        path.write_text(self.ACTIVE)
        assert main(["lint", "--rules", "determinism",
                     "--format", "sarif", str(path)]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["runs"][0]["results"][0]["ruleId"] == "determinism"


class TestCheckDeterminismCli:
    """`repro check-determinism` rendering and exit codes (the probe
    itself is exercised in tests/analysis/test_sanitizer.py)."""

    @staticmethod
    def _doc(matched):
        doc = {
            "schema": "repro.determinism-check/v1",
            "matched": matched,
            "stages": ["train", "serve"],
            "runs": [
                {"hash_seed": 0, "threads": 1,
                 "digests": {"train": "aa", "serve": "bb"}},
                {"hash_seed": 4242, "threads": 2,
                 "digests": {"train": "aa",
                             "serve": "bb" if matched else "xx"}},
            ],
            "first_divergence": None if matched else {
                "stage": "serve", "run_a": "bb", "run_b": "xx"},
            "divergences": [] if matched else [
                {"stage": "serve", "run_a": "bb", "run_b": "xx"}],
        }
        return doc

    def test_matched_exits_zero(self, capsys, monkeypatch):
        import repro.analysis.runtime as runtime

        monkeypatch.setattr(runtime, "run_determinism_check",
                            lambda **kwargs: self._doc(True))
        assert main(["check-determinism"]) == 0
        out = capsys.readouterr().out
        assert "OK" in out and "2 stage digest(s)" in out

    def test_divergence_exits_one_with_provenance(self, capsys,
                                                  monkeypatch):
        import repro.analysis.runtime as runtime

        monkeypatch.setattr(runtime, "run_determinism_check",
                            lambda **kwargs: self._doc(False))
        assert main(["check-determinism"]) == 1
        out = capsys.readouterr().out
        assert "DIVERGENCE" in out and "'serve'" in out

    def test_json_output(self, capsys, monkeypatch):
        import json

        import repro.analysis.runtime as runtime

        monkeypatch.setattr(runtime, "run_determinism_check",
                            lambda **kwargs: self._doc(True))
        assert main(["check-determinism", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["matched"] is True

    def test_bad_seed_pair_rejected(self):
        with pytest.raises(SystemExit):
            main(["check-determinism", "--seeds", "1,2,3"])
