"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``info``
    Version, subsystem inventory and the Table V machine catalog.
``figure {4,5,6,7,8,9}``
    Regenerate a paper figure as a text table (simulated machines /
    calibrated GPU models; see DESIGN.md).
``simulate``
    One discrete-event scheduling run: machine, dims, width, threads,
    policy.
``autotune``
    Measure the direct-vs-FFT crossover on this host for a range of
    kernel sizes.
``train``
    Train a network from a spec file (or the built-in 3D benchmark) on
    synthetic boundary-detection data, with optional checkpointing and
    (``--trace-out``) a Chrome-trace of the run's spans — one per
    executed task — with or without ``--workers``.
``metrics``
    Run a short instrumented training workload and print the metrics
    registry snapshot (queue / engine / FFT-cache / allocator /
    trainer counters — see docs/observability.md).
``trace``
    Run a short traced training workload and write ``chrome://tracing``
    JSON — or, with ``--merge``, combine per-process span trace files
    (``repro.trace/v1``, e.g. from ``repro serve --trace-dir``) into
    one Chrome trace with stable pid/tid naming; ``--tree`` prints the
    span-tree text view instead.
``profile``
    Run a short profiled training workload and emit the per-layer
    ``cost_model.json`` (measured seconds + analytic FLOPs/bytes per
    (edge, backend, op); see docs/observability.md).
``slo``
    Run a short serving workload under a deadline and print the SLO
    report: p50/p95/p99 admission-wait, service and end-to-end
    latencies plus deadline attainment.
``loadtest``
    Generate (or load) a seed-deterministic workload trace and replay
    it — through the discrete-event serving simulator (``--sim``) or
    against a live in-process server / worker fleet, optionally with
    the closed-loop autoscaler — emitting a ``repro.loadtest/v1``
    report: p50/p99 latency, served fraction, shed/deadline counts
    and worker-seconds cost (see docs/serving.md "Capacity
    planning").
``gradcheck``
    Finite-difference verification of a spec-file network's gradients
    (use after adding custom ops).
``specialize``
    Plan ZNNi per-layer direct/FFT backends and the throughput-optimal
    serving tile for a spec (arXiv:1606.05688, part a): sweep 5-smooth
    candidate tiles under a memory budget, price them with the
    analytic FLOP formulas or a measured ``repro profile`` cost model,
    and emit a ``repro.specialize/v1`` plan for ``serve --specialize``
    (see docs/serving.md "Per-layer specialization").
``serve``
    Serve dense inference for a trained checkpoint over HTTP: tiling
    planner + warm dense-twin cache + bounded queue with backpressure
    (see docs/serving.md).
``infer``
    Send one volume to a running ``repro serve`` endpoint and save or
    summarise the dense output.  Exits 75 if the server stayed
    overloaded, 76 on a missed deadline.
``lint``
    Run the project's concurrency/metrics lint rules (guarded-by
    discipline, raw acquires, blocking calls under locks, swap-only
    critical sections, metric-name catalog) over source paths.  Exits
    1 when violations are found (see docs/static_analysis.md).
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import List, Optional

from repro import reporting

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ZNN reproduction: task-parallel 3D ConvNet training")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="version, inventory, machine catalog")

    fig = sub.add_parser("figure", help="regenerate a paper figure")
    fig.add_argument("number", choices=["4", "5", "6", "7", "8", "9"])
    fig.add_argument("--machine", default="xeon-18",
                     help="Table V machine key (figure 5)")
    fig.add_argument("--dims", type=int, default=3, choices=(2, 3),
                     help="2D or 3D networks (figure 5)")
    fig.add_argument("--mode", default="direct",
                     choices=("direct", "fft-memo"),
                     help="convolution cost model (figure 4 panels a/b)")
    fig.add_argument("--chart", action="store_true",
                     help="also draw an ASCII chart (figures 4, 6, 7)")

    sim = sub.add_parser("simulate", help="one scheduling simulation")
    sim.add_argument("--machine", default="xeon-18")
    sim.add_argument("--dims", type=int, default=3, choices=(2, 3))
    sim.add_argument("--width", type=int, default=20)
    sim.add_argument("--threads", type=int, default=None,
                     help="worker threads (default: machine hw threads)")
    sim.add_argument("--policy", default="priority",
                     choices=("priority", "fifo", "lifo", "random"))

    tune = sub.add_parser("autotune", help="measure FFT/direct crossover")
    tune.add_argument("--image", type=int, default=32)
    tune.add_argument("--kernels", default="2,3,5,7",
                      help="comma-separated kernel sizes")
    tune.add_argument("--repeats", type=int, default=2)

    train = sub.add_parser("train",
                           help="train on synthetic boundary data")
    train.add_argument("--spec", default=None,
                       help="network spec file (default: small 3D net)")
    train.add_argument("--rounds", type=int, default=20)
    train.add_argument("--workers", type=int, default=None, metavar="W",
                       help="data-parallel worker processes; the final "
                            "checkpoint is bitwise identical for any W "
                            "(default: the in-process sequential "
                            "trainer)")
    train.add_argument("--batch", type=int, default=None, metavar="B",
                       help="global minibatch size per round for "
                            "data-parallel training (default 1; results "
                            "depend on B, never on --workers)")
    train.add_argument("--oversubscribe", action="store_true",
                       help="allow --workers to exceed the visible "
                            "CPU count")
    train.add_argument("--input-size", type=int, default=24)
    train.add_argument("--learning-rate", type=float, default=1e-3)
    train.add_argument("--momentum", type=float, default=0.9)
    train.add_argument("--conv-mode", default="auto",
                       choices=("auto", "direct", "fft"))
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--checkpoint", default=None,
                       help="write a .npz checkpoint here when done")
    train.add_argument("--checkpoint-every", type=int, default=0,
                       metavar="N",
                       help="write an atomic checkpoint to "
                            "--checkpoint-dir every N rounds (also "
                            "enables NaN/Inf rollback)")
    train.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                       help="directory for periodic checkpoints / resume")
    train.add_argument("--resume", action="store_true",
                       help="restart from the latest checkpoint in "
                            "--checkpoint-dir (no-op when none exists)")
    train.add_argument("--task-retries", type=int, default=0, metavar="K",
                       help="retry failed engine tasks up to K times "
                            "with exponential backoff")
    train.add_argument("--task-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="watchdog timeout per task (parallel engine; "
                            "advisory on the serial engine)")
    train.add_argument("--volume-size", type=int, default=48)
    train.add_argument("--trace-out", default=None, metavar="FILE",
                       help="write a chrome://tracing JSON of the "
                            "run's spans (one per executed task) to FILE")
    train.add_argument("--metrics", action="store_true",
                       help="print the metrics-registry snapshot after "
                            "training")

    met = sub.add_parser("metrics",
                         help="run a short instrumented training "
                              "workload and print the metrics snapshot")
    met.add_argument("--rounds", type=int, default=3)
    met.add_argument("--workers", type=int, default=1)
    met.add_argument("--input-size", type=int, default=20)
    met.add_argument("--volume-size", type=int, default=32)
    met.add_argument("--conv-mode", default="fft",
                     choices=("auto", "direct", "fft"))
    met.add_argument("--seed", type=int, default=0)
    met.add_argument("--json", action="store_true",
                     help="emit the snapshot as JSON instead of a table")

    tr = sub.add_parser("trace",
                        help="run a short traced training workload and "
                             "write chrome://tracing JSON, or merge "
                             "per-process span trace files")
    tr.add_argument("--out", default="trace.json", metavar="FILE")
    tr.add_argument("--merge", nargs="+", default=None, metavar="FILE",
                    help="merge repro.trace/v1 per-process trace files "
                         "(e.g. from repro serve --trace-dir) into one "
                         "chrome://tracing JSON at --out")
    tr.add_argument("--tree", action="store_true",
                    help="with --merge: print the span-tree text view "
                         "instead of writing Chrome JSON")
    tr.add_argument("--rounds", type=int, default=3)
    tr.add_argument("--workers", type=int, default=2)
    tr.add_argument("--input-size", type=int, default=20)
    tr.add_argument("--volume-size", type=int, default=32)
    tr.add_argument("--conv-mode", default="fft",
                    choices=("auto", "direct", "fft"))
    tr.add_argument("--seed", type=int, default=0)

    prof = sub.add_parser("profile",
                          help="run a short profiled training workload "
                               "and emit the per-layer cost model")
    prof.add_argument("--out", default="cost_model.json", metavar="FILE",
                      help="where to write the validated "
                           "repro.cost_model/v1 JSON")
    prof.add_argument("--rounds", type=int, default=3)
    prof.add_argument("--workers", type=int, default=1)
    prof.add_argument("--input-size", type=int, default=20)
    prof.add_argument("--volume-size", type=int, default=32)
    prof.add_argument("--conv-mode", default="fft",
                      choices=("auto", "direct", "fft"))
    prof.add_argument("--seed", type=int, default=0)
    prof.add_argument("--json", action="store_true",
                      help="print the cost model as JSON instead of a "
                           "table")

    slo = sub.add_parser("slo",
                         help="run a short serving workload under a "
                              "deadline and print the SLO report")
    slo.add_argument("--requests", type=int, default=12)
    slo.add_argument("--volume-size", type=int, default=16)
    slo.add_argument("--deadline", type=float, default=5.0,
                     metavar="SECONDS",
                     help="per-request deadline (default 5.0)")
    slo.add_argument("--workers", type=int, default=2,
                     help="serving worker tasks")
    slo.add_argument("--conv-mode", default="fft",
                     choices=("direct", "fft"))
    slo.add_argument("--seed", type=int, default=0)
    slo.add_argument("--json", action="store_true",
                     help="print the report as JSON instead of a table")

    lt = sub.add_parser("loadtest",
                        help="replay a workload trace (live or --sim) "
                             "and emit a loadtest report")
    lt.add_argument("--scenario", default="steady",
                    choices=("steady", "diurnal", "flash-crowd",
                             "multi-model"),
                    help="trace scenario preset (default: steady)")
    lt.add_argument("--trace", default=None, metavar="FILE",
                    help="replay this repro.workload/v1 JSONL trace "
                         "instead of generating one")
    lt.add_argument("--duration", type=float, default=30.0,
                    help="generated trace length in seconds")
    lt.add_argument("--rate", type=float, default=1.0,
                    help="base arrival rate in requests/second")
    lt.add_argument("--multiplier", type=float, default=1.0,
                    metavar="X",
                    help="load multiplier: compress the trace X x in "
                         "time (default 1.0)")
    lt.add_argument("--seed", type=int, default=0)
    lt.add_argument("--size", default="12:24", metavar="MIN:MAX",
                    help="request cube-edge bounds in voxels "
                         "(default 12:24)")
    lt.add_argument("--deadline", type=float, default=30.0,
                    help="per-request deadline in seconds "
                         "(0 = no deadline)")
    lt.add_argument("--sim", action="store_true",
                    help="replay through the discrete-event serving "
                         "simulator instead of a live server")
    lt.add_argument("--workers", type=int, default=2,
                    help="initial worker count (simulated workers, "
                         "or serving threads without --fleet)")
    lt.add_argument("--fleet", type=int, default=0, metavar="N",
                    help="live mode: run N supervised worker "
                         "processes behind the failover router "
                         "(0 = in-process server, the default)")
    lt.add_argument("--autoscale", default=None, metavar="MIN:MAX",
                    help="enable the hysteresis autoscaler between "
                         "MIN and MAX workers (live autoscaling "
                         "needs --fleet)")
    lt.add_argument("--control-interval", type=float, default=0.5,
                    help="autoscaler tick interval in seconds")
    lt.add_argument("--max-queue", type=int, default=32,
                    help="admission-queue capacity")
    lt.add_argument("--cost-model", default=None, metavar="FILE",
                    help="sim mode: derive per-request service cost "
                         "from this repro profile cost_model.json")
    lt.add_argument("--speed", type=float, default=1.0,
                    help="live mode: replay time compression factor")
    lt.add_argument("--conv-mode", default="fft",
                    choices=("direct", "fft"))
    lt.add_argument("--out", default=None, metavar="FILE",
                    help="write the report JSON here")
    lt.add_argument("--emit-trace", default=None, metavar="FILE",
                    help="also write the replayed trace as "
                         "repro.workload/v1 JSONL")
    lt.add_argument("--json", action="store_true",
                    help="print the report as JSON instead of a "
                         "table")

    gc = sub.add_parser("gradcheck",
                        help="finite-difference check of a spec file's "
                             "gradients")
    gc.add_argument("--spec", required=True)
    gc.add_argument("--input-size", type=int, default=12)
    gc.add_argument("--conv-mode", default="direct",
                    choices=("direct", "fft"))
    gc.add_argument("--seed", type=int, default=0)

    spz = sub.add_parser("specialize",
                         help="plan ZNNi per-layer direct/FFT backends "
                              "and the serving tile for a spec")
    spz.add_argument("--spec", required=True,
                     help="[layered] spec file to plan for")
    spz.add_argument("--checkpoint", default=None,
                     help=".npz checkpoint (default: random weights; "
                          "the plan depends only on shapes)")
    spz.add_argument("--name", default="default",
                     help="model name recorded in the plan "
                          "(default: default)")
    spz.add_argument("--volume", default="48", metavar="SHAPE",
                     help="target volume shape, e.g. 48 or 32,64,64 "
                          "(default 48)")
    spz.add_argument("--cost-model", default=None, metavar="FILE",
                     help="price candidates with this repro profile "
                          "cost_model.json (default: analytic FLOP "
                          "formulas at rate 1.0)")
    spz.add_argument("--tile-voxels", type=int, default=None,
                     help="input-tile voxel budget (default 2^21)")
    spz.add_argument("--memory-mb", type=float, default=None,
                     help="peak working-set budget in MiB; exits 65 "
                          "when no candidate fits")
    spz.add_argument("--out", default=None, metavar="FILE",
                     help="write the repro.specialize/v1 plan JSON "
                          "here (feed to repro serve --specialize)")
    spz.add_argument("--no-measure", action="store_true",
                     help="skip the measured-throughput pass (plan "
                          "only, fully deterministic output)")
    spz.add_argument("--seed", type=int, default=0,
                     help="seed for the measurement volume")
    spz.add_argument("--json", action="store_true",
                     help="print the plan document as JSON instead of "
                          "a table")

    srv = sub.add_parser("serve",
                         help="serve dense inference for a checkpoint "
                              "over HTTP")
    srv.add_argument("--spec", required=True,
                     help="[layered] spec file the checkpoint was "
                          "trained with")
    srv.add_argument("--checkpoint", default=None,
                     help=".npz checkpoint to restore (default: random "
                          "weights, useful for smoke tests)")
    srv.add_argument("--name", default="default",
                     help="model name clients address (default: default)")
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=8473,
                     help="TCP port (0 picks a free one)")
    srv.add_argument("--workers", type=int, default=2,
                     help="serving worker tasks (threads; per process "
                          "in --fleet mode)")
    srv.add_argument("--fleet", type=int, default=0, metavar="N",
                     help="run N supervised worker processes behind a "
                          "failover router instead of one in-process "
                          "server (0 = single process, the default)")
    srv.add_argument("--inflight-per-worker", type=int, default=4,
                     help="fleet mode: dispatch window per worker "
                          "process")
    srv.add_argument("--request-attempts", type=int, default=3,
                     metavar="K",
                     help="fleet mode: total dispatch attempts per "
                          "request (first try + failovers)")
    srv.add_argument("--drain-timeout", type=float, default=30.0,
                     help="seconds a SIGTERM graceful drain may take "
                          "before leftovers are failed")
    srv.add_argument("--max-queue", type=int, default=16,
                     help="admission-queue capacity (beyond it requests "
                          "are rejected with 503 + Retry-After)")
    srv.add_argument("--max-batch", type=int, default=4,
                     help="micro-batch cap per dequeue")
    srv.add_argument("--tile-voxels", type=int, default=None,
                     help="input-tile voxel budget for the tiling "
                          "planner (default 2^21)")
    srv.add_argument("--conv-mode", default="fft",
                     choices=("direct", "fft"))
    srv.add_argument("--specialize", default=None, metavar="FILE",
                     help="apply this repro.specialize/v1 plan (from "
                          "repro specialize --out): per-layer conv "
                          "backends and tile for covered requests")
    srv.add_argument("--max-models", type=int, default=4,
                     help="warm dense-twin cache capacity")
    srv.add_argument("--request-retries", type=int, default=0,
                     metavar="K",
                     help="re-run a failed request up to K times")
    srv.add_argument("--trace-dir", default=None, metavar="DIR",
                     help="enable request tracing and write this "
                          "process's repro.trace/v1 span file into DIR "
                          "on shutdown (merge with repro trace --merge)")

    inf = sub.add_parser("infer",
                         help="send one volume to a repro serve endpoint")
    inf.add_argument("--url", default="http://127.0.0.1:8473")
    inf.add_argument("--model", default="default")
    inf.add_argument("--input", default=None, metavar="FILE",
                     help=".npy volume to send")
    inf.add_argument("--random", default=None, metavar="SHAPE",
                     help="send a random volume instead, e.g. 48 or "
                          "32,64,64")
    inf.add_argument("--seed", type=int, default=0)
    inf.add_argument("--output", default=None, metavar="FILE",
                     help="write the dense output here as .npy")
    inf.add_argument("--timeout", type=float, default=None,
                     help="request deadline in seconds")
    inf.add_argument("--max-attempts", type=int, default=1,
                     help="total submissions when the server answers "
                          "503 (sleeps its Retry-After hint in between)")
    inf.add_argument("--trace-id", default=None, metavar="ID",
                     help="send an X-Trace-Id header so a tracing "
                          "server records the request under this trace")

    flt = sub.add_parser("fleet",
                         help="inspect a running serving fleet")
    flt_sub = flt.add_subparsers(dest="fleet_command", required=True)
    flt_status = flt_sub.add_parser(
        "status", help="render /healthz of a repro serve endpoint as a "
                       "per-worker table")
    flt_status.add_argument("--url", default="http://127.0.0.1:8473")
    flt_status.add_argument("--json", action="store_true",
                            help="print the raw health document")

    lint = sub.add_parser("lint",
                          help="run the concurrency/metrics lint rules "
                               "over source paths")
    lint.add_argument("paths", nargs="*", default=["src"],
                      help="files or directories to lint (default: src)")
    lint.add_argument("--rules", default=None,
                      help="comma-separated subset of rules to run "
                           "(default: all)")
    lint.add_argument("--list-rules", action="store_true",
                      help="list available rules and exit")
    lint.add_argument("--format", default="text",
                      choices=("text", "json", "sarif"),
                      help="violation output format")
    lint.add_argument("--show-suppressed", action="store_true",
                      help="also print findings silenced by an in-source "
                           "suppression or a reasoned escape")

    det = sub.add_parser(
        "check-determinism",
        help="run the train/serve/loadgen probe twice under perturbed "
             "hash seeds and thread schedules and diff stage digests")
    det.add_argument("--probe", action="store_true",
                     help="run one probe in-process and print stage "
                          "digests (used internally by the harness)")
    det.add_argument("--seeds", default=None,
                     help="comma-separated PYTHONHASHSEED values for the "
                          "two runs (default: 0,4242)")
    det.add_argument("--threads", default=None,
                     help="comma-separated worker counts for the two "
                          "runs (default: 1,2)")
    det.add_argument("--json", action="store_true",
                     help="print the comparison document as JSON")
    return parser


def _cmd_info(_args) -> int:
    import repro

    print(f"repro {repro.__version__} — ZNN reproduction "
          f"(Zlateski, Lee & Seung, IPDPS 2016)")
    print("subsystems: core tensor graph scheduler sync memory pram "
          "simulate baselines data observability")
    header, rows = reporting.table5()
    print(reporting.render_table("Table V — machine models", header, rows))
    return 0


def _cmd_figure(args) -> int:
    if args.number == "4":
        header, rows = reporting.figure4(mode=args.mode)
        title = f"Fig 4 — achievable speedup ({args.mode})"
    elif args.number == "5":
        header, rows = reporting.figure5(args.machine, args.dims)
        title = f"Fig 5 — {args.dims}D speedup vs threads on {args.machine}"
    elif args.number in ("6", "7"):
        dims = 2 if args.number == "6" else 3
        header, rows = reporting.figure6_7(dims)
        title = f"Fig {args.number} — {dims}D max speedup vs width"
    elif args.number == "8":
        header, rows = reporting.figure8()
        title = "Fig 8 — ZNN vs GPU frameworks (2D, seconds/update)"
    else:
        header, rows = reporting.figure9()
        title = "Fig 9 — ZNN vs Theano (3D, seconds/update)"
    print(reporting.render_table(title, header, rows))
    if getattr(args, "chart", False) and args.number in ("4", "6", "7"):
        xs = [int(h.split("=")[1]) for h in header[1:]]
        series = {row[0]: [(x, float(v)) for x, v in zip(xs, row[1:])
                           if v != "OOM"]
                  for row in rows}
        print()
        print(reporting.ascii_chart(series, x_label="network width",
                                    y_label="speedup"))
    return 0


def _cmd_simulate(args) -> int:
    from repro.simulate import get_machine, paper_task_graph, simulate_schedule

    machine = get_machine(args.machine)
    threads = args.threads if args.threads else machine.threads
    tg = paper_task_graph(args.dims, args.width)
    result = simulate_schedule(tg, machine, threads, policy=args.policy)
    print(f"machine   {machine.name}")
    print(f"network   {args.dims}D width {args.width} "
          f"({result.tasks} tasks/round)")
    print(f"threads   {threads}  policy {args.policy}")
    print(f"speedup   {result.speedup:.2f}  "
          f"utilization {result.utilization:.2%}")
    return 0


def _cmd_autotune(args) -> int:
    from repro.core import autotune_layer

    kernels = [int(k) for k in args.kernels.split(",") if k]
    rows = []
    for k in kernels:
        mode, t_d, t_f = autotune_layer((args.image,) * 3, k,
                                        repeats=args.repeats)
        rows.append([f"{k}^3", f"{t_d:.4f}", f"{t_f:.4f}", mode])
    print(reporting.render_table(
        f"direct vs FFT on {args.image}^3 images (this host)",
        ["kernel", "direct s", "fft s", "chosen"], rows))
    return 0


def _train_provider(volume_size: int, seed: int, input_size: int,
                    out_shape) -> "object":
    """Build the synthetic boundary-detection provider ``repro train``
    uses.  Module-level and deterministic in its arguments so
    data-parallel worker processes can rebuild it identically from a
    pickled reference."""
    from repro.data import PatchProvider, make_cell_volume

    volume = make_cell_volume(shape=volume_size, num_cells=16,
                              noise=0.08, seed=seed + 1)
    volume.image[:] = ((volume.image - volume.image.mean())
                       / volume.image.std())
    return PatchProvider(volume, (input_size,) * 3, out_shape,
                         seed=seed + 2, pooled=True)


@contextlib.contextmanager
def _span_trace(path: Optional[str]):
    """Trace the enclosed run into *path* (a no-op when *path* is None).

    Installs a fresh enabled tracer for the run — and ``REPRO_TRACING=1``
    for the worker processes it spawns, whose spans ship back over the
    pipe — then writes every span as Chrome-trace JSON and prints the
    task summary computed from the task spans.
    """
    if not path:
        yield
        return
    import json

    from repro.observability.tracing import (Tracer, set_tracer,
                                             spans_to_chrome_trace,
                                             task_summary)

    tracer = Tracer(enabled=True, process="main")
    previous = set_tracer(tracer)
    previous_env = os.environ.get("REPRO_TRACING")
    os.environ["REPRO_TRACING"] = "1"
    try:
        yield
    finally:
        set_tracer(previous)
        if previous_env is None:
            del os.environ["REPRO_TRACING"]
        else:
            os.environ["REPRO_TRACING"] = previous_env
    spans = tracer.spans()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spans_to_chrome_trace(spans), fh)
    processes = sorted({s.process for s in spans})
    print(f"trace written to {path} ({len(spans)} spans from "
          f"{len(processes)} process(es): {', '.join(processes)})")
    if tracer.dropped:
        print(f"partial trace: the ring buffer evicted {tracer.dropped} "
              "span(s); the figures below cover only the spans kept")
    s = task_summary(spans)
    print(f"{s.tasks} tasks over {s.span:.3f}s on {s.workers} worker(s); "
          f"utilization {s.utilization:.0%}, "
          f"mean queue wait {s.mean_queue_wait * 1e3:.2f}ms, "
          f"{s.failed} failed")


def _cmd_train_parallel(args) -> int:
    """The ``--workers``/``--batch`` path: multi-process data-parallel
    training with a deterministic cross-process gradient reduction."""
    import numpy as np

    from repro.core.serialization import save_network, state_digest
    from repro.core.training import TrainingDiverged
    from repro.parallel import ModelConfig, ParallelTrainer
    from repro.parallel import trainer as parallel_trainer

    workers = args.workers if args.workers is not None else 1
    batch = args.batch if args.batch is not None else 1
    if workers < 1:
        print(f"--workers must be >= 1, got {workers}", file=sys.stderr)
        return 2
    if batch < 1:
        print(f"--batch must be >= 1, got {batch}", file=sys.stderr)
        return 2
    cpus = parallel_trainer.visible_cpus()
    if workers > cpus and not args.oversubscribe:
        print(f"--workers {workers} exceeds the {cpus} visible CPU(s): "
              "data-parallel workers are CPU-bound processes, so extra "
              "workers only add overhead. Pass --oversubscribe to "
              "force.", file=sys.stderr)
        return 2
    for flag, value in (("--resume", args.resume),
                        ("--task-retries", args.task_retries),
                        ("--task-timeout", args.task_timeout)):
        if value:
            print(f"{flag} is not supported with data-parallel "
                  "training (--workers/--batch)", file=sys.stderr)
            return 2
    if args.checkpoint_every and not args.checkpoint_dir:
        print("--checkpoint-every requires --checkpoint-dir",
              file=sys.stderr)
        return 2

    if args.spec:
        config = ModelConfig(
            input_shape=(args.input_size,) * 3, spec_path=args.spec,
            conv_mode=args.conv_mode, loss="binary-logistic",
            seed=args.seed, learning_rate=args.learning_rate,
            momentum=args.momentum)
    else:
        config = ModelConfig(
            input_shape=(args.input_size,) * 3, spec="CTMCTCT",
            layered_kwargs={"width": 6, "kernel": 3, "window": 2,
                            "transfer": "tanh",
                            "final_transfer": "linear",
                            "skip_kernels": True, "output_nodes": 1},
            conv_mode=args.conv_mode, loss="binary-logistic",
            seed=args.seed, learning_rate=args.learning_rate,
            momentum=args.momentum)
    graph = config.build_graph()
    graph.validate()
    graph.propagate_shapes(config.input_shape)
    out_shape = graph.output_nodes[0].shape
    voxels = float(np.prod(out_shape))
    rounds = args.rounds

    with _span_trace(args.trace_out):
        trainer = ParallelTrainer(
            config, _train_provider,
            (args.volume_size, args.seed, args.input_size, out_shape),
            workers=workers, batch=batch)
        try:
            net = trainer.network
            print(f"network: {len(net.nodes)} nodes, {len(net.edges)} "
                  f"edges; input {(args.input_size,) * 3} -> output "
                  f"{out_shape}")
            print(f"data-parallel: {workers} process(es), "
                  f"global batch {batch}")
            report = trainer.run(
                rounds,
                checkpoint_every=args.checkpoint_every,
                checkpoint_dir=args.checkpoint_dir,
                callback=lambda i, loss: print(
                    f"round {i:4d}  loss/voxel {loss / voxels:.4f}")
                if i % max(rounds // 10, 1) == 0 else None)
            print(f"mean seconds/update: "
                  f"{report.mean_seconds_per_update:.4f}")
            if report.losses:
                print(f"final loss/voxel: "
                      f"{report.losses[-1] / voxels:.4f}")
            if report.checkpoints:
                print(f"latest checkpoint: {report.checkpoints[-1]}")
            if args.checkpoint:
                save_network(net, args.checkpoint)
                print(f"checkpoint written to {args.checkpoint}")
            if report.worker_deaths:
                print(f"worker deaths survived: {report.worker_deaths}")
            print(f"state digest: {state_digest(net)}")
        except TrainingDiverged as exc:
            print(f"training diverged: {exc}", file=sys.stderr)
            return 1
        finally:
            trainer.close()
    if args.metrics:
        from repro.observability import render_metrics

        print(render_metrics())
    return 0


def _cmd_train(args) -> int:
    from repro.graph import build_layered_network, load_spec
    from repro.resilience import RetryPolicy

    if args.workers is not None or args.batch is not None:
        return _cmd_train_parallel(args)
    if args.resume and not args.checkpoint_dir:
        print("--resume requires --checkpoint-dir", file=sys.stderr)
        return 2
    if args.checkpoint_every and not args.checkpoint_dir:
        print("--checkpoint-every requires --checkpoint-dir",
              file=sys.stderr)
        return 2
    retry_policy = None
    if args.task_retries or args.task_timeout:
        retry_policy = RetryPolicy(max_retries=args.task_retries,
                                   timeout=args.task_timeout)
    if args.spec:
        graph = load_spec(args.spec)
    else:
        graph = build_layered_network("CTMCTCT", width=6, kernel=3,
                                      window=2, transfer="tanh",
                                      final_transfer="linear",
                                      skip_kernels=True, output_nodes=1)
    with _span_trace(args.trace_out):
        _train_single(args, graph, retry_policy)
    if args.metrics:
        from repro.observability import render_metrics

        print(render_metrics())
    return 0


def _train_single(args, graph, retry_policy) -> None:
    """The single-process body of ``repro train``."""
    import numpy as np

    from repro.core import Network, SGD, Trainer
    from repro.core.serialization import load_latest_checkpoint, save_network
    from repro.data import PatchProvider, make_cell_volume
    from repro.resilience import RECOVERY_METRICS, recovery_summary

    net = Network(graph, input_shape=(args.input_size,) * 3,
                  conv_mode=args.conv_mode, loss="binary-logistic",
                  num_workers=1, seed=args.seed, retry_policy=retry_policy,
                  optimizer=SGD(learning_rate=args.learning_rate,
                                momentum=args.momentum))
    out_shape = net.output_nodes[0].shape
    print(f"network: {len(net.nodes)} nodes, {len(net.edges)} edges; "
          f"input {(args.input_size,) * 3} -> output {out_shape}")

    rounds = args.rounds
    if args.resume:
        resumed = load_latest_checkpoint(net, args.checkpoint_dir)
        if resumed is None:
            print(f"no checkpoint in {args.checkpoint_dir}; "
                  "starting from scratch")
        else:
            rounds = max(0, args.rounds - net.rounds)
            print(f"resumed from {resumed} (round {net.rounds}; "
                  f"{rounds} rounds remaining)")

    volume = make_cell_volume(shape=args.volume_size, num_cells=16,
                              noise=0.08, seed=args.seed + 1)
    volume.image[:] = ((volume.image - volume.image.mean())
                       / volume.image.std())
    provider = PatchProvider(volume, (args.input_size,) * 3, out_shape,
                             seed=args.seed + 2, pooled=True)
    voxels = float(np.prod(out_shape))
    report = Trainer(net, provider).run(
        rounds=rounds,
        checkpoint_every=args.checkpoint_every,
        checkpoint_dir=args.checkpoint_dir,
        callback=lambda i, l: print(f"round {i:4d}  loss/voxel "
                                    f"{l / voxels:.4f}")
        if i % max(rounds // 10, 1) == 0 else None)
    print(f"mean seconds/update: {report.mean_seconds_per_update:.4f}")
    if report.losses:
        print(f"final loss/voxel: {report.losses[-1] / voxels:.4f}")
    if report.checkpoints:
        print(f"latest checkpoint: {report.checkpoints[-1]}")
    if args.checkpoint:
        save_network(net, args.checkpoint)
        print(f"checkpoint written to {args.checkpoint}")
    net.close()
    recovery = {RECOVERY_METRICS[family]: count
                for family, count in recovery_summary().items() if count}
    if recovery:
        print("recovery events: "
              + ", ".join(f"{label} {int(count)}"
                          for label, count in recovery.items()))
    else:
        print("recovery events: none")


def _training_workload(args) -> None:
    """A small instrumented training run shared by ``repro metrics``
    and ``repro trace`` (exercises queue, engine, FFT cache, pooled
    allocator and trainer metrics)."""
    from repro.core import Network, SGD, Trainer
    from repro.data import PatchProvider, make_cell_volume
    from repro.graph import build_layered_network

    graph = build_layered_network("CTMCT", width=3, kernel=3, window=2,
                                  transfer="tanh", final_transfer="linear",
                                  skip_kernels=True, output_nodes=1)
    net = Network(graph, input_shape=(args.input_size,) * 3,
                  conv_mode=args.conv_mode, loss="binary-logistic",
                  num_workers=args.workers, seed=args.seed,
                  optimizer=SGD(learning_rate=1e-3, momentum=0.9))
    volume = make_cell_volume(shape=args.volume_size, num_cells=8,
                              noise=0.08, seed=args.seed + 1)
    provider = PatchProvider(volume, (args.input_size,) * 3,
                             net.output_nodes[0].shape,
                             seed=args.seed + 2, pooled=True)
    Trainer(net, provider).run(rounds=args.rounds)
    net.close()


def _cmd_metrics(args) -> int:
    import json

    from repro.observability import get_registry, render_metrics

    registry = get_registry()
    if not registry.enabled:  # e.g. REPRO_METRICS=0; the user asked anyway
        print("note: metrics registry was disabled; enabling for this run",
              file=sys.stderr)
        registry.enable()
    registry.reset()
    _training_workload(args)
    if args.json:
        print(json.dumps(registry.snapshot(), indent=2, sort_keys=True))
    else:
        print(render_metrics(
            registry=registry,
            title=f"metrics after {args.rounds} training rounds "
                  f"({args.workers} workers, {args.conv_mode})"))
    return 0


def _cmd_trace(args) -> int:
    if args.merge:
        return _cmd_trace_merge(args)
    with _span_trace(args.out):
        _training_workload(args)
    print("open chrome://tracing (or https://ui.perfetto.dev) and load "
          "the file to inspect the task cascade")
    return 0


def _cmd_trace_merge(args) -> int:
    """``repro trace --merge``: per-process span files -> one Chrome
    trace on the shared epoch-aligned timeline."""
    import json

    from repro.observability.tracing import (merge_trace_files,
                                             read_trace_file,
                                             render_span_tree)

    try:
        if args.tree:
            spans = []
            for path in args.merge:
                spans.extend(read_trace_file(path))
            spans.sort(key=lambda s: (s.start, s.process, s.span_id))
            print(render_span_tree(spans))
            return 0
        doc = merge_trace_files(args.merge, args.out)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"merge failed: {exc}", file=sys.stderr)
        return 1
    slices = [e for e in doc["traceEvents"] if e.get("ph") == "X"]
    processes = sorted({e["args"]["name"] for e in doc["traceEvents"]
                        if e.get("ph") == "M"
                        and e.get("name") == "process_name"})
    print(f"merged {len(args.merge)} trace file(s) into {args.out}: "
          f"{len(slices)} spans across {len(processes)} process(es) "
          f"({', '.join(processes)})")
    return 0


def _cmd_profile(args) -> int:
    import json

    from repro.observability.profile import (get_profiler,
                                             load_cost_model,
                                             render_cost_model,
                                             write_cost_model)

    profiler = get_profiler()
    profiler.enable()
    profiler.clear()
    _training_workload(args)
    if not len(profiler):
        print("no profiled samples were recorded", file=sys.stderr)
        return 1
    write_cost_model(args.out, profiler)
    doc = load_cost_model(args.out)  # round-trips the validation
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(render_cost_model(doc))
    print(f"cost model written to {args.out} "
          f"({len(doc['entries'])} (edge, backend, op) entries)")
    return 0


def _cmd_slo(args) -> int:
    import json

    import numpy as np

    from repro.observability.slo import render_slo_report
    from repro.serving import (DeadlineExceeded, InferenceServer,
                               ModelRegistry, ModelSpec)

    spec = ModelSpec(name="default", spec="CT", conv_mode=args.conv_mode,
                     builder_kwargs={"width": 2, "kernel": 3,
                                     "transfer": "tanh"})
    registry = ModelRegistry(max_models=2)
    registry.register(spec)
    server = InferenceServer(registry, num_workers=args.workers)
    server.start()
    rng = np.random.default_rng(args.seed)
    missed = 0
    try:
        for _ in range(args.requests):
            volume = rng.standard_normal((args.volume_size,) * 3)
            try:
                server.infer("default", volume, timeout=args.deadline)
            except DeadlineExceeded:
                missed += 1
    finally:
        server.stop()
    report = server.slo.report()
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_slo_report(report))
    attainment = report["deadline"]["attainment"]
    print(f"{args.requests} request(s), deadline {args.deadline:.2f}s: "
          f"{missed} missed, attainment {attainment:.1%}")
    return 0


def _parse_range(value: str, what: str):
    try:
        lo_s, hi_s = value.split(":", 1)
        lo, hi = int(lo_s), int(hi_s)
    except ValueError:
        raise SystemExit(
            f"--{what} must look like MIN:MAX, got {value!r}")
    if not 1 <= lo <= hi:
        raise SystemExit(
            f"--{what} needs 1 <= MIN <= MAX, got {value!r}")
    return lo, hi


def _cmd_loadtest(args) -> int:
    import json

    from repro.loadgen import (
        HysteresisPolicy,
        ServiceModel,
        SimConfig,
        build_report,
        dump_report,
        generate_trace,
        load_trace,
        render_loadtest_report,
        replay_trace,
        scenario_config,
        simulate_serving,
        validate_loadtest_report,
        write_trace,
    )

    if args.trace:
        trace = load_trace(args.trace)
    else:
        size_min, size_max = _parse_range(args.size, "size")
        config = scenario_config(
            args.scenario, seed=args.seed, duration=args.duration,
            base_rate=args.rate, size_min=size_min,
            size_max=size_max,
            deadline=args.deadline if args.deadline > 0 else None)
        trace = generate_trace(config)
    if args.multiplier != 1.0:
        trace = trace.scaled(args.multiplier)
    if args.emit_trace:
        write_trace(args.emit_trace, trace)

    policy = None
    if args.autoscale:
        lo, hi = _parse_range(args.autoscale, "autoscale")
        policy = HysteresisPolicy(min_workers=lo, max_workers=hi)

    if args.sim:
        report = _loadtest_sim(args, trace, policy, ServiceModel,
                               SimConfig, simulate_serving,
                               build_report)
    else:
        report = _loadtest_live(args, trace, policy, replay_trace,
                                build_report)
    validate_loadtest_report(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(dump_report(report))
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(render_loadtest_report(report))
    return 0


def _loadtest_sim(args, trace, policy, ServiceModel, SimConfig,
                  simulate_serving, build_report) -> dict:
    service = ServiceModel()
    if args.cost_model:
        from repro.observability.profile import load_cost_model

        service = ServiceModel.from_cost_model(
            load_cost_model(args.cost_model))
    config = SimConfig(workers=args.workers,
                       max_queue=args.max_queue, service=service,
                       control_interval=args.control_interval)
    result = simulate_serving(trace, config, policy)
    counts = {"served": 0, "shed": 0, "deadline": 0, "failed": 0}
    latencies = []
    waits = []
    for outcome in result.outcomes:
        counts[outcome.status] += 1
        if outcome.latency is not None:
            latencies.append(outcome.latency)
        if outcome.wait is not None:
            waits.append(outcome.wait)
    autoscaler = {"enabled": False}
    if policy is not None:
        autoscaler = {
            "enabled": True,
            "min": policy.min_workers,
            "max": policy.max_workers,
            "initial": min(max(args.workers, policy.min_workers),
                           policy.max_workers),
            "final": result.final_workers,
            "decisions": len(result.decisions),
        }
    return build_report(
        "sim", trace, counts, latencies, waits=waits,
        worker_seconds=result.worker_seconds, workers=args.workers,
        autoscaler=autoscaler, multiplier=args.multiplier)


def _loadtest_live(args, trace, policy, replay_trace,
                   build_report) -> dict:
    import time

    from repro.loadgen import FleetAutoscaler
    from repro.serving import (FleetServer, InferenceServer,
                               ModelRegistry, ModelSpec)

    names = sorted({r.model for r in trace.requests}) or ["default"]
    specs = [ModelSpec(name=name, spec="CT",
                       conv_mode=args.conv_mode,
                       builder_kwargs={"width": 2, "kernel": 3,
                                       "transfer": "tanh"})
             for name in names]
    if policy is not None and args.fleet <= 0:
        raise SystemExit(
            "live autoscaling scales worker processes: "
            "combine --autoscale with --fleet N")
    autoscaler = None
    if args.fleet > 0:
        prewarm = min((r.shape for r in trace.requests),
                      default=None)
        server = FleetServer(
            specs, num_workers=args.fleet,
            max_queue=args.max_queue, threads_per_worker=1,
            prewarm_shape=prewarm)
    else:
        registry = ModelRegistry(max_models=4)
        for spec in specs:
            registry.register(spec)
        server = InferenceServer(registry, num_workers=args.workers,
                                 max_queue=args.max_queue)
    started = time.monotonic()
    server.start()
    try:
        if policy is not None:
            autoscaler = FleetAutoscaler(
                server, policy,
                interval=args.control_interval).start()
        result = replay_trace(trace, server, speed=args.speed)
    finally:
        if autoscaler is not None:
            autoscaler.stop()
        elapsed = time.monotonic() - started
        server.stop()
    counts = {"served": 0, "shed": 0, "deadline": 0, "failed": 0}
    latencies = []
    for outcome in result.outcomes:
        counts[outcome.status] += 1
        if outcome.latency is not None:
            latencies.append(outcome.latency)
    if autoscaler is not None:
        worker_seconds = autoscaler.worker_seconds
        autoscaler_doc = {
            "enabled": True,
            "min": policy.min_workers,
            "max": policy.max_workers,
            "initial": args.fleet,
            "final": server.active_workers,
            "decisions": len(autoscaler.decisions()),
        }
    else:
        workers = args.fleet if args.fleet > 0 else args.workers
        worker_seconds = workers * elapsed
        autoscaler_doc = {"enabled": False}
    return build_report(
        "live", trace, counts, latencies,
        worker_seconds=worker_seconds,
        workers=args.fleet if args.fleet > 0 else args.workers,
        autoscaler=autoscaler_doc, multiplier=args.multiplier)


def _cmd_gradcheck(args) -> int:
    import numpy as np

    from repro.core import Network, check_gradients
    from repro.graph import load_spec

    graph = load_spec(args.spec)
    net = Network(graph, input_shape=(args.input_size,) * 3,
                  conv_mode=args.conv_mode, seed=args.seed)
    rng = np.random.default_rng(args.seed + 1)
    x = rng.standard_normal((args.input_size,) * 3)
    targets = {n.name: rng.standard_normal(n.shape)
               for n in net.output_nodes}
    report = check_gradients(net, x, targets)
    print(f"checked {report.checked} gradients; "
          f"max relative error {report.max_relative_error:.2e}")
    if report.ok:
        print("OK — all gradients match finite differences")
        return 0
    for failure in report.failures:
        print(f"FAIL  {failure}")
    return 1


def _cmd_specialize(args) -> int:
    import json
    import time

    import numpy as np

    from repro.serving import (ModelRegistry, ModelSpec, PlanInfeasible,
                               plan_specialization)
    from repro.serving.specialize import CostModel
    from repro.utils.shapes import voxels

    dims = [int(v) for v in args.volume.replace(",", " ").split()]
    shape = tuple(dims) if len(dims) > 1 else (dims[0],) * 3
    spec = ModelSpec.from_files(args.name, args.spec,
                                checkpoint=args.checkpoint,
                                conv_mode="direct")
    cost = (CostModel.from_file(args.cost_model)
            if args.cost_model else None)
    memory_bytes = (int(args.memory_mb * (1 << 20))
                    if args.memory_mb is not None else None)
    try:
        plan = plan_specialization(spec, shape, cost_model=cost,
                                   tile_voxels=args.tile_voxels,
                                   memory_bytes=memory_bytes)
    except PlanInfeasible as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 65  # EX_DATAERR: no plan satisfies the constraints
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(plan.to_json())
    measured = None
    if not args.no_measure:
        # Serve one seeded volume under the plan and report the
        # achieved dense-output throughput next to the prediction.
        registry = ModelRegistry(max_models=2)
        registry.register(spec)
        registry.set_plan(plan)
        volume = np.random.default_rng(args.seed).standard_normal(shape)
        warm = registry.warm(args.name, plan.input_tile,
                             conv_modes=plan.conv_mode_map)
        warm.run(volume)  # untimed warm-up pass (engine + spectra)
        start = time.perf_counter()
        dense = warm.run(volume)
        elapsed = time.perf_counter() - start
        measured = dense.size / elapsed
        registry.close()
    if args.json:
        doc = plan.to_doc()
        if measured is not None:
            doc["measured_voxels_per_second"] = measured
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        analytic = plan.cost_model == "analytic"
        print(f"model {args.name!r}: spec {spec.spec}, fov {plan.fov}, "
              f"volume {plan.volume_shape}")
        print(f"plan: tile {plan.input_tile} "
              f"({voxels(plan.input_tile)} voxels), "
              f"{plan.num_tiles} tile(s), working set "
              f"{plan.working_set_bytes / (1 << 20):.1f} MiB, "
              f"{plan.candidates} candidates "
              f"(cost model: {plan.cost_model})")
        print(f"{'layer':>5}  mode")
        for index, mode in plan.layer_modes:
            print(f"{index:>5}  {mode}")
        unit = ("voxels/unit-cost" if analytic else "voxels/s")
        print(f"predicted: {plan.predicted_voxels_per_second:.3g} "
              f"{unit}"
              + (" (analytic: FLOP-denominated, not wall-clock)"
                 if analytic else ""))
        if measured is not None:
            print(f"measured:  {measured:.3g} voxels/s "
                  f"(seed {args.seed}, one warmed run)")
    if args.out:
        print(f"plan written to {args.out}", file=sys.stderr)
    return 0


def _cmd_serve(args) -> int:
    import os
    import signal
    import time

    from repro.resilience import RetryPolicy
    from repro.serving import (InferenceServer, ModelRegistry, ModelSpec,
                               ServingHTTPServer)
    from repro.serving.tiler import DEFAULT_TILE_VOXELS

    if args.trace_dir:
        from repro.observability.tracing import get_tracer

        os.makedirs(args.trace_dir, exist_ok=True)
        tracer = get_tracer()
        tracer.enable()
        tracer.set_process("serve")

    spec = ModelSpec.from_files(args.name, args.spec,
                                checkpoint=args.checkpoint,
                                conv_mode=args.conv_mode)
    plans = []
    if args.specialize:
        from repro.serving import SpecializationPlan

        splan = SpecializationPlan.from_file(args.specialize)
        if splan.model != spec.name:
            print(f"plan {args.specialize} targets model "
                  f"{splan.model!r} but this server registers "
                  f"{spec.name!r}; rerun repro specialize with "
                  f"--name {spec.name}", file=sys.stderr)
            return 2
        plans.append(splan)
    if args.fleet > 0:
        from repro.serving import FleetServer

        inference = FleetServer(
            [spec], num_workers=args.fleet,
            max_queue=args.max_queue, max_batch=args.max_batch,
            threads_per_worker=args.workers,
            inflight_per_worker=args.inflight_per_worker,
            tile_voxels=args.tile_voxels or DEFAULT_TILE_VOXELS,
            max_models=args.max_models,
            max_attempts=args.request_attempts,
            plans=plans)
    else:
        registry = ModelRegistry(max_models=args.max_models)
        registry.register(spec)
        for splan in plans:
            registry.set_plan(splan)
        retry_policy = (RetryPolicy(max_retries=args.request_retries)
                        if args.request_retries else None)
        inference = InferenceServer(
            registry, num_workers=args.workers,
            max_queue=args.max_queue, max_batch=args.max_batch,
            tile_voxels=args.tile_voxels or DEFAULT_TILE_VOXELS,
            retry_policy=retry_policy)
    http = ServingHTTPServer(inference, host=args.host, port=args.port)
    http.start()
    fov = spec.fov
    print(f"model {args.name!r}: spec {spec.spec}, "
          f"fov {fov} ({args.conv_mode}"
          f"{', random weights' if not args.checkpoint else ''})")
    for splan in plans:
        n_fft = sum(1 for _, m in splan.layer_modes if m == "fft")
        print(f"specialized: tile {splan.input_tile}, "
              f"{n_fft}/{len(splan.layer_modes)} conv layers on fft "
              f"(plan {args.specialize})")
    if args.fleet > 0:
        print(f"serving on {http.url} "
              f"(fleet of {args.fleet} worker processes, "
              f"queue {args.max_queue}, batch {args.max_batch})",
              flush=True)
    else:
        print(f"serving on {http.url} "
              f"(workers {args.workers}, queue {args.max_queue}, "
              f"batch {args.max_batch})", flush=True)
    # SIGTERM (e.g. from a CI harness or an orchestrator) shuts down
    # as gracefully as ^C; fleet mode drains first (stop admitting,
    # finish in-flight, /healthz flips to draining/503) so no accepted
    # request is dropped by a rolling restart.
    def _sigterm(_signum, _frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _sigterm)
    stopped = False
    try:
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        if args.fleet > 0:
            print("draining", flush=True)
            drained = http.drain(timeout=args.drain_timeout)
            stopped = True
            print("drained" if drained
                  else f"drain timed out after {args.drain_timeout}s")
        print("shutting down")
    finally:
        if not stopped:
            http.stop()
        if args.trace_dir:
            from repro.observability.tracing import write_trace_file

            path = os.path.join(args.trace_dir,
                                f"trace-serve-{os.getpid()}.json")
            write_trace_file(path)
            print(f"trace file written to {path}")
    return 0


def _cmd_infer(args) -> int:
    import numpy as np

    from repro.serving import (DeadlineExceeded, HttpServingClient,
                               ServerOverloaded, ServingError)

    if (args.input is None) == (args.random is None):
        print("exactly one of --input / --random is required",
              file=sys.stderr)
        return 2
    if args.input is not None:
        volume = np.load(args.input, allow_pickle=False)
    else:
        dims = [int(v) for v in args.random.replace(",", " ").split()]
        shape = tuple(dims) if len(dims) > 1 else (dims[0],) * 3
        volume = np.random.default_rng(args.seed).standard_normal(shape)
    client = HttpServingClient(args.url, max_attempts=args.max_attempts)
    try:
        dense = client.infer(args.model, volume, timeout=args.timeout,
                             trace_id=args.trace_id)
    except ServerOverloaded as exc:
        print(f"rejected: {exc} (retry after {exc.retry_after:.2f}s)",
              file=sys.stderr)
        return 75  # EX_TEMPFAIL: the request was refused, not dropped
    except DeadlineExceeded as exc:
        print(f"deadline missed: {exc}", file=sys.stderr)
        return 76
    except ServingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 70
    print(f"input {volume.shape} -> dense {dense.shape}; "
          f"mean {dense.mean():.6f}, min {dense.min():.6f}, "
          f"max {dense.max():.6f}")
    if client.last_trace_id:
        print(f"trace id: {client.last_trace_id}")
    if args.output:
        np.save(args.output, dense)
        print(f"output written to {args.output}")
    return 0


def _cmd_fleet(args) -> int:
    import json
    import urllib.error
    import urllib.request

    # /healthz answers 503 (with the same JSON document as the body)
    # while draining or once no worker is healthy, so the status
    # command must read the body on HTTPError too.
    url = f"{args.url.rstrip('/')}/healthz"
    try:
        with urllib.request.urlopen(url, timeout=10.0) as response:
            doc = json.loads(response.read().decode("utf-8"))
    except urllib.error.HTTPError as exc:
        try:
            doc = json.loads(exc.read().decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            print(f"error: HTTP {exc.code} from {url}", file=sys.stderr)
            return 69
    except (urllib.error.URLError, OSError) as exc:
        print(f"error: cannot reach {url}: {exc}", file=sys.stderr)
        return 69
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
        return 0
    print(f"fleet status: {doc.get('status', '?')} "
          f"(role {doc.get('role', '?')})")
    print(f"models: {', '.join(doc.get('models', [])) or '-'}")
    admission = doc.get("admission", {})
    print(f"queue: {doc.get('queue_depth', '?')}"
          f"/{doc.get('max_queue', '?')} queued, "
          f"{doc.get('orphaned', 0)} orphaned, "
          f"capacity {admission.get('capacity', '?')}")
    workers = doc.get("workers")
    if not isinstance(workers, dict):
        # Single-process server: workers is a thread count.
        print(f"workers: {workers}")
        return 0
    header = (f"{'id':>3}  {'state':<12} {'pid':>7}  {'restarts':>8}  "
              f"{'queued':>6}  {'inflight':>8}  {'served':>7}  "
              f"{'missed':>6}  last restart reason")
    print(header)
    for wid in sorted(workers, key=lambda w: int(w)):
        info = workers[wid]
        print(f"{wid:>3}  {info.get('state', '?'):<12} "
              f"{str(info.get('pid', '-')):>7}  "
              f"{info.get('restarts', 0):>8}  "
              f"{info.get('queued', 0):>6}  "
              f"{info.get('inflight', 0):>8}  "
              f"{info.get('served', 0):>7}  "
              f"{info.get('deadline_missed', 0):>6}  "
              f"{info.get('last_restart_reason') or '-'}")
    status = doc.get("status")
    return 0 if status in ("ok", "draining") else 69


def _determinism_probe() -> int:
    """One determinism-probe run: train, serve, loadtest a small
    deterministic recipe and print one ``{"stage", "digest"}`` JSON
    line per stage digest.

    Worker counts come from ``REPRO_DET_THREADS`` (the sanitizer's
    perturbation axis); every seed is pinned, so the digests must be
    identical across probe runs regardless of ``PYTHONHASHSEED`` or
    the thread schedule.
    """
    import hashlib
    import json

    from repro.analysis.runtime import DET_THREADS_ENV
    from repro.core import Network, state_digest
    from repro.data.provider import RandomProvider
    from repro.graph import build_layered_network
    from repro.loadgen import (
        SimConfig,
        build_report,
        dump_report,
        generate_trace,
        scenario_config,
        simulate_serving,
    )
    from repro.parallel import ModelConfig, ParallelTrainer
    from repro.serving.tiler import plan_volume, run_plan

    threads = int(os.environ.get(DET_THREADS_ENV, "2") or "2")

    def emit(stage: str, digest: str) -> None:
        print(json.dumps({"stage": stage, "digest": digest},
                         sort_keys=True))

    # Stage 1 — training: the golden recipe (IEEE-exact ops only) at
    # the perturbed worker count; Algorithm 4's fixed-order summation
    # makes the final state digest worker-count invariant.
    layered = {"width": 2, "kernel": 3, "transfer": "linear",
               "final_transfer": "linear", "output_nodes": 1}
    cfg = ModelConfig(
        input_shape=(10, 10, 10), spec="CTCT",
        layered_kwargs=dict(layered), conv_mode="direct",
        loss="euclidean", seed=2026, learning_rate=1e-5, momentum=0.9)
    trainer = ParallelTrainer(
        cfg, RandomProvider, ((10, 10, 10), (6, 6, 6), False, None),
        workers=threads, batch=2, worker_timeout=120.0)
    try:
        report = trainer.run(2)
        emit("train.state_digest", state_digest(trainer.network))
        emit("train.losses", hashlib.sha256(
            json.dumps(list(report.losses)).encode()).hexdigest())
    finally:
        trainer.close()

    # Stage 2 — serving: tiled inference over a fixed volume; the
    # stitched dense output must be bitwise stable.
    import numpy as np

    fov = (5, 5, 5)  # two chained 3^3 direct convolutions
    volume = np.ascontiguousarray(
        np.random.default_rng(123).random((9, 9, 9)))
    plan = plan_volume(volume.shape, fov, max_voxels=343,
                      fast_sizes=False)
    graph = build_layered_network("CTCT", **layered)
    network = Network(graph, input_shape=plan.input_tile,
                      conv_mode="direct", deterministic_sums=True,
                      num_workers=threads, seed=7)
    try:
        dense = run_plan(network, volume, plan)
        emit("serve.dense_volume", hashlib.sha256(
            dense.tobytes()).hexdigest())
    finally:
        network.close()

    # Stage 3 — loadgen: a seeded trace through the discrete-event
    # simulator; the serialized report must be byte-identical.
    trace = generate_trace(
        scenario_config("steady", seed=11, duration=10.0,
                        base_rate=4.0))
    result = simulate_serving(trace, SimConfig(workers=2, max_queue=8))
    counts = {"served": 0, "shed": 0, "deadline": 0, "failed": 0}
    latencies = []
    waits = []
    for outcome in result.outcomes:
        counts[outcome.status] += 1
        if outcome.latency is not None:
            latencies.append(outcome.latency)
        if outcome.wait is not None:
            waits.append(outcome.wait)
    doc = build_report("sim", trace, counts, latencies, waits=waits,
                       worker_seconds=result.worker_seconds, workers=2)
    emit("loadtest.report", hashlib.sha256(
        dump_report(doc).encode()).hexdigest())
    return 0


def _parse_pair(value, what, default):
    if value is None:
        return default
    parts = [p.strip() for p in value.split(",") if p.strip()]
    if len(parts) != 2:
        raise SystemExit(f"--{what} needs two comma-separated values, "
                         f"got {value!r}")
    return int(parts[0]), int(parts[1])


def _cmd_check_determinism(args) -> int:
    import json

    from repro.analysis.runtime import run_determinism_check

    if args.probe:
        return _determinism_probe()
    seeds = _parse_pair(args.seeds, "seeds", (0, 4242))
    threads = _parse_pair(args.threads, "threads", (1, 2))
    doc = run_determinism_check(seeds=seeds, threads=threads)
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    elif doc["matched"]:
        print("repro check-determinism: OK — "
              f"{len(doc['stages'])} stage digest(s) identical under "
              f"PYTHONHASHSEED {seeds[0]}→{seeds[1]}, "
              f"threads {threads[0]}→{threads[1]}")
        for run in doc["runs"]:
            for stage, digest in run["digests"].items():
                print(f"  {stage}: {digest[:16]}…")
            break
    else:
        first = doc["first_divergence"]
        print("repro check-determinism: DIVERGENCE at stage "
              f"{first['stage']!r}")
        print(f"  run A (seed={seeds[0]}, threads={threads[0]}): "
              f"{first['run_a']}")
        print(f"  run B (seed={seeds[1]}, threads={threads[1]}): "
              f"{first['run_b']}")
        print("  earlier stages matched — the leak is in this stage's "
              "arithmetic or serialization", file=sys.stderr)
    return 0 if doc["matched"] else 1


def _cmd_lint(args) -> int:
    from repro.analysis import ALL_RULES, lint_paths, render_violations

    if args.list_rules:
        for name in sorted(ALL_RULES):
            print(name)
        return 0
    rules = None
    if args.rules:
        rules = [r.strip() for r in args.rules.split(",") if r.strip()]
    try:
        violations = lint_paths(args.paths, rules=rules,
                                include_suppressed=True)
    except (ValueError, OSError, SyntaxError) as exc:
        print(f"lint error: {exc}", file=sys.stderr)
        return 2
    active = [v for v in violations if not v.suppressed]
    suppressed = [v for v in violations if v.suppressed]
    if args.format == "sarif":
        shown = violations
    elif args.show_suppressed:
        shown = violations
    else:
        shown = active
    if shown:
        print(render_violations(shown, fmt=args.format))
    elif args.format == "json":
        print("[]")
    elif args.format == "sarif":
        print(render_violations([], fmt="sarif"))
    else:
        ran = rules if rules is not None else sorted(ALL_RULES)
        print(f"repro lint: {', '.join(ran)}: clean")
    summary = f"{len(active)} violation(s)"
    if suppressed:
        summary += f", {len(suppressed)} suppressed"
    print(summary, file=sys.stderr)
    return 1 if active else 0


_COMMANDS = {
    "info": _cmd_info,
    "figure": _cmd_figure,
    "simulate": _cmd_simulate,
    "autotune": _cmd_autotune,
    "train": _cmd_train,
    "metrics": _cmd_metrics,
    "trace": _cmd_trace,
    "profile": _cmd_profile,
    "slo": _cmd_slo,
    "loadtest": _cmd_loadtest,
    "gradcheck": _cmd_gradcheck,
    "specialize": _cmd_specialize,
    "serve": _cmd_serve,
    "infer": _cmd_infer,
    "fleet": _cmd_fleet,
    "lint": _cmd_lint,
    "check-determinism": _cmd_check_determinism,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
