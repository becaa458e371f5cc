"""The benchmark's workloads.

Each workload is a closed loop: every client issues its next operation
only after the previous one returned.  Inputs come from the run's seed
alone (:meth:`Workload.make_inputs`); a small pool of distinct samples
or volumes is cycled, and client ``c`` uses pool entries ``c``,
``c + clients``, ... so two clients never have the same volume object
in flight.

A workload builds its system (:meth:`build`), runs operations
(:meth:`op`), and checks what the operations returned against an
independent reference (:meth:`verify`) outside every timed window.
"""

from __future__ import annotations

import hashlib
import math
import time
from pathlib import Path
from typing import Dict, Sequence

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = ROOT / "examples"

#: Distinct inputs per workload, cycled by the clients.
POOL = 4
#: Serving outputs must match a whole-volume forward within this.
SERVE_TOLERANCE = 1e-9
#: Warm-up training losses must match a one-worker replica within this
#: relative difference (the wait-free sums reorder additions).
TRAIN_TOLERANCE = 1e-9


def digest(array: np.ndarray) -> str:
    """Content digest of an output (bitwise-repeat check)."""
    return hashlib.blake2b(np.ascontiguousarray(array).tobytes(),
                           digest_size=16).hexdigest()


class Workload:
    """One benchmark workload.  Subclasses fill in the hooks."""

    name = ""
    why = ""
    #: Threads (or worker processes) that run the numerical work.
    engine_workers = 2
    #: Closed-loop client threads; each blocks while its op runs.
    clients = 1
    #: Set-ups per run; ``setup_s`` is their median.  Fixed, so a
    #: parent and a change take their medians over as many.
    setups = 9
    #: How the workload's CPU time follows the host's slowdown factor
    #: ``f``: as ``f ** speed_elasticity``, from regressing the log CPU
    #: per operation of 1-2 s chunks on the log factor (measured: 1.51
    #: on serve-tiles, 1.44 on fleet-tiles).  The end-to-end CPU
    #: metrics divide by it (README.md, "Host drift").
    speed_elasticity = 1.5

    def __init__(self, seed: int) -> None:
        #: Seeds the inputs and the model weights.
        self.seed = seed

    def make_inputs(self) -> list:
        raise NotImplementedError

    def build(self):
        """Construct the system (the start of ``setup_s``)."""
        raise NotImplementedError

    def op(self, system, inputs, index: int):
        """One operation on pool entry ``index % POOL``; returns what
        :meth:`verify` checks."""
        raise NotImplementedError

    def record(self, result):
        """What a timed operation keeps for :meth:`verify`."""
        return result

    def drain(self, system) -> None:
        """Finish work the last operation left behind."""

    def close(self, system) -> None:
        raise NotImplementedError

    def verify(self, inputs, warmup: Sequence, timed: Sequence
               ) -> Dict[str, int]:
        """Check the results of the warm-up and the timed operations.

        Returns ``{"warmup": failed warm-up ops, "timed": failed timed
        ops}``.
        """
        raise NotImplementedError


# -- training ---------------------------------------------------------------

def wait_for_updates(network) -> None:
    """Wait until the weight updates a ``train_step`` deferred are done.

    ``Network.synchronize()`` would run them, but its steal can race an
    engine worker that has just popped the same update task ("executed
    twice"), so this only waits on the tasks' states.
    """
    from repro.scheduler.task import TaskState
    for edge in network.edges.values():
        task = edge.update_task
        while task is not None and task.state is not TaskState.COMPLETED:
            if network.engine.errors:
                raise network.engine.errors[0]
            time.sleep(0.0002)


class TrainWorkload(Workload):
    """One caller issuing ``Network.train_step`` on the 32^3 width-8
    ``CTMCTMCTCT`` net with two engine workers."""

    spec = "CTMCTMCTCT"
    input_size = 32
    conv_mode = ""
    # Numpy-bound: measured 0.67 on train-direct.
    speed_elasticity = 0.7

    def _graph(self):
        from repro.graph.builders import build_layered_network
        return build_layered_network(self.spec, width=8, kernel=3,
                                     window=2, skip_kernels=True,
                                     output_nodes=1)

    def make_inputs(self):
        graph = self._graph()
        graph.propagate_shapes((self.input_size,) * 3)
        out_shape = graph.output_nodes[0].shape
        rng = np.random.default_rng(self.seed)
        return [(rng.standard_normal((self.input_size,) * 3),
                 rng.random(out_shape)) for _ in range(POOL)]

    def _network(self, num_workers: int):
        from repro.core.network import Network
        return Network(self._graph(), input_shape=(self.input_size,) * 3,
                       conv_mode=self.conv_mode, memoize=True,
                       num_workers=num_workers, seed=self.seed)

    def build(self):
        return self._network(self.engine_workers)

    def op(self, system, inputs, index: int):
        sample, target = inputs[index % POOL]
        return index, system.train_step(sample, target)

    def drain(self, system) -> None:
        wait_for_updates(system)

    def close(self, system) -> None:
        if system.engine.errors:
            # A failed engine re-raises its error on shutdown; the
            # operations it failed are already counted.
            try:
                system.engine.shutdown()
            except Exception:
                pass
            return
        self.drain(system)
        system.close()

    def verify(self, inputs, warmup, timed):
        failed_timed = sum(1 for _, loss in timed if not math.isfinite(loss))
        replica = self._network(1)
        failed_warmup = 0
        try:
            for index, loss in warmup:
                expected = self.op(replica, inputs, index)[1]
                scale = max(abs(expected), 1e-300)
                if not (math.isfinite(loss)
                        and abs(loss - expected) / scale <= TRAIN_TOLERANCE):
                    failed_warmup += 1
        finally:
            replica.close()
        return {"warmup": failed_warmup, "timed": failed_timed}


class TrainFft(TrainWorkload):
    name = "train-fft"
    why = ("FFT is ~55% of this training round; memoized spectra and "
           "wait-free sums sit on its hot path")
    conv_mode = "fft"


class TrainDirect(TrainWorkload):
    name = "train-direct"
    why = ("direct tap accumulation is ~43% of the same round and no "
           "transforms run: FFT changes should show no change here")
    conv_mode = "direct"


# -- serving ----------------------------------------------------------------

class ServeWorkload(Workload):
    """Closed-loop clients sending whole volumes to a tiling server."""

    clients = 2
    model = ""
    spec_file = ""
    volume_size = 0
    tile_voxels = 0

    def model_spec(self):
        from repro.serving.registry import ModelSpec
        return ModelSpec.from_files(self.model, EXAMPLES / self.spec_file,
                                    conv_mode="fft", seed=self.seed)

    def make_inputs(self):
        rng = np.random.default_rng(self.seed)
        return [rng.standard_normal((self.volume_size,) * 3)
                for _ in range(POOL)]

    def op(self, system, inputs, index: int):
        return index, system.submit(self.model,
                                    inputs[index % POOL]).result()

    def record(self, result):
        index, output = result
        return index, digest(output)

    def verify(self, inputs, warmup, timed):
        from repro.serving.registry import WarmModel
        spec = self.model_spec()
        first: Dict[int, np.ndarray] = {}
        for index, output in warmup:
            first.setdefault(index % POOL, output)
        reference_ok = {}
        for slot, output in first.items():
            whole = WarmModel(spec, inputs[slot].shape)
            try:
                expected = whole.run(inputs[slot])
            finally:
                whole.close()
            reference_ok[slot] = (
                output.shape == expected.shape
                and float(np.max(np.abs(output - expected)))
                <= SERVE_TOLERANCE)
        expected_digest = {slot: digest(out) for slot, out in first.items()}
        failed_warmup = sum(
            1 for index, output in warmup
            if not reference_ok[index % POOL]
            or digest(output) != expected_digest[index % POOL])
        failed_timed = sum(
            1 for index, out_digest in timed
            if index % POOL not in first
            or not reference_ok[index % POOL]
            or out_digest != expected_digest[index % POOL])
        return {"warmup": failed_warmup, "timed": failed_timed}


class ServeTiles(ServeWorkload):
    name = "serve-tiles"
    why = ("9^3 tiles: per-tile task machinery dominates and the warm "
           "model's lock serialises the second worker")
    model = "small"
    spec_file = "serving_small.spec"
    volume_size = 24
    tile_voxels = 9 ** 3
    setups = 41

    def build(self):
        from repro.serving.pipeline import InferenceServer
        from repro.serving.registry import ModelRegistry
        registry = ModelRegistry(num_workers=1)
        registry.register(self.model_spec())
        server = InferenceServer(registry, num_workers=self.engine_workers,
                                 tile_voxels=self.tile_voxels)
        return server.start()

    def close(self, system) -> None:
        system.stop()
        system.registry.close()


class FleetTiles(ServeWorkload):
    name = "fleet-tiles"
    why = ("the only path through the fleet router, pipes and shared "
           "memory; 20^3 tiles make it conv-bound")
    model = "layers"
    spec_file = "serving_layers.spec"
    volume_size = 36
    tile_voxels = 20 ** 3
    # One model: the hash ring sends every request to the same worker,
    # and with two clients the CPU per request depends on whether their
    # requests happen to share a batch (89 to 150 requests per 2 s).
    clients = 1

    def build(self):
        from repro.serving.fleet import FleetServer
        fleet = FleetServer([self.model_spec()],
                            num_workers=self.engine_workers,
                            tile_voxels=self.tile_voxels,
                            prewarm_shape=(self.volume_size,) * 3)
        fleet.start()
        if not fleet.supervisor.wait_ready(timeout=120.0,
                                           min_workers=self.engine_workers):
            fleet.stop()
            raise RuntimeError("fleet workers did not become ready")
        return fleet

    def close(self, system) -> None:
        system.stop()


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (TrainFft, TrainDirect, ServeTiles, FleetTiles)
}


def get_workload(name: str, seed: int) -> Workload:
    """The workload called *name*, seeded for weights and inputs."""
    try:
        cls = WORKLOADS[name]
    except KeyError:
        raise SystemExit(f"unknown workload {name!r}; choose from "
                         f"{', '.join(WORKLOADS)}") from None
    return cls(seed)
