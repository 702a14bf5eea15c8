"""The three benchmark workloads, driven through lioncomm's public API.

Each workload runs all four vote algorithms on the same seeded inputs,
taking turns block by block.  A block is one toy training run, or K
distributed steps from a fixed initial state; every block is timed and
checked, and a run ends once its time budget is spent and every algorithm
has run enough blocks.  ``bench/part.py`` runs one share of an end-to-end
run in its own interpreter.
"""

from __future__ import annotations

import math
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

import lioncomm as lc
from lioncomm import optimizer, runner
from lioncomm.transport import Transport
import reference
import tracing
from setup_probe import SHAPES, build_world, close_world

ALGOS = ("ps", "ps_efficient", "direct", "compressed1bit")

# Toy: a fixed teacher-student task (model seed 0, as in the README
# example) with per-client heavy-tailed noise drawn from the benchmark seed.
# Loss after 100 steps varies ~8% across noise seeds (IQR over median), so
# final_loss is the mean over TOY_REPLICAS 100-step trainings, one per
# noise stream; a process trains its share of them (``loss_replicas``) as
# its first blocks.  Later blocks are 20-step trainings: the same mix of
# vote, sync and metrics steps (both fire every 10 steps) in more blocks.
TOY_LOSS_STEPS = 100
TOY_REPLICAS = 8
TOY_TIMING_STEPS = 20

MIN_BLOCKS = 2
# A rank blocked this long in recv fails its block; a phase stops at its
# first failed block, so a hang cannot hold a run past its time limit.
RECV_TIMEOUT_S = 20.0
HYPER = reference.hyper(lc)


def layer_sizes(workload: str) -> list[int]:
    """Parameters per layer: the toy MLP's layers, or the one vote layer."""
    n = SHAPES[workload]["N"]
    return list(lc.MlpModel().layer_sizes.values()) if n is None else [n]


class CountingTransport(Transport):
    """Hands frames to one endpoint per rank and counts payload bytes sent.

    Framing is not counted, so in-process and socket runs compare.  Each
    rank thread touches only its own counter slot.  With a tracer, send
    and recv are also timed as spans of the calling rank.
    """

    def __init__(self, ends: list, tracer=None):
        self.world_size = len(ends)
        self.ends = ends
        self.tracer = tracer
        self.bytes = [0] * self.world_size

    def send(self, src, dst, generation, tag, payload):
        self.bytes[src] += len(payload)
        if self.tracer is None:
            self.ends[src].send(src, dst, generation, tag, payload)
        else:
            self.tracer.call("transport.send", self.ends[src].send,
                             (src, dst, generation, tag, payload),
                             sent=len(payload))

    def recv(self, dst, src, generation, tag, timeout):
        if self.tracer is None:
            return self.ends[dst].recv(dst, src, generation, tag, timeout)
        return self.tracer.call("transport.recv", self.ends[dst].recv,
                                (dst, src, generation, tag, timeout))


@dataclass
class Phase:
    """One algorithm's blocks in a run, traced or not, and what they gave."""

    algo: str
    transport: CountingTransport
    tracer: tracing.Tracer | None = None
    steps: int = 0
    attempted: int = 0
    failed: int = 0
    losses: list[float] = field(default_factory=list)
    wall_s: float = 0.0
    cpu_s: float = 0.0
    errors: list[str] = field(default_factory=list)

    @property
    def steps_per_s(self) -> float:
        """Steps completed over the wall time of the phase's good blocks."""
        return self.steps / self.wall_s if self.steps else 0.0

    def patched(self):
        return tracing.patched(self.tracer) if self.tracer else nullcontext()


class Workload:
    """Seeded inputs, transport and reference checks for one workload.

    ``ref_digests`` (bulk, wire) are the reference digests when the caller
    has them already; ``loss_replicas`` (toy) are the noise streams whose
    100-step training this process runs, all of them by default.
    """

    def __init__(self, name: str, seed: int, ref_digests: dict | None = None,
                 loss_replicas: list[int] | None = None):
        self.name = name
        self.seed = seed
        self.world = SHAPES[name]["P"]
        self.n = SHAPES[name]["N"]
        self.ends, self.states = build_world(lc, name)
        self.layer_sizes = layer_sizes(name)
        if name == "toy":
            self.loss_replicas = (list(range(TOY_REPLICAS)) if loss_replicas is None
                                  else loss_replicas)
            self.min_blocks = max(len(self.loss_replicas), MIN_BLOCKS)
            self._toy_hashes: dict[tuple, str] = {}
        else:
            self.min_blocks = MIN_BLOCKS
            self.spec = reference.spec(lc, name)
            self.grads = reference.vote_grads(lc, np, name, seed)
            self.ref_digests = ref_digests or reference.reference_digests(
                name, seed, ALGOS)

    def close(self):
        close_world(self.ends)

    def block_steps(self, index: int) -> int:
        if self.name != "toy":
            return reference.BLOCK_STEPS[self.name]
        return TOY_LOSS_STEPS if self._loss_block(index) else TOY_TIMING_STEPS

    def _loss_block(self, index: int) -> bool:
        return index < len(self.loss_replicas)

    def phase(self, algo: str, traced: bool = False) -> Phase:
        tracer = tracing.Tracer(self.world) if traced else None
        return Phase(algo, CountingTransport(self.ends, tracer), tracer)

    # ------------------------------------------------------------- toy

    def toy_config(self, algo: str, replica: int, steps: int):
        noise_seed = int(np.random.SeedSequence([self.seed, replica])
                         .generate_state(1)[0])
        return runner.RunConfig.from_dict({
            "train": {"steps": steps, "clients": self.world,
                      "batch_size": 64, "lr": 3e-4},
            "quant": {"kind": "lp", "bits": 8, "norm_p": 1.0},
            "algo": algo,
            "sync": {"period": 10, "layers": ["head"]},
            "noise": {"levy_alpha": 0.5, "scale": 1e-4,
                      "per_client_seed": noise_seed},
            "seed": 0,
            "metrics_every": 10,
        })

    def _toy_block(self, ph: Phase, index: int):
        algo = ph.algo
        loss_block = self._loss_block(index)
        replica = self.loss_replicas[index] if loss_block else index % TOY_REPLICAS
        steps = self.block_steps(index)
        cfg = self.toy_config(algo, replica, steps)

        def rank_fn(topo):
            if ph.tracer is not None:
                ph.tracer.bind(topo.rank)
            return runner.train_worker(topo, cfg)

        results, elapsed, cpu = self._timed(rank_fn, ph)

        hashes = {optimizer.hash_params(r["state"].params) for r in results}
        losses = {r["rows"][-1]["loss"] for r in results}
        if len(hashes) != 1:
            return elapsed, cpu, None, "ranks ended with different parameters"
        if len(losses) != 1 or not math.isfinite(next(iter(losses))):
            return elapsed, cpu, None, f"rank losses {sorted(losses)} differ or are not finite"
        (loss,) = losses
        (digest,) = hashes
        seen = self._toy_hashes.setdefault((algo, replica, steps), digest)
        if seen != digest:
            return elapsed, cpu, None, f"replica {replica} did not repeat bit for bit"
        return elapsed, cpu, (loss if loss_block else None), None

    # ------------------------------------------------------ bulk, wire

    def _vote_block(self, ph: Phase, index: int):
        algo = ph.algo
        k = self.block_steps(index)

        def rank_fn(topo):
            if ph.tracer is not None:
                ph.tracer.bind(topo.rank)
            state = self.states[topo.rank]
            out = None
            for t in range(1, k + 1):
                rng = reference.step_rng(np, self.seed, topo.rank, t)
                out = {} if t == k else None
                state = optimizer.distributed_lion_step(
                    state, reference.step_grad(self.grads, topo.rank, t),
                    HYPER, self.spec, topo, algo,
                    rng=rng, metrics_out=out)
            return state, out

        results, elapsed, cpu = self._timed(rank_fn, ph)

        hashes = {optimizer.hash_params(s.params) for s, _ in results}
        if len(hashes) != 1:
            return elapsed, cpu, None, "ranks ended with different parameters"
        if hashes != {self.ref_digests[algo]}:
            return elapsed, cpu, None, "parameters differ from the numpy reference"
        if index:
            return elapsed, cpu, None, None
        # Blocks repeat bit for bit, so the first one gives the loss: the
        # last step's applied sign against full-precision Lion's sign.
        applied = results[0][1]["vote_sign"]["w"]
        exact = np.sign(sum(out["c_local"]["w"] for _, out in results))
        return elapsed, cpu, float(np.mean((applied - exact) ** 2)), None

    # ----------------------------------------------------------- timing

    def measure(self, phases: list[Phase], budget_s: float, min_blocks: int,
                pace=None) -> list[float]:
        """Run blocks round robin, one per phase in turn, until ``budget_s``
        is spent and every phase has run ``min_blocks``.  With ``pace``,
        call it before each round and return what it gave.

        Round robin spreads each algorithm's blocks over the whole run, so
        a burst of load on the machine moves every median a little rather
        than one median a lot.  Every block is checked; a phase stops at
        its first failed block.
        """
        block = self._toy_block if self.name == "toy" else self._vote_block
        deadline = time.perf_counter() + budget_s
        index = 0
        paces = []
        while index < min_blocks or time.perf_counter() < deadline:
            live = [ph for ph in phases if not ph.errors]
            if not live:
                break
            if pace is not None:
                paces.append(pace())
            steps = self.block_steps(index)
            for ph in live:
                ph.attempted += steps
                try:
                    with ph.patched():
                        elapsed, cpu, loss, problem = block(ph, index)
                except Exception as exc:  # a failed step is counted, not fatal
                    loss, problem = None, f"{type(exc).__name__}: {exc}"
                if problem is not None:
                    ph.failed += steps
                    ph.errors.append(problem)
                    continue
                ph.steps += steps
                ph.wall_s += elapsed
                ph.cpu_s += cpu
                if loss is not None:
                    ph.losses.append(loss)
            index += 1
        return paces

    def _timed(self, rank_fn, ph: Phase):
        """All ranks run ``rank_fn`` once; returns results, wall and CPU s."""
        wall0, cpu0 = time.perf_counter(), time.process_time()
        results = lc.run_ranks(self.world, rank_fn, transport=ph.transport,
                               timeout=RECV_TIMEOUT_S)
        return (results, time.perf_counter() - wall0,
                time.process_time() - cpu0)
