"""Per-layer spans for the traced benchmark run.

The traced run replaces each function in ``WRAPPED`` with a timing
wrapper, in every lioncomm module that binds it, so a call made through a
``from .quant import quantize`` import is caught as well as one made
through ``coll.direct_allreduce``.  Transport sends and receives are timed
by the benchmark's counting transport.  Spans are kept in memory, per rank
thread, and summed when the phase ends; nothing inside ``src/`` changes.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from statistics import fmean

from lioncomm.costmodel import CostParams, cost

WRAPPED = {
    "quant": ("quantize", "sround", "pack", "unpack", "apply_sign"),
    "collectives": ("ps_gather_broadcast", "direct_allreduce",
                    "compressed_allreduce_1bit", "allreduce_mean_f32",
                    "allgather_f64"),
    "optimizer": ("distributed_lion_step", "maybe_sync_momentum",
                  "momentum_divergence"),
    "runner": ("train_worker",),
    "workloads": ("teacher_student_batch", "noisy_client_grads"),
}

VOTE_COLLECTIVE = {"ps": "ps_gather_broadcast",
                   "ps_efficient": "ps_gather_broadcast",
                   "direct": "direct_allreduce",
                   "compressed1bit": "compressed_allreduce_1bit"}

# Runtime algorithm name -> the cost model's name for the same collective.
PAPER_NAME = {"ps": "ps_naive", "ps_efficient": "ps_efficient",
              "direct": "direct_allreduce", "compressed1bit": "compressed_1bit"}

CALLS, WALL, SELF, MSGS, BYTES = range(5)


class Tracer:
    """Span totals per rank: calls, wall and self seconds, messages, bytes.

    A rank thread records only after ``bind``; calls from any other thread
    (the benchmark's own checks) pass straight through.  ``self`` time is
    wall time minus the wall time of traced calls made inside the span.
    """

    def __init__(self, world: int):
        self._local = threading.local()
        self.totals = [defaultdict(lambda: [0, 0.0, 0.0, 0, 0])
                       for _ in range(world)]

    def bind(self, rank: int):
        self._local.rank = rank
        self._local.stack = []

    def call(self, name, fn, args, kwargs=None, sent=0):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            return fn(*args, **(kwargs or {}))
        totals = self.totals[self._local.rank]
        frame = [name, 0.0]
        stack.append(frame)
        if sent:
            # Bytes count towards every open span, so a collective's
            # traffic is its sends, wherever they happen below it.
            for open_name, _ in stack:
                rec = totals[open_name]
                rec[MSGS] += 1
                rec[BYTES] += sent
        t0 = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            dt = time.perf_counter() - t0
            stack.pop()
            rec = totals[name]
            rec[CALLS] += 1
            rec[WALL] += dt
            rec[SELF] += dt - frame[1]
            if stack:
                stack[-1][1] += dt

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return traced

    def per_step(self, name: str, field: int, steps: int) -> list[float]:
        """One value per rank, divided by the number of steps."""
        return [tot[name][field] / steps if name in tot else 0.0
                for tot in self.totals]


@contextmanager
def patched(tracer: Tracer):
    """Swap every lioncomm binding of each WRAPPED function for its wrapper.

    A function missing from its module is left unwrapped; the guard then
    reports it as never called.
    """
    modules = [m for n, m in list(sys.modules.items())
               if n == "lioncomm" or n.startswith("lioncomm.")]
    saved = []
    for mod_name, fn_names in WRAPPED.items():
        home = importlib.import_module(f"lioncomm.{mod_name}")
        for fn_name in fn_names:
            orig = getattr(home, fn_name, None)
            if orig is None:
                continue
            wrapper = tracer.wrap(f"{mod_name}.{fn_name}", orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        saved.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)
    try:
        yield
    finally:
        for mod, attr, orig in reversed(saved):
            setattr(mod, attr, orig)


def expected_spans(workload: str, algo: str) -> set[str]:
    """The spans a workload must record for ``algo``.

    The span-completeness guard: a refactor that rebinds a function where
    the wrapper cannot see it would otherwise silently zero a layer.
    """
    names = {"optimizer.distributed_lion_step",
             f"collectives.{VOTE_COLLECTIVE[algo]}", "quant.apply_sign",
             "transport.send", "transport.recv"}
    if algo == "compressed1bit":
        names |= {"quant.pack", "quant.unpack"}
    elif workload != "wire":          # wire votes on 1-bit signs
        names.add("quant.quantize")
        if workload == "bulk":        # L-inf scaling rounds stochastically
            names.add("quant.sround")
    if workload == "toy":
        names |= {"runner.train_worker", "workloads.teacher_student_batch",
                  "workloads.noisy_client_grads",
                  "optimizer.maybe_sync_momentum",
                  "optimizer.momentum_divergence",
                  "collectives.allreduce_mean_f32",
                  "collectives.allgather_f64"}
    return names


def missing_spans(tracer: Tracer, workload: str, algo: str) -> list[str]:
    return sorted(name for name in expected_spans(workload, algo)
                  if not any(tot.get(name, [0])[CALLS] for tot in tracer.totals))


def layer_metric_names(algo: str) -> list[str]:
    """The 25 per-layer metric names of one algorithm, without the suffix."""
    vote = f"collectives.{VOTE_COLLECTIVE[algo]}"
    return ([f"quant.{fn}.ms" for fn in WRAPPED["quant"]]
            + [f"{vote}.calls", f"{vote}.ms", f"{vote}.self_ms",
               "collectives.allreduce_mean_f32.ms",
               "collectives.allgather_f64.ms",
               "optimizer.maybe_sync_momentum.ms",
               "optimizer.momentum_divergence.ms",
               "runner.train_worker.self_ms",
               "workloads.teacher_student_batch.ms",
               "workloads.noisy_client_grads.ms",
               "optimizer.distributed_lion_step.ms",
               "optimizer.distributed_lion_step.self_ms",
               "transport.send.msgs", "transport.send.bytes",
               "transport.send.ms", "transport.recv.wait_ms",
               "process.cpu_per_wall", "costmodel.bits_ratio",
               "costmodel.msgs_ratio", "trace.overhead"])


UNITS = {"calls": "count", "msgs": "count", "bytes": "bytes", "ms": "ms",
         "self_ms": "ms", "wait_ms": "ms"}


def paper_traffic(algo: str, world: int, layer_sizes: list[int]) -> tuple[float, float]:
    """(messages, bits) per step that the paper's cost table predicts."""
    name = PAPER_NAME[algo]
    msgs = sum(cost(name, CostParams(alpha=1.0, beta=0.0, workers=world,
                                     params=n))[0] for n in layer_sizes)
    bits = sum(cost(name, CostParams(alpha=0.0, beta=1.0, workers=world,
                                     params=n))[1] for n in layer_sizes)
    return msgs, bits


def layer_metrics(tracer: Tracer, algo: str, steps: int, world: int,
                  layer_sizes: list[int], cpu_per_wall: float,
                  traced_steps_per_s: float,
                  plain_steps_per_s: float) -> dict[str, dict]:
    """Per-layer metrics of one traced phase.

    calls, msgs and bytes are per step, max over ranks; times are ms per
    step, mean over ranks.
    """
    vote = f"collectives.{VOTE_COLLECTIVE[algo]}"
    paper_msgs, paper_bits = paper_traffic(algo, world, layer_sizes)
    derived = {
        "transport.send.msgs": (max(tracer.per_step("transport.send", CALLS, steps)), "count"),
        "transport.send.bytes": (max(tracer.per_step("transport.send", BYTES, steps)), "bytes"),
        "transport.recv.wait_ms": (1000 * fmean(tracer.per_step("transport.recv", WALL, steps)), "ms"),
        "process.cpu_per_wall": (cpu_per_wall, "ratio"),
        "costmodel.bits_ratio": (8 * max(tracer.per_step(vote, BYTES, steps)) / paper_bits, "ratio"),
        "costmodel.msgs_ratio": (max(tracer.per_step(vote, MSGS, steps)) / paper_msgs, "ratio"),
        "trace.overhead": (traced_steps_per_s / plain_steps_per_s - 1.0, "ratio"),
    }
    out = {}
    for key in layer_metric_names(algo):
        if key in derived:
            value, unit = derived[key]
        else:
            span, stat = key.rsplit(".", 1)
            if stat == "calls":
                value = max(tracer.per_step(span, CALLS, steps))
            else:
                field = SELF if stat == "self_ms" else WALL
                value = 1000 * fmean(tracer.per_step(span, field, steps))
            unit = UNITS[stat]
        out[f"{key}.{algo}"] = {"value": value, "unit": unit}
    return out
