"""Per-collective A/B timing of two source trees of lioncomm.

    python tools/ab_collectives.py --parent OLD/src --change NEW/src \
        [--n 577 1000003] [--pairs 10] [--world 4] [--bits 8] [--step]

Each pair runs both sides, one after the other, in alternating order
(parent first on even pairs, change first on odd ones).  Each side is a
fresh interpreter that pins itself to one core with
``os.sched_setaffinity``, imports lioncomm from its source tree, and
times the six collectives in-process at P=``--world`` (threads on one
``InprocTransport``): the four votes ``ps``, ``ps_efficient``, ``direct``
and ``compressed1bit``, called through ``optimizer.VOTE_ALGOS`` with
``QuantSpec(bits=--bits)`` (integers in [-qmax, qmax] of the side's own
spec, in the narrowest lane that holds them; real vectors for the 1-bit
vote), so both sides are called the same way whatever their
collectives' signatures; then ``allreduce_mean_f32`` and
``allgather_f64``.  A side's figure for a collective and N is the median
over its repetitions of the thread CPU time summed over ranks
(``time.thread_time``), which waits and hand-offs do not touch.  The
defaults, P=4 and 8-bit values, run the 8- and 16-bit lanes;
``--world 2 --bits 1`` is the shape of the benchmark's ``wire`` workload,
whose sign votes ride the 2- and 4-bit lanes.

The table gives, per collective and N, the median over pairs of each
side's figure in microseconds, the parent's quartiles over pairs, the
median over pairs of each side's rank 0 wall time per call, the
change/parent ratio of the CPU medians, and in how many pairs the change
used less CPU.

``--step`` times one whole ``optimizer.distributed_lion_step`` per vote
algorithm instead, on one layer of N parameters from a fixed state: the
benchmark's ``bulk`` spec (L-inf, stochastic rounding) at ``--bits`` >= 2,
sign votes at ``--bits 1``, scored by thread CPU time in the same way.
Rank 0's median wall time and the median minor page faults per step,
summed over ranks
(``getrusage(RUSAGE_THREAD).ru_minflt``, Linux), are printed next to it:
a step that allocates fresh memory pays for the kernel zeroing its pages.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time

import numpy as np

COLLECTIVES = ("ps", "ps_efficient", "direct", "compressed1bit",
               "allreduce_mean_f32", "allgather_f64")
VOTES = COLLECTIVES[:4]


def reps_for(n: int) -> int:
    """Repetitions per side: up to 400 for small vectors, at least 25."""
    return max(25, min(400, 4_000_000 // n))


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_THREAD).ru_minflt


def time_ranks(world: int, call, reps: int) -> tuple[float, float, float]:
    """Run ``call(topo)`` ``reps`` times on every rank after one warm-up,
    in-process; return the medians over calls of the thread CPU time summed
    over ranks and of rank 0's wall time, in microseconds, and of the minor
    page faults summed over ranks."""
    from lioncomm.collectives import run_ranks
    from lioncomm.transport import InprocTransport

    cpu = [[] for _ in range(world)]
    faults = [[] for _ in range(world)]
    wall = []

    def rank(topo):
        call(topo)  # warm-up
        for _ in range(reps):
            f0 = minor_faults()
            c0, t0 = time.thread_time(), time.perf_counter()
            call(topo)
            if topo.rank == 0:
                wall.append(time.perf_counter() - t0)
            cpu[topo.rank].append(time.thread_time() - c0)
            faults[topo.rank].append(minor_faults() - f0)

    run_ranks(world, rank, transport=InprocTransport(world))
    return (float(np.median(np.sum(cpu, axis=0))) * 1e6,
            float(np.median(wall)) * 1e6,
            float(np.median(np.sum(faults, axis=0))))


def worker(src: str, sizes: list[int], world: int, bits: int,
           step: bool) -> dict:
    """Time every collective (or step) at every size in this interpreter."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, os.path.abspath(src))
    import lioncomm
    from lioncomm import collectives as coll
    from lioncomm.optimizer import VOTE_ALGOS
    from lioncomm.quant import QuantSpec, SignPolicy

    if not os.path.abspath(lioncomm.__file__).startswith(os.path.abspath(src)):
        raise SystemExit(f"lioncomm imported from {lioncomm.__file__}, "
                         f"not from {src}")
    if step:
        return step_worker(sizes, world, bits)
    policy = SignPolicy("alternating", iteration=1)
    spec = QuantSpec(bits=bits)
    own_lane = coll.LANE_DTYPES[coll.choose_lane_bits(1, spec.qmax)]

    def vote(name, real):
        return lambda x, q, topo: VOTE_ALGOS[name](x if real else q, topo,
                                                   spec, policy)

    calls = {name: vote(name, name == "compressed1bit") for name in VOTES}
    calls["allreduce_mean_f32"] = lambda x, q, topo: coll.allreduce_mean_f32(
        x, topo)
    calls["allgather_f64"] = lambda x, q, topo: coll.allgather_f64(x, topo)
    out = {}
    for n in sizes:
        rng = np.random.default_rng(n)
        xs = [rng.normal(size=n) for _ in range(world)]
        qs = [rng.integers(-spec.qmax, spec.qmax + 1, size=n).astype(own_lane)
              for _ in range(world)]
        for name in COLLECTIVES:
            call = calls[name]
            out[f"{name}/{n}"] = time_ranks(
                world, lambda topo: call(xs[topo.rank], qs[topo.rank], topo),
                reps_for(n))
    return out


def step_worker(sizes: list[int], world: int, bits: int) -> dict:
    """Thread CPU, rank 0 wall time and minor faults of one step per vote
    algorithm."""
    from lioncomm.optimizer import (LionHyper, WorkerState,
                                    distributed_lion_step)
    from lioncomm.quant import INF, QuantSpec

    spec = (QuantSpec(bits=1) if bits == 1 else
            QuantSpec(bits=bits, norm_p=INF, rounding="stochastic"))
    h = LionHyper(beta1=0.9, beta2=0.99, lr=3e-4)
    out = {}
    for n in sizes:
        rng = np.random.default_rng(n)
        states = [WorkerState({"w": rng.normal(size=n)},
                              {"w": rng.laplace(size=n)})
                  for _ in range(world)]
        grads = [{"w": rng.laplace(size=n)} for _ in range(world)]
        rngs = [np.random.default_rng([n, r]) for r in range(world)]
        for algo in VOTES:
            out[f"{algo}/{n}"] = time_ranks(
                world, lambda topo: distributed_lion_step(
                    states[topo.rank], grads[topo.rank], h, spec, topo, algo,
                    rng=rngs[topo.rank]),
                reps_for(n))
    return out


def run_side(src: str, sizes: list[int], world: int, bits: int,
             step: bool) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--worker", src,
           "--n", *map(str, sizes), "--world", str(world),
           "--bits", str(bits)] + ["--step"] * step
    done = subprocess.run(cmd, check=True, capture_output=True, text=True)
    return json.loads(done.stdout)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = np.percentile(values, [25, 50, 75])
    return float(q1), float(q2), float(q3)


def compare(runs: dict, key: str, field: int, pairs: int):
    """(parent q1, parent median, parent q3, change median, change wins)
    over pairs of one figure of one row."""
    old = [r[key][field] for r in runs["parent"]]
    new = [r[key][field] for r in runs["change"]]
    q1, med_old, q3 = quartiles(old)
    wins = sum(b < a for a, b in zip(old, new))
    return q1, med_old, q3, quartiles(new)[1], f"{wins}/{pairs}"


def print_steps(args, runs: dict):
    """The ``--step`` table: thread CPU summed over ranks, rank 0 wall,
    minor faults summed over ranks."""
    print(f"P={args.world}, {args.bits}-bit values, one distributed_lion_step "
          f"in-process, one core per side, {args.pairs} pairs; "
          f"{os.cpu_count()} cores on this host")
    print(f"{'algo':<16}{'N':>9}{'parent_cpu_us':>15}{'parent_q1-q3':>20}"
          f"{'change_cpu_us':>15}{'ratio':>8}{'wins':>8}"
          f"{'parent_wall_us':>16}{'change_wall_us':>16}"
          f"{'parent_faults':>15}{'change_faults':>15}")
    for n in args.n:
        for algo in VOTES:
            key = f"{algo}/{n}"
            q1, med_old, q3, med_new, wins = compare(runs, key, 0, args.pairs)
            _, wall_old, _, wall_new, _ = compare(runs, key, 1, args.pairs)
            _, flt_old, _, flt_new, _ = compare(runs, key, 2, args.pairs)
            print(f"{algo:<16}{n:>9}{med_old:>15.1f}"
                  f"{f'{q1:.1f}-{q3:.1f}':>20}{med_new:>15.1f}"
                  f"{med_new / med_old:>8.3f}{wins:>8}"
                  f"{wall_old:>16.1f}{wall_new:>16.1f}"
                  f"{flt_old:>15.1f}{flt_new:>15.1f}")


def print_collectives(args, runs: dict):
    """The per-collective table: thread CPU summed over ranks, and rank 0
    wall time beside it."""
    print(f"P={args.world}, {args.bits}-bit values, in-process, one core per "
          f"side, {args.pairs} pairs; {os.cpu_count()} cores on this host")
    print(f"{'collective':<20}{'N':>9}{'parent_cpu_us':>15}"
          f"{'parent_q1-q3':>20}{'change_cpu_us':>15}{'parent_wall_us':>16}"
          f"{'change_wall_us':>16}{'ratio':>8}{'wins':>8}")
    for n in args.n:
        for name in COLLECTIVES:
            key = f"{name}/{n}"
            q1, med_old, q3, med_new, wins = compare(runs, key, 0, args.pairs)
            _, wall_old, _, wall_new, _ = compare(runs, key, 1, args.pairs)
            print(f"{name:<20}{n:>9}{med_old:>15.1f}"
                  f"{f'{q1:.1f}-{q3:.1f}':>20}{med_new:>15.1f}"
                  f"{wall_old:>16.1f}{wall_new:>16.1f}"
                  f"{med_new / med_old:>8.3f}{wins:>8}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", help="source tree of the parent (its src/)")
    ap.add_argument("--change", help="source tree of the change (its src/)")
    ap.add_argument("--n", type=int, nargs="+", default=[577, 1_000_003],
                    help="vector lengths (default: 577 1000003)")
    ap.add_argument("--pairs", type=int, default=10,
                    help="alternating parent/change pairs (default: 10)")
    ap.add_argument("--world", type=int, default=4,
                    help="ranks P (default: 4)")
    ap.add_argument("--bits", type=int, default=8,
                    help="QuantSpec bits of the integer votes' values; 1 "
                         "votes signs (default: 8)")
    ap.add_argument("--step", action="store_true",
                    help="time one distributed_lion_step per vote algorithm "
                         "by thread CPU time instead of the collectives")
    ap.add_argument("--worker", metavar="SRC", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not 1 <= args.world <= 64:
        ap.error("--world must be in 1..64")
    if not 1 <= args.bits <= 16:
        ap.error("--bits must be in 1..16")
    if args.worker:
        print(json.dumps(worker(args.worker, args.n, args.world, args.bits,
                                args.step)))
        return 0
    if not (args.parent and args.change):
        ap.error("--parent and --change are required")
    if args.pairs < 1 or min(args.n) < 1:
        ap.error("--pairs and every --n must be at least 1")

    runs = {"parent": [], "change": []}
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run_side(getattr(args, side), args.n,
                                       args.world, args.bits, args.step))
    (print_steps if args.step else print_collectives)(args, runs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
