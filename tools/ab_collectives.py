"""Per-collective A/B timing of two source trees of lioncomm.

    python tools/ab_collectives.py --parent OLD/src --change NEW/src \
        [--n 577 1000003] [--pairs 10] [--world 4] [--bits 8] [--step | --toy]

Each pair runs both sides, one after the other, in alternating order
(parent first on even pairs, change first on odd ones).  Outside
``--toy``, each side is a fresh interpreter that pins itself to one core with
``os.sched_setaffinity``, imports lioncomm from its source tree, and
times the six collectives in-process at P=``--world`` (threads on one
``InprocTransport``): the four votes ``ps``, ``ps_efficient``, ``direct``
and ``compressed1bit``, called through ``optimizer.VOTE_ALGOS`` with
``QuantSpec(bits=--bits)`` (integers in [-qmax, qmax] of the side's own
spec, in the narrowest lane that holds them; real vectors for the 1-bit
vote), so both sides are called the same way whatever their
collectives' signatures; then ``allreduce_mean_f32`` and
``allgather_f64``.  A seventh row times ``momentum_divergence``, called
through ``optimizer.momentum_divergence`` on a one-layer state whose
momentum is the real vector, whatever collectives a side builds it on.
A side's figure for a collective and N is the median
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

``--toy`` times whole trainings instead: ``runner.train_worker`` on the
benchmark's ``toy`` config (the default 16-32-1 MLP, 8-bit L1 votes,
batch 64, momentum sync of ``head`` and a metrics row every 10 steps) at
P=``--world``, 20 steps a block, per vote algorithm.  Both trees are
loaded into this one interpreter, pinned to one core, under the package
names ``ab_parent`` and ``ab_change``
(``importlib.util.spec_from_file_location`` with
``submodule_search_locations``), so the two sides share the process,
its heap and its core, and whole-process drift moves both alike.  After
one warm-up block per side and algorithm, each pair runs one block per
side, alternating which side goes first, and scores it by process CPU
time per step (``time.process_time``).  The table gives, per algorithm,
the same columns as ``--step`` without the faults, and a last line says
whether the two sides ended every block with the same parameters.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import resource
import subprocess
import sys
import time

import numpy as np

COLLECTIVES = ("ps", "ps_efficient", "direct", "compressed1bit",
               "allreduce_mean_f32", "allgather_f64", "momentum_divergence")
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
    from lioncomm.optimizer import (VOTE_ALGOS, WorkerState,
                                    momentum_divergence)
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
    calls["momentum_divergence"] = lambda x, q, topo: momentum_divergence(
        WorkerState({}, {"w": x}), topo)
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


TOY_STEPS = 20


def load_tree(src: str, name: str):
    """lioncomm from the source tree ``src`` (its ``src/``), imported as the
    package ``name`` with its submodules, ``runner`` included, so two trees
    can share one interpreter."""
    pkg = os.path.join(os.path.abspath(src), "lioncomm")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg, "__init__.py"),
        submodule_search_locations=[pkg])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    importlib.import_module(f"{name}.runner")
    return module


def toy_block(lc, algo: str, world: int,
              block: int) -> tuple[float, float, str]:
    """One ``TOY_STEPS``-step toy training of ``lc`` at P=``world``: process
    CPU and wall time per step, in microseconds, and rank 0's final
    parameter hash."""
    cfg = lc.runner.RunConfig.from_dict({
        "train": {"steps": TOY_STEPS, "clients": world, "batch_size": 64,
                  "lr": 3e-4},
        "quant": {"kind": "lp", "bits": 8, "norm_p": 1.0}, "algo": algo,
        "sync": {"period": 10, "layers": ["head"]},
        "noise": {"levy_alpha": 0.5, "scale": 1e-4, "per_client_seed": block},
        "seed": 0, "metrics_every": 10})
    c0, t0 = time.process_time(), time.perf_counter()
    results = lc.run_ranks(world, lambda topo: lc.runner.train_worker(
        topo, cfg))
    cpu, wall = time.process_time() - c0, time.perf_counter() - t0
    return (cpu / TOY_STEPS * 1e6, wall / TOY_STEPS * 1e6,
            results[0]["final_params_hash"])


def run_toy(args) -> tuple[dict, bool]:
    """Alternating toy blocks of both trees in this interpreter, pinned to
    one core; returns ``runs`` in ``compare``'s shape and whether every
    block ended with the same parameters on both sides."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    trees = {"parent": load_tree(args.parent, "ab_parent"),
             "change": load_tree(args.change, "ab_change")}
    runs = {"parent": [{} for _ in range(args.pairs)],
            "change": [{} for _ in range(args.pairs)]}
    same = True
    for algo in VOTES:
        for side in runs:  # warm-up
            toy_block(trees[side], algo, args.world, 0)
        for k in range(args.pairs):
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            hashes = set()
            for side in order:
                cpu, wall, digest = toy_block(trees[side], algo, args.world, k)
                runs[side][k][algo] = (cpu, wall)
                hashes.add(digest)
            same = same and len(hashes) == 1
    return runs, same


def print_toy(args, runs: dict, same: bool):
    """The ``--toy`` table: process CPU per step, rank 0 wall per step."""
    print(f"P={args.world}, toy training ({TOY_STEPS}-step blocks), both trees "
          f"in one interpreter on one core, {args.pairs} pairs; "
          f"{os.cpu_count()} cores on this host")
    print(f"{'algo':<16}{'parent_cpu_us':>15}{'parent_q1-q3':>20}"
          f"{'change_cpu_us':>15}{'ratio':>8}{'wins':>8}"
          f"{'parent_wall_us':>16}{'change_wall_us':>16}")
    for algo in VOTES:
        q1, med_old, q3, med_new, wins = compare(runs, algo, 0, args.pairs)
        _, wall_old, _, wall_new, _ = compare(runs, algo, 1, args.pairs)
        print(f"{algo:<16}{med_old:>15.1f}{f'{q1:.1f}-{q3:.1f}':>20}"
              f"{med_new:>15.1f}{med_new / med_old:>8.3f}{wins:>8}"
              f"{wall_old:>16.1f}{wall_new:>16.1f}")
    print(f"same final parameters in every block: {'yes' if same else 'no'}")


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
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--step", action="store_true",
                      help="time one distributed_lion_step per vote "
                           "algorithm by thread CPU time instead of the "
                           "collectives")
    mode.add_argument("--toy", action="store_true",
                      help="time whole toy trainings per vote algorithm, "
                           "both trees in one interpreter, by process CPU "
                           "time")
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
    if args.toy:
        print_toy(args, *run_toy(args))
        return 0

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
