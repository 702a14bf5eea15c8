"""A/B timing of two source trees of lioncomm in one interpreter.

    python tools/ab_collectives.py --parent OLD/src --change NEW/src \
        [--n 577 1000003] [--pairs 10] [--world 4] [--bits 8] [--step | --toy]

Both trees are loaded into this one interpreter under the package names
``ab_parent`` and ``ab_change`` (``importlib.util.spec_from_file_location``
with ``submodule_search_locations``), and the process pins itself to one
core once, so the two sides share the process, its heap and its core, and
whole-process drift moves both alike.  A mode is a list of rows.  Each
side builds every row's inputs with its own package (its own
``QuantSpec``, lane and ``WorkerState``) and its own seeded generators,
so both sides are called the same way whatever their signatures.  After
one unscored warm-up pass per side, each pair runs every row on both
sides back to back; which side goes first alternates with the pair index
plus the row index.

The default rows are (collective, N), each timed in-process at
P=``--world`` (threads on one ``InprocTransport``): the four votes
``ps``, ``ps_efficient``, ``direct`` and ``compressed1bit``, called
through ``optimizer.VOTE_ALGOS`` with ``QuantSpec(bits=--bits)``
(integers in [-qmax, qmax] of the side's own spec, in the narrowest lane
that holds them; real vectors for the 1-bit vote), then
``allreduce_mean_f32``, ``allgather_f64`` and ``momentum_divergence``,
the last called through ``optimizer.momentum_divergence`` on a one-layer
state whose momentum is the real vector.  The defaults, P=4 and 8-bit
values, run the 8- and 16-bit lanes; ``--world 2 --bits 1`` is the shape
of the benchmark's ``wire`` workload, whose sign votes ride the 2- and
4-bit lanes.  ``--step`` rows are (algo, N): one whole
``optimizer.distributed_lion_step`` per vote algorithm on one layer of N
parameters from a fixed state, with the benchmark's ``bulk`` spec (L-inf,
stochastic rounding) at ``--bits`` >= 2 and sign votes at ``--bits 1``.
Both score a side's call by the thread CPU time summed over ranks
(``time.thread_time``), which waits and hand-offs do not touch, and take
the median over the call's repetitions; rank 0's wall time and the minor
page faults summed over ranks (``getrusage(RUSAGE_THREAD).ru_minflt``,
Linux) go beside it, since a call that allocates fresh memory pays for
the kernel zeroing its pages.

``--toy`` rows are (algo,): one whole ``runner.train_worker`` on the
benchmark's ``toy`` config (the default 16-32-1 MLP, 8-bit L1 votes,
batch 64, momentum sync of ``head`` and a metrics row every 10 steps) at
P=``--world``, 20 steps a block, scored by process CPU time per step
(``time.process_time``); a last line says whether the two sides ended
every block with the same parameters.

The table gives, per row, the median over pairs of each side's score in
microseconds, the parent's quartiles over pairs, the change/parent ratio
of the medians, in how many pairs the change scored lower (ties count for
neither side), the median over pairs of each side's wall time and,
outside ``--toy``, of its faults.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import resource
import sys
import time
from functools import partial

import numpy as np

COLLECTIVES = ("ps", "ps_efficient", "direct", "compressed1bit",
               "allreduce_mean_f32", "allgather_f64", "momentum_divergence")
VOTES = COLLECTIVES[:4]
SIDES = ("parent", "change")
TOY_STEPS = 20


def reps_for(n: int) -> int:
    """Repetitions per side: up to 400 for small vectors, at least 25."""
    return max(25, min(400, 4_000_000 // n))


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_THREAD).ru_minflt


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


def time_ranks(lc, world: int, reps: int, call,
               *inputs) -> tuple[float, float, float]:
    """Run ``call(topo, *inputs[i][rank] for each i)`` ``reps`` times on
    every rank of ``lc`` after one warm-up, in-process; return the medians
    over calls of the thread CPU time summed over ranks and of rank 0's
    wall time, in microseconds, and of the minor page faults summed over
    ranks."""
    cpu = [[] for _ in range(world)]
    faults = [[] for _ in range(world)]
    wall = []

    def rank(topo):
        args = [x[topo.rank] for x in inputs]
        call(topo, *args)  # warm-up
        for _ in range(reps):
            f0 = minor_faults()
            c0, t0 = time.thread_time(), time.perf_counter()
            call(topo, *args)
            if topo.rank == 0:
                wall.append(time.perf_counter() - t0)
            cpu[topo.rank].append(time.thread_time() - c0)
            faults[topo.rank].append(minor_faults() - f0)

    lc.run_ranks(world, rank, transport=lc.InprocTransport(world))
    return (float(np.median(np.sum(cpu, axis=0))) * 1e6,
            float(np.median(wall)) * 1e6,
            float(np.median(np.sum(faults, axis=0))))


def ranked(lc, world: int, n: int, call, *inputs):
    """A row that ``time_ranks`` times on ``lc``; the pair index is unused."""
    return lambda k: time_ranks(lc, world, reps_for(n), call, *inputs)


def collective_rows(lc, sizes: list[int], world: int, bits: int) -> dict:
    """(collective, N) rows on ``lc``'s own inputs."""
    coll, opt = lc.collectives, lc.optimizer
    policy = lc.SignPolicy("alternating", iteration=1)
    spec = lc.QuantSpec(bits=bits)
    own_lane = coll.LANE_DTYPES[coll.choose_lane_bits(1, spec.qmax)]

    def vote(name, real):
        return lambda topo, x, q: opt.VOTE_ALGOS[name](x if real else q, topo,
                                                       spec, policy)

    calls = {name: vote(name, name == "compressed1bit") for name in VOTES}
    calls["allreduce_mean_f32"] = lambda topo, x, q: coll.allreduce_mean_f32(
        x, topo)
    calls["allgather_f64"] = lambda topo, x, q: coll.allgather_f64(x, topo)
    calls["momentum_divergence"] = lambda topo, x, q: opt.momentum_divergence(
        opt.WorkerState({}, {"w": x}), topo)
    rows = {}
    for n in sizes:
        rng = np.random.default_rng(n)
        xs = [rng.normal(size=n) for _ in range(world)]
        qs = [rng.integers(-spec.qmax, spec.qmax + 1, size=n).astype(own_lane)
              for _ in range(world)]
        for name in COLLECTIVES:
            rows[name, n] = ranked(lc, world, n, calls[name], xs, qs)
    return rows


def step_rows(lc, sizes: list[int], world: int, bits: int) -> dict:
    """(algo, N) rows of one ``distributed_lion_step`` on ``lc``."""
    opt = lc.optimizer
    spec = (lc.QuantSpec(bits=1) if bits == 1 else
            lc.QuantSpec(bits=bits, norm_p=lc.INF, rounding="stochastic"))
    h = opt.LionHyper(beta1=0.9, beta2=0.99, lr=3e-4)

    def step(algo):
        return lambda topo, state, grad, rng: opt.distributed_lion_step(
            state, grad, h, spec, topo, algo, rng=rng)

    rows = {}
    for n in sizes:
        rng = np.random.default_rng(n)
        states = [opt.WorkerState({"w": rng.normal(size=n)},
                                  {"w": rng.laplace(size=n)})
                  for _ in range(world)]
        grads = [{"w": rng.laplace(size=n)} for _ in range(world)]
        rngs = [np.random.default_rng([n, r]) for r in range(world)]
        for algo in VOTES:
            rows[algo, n] = ranked(lc, world, n, step(algo), states, grads,
                                   rngs)
    return rows


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


def toy_rows(lc, sizes: list[int], world: int, bits: int) -> dict:
    """(algo,) rows of one toy block on ``lc``, seeded by the pair index;
    the toy config fixes its own sizes and bits."""
    return {(algo,): partial(toy_block, lc, algo, world) for algo in VOTES}


def run_pairs(rows: dict, pairs: int) -> dict:
    """One warm-up pass per side, then ``pairs`` pairs in which both sides
    run each row back to back; ``rows[side][row](k)`` times one call.
    Returns ``runs[side][row]``, the list over pairs of its figures."""
    for side in SIDES:
        for measure in rows[side].values():
            measure(0)
    runs = {side: {row: [] for row in rows[side]} for side in SIDES}
    for k in range(pairs):
        for i, row in enumerate(rows["parent"]):
            for side in SIDES if (k + i) % 2 == 0 else SIDES[::-1]:
                runs[side][row].append(rows[side][row](k))
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, q2, q3 = np.percentile(values, [25, 50, 75])
    return float(q1), float(q2), float(q3)


def compare(runs: dict, row, field: int):
    """(parent q1, parent median, parent q3, change median, change wins)
    over pairs of one figure of one row; a tie is no win."""
    old = [r[field] for r in runs["parent"][row]]
    new = [r[field] for r in runs["change"][row]]
    q1, med_old, q3 = quartiles(old)
    wins = sum(b < a for a, b in zip(old, new))
    return q1, med_old, q3, quartiles(new)[1], wins


def print_table(title: str, label: str, runs: dict, toy: bool):
    """One line per row: each side's median score, the parent's quartiles,
    the ratio and the change's wins, then each side's median wall time
    and, outside ``--toy``, its median faults (a toy row has no N, and its
    third figure is a parameter hash)."""
    print(title)
    n_col = "" if toy else f"{'N':>9}"
    faults = "" if toy else f"{'parent_faults':>15}{'change_faults':>15}"
    print(f"{label:<20}{n_col}{'parent_cpu_us':>15}{'parent_q1-q3':>20}"
          f"{'change_cpu_us':>15}{'ratio':>8}{'wins':>8}"
          f"{'parent_wall_us':>16}{'change_wall_us':>16}{faults}")
    for row, old in runs["parent"].items():
        q1, cpu_old, q3, cpu_new, wins = compare(runs, row, 0)
        _, wall_old, _, wall_new, _ = compare(runs, row, 1)
        n_col, faults = "", ""
        if not toy:
            _, flt_old, _, flt_new, _ = compare(runs, row, 2)
            n_col, faults = f"{row[1]:>9}", f"{flt_old:>15.1f}{flt_new:>15.1f}"
        print(f"{row[0]:<20}{n_col}{cpu_old:>15.1f}"
              f"{f'{q1:.1f}-{q3:.1f}':>20}{cpu_new:>15.1f}"
              f"{cpu_new / cpu_old:>8.3f}{f'{wins}/{len(old)}':>8}"
              f"{wall_old:>16.1f}{wall_new:>16.1f}{faults}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True,
                    help="source tree of the parent (its src/)")
    ap.add_argument("--change", required=True,
                    help="source tree of the change (its src/)")
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
                      help="time whole toy trainings per vote algorithm "
                           "by process CPU time")
    args = ap.parse_args(argv)
    if not 1 <= args.world <= 64:
        ap.error("--world must be in 1..64")
    if not 1 <= args.bits <= 16:
        ap.error("--bits must be in 1..16")
    if args.pairs < 1 or min(args.n) < 1:
        ap.error("--pairs and every --n must be at least 1")

    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    trees = {side: load_tree(getattr(args, side), f"ab_{side}")
             for side in SIDES}
    if args.toy:
        build, label, what = (toy_rows, "algo",
                              f"toy training ({TOY_STEPS}-step blocks)")
    elif args.step:
        build, label, what = (step_rows, "algo", f"{args.bits}-bit values, "
                              "one distributed_lion_step in-process")
    else:
        build, label, what = (collective_rows, "collective",
                              f"{args.bits}-bit values, in-process")
    rows = {side: build(lc, args.n, args.world, args.bits)
            for side, lc in trees.items()}
    runs = run_pairs(rows, args.pairs)
    print_table(f"P={args.world}, {what}, both trees in one interpreter on "
                f"one core, {args.pairs} pairs; {os.cpu_count()} cores on "
                "this host", label, runs, args.toy)
    if args.toy:
        same = all(a[2] == b[2] for row, old in runs["parent"].items()
                   for a, b in zip(old, runs["change"][row]))
        print(f"same final parameters in every block: "
              f"{'yes' if same else 'no'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
