"""End-to-end acceptance gate.

Each test checks one headline guarantee of the package and prints a single
PASS/FAIL line (run pytest with -s to see them on success).
"""
import math
import sys

import numpy as np
import pytest

from lioncomm.collectives import (Topology, allreduce_mean_f32,
                                  compressed_allreduce_1bit, direct_allreduce,
                                  majority_sign, ps_gather_broadcast,
                                  run_ranks)
from lioncomm.costmodel import ALGOS, CostParams, cost, sweep
from lioncomm.errors import CapacityError
from lioncomm.optimizer import (LionHyper, WorkerState, distributed_lion_step,
                                lion_step)
from lioncomm.quant import QuantSpec, SignPolicy, apply_sign
from lioncomm.runner import RunConfig, run_quant_bench, run_training
from lioncomm.transport import InprocTransport
from lioncomm.workloads import (MlpModel, init_mlp, teacher_student_batch)


def report(num: int, name: str, ok: bool):
    print(f"[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'}",
          file=sys.stderr)
    assert ok, f"acceptance criterion {num} ({name}) failed"


def run_vote(world, fn):
    return run_ranks(world, fn, transport=InprocTransport(world))


def test_01_collective_oracle_equivalence():
    trials = 50
    ok = True
    for world in (2, 3, 4, 8):
        for n in (1, 7, 64, 1000):
            rng = np.random.default_rng(world * 10_000 + n)
            ints = [[rng.integers(-7, 8, size=n).astype(np.int64)
                     for _ in range(world)] for _ in range(trials)]
            reals = [[rng.normal(size=n) for _ in range(world)]
                     for _ in range(trials)]
            policy = SignPolicy("alternating", iteration=1)

            def fn(topo):
                out = []
                for k in range(trials):
                    v = ints[k][topo.rank]
                    c = reals[k][topo.rank]
                    out.append((
                        ps_gather_broadcast(v, topo, q_max=7).values,
                        ps_gather_broadcast(v, topo, q_max=7,
                                            efficient=True).values,
                        direct_allreduce(v, topo, q_max=7).values,
                        compressed_allreduce_1bit(c, topo, policy).values,
                        allreduce_mean_f32(c, topo),
                    ))
                return out

            results = run_vote(world, fn)
            for k in range(trials):
                expect_sum = np.sum(np.stack(ints[k]), axis=0)
                signs = [np.where(c >= 0, 1, -1) for c in reals[k]]
                tally = np.sum(np.stack(signs), axis=0)
                # ties resolve upward at iteration 1 (alternating policy)
                expect_vote = np.where(tally > 0, 1,
                                       np.where(tally < 0, -1, 1))
                cast = [c.astype(np.float32).astype(np.float64)
                        for c in reals[k]]
                expect_mean = np.array(
                    [math.fsum(c[i] for c in cast) / world for i in range(n)])
                ulp = np.spacing(
                    np.abs(expect_mean).astype(np.float32)).astype(float)
                for r in results:
                    ps, pse, dr, cb, mean = r[k]
                    ok &= np.array_equal(ps, expect_sum)
                    ok &= np.array_equal(pse, expect_sum)
                    ok &= np.array_equal(dr, expect_sum)
                    ok &= np.array_equal(cb, expect_vote)
                    ok &= bool(np.all(np.abs(mean - expect_mean) <= 2 * ulp))
    report(1, "collective-oracle equivalence (4 algos x 16 cells x 50 trials)",
           ok)


def test_02_cost_model_fidelity():
    cp = CostParams(alpha=0.0, beta=1e-9, workers=8, params=10 ** 6)
    expect = {"ps_naive": 0.512, "ps_efficient": 0.084,
              "direct_allreduce": 0.007, "compressed_1bit": 0.001875}
    ok = all(abs(cost(a, cp)[1] - v) <= 1e-12 * v for a, v in expect.items())
    lat = {a: cost(a, CostParams(alpha=1.0, beta=0.0, workers=8,
                                 params=10 ** 6))[2] for a in ALGOS}
    ok &= lat["direct_allreduce"] == lat["ps_efficient"]
    ok &= lat["direct_allreduce"] < min(lat["compressed_1bit"],
                                        lat["ps_naive"])
    rows = sweep([8], [10 ** 6], [0.0], [1e-9])
    ok &= [r["algo"] for r in rows if r["is_argmin"]] == ["compressed_1bit"]
    report(2, "alpha-beta cost table fidelity and regime orderings", ok)


def test_03_tie_statistics():
    n = 100_000
    ok = True
    for world, expect in ((4, 0.375), (8, 0.2734375)):
        rng = np.random.default_rng(world)
        cs = [rng.choice([-1.0, 1.0], size=n) for _ in range(world)]
        policy = SignPolicy("alternating", iteration=1)

        def fn(topo):
            return compressed_allreduce_1bit(cs[topo.rank], topo, policy)

        ties = run_vote(world, fn)[0].ties
        ok &= abs(ties / n - expect) < 0.01
    report(3, "tie fractions 0.375 (P=4) / 0.2734 (P=8) within 0.01", ok)


def test_04_zero_handling_stability():
    # a persistently tied coordinate gets -eta * fill(t); fills alternate
    # +1 (odd t), -1 (even t), so every even-length window cancels exactly
    fills = [SignPolicy("alternating", t).zero_fill() for t in range(1, 101)]
    prefix = np.concatenate([[0], np.cumsum(fills)])
    ok = all(prefix[a + w] - prefix[a] == 0
             for a in range(100) for w in range(2, 101 - a, 2))

    # exact-ternary 2-bit votes agree with alternating 1-bit votes on all
    # non-tied coordinates
    rng = np.random.default_rng(0)
    cs = [rng.choice([-1.0, 1.0], size=1000) for _ in range(2)]
    tied = cs[0] != cs[1]
    tern = SignPolicy("exact-ternary")
    alt = SignPolicy("alternating", iteration=1)

    def two_bit(topo):
        q = apply_sign(cs[topo.rank], tern)
        return majority_sign(direct_allreduce(q, topo, q_max=1), tern)

    def one_bit(topo):
        return majority_sign(
            compressed_allreduce_1bit(cs[topo.rank], topo, alt), alt)

    a = run_vote(2, two_bit)[0]
    b = run_vote(2, one_bit)[0]
    ok &= bool(np.array_equal(a[~tied], b[~tied]))
    ok &= bool(np.all(a[tied] == 0)) and bool(np.all(b[tied] == 1))
    report(4, "tied coordinates cancel over even windows; paths agree "
              "off ties", ok)


def test_05_quantizer_ordering():
    # frozen calibration: seed 0, d=1e5, 8 workers, 8-bit, Laplace base
    # with 4 planted outliers at 1e3x scale
    rows = {r["quantizer"]: r for r in run_quant_bench({"seed": 0})}
    gap = rows["q1"]["sign_match_rate"] - rows["qinf"]["sign_match_rate"]
    ok = gap >= 0.20
    ok &= rows["q1"]["flip_rate"] < rows["1bit"]["flip_rate"]
    report(5, f"L1 beats Linf match by {gap:.3f} >= 0.20 and flips less "
              "than 1-bit", ok)


def test_06_heavy_tail_toy_result():
    # frozen calibration: 500 steps, 8 clients, noise scale 1e-4, seed 0
    def final_loss(levy_alpha, norm_p):
        doc = {"train": {"steps": 500, "clients": 8},
               "quant": {"kind": "lp", "bits": 8, "norm_p": norm_p},
               "algo": "direct",
               "noise": {"levy_alpha": levy_alpha, "scale": 1e-4},
               "seed": 0, "metrics_every": 500}
        rows = run_training(RunConfig.from_dict(doc))["rows"]
        return rows[-1]["loss"]

    heavy_ratio = final_loss(0.5, "inf") / final_loss(0.5, 1.0)
    gauss_ratio = final_loss(2.0, "inf") / final_loss(2.0, 1.0)
    ok = heavy_ratio >= 1.2 and abs(gauss_ratio - 1.0) <= 0.10
    report(6, f"heavy-tail: Linf/L1 loss ratio {heavy_ratio:.2f} >= 1.2; "
              f"Gaussian ratio {gauss_ratio:.3f} within 10%", ok)


def test_07_lion_reductions():
    rng = np.random.default_rng(1)
    h = LionHyper(beta1=0.9, beta2=0.99, lr=0.01, weight_decay=0.0)
    grads = [{"w": rng.normal(size=40)} for _ in range(10)]
    ref = WorkerState.initial({"w": np.zeros(40)})
    trace = []
    for g in grads:
        ref = lion_step(ref, g, h)
        trace.append(ref.params["w"].copy())

    def dist(topo):
        s = WorkerState.initial({"w": np.zeros(40)})
        out = []
        for g in grads:
            s = distributed_lion_step(s, g, h, spec=None, topo=topo,
                                      algo="ps", zero_mode="exact-ternary")
            out.append(s.params["w"].copy())
        return out

    p1 = run_vote(1, dist)[0]
    ok = all(np.array_equal(a, b) for a, b in zip(p1, trace))
    p2 = run_vote(2, dist)
    for r in p2:
        ok &= all(np.array_equal(a, b) for a, b in zip(r, trace))

    # beta1 == beta2: step direction equals sign-descent-with-momentum
    h2 = LionHyper(beta1=0.95, beta2=0.95, lr=0.01, weight_decay=0.0)
    s = WorkerState.initial({"w": rng.normal(size=50)})
    for _ in range(20):
        g = {"w": rng.normal(size=50)}
        c = h2.beta1 * s.momentum["w"] + (1 - h2.beta1) * g["w"]
        s = lion_step(s, g, h2)
        ok &= bool(np.array_equal(np.sign(c), np.sign(s.momentum["w"])))
    report(7, "P=1 and identical-grad P=2 match single-worker Lion bitwise; "
              "beta1=beta2 is sign descent", ok)


def test_08_gradient_oracle():
    model = MlpModel()
    rng = np.random.default_rng(0)
    teacher = init_mlp(model, rng)
    student = init_mlp(model, rng)
    _, grads = teacher_student_batch(student, teacher, model, 64,
                                     np.random.default_rng(7))

    def loss_at(params):
        l, _ = teacher_student_batch(params, teacher, model, 64,
                                     np.random.default_rng(7))
        return l

    eps = 1e-6
    worst = 0.0
    idx_rng = np.random.default_rng(8)
    for name, g in grads.items():
        for i in idx_rng.choice(g.size, size=5, replace=False):
            p = {k: v.copy() for k, v in student.items()}
            p[name][i] += eps
            up = loss_at(p)
            p[name][i] -= 2 * eps
            dn = loss_at(p)
            fd = (up - dn) / (2 * eps)
            worst = max(worst, abs(fd - g[i]) / max(abs(fd), abs(g[i]), 1e-8))
    report(8, f"analytic vs central-difference gradients, max rel err "
              f"{worst:.2e} < 1e-4", worst < 1e-4)


def test_09_momentum_divergence_direction():
    # frozen calibration: Gaussian per-client noise (scale 1e-3), 300 steps
    def divergence(beta2):
        doc = {"train": {"steps": 300, "clients": 8, "beta2": beta2},
               "quant": {"kind": "sign"}, "algo": "compressed1bit",
               "noise": {"levy_alpha": 2.0, "scale": 1e-3},
               "seed": 0, "metrics_every": 300}
        row = run_training(RunConfig.from_dict(doc))["rows"][-1]
        return {k: v for k, v in row.items() if k.startswith("div_")}

    d90, d95, d99 = divergence(0.9), divergence(0.95), divergence(0.99)
    ok = all(d99[k] < d95[k] < d90[k] for k in d90)
    report(9, "momentum divergence at step 300 strictly decreasing in beta2",
           ok)


def test_10_capacity_guard():
    transport = InprocTransport(125)
    topo = Topology(world_size=125, rank=0, transport=transport)
    fired = False
    try:
        direct_allreduce(np.zeros(8, dtype=np.int64), topo, q_max=15,
                         lane_bits=8)
    except CapacityError:
        fired = True
    untouched = all(q.empty() for q in transport._queues.values())
    report(10, "125-worker 4-bit sum rejected before touching the wire",
           fired and untouched)
