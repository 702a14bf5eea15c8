"""Fused vote buckets: one collective per step must equal one per layer.

The oracles below are the per-layer loops the optimizer ran before its
phases were bucketed: quantize, aggregate and apply one layer at a time.
Every comparison is exact, because each collective is elementwise.
"""

import numpy as np
import pytest

from lioncomm.collectives import (allgather_f64, allreduce_mean_f32,
                                  compressed_allreduce_1bit, direct_allreduce,
                                  majority_sign, ps_gather_broadcast,
                                  run_ranks)
from lioncomm.optimizer import (LionHyper, SyncPolicy, WorkerState,
                                distributed_lion_step, maybe_sync_momentum,
                                momentum_divergence)
from lioncomm.quant import INF, QuantSpec, SignPolicy, apply_sign, quantize
from lioncomm.transport import InprocTransport

ALGOS = ("ps", "ps_efficient", "direct", "compressed1bit")
SPECS = {
    "sign": QuantSpec(bits=1),
    "lp8": QuantSpec(bits=8, norm_p=1.0),
    "lp8-inf-stochastic": QuantSpec(bits=8, norm_p=INF, rounding="stochastic"),
    "full": None,
}
SIZES = {"a": 1, "b": 7, "c": 130}
H = LionHyper(beta1=0.9, beta2=0.99, lr=0.01, weight_decay=0.1)


def algo_specs(spec_names):
    """Every algorithm x spec pair that can vote (direct needs integers)."""
    return [(a, s) for a in ALGOS for s in spec_names
            if not (a == "direct" and SPECS[s] is None)]


def per_layer_vote(c, spec, topo, algo, policy, rng):
    if algo == "compressed1bit":
        vote = compressed_allreduce_1bit(c, topo, policy)
        return vote.values, vote
    if spec is None:
        q = c
    elif spec.bits == 1:
        q = apply_sign(c, policy)
    else:
        q = quantize(c, spec, rng=rng)
    q_max = None if spec is None else 1 if spec.bits == 1 else spec.qmax
    if algo in ("ps", "ps_efficient"):
        vote = ps_gather_broadcast(q, topo, q_max,
                                   efficient=algo == "ps_efficient")
    else:
        vote = direct_allreduce(q, topo, q_max=q_max)
    return majority_sign(vote, policy), vote


def per_layer_lion_step(state, grad, h, spec, topo, algo, rng):
    t = state.iteration + 1
    eta = h.lr
    policy = SignPolicy(mode="alternating", iteration=t)
    params, mom, signs, ties = {}, {}, {}, 0
    for name in sorted(state.params):
        theta, m, g = state.params[name], state.momentum[name], grad[name]
        c = h.beta1 * m + (1.0 - h.beta1) * g
        sign, vote = per_layer_vote(c, spec, topo, algo, policy, rng)
        params[name] = theta - eta * (sign + h.weight_decay * theta)
        mom[name] = h.beta2 * m + (1.0 - h.beta2) * g
        signs[name] = sign
        ties += vote.ties
    return WorkerState(params=params, momentum=mom, iteration=t), signs, ties


def layered_inputs(world, seed, sizes=SIZES):
    rng = np.random.default_rng(seed)
    # Few distinct levels, so exact zeros and tied votes occur.
    grads = [[{n: rng.integers(-2, 3, size=k) * 0.5 for n, k in sizes.items()}
              for _ in range(world)] for _ in range(2)]
    start = WorkerState(
        params={n: rng.normal(size=k) for n, k in sizes.items()},
        momentum={n: rng.integers(-1, 2, size=k) * 0.25
                  for n, k in sizes.items()})
    # Zero gradients and momentum on some coordinates, so c is exactly 0
    # there at both steps.
    zeroed = {"b": np.arange(7) % 3 == 0, "c": rng.random(130) >= 0.7}
    for name, where in zeroed.items():
        if name in sizes:
            start.momentum[name][where] = 0.0
            for step in grads:
                for g in step:
                    g[name][where] = 0.0
    return grads, start


@pytest.mark.parametrize("world", [1, 2, 3, 4])
@pytest.mark.parametrize("algo,spec_name", algo_specs(SPECS))
def test_bucketed_step_matches_per_layer_loop(algo, spec_name, world):
    spec = SPECS[spec_name]
    grads, start = layered_inputs(world, seed=world * 31 + len(spec_name))

    def fn(topo):
        out = []
        fused = oracle = start
        for t in range(2):  # odd then even iteration: both zero fills
            g = grads[t][topo.rank]
            seed = [world, topo.rank, t]
            info = {}
            fused = distributed_lion_step(
                fused, g, H, spec, topo, algo,
                rng=np.random.default_rng(seed), metrics_out=info)
            oracle, signs, ties = per_layer_lion_step(
                oracle, g, H, spec, topo, algo, np.random.default_rng(seed))
            out.append((fused, info, oracle, signs, ties))
        return out

    for rank_out in run_ranks(world, fn, transport=InprocTransport(world)):
        for fused, info, oracle, signs, ties in rank_out:
            assert fused.iteration == oracle.iteration
            for name in SIZES:
                assert np.array_equal(fused.params[name], oracle.params[name])
                assert np.array_equal(fused.momentum[name],
                                      oracle.momentum[name])
                assert np.array_equal(info["vote_sign"][name], signs[name])
            assert info["ties"] == ties


def test_bucketed_step_has_ties_to_compare():
    # The inputs above must actually produce ties, or the tie check is idle.
    grads, start = layered_inputs(4, seed=4 * 31 + 4)

    def fn(topo):
        info = {}
        distributed_lion_step(start, grads[0][topo.rank], H, SPECS["sign"],
                              topo, "ps", metrics_out=info)
        return info["ties"]

    assert all(t > 0 for t in run_ranks(4, fn))


class CountingTransport(InprocTransport):
    def __init__(self, world_size):
        super().__init__(world_size)
        self.sent = [0] * world_size

    def send(self, src, dst, generation, tag, payload):
        self.sent[src] += 1
        super().send(src, dst, generation, tag, payload)


@pytest.mark.parametrize("algo,spec_name", algo_specs(["sign", "lp8", "full"]))
def test_messages_per_step_do_not_depend_on_layer_count(algo, spec_name):
    spec = SPECS[spec_name]
    world = 4

    def messages(sizes):
        grads, start = layered_inputs(world, seed=5, sizes=sizes)
        transport = CountingTransport(world)

        def fn(topo):
            distributed_lion_step(start, grads[0][topo.rank], H, spec, topo,
                                  algo, rng=np.random.default_rng(topo.rank))

        run_ranks(world, fn, transport=transport)
        return transport.sent

    one = messages({"w": 138})
    assert messages(SIZES) == one
    assert messages({f"l{i}": 3 for i in range(12)}) == one


def momentum_states(world, seed):
    rng = np.random.default_rng(seed)
    return [WorkerState(params={n: np.zeros(k) for n, k in SIZES.items()},
                        momentum={n: rng.normal(size=k) for n, k in SIZES.items()},
                        iteration=6)
            for _ in range(world)]


@pytest.mark.parametrize("layers", ["all", frozenset({"a", "c"}),
                                    frozenset({"b"}), "none"])
@pytest.mark.parametrize("world", [1, 2, 3, 4])
def test_sync_momentum_matches_per_layer(world, layers):
    states = momentum_states(world, seed=world)
    policy = SyncPolicy(period=3, layers=layers)

    def fn(topo):
        state = states[topo.rank]
        fused = maybe_sync_momentum(state, policy, topo)
        expect = dict(state.momentum)
        for name in sorted(state.momentum):
            if policy.selects(name):
                expect[name] = allreduce_mean_f32(
                    state.momentum[name], topo).astype(np.float64)
        return fused, expect

    for fused, expect in run_ranks(world, fn):
        for name in SIZES:
            assert np.array_equal(fused.momentum[name], expect[name])
            assert fused.momentum[name].dtype == np.float64


@pytest.mark.parametrize("world", [1, 2, 3, 4])
def test_momentum_divergence_matches_per_layer(world):
    states = momentum_states(world, seed=10 + world)

    def fn(topo):
        state = states[topo.rank]
        fused = momentum_divergence(state, topo)
        expect = {}
        for name in sorted(state.momentum):
            stacked = np.stack(allgather_f64(state.momentum[name], topo))
            expect[name] = float(stacked.std(axis=0, ddof=0).max())
        return fused, expect

    for fused, expect in run_ranks(world, fn):
        assert fused == expect

