import time

import numpy as np
import pytest

from lioncomm import quant
from lioncomm.collectives import run_ranks
from lioncomm.errors import (CapacityError, CollectiveError, ConfigError,
                             LionCommError)
from lioncomm.optimizer import (LionHyper, SyncPolicy, WorkerState,
                                distributed_lion_step, hash_params, lion_step,
                                maybe_sync_momentum, momentum_divergence)
from lioncomm.quant import BLOCK, QuantSpec
from lioncomm.transport import InprocTransport, SocketTransport
from test_frames import free_base_port


def run_vote(world, fn):
    return run_ranks(world, fn, transport=InprocTransport(world))


def divergence_from_momenta(momenta):
    """Single-process oracle for ``momentum_divergence``: per layer, the max
    over elements of the population std across workers."""
    out = {}
    for name in sorted(momenta[0]):
        std = np.stack([m[name] for m in momenta]).std(axis=0, ddof=0)
        out[name] = float(std.max()) if std.size else 0.0
    return out


def fresh_state(params):
    return WorkerState.initial({k: np.asarray(v, dtype=np.float64)
                                for k, v in params.items()})


def test_initial_state_copies_the_callers_arrays():
    w = np.array([1.0, 2.0])
    s = WorkerState.initial({"w": w})
    w[0] = 9.0
    assert s.params["w"].tolist() == [1.0, 2.0]
    assert s.momentum["w"].tolist() == [0.0, 0.0]


class TestLionStep:
    def test_hand_computed_step(self):
        s = fresh_state({"w": [0.0]})
        h = LionHyper(beta1=0.9, beta2=0.99, lr=0.1, weight_decay=0.0)
        s2 = lion_step(s, {"w": np.array([2.0])}, h)
        assert s2.params["w"].tolist() == [-0.1]
        assert s2.momentum["w"] == pytest.approx([0.02])
        assert s2.iteration == 1

    def test_zero_gradient_fixed_point(self):
        s = fresh_state({"w": [1.0, -2.0]})
        h = LionHyper(beta1=0.9, beta2=0.99, lr=0.1, weight_decay=0.0)
        s2 = lion_step(s, {"w": np.zeros(2)}, h)
        assert np.array_equal(s2.params["w"], s.params["w"])

    def test_decoupled_decay(self):
        s = fresh_state({"w": [1.0]})
        h = LionHyper(beta1=0.9, beta2=0.99, lr=0.1, weight_decay=0.1)
        s2 = lion_step(s, {"w": np.zeros(1)}, h)
        assert s2.params["w"] == pytest.approx([0.99])

    def test_sign_descent_limit_when_betas_equal(self):
        # with beta1 == beta2 the update direction equals
        # sign-descent-with-momentum under the shared m recursion
        rng = np.random.default_rng(0)
        h = LionHyper(beta1=0.95, beta2=0.95, lr=0.01, weight_decay=0.0)
        s = fresh_state({"w": rng.normal(size=50)})
        for t in range(20):
            g = rng.normal(size=50)
            c = h.beta1 * s.momentum["w"] + (1 - h.beta1) * g
            s = lion_step(s, {"w": g}, h)
            # with equal betas, c equals the updated momentum: Lion's step
            # direction is exactly sign-descent-with-momentum's
            assert np.array_equal(np.sign(c), np.sign(s.momentum["w"]))

    @pytest.mark.parametrize("lr", [0.0, -0.1, float("nan")])
    def test_non_positive_lr_rejected_at_construction(self, lr):
        with pytest.raises(ConfigError):
            LionHyper(lr=lr)

    def test_shape_mismatch_rejected(self):
        s = fresh_state({"w": [0.0, 0.0]})
        h = LionHyper(beta1=0.9, beta2=0.99, lr=0.1, weight_decay=0.0)
        with pytest.raises(ConfigError):
            lion_step(s, {"w": np.zeros(3)}, h)


class TestDistributedLionStep:
    def test_p1_identity_reduces_to_lion(self):
        rng = np.random.default_rng(1)
        h = LionHyper(beta1=0.9, beta2=0.99, lr=0.01, weight_decay=0.01)
        grads = [{"w": rng.normal(size=40)} for _ in range(10)]
        ref = fresh_state({"w": np.zeros(40)})
        for g in grads:
            ref = lion_step(ref, g, h)

        def fn(topo):
            s = fresh_state({"w": np.zeros(40)})
            for g in grads:
                s = distributed_lion_step(s, g, h, spec=None, topo=topo,
                                          algo="ps", zero_mode="exact-ternary")
            return s

        got = run_vote(1, fn)[0]
        assert np.array_equal(got.params["w"], ref.params["w"])
        assert np.array_equal(got.momentum["w"], ref.momentum["w"])

    def test_identical_grads_p2_match_single_worker(self):
        rng = np.random.default_rng(2)
        h = LionHyper(beta1=0.9, beta2=0.99, lr=0.01, weight_decay=0.0)
        grads = [{"w": rng.normal(size=30)} for _ in range(8)]
        ref = fresh_state({"w": np.zeros(30)})
        for g in grads:
            ref = lion_step(ref, g, h)

        def fn(topo):
            s = fresh_state({"w": np.zeros(30)})
            for g in grads:
                s = distributed_lion_step(s, g, h, spec=None, topo=topo,
                                          algo="ps", zero_mode="exact-ternary")
            return s

        for got in run_vote(2, fn):
            assert np.array_equal(got.params["w"], ref.params["w"])

    def test_identical_grads_with_every_step_sync(self):
        # momentum sync travels as float32, so the single-worker reference
        # applies the same rounding after each step
        rng = np.random.default_rng(3)
        h = LionHyper(beta1=0.9, beta2=0.99, lr=0.01, weight_decay=0.0)
        grads = [{"w": rng.normal(size=25)} for _ in range(6)]
        policy = SyncPolicy(period=1, layers="all")
        ref = fresh_state({"w": np.zeros(25)})
        for g in grads:
            ref = lion_step(ref, g, h)
            ref = WorkerState(
                params=ref.params,
                momentum={k: v.astype(np.float32).astype(np.float64)
                          for k, v in ref.momentum.items()},
                iteration=ref.iteration)

        def fn(topo):
            s = fresh_state({"w": np.zeros(25)})
            for g in grads:
                s = distributed_lion_step(s, g, h, spec=None, topo=topo,
                                          algo="ps", zero_mode="exact-ternary")
                s = maybe_sync_momentum(s, policy, topo)
            return s

        for got in run_vote(2, fn):
            assert np.array_equal(got.params["w"], ref.params["w"])
            assert np.array_equal(got.momentum["w"], ref.momentum["w"])

    def test_opposite_signs_tie_resolved_by_parity(self):
        h = LionHyper(beta1=0.9, beta2=0.99, lr=0.5, weight_decay=0.0)
        grads = [{"w": np.array([1.0])}, {"w": np.array([-1.0])}]
        spec = QuantSpec(bits=1, norm_p=1)

        def fn(topo):
            s = fresh_state({"w": np.zeros(1)})
            s = distributed_lion_step(s, grads[topo.rank], h, spec=spec,
                                      topo=topo, algo="compressed1bit")
            first = s.params["w"].copy()
            s = distributed_lion_step(s, grads[topo.rank], h, spec=spec,
                                      topo=topo, algo="compressed1bit")
            return first, s.params["w"]

        for first, second in run_vote(2, fn):
            assert first.tolist() == [-0.5]   # t=1 odd: tie -> +1, theta -= lr
            assert second.tolist() == [0.0]   # t=2 even: tie -> -1, cancels

    def test_quantized_sign_match_rate(self):
        # 8 workers, Laplace grads, 8-bit p=1: majority sign matches the
        # unquantized oracle on at least 90% of coordinates
        rng = np.random.default_rng(4)
        n, world = 512, 8
        grads = [{"w": rng.laplace(size=n)} for _ in range(world)]
        oracle = np.sign(np.sum([g["w"] for g in grads], axis=0))
        h = LionHyper(beta1=0.9, beta2=0.99, lr=0.01, weight_decay=0.0)
        spec = QuantSpec(bits=8, norm_p=1)

        def fn(topo):
            s = fresh_state({"w": np.zeros(n)})
            metrics = {}
            distributed_lion_step(s, grads[topo.rank], h, spec=spec,
                                  topo=topo, algo="direct",
                                  metrics_out=metrics)
            return metrics["vote_sign"]["w"]

        sign = run_vote(world, fn)[0]
        match = np.mean(sign[oracle != 0] == oracle[oracle != 0])
        assert match >= 0.9

    def test_direct_requires_quant_spec(self):
        h = LionHyper(beta1=0.9, beta2=0.99, lr=0.01, weight_decay=0.0)

        def fn(topo):
            return distributed_lion_step(fresh_state({"w": np.zeros(2)}),
                                         {"w": np.ones(2)}, h, spec=None,
                                         topo=topo, algo="direct")

        with pytest.raises(ConfigError):
            run_vote(2, fn)

    def test_non_finite_gradient_fails_every_rank(self):
        # The rank with the NaN raises before it sends anything; its peers
        # time out waiting for it rather than vote without it.
        h = LionHyper(beta1=0.9, beta2=0.99, lr=0.01, weight_decay=0.0)
        grads = [np.ones(5), np.array([1.0, np.nan, 1, 1, 1]), -np.ones(5)]
        sent = [0, 0, 0]

        class Counting(InprocTransport):
            def send(self, src, dst, generation, tag, payload):
                sent[src] += 1
                super().send(src, dst, generation, tag, payload)

        def fn(topo):
            try:
                distributed_lion_step(
                    fresh_state({"w": np.zeros(5)}), {"w": grads[topo.rank]},
                    h, spec=QuantSpec(bits=8, norm_p=1), topo=topo,
                    algo="direct")
            except LionCommError as exc:
                return exc
            return None

        t0 = time.monotonic()
        errors = run_ranks(3, fn, transport=Counting(3), timeout=0.5)
        assert time.monotonic() - t0 < 5
        assert isinstance(errors[1], ConfigError)
        assert "1 non-finite" in str(errors[1])
        assert sent[1] == 0
        assert all(isinstance(errors[r], CollectiveError) for r in (0, 2))

    def test_capacity_error_propagates(self):
        h = LionHyper(beta1=0.9, beta2=0.99, lr=0.01, weight_decay=0.0)
        spec = QuantSpec(bits=8, norm_p=1)
        from lioncomm.collectives import Topology
        topo = Topology(world_size=10 ** 8, rank=0,
                        transport=InprocTransport(1))
        with pytest.raises(CapacityError):
            distributed_lion_step(fresh_state({"w": np.zeros(2)}),
                                  {"w": np.ones(2)}, h, spec=spec,
                                  topo=topo, algo="direct")


# Layer sizes on each side of the block edges, and two mixed layers.
BLOCK_SHAPES = [{"w": 1}, {"w": BLOCK - 1}, {"w": BLOCK}, {"w": BLOCK + 1},
                {"w": 3 * BLOCK + 5}, {"a": BLOCK + 1, "b": 3}]


class TestBlockedStep:
    """The blocked Lion arithmetic against the whole-array formulas.

    Two ranks vote full-precision c through ``ps``, so the vote is
    sign(c_0 + c_1) exactly and the oracle covers the whole step."""

    @pytest.mark.parametrize("weight_decay", [0.0, 0.1])
    @pytest.mark.parametrize("gdtype", [np.float32, np.float64])
    @pytest.mark.parametrize("sizes", BLOCK_SHAPES,
                             ids=lambda d: "+".join(map(str, d.values())))
    def test_step_matches_whole_array_formulas(self, sizes, gdtype,
                                               weight_decay):
        h = LionHyper(beta1=0.9, beta2=0.99, lr=3e-4,
                      weight_decay=weight_decay)
        rng = np.random.default_rng(len(sizes) * 7 + sum(sizes.values()))
        states = [WorkerState({k: rng.normal(size=n) for k, n in sizes.items()},
                              {k: rng.laplace(size=n) for k, n in sizes.items()},
                              iteration=4)
                  for _ in range(2)]
        grads = [{k: rng.laplace(size=n).astype(gdtype)
                  for k, n in sizes.items()} for _ in range(2)]
        before = [(hash_params(s.params), hash_params(s.momentum))
                  for s in states]
        new = run_vote(2, lambda topo: distributed_lion_step(
            states[topo.rank], grads[topo.rank], h, spec=None, topo=topo,
            algo="ps"))
        assert [(hash_params(s.params), hash_params(s.momentum))
                for s in states] == before       # inputs left untouched
        for name in sizes:
            cs = []
            for s, g in zip(states, grads):
                c = np.multiply(h.beta1, s.momentum[name])
                c += (1.0 - h.beta1) * g[name]
                cs.append(c)
            total = cs[0] + cs[1]
            # "alternating" fills ties with +1 at the odd iteration 5.
            sign = np.where(total == 0, 1, np.sign(total))
            for s, g, out in zip(states, grads, new):
                theta, m = s.params[name], s.momentum[name]
                step = np.multiply(h.weight_decay, theta)
                step += sign
                step *= h.lr
                mom = np.multiply(h.beta2, m)
                mom += (1.0 - h.beta2) * g[name]
                assert out.params[name].tobytes() == (theta - step).tobytes()
                assert out.momentum[name].tobytes() == mom.tobytes()
                assert out.params[name].dtype == np.float64


POOL_N = 2 * BLOCK + 3
POOL_STEPS = 14           # a kept object outlives 10 or more steps


def arrays_of(obj):
    """The arrays a kept object reaches: a state's, a dict's values, or
    the array itself."""
    if isinstance(obj, WorkerState):
        return arrays_of(obj.params) + arrays_of(obj.momentum)
    if isinstance(obj, dict):
        return [a for v in obj.values() for a in arrays_of(v)]
    return [obj]


def pooled_run(keep, sizes=None, world=2, sync=None, steps=POOL_STEPS):
    """Each rank takes ``steps`` sign-vote ``direct`` steps, dropping every
    state it does not keep.  ``keep(t, state, out)`` names objects to hold
    after step t; each must read the bytes it had then after the last step."""
    sizes = sizes or {"w": POOL_N}
    h = LionHyper(beta1=0.9, beta2=0.99, lr=3e-4)

    def rank(topo):
        rng = np.random.default_rng(topo.rank)
        state = WorkerState({k: rng.normal(size=n) for k, n in sizes.items()},
                            {k: rng.laplace(size=n) for k, n in sizes.items()})
        kept = []
        for t in range(1, steps + 1):
            grad = {k: rng.laplace(size=n) for k, n in sizes.items()}
            out = {}
            state = distributed_lion_step(state, grad, h, QuantSpec(bits=1),
                                          topo, "direct", metrics_out=out)
            if sync is not None:
                state = maybe_sync_momentum(state, sync, topo)
            kept += [(obj, [a.tobytes() for a in arrays_of(obj)])
                     for obj in keep(t, state, out)]
        return kept

    for kept in run_vote(world, rank):
        assert kept
        for obj, snapshot in kept:
            assert [a.tobytes() for a in arrays_of(obj)] == snapshot


class TestArrayPool:
    """Steps reuse the full-length arrays of ``quant.pooled``; none that a
    caller still holds, however, may change under it."""

    def test_a_kept_earlier_state_is_never_written(self):
        pooled_run(lambda t, state, out: [state] if t in (1, 5) else [])

    def test_a_slice_view_of_the_parameters_is_never_written(self):
        pooled_run(lambda t, state, out:
                   [state.params["w"][5:BLOCK + 9]] if t in (1, 5) else [])

    def test_kept_metrics_are_never_written(self):
        pooled_run(lambda t, state, out:
                   [out["c_local"], out["vote_sign"]] if t in (1, 5) else [])

    def test_synced_momentum_views_are_never_written(self):
        def keep(t, state, out):
            if t % 3:
                return []
            assert state.momentum["a"].base is not None  # a _split view
            return [state.momentum["a"], state.momentum["b"][1:]]

        pooled_run(keep, sizes={"a": POOL_N, "b": POOL_N + 1},
                   sync=SyncPolicy(period=3, layers="all"))

    def test_restarts_from_one_state_never_write_it(self):
        # The benchmark runs blocks of steps from one initial state.
        h = LionHyper(beta1=0.9, beta2=0.99, lr=3e-4)
        rng = np.random.default_rng(3)
        inits = [WorkerState({"w": rng.normal(size=POOL_N)},
                             {"w": rng.laplace(size=POOL_N)})
                 for _ in range(2)]
        grads = [{"w": rng.laplace(size=POOL_N)} for _ in range(2)]
        before = [hash_params({**s.params, "m": s.momentum["w"]})
                  for s in inits]

        def rank(topo):
            ends = set()
            for _ in range(6):
                state = inits[topo.rank]
                for _ in range(2):
                    state = distributed_lion_step(
                        state, grads[topo.rank], h, QuantSpec(bits=1), topo,
                        "direct")
                ends.add(hash_params({**state.params,
                                      "m": state.momentum["w"]}))
            return ends

        assert [len(e) for e in run_vote(2, rank)] == [1, 1]
        assert [hash_params({**s.params, "m": s.momentum["w"]})
                for s in inits] == before

    def test_a_steady_loop_gets_its_buffers_back(self):
        n = POOL_N + 7          # a key of this test's own
        h = LionHyper(beta1=0.9, beta2=0.99, lr=3e-4)

        def rank(topo):
            rng = np.random.default_rng(0)
            state = WorkerState.initial({"w": rng.normal(size=n)})
            grad = {"w": rng.laplace(size=n)}
            seen = []
            for _ in range(POOL_STEPS):
                state = distributed_lion_step(state, grad, h, QuantSpec(bits=1),
                                              topo, "direct")
                seen.append({state.params["w"].ctypes.data,
                             state.momentum["w"].ctypes.data})
            return seen

        (seen,) = run_vote(1, rank)
        pool = quant._POOL[((n,), np.dtype(np.float64))][1:]
        # The old state, c and the new state: five arrays, made in the
        # first two steps and then handed round.
        assert len(pool) == 5
        assert set().union(*seen) < {a.ctypes.data for a in pool}
        assert seen[2:] == seen[:-2] and seen[2] != seen[3]

    @pytest.mark.parametrize("sizes", [{"w": BLOCK}, {"a": BLOCK, "b": 577}])
    def test_layers_of_at_most_a_block_never_enter_the_pool(self, sizes):
        pooled_run(lambda t, state, out: [state] if t == 1 else [],
                   sizes=sizes, steps=3)
        assert all(np.prod(key[0]) > BLOCK for key in quant._POOL)

    def test_four_threaded_ranks_match_the_whole_array_formulas(self):
        # ``ps`` of full-precision c: the vote is sign(c_0 + ... + c_3).
        world, h = 4, LionHyper(beta1=0.9, beta2=0.99, lr=3e-4,
                                weight_decay=0.1)
        rng = np.random.default_rng(11)
        inits = [WorkerState({"w": rng.normal(size=POOL_N)},
                             {"w": rng.laplace(size=POOL_N)})
                 for _ in range(world)]
        grads = [[{"w": rng.laplace(size=POOL_N)} for _ in range(world)]
                 for _ in range(POOL_STEPS)]

        def rank(topo):
            state, digests = inits[topo.rank], []
            for step_grads in grads:
                state = distributed_lion_step(state, step_grads[topo.rank], h,
                                              spec=None, topo=topo, algo="ps")
                digests.append((hash_params(state.params),
                                hash_params(state.momentum)))
            return digests

        got = run_vote(world, rank)
        thetas = [s.params["w"] for s in inits]
        moms = [s.momentum["w"] for s in inits]
        for t, step_grads in enumerate(grads, start=1):
            gs = [g["w"] for g in step_grads]
            cs = []
            for m, g in zip(moms, gs):
                c = np.multiply(h.beta1, m)
                c += (1.0 - h.beta1) * g
                cs.append(c)
            total = sum(cs[1:], cs[0])
            sign = np.where(total == 0, 1 if t % 2 else -1, np.sign(total))
            new_thetas = []
            for theta in thetas:
                step = np.multiply(h.weight_decay, theta)
                step += sign
                step *= h.lr
                new_thetas.append(theta - step)
            new_moms = []
            for m, g in zip(moms, gs):
                mom = np.multiply(h.beta2, m)
                mom += (1.0 - h.beta2) * g
                new_moms.append(mom)
            thetas, moms = new_thetas, new_moms
            for r in range(world):
                assert got[r][t - 1] == (hash_params({"w": thetas[r]}),
                                         hash_params({"w": moms[r]}))


class TestMomentumSync:
    def test_period_zero_is_identity(self):
        policy = SyncPolicy(period=0, layers="none")
        assert not policy.fires(10)

    def test_mean_two_ranks(self):
        policy = SyncPolicy(period=10, layers="all")
        moms = [np.array([1.0]), np.array([3.0])]

        def fn(topo):
            s = WorkerState(params={"w": np.zeros(1)},
                            momentum={"w": moms[topo.rank]}, iteration=10)
            return maybe_sync_momentum(s, policy, topo).momentum["w"]

        for r in run_vote(2, fn):
            assert r.tolist() == [2.0]

    def test_layer_selector(self):
        policy = SyncPolicy(period=10, layers=frozenset({"head"}))
        assert policy.selects("head") and not policy.selects("input")

        def fn(topo):
            m = {"head": np.array([float(topo.rank)]),
                 "input": np.array([float(topo.rank)])}
            s = WorkerState(params={k: np.zeros(1) for k in m},
                            momentum=m, iteration=10)
            return maybe_sync_momentum(s, policy, topo).momentum

        for r in run_vote(2, fn):
            assert r["head"].tolist() == [0.5]          # synced
            assert r["input"].tolist() in ([0.0], [1.0])  # untouched

    def test_non_firing_iteration_untouched(self):
        policy = SyncPolicy(period=10, layers="all")

        def fn(topo):
            s = WorkerState(params={"w": np.zeros(1)},
                            momentum={"w": np.array([float(topo.rank)])},
                            iteration=7)
            return maybe_sync_momentum(s, policy, topo).momentum["w"]

        results = run_vote(2, fn)
        assert [r.tolist() for r in results] == [[0.0], [1.0]]


class TestDivergence:
    def test_identical_momenta_zero(self):
        moms = [{"w": np.ones(4)}, {"w": np.ones(4)}]
        assert divergence_from_momenta(moms)["w"] == 0.0

    def test_population_std_convention(self):
        moms = [{"w": np.array([1.0])}, {"w": np.array([3.0])}]
        assert divergence_from_momenta(moms)["w"] == pytest.approx(1.0)

    def test_max_over_elements(self):
        moms = [{"w": np.array([0.0, 10.0])}, {"w": np.array([0.0, 0.0])}]
        assert divergence_from_momenta(moms)["w"] == pytest.approx(5.0)

    def test_collective_matches_local(self):
        rng = np.random.default_rng(6)
        moms = [{"w": rng.normal(size=16)} for _ in range(3)]
        expect = divergence_from_momenta(moms)

        def fn(topo):
            s = WorkerState(params={"w": np.zeros(16)},
                            momentum=moms[topo.rank], iteration=0)
            return momentum_divergence(s, topo)

        for r in run_vote(3, fn):
            assert r["w"] == pytest.approx(expect["w"])


# Layer sizes for the sharded divergence, whose shards are ceil(N/P) wide.
DIVERGENCE_LAYERS = {
    # N = 13, which no P tested divides.
    "indivisible": {"a": 7, "b": 6},
    # N = 3 < P at P = 5 and 8: some shards hold no element of any layer.
    "more_ranks_than_elements": {"a": 1, "b": 2},
    # Layer boundaries inside shards, and a layer narrower than a shard.
    "boundary_in_shard": {"a": 11, "b": 2, "c": 17},
    "zero_size_layer": {"a": 4, "empty": 0, "z": 5},
    "toy_mlp": {"input": 544, "head": 33},
}


def divergence_momenta(world, sizes, nan=False):
    """Per-rank momenta of ``sizes``, each rank on its own scale; with
    ``nan``, element 1 of the first non-empty layer is NaN at every rank."""
    rng = np.random.default_rng([world, sum(sizes.values())])
    moms = [{k: rng.laplace(size=n) * rng.uniform(0.1, 10.0)
             for k, n in sizes.items()} for _ in range(world)]
    if nan:
        name = next(k for k, n in sizes.items() if n > 1)
        for m in moms:
            m[name][1] = np.nan
    return moms


def same_bits(got: dict, expect: dict) -> bool:
    return got.keys() == expect.keys() and all(
        np.float64(got[k]).tobytes() == np.float64(expect[k]).tobytes()
        for k in expect)


class TestShardedDivergence:
    """``momentum_divergence`` takes each rank's shard of the fused momenta
    and allgathers per-layer maxima; every rank must still return the
    oracle's floats, bit for bit."""

    @pytest.mark.parametrize("nan", [False, True], ids=["finite", "nan"])
    @pytest.mark.parametrize("layers", sorted(DIVERGENCE_LAYERS))
    @pytest.mark.parametrize("world", [1, 2, 3, 5, 8])
    def test_matches_oracle_in_process(self, world, layers, nan):
        moms = divergence_momenta(world, DIVERGENCE_LAYERS[layers], nan)
        expect = divergence_from_momenta(moms)
        if nan:
            assert any(np.isnan(v) for v in expect.values())

        def fn(topo):
            return momentum_divergence(WorkerState({}, moms[topo.rank]), topo)

        for got in run_vote(world, fn):
            assert same_bits(got, expect)

    @pytest.mark.parametrize("layers", ["indivisible", "zero_size_layer",
                                        "more_ranks_than_elements"])
    @pytest.mark.parametrize("world", [2, 3])
    def test_matches_oracle_over_sockets(self, world, layers):
        moms = divergence_momenta(world, DIVERGENCE_LAYERS[layers], nan=True)
        expect = divergence_from_momenta(moms)
        port = free_base_port(world)
        got = run_ranks(
            world, lambda topo: momentum_divergence(
                WorkerState({}, moms[topo.rank]), topo),
            transport_factory=lambda r: SocketTransport(
                world, r, host="127.0.0.1", base_port=port))
        assert all(same_bits(g, expect) for g in got)


class TestHashParams:
    def test_hash_params_stable_and_sensitive(self):
        p = {"a": np.ones(3), "b": np.zeros(2)}
        assert hash_params(p) == hash_params(dict(reversed(list(p.items()))))
        q = {"a": np.ones(3), "b": np.array([0.0, 1e-9])}
        assert hash_params(p) != hash_params(q)
