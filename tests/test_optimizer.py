import numpy as np
import pytest

from lioncomm.collectives import run_ranks
from lioncomm.errors import CapacityError, ConfigError
from lioncomm.optimizer import (LionHyper, SyncPolicy, WorkerState,
                                distributed_lion_step, hash_params, lion_step,
                                maybe_sync_momentum, momentum_divergence)
from lioncomm.quant import QuantSpec
from lioncomm.transport import InprocTransport


def run_vote(world, fn):
    return run_ranks(world, fn, transport=InprocTransport(world))


def divergence_from_momenta(momenta):
    """Single-process oracle for ``momentum_divergence``: per layer, the max
    over elements of the population std across workers."""
    out = {}
    for name in sorted(momenta[0]):
        stacked = np.stack([m[name] for m in momenta])
        out[name] = float(stacked.std(axis=0, ddof=0).max())
    return out


def fresh_state(params):
    return WorkerState.initial({k: np.asarray(v, dtype=np.float64)
                                for k, v in params.items()})


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


class TestHashParams:
    def test_hash_params_stable_and_sensitive(self):
        p = {"a": np.ones(3), "b": np.zeros(2)}
        assert hash_params(p) == hash_params(dict(reversed(list(p.items()))))
        q = {"a": np.ones(3), "b": np.array([0.0, 1e-9])}
        assert hash_params(p) != hash_params(q)
