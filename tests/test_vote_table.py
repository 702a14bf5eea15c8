"""``optimizer.VOTE_ALGOS`` is the vote dispatch table."""

import numpy as np
import pytest

from lioncomm import collectives
from lioncomm.collectives import LANE_DTYPES, choose_lane_bits, run_ranks
from lioncomm.errors import ConfigError
from lioncomm.optimizer import (VOTE_ALGOS, LionHyper, WorkerState,
                                distributed_lion_step)
from lioncomm.quant import INF, QuantSpec
from lioncomm.transport import InprocTransport

H = LionHyper(lr=0.01)
STOCHASTIC = QuantSpec(bits=8, norm_p=INF, rounding="stochastic")
START = WorkerState.initial({"a": np.zeros(5), "b": np.zeros(3)})
GRAD = {"a": np.linspace(-1, 1, 5), "b": np.array([0.5, -2.0, 3.0])}


def test_unknown_algorithm_is_rejected_before_any_rng_draw():
    rng = np.random.default_rng(4)

    def fn(topo):
        with pytest.raises(ConfigError, match="unknown vote algorithm"):
            distributed_lion_step(START, GRAD, H, STOCHASTIC, topo, "nope",
                                  rng=rng)

    run_ranks(1, fn)
    assert rng.random() == np.random.default_rng(4).random()


@pytest.mark.parametrize("algo,name", [
    ("ps", "ps_gather_broadcast"),
    ("ps_efficient", "ps_gather_broadcast"),
    ("direct", "direct_allreduce"),
    ("compressed1bit", "compressed_allreduce_1bit"),
])
def test_collective_is_looked_up_on_the_module_at_call_time(monkeypatch,
                                                            algo, name):
    assert algo in VOTE_ALGOS
    calls = []
    real = getattr(collectives, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(collectives, name, counted)
    spec = QuantSpec(bits=1)
    run_ranks(2, lambda topo: distributed_lion_step(START, GRAD, H, spec,
                                                    topo, algo))
    assert calls == [name, name]


@pytest.mark.parametrize("world", [2, 3, 4])
def test_direct_keeps_exact_ternary_sign_votes_like_ps(world):
    rng = np.random.default_rng(world)
    grads = [{n: rng.integers(-1, 2, size=v.size).astype(float)
              for n, v in START.params.items()} for _ in range(world)]
    for g in grads:
        g["a"][0] = 0.0  # a zero at every rank: a zero vote
    spec = QuantSpec(bits=1)

    def step(algo):
        return run_ranks(world, lambda topo: distributed_lion_step(
            START, grads[topo.rank], H, spec, topo, algo,
            zero_mode="exact-ternary"))

    direct, ps = step("direct"), step("ps")
    for d, p in zip(direct, ps):
        for name in START.params:
            assert np.array_equal(d.params[name], p.params[name])
    assert direct[0].params["a"][0] == 0.0


class FrameSizes(InprocTransport):
    def __init__(self, world_size):
        super().__init__(world_size)
        self.sizes = set()

    def send(self, src, dst, generation, tag, payload):
        self.sizes.add(len(payload))
        super().send(src, dst, generation, tag, payload)


@pytest.mark.parametrize("algo", ["ps", "ps_efficient"])
@pytest.mark.parametrize("spec,word", [
    (QuantSpec(bits=8), 2),  # 4 x 127 is summed in a 16-bit lane
    (QuantSpec(bits=1), 1),  # 4 x 1 is summed in int8 (a 4-bit lane)
    (None, 8),               # full precision: float64 words
])
def test_ps_words_are_sized_by_the_quantizer_range(algo, spec, word):
    transport = FrameSizes(4)
    run_ranks(4, lambda topo: distributed_lion_step(START, GRAD, H, spec,
                                                    topo, algo),
              transport=transport)
    if spec is None:
        assert transport.sizes == {8 * word}  # 8 parameters in one bucket
        return
    # A frame of k ranks' values rides choose_lane_bits(k, q_max): own
    # vectors (k=1), the tree's two-rank partial sum, and the total (k=4).
    q_max = 1 if spec.bits == 1 else spec.qmax
    assert np.dtype(LANE_DTYPES[choose_lane_bits(4, q_max)]).itemsize == word
    ks = {1, 2, 4} if algo == "ps_efficient" else {1, 4}
    assert transport.sizes == {-(-8 * choose_lane_bits(k, q_max) // 8)
                               for k in ks}
