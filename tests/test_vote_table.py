"""``optimizer.VOTE_ALGOS`` is the vote dispatch table."""

import numpy as np
import pytest

from lioncomm import collectives
from lioncomm.collectives import run_ranks
from lioncomm.errors import ConfigError
from lioncomm.optimizer import (VOTE_ALGOS, LionHyper, WorkerState,
                                distributed_lion_step)
from lioncomm.quant import INF, QuantSpec

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
