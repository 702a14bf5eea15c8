"""Messages and payload bytes each rank sends, per collective.

The literals below were recorded from the collectives as they stood
before their wire encoding, exchange loops and gather-sum were shared;
they check the traffic rather than assume it.  A collective that changes
its traffic must change them, and say why.  The ``compressed1bit`` bytes
are 9 per message lower than first recorded: its sign frames dropped a
9-byte count/width/offset header and are now bare packed bits.  The P=8
cells (N up to 4099, which 8 does not divide) were recorded while
``direct_allreduce`` still ran a ring reduce-scatter and allgather, before
it moved onto the same pairwise exchange as the 1-bit vote: the two send
the same messages and bytes per rank.  The ``ps`` and ``ps_efficient``
bytes are an eighth of those first recorded: their integer frames moved
from int64 words to the lane ``choose_lane_bits`` picks, int8 for values
up to 7 at these P, with the same messages.

The integer votes (``ps``, ``ps_efficient``, ``direct``, ``direct_signs``)
keep their recorded message counts, but their bytes are no longer
literals: each frame now rides the narrowest lane for the sum it carries,
down to 2- and 4-bit fields, and ``lane_bytes`` gives the bytes each rank
sends under that rule.

The P=5, 6 and 7 cells of ``ps``, ``ps_efficient`` and
``allreduce_mean_f32`` were recorded before the flat and binomial walks
became one tree walk.  Before them, P=3 was the only world whose binomial
tree has a subtree that P cuts short.

The ``shard_exchange`` cells were added with it: each rank sends its P-1
peers one shard each, c = ceil(N/P) float64 words, so P-1 messages and
(P-1)*8*c bytes.  N=7 and N=4099 are divisible by none of the P tested.
A toy training's bytes, per rank, are its collectives' bytes: the last
test adds them up for ``runner.train_worker``.
"""

import numpy as np
import pytest

from lioncomm import runner
from lioncomm.collectives import (allgather_f64, allreduce_mean_f32,
                                  choose_lane_bits, compressed_allreduce_1bit,
                                  direct_allreduce, ps_gather_broadcast,
                                  run_ranks, shard_exchange)
from lioncomm.optimizer import VOTE_ALGOS
from lioncomm.quant import SignPolicy, apply_sign, vote_input
from lioncomm.transport import InprocTransport

POLICY = SignPolicy("alternating", iteration=1)


def ints(x):
    return np.clip(np.round(x * 3), -7, 7).astype(np.int64)


CALLS = {
    "ps": lambda x, topo: ps_gather_broadcast(ints(x), topo, q_max=7),
    "ps_efficient": lambda x, topo: ps_gather_broadcast(
        ints(x), topo, q_max=7, efficient=True),
    "direct": lambda x, topo: direct_allreduce(ints(x), topo, q_max=7),
    "direct_signs": lambda x, topo: direct_allreduce(apply_sign(x, POLICY),
                                                     topo, q_max=1),
    "compressed1bit": lambda x, topo: compressed_allreduce_1bit(x, topo, POLICY),
    "allreduce_mean_f32": allreduce_mean_f32,
    "allgather_f64": allgather_f64,
    "shard_exchange": shard_exchange,
}

# (collective, P, N): (messages sent by each rank, payload bytes sent by
# each rank), framing excluded.
TRAFFIC = {
    ('compressed1bit', 2, 1): ([2, 2], [6, 6]),
    ('compressed1bit', 2, 7): ([2, 2], [6, 6]),
    ('compressed1bit', 2, 1000): ([2, 2], [130, 130]),
    ('compressed1bit', 3, 1): ([4, 4, 4], [12, 12, 12]),
    ('compressed1bit', 3, 7): ([4, 4, 4], [12, 12, 12]),
    ('compressed1bit', 3, 1000): ([4, 4, 4], [176, 176, 176]),
    ('compressed1bit', 4, 1): ([6, 6, 6, 6], [18, 18, 18, 18]),
    ('compressed1bit', 4, 7): ([6, 6, 6, 6], [18, 18, 18, 18]),
    ('compressed1bit', 4, 1000): ([6, 6, 6, 6], [204, 204, 204, 204]),
    ('allreduce_mean_f32', 2, 1): ([1, 1], [4, 4]),
    ('allreduce_mean_f32', 2, 7): ([1, 1], [28, 28]),
    ('allreduce_mean_f32', 2, 1000): ([1, 1], [4000, 4000]),
    ('allreduce_mean_f32', 3, 1): ([2, 1, 1], [8, 4, 4]),
    ('allreduce_mean_f32', 3, 7): ([2, 1, 1], [56, 28, 28]),
    ('allreduce_mean_f32', 3, 1000): ([2, 1, 1], [8000, 4000, 4000]),
    ('allreduce_mean_f32', 4, 1): ([2, 1, 2, 1], [8, 4, 8, 4]),
    ('allreduce_mean_f32', 4, 7): ([2, 1, 2, 1], [56, 28, 56, 28]),
    ('allreduce_mean_f32', 4, 1000): ([2, 1, 2, 1], [8000, 4000, 8000, 4000]),
    ('allgather_f64', 2, 1): ([1, 1], [8, 8]),
    ('allgather_f64', 2, 7): ([1, 1], [56, 56]),
    ('allgather_f64', 2, 1000): ([1, 1], [8000, 8000]),
    ('allgather_f64', 3, 1): ([2, 2, 2], [16, 16, 16]),
    ('allgather_f64', 3, 7): ([2, 2, 2], [112, 112, 112]),
    ('allgather_f64', 3, 1000): ([2, 2, 2], [16000, 16000, 16000]),
    ('allgather_f64', 4, 1): ([3, 3, 3, 3], [24, 24, 24, 24]),
    ('allgather_f64', 4, 7): ([3, 3, 3, 3], [168, 168, 168, 168]),
    ('allgather_f64', 4, 1000): ([3, 3, 3, 3], [24000, 24000, 24000, 24000]),
    # P=8, including N=4099, which P does not divide.
    ('compressed1bit', 8, 1): ([14, 14, 14, 14, 14, 14, 14, 14], [42, 42, 42, 42, 42, 42, 42, 42]),
    ('compressed1bit', 8, 7): ([14, 14, 14, 14, 14, 14, 14, 14], [42, 42, 42, 42, 42, 42, 42, 42]),
    ('compressed1bit', 8, 1000): ([14, 14, 14, 14, 14, 14, 14, 14], [252, 252, 252, 252, 252, 252, 252, 252]),
    ('compressed1bit', 8, 4099): ([14, 14, 14, 14, 14, 14, 14, 14], [938, 938, 938, 938, 938, 938, 938, 938]),
    ('allreduce_mean_f32', 8, 1): ([3, 1, 2, 1, 3, 1, 2, 1], [12, 4, 8, 4, 12, 4, 8, 4]),
    ('allreduce_mean_f32', 8, 7): ([3, 1, 2, 1, 3, 1, 2, 1], [84, 28, 56, 28, 84, 28, 56, 28]),
    ('allreduce_mean_f32', 8, 1000): ([3, 1, 2, 1, 3, 1, 2, 1], [12000, 4000, 8000, 4000, 12000, 4000, 8000, 4000]),
    ('allreduce_mean_f32', 8, 4099): ([3, 1, 2, 1, 3, 1, 2, 1], [49188, 16396, 32792, 16396, 49188, 16396, 32792, 16396]),
    ('allgather_f64', 8, 1): ([7, 7, 7, 7, 7, 7, 7, 7], [56, 56, 56, 56, 56, 56, 56, 56]),
    ('allgather_f64', 8, 7): ([7, 7, 7, 7, 7, 7, 7, 7], [392, 392, 392, 392, 392, 392, 392, 392]),
    ('allgather_f64', 8, 1000): ([7, 7, 7, 7, 7, 7, 7, 7], [56000, 56000, 56000, 56000, 56000, 56000, 56000, 56000]),
    ('allgather_f64', 8, 4099): ([7, 7, 7, 7, 7, 7, 7, 7], [229544, 229544, 229544, 229544, 229544, 229544, 229544, 229544]),
    # P=5, 6, 7: binomial trees whose subtrees are cut short by P.
    ('allreduce_mean_f32', 5, 7): ([3, 1, 2, 1, 1], [84, 28, 56, 28, 28]),
    ('allreduce_mean_f32', 5, 1000): ([3, 1, 2, 1, 1], [12000, 4000, 8000, 4000, 4000]),
    ('allreduce_mean_f32', 6, 7): ([3, 1, 2, 1, 2, 1], [84, 28, 56, 28, 56, 28]),
    ('allreduce_mean_f32', 6, 1000): ([3, 1, 2, 1, 2, 1], [12000, 4000, 8000, 4000, 8000, 4000]),
    ('allreduce_mean_f32', 7, 7): ([3, 1, 2, 1, 3, 1, 1], [84, 28, 56, 28, 84, 28, 28]),
    ('allreduce_mean_f32', 7, 1000): ([3, 1, 2, 1, 3, 1, 1], [12000, 4000, 8000, 4000, 12000, 4000, 4000]),
    # One shard of ceil(N/P) float64 words to each peer.
    ('shard_exchange', 2, 1): ([1, 1], [8, 8]),
    ('shard_exchange', 2, 7): ([1, 1], [32, 32]),
    ('shard_exchange', 2, 1000): ([1, 1], [4000, 4000]),
    ('shard_exchange', 2, 4099): ([1, 1], [16400, 16400]),
    ('shard_exchange', 3, 1): ([2, 2, 2], [16, 16, 16]),
    ('shard_exchange', 3, 7): ([2, 2, 2], [48, 48, 48]),
    ('shard_exchange', 3, 1000): ([2, 2, 2], [5344, 5344, 5344]),
    ('shard_exchange', 3, 4099): ([2, 2, 2], [21872, 21872, 21872]),
    ('shard_exchange', 4, 1): ([3, 3, 3, 3], [24, 24, 24, 24]),
    ('shard_exchange', 4, 7): ([3, 3, 3, 3], [48, 48, 48, 48]),
    ('shard_exchange', 4, 1000): ([3, 3, 3, 3], [6000, 6000, 6000, 6000]),
    ('shard_exchange', 4, 4099): ([3, 3, 3, 3], [24600, 24600, 24600, 24600]),
    ('shard_exchange', 5, 1): ([4, 4, 4, 4, 4], [32, 32, 32, 32, 32]),
    ('shard_exchange', 5, 7): ([4, 4, 4, 4, 4], [64, 64, 64, 64, 64]),
    ('shard_exchange', 5, 1000): ([4, 4, 4, 4, 4], [6400, 6400, 6400, 6400, 6400]),
    ('shard_exchange', 5, 4099): ([4, 4, 4, 4, 4], [26240, 26240, 26240, 26240, 26240]),
    ('shard_exchange', 8, 1): ([7, 7, 7, 7, 7, 7, 7, 7], [56, 56, 56, 56, 56, 56, 56, 56]),
    ('shard_exchange', 8, 7): ([7, 7, 7, 7, 7, 7, 7, 7], [56, 56, 56, 56, 56, 56, 56, 56]),
    ('shard_exchange', 8, 1000): ([7, 7, 7, 7, 7, 7, 7, 7], [7000, 7000, 7000, 7000, 7000, 7000, 7000, 7000]),
    ('shard_exchange', 8, 4099): ([7, 7, 7, 7, 7, 7, 7, 7], [28728, 28728, 28728, 28728, 28728, 28728, 28728, 28728]),
}


# Integer votes, (collective, P, N): messages sent by each rank.
LANE_MSGS = {
    ('ps', 2, 1): [1, 1],
    ('ps', 2, 7): [1, 1],
    ('ps', 2, 1000): [1, 1],
    ('ps', 3, 1): [2, 1, 1],
    ('ps', 3, 7): [2, 1, 1],
    ('ps', 3, 1000): [2, 1, 1],
    ('ps', 4, 1): [3, 1, 1, 1],
    ('ps', 4, 7): [3, 1, 1, 1],
    ('ps', 4, 1000): [3, 1, 1, 1],
    ('ps_efficient', 2, 1): [1, 1],
    ('ps_efficient', 2, 7): [1, 1],
    ('ps_efficient', 2, 1000): [1, 1],
    ('ps_efficient', 3, 1): [2, 1, 1],
    ('ps_efficient', 3, 7): [2, 1, 1],
    ('ps_efficient', 3, 1000): [2, 1, 1],
    ('ps_efficient', 4, 1): [2, 1, 2, 1],
    ('ps_efficient', 4, 7): [2, 1, 2, 1],
    ('ps_efficient', 4, 1000): [2, 1, 2, 1],
    ('direct', 2, 1): [2, 2],
    ('direct', 2, 7): [2, 2],
    ('direct', 2, 1000): [2, 2],
    ('direct', 3, 1): [4, 4, 4],
    ('direct', 3, 7): [4, 4, 4],
    ('direct', 3, 1000): [4, 4, 4],
    ('direct', 4, 1): [6, 6, 6, 6],
    ('direct', 4, 7): [6, 6, 6, 6],
    ('direct', 4, 1000): [6, 6, 6, 6],
    ('direct_signs', 2, 1): [2, 2],
    ('direct_signs', 2, 7): [2, 2],
    ('direct_signs', 2, 1000): [2, 2],
    ('direct_signs', 3, 1): [4, 4, 4],
    ('direct_signs', 3, 7): [4, 4, 4],
    ('direct_signs', 3, 1000): [4, 4, 4],
    ('direct_signs', 4, 1): [6, 6, 6, 6],
    ('direct_signs', 4, 7): [6, 6, 6, 6],
    ('direct_signs', 4, 1000): [6, 6, 6, 6],
    ('ps', 8, 1): [7, 1, 1, 1, 1, 1, 1, 1],
    ('ps', 8, 7): [7, 1, 1, 1, 1, 1, 1, 1],
    ('ps', 8, 1000): [7, 1, 1, 1, 1, 1, 1, 1],
    ('ps', 8, 4099): [7, 1, 1, 1, 1, 1, 1, 1],
    ('ps_efficient', 8, 1): [3, 1, 2, 1, 3, 1, 2, 1],
    ('ps_efficient', 8, 7): [3, 1, 2, 1, 3, 1, 2, 1],
    ('ps_efficient', 8, 1000): [3, 1, 2, 1, 3, 1, 2, 1],
    ('ps_efficient', 8, 4099): [3, 1, 2, 1, 3, 1, 2, 1],
    ('direct', 8, 1): [14, 14, 14, 14, 14, 14, 14, 14],
    ('direct', 8, 7): [14, 14, 14, 14, 14, 14, 14, 14],
    ('direct', 8, 1000): [14, 14, 14, 14, 14, 14, 14, 14],
    ('direct', 8, 4099): [14, 14, 14, 14, 14, 14, 14, 14],
    ('direct_signs', 8, 1): [14, 14, 14, 14, 14, 14, 14, 14],
    ('direct_signs', 8, 7): [14, 14, 14, 14, 14, 14, 14, 14],
    ('direct_signs', 8, 1000): [14, 14, 14, 14, 14, 14, 14, 14],
    ('direct_signs', 8, 4099): [14, 14, 14, 14, 14, 14, 14, 14],
    ('ps', 5, 7): [4, 1, 1, 1, 1],
    ('ps', 5, 1000): [4, 1, 1, 1, 1],
    ('ps', 6, 7): [5, 1, 1, 1, 1, 1],
    ('ps', 6, 1000): [5, 1, 1, 1, 1, 1],
    ('ps', 7, 7): [6, 1, 1, 1, 1, 1, 1],
    ('ps', 7, 1000): [6, 1, 1, 1, 1, 1, 1],
    ('ps_efficient', 5, 7): [3, 1, 2, 1, 1],
    ('ps_efficient', 5, 1000): [3, 1, 2, 1, 1],
    ('ps_efficient', 6, 7): [3, 1, 2, 1, 2, 1],
    ('ps_efficient', 6, 1000): [3, 1, 2, 1, 2, 1],
    ('ps_efficient', 7, 7): [3, 1, 2, 1, 3, 1, 1],
    ('ps_efficient', 7, 1000): [3, 1, 2, 1, 3, 1, 1],
}


def lane_bytes(name, world, n, msgs):
    """Payload bytes each rank sends in an integer vote.  A frame of
    ``count`` values that carries the sum of k ranks' values is
    ceil(count * b_k / 8) bytes, b_k = choose_lane_bits(k, q_max)."""
    q_max = 1 if name == "direct_signs" else 7

    def frame(k, count):
        return -(-count * choose_lane_bits(k, q_max) // 8)

    if name in ("direct", "direct_signs"):
        # P-1 reduce-scatter chunks of own values, P-1 summed chunks.
        c = -(-n // world)
        return [(world - 1) * (frame(1, c) + frame(world, c))] * world
    if name == "ps":
        # Every other rank sends its own vector; the root sends the sum.
        return [(world - 1) * frame(world, n)] + [frame(1, n)] * (world - 1)
    # ps_efficient: a rank r > 0 sends the sum of its subtree, min(lowest
    # set bit of r, P - r) ranks, up once; every other message it sends is
    # the total, down the broadcast tree.
    return [m * frame(world, n) if r == 0 else
            frame(min(r & -r, world - r), n) + (m - 1) * frame(world, n)
            for r, m in enumerate(msgs)]


TRAFFIC.update({key: (msgs, lane_bytes(*key, msgs))
                for key, msgs in LANE_MSGS.items()})


class CountingTransport(InprocTransport):
    def __init__(self, world_size):
        super().__init__(world_size)
        self.msgs = [0] * world_size
        self.bytes = [0] * world_size

    def send(self, src, dst, generation, tag, payload):
        self.msgs[src] += 1
        self.bytes[src] += len(payload)
        super().send(src, dst, generation, tag, payload)


@pytest.mark.parametrize("name,world,n", sorted(TRAFFIC))
def test_traffic_per_rank(name, world, n):
    rng = np.random.default_rng(0)
    xs = [rng.normal(size=n) for _ in range(world)]
    transport = CountingTransport(world)
    run_ranks(world, lambda topo: CALLS[name](xs[topo.rank], topo),
              transport=transport)
    assert (transport.msgs, transport.bytes) == TRAFFIC[(name, world, n)]


@pytest.mark.parametrize("algo", sorted(VOTE_ALGOS))
def test_toy_training_sends_its_collectives_bytes(algo):
    # The benchmark's toy config: 20 steps at P=4, momentum sync of "head"
    # and a metrics row every 10 steps.
    world, steps = 4, 20
    cfg = runner.RunConfig.from_dict({
        "train": {"steps": steps, "clients": world, "batch_size": 64,
                  "lr": 3e-4},
        "quant": {"kind": "lp", "bits": 8, "norm_p": 1.0}, "algo": algo,
        "sync": {"period": 10, "layers": ["head"]},
        "noise": {"levy_alpha": 0.5, "scale": 1e-4, "per_client_seed": 5},
        "seed": 0, "metrics_every": 10})
    sizes = cfg.model.layer_sizes
    n, layers, rows = sum(sizes.values()), len(sizes), steps // 10
    transport = CountingTransport(world)
    run_ranks(world, lambda topo: runner.train_worker(topo, cfg),
              transport=transport)

    def sent(fn):
        counter = CountingTransport(world)
        run_ranks(world, fn, transport=counter)
        return np.array(counter.bytes)

    rng = np.random.default_rng(0)
    policy = SignPolicy("alternating", iteration=1)
    c = rng.normal(size=n)
    bucket = c if algo == "compressed1bit" else vote_input(c, cfg.quant,
                                                           policy, rng)
    vote = sent(lambda topo: VOTE_ALGOS[algo](bucket, topo, cfg.quant,
                                              policy))
    sync = sent(lambda topo: allreduce_mean_f32(np.zeros(sizes["head"]),
                                                topo))
    reference = sent(lambda topo: allreduce_mean_f32(c, topo))
    divergence = (world - 1) * 8 * (-(-n // world) + layers)
    expect = steps * vote + rows * (sync + reference + divergence)
    assert transport.bytes == expect.tolist()
