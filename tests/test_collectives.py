import time

import numpy as np
import pytest

from lioncomm.collectives import (LANE_DTYPES, Topology, VoteResult, _tree,
                                  allgather_f64, allreduce_mean_f32,
                                  choose_lane_bits,
                                  compressed_allreduce_1bit, direct_allreduce,
                                  majority_sign, ps_gather_broadcast,
                                  run_ranks, shard_exchange)
from lioncomm.errors import (CapacityError, CollectiveError, ConfigError,
                             LionCommError)
from lioncomm.quant import SignPolicy, apply_sign
from lioncomm.transport import InprocTransport, SocketTransport
from test_frames import free_base_port


def sum_oracle(vectors):
    return np.sum(np.stack(vectors).astype(np.int64), axis=0)


def make_vectors(world, n, seed, lo=-7, hi=7):
    rng = np.random.default_rng(seed)
    return [rng.integers(lo, hi + 1, size=n).astype(np.int64)
            for _ in range(world)]


def run_vote(world, fn):
    return run_ranks(world, fn, transport=InprocTransport(world))


def errors_per_rank(world, fn, transport, timeout):
    """Run ``fn(topo)`` on every rank; each rank's package error, or None."""
    def caught(topo):
        try:
            fn(topo)
        except LionCommError as exc:
            return exc
        return None

    return run_ranks(world, caught, transport=transport, timeout=timeout)


class SendCounter(InprocTransport):
    def __init__(self, world_size):
        super().__init__(world_size)
        self.msgs = 0
        self.sizes = set()

    def send(self, src, dst, generation, tag, payload):
        self.msgs += 1
        self.sizes.add(len(payload))
        super().send(src, dst, generation, tag, payload)


@pytest.mark.parametrize("binomial", [False, True])
@pytest.mark.parametrize("world", range(1, 18))
def test_tree_reaches_every_rank_once(world, binomial):
    trees = [_tree(r, world, binomial) for r in range(world)]
    assert trees[0][0] is None
    assert sorted(c for _, kids in trees for c, _ in kids) == list(
        range(1, world))
    for r, (_, kids) in enumerate(trees):
        for child, size in kids:
            assert trees[child][0] == r
            assert size == 1 + sum(k for _, k in trees[child][1])
    assert 1 + sum(k for _, k in trees[0][1]) == world


class TestPsGatherBroadcast:
    @pytest.mark.parametrize("world", [2, 3, 4, 8])
    @pytest.mark.parametrize("n", [1, 7, 64, 1000])
    @pytest.mark.parametrize("efficient", [False, True])
    def test_matches_sum_oracle(self, world, n, efficient):
        vecs = make_vectors(world, n, seed=world * 1000 + n)
        expect = sum_oracle(vecs)

        def fn(topo):
            return ps_gather_broadcast(vecs[topo.rank], topo, q_max=7,
                                       efficient=efficient)

        results = run_vote(world, fn)
        for r in results:
            assert np.array_equal(r.values, expect)

    def test_flat_and_tree_agree(self):
        vecs = make_vectors(5, 33, seed=9)

        def flat(topo):
            return ps_gather_broadcast(vecs[topo.rank], topo, q_max=7).values

        def tree(topo):
            return ps_gather_broadcast(vecs[topo.rank], topo, q_max=7,
                                       efficient=True).values

        a = run_vote(5, flat)
        b = run_vote(5, tree)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))

    def test_float_payload(self):
        vecs = [np.array([0.5, -2.0]), np.array([1.5, 1.0])]

        def fn(topo):
            return ps_gather_broadcast(vecs[topo.rank], topo).values

        for r in run_vote(2, fn):
            assert r.tolist() == [2.0, -1.0]

    @pytest.mark.parametrize("efficient", [False, True])
    def test_float32_votes_travel_as_float64(self, efficient):
        vecs = [np.array([0.5, -2.0], dtype=np.float32),
                np.array([1.5, 1.0], dtype=np.float32)]

        def fn(topo):
            return ps_gather_broadcast(vecs[topo.rank], topo,
                                       efficient=efficient).values

        for values in run_vote(2, fn):
            assert values.dtype == np.float64
            assert values.tolist() == [2.0, -1.0]

    @pytest.mark.parametrize("world", [1, 2])
    @pytest.mark.parametrize("efficient", [False, True])
    def test_int8_signs_sum_in_the_lane(self, world, efficient):
        signs = [np.array([1, -1, 0, 1, -1], dtype=np.int8) * (-1) ** r
                 for r in range(world)]
        expect = sum_oracle(signs)

        def fn(topo):
            return ps_gather_broadcast(signs[topo.rank], topo, q_max=1,
                                       efficient=efficient).values

        for r, values in enumerate(run_vote(world, fn)):
            assert values.dtype == LANE_DTYPES[choose_lane_bits(world, 1)]
            assert np.array_equal(values, expect)
            values[0] = 99  # a copy: the input is untouched
            assert signs[r][0] == (-1) ** r

    @pytest.mark.parametrize("efficient", [False, True])
    @pytest.mark.parametrize("inputs,q_max", [
        ([np.array([1, -3]), np.array([3, 0])], 2),
        ([np.array([1, 2]), np.array([1, 2])], None),
        ([np.array([0.5, 1.0]), np.array([1.5, 2.0])], 2),
    ], ids=["out-of-range", "integers-without-q_max", "floats-with-q_max"])
    def test_bad_input_is_rejected_before_any_send(self, inputs, q_max,
                                                    efficient):
        # Every rank fails at once: none sends a frame or waits for one.
        transport = SendCounter(2)
        t0 = time.monotonic()
        errors = errors_per_rank(2, lambda topo: ps_gather_broadcast(
            inputs[topo.rank], topo, q_max=q_max, efficient=efficient),
            transport, timeout=3)
        assert time.monotonic() - t0 < 0.5
        assert all(isinstance(e, ConfigError) for e in errors)
        assert transport.msgs == 0

    @pytest.mark.parametrize("efficient", [False, True])
    def test_capacity_guard_fires_before_any_communication(self, efficient):
        transport = InprocTransport(2)
        topo = Topology(world_size=2, rank=0, transport=transport)
        with pytest.raises(CapacityError):
            ps_gather_broadcast(np.zeros(4, dtype=np.int64), topo,
                                q_max=2 ** 30, efficient=efficient)
        assert all(q.empty() for q in transport._queues.values())

    @pytest.mark.parametrize("world,q_max,itemsize", [
        (2, 1, 1), (4, 127, 2), (2, 2 ** 15, 4)])
    @pytest.mark.parametrize("efficient", [False, True])
    def test_integer_frames_use_the_lane(self, world, q_max, itemsize,
                                         efficient):
        # The first two elements sum to the lane's worst case, +-world * q_max,
        # in a lane summed in an ``itemsize``-byte dtype.  A frame of k
        # ranks' values rides choose_lane_bits(k, q_max): k=1 for a rank's
        # own vector, the subtree size up the tree, P for the broadcast.
        transport = SendCounter(world)
        vecs = [np.array([q_max, -q_max, 0, 1, -1]) for _ in range(world)]
        results = run_ranks(world, lambda topo: ps_gather_broadcast(
            vecs[topo.rank], topo, q_max=q_max, efficient=efficient).values,
            transport=transport)
        sum_lane = LANE_DTYPES[choose_lane_bits(world, q_max)]
        assert np.dtype(sum_lane).itemsize == itemsize
        ks = ({min(r & -r, world - r) for r in range(1, world)} if efficient
              else {1}) | {world}
        assert transport.sizes == {-(-5 * choose_lane_bits(k, q_max) // 8)
                                   for k in ks}
        for values in results:
            assert values.dtype == sum_lane
            assert np.array_equal(values, sum_oracle(vecs))


class TestDirectAllreduce:
    @pytest.mark.parametrize("world", [2, 3, 4, 8])
    @pytest.mark.parametrize("n", [1, 7, 64, 1000])
    def test_matches_sum_oracle(self, world, n):
        vecs = make_vectors(world, n, seed=world * 7 + n)
        expect = sum_oracle(vecs)

        def fn(topo):
            return direct_allreduce(vecs[topo.rank], topo, q_max=7)

        for r in run_vote(world, fn):
            assert np.array_equal(r.values, expect)

    def test_binary_sign_lane(self):
        vecs = [np.where(v >= 0, 1, -1) for v in make_vectors(4, 100, seed=3)]
        expect = sum_oracle(vecs)

        def fn(topo):
            return direct_allreduce(vecs[topo.rank], topo, q_max=1)

        for r in run_vote(4, fn):
            assert np.array_equal(r.values, expect)

    def test_padding_when_n_not_divisible(self):
        # n=5 with world=4 forces chunk padding
        vecs = make_vectors(4, 5, seed=11)
        expect = sum_oracle(vecs)

        def fn(topo):
            return direct_allreduce(vecs[topo.rank], topo, q_max=7)

        for r in run_vote(4, fn):
            assert np.array_equal(r.values, expect)

    def test_capacity_guard_rejects_overflowing_config(self):
        topo = Topology(world_size=125, rank=0,
                        transport=InprocTransport(125))
        with pytest.raises(CapacityError):
            direct_allreduce(np.zeros(4, dtype=np.int64), topo, q_max=15,
                             lane_bits=8)

    def test_capacity_guard_fires_before_any_communication(self):
        transport = InprocTransport(125)
        topo = Topology(world_size=125, rank=0, transport=transport)
        with pytest.raises(CapacityError):
            direct_allreduce(np.zeros(4, dtype=np.int64), topo, q_max=15,
                             lane_bits=8)
        assert all(q.empty() for q in transport._queues.values())

    def test_integers_without_q_max_are_rejected_before_any_send(self):
        # Like ps, a ConfigError at every rank, not a TypeError, and no
        # frame is queued.
        transport = InprocTransport(3)
        errors = errors_per_rank(3, lambda topo: direct_allreduce(
            np.array([1, -1, 0]), topo, q_max=None), transport, timeout=3)
        assert all(isinstance(e, ConfigError) for e in errors)
        assert all(q.empty() for q in transport._queues.values())

    def test_choose_lane_bits(self):
        assert choose_lane_bits(8, 15) == 8   # 8 * 15 = 120 fits int8
        assert choose_lane_bits(125, 15) == 16
        assert choose_lane_bits(2, 7) == 8
        assert choose_lane_bits(125, 1) == 8
        with pytest.raises(CapacityError):
            choose_lane_bits(10 ** 9, 127)

    def test_out_of_range_input_rejected(self):
        def fn(topo):
            return direct_allreduce(np.array([9], dtype=np.int64), topo,
                                    q_max=7)

        with pytest.raises(ConfigError):
            run_vote(2, fn)

    def test_float_input_rejected(self):
        # Not truncated to [0, 0, 1] per rank.
        def fn(topo):
            return direct_allreduce(np.array([0.9, -0.9, 1.0]), topo, q_max=1)

        with pytest.raises(ConfigError):
            run_vote(2, fn)

    def test_int8_minimum_is_out_of_range(self):
        # -128 is checked without np.abs, which wraps it to -128 in int8.
        def fn(topo):
            return direct_allreduce(np.array([5, -128], dtype=np.int8), topo,
                                    q_max=127)

        with pytest.raises(ConfigError):
            run_vote(2, fn)


SUM_CALLS = {
    "direct": lambda q, topo, q_max: direct_allreduce(q, topo, q_max=q_max),
    "ps": lambda q, topo, q_max: ps_gather_broadcast(q, topo, q_max=q_max),
    "ps_efficient": lambda q, topo, q_max: ps_gather_broadcast(
        q, topo, q_max=q_max, efficient=True),
}


class TestSubByteLanes:
    """Sign votes at P <= 7 sum in a 4-bit lane; own values ride 2 bits."""

    @pytest.mark.parametrize("world", range(2, 8))
    @pytest.mark.parametrize("algo", sorted(SUM_CALLS))
    def test_sums_reach_the_lane_bounds(self, world, algo):
        assert choose_lane_bits(world, 1) == 4
        assert choose_lane_bits(1, 1) == 2
        rng = np.random.default_rng(world)
        # Elements 0 and 1 sum to +-P, the 4-bit lane's worst case; the
        # rest are random ternary votes over lengths P does not divide.
        vecs = [np.concatenate([[1, -1], rng.integers(-1, 2, size=11)])
                .astype(np.int8) for _ in range(world)]
        expect = sum_oracle(vecs)
        assert expect[:2].tolist() == [world, -world]
        transport = SendCounter(world)
        results = run_ranks(world, lambda topo: SUM_CALLS[algo](
            vecs[topo.rank], topo, 1).values, transport=transport)
        for values in results:
            assert np.array_equal(values, expect)
        # Own values in 2-bit fields, every partial and total sum in 4.
        count = -(-13 // world) if algo == "direct" else 13
        assert transport.sizes == {-(-count * 2 // 8), -(-count * 4 // 8)}

    @pytest.mark.parametrize("world", [2, 3, 5])
    @pytest.mark.parametrize("algo", sorted(SUM_CALLS))
    def test_values_to_7_ride_4_bits_and_sum_wider(self, world, algo):
        # Own values up to 7 fill a 4-bit field; P * 7 needs 8 bits.
        vecs = make_vectors(world, 29, seed=world, lo=-7, hi=7)
        for v in vecs:
            v[:2] = [7, -7]
        transport = SendCounter(world)
        results = run_ranks(world, lambda topo: SUM_CALLS[algo](
            vecs[topo.rank], topo, 7).values, transport=transport)
        for values in results:
            assert np.array_equal(values, sum_oracle(vecs))
        own = -(-29 // world) if algo == "direct" else 29
        assert min(transport.sizes) == -(-own * 4 // 8)

    @pytest.mark.parametrize("algo", sorted(SUM_CALLS))
    def test_frame_one_byte_short_names_the_sender(self, algo):
        class Short(InprocTransport):
            def send(self, src, dst, generation, tag, payload):
                if src == 1:
                    payload = payload[:-1]
                super().send(src, dst, generation, tag, payload)

        # 9 signs: a 2-bit frame of 3 bytes (ps) or a 5-element chunk of 2.
        signs = [np.ones(9, dtype=np.int8), -np.ones(9, dtype=np.int8)]
        with pytest.raises(CollectiveError, match="length mismatch") as e:
            run_ranks(2, lambda topo: SUM_CALLS[algo](signs[topo.rank], topo, 1),
                      transport=Short(2), timeout=0.5)
        assert (e.value.rank, e.value.generation) == (1, 1)


class TestCompressed1Bit:
    @pytest.mark.parametrize("world", [2, 3, 4, 8])
    @pytest.mark.parametrize("n", [1, 7, 64, 1000])
    def test_matches_majority_oracle(self, world, n):
        rng = np.random.default_rng(world + n)
        cs = [rng.normal(size=n) for _ in range(world)]
        policy = SignPolicy("alternating", iteration=1)
        signs = [np.where(c > 0, 1, np.where(c < 0, -1, 1)) for c in cs]
        agg = sum_oracle(signs)
        expect = np.where(agg > 0, 1, np.where(agg < 0, -1, 1))

        def fn(topo):
            return compressed_allreduce_1bit(cs[topo.rank], topo, policy)

        for r in run_vote(world, fn):
            assert np.array_equal(majority_sign(r, policy), expect)
            assert r.ties == int(np.count_nonzero(agg == 0))

    def test_rejects_surviving_zeros(self):
        policy = SignPolicy("exact-ternary")

        def fn(topo):
            return compressed_allreduce_1bit(np.zeros(3), topo, policy)

        with pytest.raises(ConfigError):
            run_vote(2, fn)

    def test_exact_ternary_is_rejected_before_any_send(self):
        # A tie that only the exact-ternary policy would keep: every rank
        # must fail at once, without leaving a peer waiting for a frame.
        cs = [np.array([1.0]), np.array([-1.0])]
        transport = SendCounter(2)
        t0 = time.monotonic()
        errors = errors_per_rank(2, lambda topo: compressed_allreduce_1bit(
            cs[topo.rank], topo, SignPolicy("exact-ternary")),
            transport, timeout=3)
        assert time.monotonic() - t0 < 0.5
        assert all(isinstance(e, ConfigError) for e in errors)
        assert transport.msgs == 0

    def test_even_iteration_breaks_ties_down(self):
        policy = SignPolicy("alternating", iteration=2)
        cs = [np.array([1.0, -1.0]), np.array([-1.0, 1.0])]

        def fn(topo):
            vote = compressed_allreduce_1bit(cs[topo.rank], topo, policy)
            return majority_sign(vote, policy)

        for r in run_vote(2, fn):
            assert r.tolist() == [-1, -1]


class FrameRecorder:
    """Mixin for a transport: records (source, tag, byte length) of every
    frame sent."""

    def send(self, src, dst, generation, tag, payload):
        self.frames.append((src, tag, len(payload)))
        super().send(src, dst, generation, tag, payload)


class RecordingInproc(FrameRecorder, InprocTransport):
    def __init__(self, world_size):
        super().__init__(world_size)
        self.frames = []


class RecordingSocket(FrameRecorder, SocketTransport):
    def __init__(self, frames, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.frames = frames


EDGE_SIZES = [0, 1, 7, 8, 9, 63, 64, 65, 577, 4099]


class TestOneBitByteAndChunkEdges:
    """The 1-bit vote at sizes around whole bytes and whole chunks: chunks
    are rounded up to whole bytes, so every frame must keep the length of a
    ceil(N/P)-sign chunk (``tests/test_traffic.py``'s literals)."""

    @staticmethod
    def check(world, n, run):
        rng = np.random.default_rng(1000 * world + n)
        # Exact zeros, so the alternating policy fills them, and even P ties.
        cs = [rng.integers(-1, 2, size=n) * rng.random(n)
              for _ in range(world)]
        policy = SignPolicy("alternating", iteration=1 + (world + n) % 2)
        fill = policy.zero_fill()
        agg = np.sum([np.where(c == 0, fill, np.sign(c)) for c in cs],
                     axis=0, dtype=np.int64).reshape(n)
        expect = np.where(agg == 0, fill, np.sign(agg))
        results, frames = run(lambda topo: compressed_allreduce_1bit(
            cs[topo.rank], topo, policy))
        for r in results:
            assert r.values.dtype == np.int8
            assert np.array_equal(r.values, expect)
            assert r.ties == int(np.count_nonzero(agg == 0))
        bits = -(-(-(-n // world)) // 8)
        assert sorted(frames) == sorted(
            (src, tag, size) for src in range(world)
            for tag, size in ((5, bits), (8, 4 + bits))
            for _ in range(world - 1))

    @pytest.mark.parametrize("world", [2, 3, 4, 5, 8])
    @pytest.mark.parametrize("n", EDGE_SIZES)
    def test_inproc(self, world, n):
        def run(fn):
            transport = RecordingInproc(world)
            return run_ranks(world, fn, transport=transport), transport.frames
        self.check(world, n, run)

    @pytest.mark.parametrize("world", [2, 3])
    @pytest.mark.parametrize("n", EDGE_SIZES)
    def test_sockets(self, world, n):
        def run(fn):
            frames, port = [], free_base_port(world)
            return run_ranks(world, fn, transport_factory=lambda r: (
                RecordingSocket(frames, world, r, base_port=port))), frames
        self.check(world, n, run)


@pytest.mark.parametrize("world", [2, 3])
@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_direct_sign_votes_in_unaligned_sub_byte_chunks(world, n):
    # Own signs ride 2-bit fields and their sums 4-bit ones; chunks of 2 or
    # 3 values fill no whole byte, and at P=3 a block holds two of them.
    rng = np.random.default_rng(n)
    signs = [rng.choice(np.array([-1, 1], dtype=np.int8), size=n)
             for _ in range(world)]
    transport = RecordingInproc(world)
    results = run_ranks(world, lambda topo: direct_allreduce(
        signs[topo.rank], topo, q_max=1).values, transport=transport)
    for values in results:
        assert np.array_equal(values, sum_oracle(signs))
    c = -(-n // world)
    assert {size for _, _, size in transport.frames} == {
        -(-c * 2 // 8), -(-c * 4 // 8)}


class TestCompressedMatchesPsSignVote:
    """The 1-bit vote equals the ``ps`` sign vote and a numpy oracle."""

    @pytest.mark.parametrize("world", [1, 2, 3, 5])
    @pytest.mark.parametrize("iteration", [1, 2])
    def test_values_and_ties(self, world, iteration):
        n = 7 * world + 3 if world > 1 else 11  # not divisible by P > 1
        rng = np.random.default_rng(100 * world + iteration)
        # Few distinct levels, exact zeros included, so ties occur.
        cs = [rng.integers(-2, 3, size=n).astype(np.float64)
              for _ in range(world)]
        policy = SignPolicy("alternating", iteration=iteration)
        fill = 1 if iteration % 2 else -1
        signs = [np.where(c == 0, fill, np.sign(c)) for c in cs]
        agg = np.sum(signs, axis=0)
        expect = np.where(agg == 0, fill, np.sign(agg))

        def fn(topo):
            one_bit = compressed_allreduce_1bit(cs[topo.rank], topo, policy)
            ps = ps_gather_broadcast(apply_sign(cs[topo.rank], policy), topo,
                                     q_max=1)
            return one_bit, majority_sign(ps, policy), ps.ties

        for one_bit, ps_sign, ps_ties in run_vote(world, fn):
            assert one_bit.values.dtype == np.int8
            assert np.array_equal(one_bit.values, expect)
            assert np.array_equal(one_bit.values, ps_sign)
            assert one_bit.ties == ps_ties == int(np.count_nonzero(agg == 0))


class TestTieStatistics:
    @pytest.mark.parametrize("world,expect", [(4, 0.375), (8, 0.2734375)])
    def test_iid_sign_tie_rate(self, world, expect):
        n = 100_000
        rng = np.random.default_rng(world)
        cs = [rng.choice([-1.0, 1.0], size=n) for _ in range(world)]
        policy = SignPolicy("alternating", iteration=1)

        def fn(topo):
            return compressed_allreduce_1bit(cs[topo.rank], topo, policy)

        votes = run_vote(world, fn)
        assert abs(votes[0].ties / n - expect) < 0.01


class TestMeanAndGather:
    def test_mean_two_ranks(self):
        vecs = [np.array([1.0]), np.array([3.0])]

        def fn(topo):
            return allreduce_mean_f32(vecs[topo.rank], topo)

        for r in run_vote(2, fn):
            assert r.tolist() == [2.0]

    def test_mean_bit_identical_across_ranks(self):
        rng = np.random.default_rng(0)
        vecs = [rng.normal(size=501) for _ in range(5)]

        def fn(topo):
            return allreduce_mean_f32(vecs[topo.rank], topo)

        results = run_vote(5, fn)
        for r in results[1:]:
            assert np.array_equal(results[0], r)

    def test_mean_matches_oracle_within_f32_ulp(self):
        rng = np.random.default_rng(1)
        vecs = [rng.normal(size=200) for _ in range(3)]

        def fn(topo):
            return allreduce_mean_f32(vecs[topo.rank], topo)

        got = run_vote(3, fn)[0]
        # compensated-summation oracle over the float32-cast inputs
        import math
        cast = [v.astype(np.float32).astype(np.float64) for v in vecs]
        oracle = np.array([math.fsum(c[i] for c in cast) / 3
                           for i in range(200)])
        ulp = np.spacing(np.abs(oracle).astype(np.float32)).astype(np.float64)
        assert np.all(np.abs(got - oracle) <= 2 * ulp)

    @pytest.mark.parametrize("world", [1, 2, 3, 5, 8])
    def test_allgather(self, world):
        # A float64 (P, N) array in rank order, the same bits at every rank.
        rng = np.random.default_rng(world)
        vecs = [rng.normal(size=7) for _ in range(world)]

        def fn(topo):
            return allgather_f64(vecs[topo.rank], topo)

        for got in run_vote(world, fn):
            assert got.dtype == np.float64 and got.shape == (world, 7)
            assert got.tobytes() == np.stack(vecs).tobytes()

    @pytest.mark.parametrize("world,n", [(1, 5), (2, 7), (3, 7), (4, 577),
                                         (5, 3), (8, 4099)])
    def test_shard_exchange(self, world, n):
        # Rank r gets columns r*c .. (r+1)*c of every rank's vector, zero
        # padded past N, one row per rank in rank order.
        rng = np.random.default_rng(n)
        vecs = [rng.normal(size=n) for _ in range(world)]
        c = -(-n // world)
        padded = np.zeros((world, world * c))
        padded[:, :n] = vecs

        def fn(topo):
            return shard_exchange(vecs[topo.rank], topo)

        for r, block in enumerate(run_vote(world, fn)):
            assert block.dtype == np.float64 and block.shape == (world, c)
            assert np.array_equal(block, padded[:, r * c:(r + 1) * c])


class TestRobustness:
    def test_timeout_names_missing_rank(self):
        def fn(topo):
            if topo.rank == 1:
                return None  # rank 1 never participates
            return ps_gather_broadcast(np.array([1], dtype=np.int64), topo,
                                       q_max=1)

        with pytest.raises(CollectiveError) as e:
            run_ranks(2, fn, transport=InprocTransport(2),
                      timeout=0.3)
        assert "1" in str(e.value)

    @pytest.mark.parametrize("call,lengths", [
        (lambda x, topo: ps_gather_broadcast(x, topo), (8, 9)),
        (lambda x, topo: ps_gather_broadcast(x, topo, efficient=True), (8, 9)),
        (lambda x, topo: direct_allreduce(np.sign(x).astype(np.int8), topo,
                                          q_max=1), (8, 9)),
        (lambda x, topo: compressed_allreduce_1bit(
            x, topo, SignPolicy("alternating", 1)), (8, 17)),
        (allreduce_mean_f32, (8, 9)),
        (allgather_f64, (8, 9)),
    ], ids=["ps", "ps_efficient", "direct", "compressed1bit",
            "allreduce_mean_f32", "allgather_f64"])
    def test_unequal_lengths_name_the_sender(self, call, lengths):
        rng = np.random.default_rng(3)
        xs = [rng.normal(size=n) for n in lengths]
        with pytest.raises(CollectiveError, match="length mismatch") as e:
            run_ranks(2, lambda topo: call(xs[topo.rank], topo),
                      transport=InprocTransport(2), timeout=0.5)
        # Rank 0's error is raised first; it names the rank that sent the
        # frame of the wrong length, and the generation and tag.
        assert (e.value.rank, e.value.generation) == (1, 1)
        assert e.value.phase.startswith("tag ")

    @pytest.mark.parametrize("world", [2, 3])
    @pytest.mark.parametrize("efficient", [False, True])
    def test_ps_rejects_mixed_integer_and_float_inputs(self, world,
                                                        efficient):
        # Float frames carry their own tags, so the first frame of the
        # other kind fails the tag check.
        xs = [np.array([0.5, 1.0])] + [np.array([1, 2])] * (world - 1)
        errors = errors_per_rank(world, lambda topo: ps_gather_broadcast(
            xs[topo.rank], topo, q_max=None if topo.rank == 0 else 2,
            efficient=efficient), InprocTransport(world), timeout=0.5)
        assert all(isinstance(e, CollectiveError) for e in errors)

    def test_transport_set_up_failure_is_raised(self):
        # Rank 0's transport fails to build; rank 1's is built and closed.
        built = []

        class Closing(InprocTransport):
            def close(self):
                built.remove(self)

        def factory(rank):
            if rank == 0:
                raise CollectiveError("bind failed", rank=0)
            built.append(Closing(2))
            return built[-1]

        with pytest.raises(CollectiveError, match="bind failed"):
            run_ranks(2, lambda topo: "ok", transport_factory=factory)
        assert built == []

    @pytest.mark.parametrize("world", [0, -1])
    def test_per_rank_transports_need_a_rank(self, world):
        # The shared in-process transport rejects such a world itself.
        with pytest.raises(ConfigError, match="world_size must be >= 1"):
            run_ranks(world, lambda topo: "ok",
                      transport_factory=lambda r: InprocTransport(1))

    def test_repeat_runs_are_deterministic(self):
        vecs = make_vectors(4, 77, seed=21)

        def fn(topo):
            return direct_allreduce(vecs[topo.rank], topo, q_max=7).values

        a = run_vote(4, fn)
        b = run_vote(4, fn)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


class TestSocketTransportParity:
    @pytest.mark.parametrize("algo", ["direct", "compressed", "ps"])
    def test_matches_inproc(self, algo):
        world, n = 3, 129
        vecs = make_vectors(world, n, seed=5, lo=-1, hi=1)
        signs = [np.where(v >= 0, 1, -1).astype(np.int64) for v in vecs]
        policy = SignPolicy("alternating", iteration=1)

        def fn(topo):
            if algo == "direct":
                return direct_allreduce(signs[topo.rank], topo,
                                        q_max=1).values
            if algo == "compressed":
                vote = compressed_allreduce_1bit(signs[topo.rank].astype(float),
                                                 topo, policy)
                return majority_sign(vote, policy)
            return ps_gather_broadcast(signs[topo.rank], topo, q_max=1).values

        inproc = run_vote(world, fn)
        port = free_base_port(world)
        socketed = run_ranks(
            world, fn,
            transport_factory=lambda r: SocketTransport(
                world, r, host="127.0.0.1", base_port=port))
        assert all(np.array_equal(x, y) for x, y in zip(inproc, socketed))

    @pytest.mark.parametrize("algo", sorted(SUM_CALLS))
    def test_sign_votes_match_inproc_at_two_ranks(self, algo):
        # At P=2, own signs ride 2-bit fields and their sums 4-bit ones.
        rng = np.random.default_rng(8)
        signs = [rng.choice([-1, 1], size=1001).astype(np.int8)
                 for _ in range(2)]

        def fn(topo):
            return SUM_CALLS[algo](signs[topo.rank], topo, 1).values

        port = free_base_port(world=2)
        socketed = run_ranks(
            2, fn, transport_factory=lambda r: SocketTransport(
                2, r, host="127.0.0.1", base_port=port))
        for values in socketed:
            assert np.array_equal(values, sum_oracle(signs))
        assert all(np.array_equal(x, y)
                   for x, y in zip(run_vote(2, fn), socketed))


# The six collectives on an empty vector: every chunk of the two chunked
# votes is empty, and every frame but the 1-bit tie count is zero bytes.
EMPTY_CALLS = {
    "ps": lambda topo: ps_gather_broadcast(
        np.zeros(0, dtype=np.int8), topo, q_max=1).values,
    "ps_efficient": lambda topo: ps_gather_broadcast(
        np.zeros(0, dtype=np.int8), topo, q_max=1, efficient=True).values,
    "direct": lambda topo: direct_allreduce(
        np.zeros(0, dtype=np.int8), topo, q_max=1).values,
    "compressed1bit": lambda topo: compressed_allreduce_1bit(
        np.zeros(0), topo, SignPolicy("alternating", iteration=1)).values,
    "allreduce_mean_f32": lambda topo: allreduce_mean_f32(np.zeros(0), topo),
    "allgather_f64": lambda topo: allgather_f64(np.zeros(0), topo),
}


def assert_empty_results(algo, world, results):
    assert len(results) == world
    for got in results:
        if algo == "allgather_f64":
            assert len(got) == world
            assert all(part.shape == (0,) for part in got)
        else:
            assert got.shape == (0,)


class TestEmptyVectors:
    @pytest.mark.parametrize("world", [1, 2, 3])
    @pytest.mark.parametrize("algo", sorted(EMPTY_CALLS))
    def test_inproc(self, algo, world):
        assert_empty_results(algo, world, run_vote(world, EMPTY_CALLS[algo]))

    @pytest.mark.parametrize("algo", sorted(EMPTY_CALLS))
    def test_over_sockets(self, algo):
        port = free_base_port(world=2)
        results = run_ranks(
            2, EMPTY_CALLS[algo], transport_factory=lambda r: SocketTransport(
                2, r, host="127.0.0.1", base_port=port))
        assert_empty_results(algo, 2, results)


class TestMajoritySign:
    def test_accepts_plain_array(self):
        policy = SignPolicy("exact-ternary")
        agg = np.array([5, -3, 0])
        assert majority_sign(agg, policy).tolist() == [1, -1, 0]

    def test_accepts_vote_result(self):
        policy = SignPolicy("alternating", iteration=1)
        vote = VoteResult(values=np.array([0, 2]), ties=1)
        assert majority_sign(vote, policy).tolist() == [1, 1]
