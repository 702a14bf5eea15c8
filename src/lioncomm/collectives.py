"""Majority-vote collectives over a pluggable transport.

Four ways to obtain the aggregated update at every rank:

* ``ps_gather_broadcast`` -- parameter-server style: sum up a tree rooted
  at rank 0, then broadcast down it (flat, or binomial when efficient).
* ``direct_allreduce`` -- reduce-scatter, then allgather; the exact sum
  comes back.
* ``compressed_allreduce_1bit`` -- signs only (``alternating`` policy):
  the same two phases on 1-bit chunks, with a local majority per chunk.
* ``allreduce_mean_f32`` -- elementwise mean in 32-bit floats (used for
  momentum synchronization, not votes): a flat sum, a binomial broadcast.

Two float64 exchanges serve the metrics: ``allgather_f64`` hands every rank
every vector, (P-1)*8*N bytes sent per rank, and ``shard_exchange`` hands
rank r only its shard of every vector, c = ceil(N/P) values: (P-1)*8*c
bytes.  ``optimizer.momentum_divergence`` takes its statistic on the shard
and allgathers one max per layer.

Every collective is its phases over three primitives:

* ``_scatter``, the all-to-all: rank j receives chunk j of every other
  rank's vector;
* ``_allgather``: every rank ends with every rank's row, in rank order;
* the ``_tree`` walk from rank 0: ``_reduce`` sums up it, ``_broadcast``
  hands rank 0's vector down it.

``direct`` and the 1-bit vote run ``_scatter``, combine the received
block with the rank's own chunk (a sum in the sum lane, or a majority sign
and its tie count) and ``_allgather`` the result; ``ps`` and the mean run
``_reduce`` then ``_broadcast``; ``allgather_f64`` is ``_allgather`` alone
and ``shard_exchange`` ``_scatter`` alone.  A phase encodes once and decodes once:
every frame comes from ``_frame`` (little-endian lane or float words,
``quant.pack_ints`` fields, ``quant.pack`` sign bits), the rows a rank
sends its peers are encoded as one block, and the frames it receives are
decoded together.

Integer votes sum integers in [-q_max, q_max] in the narrowest signed lane
that holds P*q_max (``quant.choose_lane_bits``), so no partial sum can
overflow, and return the sum in that lane's dtype.  Each frame rides the
narrowest lane for the sum it carries: ``choose_lane_bits(k, q_max)`` for
the sum of k ranks' values, down to 2- and 4-bit fields.  Input checks run
before the first send.

``Topology`` is the lockstep envelope: each public collective takes one
new generation, after its input checks, and ``Topology.send`` and
``Topology.recv`` stamp and check it.  A frame of the wrong generation,
tag or byte length raises ``CollectiveError`` naming the sender,
generation and phase, and a peer that never sends raises one after the
timeout.  No element count is sent, so vectors of different lengths whose
frames have the same byte length pass: ``direct`` at P=4 with N=7 and
N=8, sign votes at P=2 with N=5 through N=8.  ``run_training``'s final
parameter hash check still catches ranks that end up different.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, CollectiveError, ConfigError
from .quant import (LANE_DTYPES, SignPolicy, apply_sign, choose_lane_bits,
                    pack, pack_ints, unpack, unpack_ints)
from .transport import DEFAULT_TIMEOUT, InprocTransport, Transport

# Tags distinguish phases within one collective generation.
TAG_GATHER = 1
TAG_BCAST = 2
TAG_ALLTOALL = 5
TAG_REDUCE = 7
TAG_ALLGATHER = 8
# ``ps`` float frames add this to their tags, so ranks that mix integer
# (lane) and float inputs fail the tag check even where a float frame and
# a lane frame have the same byte length.
TAG_FLOAT_WORDS = 16


@dataclass
class Topology:
    """One rank's endpoint into a P-worker world.  Its frames carry the
    current ``generation``, which each collective advances once."""

    world_size: int
    rank: int
    transport: Transport
    generation: int = 0
    timeout: float = DEFAULT_TIMEOUT

    def __post_init__(self):
        if not (0 <= self.rank < self.world_size):
            raise ConfigError(f"rank {self.rank} outside world {self.world_size}")

    def next_generation(self):
        self.generation += 1

    def send(self, dst: int, tag: int, payload: bytes):
        self.transport.send(self.rank, dst, self.generation, tag, payload)

    def recv(self, src: int, tag: int, size: int) -> bytes:
        """Payload of the next frame from ``src``, which must carry this
        generation and tag and be ``size`` bytes long: the collectives run
        in lockstep."""
        gen = self.generation
        got_gen, got_tag, payload = self.transport.recv(
            self.rank, src, gen, tag, self.timeout)
        got = (got_gen, got_tag, len(payload))
        if got != (gen, tag, size):
            kind = "length" if got[:2] == (gen, tag) else "message"
            raise CollectiveError(
                f"{kind} mismatch: expected gen={gen} tag={tag} "
                f"{size} bytes, got gen={got_gen} tag={got_tag} "
                f"{len(payload)} bytes", rank=src, generation=gen,
                phase=f"tag {tag}")
        return payload


@dataclass
class VoteResult:
    """Aggregate returned by a vote collective, identical at every rank."""

    values: np.ndarray
    ties: int = 0


@functools.lru_cache(maxsize=256)
def _frame(kind, count: int):
    """(encode, decode, size) of frames of ``count`` values: sign bits
    (``quant.pack``) for kind 1, signed ``kind``-bit lane integers for kind
    2 to 32 (``quant.pack_ints`` fields below 8 bits, little-endian lane
    words from 8 up), little-endian words for a numpy dtype kind.
    ``encode`` takes one row of values or a block of rows and returns their
    frames back to back, ``size`` bytes each: a packed row starts on a
    byte boundary.  ``decode(payload, rows=1)`` reads ``rows`` such frames
    into a (rows, count) block.  Word frames decode to a writable array,
    copying only a read-only payload (in-process bytes) or a foreign byte
    order: socket payloads and joined blocks are the receiver's own.
    Cached per ``(kind, count)``, since a run frames the same few shapes at
    every step; the codecs (``pack``, ``unpack`` and their ``_ints`` pair)
    are still looked up in this module at each call, so a wrapper
    installed on it sees every one."""
    if kind in (1, 2, 4):
        per = 8 // kind  # fields per byte
        width = -(-count // per) * per  # a row's fields, padding included
        if kind == 1:
            encode = lambda a: pack(a)
            fields = lambda b, n: unpack(b, n)
        else:
            encode = lambda a: pack_ints(a, kind)
            fields = lambda b, n: unpack_ints(b, n, kind)

        def decode(b, rows=1):
            return fields(b, rows * width).reshape(rows, width)[:, :count]

        return encode, decode, width // per
    dtype = np.dtype(LANE_DTYPES.get(kind, kind))
    wire = dtype.newbyteorder("<")

    def decode(b, rows=1):
        view = np.frombuffer(b, dtype=wire).reshape(rows, count)
        return view.astype(dtype, copy=not view.flags.writeable)

    return (lambda a: np.ascontiguousarray(a, dtype=wire).tobytes(), decode,
            count * dtype.itemsize)


def _exchange(topo: Topology, tag: int, payloads, frame) -> np.ndarray:
    """Pairwise exchange: send ``payloads[i - 1]`` to rank (r + i) mod P for
    i = 1, ..., P-1 (r this rank) and receive one ``frame`` = (encode,
    decode, size) from each of those ranks, in the same order.  Returns the
    P-1 frames decoded at once, from their concatenation, as a block of
    rows in that order."""
    _, decode, size = frame
    p, r = topo.world_size, topo.rank
    peers = [(r + i) % p for i in range(1, p)]
    for j, payload in zip(peers, payloads):
        topo.send(j, tag, payload)
    got = bytearray().join([topo.recv(j, tag, size) for j in peers])
    return decode(got, p - 1)


def _rank_order(own: np.ndarray, block: np.ndarray, rank: int) -> np.ndarray:
    """This rank's row and its peers' block of rows, in ``_exchange``'s
    order, as one (P, c) array in rank order."""
    k = block.shape[0] - rank  # the block's rows from rank r + 1 up
    return np.concatenate([block[k:], own[None], block[:k]])


def _scatter(vec: np.ndarray, topo: Topology, kind, fill=0,
             unit: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """The all-to-all: ``vec`` is padded with ``fill`` to P chunks of c
    values, ceil(N/P) rounded up to a multiple of ``unit``, and rank j
    receives chunk j of every other rank in ``_frame(kind, c)``.  Returns
    this rank's own chunk and the (P-1, c) block it received, whose rows
    are ranks r + 1, ..., P - 1, then 0, ..., r - 1."""
    p, r = topo.world_size, topo.rank
    c = -(-vec.size // (p * unit)) * unit
    # Row i is chunk (r + i) mod P: this rank's own, then the chunks of its
    # peers in ``_exchange``'s order, so theirs encode as one block.
    rows = np.full((p, c), fill, dtype=vec.dtype)
    flat, own = rows.reshape(-1), r * c
    head, tail = vec[own:], vec[:own]
    flat[:head.size] = head
    flat[(p - r) * c:][:tail.size] = tail
    encode, _, size = frame = _frame(kind, c)
    # Each peer is sent its slice of one encoded block: a view, not a copy.
    sent = memoryview(encode(rows[1:]))
    return rows[0], _exchange(topo, TAG_ALLTOALL, [
        sent[i * size:(i + 1) * size] for i in range(p - 1)], frame)


def _allgather(row: np.ndarray, topo: Topology, frame) -> np.ndarray:
    """Every rank's ``row`` as one (P, c) array in rank order: a rank sends
    its row, encoded once as ``frame`` = (encode, decode, size), to every
    other rank.  Only the P-1 received frames go through the decoder."""
    block = _exchange(topo, TAG_ALLGATHER,
                      [frame[0](row)] * (topo.world_size - 1), frame)
    return _rank_order(row, block, topo.rank)


def _tree(rank: int, p: int, binomial: bool):
    """(parent, [(child, subtree size), ...]) of ``rank`` in the tree rooted
    at rank 0 that ``_reduce`` and ``_broadcast`` walk; rank 0's parent is
    None.  Flat: every other rank is a leaf under rank 0.  Binomial: rank r
    hangs off r with its lowest set bit cleared, so its children are the
    ranks r + 2^i below P for every 2^i below that bit (any 2^i for rank 0),
    in increasing order, and r + 2^i heads min(2^i, P - r - 2^i) ranks."""
    if not binomial:
        return (None, [(c, 1) for c in range(1, p)]) if rank == 0 else (0, [])
    kids, mask = [], 1
    while rank + mask < p and (rank == 0 or mask < rank & -rank):
        kids.append((rank + mask, min(mask, p - rank - mask)))
        mask <<= 1
    return (rank & (rank - 1) if rank else None), kids


def _reduce(vec: np.ndarray, topo: Topology, tag: int, frames, dtype,
            binomial: bool) -> np.ndarray | None:
    """Sum at rank 0 of every rank's vector, up the ``_tree``: a rank adds
    its children's partial sums, in child order, to a ``dtype`` copy of its
    own vector and sends the result to its parent; a leaf sends ``vec``
    uncopied.  The sum of a subtree of k ranks travels in the frame
    ``frames(k)`` gives as (encode, decode, size).  Returns the sum, a
    fresh array, at rank 0 and None elsewhere."""
    parent, kids = _tree(topo.rank, topo.world_size, binomial)
    acc = vec if parent is not None and not kids else vec.astype(dtype)
    for child, k in kids:
        _, decode, size = frames(k)
        acc += decode(topo.recv(child, tag, size))[0]
    if parent is None:
        return acc
    encode, _, _ = frames(1 + sum(k for _, k in kids))
    topo.send(parent, tag, encode(acc))
    return None


def _broadcast(vec: np.ndarray | None, topo: Topology, tag: int, frame,
               binomial: bool) -> np.ndarray:
    """``vec`` from rank 0 to every rank, down the ``_tree``: rank 0 encodes
    it once as ``frame`` = (encode, decode, size), and every other rank
    forwards the frame it received.  Children are sent to in reverse
    order: a binomial tree's largest subtree first."""
    encode, decode, size = frame
    parent, kids = _tree(topo.rank, topo.world_size, binomial)
    payload = encode(vec) if parent is None else topo.recv(parent, tag, size)
    for child, _ in reversed(kids):
        topo.send(child, tag, payload)
    return vec if parent is None else decode(payload)[0]


def _lane(q: np.ndarray, workers: int, q_max: int | None,
          lane_bits: int | None = None) -> int:
    """The width of the lane in which ``workers`` vectors like ``q`` are
    summed, after checking, in ``q``'s own dtype, that it holds integers in
    [-q_max, q_max] and that the lane holds ``workers * q_max``."""
    if q.dtype.kind not in "iu":
        raise ConfigError(f"integer votes sum integers, not {q.dtype}")
    if q_max is None:
        raise ConfigError(f"a {q.dtype} vote needs q_max")
    need = choose_lane_bits(workers, q_max)
    lane_bits = need if lane_bits is None else lane_bits
    if lane_bits not in LANE_DTYPES:
        raise ConfigError(f"lane_bits must be one of {sorted(LANE_DTYPES)}")
    if lane_bits < need:
        raise CapacityError(
            f"{workers} workers x values up to {q_max} need a {need}-bit "
            f"lane, not {lane_bits}")
    if q.size and (q.min() < -q_max or q.max() > q_max):
        raise ConfigError(f"values exceed declared q_max={q_max}")
    return lane_bits


def ps_gather_broadcast(c_i, topo: Topology, q_max: int | None = None,
                        efficient: bool = False) -> VoteResult:
    """Sum all workers' vectors at rank 0 and hand the sum back to everyone.

    ``efficient`` switches the flat tree for a binomial one; results are
    identical either way.  Integers in [-q_max, q_max] are summed in the
    lane ``choose_lane_bits(P, q_max)`` picks, as in ``direct_allreduce``,
    and come back in that lane's dtype; a frame that carries the sum of k
    ranks' values travels in ``choose_lane_bits(k, q_max)``: k=1 for a
    rank's own vector (flat gather, tree leaves), the subtree size for a
    tree's partial sums, P for the broadcast.  A float vector is sent and
    summed as float64 words and needs ``q_max=None``.  An integer vector
    with no ``q_max``, a float one with one, or a value out of range raises
    before any send.  Every rank must pass the same kind of vector: one
    that differs fails the tag check.
    """
    vec = np.asarray(c_i).ravel()  # cast only by the sum's or codec's copy
    p = topo.world_size
    if vec.dtype.kind == "f":
        if q_max is not None:
            raise ConfigError(f"a float vote takes no q_max, got {q_max}")
        words = _frame(np.float64, vec.size)
        dtype, extra = np.float64, TAG_FLOAT_WORDS
        frames = lambda k: words
    else:
        dtype, extra = LANE_DTYPES[_lane(vec, p, q_max)], 0
        frames = lambda k: _frame(choose_lane_bits(k, q_max), vec.size)
    topo.next_generation()
    total = _reduce(vec, topo, (TAG_REDUCE if efficient else TAG_GATHER)
                    + extra, frames, dtype, efficient)
    total = _broadcast(total, topo, TAG_BCAST + extra, frames(p), efficient)
    return VoteResult(values=total, ties=int(np.count_nonzero(total == 0)))


def direct_allreduce(q_i, topo: Topology, q_max: int | None,
                     lane_bits: int | None = None) -> VoteResult:
    """Exact elementwise sum across ranks: the vector is cut into P chunks,
    rank j sums chunk j of every rank, and allgathers the summed chunk.

    Integers in [-q_max, q_max] are summed in the signed lane
    ``lane_bits``, by default the one ``choose_lane_bits(P, q_max)`` picks,
    and come back in its dtype; the dtype, range and capacity checks run in
    the input's own dtype, before any communication.  A reduce-scatter
    chunk carries one rank's own values and travels in
    ``choose_lane_bits(1, q_max)``; a summed chunk travels in the sum lane.
    ``q_max`` must be the declared range of the quantizer, identical at
    every rank.
    """
    q = np.asarray(q_i).ravel()
    sum_bits = _lane(q, topo.world_size, q_max, lane_bits)
    own_bits = choose_lane_bits(1, q_max)
    topo.next_generation()
    own, block = _scatter(q.astype(LANE_DTYPES[own_bits], copy=False), topo,
                          own_bits)
    # Overflow is ruled out by the capacity check above.
    total = np.add.reduce(block, axis=0, dtype=LANE_DTYPES[sum_bits])
    del block  # freed before the allgather
    total += own
    summed = _allgather(total, topo, _frame(sum_bits, total.size))
    summed = summed.reshape(-1)[:q.size]
    return VoteResult(values=summed, ties=int(np.count_nonzero(summed == 0)))


def compressed_allreduce_1bit(c_i, topo: Topology,
                              policy: SignPolicy) -> VoteResult:
    """Two-stage 1-bit majority vote: all-to-all, local majority, allgather.

    Each rank's real vector is reduced to signs (zeros resolved by the
    policy), split into P chunks, and the i-th chunk of every rank lands
    at rank i packed to 1 bit.  Rank i sums the P sign chunks, takes the
    majority sign (ties again resolved by the policy), and an allgather
    of the recompressed chunks, each after its tie count, gives every rank
    the full +-1 vote, as int8.  A bit carries no zero, so only the
    ``alternating`` policy is accepted; any other raises ``ConfigError``
    before anything is sent.
    """
    if policy.mode != "alternating":
        raise ConfigError(f"1-bit path needs the alternating policy, not "
                          f"{policy.mode!r}: it cannot carry exact zeros")
    s = apply_sign(np.asarray(c_i, dtype=np.float64).ravel(), policy)
    sum_dtype = LANE_DTYPES[choose_lane_bits(topo.world_size, 1)]
    topo.next_generation()
    # Pad with +1: a padded column is never a tie.  Chunks are whole bytes,
    # so the P voted chunks' bits are one bit string in rank order.
    own, block = _scatter(s, topo, 1, fill=1, unit=8)
    chunk_sum = np.add.reduce(block, axis=0, dtype=sum_dtype)
    del block  # freed before the allgather
    chunk_sum += own
    ties = int(np.count_nonzero(chunk_sum == 0))
    # The stage-2 frame: a <u4 tie count, then the voted chunk's bits.
    mine = np.frombuffer(ties.to_bytes(4, "little")
                         + pack(apply_sign(chunk_sum, policy)), np.uint8)
    voted = _allgather(mine, topo, _frame(np.uint8, mine.size))
    bits = voted[:, 4:].tobytes()
    return VoteResult(values=unpack(bits, 8 * len(bits))[:s.size],
                      ties=int(voted[:, :4].copy().view("<u4").sum()))


def majority_sign(agg, policy: SignPolicy) -> np.ndarray:
    """Elementwise sign of a signed aggregate, zeros resolved by the policy."""
    values = agg.values if isinstance(agg, VoteResult) else agg
    return apply_sign(np.asarray(values), policy)


def allreduce_mean_f32(x, topo: Topology) -> np.ndarray:
    """Elementwise mean across ranks, computed and transported in float32.

    Rank 0 sums every rank's float32 vector, in rank order and in double
    precision, averages, and rounds once, so the result is within half an ulp of
    the exact mean of the float32 inputs; a binomial-tree broadcast then
    hands every rank the same bits.
    """
    vec = np.asarray(x, dtype=np.float32).ravel()
    frame = _frame(np.float32, vec.size)
    topo.next_generation()
    acc = _reduce(vec, topo, TAG_REDUCE, lambda k: frame, np.float64,
                  binomial=False)
    mean = None if acc is None else (acc / topo.world_size).astype(np.float32)
    return _broadcast(mean, topo, TAG_BCAST, frame, binomial=True)


def allgather_f64(x, topo: Topology) -> np.ndarray:
    """Every rank returns the (P, N) float64 array whose row j is rank j's
    ``x``."""
    vec = np.asarray(x, dtype=np.float64).ravel()
    topo.next_generation()
    return _allgather(vec, topo, _frame(np.float64, vec.size))


def shard_exchange(x, topo: Topology) -> np.ndarray:
    """Rank r's shard of every rank's vector: a (P, c) float64 block in rank
    order, c = ceil(N/P), whose row j is rank j's x[r*c:(r+1)*c], padded
    with zeros past N.  ``_scatter`` alone: a rank sends P-1 frames of c
    float64 words, (P-1)*8*c bytes."""
    vec = np.asarray(x, dtype=np.float64).ravel()
    topo.next_generation()
    return _rank_order(*_scatter(vec, topo, np.float64), topo.rank)


def run_ranks(world_size: int, fn, transport: Transport | None = None,
              transport_factory=None, timeout: float = DEFAULT_TIMEOUT) -> list:
    """Run ``fn(topo)`` on ``world_size`` threads.

    By default all ranks share one in-process transport.  Pass
    ``transport_factory(rank) -> Transport`` for per-rank endpoints
    (e.g. sockets); those are closed when the rank finishes.  Returns the
    per-rank results in rank order; the first rank exception is re-raised.
    """
    import threading

    if world_size < 1:
        raise ConfigError("world_size must be >= 1")
    if transport is None and transport_factory is None:
        transport = InprocTransport(world_size)
    results = [None] * world_size
    errors: list[tuple[int, BaseException]] = []

    def runner(rank: int):
        tp = None
        try:
            tp = (transport if transport_factory is None
                  else transport_factory(rank))
            results[rank] = fn(Topology(world_size=world_size, rank=rank,
                                        transport=tp, timeout=timeout))
        except BaseException as exc:  # surfaced to the caller below
            errors.append((rank, exc))
        finally:
            if transport_factory is not None and tp is not None:
                tp.close()

    threads = [threading.Thread(target=runner, args=(r,), daemon=True)
               for r in range(world_size)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        errors.sort(key=lambda e: e[0])
        raise errors[0][1]
    return results
