"""Majority-vote collectives over a pluggable transport.

Four ways to obtain the aggregated update at every rank:

* ``ps_gather_broadcast`` -- parameter-server style: sum up a tree rooted
  at rank 0, then broadcast down it (flat, or binomial when efficient).
* ``direct_allreduce`` -- a pairwise reduce-scatter + allgather; the
  exact sum comes back.
* ``compressed_allreduce_1bit`` -- signs only (``alternating`` policy):
  the same two phases on 1-bit chunks, with a local majority per chunk.
* ``allreduce_mean_f32`` -- elementwise mean in 32-bit floats (used for
  momentum synchronization, not votes): a flat sum, a binomial broadcast.

Both integer votes, ``ps`` and ``direct``, sum integers in [-q_max, q_max]
in the narrowest signed lane whose maximum holds P*q_max
(``quant.choose_lane_bits``, ``quantize``'s width rule too), so no partial
sum can overflow, and return the sum in that lane's dtype; one with no
``q_max`` raises.  Each frame rides the narrowest lane for the sum it
carries: ``choose_lane_bits(k, q_max)`` for the sum of k ranks' values
(k=1 for a rank's own values, the subtree size for a tree's partial sum, P
for a total), down to 2- and 4-bit ``quant.pack_ints`` fields; ``ps``
sends and returns a full-precision (float) vote as float64 words.  Every
frame is bare: little-endian lane or float words, packed fields, or
``quant.pack`` sign bits (the 1-bit stage-2 frame puts a 4-byte tie count
in front).  Every rooted phase is one walk of one tree (``_tree``:
``_reduce`` up, ``_broadcast`` down), every all-to-all and allgather phase
is one loop, ``_exchange``, and input checks run before the first send.
``Topology.recv`` is the one lockstep check: a frame of the wrong
generation, tag or byte length raises ``CollectiveError`` naming the
sender, generation and phase, and a peer that never sends raises one after
the timeout.  No element count is sent, so vectors of different lengths
whose frames have the same byte length pass.  Packed lanes widen that
gap: ``direct`` at P=4 with N=7 and N=8 (chunks of 2 in every lane), and
at P=2 sign votes N=5 through N=8 (2-bit chunks of 3 or 4 values, one
byte each; their 4-bit sums, two bytes each).  ``run_training``'s final
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
    """One rank's endpoint into a P-worker world."""

    world_size: int
    rank: int
    transport: Transport
    generation: int = 0
    timeout: float = DEFAULT_TIMEOUT

    def __post_init__(self):
        if not (0 <= self.rank < self.world_size):
            raise ConfigError(f"rank {self.rank} outside world {self.world_size}")

    def next_generation(self) -> int:
        self.generation += 1
        return self.generation

    def send(self, dst: int, tag: int, payload: bytes, generation: int):
        self.transport.send(self.rank, dst, generation, tag, payload)

    def recv(self, src: int, tag: int, generation: int, size: int) -> bytes:
        """Payload of the next frame from ``src``, which must carry this
        generation and tag and be ``size`` bytes long: the collectives run
        in lockstep."""
        got_gen, got_tag, payload = self.transport.recv(
            self.rank, src, generation, tag, self.timeout)
        got = (got_gen, got_tag, len(payload))
        if got != (generation, tag, size):
            kind = "length" if got[:2] == (generation, tag) else "message"
            raise CollectiveError(
                f"{kind} mismatch: expected gen={generation} tag={tag} "
                f"{size} bytes, got gen={got_gen} tag={got_tag} "
                f"{len(payload)} bytes", rank=src, generation=generation,
                phase=f"tag {tag}")
        return payload


@dataclass
class VoteResult:
    """Aggregate returned by a vote collective, identical at every rank."""

    values: np.ndarray
    ties: int = 0


@functools.lru_cache(maxsize=None)
def _codec(dtype):
    """(encode, decode) of a vector as little-endian ``dtype`` bytes.  decode
    returns a writable array, copying only a read-only payload (in-process
    bytes) or a foreign byte order: socket payloads are the receiver's own."""
    wire = np.dtype(dtype).newbyteorder("<")

    def decode(b):
        view = np.frombuffer(b, dtype=wire)
        return view.astype(dtype, copy=not view.flags.writeable)

    return (lambda a: np.ascontiguousarray(a, dtype=wire).tobytes(), decode)


def _exchange(topo: Topology, tag: int, gen: int, payloads, size: int,
              decode, own) -> list:
    """Send ``payloads[j]`` to every rank j but this one and receive one
    ``size``-byte frame from each in rank order.  Returns every rank's
    value in rank order: ``own`` in this rank's slot, the others decoded
    once all frames are in."""
    peers = [j for j in range(topo.world_size) if j != topo.rank]
    for j in peers:
        topo.send(j, tag, payloads[j], gen)
    got = [topo.recv(j, tag, gen, size) for j in peers]
    values = [decode(b) for b in got]
    values.insert(topo.rank, own)
    return values


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


def _reduce(vec: np.ndarray, topo: Topology, gen: int, tag: int, frames,
            dtype, binomial: bool) -> np.ndarray | None:
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
        acc += decode(topo.recv(child, tag, gen, size))
    if parent is None:
        return acc
    encode, _, _ = frames(1 + sum(k for _, k in kids))
    topo.send(parent, tag, encode(acc), gen)
    return None


def _broadcast(vec: np.ndarray | None, topo: Topology, gen: int, tag: int,
               frame, binomial: bool) -> np.ndarray:
    """``vec`` from rank 0 to every rank, down the ``_tree``: rank 0 encodes
    it once as ``frame`` = (encode, decode, size), and every other rank
    forwards the frame it received.  Children are sent to in reverse
    order: a binomial tree's largest subtree first."""
    encode, decode, size = frame
    parent, kids = _tree(topo.rank, topo.world_size, binomial)
    payload = (encode(vec) if parent is None
               else topo.recv(parent, tag, gen, size))
    for child, _ in reversed(kids):
        topo.send(child, tag, payload, gen)
    return vec if parent is None else decode(payload)


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


def _lane_frames(bits: int, count: int):
    """(encode, decode, size) of a frame of ``count`` integers in the signed
    ``bits``-wide lane: ``quant.pack_ints`` fields below 8 bits, little-endian
    lane words from 8 bits up."""
    if bits < 8:
        return (lambda a: pack_ints(a, bits),
                lambda b: unpack_ints(b, count, bits), (count * bits + 7) // 8)
    encode, decode = _codec(LANE_DTYPES[bits])
    return encode, decode, count * bits // 8


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
        words = (*_codec(np.float64), 8 * vec.size)
        dtype, extra = np.float64, TAG_FLOAT_WORDS
        frames = lambda k: words
    else:
        dtype, extra = LANE_DTYPES[_lane(vec, p, q_max)], 0
        frames = lambda k: _lane_frames(choose_lane_bits(k, q_max), vec.size)
    gen = topo.next_generation()
    total = _reduce(vec, topo, gen, (TAG_REDUCE if efficient else TAG_GATHER)
                    + extra, frames, dtype, efficient)
    total = _broadcast(total, topo, gen, TAG_BCAST + extra, frames(p),
                       efficient)
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
    ``choose_lane_bits(1, q_max)``; a summed chunk travels in the sum lane.  ``q_max`` must be the declared range of
    the quantizer, identical at every rank.
    """
    p = topo.world_size
    q = np.asarray(q_i).ravel()
    sum_bits = _lane(q, p, q_max, lane_bits)
    own_bits = choose_lane_bits(1, q_max)
    n = q.size
    chunk = -(-n // p)  # ceil
    padded = np.zeros(chunk * p, dtype=LANE_DTYPES[own_bits])
    padded[:n] = q
    chunks = [padded[i * chunk:(i + 1) * chunk] for i in range(p)]

    gen = topo.next_generation()
    r = topo.rank
    # Reduce-scatter: rank j sums the P copies of chunk j in the sum lane;
    # overflow is ruled out by the capacity check above.
    encode, decode, size = _lane_frames(own_bits, chunk)
    parts = _exchange(topo, TAG_ALLTOALL, gen,
                      [None if j == r else encode(c)
                       for j, c in enumerate(chunks)], size, decode, chunks[r])
    reduced = parts.pop(r).astype(LANE_DTYPES[sum_bits])
    for part in parts:
        reduced += part
    encode, decode, size = _lane_frames(sum_bits, chunk)
    full = _exchange(topo, TAG_ALLGATHER, gen, [encode(reduced)] * p, size,
                     decode, reduced)
    summed = np.concatenate(full)[:n]
    return VoteResult(values=summed, ties=int(np.count_nonzero(summed == 0)))


def compressed_allreduce_1bit(c_i, topo: Topology,
                              policy: SignPolicy) -> VoteResult:
    """Two-stage 1-bit majority vote: all-to-all, local majority, allgather.

    Each rank's real vector is reduced to signs (zeros resolved by the
    policy), split into P chunks, and the i-th chunk of every rank lands
    at rank i packed to 1 bit.  Rank i sums the P sign chunks, takes the
    majority sign (ties again resolved by the policy), and an allgather
    of the recompressed chunks gives every rank the full +-1 vote, as
    int8.  A bit carries no zero, so only the ``alternating`` policy is
    accepted; any other raises ``ConfigError`` before anything is sent.
    """
    if policy.mode != "alternating":
        raise ConfigError(f"1-bit path needs the alternating policy, not "
                          f"{policy.mode!r}: it cannot carry exact zeros")
    x = np.asarray(c_i, dtype=np.float64).ravel()
    s = apply_sign(x, policy)
    p = topo.world_size
    n = s.size
    chunk = -(-n // p)
    padded = np.ones(chunk * p, dtype=np.int8)  # pad with +1: never a tie
    padded[:n] = s

    gen = topo.next_generation()
    r = topo.rank

    # Stage 1: pairwise-exchange all-to-all of 1-bit chunks.
    size = (chunk + 7) // 8
    mine = [padded[j * chunk:(j + 1) * chunk] for j in range(p)]
    received = _exchange(
        topo, TAG_ALLTOALL, gen,
        [None if j == r else pack(m) for j, m in enumerate(mine)], size,
        lambda b: unpack(b, chunk), mine[r])

    chunk_sum = np.sum(np.stack(received), axis=0,
                       dtype=LANE_DTYPES[choose_lane_bits(p, 1)])
    local_ties = int(np.count_nonzero(chunk_sum == 0))
    voted = apply_sign(chunk_sum, policy)

    # Stage 2: allgather of the voted chunks plus each chunk's tie count.
    my_payload = local_ties.to_bytes(4, "little") + pack(voted)
    gathered = _exchange(
        topo, TAG_ALLGATHER, gen, [my_payload] * p, 4 + size,
        lambda b: (int.from_bytes(b[:4], "little"), unpack(b[4:], chunk)),
        (local_ties, voted))

    total_ties = sum(t for t, _ in gathered)
    full = np.concatenate([v for _, v in gathered])[:n]
    return VoteResult(values=full, ties=total_ties)


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
    frame = (*_codec(np.float32), vec.nbytes)
    gen = topo.next_generation()
    acc = _reduce(vec, topo, gen, TAG_REDUCE, lambda k: frame, np.float64,
                  binomial=False)
    mean = None if acc is None else (acc / topo.world_size).astype(np.float32)
    return _broadcast(mean, topo, gen, TAG_BCAST, frame, binomial=True)


def allgather_f64(x, topo: Topology) -> list[np.ndarray]:
    """Every rank returns [x_0, ..., x_{P-1}] in rank order."""
    vec = np.asarray(x, dtype=np.float64).ravel()
    encode, decode = _codec(np.float64)
    return _exchange(topo, TAG_ALLGATHER, topo.next_generation(),
                     [encode(vec)] * topo.world_size, vec.nbytes, decode, vec)


def run_ranks(world_size: int, fn, transport: Transport | None = None,
              transport_factory=None, timeout: float = DEFAULT_TIMEOUT) -> list:
    """Run ``fn(topo)`` on ``world_size`` threads.

    By default all ranks share one in-process transport.  Pass
    ``transport_factory(rank) -> Transport`` for per-rank endpoints
    (e.g. sockets); those are closed when the rank finishes.  Returns the
    per-rank results in rank order; the first rank exception is re-raised.
    """
    import threading

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
