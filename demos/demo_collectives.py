"""The three ways to take a majority vote across workers.

Every distributed-Lion step needs sign(sum_i Q(c_i)) at every rank.  This
script runs the same vote through the parameter-server path, the ring
direct-allreduce path, and the 1-bit compressed path, and shows that they
agree with a single-process oracle -- including how ties are broken.

Run:  python3 demos/demo_collectives.py
"""
import numpy as np

from lioncomm import (SignPolicy, compressed_allreduce_1bit, direct_allreduce,
                      majority_sign, ps_gather_broadcast, run_ranks)

WORLD = 4
N = 12
rng = np.random.default_rng(7)

# Per-worker quantized updates in {-3..3} (a 3-bit quantizer's range).
updates = [rng.integers(-3, 4, size=N).astype(np.int64) for _ in range(WORLD)]
oracle_sum = np.sum(np.stack(updates), axis=0)
policy = SignPolicy(mode="alternating", iteration=1)


def one_vote(topo):
    mine = updates[topo.rank]
    ps = ps_gather_broadcast(mine, topo, q_max=3, efficient=True)
    ring = direct_allreduce(mine, topo, q_max=3)
    onebit = compressed_allreduce_1bit(mine.astype(float), topo, policy)
    return ps, ring, onebit


results = run_ranks(WORLD, one_vote)
ps, ring, onebit = results[0]

print(f"{WORLD} workers voting on {N} coordinates")
print("oracle sum:        ", oracle_sum)
print("parameter server:  ", ps.values)
print("ring allreduce:    ", ring.values)
print("sign of the sum:   ", np.sign(oracle_sum).astype(int))
# The 1-bit path is a coarser vote: each worker first collapses its update
# to a sign (zeros count as +1 on odd iterations), then the workers'
# signs are tallied -- so it can disagree with sign-of-the-sum wherever
# magnitudes or worker zeros mattered.
print("1-bit compressed:  ", onebit.values,
      f" (vote over per-worker signs; {onebit.ties} tie(s) broken upward)")
print()
print("majority sign applied by every rank:",
      majority_sign(ring, policy))

# Every rank got identical bits -- that is the whole point of a collective.
for ps_r, ring_r, one_r in results[1:]:
    assert np.array_equal(ps_r.values, ps.values)
    assert np.array_equal(ring_r.values, ring.values)
    assert np.array_equal(one_r.values, onebit.values)
print("all ranks bit-identical: yes")
