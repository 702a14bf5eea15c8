"""Inputs and single-process numpy reference for the ``bulk`` and ``wire`` blocks.

The reference replays one block of distributed Lion steps in plain numpy:
each rank's seeded quantize (or sign), then the sum, the sign and the Lion
update.  The benchmark computes it in a child process, so the arrays it
allocates do not count towards the benchmark's ``peak_rss_mb``; only the
digests come back.

    python3 bench/reference.py --workload bulk --seed 1
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from setup_probe import SHAPES

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# K distributed steps per block; the parameters after K steps are compared
# with the reference.
BLOCK_STEPS = {"bulk": 2, "wire": 4}


def hyper(lc):
    return lc.LionHyper(beta1=0.9, beta2=0.99, lr=3e-4, weight_decay=0.0)


def spec(lc, workload: str):
    if workload == "bulk":
        return lc.QuantSpec(bits=8, norm_p=lc.INF, rounding="stochastic")
    return lc.QuantSpec(bits=1)


def step_rng(np, seed: int, rank: int, t: int):
    """The stochastic-rounding stream of one rank at step ``t``."""
    return np.random.default_rng(np.random.SeedSequence([seed, 4, rank, t]))


def vote_grads(lc, np, workload: str, seed: int) -> list[dict]:
    """Correlated heavy-tailed update vectors, one ``{"w": …}`` per rank."""
    world, n = SHAPES[workload]["P"], SHAPES[workload]["N"]
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
    updates = lc.runner.make_worker_updates(world, n, "laplace_with_outliers", rng)
    return [{"w": u} for u in updates]


def step_grad(grads: list[dict], rank: int, t: int) -> dict:
    """Rank ``rank``'s gradient at step ``t``.

    The inputs rotate across ranks from step to step.  With a fixed
    gradient the momentum would stay a multiple of it, and the scale-free
    quantizers would hide any error in the momentum update.
    """
    return grads[(rank + t) % len(grads)]


def uses_signs(algo: str, workload: str) -> bool:
    """The 1-bit vote and every 1-bit spec sum signs, not quantized ints."""
    return algo == "compressed1bit" or workload == "wire"


def reference_digest(lc, np, workload: str, seed: int, signs: bool) -> str:
    grads = vote_grads(lc, np, workload, seed)
    q_spec = spec(lc, workload)
    h = hyper(lc)
    world, n = SHAPES[workload]["P"], SHAPES[workload]["N"]
    theta = np.zeros(n)
    moms = [np.zeros(n) for _ in range(world)]
    for t in range(1, BLOCK_STEPS[workload] + 1):
        policy = lc.SignPolicy(mode="alternating", iteration=t)
        total = np.zeros(n)
        gs = [step_grad(grads, r, t)["w"] for r in range(world)]
        for r, (m, g) in enumerate(zip(moms, gs)):
            c = h.beta1 * m + (1.0 - h.beta1) * g
            q = (lc.apply_sign(c, policy) if signs
                 else lc.quantize(c, q_spec, rng=step_rng(np, seed, r, t)))
            total += q
        sign = np.where(total == 0, policy.zero_fill(), np.sign(total))
        theta = theta - h.lr_at(t) * (sign + h.weight_decay * theta)
        moms = [h.beta2 * m + (1.0 - h.beta2) * g for m, g in zip(moms, gs)]
    return lc.optimizer.hash_params({"w": theta})


def reference_digests(workload: str, seed: int, algos) -> dict[str, str]:
    """Reference digest per algorithm, computed in a child interpreter."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--algos", ",".join(algos)],
        capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(BLOCK_STEPS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--algos", required=True)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(SRC))
    import numpy as np
    import lioncomm as lc
    import lioncomm.optimizer  # noqa: F401  (hash_params)
    import lioncomm.runner  # noqa: F401  (make_worker_updates)

    by_kind = {}
    digests = {}
    for algo in args.algos.split(","):
        signs = uses_signs(algo, args.workload)
        if signs not in by_kind:
            by_kind[signs] = reference_digest(lc, np, args.workload, args.seed, signs)
        digests[algo] = by_kind[signs]
    print(json.dumps(digests))
    return 0


if __name__ == "__main__":
    sys.exit(main())
