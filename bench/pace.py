"""A fixed pace loop that tells how fast the interpreter runs right now.

The shared host runs interpreter-bound code up to 1.6x faster or slower
from one stretch to the next.  ``toy`` steps and set-up are interpreter
work, so the benchmark times this loop next to them and scales them to
the speed at which the loop takes REF_MS (see ``bench/README.md``).  The
loop mirrors a toy step without lioncomm: four threads run a small MLP
gradient in numpy, take its sign and hand it on under a condition
variable.  It runs in its own interpreter, which never imports lioncomm,
so nothing the program under test does to its own process can change it.
It always runs on one core, the one a toy run is pinned to.

As a child, it runs the loop once per line read from stdin and answers
with the seconds it took:

    python3 bench/pace.py
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time

import numpy as np

# The loop's time in the slower of the two speeds seen on the machine that
# set the scale (2-core VM, Python 3.11.7, numpy 2.4.6).  Any value works;
# it only fixes the scale of the figures.
REF_MS = 6.0
ROUNDS = 20
WORLD = 4


def pace_once() -> float:
    """One pass of the loop; returns its wall seconds."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((64, 16))
    w2 = rng.standard_normal((32, 1))
    w1s = [rng.standard_normal((16, 32)) for _ in range(WORLD)]
    ready = threading.Condition()
    votes: dict[tuple[int, int], np.ndarray] = {}

    def rank(r: int):
        w1 = w1s[r]
        for t in range(ROUNDS):
            h = np.tanh(x @ w1)
            g = x.T @ ((h @ w2 - 1.0) @ w2.T * (1.0 - h * h))
            with ready:
                votes[t, r] = np.sign(g)
                ready.notify_all()
                ready.wait_for(lambda: all((t, k) in votes for k in range(WORLD)))
                total = sum(votes[t, k] for k in range(WORLD))
            w1 -= 1e-4 * np.sign(total)

    t0 = time.perf_counter()
    threads = [threading.Thread(target=rank, args=(r,)) for r in range(WORLD)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    return time.perf_counter() - t0


class Pacer:
    """A pace child on the caller's CPUs; ``once()`` times one pass.

    The caller waits while the child runs, so the two never share the
    core at the same time.
    """

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, __file__],
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def once(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def main() -> int:
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    for _ in sys.stdin:
        print(repr(pace_once()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
