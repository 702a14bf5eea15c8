"""One share of an end-to-end benchmark run, in a fresh interpreter.

On a shared VM the same code can run 10-20% faster or slower in one
interpreter than in the next, so ``bench/run.py`` splits an end-to-end
run into several parts, runs them one after another, and reports the
median over parts.  Each part runs all
four algorithms for ``--seconds``, checks every block and prints one JSON
line: per algorithm its steps, their wall time, the payload bytes each
rank sent, the losses and any failures, and the part's peak RSS.  A
``toy`` part also times the pace loop (``pace.py``) before each round of
blocks and reports the median.

    python3 bench/part.py --workload toy --seed 1 --seconds 3.75 --part 0 --parts 8
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
from pathlib import Path

from pace import Pacer
from setup_probe import SHAPES

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(SHAPES), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--part", type=int, required=True)
    ap.add_argument("--parts", type=int, required=True)
    ap.add_argument("--digests", default=None,
                    help="reference digests as JSON (bulk, wire)")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(SRC))
    import loads

    wl = loads.Workload(
        args.workload, args.seed,
        ref_digests=json.loads(args.digests) if args.digests else None,
        loss_replicas=list(range(args.part, loads.TOY_REPLICAS, args.parts)))
    phases = [wl.phase(algo) for algo in loads.ALGOS]
    pacer = Pacer() if args.workload == "toy" else None
    try:
        paces = wl.measure(phases, args.seconds, wl.min_blocks,
                           pacer.once if pacer else None)
    finally:
        wl.close()
        if pacer:
            pacer.close()
    print(json.dumps({
        "pace_s": statistics.median(paces) if paces else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "phases": {ph.algo: {"steps": ph.steps, "wall_s": ph.wall_s,
                             "bytes": ph.transport.bytes,
                             "attempted": ph.attempted, "failed": ph.failed,
                             "losses": ph.losses, "errors": ph.errors}
                   for ph in phases},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
