"""Set-up cost of one benchmark workload, timed in a fresh interpreter.

``setup_s`` covers what a user pays before the first step: importing
lioncomm (numpy included), building the transport (for sockets, the whole
TCP mesh) and initialising every rank's worker state.  The benchmark's own
input generation is not part of it.  Run as a child process by
``bench/run.py``; prints the seconds as one number.

    python3 bench/setup_probe.py --workload wire
"""

from __future__ import annotations

import argparse
import random
import socket
import sys
import threading
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Workload shapes: ranks P, layer size N (None = the toy MLP), transport.
SHAPES = {
    "toy": {"P": 4, "N": None, "transport": "inproc"},
    "bulk": {"P": 4, "N": 1_000_003, "transport": "inproc"},
    "wire": {"P": 2, "N": 1_000_003, "transport": "socket"},
}

# Listening ports are drawn below the Linux ephemeral range, so they cannot
# collide with the client side of connections that are still closing.
PORT_LOW, PORT_HIGH = 20000, 32000


def free_base_port(world: int) -> int:
    """A base port whose ``world`` consecutive ports can all be bound now."""
    pick = random.SystemRandom()
    for _ in range(200):
        base = pick.randrange(PORT_LOW, PORT_HIGH - world)
        probes = []
        try:
            for port in range(base, base + world):
                s = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
                probes.append(s)
                s.bind(("127.0.0.1", port))
            return base
        except OSError:
            continue
        finally:
            for s in probes:
                s.close()
    raise RuntimeError("no free block of loopback ports")


def socket_mesh(lc, world: int, attempts: int = 4) -> list:
    """One connected ``SocketTransport`` per rank, on a freshly picked port."""
    errors: list[BaseException] = []
    for _ in range(attempts):
        base = free_base_port(world)
        ends = [None] * world
        failed: list[BaseException] = []

        def build(rank):
            try:
                ends[rank] = lc.SocketTransport(world, rank, base_port=base,
                                                connect_timeout=10.0)
            except (OSError, lc.CollectiveError) as exc:
                failed.append(exc)

        threads = [threading.Thread(target=build, args=(r,)) for r in range(world)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        if not failed:
            return ends
        errors.extend(failed)
        for end in ends:
            if end is not None:
                end.close()
    raise RuntimeError(f"socket mesh failed {attempts} times: {errors[-1]!r}")


def build_world(lc, workload: str):
    """Transport endpoints (one per rank) and initial worker states."""
    import numpy as np

    shape = SHAPES[workload]
    world = shape["P"]
    if shape["transport"] == "socket":
        ends = socket_mesh(lc, world)
    else:
        ends = [lc.InprocTransport(world)] * world
    if shape["N"] is None:
        model = lc.MlpModel()
        params = lc.init_mlp(model, np.random.default_rng(0))
    else:
        params = {"w": np.zeros(shape["N"])}
    states = [lc.WorkerState.initial(params) for _ in range(world)]
    return ends, states


def close_world(ends):
    for end in set(ends):
        end.close()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(SHAPES), required=True)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import lioncomm as lc
    ends, _states = build_world(lc, args.workload)
    elapsed = time.perf_counter() - t0
    close_world(ends)
    print(f"{elapsed:.9f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
