"""Golden digests of ``lioncomm train``: the byte-identity contract as data.

    python tools/golden.py           # check this tree against the digest file
    python tools/golden.py --write   # regenerate tests/golden_digests.json

Each cell is one short ``lioncomm train`` run, called in-process through
``cli.main``: a vote algorithm x a ``quant`` kind x a transport and world
size, 12 steps with momentum sync of all layers every 4, a metrics row
every 4 and Levy 1.5 noise.  The grid is the four votes x {sign, lp8 L1,
lp8 L-inf stochastic, none} (without ``direct`` x none) x inproc P in
{2, 3, 4} and socket P in {2, 3}: 75 cells on the default 16-32-1 MLP.
Three more cells train a 16-2048-1 MLP, whose ``input`` layer (34,816
parameters) spans two ``quant.BLOCK`` blocks and goes through
``quant.pooled``.  A cell records the sha256 of ``metrics.csv`` and the
run's ``final_params_hash``; ``direct`` x none records its exit code, 2.

The file also records the Python and numpy versions it was written with:
a digest can move with numpy's arithmetic or random streams, so a
mismatch names both versions next to the cells that moved.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import socket
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

from lioncomm import cli  # noqa: E402

DIGEST_FILE = os.path.join(ROOT, "tests", "golden_digests.json")

QUANTS = {
    "sign": {"kind": "sign"},
    "lp8_l1": {"kind": "lp", "bits": 8, "norm_p": 1.0},
    "lp8_linf_stoch": {"kind": "lp", "bits": 8, "norm_p": "inf",
                       "rounding": "stochastic"},
    "none": {"kind": "none"},
}
ALGOS = ("ps", "ps_efficient", "direct", "compressed1bit")
WORLDS = (("inproc", 2), ("inproc", 3), ("inproc", 4),
          ("socket", 2), ("socket", 3))
WIDE_MODEL = {"in_dim": 16, "hidden": 2048, "out_dim": 1}
WIDE_CELLS = (("direct", "lp8_linf_stoch", "inproc", 2),
              ("compressed1bit", "sign", "inproc", 3),
              ("ps", "lp8_l1", "socket", 2))


def cells() -> dict[str, tuple[dict, str, int]]:
    """Cell name -> (run config, transport, world size)."""

    def doc(algo, quant, world, model=None):
        d = {"train": {"steps": 12, "clients": world, "batch_size": 16,
                       "lr": 3e-4},
             "quant": QUANTS[quant], "algo": algo,
             "sync": {"period": 4, "layers": "all"},
             "noise": {"levy_alpha": 1.5, "scale": 1e-3},
             "seed": 0, "metrics_every": 4}
        if model is not None:
            d["model"] = model
        return d

    out = {}
    for algo in ALGOS:
        for quant in QUANTS:
            if (algo, quant) == ("direct", "none"):
                continue
            for transport, world in WORLDS:
                out[f"{algo}/{quant}/{transport}{world}"] = (
                    doc(algo, quant, world), transport, world)
    for algo, quant, transport, world in WIDE_CELLS:
        out[f"{algo}/{quant}/{transport}{world}/wide"] = (
            doc(algo, quant, world, WIDE_MODEL), transport, world)
    out["direct/none/inproc2"] = (doc("direct", "none", 2), "inproc", 2)
    return out


def free_base_port(world: int, start: int = 31200) -> int:
    """A base port whose ``world`` consecutive loopback ports are free now."""
    for base in range(start, start + 400, world):
        with contextlib.ExitStack() as stack:
            try:
                for rank in range(world):
                    s = stack.enter_context(socket.socket())
                    s.bind(("127.0.0.1", base + rank))
            except OSError:
                continue
        return base
    raise RuntimeError("no free block of loopback ports")


def run_cell(doc: dict, transport: str, world: int, tmp: str) -> dict:
    """One ``lioncomm train`` run: its digests, or its exit code if not 0."""
    cfg_path = os.path.join(tmp, "config.json")
    out = os.path.join(tmp, "out")
    with open(cfg_path, "w") as f:
        json.dump(doc, f)
    argv = ["train", "--config", cfg_path, "--out", out,
            "--transport", transport]
    if transport == "socket":
        argv += ["--port", str(free_base_port(world))]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        return {"exit": code}
    with open(os.path.join(out, "metrics.csv"), "rb") as f:
        metrics = hashlib.sha256(f.read()).hexdigest()
    with open(os.path.join(out, "report.json")) as f:
        params = json.load(f)["final_params_hash"]
    return {"metrics_sha256": metrics, "final_params_hash": params}


def digests() -> dict[str, dict]:
    out = {}
    for name, (doc, transport, world) in cells().items():
        with tempfile.TemporaryDirectory() as tmp:
            out[name] = run_cell(doc, transport, world, tmp)
    return out


def versions() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__}


def mismatches() -> str | None:
    """None if every cell matches the digest file; otherwise a message naming
    the cells that moved and the recorded and running Python and numpy."""
    with open(DIGEST_FILE) as f:
        golden = json.load(f)
    got = digests()
    moved = sorted(k for k in set(golden["cells"]) | set(got)
                   if golden["cells"].get(k) != got.get(k))
    if not moved:
        return None
    now = versions()
    return (f"{len(moved)} golden cells differ: {', '.join(moved)}; written "
            f"with Python {golden['python']} and numpy {golden['numpy']}, "
            f"run with Python {now['python']} and numpy {now['numpy']}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true",
                    help=f"rewrite {os.path.relpath(DIGEST_FILE, ROOT)}")
    args = ap.parse_args(argv)
    if args.write:
        with open(DIGEST_FILE, "w") as f:
            json.dump({**versions(), "cells": digests()}, f, indent=1,
                      sort_keys=True)
            f.write("\n")
        print(f"wrote {DIGEST_FILE}")
        return 0
    problem = mismatches()
    print(problem or "every golden cell matches")
    return 1 if problem else 0


if __name__ == "__main__":
    sys.exit(main())
