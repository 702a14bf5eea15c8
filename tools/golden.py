"""Golden digests of ``lioncomm train``: the byte-identity contract as data.

    python tools/golden.py           # check this tree against both files
    python tools/golden.py --write   # regenerate both digest files in tests/

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

``tests/golden_quant_digests.json`` holds one digest per quantizer spec:
bits {2, 4, 8, 16} x norm_p {0, 1, 2, inf} x rounding x log_transform x
no_zero, 128 specs.  Each digest covers ``quant.quantize``'s outputs on
four seeded inputs (heavy-tailed with outliers and exact zeros, one
spanning two ``quant.BLOCK`` blocks, all zeros, tiny values) for each of
``QUANT_SEEDS``, and the state of the rounding generator after each call.

Both files record the Python and numpy versions they were written with:
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
from lioncomm.quant import INF, QuantSpec, quantize  # noqa: E402

DIGEST_FILE = os.path.join(ROOT, "tests", "golden_digests.json")
QUANT_DIGEST_FILE = os.path.join(ROOT, "tests", "golden_quant_digests.json")

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


QUANT_SEEDS = (0, 1, 2)
QUANT_NORMS = {"0": 0.0, "1": 1.0, "2": 2.0, "inf": INF}


def quant_specs() -> dict[str, QuantSpec]:
    """Spec name (``b8/p1/nearest/log0/nz0``) -> every ``QuantSpec`` of the
    grid."""
    return {f"b{bits}/p{p}/{rounding}/log{int(log)}/nz{int(nz)}": QuantSpec(
                bits=bits, norm_p=norm, rounding=rounding, log_transform=log,
                no_zero=nz)
            for bits in (2, 4, 8, 16) for p, norm in QUANT_NORMS.items()
            for rounding in ("nearest", "stochastic")
            for log in (False, True) for nz in (False, True)}


def quant_inputs(seed: int) -> list[np.ndarray]:
    """The vectors each spec quantizes at ``seed``."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 23]))
    heavy = rng.laplace(size=577)
    heavy[rng.choice(577, size=4, replace=False)] = 1e3 * rng.choice(
        [-1.0, 1.0], size=4)
    heavy[rng.choice(577, size=20, replace=False)] = 0.0
    heavy[0] = -0.0
    wide = 1e-3 * rng.standard_t(2.0, size=40_000)
    return [heavy, wide, np.zeros(5), np.array([1e-300, -3e-300, 0.0])]


def quant_digests() -> dict[str, str]:
    """Spec name -> sha256 of its outputs (dtype, shape, little-endian
    bytes) and of its generator's state after each ``quantize`` call."""
    inputs = {seed: quant_inputs(seed) for seed in QUANT_SEEDS}
    out = {}
    for name, spec in quant_specs().items():
        h = hashlib.sha256()
        for seed in QUANT_SEEDS:
            rng = np.random.default_rng(np.random.SeedSequence([seed, 24]))
            for x in inputs[seed]:
                q = quantize(x, spec, rng)
                h.update(f"{q.dtype.str}{q.shape}".encode())
                h.update(q.astype(q.dtype.newbyteorder("<")).tobytes())
                h.update(json.dumps(rng.bit_generator.state,
                                    sort_keys=True).encode())
        out[name] = h.hexdigest()
    return out


def versions() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__}


def _mismatches(path: str, got: dict, what: str) -> str | None:
    with open(path) as f:
        golden = json.load(f)
    moved = sorted(k for k in set(golden["cells"]) | set(got)
                   if golden["cells"].get(k) != got.get(k))
    if not moved:
        return None
    now = versions()
    return (f"{len(moved)} golden {what} differ: {', '.join(moved)}; written "
            f"with Python {golden['python']} and numpy {golden['numpy']}, "
            f"run with Python {now['python']} and numpy {now['numpy']}")


def mismatches() -> str | None:
    """None if every cell matches the digest file; otherwise a message naming
    the cells that moved and the recorded and running Python and numpy."""
    return _mismatches(DIGEST_FILE, digests(), "cells")


def quant_mismatches() -> str | None:
    """``mismatches`` for the quantizer-spec digests."""
    return _mismatches(QUANT_DIGEST_FILE, quant_digests(), "quantizer specs")


def _write(path: str, cells: dict):
    with open(path, "w") as f:
        json.dump({**versions(), "cells": cells}, f, indent=1, sort_keys=True)
        f.write("\n")
    print(f"wrote {path}")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true",
                    help="rewrite both digest files under tests/")
    args = ap.parse_args(argv)
    if args.write:
        _write(DIGEST_FILE, digests())
        _write(QUANT_DIGEST_FILE, quant_digests())
        return 0
    problems = [p for p in (mismatches(), quant_mismatches()) if p]
    print("\n".join(problems) or "every golden cell and quantizer spec matches")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
