"""Command-line entry point.

Subcommands:
  train       run the toy distributed-Lion workload from a JSON config
  quant-bench sign match/flip rates of the quantizer variants
  costmodel   alpha-beta cost sweep of the vote collectives, as CSV

Exit codes: 0 success, 2 config error, 3 collective/runtime error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import costmodel, runner
from .errors import CollectiveError, ConfigError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_COLLECTIVE = 3


def _load_config(path: str) -> dict:
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must be a JSON object, got {doc!r}")
    return doc


def _out_dir(path: str) -> str:
    """``path``, made a directory first, so an unusable ``--out`` fails
    before any work."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot use output directory {path}: {exc}") from exc
    return path


def cmd_train(args) -> int:
    doc = _load_config(args.config) if args.config else {}
    if args.seed is not None:
        doc["seed"] = args.seed
    if args.world is not None:
        doc["train"] = {**runner._keys("train", doc.get("train", {}),
                                       runner.TRAIN_KEYS),
                        "clients": args.world}
    cfg = runner.RunConfig.from_dict(doc)
    if not args.rank:  # only rank 0, or an in-process run, writes outputs
        _out_dir(args.out)
    runner.run_training(cfg, out_dir=args.out, transport=args.transport,
                        base_port=args.port, rank=args.rank)
    if not args.rank:
        print(f"wrote {os.path.join(args.out, 'metrics.csv')} and report.json")
    return EXIT_OK


def cmd_quant_bench(args) -> int:
    doc = _load_config(args.config) if args.config else {}
    if args.seed is not None:
        doc["seed"] = args.seed
    path = os.path.join(_out_dir(args.out), "quant_bench.csv")
    rows = runner.run_quant_bench(doc)
    runner.write_bench_csv(rows, path)
    for row in rows:
        print(f"{row['quantizer']:>12s}  match={row['sign_match_rate']:.4f}  "
              f"flip={row['flip_rate']:.4f}")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_costmodel(args) -> int:
    path = os.path.join(_out_dir(args.out), "costmodel.csv")
    rows = costmodel.sweep(workers=args.workers, params=args.params,
                           alphas=args.alpha, betas=args.beta,
                           word_bits=args.word_bits)
    with open(path, "w", newline="") as f:
        costmodel.write_sweep_csv(rows, f)
    print(f"wrote {path} ({len(rows)} rows)")
    return EXIT_OK


# ----------------------------------------------------------------- main

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lioncomm",
        description="Communication-efficient distributed Lion toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def out(p):
        p.add_argument("--out", default="out",
                       help="output directory (default: %(default)s)")

    def common(p):
        p.add_argument("--config", help="JSON config path")
        out(p)
        p.add_argument("--seed", type=int, default=None)

    p_train = sub.add_parser("train", help="run the toy training workload")
    common(p_train)
    p_train.add_argument("--transport", choices=("inproc", "socket"),
                         default="inproc")
    p_train.add_argument("--world", type=int, default=None,
                         help="worker count (overrides config)")
    p_train.add_argument("--rank", type=int, default=None,
                         help="run only this rank in this process (socket transport)")
    p_train.add_argument("--port", type=int, default=29400)

    p_bench = sub.add_parser("quant-bench", help="quantizer sign match/flip rates")
    common(p_bench)

    p_cost = sub.add_parser("costmodel", help="alpha-beta cost sweep CSV")
    out(p_cost)
    p_cost.add_argument("--workers", type=int, nargs="+", default=[2, 4, 8, 16])
    p_cost.add_argument("--params", type=int, nargs="+", default=[10 ** 6])
    p_cost.add_argument("--alpha", type=float, nargs="+",
                        default=[0.0, 1e-6, 1e-4])
    p_cost.add_argument("--beta", type=float, nargs="+", default=[1e-9])
    p_cost.add_argument("--word-bits", type=int, default=32)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "train": cmd_train,
        "quant-bench": cmd_quant_bench,
        "costmodel": cmd_costmodel,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CollectiveError as exc:
        print(f"collective error: {exc}", file=sys.stderr)
        return EXIT_COLLECTIVE


if __name__ == "__main__":
    sys.exit(main())
