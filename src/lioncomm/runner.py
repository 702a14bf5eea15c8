"""End-to-end experiment runner: toy training and the quantizer benchmark.

Training runs the teacher-student workload under distributed Lion with a
configurable vote algorithm, quantizer, momentum-sync policy, and noise
spec.  Per-step metrics (loss, tie rate, sign match/flip against the
full-precision aggregate, per-layer momentum divergence) stream to CSV;
a JSON report captures the config echo, summary statistics, and phase
wall-clock breakdown.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import collectives as coll
from .collectives import Topology, run_ranks
from .errors import CollectiveError, ConfigError, check_int
from .optimizer import (VOTE_ALGOS, LionHyper, SyncPolicy, WorkerState,
                        distributed_lion_step, hash_params,
                        maybe_sync_momentum, momentum_divergence)
from .quant import INF, QuantSpec, SignPolicy, vote_input
from .transport import SocketTransport
from .workloads import (MlpModel, NoiseSpec, init_mlp, noisy_client_grads,
                        synth_update_vectors, teacher_student_batch)


# -------------------------------------------------------------- run config

DEFAULT_CONFIG = {
    "model": {"in_dim": 16, "hidden": 32, "out_dim": 1},
    "train": {"steps": 500, "batch_size": 64, "clients": 8, "lr": 3e-4,
              "beta1": 0.9, "beta2": 0.99, "weight_decay": 0.0},
    "quant": {"kind": "lp", "bits": 8, "norm_p": 1.0},
    "algo": "direct",
    "sync": {"period": 0, "layers": "none"},
    "noise": {"levy_alpha": 2.0, "scale": 0.0},
    "seed": 0,
    "metrics_every": 1,
}


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for k, v in override.items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _merge(out[k], v)
        else:
            out[k] = v
    return out


@dataclass
class RunConfig:
    model: MlpModel
    steps: int
    batch_size: int
    clients: int
    hyper: LionHyper
    quant: QuantSpec | None      # None = full precision; bits=1 spec = sign
    algo: str
    sync: SyncPolicy
    noise: NoiseSpec
    seed: int
    metrics_every: int
    raw: dict = field(repr=False, default_factory=dict)

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        cfg = _merge(DEFAULT_CONFIG, doc)
        try:
            model = MlpModel(**cfg["model"])
            tr = cfg["train"]
            hyper = LionHyper(beta1=tr["beta1"], beta2=tr["beta2"],
                              lr=tr["lr"], weight_decay=tr["weight_decay"])
            quant = parse_quant(cfg["quant"])
            algo = cfg["algo"]
            if algo not in VOTE_ALGOS:
                raise ConfigError(f"unknown algo {algo!r}")
            sync = SyncPolicy(period=cfg["sync"]["period"],
                              layers=cfg["sync"]["layers"])
            if not isinstance(sync.layers, str):
                unknown = sorted(sync.layers - set(model.layer_sizes))
                if unknown:
                    raise ConfigError(f"sync.layers names no layer: {unknown}")
            seed = check_int("seed", cfg["seed"], 0)
            noise_doc = dict(cfg["noise"])
            noise_doc.setdefault("per_client_seed", seed + 1000)
            noise = NoiseSpec(**noise_doc)
            return cls(model=model, steps=check_int("steps", tr["steps"], 1),
                       batch_size=check_int("batch_size", tr["batch_size"], 1),
                       clients=check_int("clients", tr["clients"], 1),
                       hyper=hyper, quant=quant, algo=algo, sync=sync,
                       noise=noise, seed=seed,
                       metrics_every=check_int("metrics_every",
                                               cfg["metrics_every"], 1),
                       raw=cfg)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid run config: {exc}") from exc


def parse_quant(doc: dict) -> QuantSpec | None:
    kind = doc.get("kind", "lp")
    if kind == "none":
        return None
    if kind == "sign":
        return QuantSpec(bits=1)
    if kind != "lp":
        raise ConfigError(f"unknown quant kind {kind!r}")
    p = doc.get("norm_p", 1.0)
    if isinstance(p, str):
        if p not in ("inf", "infinity"):
            raise ConfigError(f"bad norm_p {p!r}")
        p = INF
    return QuantSpec(
        bits=doc.get("bits", 8), norm_p=float(p),
        rounding=doc.get("rounding", "stochastic" if p == INF else "nearest"),
        log_transform=bool(doc.get("log_transform", False)),
        no_zero=bool(doc.get("no_zero", False)),
    )


# ------------------------------------------------------------ worker loop

CSV_BASE_COLUMNS = ("step", "loss", "tie_rate", "sign_match", "flip_rate")


def metrics_columns(layer_names: list[str]) -> list[str]:
    return list(CSV_BASE_COLUMNS) + [f"div_{n}" for n in sorted(layer_names)]


def _percentile(xs: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(xs), q)) if xs else 0.0


def _match_flip(vs: np.ndarray, ref: np.ndarray) -> tuple[float, float]:
    """Fractions of coordinates whose voted sign equals the nonzero
    reference sign (match), and that are strictly opposite (flip)."""
    match = int(np.count_nonzero((vs == ref) & (vs != 0)))
    flip = int(np.count_nonzero((vs == -ref) & (vs != 0) & (ref != 0)))
    return match / vs.size, flip / vs.size


def train_worker(topo: Topology, cfg: RunConfig) -> dict:
    """One rank's full training loop; returns rank-local rows and timings."""
    teacher = init_mlp(cfg.model, np.random.default_rng(
        np.random.SeedSequence([cfg.seed, 1])))
    student = init_mlp(cfg.model, np.random.default_rng(
        np.random.SeedSequence([cfg.seed, 2])))
    state = WorkerState.initial(student)
    layers = sorted(student)

    rows: list[dict] = []
    phase = {"compute": [], "quantize_pack": [], "communicate": []}
    n_total = sum(v.size for v in student.values())

    for t in range(1, cfg.steps + 1):
        batch_rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 3, t]))
        t0 = time.perf_counter()
        loss, clean = teacher_student_batch(state.params, teacher, cfg.model,
                                            cfg.batch_size, batch_rng)
        grads = noisy_client_grads(clean, cfg.noise, topo.rank, t)
        t1 = time.perf_counter()

        info: dict = {}
        step_rng = np.random.default_rng(
            np.random.SeedSequence([cfg.seed, 4, topo.rank, t]))
        state = distributed_lion_step(state, grads, cfg.hyper, cfg.quant, topo,
                                      cfg.algo, rng=step_rng, metrics_out=info)
        state = maybe_sync_momentum(state, cfg.sync, topo)

        phase["compute"].append(t1 - t0)
        phase["quantize_pack"].append(info.get("t_quant", 0.0))
        phase["communicate"].append(info.get("t_comm", 0.0))

        if t % cfg.metrics_every == 0 or t == cfg.steps:
            # Full-precision reference aggregate (metrics only), all layers
            # in one collective.
            c_all = np.concatenate([info["c_local"][n] for n in layers])
            ref = np.sign(coll.allreduce_mean_f32(c_all, topo))
            vs = np.concatenate([info["vote_sign"][n] for n in layers])
            match, flip = _match_flip(vs, ref)
            div = momentum_divergence(state, topo)
            row = {"step": t, "loss": loss,
                   "tie_rate": info["ties"] / n_total,
                   "sign_match": match, "flip_rate": flip}
            for name in sorted(div):
                row[f"div_{name}"] = div[name]
            rows.append(row)

    return {"rows": rows, "phase": phase,
            "final_params_hash": hash_params(state.params), "state": state}


def build_report(cfg: RunConfig, rows: list[dict], phase: dict,
                 world_size: int, transport: str, params_hash: str) -> dict:
    summary = {
        "final_loss": rows[-1]["loss"] if rows else None,
        "mean_tie_rate": float(np.mean([r["tie_rate"] for r in rows])) if rows else None,
        "mean_sign_match": float(np.mean([r["sign_match"] for r in rows])) if rows else None,
        "mean_flip_rate": float(np.mean([r["flip_rate"] for r in rows])) if rows else None,
        "phase_seconds": {
            name: {"mean": float(np.mean(vals)) if vals else 0.0,
                   "p95": _percentile(vals, 95)}
            for name, vals in phase.items()
        },
    }
    return {
        "config": cfg.raw,
        "summary": summary,
        "environment": {"world_size": world_size, "transport": transport},
        "final_params_hash": params_hash,
    }


def write_outputs(out_dir: str, cfg: RunConfig, result: dict,
                  world_size: int, transport: str) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    rows = result["rows"]
    layer_names = sorted(result["state"].params)
    columns = metrics_columns(layer_names)
    with open(os.path.join(out_dir, "metrics.csv"), "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
    report = build_report(cfg, rows, result["phase"], world_size, transport,
                          result["final_params_hash"])
    with open(os.path.join(out_dir, "report.json"), "w") as f:
        json.dump(report, f, indent=2)
    return report


def _train_rank(topo: Topology, cfg: RunConfig) -> dict:
    """``train_worker``, then an in-band check that every rank ends with
    rank 0's parameters: an allgather of the SHA-256 digests as eight
    exact u32 words.  Every rank raises the same ``CollectiveError``,
    naming the first rank that differs."""
    result = train_worker(topo, cfg)
    words = np.frombuffer(bytes.fromhex(result["final_params_hash"]), dtype="<u4")
    digests = coll.allgather_f64(words, topo)
    for rank, digest in enumerate(digests):
        if not np.array_equal(digest, digests[0]):
            raise CollectiveError("parameters differ from rank 0's at the end "
                                  "of training", rank=rank, phase="final hash")
    return result


def run_training(cfg: RunConfig, out_dir: str | None = None,
                 transport: str = "inproc", base_port: int = 29400,
                 rank: int | None = None) -> dict:
    """Run the configured training on P workers: all as threads of this
    process, or only ``rank`` (socket transport; start one process per
    rank).  Returns rank 0's result, or ``rank``'s; rank 0 writes
    metrics.csv/report.json when ``out_dir`` is given.  Raises
    ``CollectiveError`` at every rank if the ranks end with different
    parameters.
    """
    world = cfg.clients
    if transport == "inproc":
        factory = None
    elif transport == "socket":
        def factory(r):
            return SocketTransport(world, r, base_port=base_port)
    else:
        raise ConfigError(f"unknown transport {transport!r}")
    if rank is None:
        result = run_ranks(world, lambda topo: _train_rank(topo, cfg),
                           transport_factory=factory)[0]
    elif factory is None:
        raise ConfigError("a single rank needs the socket transport")
    else:
        with contextlib.closing(factory(rank)) as tp:
            result = _train_rank(Topology(world, rank, tp), cfg)
    if out_dir is not None and not rank:
        write_outputs(out_dir, cfg, result, world, transport)
    return result


# ------------------------------------------------------- quantizer bench

# Quantizer variant -> its ``quant`` config at the run's bits, in row order.
BENCH_VARIANTS = {
    "1bit": {"kind": "sign"},
    "qinf": {"norm_p": "inf"},
    "qinf_nozero": {"norm_p": "inf", "no_zero": True},
    "log": {"norm_p": "inf", "log_transform": True},
    "q1": {"norm_p": 1.0},
    "q0": {"norm_p": 0.0},
}

BENCH_CSV_COLUMNS = ("quantizer", "sign_match_rate", "flip_rate")


def make_worker_updates(workers: int, d: int, dist: str,
                        rng: np.random.Generator, common_weight: float = 1.0,
                        outlier_count: int = 4,
                        outlier_ratio: float = 1e3) -> list[np.ndarray]:
    """Correlated per-worker update vectors: shared base + worker noise."""
    base = synth_update_vectors(dist, d, rng, outlier_count=outlier_count,
                                outlier_ratio=outlier_ratio)
    return [common_weight * base + rng.laplace(0.0, 1.0, size=d)
            for _ in range(workers)]


def quant_bench(updates: list[np.ndarray], bits: int, seed: int = 0,
                variants=BENCH_VARIANTS) -> list[dict]:
    """Sign match/flip of each quantizer's majority vote vs full precision.

    Reference is sign(sum_i c_i) -- what un-quantized distributed Lion
    would apply.  Match counts coordinates whose voted sign equals the
    reference and is nonzero; flips are strictly opposite signs, zeros
    excluded on both sides.
    """
    ref = np.sign(np.sum(np.stack(updates), axis=0))
    policy = SignPolicy(mode="alternating", iteration=1)
    rows = []
    for variant in variants:
        doc = BENCH_VARIANTS.get(variant) if isinstance(variant, str) else None
        if doc is None:
            raise ConfigError(f"unknown quantizer variant {variant!r}")
        spec = parse_quant({**doc, "bits": bits})
        rng = np.random.default_rng(np.random.SeedSequence([seed, 77]))
        q = [vote_input(c, spec, policy, rng) for c in updates]
        match, flip = _match_flip(np.sign(np.sum(np.stack(q), axis=0)), ref)
        rows.append({"quantizer": variant, "sign_match_rate": match,
                     "flip_rate": flip})
    return rows


def run_quant_bench(doc: dict) -> list[dict]:
    try:
        d = check_int("d", doc.get("d", 100_000), 1)
        workers = check_int("workers", doc.get("workers", 8), 1)
        bits = check_int("bits", doc.get("bits", 8), 1, 32)
        seed = check_int("seed", doc.get("seed", 0), 0)
        dist = doc.get("dist", "laplace_with_outliers")
        variants = doc.get("variants", list(BENCH_VARIANTS))
        rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
        updates = make_worker_updates(
            workers, d, dist, rng,
            common_weight=float(doc.get("common_weight", 1.0)),
            outlier_count=check_int("outlier_count",
                                    doc.get("outlier_count", 4), 0),
            outlier_ratio=float(doc.get("outlier_ratio", 1e3)))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid quant-bench config: {exc}") from exc
    return quant_bench(updates, bits, seed=seed, variants=variants)


def write_bench_csv(rows: list[dict], path: str):
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=BENCH_CSV_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
