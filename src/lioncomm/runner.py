"""End-to-end experiment runner: toy training and the quantizer benchmark.

Training runs the teacher-student workload under distributed Lion with a
configurable vote algorithm, quantizer, momentum-sync policy, and noise
spec.  Per-step metrics (loss, tie rate, sign match/flip against the
full-precision aggregate, per-layer momentum divergence) stream to CSV;
a JSON report captures the resolved config, summary statistics, and phase
wall-clock breakdown.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
import time
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from . import collectives as coll
from .collectives import Topology, run_ranks
from .errors import CollectiveError, ConfigError, check_int, check_real
from .optimizer import (VOTE_ALGOS, LionHyper, SyncPolicy, WorkerState,
                        distributed_lion_step, hash_params,
                        maybe_sync_momentum, momentum_divergence)
from .quant import INF, QuantSpec, SignPolicy, vote_input
from .transport import SocketTransport
from .workloads import (MlpModel, NoiseSpec, init_mlp, noisy_client_grads,
                        synth_update_vectors, teacher_student_batch)


# -------------------------------------------------------------- run config

# ``train`` keys that are RunConfig's own; the rest are LionHyper's fields.
LOOP_KEYS = ("steps", "batch_size", "clients")
TRAIN_KEYS = LOOP_KEYS + tuple(f.name for f in fields(LionHyper))


def _keys(path: str, doc, known) -> dict:
    """A copy of the config object at ``path`` ("" at the top level); a key
    outside ``known`` is a ``ConfigError`` naming its path (``train.stepz``)."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{path or 'the config'} must be an object, got {doc!r}")
    unknown = [f"{path}.{key}".lstrip(".") for key in doc if key not in known]
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]}")
    return dict(doc)


def _build(cls, path: str, doc, **defaults):
    """``cls`` from the config object at ``path``, whose keys are the fields
    of ``cls``; a bad value is a ``ConfigError`` naming its path."""
    kwargs = {**defaults, **_keys(path, doc, [f.name for f in fields(cls)])}
    try:
        return cls(**kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{path}.{exc}") from None


@dataclass
class RunConfig:
    """A training run.  ``from_dict`` reads its JSON config, whose sections
    are the keyword arguments of the dataclasses they build, so every
    default is written once, as a field default; ``to_dict`` writes the
    resolved config back in that shape."""

    model: MlpModel = MlpModel()
    steps: int = 500
    batch_size: int = 64
    clients: int = 8
    hyper: LionHyper = LionHyper()
    quant: QuantSpec | None = QuantSpec()  # None = full precision; bits=1 = sign
    algo: str = "direct"
    sync: SyncPolicy = SyncPolicy()
    noise: NoiseSpec = NoiseSpec()
    seed: int = 0
    metrics_every: int = 1

    def __post_init__(self):
        for name in LOOP_KEYS + ("metrics_every",):
            check_int(name, getattr(self, name), 1)
        check_int("seed", self.seed, 0)
        if not isinstance(self.algo, str) or self.algo not in VOTE_ALGOS:
            raise ConfigError(f"unknown algo {self.algo!r}")
        if self.algo == "compressed1bit":  # it votes the signs of c, always
            self.quant = QuantSpec(bits=1)
        elif self.algo == "direct" and self.quant is None:
            raise ConfigError("algo 'direct' sums integer votes: it cannot "
                              "run with quant.kind 'none'")
        if not isinstance(self.sync.layers, str):
            unknown = sorted(self.sync.layers - set(self.model.layer_sizes))
            if unknown:
                raise ConfigError(f"sync.layers names no layer: {unknown}")

    @classmethod
    def from_dict(cls, doc: dict) -> "RunConfig":
        try:
            top = _keys("", doc, ("model", "train", "quant", "algo", "sync",
                                  "noise", "seed", "metrics_every"))
            train = _keys("train", top.pop("train", {}), TRAIN_KEYS)
            noise = top.pop("noise", {})
            cfg = cls(model=_build(MlpModel, "model", top.pop("model", {})),
                      hyper=_build(LionHyper, "train", {
                          k: v for k, v in train.items() if k not in LOOP_KEYS}),
                      quant=parse_quant(top.pop("quant", {})),
                      sync=_build(SyncPolicy, "sync", top.pop("sync", {})),
                      **{k: train[k] for k in LOOP_KEYS if k in train}, **top)
            return replace(cfg, noise=_build(NoiseSpec, "noise", noise,
                                             per_client_seed=cfg.seed + 1000))
        except (AttributeError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid run config: {exc}") from exc

    def to_dict(self) -> dict:
        """The resolved config, which ``from_dict`` reads back to an equal
        RunConfig."""
        doc, q = asdict(self), self.quant
        doc["train"] = {**{k: doc.pop(k) for k in LOOP_KEYS}, **doc.pop("hyper")}
        if q is None or q == QuantSpec(bits=1):
            doc["quant"] = {"kind": "none" if q is None else "sign"}
        else:  # JSON has no inf: L-inf is written as from_dict reads it
            doc["quant"] = {"kind": "lp", **doc["quant"],
                            "norm_p": "inf" if q.norm_p == INF else q.norm_p}
        if not isinstance(self.sync.layers, str):
            doc["sync"]["layers"] = sorted(self.sync.layers)
        return doc


def parse_quant(doc: dict) -> QuantSpec | None:
    """The ``quant`` config object: ``{"kind": "sign"}`` (1-bit signs) and
    ``{"kind": "none"}`` (full precision) take no other key; ``lp``, the
    default kind, takes the ``QuantSpec`` fields, with ``norm_p`` also
    "inf" and then stochastic rounding by default."""
    kw = _keys("quant", doc, ["kind"] + [f.name for f in fields(QuantSpec)])
    kind = kw.pop("kind", "lp")
    if kind in ("sign", "none"):
        _keys("quant", kw, ())
        return QuantSpec(bits=1) if kind == "sign" else None
    if kind != "lp":
        raise ConfigError(f"quant.kind must be 'lp', 'sign' or 'none', "
                          f"got {kind!r}")
    if kw.get("norm_p") in ("inf", "infinity", INF):
        kw["norm_p"] = INF
        kw.setdefault("rounding", "stochastic")
    return _build(QuantSpec, "quant", kw)


# Defaults of every run-config key, in ``from_dict``'s shape.
DEFAULT_CONFIG = RunConfig.from_dict({}).to_dict()


# ------------------------------------------------------------ worker loop

def _match_flip(vs: np.ndarray, ref: np.ndarray) -> tuple[float, float]:
    """Fractions of coordinates whose voted sign equals the nonzero
    reference sign (match), and that are strictly opposite (flip)."""
    match = int(np.count_nonzero((vs == ref) & (vs != 0)))
    flip = int(np.count_nonzero((vs == -ref) & (vs != 0) & (ref != 0)))
    return match / vs.size, flip / vs.size


def train_worker(topo: Topology, cfg: RunConfig) -> dict:
    """One rank's full training loop; returns rank-local rows and timings.
    Each stream is made once per run and drawn in step order: the batch
    stream (seed, 3) on every rank; per rank, the noise stream
    (per_client_seed, rank) and, for a spec that draws, the rounding
    stream (seed, 4, rank)."""
    teacher = init_mlp(cfg.model, np.random.default_rng([cfg.seed, 1]))
    student = init_mlp(cfg.model, np.random.default_rng([cfg.seed, 2]))
    batch_rng = np.random.default_rng([cfg.seed, 3])
    noise_rng = np.random.default_rng([cfg.noise.per_client_seed, topo.rank])
    round_rng = (np.random.default_rng([cfg.seed, 4, topo.rank])
                 if cfg.quant is not None and cfg.quant.draws else None)
    state = WorkerState.initial(student)
    layers = sorted(student)

    rows: list[dict] = []
    phase = {"compute": [], "quantize_pack": [], "communicate": []}
    n_total = sum(v.size for v in student.values())

    for t in range(1, cfg.steps + 1):
        t0 = time.perf_counter()
        loss, clean = teacher_student_batch(state.params, teacher, cfg.model,
                                            cfg.batch_size, batch_rng)
        grads = noisy_client_grads(clean, cfg.noise, noise_rng)
        t1 = time.perf_counter()

        info: dict = {}
        state = distributed_lion_step(state, grads, cfg.hyper, cfg.quant, topo,
                                      cfg.algo, rng=round_rng, metrics_out=info)
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
    """The run's report; ``rows`` and every phase's list are never empty,
    since a run has at least one step and its last step writes a row."""
    summary = {
        "final_loss": rows[-1]["loss"],
        "mean_tie_rate": float(np.mean([r["tie_rate"] for r in rows])),
        "mean_sign_match": float(np.mean([r["sign_match"] for r in rows])),
        "mean_flip_rate": float(np.mean([r["flip_rate"] for r in rows])),
        "phase_seconds": {
            name: {"mean": float(np.mean(vals)),
                   "p95": float(np.percentile(vals, 95))}
            for name, vals in phase.items()
        },
    }
    return {
        "config": cfg.to_dict(),
        "summary": summary,
        "environment": {"world_size": world_size, "transport": transport},
        "final_params_hash": params_hash,
    }


def write_outputs(out_dir: str, cfg: RunConfig, result: dict,
                  world_size: int, transport: str) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    rows = result["rows"]
    with open(os.path.join(out_dir, "metrics.csv"), "w", newline="") as f:
        # Every row has the first row's keys, in the order train_worker
        # writes them.
        writer = csv.DictWriter(f, fieldnames=list(rows[0]))
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
        # The lp variants vote at the run's bits; "1bit" is {"kind": "sign"}.
        spec = parse_quant(doc if "kind" in doc else {**doc, "bits": bits})
        rng = np.random.default_rng(np.random.SeedSequence([seed, 77]))
        q = [vote_input(c, spec, policy, rng) for c in updates]
        match, flip = _match_flip(np.sign(np.sum(np.stack(q), axis=0)), ref)
        rows.append({"quantizer": variant, "sign_match_rate": match,
                     "flip_rate": flip})
    return rows


def run_quant_bench(doc: dict) -> list[dict]:
    try:
        doc = _keys("", doc, ("d", "workers", "bits", "seed", "dist", "variants",
                              "common_weight", "outlier_count", "outlier_ratio"))
        d = check_int("d", doc.get("d", 100_000), 1)
        workers = check_int("workers", doc.get("workers", 8), 1)
        bits = check_int("bits", doc.get("bits", 8), 1, 32)
        seed = check_int("seed", doc.get("seed", 0), 0)
        dist = doc.get("dist", "laplace_with_outliers")
        variants = doc.get("variants", list(BENCH_VARIANTS))
        if not isinstance(variants, list):
            raise ConfigError(f"variants must be a list of names: {variants!r}")
        # Only the keys given: an omitted one takes its parameter default.
        shape = {key: check(key, doc[key]) for key, check in (
            ("common_weight", check_real),
            ("outlier_count", lambda key, n: check_int(key, n, 0)),
            ("outlier_ratio", check_real)) if key in doc}
        rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
        updates = make_worker_updates(workers, d, dist, rng, **shape)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid quant-bench config: {exc}") from exc
    return quant_bench(updates, bits, seed=seed, variants=variants)


def write_bench_csv(rows: list[dict], path: str):
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=BENCH_CSV_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
