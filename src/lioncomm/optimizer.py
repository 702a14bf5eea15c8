"""Lion and distributed Lion with quantized majority votes.

Parameters and momentum live in a ``ParamSet``: a plain dict mapping layer
names to flat float64 vectors.  Each rank owns one ``WorkerState``;
distributed steps interact only through the collectives module, and the
parameter vector stays bit-identical across ranks because every rank
applies the same aggregated sign.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, replace
from typing import Mapping, Union

import numpy as np

from . import collectives as coll
from .collectives import Topology, VoteResult
from .errors import ConfigError
from .quant import QuantSpec, SignPolicy, apply_sign, quantize

ParamSet = dict[str, np.ndarray]


def zeros_like_params(params: ParamSet) -> ParamSet:
    return {k: np.zeros_like(v) for k, v in params.items()}


def hash_params(params: ParamSet) -> str:
    """Stable digest for cross-rank consistency checks."""
    h = hashlib.sha256()
    for name in sorted(params):
        h.update(name.encode())
        h.update(np.ascontiguousarray(params[name], dtype="<f8").tobytes())
    return h.hexdigest()


@dataclass(frozen=True)
class LionHyper:
    beta1: float = 0.9
    beta2: float = 0.99
    lr: float = 1e-4
    weight_decay: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.beta1 < 1.0 and 0.0 < self.beta2 < 1.0):
            raise ConfigError("beta1 and beta2 must be strictly inside (0, 1)")
        if not self.lr > 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if self.weight_decay < 0:
            raise ConfigError("weight_decay must be >= 0")

    def lr_at(self, t: int) -> float:  # the benchmark's reference reads lr here
        return self.lr


@dataclass
class WorkerState:
    params: ParamSet
    momentum: ParamSet
    iteration: int = 0

    @classmethod
    def initial(cls, params: ParamSet) -> "WorkerState":
        return cls(params={k: v.astype(np.float64).copy() for k, v in params.items()},
                   momentum=zeros_like_params(params), iteration=0)


@dataclass(frozen=True)
class SyncPolicy:
    """When and for which layers momentum is averaged across workers.

    period = 0 disables synchronization; layers is "all", "none", or an
    explicit collection of layer names.
    """

    period: int = 0
    layers: Union[str, frozenset] = "all"

    def __post_init__(self):
        if self.period < 0:
            raise ConfigError("period must be >= 0")
        if isinstance(self.layers, str):
            if self.layers not in ("all", "none"):
                raise ConfigError('layers must be "all", "none", or a set of names')
        else:
            object.__setattr__(self, "layers", frozenset(self.layers))

    def fires(self, t: int) -> bool:
        return self.period > 0 and t % self.period == 0

    def selects(self, layer: str) -> bool:
        if self.layers == "all":
            return True
        if self.layers == "none":
            return False
        return layer in self.layers


def _check_shapes(params: ParamSet, grad: ParamSet):
    if set(params) != set(grad):
        raise ConfigError(f"layer mismatch: {sorted(params)} vs {sorted(grad)}")
    for name in params:
        if params[name].shape != grad[name].shape:
            raise ConfigError(f"shape mismatch in layer {name!r}")


def lion_step(state: WorkerState, grad: ParamSet, h: LionHyper) -> WorkerState:
    """One single-worker Lion step.

    c = beta1*m + (1-beta1)*g;  theta -= lr*(sign(c) + wd*theta);
    m = beta2*m + (1-beta2)*g.  Exact zeros in c contribute no update.
    """
    _check_shapes(state.params, grad)
    t = state.iteration + 1
    eta = h.lr
    new_params: ParamSet = {}
    new_mom: ParamSet = {}
    for name, theta in state.params.items():
        g = grad[name]
        m = state.momentum[name]
        c = h.beta1 * m + (1.0 - h.beta1) * g
        new_params[name] = theta - eta * (np.sign(c) + h.weight_decay * theta)
        new_mom[name] = h.beta2 * m + (1.0 - h.beta2) * g
    return WorkerState(params=new_params, momentum=new_mom, iteration=t)


def _vote_q_max(spec: QuantSpec | None) -> int | None:
    """The range [-q_max, q_max] an integer vote declares: 1 for signs, the
    quantizer's ``qmax`` otherwise; None for a full-precision vote."""
    if spec is None:
        return None
    return 1 if spec.bits == 1 else spec.qmax


# Vote algorithm -> the collective over a step's bucket, called as
# f(bucket, topo, spec, policy).  ``coll.<fn>`` is looked up at call time,
# so a wrapper installed on the collectives module is seen.
VOTE_ALGOS = {
    "ps": lambda b, topo, spec, policy: coll.ps_gather_broadcast(
        b, topo, _vote_q_max(spec)),
    "ps_efficient": lambda b, topo, spec, policy: coll.ps_gather_broadcast(
        b, topo, _vote_q_max(spec), efficient=True),
    "direct": lambda b, topo, spec, policy: coll.direct_allreduce(
        b, topo, q_max=_vote_q_max(spec)),
    "compressed1bit": lambda b, topo, spec, policy:
        coll.compressed_allreduce_1bit(b, topo, policy),
}


def _fuse(parts: list[np.ndarray]) -> np.ndarray:
    """One flat bucket of the layers in order; a single layer passes uncopied."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _split(bucket: np.ndarray, parts: list[np.ndarray]) -> list[np.ndarray]:
    """Per-layer views of a bucket, at the offsets ``_fuse`` laid out."""
    bounds = np.cumsum([0] + [p.size for p in parts])
    return [bucket[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]


def _vote(cs: list[np.ndarray], spec: QuantSpec | None, topo: Topology,
          algo: str, policy: SignPolicy, rng: np.random.Generator | None,
          timing: dict | None = None) -> tuple[list[np.ndarray], VoteResult]:
    """Quantize each layer's update on its own scale and aggregate them all
    in one collective; returns (per-layer signs, vote over the bucket)."""
    t0 = time.perf_counter()
    if algo not in VOTE_ALGOS:
        raise ConfigError(f"unknown vote algorithm {algo!r}")
    if spec is None and algo == "direct":
        raise ConfigError("direct allreduce needs an integer QuantSpec")
    if algo == "compressed1bit" or spec is None:
        q = cs  # the 1-bit collective takes signs itself; None sums c as is
    elif spec.bits == 1:
        q = [apply_sign(c, policy) for c in cs]
    else:
        q = [quantize(c, spec, rng=rng) for c in cs]
    bucket = _fuse(q)
    t1 = time.perf_counter()
    vote = VOTE_ALGOS[algo](bucket, topo, spec, policy)
    # The 1-bit vote already is the majority sign.
    sign = (vote.values if algo == "compressed1bit"
            else coll.majority_sign(vote, policy))
    if timing is not None:
        timing["t_quant"] = t1 - t0
        timing["t_comm"] = time.perf_counter() - t1
    return _split(sign, cs), vote


def distributed_lion_step(state: WorkerState, grad_i: ParamSet, h: LionHyper,
                          spec: QuantSpec | None, topo: Topology, algo: str,
                          mask: Mapping[str, np.ndarray] | None = None,
                          zero_mode: str = "alternating",
                          rng: np.random.Generator | None = None,
                          metrics_out: dict | None = None) -> WorkerState:
    """One distributed Lion step (majority vote over quantized updates).

    Per layer: c_i = beta1*m + (1-beta1)*g_i, masked, then quantized per
    ``spec`` (None = full precision, bits=1 = sign) with the layer's own
    scale.  The layers are quantized in sorted-name order, so stochastic
    rounding draws from ``rng`` in that order, and concatenated into one
    bucket that a single ``algo`` collective aggregates: one collective per
    step, whatever the number of layers.  Every rank applies sign(c*), with
    zero aggregates resolved by ``zero_mode`` at the parity of the new
    iteration.  Momentum is updated from the local gradient only and never
    communicated here.

    ``metrics_out``, when given, receives per-layer "vote_sign" and
    "c_local" entries and "ties", the step's total tie count.
    """
    _check_shapes(state.params, grad_i)
    t = state.iteration + 1
    eta = h.lr
    policy = SignPolicy(mode=zero_mode, iteration=t)
    names = sorted(state.params)
    cs = []
    # In-place steps on fresh arrays: the same operations in the same order
    # as ``lion_step``'s formulas, so the same bits, with fewer temporaries.
    for name in names:
        c = np.multiply(h.beta1, state.momentum[name])
        c += (1.0 - h.beta1) * grad_i[name]
        if mask is not None and name in mask:
            c = np.where(mask[name], c, 0.0)
        cs.append(c)
    signs, vote = _vote(cs, spec, topo, algo, policy, rng, timing=metrics_out)
    new_params: ParamSet = {}
    new_mom: ParamSet = {}
    for name, update_sign in zip(names, signs):
        theta, m = state.params[name], state.momentum[name]
        step = np.multiply(h.weight_decay, theta)
        step += update_sign
        step *= eta
        new_params[name] = np.subtract(theta, step, out=step)
        new_mom[name] = np.multiply(h.beta2, m)
        new_mom[name] += (1.0 - h.beta2) * grad_i[name]
    if metrics_out is not None:
        metrics_out["ties"] = vote.ties
        metrics_out["vote_sign"] = dict(zip(names, signs))
        metrics_out["c_local"] = dict(zip(names, cs))
    return WorkerState(params=new_params, momentum=new_mom, iteration=t)


def maybe_sync_momentum(state: WorkerState, policy: SyncPolicy,
                        topo: Topology) -> WorkerState:
    """Average momentum across workers for selected layers at firing steps.

    The selected layers share one ``allreduce_mean_f32``.  A no-op (no
    communication at all) when the policy does not fire at the current
    iteration or selects no layer, so every rank must agree on the
    iteration count.
    """
    if not policy.fires(state.iteration):
        return state
    names = [n for n in sorted(state.momentum) if policy.selects(n)]
    if not names:
        return state
    moms = [state.momentum[n] for n in names]
    mean = coll.allreduce_mean_f32(_fuse(moms), topo).astype(np.float64)
    new_mom = dict(state.momentum)
    new_mom.update(zip(names, _split(mean, moms)))
    return replace(state, momentum=new_mom)


def momentum_divergence(state: WorkerState, topo: Topology) -> dict[str, float]:
    """Max-over-elements population std of momentum across workers, per layer.

    All layers share one ``allgather_f64``.
    """
    names = sorted(state.momentum)
    moms = [state.momentum[n] for n in names]
    std = np.stack(coll.allgather_f64(_fuse(moms), topo)).std(axis=0, ddof=0)
    return {n: float(s.max()) if s.size else 0.0
            for n, s in zip(names, _split(std, moms))}
