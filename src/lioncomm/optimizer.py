"""Lion and distributed Lion with quantized majority votes.

Parameters and momentum live in a ``ParamSet``: a plain dict mapping layer
names to flat float64 vectors.  Each rank owns one ``WorkerState``;
distributed steps interact only through the collectives module, and the
parameter vector stays bit-identical across ranks because every rank
applies the same aggregated sign.

``distributed_lion_step`` makes c and the new momentum in one blocked pass
over each layer and the new parameters in another after the vote
(``quant.blocks``; one block for a layer of at most ``quant.BLOCK``
elements).  Each block applies ``lion_step``'s operations in its order, so
the bits equal those of the whole-array formulas; the input state is never
written.  c, the new momentum and the new parameters of a layer of more
than ``BLOCK`` elements are arrays of ``quant.pooled``: the arrays a loop
of steps drops come back to its next step with their pages still mapped,
instead of being freed to the OS and faulted in again, zeroed (about
1,750 minor faults a ``wire`` step before, under one after).  An array
that anything outside the pool still references (a kept state, a view of
it, ``metrics_out``) is never handed out again.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, replace
from typing import Union

import numpy as np

from . import collectives as coll
from .collectives import Topology, VoteResult
from .errors import ConfigError, check_int, check_real
from .quant import (BLOCK, INF, QuantSpec, SignPolicy, blocks, pooled,
                    vote_input)

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
    lr: float = 3e-4
    weight_decay: float = 0.0

    def __post_init__(self):
        for name in ("beta1", "beta2", "lr", "weight_decay"):
            check_real(name, getattr(self, name))
        if not (0.0 < self.beta1 < 1.0 and 0.0 < self.beta2 < 1.0):
            raise ConfigError("beta1 and beta2 must be strictly inside (0, 1)")
        if not 0 < self.lr < INF:
            raise ConfigError(f"lr must be positive and finite, got {self.lr}")
        if not 0 <= self.weight_decay < INF:
            raise ConfigError(f"weight_decay must be >= 0 and finite, got "
                              f"{self.weight_decay}")

    def lr_at(self, t: int) -> float:  # the benchmark's reference reads lr here
        return self.lr


@dataclass
class WorkerState:
    params: ParamSet
    momentum: ParamSet
    iteration: int = 0

    @classmethod
    def initial(cls, params: ParamSet) -> "WorkerState":
        return cls(params={k: v.astype(np.float64) for k, v in params.items()},
                   momentum=zeros_like_params(params), iteration=0)


@dataclass(frozen=True)
class SyncPolicy:
    """When and for which layers momentum is averaged across workers.

    period = 0 disables synchronization; layers is "all", "none", or an
    explicit collection of layer names.
    """

    period: int = 0
    layers: Union[str, frozenset] = "none"

    def __post_init__(self):
        check_int("period", self.period, 0)
        if self.layers in ("all", "none"):
            return
        # A mapping, a number or a nested list is no collection of names.
        if not (isinstance(self.layers, (list, tuple, set, frozenset))
                and all(isinstance(n, str) for n in self.layers)):
            raise ConfigError(f'layers must be "all", "none", or a set of '
                              f'names, got {self.layers!r}')
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


# Vote algorithm -> the collective over a step's bucket, called as
# f(bucket, topo, spec, policy).  ``spec and spec.qmax`` is the vote's
# range, None for a full-precision vote.  ``coll.<fn>`` is looked up at
# call time, so a wrapper installed on the collectives module is seen.
VOTE_ALGOS = {
    "ps": lambda b, topo, spec, policy: coll.ps_gather_broadcast(
        b, topo, spec and spec.qmax),
    "ps_efficient": lambda b, topo, spec, policy: coll.ps_gather_broadcast(
        b, topo, spec and spec.qmax, efficient=True),
    "direct": lambda b, topo, spec, policy: coll.direct_allreduce(
        b, topo, q_max=spec and spec.qmax),
    "compressed1bit": lambda b, topo, spec, policy:
        coll.compressed_allreduce_1bit(b, topo, policy),
}


def _fuse(parts: list[np.ndarray]) -> np.ndarray:
    """One flat bucket of the layers in order; a single layer passes uncopied."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _split(bucket: np.ndarray, parts: list[np.ndarray]) -> list[np.ndarray]:
    """Per-layer views of a bucket, at the offsets ``_fuse`` laid out."""
    views, lo = [], 0
    for p in parts:
        views.append(bucket[lo:lo + p.size])
        lo += p.size
    return views


def _vote(cs: list[np.ndarray], spec: QuantSpec | None, topo: Topology,
          algo: str, policy: SignPolicy, rng: np.random.Generator | None,
          timing: dict | None = None) -> tuple[list[np.ndarray], VoteResult]:
    """Quantize each layer's update on its own scale and aggregate them all
    in one collective; returns (per-layer signs, vote over the bucket)."""
    t0 = time.perf_counter()
    if algo not in VOTE_ALGOS:
        raise ConfigError(f"unknown vote algorithm {algo!r}")
    # The 1-bit collective takes the signs itself.
    bucket = _fuse(cs if algo == "compressed1bit"
                   else [vote_input(c, spec, policy, rng) for c in cs])
    t1 = time.perf_counter()
    vote = VOTE_ALGOS[algo](bucket, topo, spec, policy)
    # The 1-bit vote already is the majority sign.
    sign = (vote.values if algo == "compressed1bit"
            else coll.majority_sign(vote, policy))
    if timing is not None:
        timing["t_quant"] = t1 - t0
        timing["t_comm"] = time.perf_counter() - t1
    return _split(sign, cs), vote


def _moments(m: np.ndarray, g: np.ndarray, h: LionHyper,
             scratch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """c = beta1*m + (1-beta1)*g and the new momentum beta2*m + (1-beta2)*g
    in ``pooled`` arrays, block by block, with ``scratch`` (one block long)
    holding (1-beta)*g: the bits of ``lion_step``'s two formulas."""
    dtype = np.result_type(h.beta1, m)
    c, new_m = pooled(m.shape, dtype), pooled(m.shape, dtype)
    for s in blocks(m.size):
        ms, gs, cs, ns = m[s], g[s], c[s], new_m[s]
        w = scratch[:ms.size]
        np.multiply(h.beta1, ms, out=cs)
        np.multiply(1.0 - h.beta1, gs, out=w)
        cs += w
        np.multiply(h.beta2, ms, out=ns)
        np.multiply(1.0 - h.beta2, gs, out=w)
        ns += w
    return c, new_m


def _descend(theta: np.ndarray, sign: np.ndarray, h: LionHyper) -> np.ndarray:
    """theta - lr*(sign + wd*theta) in a ``pooled`` array, block by block,
    in ``lion_step``'s order of operations."""
    out = pooled(theta.shape, np.result_type(h.weight_decay, theta))
    for s in blocks(theta.size):
        o, th = out[s], theta[s]
        np.multiply(h.weight_decay, th, out=o)
        o += sign[s]
        o *= h.lr
        np.subtract(th, o, out=o)
    return out


def distributed_lion_step(state: WorkerState, grad_i: ParamSet, h: LionHyper,
                          spec: QuantSpec | None, topo: Topology, algo: str,
                          zero_mode: str = "alternating",
                          rng: np.random.Generator | None = None,
                          metrics_out: dict | None = None) -> WorkerState:
    """One distributed Lion step (majority vote over quantized updates).

    Per layer: c_i = beta1*m + (1-beta1)*g_i, turned into the vote
    ``quant.vote_input`` gives for ``spec`` (None = full precision, bits=1 =
    sign) on the layer's own scale.  The layers are quantized in sorted-name
    order, so stochastic rounding draws from ``rng`` in that order, and
    concatenated into one bucket that a single ``algo`` collective
    aggregates: one collective per step, whatever the number of layers.
    Every rank applies sign(c*), with zero aggregates resolved by
    ``zero_mode`` at the parity of the new iteration.  Momentum is updated
    from the local gradient only and never communicated here.

    ``metrics_out``, when given, receives per-layer "vote_sign" and
    "c_local" entries and "ties", the step's total tie count.
    """
    _check_shapes(state.params, grad_i)
    t = state.iteration + 1
    policy = SignPolicy(mode=zero_mode, iteration=t)
    names = sorted(state.params)
    scratch = np.empty(min(BLOCK, max(state.params[n].size for n in names)))
    cs, new_mom = [], {}
    for name in names:
        c, new_mom[name] = _moments(state.momentum[name], grad_i[name], h,
                                    scratch)
        cs.append(c)
    signs, vote = _vote(cs, spec, topo, algo, policy, rng, timing=metrics_out)
    new_params = {name: _descend(state.params[name], sign, h)
                  for name, sign in zip(names, signs)}
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
    """Max-over-elements population std of momentum across workers, per
    layer; 0.0 for a layer of no elements.

    The layers, fused in sorted-name order, go through one
    ``shard_exchange``: rank r takes the std of its shard, c = ceil(N/P)
    columns, and the max of each layer's overlap with it (-inf where there
    is none), and one ``allgather_f64`` of those L maxima gives every rank
    the max over ranks.  numpy reduces axis 0 row by row, so each column's
    std has the bits of a std over all P full vectors, and a NaN still
    propagates.  A rank sends (P-1)*8*(c + L) bytes, not (P-1)*8*N.
    """
    names = sorted(state.momentum)
    moms = [state.momentum[n] for n in names]
    std = coll.shard_exchange(_fuse(moms), topo).std(axis=0, ddof=0)
    peaks = np.full(len(names), -np.inf)
    lo = -topo.rank * std.size  # where the next layer starts in this shard
    for i, m in enumerate(moms):
        part = std[max(lo, 0):max(lo + m.size, 0)]
        if part.size:
            peaks[i] = part.max()
        lo += m.size
    top = np.max(coll.allgather_f64(peaks, topo), axis=0)
    return {n: float(t) if m.size else 0.0
            for n, m, t in zip(names, moms, top)}
