"""Desk-scale training problems and synthetic noise generators.

The training workload is a teacher-student tanh MLP on Gaussian inputs
with per-client heavy-tailed gradient noise drawn from a symmetric
alpha-stable family (stability 2 is Gaussian, smaller exponents have
infinite variance).  Synthetic update-vector generators feed the
quantizer benchmarks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, check_int, check_real
from .optimizer import ParamSet, _split


@dataclass(frozen=True)
class MlpModel:
    """Two-layer tanh MLP; layers are named "input" and "head".

    Each layer is stored as one flat vector: weights (row-major) followed
    by biases, so the optimizer can treat layers as opaque vectors while
    sync policies and divergence reports still address them by name.
    """

    in_dim: int = 16
    hidden: int = 32
    out_dim: int = 1

    def __post_init__(self):
        for name in ("in_dim", "hidden", "out_dim"):
            check_int(name, getattr(self, name), 1)

    @property
    def layer_sizes(self) -> dict[str, int]:
        return {
            "input": self.in_dim * self.hidden + self.hidden,
            "head": self.hidden * self.out_dim + self.out_dim,
        }

    def split(self, params: ParamSet):
        """View flat layer vectors as (W1, b1, W2, b2)."""
        p_in = params["input"]
        w1 = p_in[: self.in_dim * self.hidden].reshape(self.in_dim, self.hidden)
        b1 = p_in[self.in_dim * self.hidden:]
        p_hd = params["head"]
        w2 = p_hd[: self.hidden * self.out_dim].reshape(self.hidden, self.out_dim)
        b2 = p_hd[self.hidden * self.out_dim:]
        return w1, b1, w2, b2


def init_mlp(model: MlpModel, rng: np.random.Generator) -> ParamSet:
    """Weights ~ N(0, 1/fan_in), biases zero."""
    w1 = rng.normal(0.0, 1.0 / np.sqrt(model.in_dim),
                    size=(model.in_dim, model.hidden))
    w2 = rng.normal(0.0, 1.0 / np.sqrt(model.hidden),
                    size=(model.hidden, model.out_dim))
    return {
        "input": np.concatenate([w1.ravel(), np.zeros(model.hidden)]),
        "head": np.concatenate([w2.ravel(), np.zeros(model.out_dim)]),
    }


def mlp_forward(params: ParamSet, model: MlpModel, x: np.ndarray) -> np.ndarray:
    w1, b1, w2, b2 = model.split(params)
    return np.tanh(x @ w1 + b1) @ w2 + b2


def teacher_student_batch(student: ParamSet, teacher: ParamSet, model: MlpModel,
                          batch_size: int, rng: np.random.Generator
                          ) -> tuple[float, ParamSet]:
    """One MSE batch: x ~ N(0, I), y = teacher(x); analytic gradients."""
    x = rng.normal(size=(batch_size, model.in_dim))
    y = mlp_forward(teacher, model, x)

    w1, b1, w2, b2 = model.split(student)
    h = np.tanh(x @ w1 + b1)
    pred = h @ w2 + b2
    resid = pred - y
    # The sum and division ``np.mean`` makes, without its Python wrapper.
    loss = float(np.add.reduce(resid ** 2, axis=None) / resid.size)

    # d loss / d pred, mean over batch and output dims
    dpred = 2.0 * resid / resid.size
    dw2 = h.T @ dpred
    db2 = np.add.reduce(dpred, axis=0)
    dh = dpred @ w2.T
    dz = dh * (1.0 - h ** 2)
    dw1 = x.T @ dz
    db1 = np.add.reduce(dz, axis=0)

    grads: ParamSet = {
        "input": np.concatenate([dw1.ravel(), db1]),
        "head": np.concatenate([dw2.ravel(), db2]),
    }
    return loss, grads


@dataclass(frozen=True)
class NoiseSpec:
    """Per-client symmetric alpha-stable gradient noise.

    levy_alpha = 2 gives N(0, 2*scale^2); levy_alpha < 2 is heavy-tailed
    with infinite variance.  (Named levy_alpha: `alpha` is already taken
    by the cost model's latency term.)
    """

    levy_alpha: float = 2.0
    scale: float = 0.0
    per_client_seed: int = 0

    def __post_init__(self):
        for name in ("levy_alpha", "scale"):
            check_real(name, getattr(self, name))
        if not (0.0 < self.levy_alpha <= 2.0):
            raise ConfigError(f"levy_alpha must be in (0, 2], got {self.levy_alpha}")
        if self.scale < 0:
            raise ConfigError(f"scale must be >= 0, got {self.scale}")
        check_int("per_client_seed", self.per_client_seed, 0)


def sample_alpha_stable(spec: NoiseSpec, count: int,
                        rng: np.random.Generator) -> np.ndarray:
    """Symmetric alpha-stable draws via the Chambers-Mallows-Stuck transform.

    X = sin(aU)/cos(U)^(1/a) * (cos((1-a)U)/W)^((1-a)/a), U uniform on
    (-pi/2, pi/2), W ~ Exp(1); a = 1 degenerates to tan(U) (Cauchy).
    Exact for all a in (0, 2].
    """
    a = spec.levy_alpha
    u = rng.uniform(-np.pi / 2, np.pi / 2, size=count)
    if a == 1.0:
        return spec.scale * np.tan(u)
    w = rng.exponential(1.0, size=count)
    x = (np.sin(a * u) / np.cos(u) ** (1.0 / a)
         * (np.cos((1.0 - a) * u) / w) ** ((1.0 - a) / a))
    return spec.scale * x


def noisy_client_grads(clean: ParamSet, spec: NoiseSpec,
                       rng: np.random.Generator) -> ParamSet:
    """clean + alpha-stable noise drawn from ``rng``: one draw over all the
    layers, each layer adding its slice in sorted-name order.  Zero scale
    returns copies and draws nothing."""
    if spec.scale == 0:
        return {k: v.copy() for k, v in clean.items()}
    names = sorted(clean)
    grads = [clean[n] for n in names]
    noise = sample_alpha_stable(spec, sum(g.size for g in grads), rng)
    return {n: g + z.reshape(g.shape)
            for n, g, z in zip(names, grads, _split(noise, grads))}


def synth_update_vectors(dist: str, d: int, rng: np.random.Generator,
                         outlier_count: int = 1,
                         outlier_ratio: float = 1e3) -> np.ndarray:
    """Synthetic update vectors for quantizer benchmarking.

    dist: "laplace", "gaussian", or "laplace_with_outliers" (plants
    ``outlier_count`` entries at ``outlier_ratio`` times the Laplace scale,
    signs random).
    """
    if d < 1:
        raise ConfigError("d must be >= 1")
    if dist == "laplace":
        return rng.laplace(0.0, 1.0, size=d)
    if dist == "gaussian":
        return rng.normal(0.0, 1.0, size=d)
    if dist == "laplace_with_outliers":
        x = rng.laplace(0.0, 1.0, size=d)
        k = min(outlier_count, d)
        idx = rng.choice(d, size=k, replace=False)
        x[idx] = outlier_ratio * rng.choice([-1.0, 1.0], size=k)
        return x
    raise ConfigError(f"unknown distribution {dist!r}")
