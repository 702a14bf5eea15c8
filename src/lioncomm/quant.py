"""Quantization of update vectors and sign-bit packing.

The central piece is ``quantize``, an L_p-normalized integer quantizer:
instead of scaling by the max-norm (which a single outlier can blow up),
values are scaled by the mean p-norm, so heavy-tailed inputs keep most of
their resolution.  ``pack``/``unpack`` turn {-1, +1} sign vectors into
bare ``np.packbits(..., bitorder="little")`` bytes for the 1-bit wire.

The sign path stays in narrow dtypes: ``apply_sign`` and ``unpack``
return int8.  A packed payload carries no count, width or header: the
receiver knows the count, ``unpack`` rejects a payload that is not
ceil(count/8) bytes, and ``Topology.recv`` rejects a frame of the wrong
length first.  Two counts that pack to the same number of bytes are not
told apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import ConfigError, PackFormatError, PackRangeError

# Sentinel accepted for QuantSpec.norm_p alongside float("inf").
INF = float("inf")


@dataclass(frozen=True)
class QuantSpec:
    """Configuration of the integer quantizer.

    bits: output levels span [-(2^(bits-1)-1), 2^(bits-1)-1].
    norm_p: 0 (geometric mean), a finite p > 0, or inf (max norm).
    rounding: "nearest" (half-to-even) or "stochastic".
    log_transform: quantize sign(x)*ln(1+|x|/s) instead of x (s = mean |x|).
    no_zero: nonzero inputs that would quantize to 0 become +/-1 instead.
    """

    bits: int = 8
    norm_p: float = 1.0
    rounding: str = "nearest"
    log_transform: bool = False
    no_zero: bool = False

    def __post_init__(self):
        if self.bits < 1:
            raise ConfigError(f"bits must be >= 1, got {self.bits}")
        if not (self.norm_p == 0 or self.norm_p > 0):
            raise ConfigError(f"norm_p must be 0, positive, or inf: {self.norm_p}")
        if self.rounding not in ("nearest", "stochastic"):
            raise ConfigError(f"unknown rounding mode {self.rounding!r}")

    @property
    def qmax(self) -> int:
        """Largest representable magnitude."""
        return 2 ** (self.bits - 1) - 1


@dataclass(frozen=True)
class SignPolicy:
    """How exact zeros are mapped when a vector is reduced to signs.

    "exact-ternary" keeps zeros.  "alternating" maps 0 -> +1 on odd
    iterations and 0 -> -1 on even ones, so persistent ties cancel over
    any even window instead of accumulating drift.
    """

    mode: str = "alternating"
    iteration: int = 0

    def __post_init__(self):
        if self.mode not in ("exact-ternary", "alternating"):
            raise ConfigError(f"unknown sign policy mode {self.mode!r}")
        if self.iteration < 0:
            raise ConfigError("iteration must be non-negative")

    def zero_fill(self) -> int:
        """Sign substituted for exact zeros ("alternating" mode only)."""
        return 1 if self.iteration % 2 == 1 else -1


def lp_mean_norm(x: np.ndarray, p: float) -> float:
    """Mean p-norm M_p(x) = (mean |x_j|^p)^(1/p).

    p = inf returns max |x_j|; p = 0 returns the p -> 0 limit, the
    geometric mean of the nonzero |x_j| (0 if all entries are zero).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise ConfigError("lp_mean_norm of an empty vector")
    a = np.abs(x)
    if p == INF:
        return float(a.max())
    if p == 0:
        nz = a[a > 0]
        if nz.size == 0:
            return 0.0
        return float(np.exp(np.mean(np.log(nz))))
    if p <= 0:
        raise ConfigError(f"invalid norm order {p}")
    # Scale out the max so large p does not overflow.
    m = a.max()
    if m == 0:
        return 0.0
    return float(m * np.mean((a / m) ** p) ** (1.0 / p))


def sround(v: Union[float, np.ndarray], rng: np.random.Generator) -> np.ndarray:
    """Stochastic rounding, unbiased in expectation.

    Rounds down with probability ceil(v) - v, up otherwise, elementwise.
    """
    v = np.asarray(v, dtype=np.float64)
    lo = np.floor(v)
    frac = v - lo
    up = rng.random(v.shape) < frac
    return (lo + up).astype(np.int64)


def _log_map(x: np.ndarray, s: float) -> np.ndarray:
    return np.sign(x) * np.log1p(np.abs(x) / s)


def _log_unmap(y: np.ndarray, s: float) -> np.ndarray:
    return np.sign(y) * s * np.expm1(np.abs(y))


def _scale(spec: QuantSpec, norm: float) -> float:
    """The magnitude that maps to qmax: M for p = inf, 2M for finite p."""
    return norm if spec.norm_p == INF else 2.0 * norm


def quantize(x: np.ndarray, spec: QuantSpec,
             rng: np.random.Generator | None = None) -> np.ndarray:
    """Quantize a real vector to integers in [-qmax, qmax].

    Finite p:  q_i = clamp(round(qmax / (2 M_p(x)) * x_i), +-qmax).
    p = inf:   q_i = sround(qmax / max|x| * x_i)  (stochastic rounding,
               pass ``rng``; ``rounding="nearest"`` overrides for ablations).
    An all-zero input returns the all-zero vector.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise ConfigError("quantize of an empty vector")
    qmax = spec.qmax

    y = x
    log_scale = None
    if spec.log_transform:
        log_scale = lp_mean_norm(x, 1.0)
        if log_scale > 0:
            y = _log_map(x, log_scale)

    m = lp_mean_norm(y, spec.norm_p)
    if m == 0 or qmax == 0:
        q = np.zeros(x.shape, dtype=np.int64)
    else:
        scaled = (qmax / _scale(spec, m)) * y
        if spec.rounding == "stochastic":
            if rng is None:
                raise ConfigError("stochastic rounding needs an rng")
            q = sround(scaled, rng)
        else:
            q = np.round(scaled).astype(np.int64)
        q = np.clip(q, -qmax, qmax)

    if spec.no_zero:
        fix = (q == 0) & (x != 0)
        q = np.where(fix, np.sign(x).astype(np.int64), q)
    return q


def dequantize(q: np.ndarray, spec: QuantSpec, norm: float,
               log_scale: float | None = None) -> np.ndarray:
    """Map quantized integers back to real values.

    ``norm`` is the M_p used at quantize time (of the log-mapped vector
    when log_transform is on, in which case ``log_scale`` is its M_1).
    """
    q = np.asarray(q, dtype=np.float64)
    qmax = spec.qmax
    if qmax == 0 or norm == 0:
        return np.zeros_like(q)
    y = q * (_scale(spec, norm) / qmax)
    if spec.log_transform:
        if log_scale is None:
            raise ConfigError("dequantize of a log-transformed vector needs log_scale")
        return _log_unmap(y, log_scale)
    return y


def apply_sign(x: np.ndarray, policy: SignPolicy) -> np.ndarray:
    """Elementwise sign as int8 in {-1, 0, +1}, zeros resolved by the policy.

    Both -0.0 and +0.0 count as zero.  A NaN has no sign, so any NaN in a
    floating-point input raises ``ConfigError``.
    """
    x = np.asarray(x)
    if x.dtype.kind == "f":
        nans = int(np.count_nonzero(np.isnan(x)))
        if nans:
            raise ConfigError(f"cannot take the sign of {nans} NaN entries")
    if policy.mode == "alternating":
        # Zeros take the fill sign, so one comparison decides every entry.
        if policy.zero_fill() > 0:
            return 1 - 2 * (x < 0).view(np.int8)
        return 2 * (x > 0).view(np.int8) - 1
    return (x > 0).view(np.int8) - (x < 0).view(np.int8)


def pack(signs: np.ndarray) -> bytes:
    """Bare sign bits of a {-1, +1} vector: +1 is a set bit, element 0 the
    low bit of byte 0, ceil(n/8) bytes with no header."""
    signs = np.asarray(signs).ravel()
    bad = np.abs(signs) != 1
    if bad.any():
        i = int(np.argmax(bad))
        raise PackRangeError(i, signs[i].item())
    return np.packbits(signs > 0, bitorder="little").tobytes()


def unpack(payload, count: int) -> np.ndarray:
    """Exact inverse of ``pack``: ``count`` signs as int8 in {-1, +1}.

    The payload must be exactly ceil(count/8) bytes.
    """
    expected = (count + 7) // 8
    if len(payload) != expected:
        raise PackFormatError(
            f"payload is {len(payload)} bytes, expected {expected} "
            f"for {count} signs")
    bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8), count=count,
                         bitorder="little")
    return 2 * bits.view(np.int8) - 1
