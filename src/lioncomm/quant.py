"""Quantization of update vectors and sign-bit packing.

The central piece is ``quantize``, an L_p-normalized integer quantizer:
instead of scaling by the max-norm (which a single outlier can blow up),
values are scaled by the mean p-norm, so heavy-tailed inputs keep most of
their resolution.  ``vote_input`` decides what a worker votes with under a
spec, in [-qmax, qmax], and ``choose_lane_bits`` which signed lane
(``LANE_DTYPES``) holds a sum of such votes.  ``pack``/``unpack`` turn
{-1, +1} sign vectors into bare ``np.packbits(..., bitorder="little")``
bytes for the 1-bit wire; ``pack_ints``/``unpack_ints`` do the same for
signed 2- and 4-bit integer fields, the sub-byte lanes of the integer votes.
Both packers take a 2-D block too and pack it row by row, each row to
whole bytes, so one call encodes a collective phase's frames back to back.

The sign path stays in narrow dtypes: ``apply_sign``, ``unpack`` and
``unpack_ints`` return int8, and ``quantize`` returns the narrowest signed
dtype that holds its range.  A packed payload carries no count, width or
header: the receiver knows the count, ``unpack`` rejects a payload that is
not ceil(count/8) bytes (``unpack_ints``: ceil(count*bits/8)), and
``Topology.recv`` rejects a frame of the wrong length first.  Two counts
that pack to the same number of bytes are not told apart.

The elementwise chains of a step run in blocks of ``BLOCK`` elements
(``blocks(n)``): ``sround`` here and the Lion arithmetic in ``optimizer``.
A block's operands stay in cache across the numpy calls applied to them,
and no full-length temporary is made per operation.  Each block applies
the whole-array formula's operations in its order, and ``sround`` draws in
element order, so the results and the generator's state are bit for bit
those of the whole-array formulas.

The full-length float arrays of a step (c, the new momentum and
parameters in ``optimizer``, ``scaled`` in ``quantize``) come from
``pooled`` instead of ``np.empty`` once they exceed ``BLOCK`` elements.  The
pool hands an array out again only when nothing outside it references the
array, so a step reuses the pages its predecessors dropped rather than
having the kernel fault in and zero new ones.
"""

from __future__ import annotations

import functools
import math
import sys
import threading
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import (CapacityError, ConfigError, PackFormatError,
                     PackRangeError, check_bool, check_int, check_real)

# Sentinel accepted for QuantSpec.norm_p alongside float("inf").
INF = float("inf")

# Elements per block of the blocked kernels: 2^15 float64 values are
# 256 KiB.  Of 2^14 to 2^17, 2^15 gave the least CPU time per step of a
# 1,000,003-element layer at P=4 on a 2-core Xeon with 2 MiB of L2 a core.
BLOCK = 1 << 15


@dataclass(frozen=True)
class QuantSpec:
    """Configuration of the integer quantizer.

    bits: 1 (votes signs) to 32 (``quantize`` levels span [-qmax, qmax]).
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
        check_int("bits", self.bits, 1, 32)
        if not check_real("norm_p", self.norm_p) >= 0:
            raise ConfigError(f"norm_p must be 0, positive, or inf: {self.norm_p}")
        if self.rounding not in ("nearest", "stochastic"):
            raise ConfigError(f"rounding {self.rounding!r} is not nearest or stochastic")
        check_bool("log_transform", self.log_transform)
        check_bool("no_zero", self.no_zero)

    @functools.cached_property
    def qmax(self) -> int:
        """Vote range [-qmax, qmax]: 2^(bits-1) - 1, or 1 for signs."""
        return max(1, 2 ** (self.bits - 1) - 1)

    @property
    def draws(self) -> bool:
        """Whether ``vote_input`` can draw from its generator under this spec:
        only stochastic rounding does, and a 1-bit spec votes signs."""
        return self.bits > 1 and self.rounding == "stochastic"


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
    # The sum and division ``np.mean`` makes, without its Python wrapper;
    # at p = 1 both powers are the identity and are skipped.
    if p == 1:
        return float(m * (np.add.reduce(a / m) / a.size))
    return float(m * (np.add.reduce((a / m) ** p) / a.size) ** (1.0 / p))


@functools.lru_cache(maxsize=256)
def blocks(n: int) -> tuple[slice, ...]:
    """Slices that cover ``range(n)`` in order, ``BLOCK`` elements each but
    the last: one slice for n <= ``BLOCK``, none for n = 0.  Cached, since
    a run asks for the same few layer sizes at every step."""
    return tuple(slice(lo, lo + BLOCK) for lo in range(0, n, BLOCK))


# (shape, dtype) -> [sentinel, arrays...]: every array ``pooled`` has made
# for that key, after an object that nothing else ever references.
_POOL: dict[tuple, list] = {}
_POOL_LOCK = threading.Lock()


def pooled(shape: tuple, dtype) -> np.ndarray:
    """An uninitialized array, like ``np.empty``: one from the pool that
    nothing outside it references, else a new one that joins the pool.

    An array is free when its reference count equals the sentinel's, read
    the same way in the same loop, so however the interpreter counts the
    loop's own references, a held array never reads as free.  A view holds
    its base, so an array with a live view is in use; a weak reference or a
    raw data pointer does not count.  A key's pool grows only when all its
    arrays are in use, so it holds at most as many as were ever alive at
    once, for the life of the process.  Arrays of at most ``BLOCK``
    elements come from ``np.empty`` and never enter the pool.
    """
    if math.prod(shape) <= BLOCK:
        return np.empty(shape, dtype)
    with _POOL_LOCK:
        held = _POOL.setdefault((shape, np.dtype(dtype)), [object()])
        free = None
        for a in held:                  # held[0] is the sentinel
            refs = sys.getrefcount(a)
            if free is None:
                free = refs
            elif refs == free:
                return a
        a = np.empty(shape, dtype)
        held.append(a)
        return a


def sround(v: Union[float, np.ndarray], rng: np.random.Generator,
           dtype=np.int64) -> np.ndarray:
    """Stochastic rounding, unbiased in expectation.

    Rounds down with probability ceil(v) - v, up otherwise, elementwise, to
    integers of ``dtype``, which must hold floor(v) and ceil(v).  Runs block
    by block in C order with ``rng.random(out=...)``, so it draws the numbers
    one ``rng.random(v.shape)`` call would and leaves ``rng`` in its state.
    """
    v = np.asarray(v, dtype=np.float64)
    flat = v.reshape(-1)
    q = np.empty(flat.size, dtype)
    lo = np.empty(min(BLOCK, flat.size))
    draw = np.empty_like(lo)
    for s in blocks(flat.size):
        x, qs = flat[s], q[s]
        f, u = lo[:x.size], draw[:x.size]
        np.floor(x, out=f)
        qs[...] = f
        np.subtract(x, f, out=f)
        rng.random(out=u)
        qs += u < f
    return q.reshape(v.shape)


def _log_map(x: np.ndarray, s: float) -> np.ndarray:
    return np.sign(x) * np.log1p(np.abs(x) / s)


def quantize(x: np.ndarray, spec: QuantSpec,
             rng: np.random.Generator | None = None) -> np.ndarray:
    """Quantize a real vector to integers in [-qmax, qmax].

    Finite p:  q_i = clamp(round(qmax / (2 M_p(x)) * x_i), +-qmax).
    p = inf:   q_i = sround(qmax / max|x| * x_i)  (stochastic rounding,
               pass ``rng``; ``rounding="nearest"`` overrides for ablations).
    An all-zero input returns the all-zero vector.  The result's dtype is
    the lane of ``choose_lane_bits(1, qmax)``: int8 for bits <= 8.  A 1-bit
    spec (it votes signs) or a non-finite entry raises ``ConfigError``.
    """
    if spec.bits == 1:
        raise ConfigError("a 1-bit spec votes signs; quantize has no levels")
    x = np.asarray(x, dtype=np.float64)
    if x.size == 0:
        raise ConfigError("quantize of an empty vector")
    # A NaN or an infinity reaches the minimum or the maximum.
    lo, hi = x.min(), x.max()
    if not -INF < lo <= hi < INF:
        bad = x.size - np.count_nonzero(np.isfinite(x))
        raise ConfigError(f"cannot quantize {bad} non-finite entries")
    qmax = spec.qmax
    dtype = LANE_DTYPES[choose_lane_bits(1, qmax)]

    y = x
    if spec.log_transform:
        log_scale = lp_mean_norm(x, 1.0)
        if log_scale > 0:
            y = _log_map(x, log_scale)

    if y is x and spec.norm_p == INF:
        m = float(max(-lo, hi))         # max |x|, with no |x| temporary
    else:
        m = lp_mean_norm(y, spec.norm_p)
    if m == 0:
        q = np.zeros(x.shape, dtype=dtype)
    else:
        # Rounding is monotone and fixes integers, so clamping first gives
        # the integers clamping the rounded values would, already in range
        # for ``dtype``; sround draws one number per element either way.
        # M maps to qmax for p = inf, 2M for finite p.  Plain ufuncs, not
        # the ``np.clip``/``np.round`` wrappers: the same values without
        # the wrappers' Python dispatch.
        scaled = np.multiply(qmax / (m if spec.norm_p == INF else 2.0 * m),
                             y, out=pooled(y.shape, np.float64))
        np.maximum(scaled, -qmax, out=scaled)
        np.minimum(scaled, qmax, out=scaled)
        if spec.rounding == "stochastic":
            if rng is None:
                raise ConfigError("stochastic rounding needs an rng")
            q = sround(scaled, rng, dtype)
        else:
            q = np.rint(scaled, out=scaled).astype(dtype)

    if spec.no_zero:
        fix = (q == 0) & (x != 0)
        q = np.where(fix, np.sign(x).astype(dtype), q)
    return q


def apply_sign(x: np.ndarray, policy: SignPolicy) -> np.ndarray:
    """Elementwise sign as int8 in {-1, 0, +1}, zeros resolved by the policy.

    Both -0.0 and +0.0 count as zero.  A NaN has no sign, so any NaN in a
    floating-point input raises ``ConfigError``.
    """
    x = np.asarray(x)
    # A NaN reaches the minimum; the NaNs are counted only to raise.
    if x.dtype.kind == "f" and x.size and math.isnan(x.min()):
        nans = int(np.count_nonzero(np.isnan(x)))
        raise ConfigError(f"cannot take the sign of {nans} NaN entries")
    if policy.mode == "alternating":
        # Zeros take the fill sign, so one comparison decides every entry.
        if policy.zero_fill() > 0:
            return 1 - 2 * (x < 0).view(np.int8)
        return 2 * (x > 0).view(np.int8) - 1
    return (x > 0).view(np.int8) - (x < 0).view(np.int8)


def vote_input(c: np.ndarray, spec: QuantSpec | None, policy: SignPolicy,
               rng: np.random.Generator | None = None) -> np.ndarray:
    """What a worker votes with under ``spec``: ``c`` itself for None, its
    signs for a 1-bit spec, its ``quantize`` integers otherwise."""
    if spec is None:
        return c
    if spec.bits == 1:
        return apply_sign(c, policy)
    return quantize(c, spec, rng=rng)


def _rows(values) -> np.ndarray:
    """``values`` as a block of rows: a 2-D array as it is, anything else
    as one row."""
    a = np.asarray(values)
    return a if a.ndim == 2 else a.reshape(1, -1)


def pack(signs: np.ndarray) -> bytes:
    """Bare sign bits of a {-1, +1} vector: +1 is a set bit, element 0 the
    low bit of byte 0, ceil(n/8) bytes with no header.  A 2-D block packs
    row by row, each row to whole bytes; an error's index is in the
    flattened block."""
    signs = _rows(signs)
    bad = np.abs(signs) != 1
    if bad.any():
        i = int(np.argmax(bad))
        raise PackRangeError(i, signs.flat[i].item())
    return np.packbits(signs > 0, axis=-1, bitorder="little").tobytes()


# Byte value -> its eight signs, low bit first: one table row per payload
# byte is a single numpy call, where unpacking the bits and mapping them to
# +-1 takes three.
_BYTE_SIGNS = 2 * np.unpackbits(np.arange(256, dtype=np.uint8)[:, None],
                                axis=1, bitorder="little").view(np.int8) - 1


def unpack(payload, count: int) -> np.ndarray:
    """Exact inverse of ``pack``: ``count`` signs as int8 in {-1, +1}.

    The payload must be exactly ceil(count/8) bytes.
    """
    expected = (count + 7) // 8
    if len(payload) != expected:
        raise PackFormatError(
            f"payload is {len(payload)} bytes, expected {expected} "
            f"for {count} signs")
    return _BYTE_SIGNS.take(np.frombuffer(payload, dtype=np.uint8),
                            axis=0).reshape(-1)[:count]


# Signed lane width -> the dtype its values are summed in.  The 2- and
# 4-bit lanes sum in int8 and travel as ``pack_ints`` fields.
LANE_DTYPES = {2: np.int8, 4: np.int8, 8: np.int8, 16: np.int16, 32: np.int32}


@functools.lru_cache(maxsize=256)
def choose_lane_bits(workers: int, q_max: int) -> int:
    """Narrowest signed lane in {2, 4, 8, 16, 32} whose maximum holds the
    worst-case sum ``workers * q_max``."""
    need = workers * q_max
    for bits in LANE_DTYPES:
        if need < 1 << (bits - 1):
            return bits
    raise CapacityError(
        f"sum of {workers} values up to {q_max} exceeds a 32-bit lane")


def pack_ints(values: np.ndarray, bits: int) -> bytes:
    """Bare ``bits``-wide two's-complement fields (``bits`` 2 or 4) of an
    integer vector in [-2^(bits-1), 2^(bits-1) - 1]: element 0 in the low
    bits of byte 0, ceil(n*bits/8) bytes with the padding bits clear.  A
    2-D block packs row by row, each row to whole bytes, as ``pack``."""
    if bits not in (2, 4):
        raise ConfigError(f"packed integer fields are 2 or 4 bits, not {bits}")
    a = _rows(values)
    lo, hi = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
    if a.size and (a.min() < lo or a.max() > hi):
        i = int(np.argmax((a < lo) | (a > hi)))
        raise PackRangeError(i, a.flat[i].item(),
                             f"a {bits}-bit field ({lo}..{hi})")
    per = 8 // bits
    rows, n = a.shape
    fields = np.zeros((rows, -(-n // per) * per), dtype=np.uint8)
    np.bitwise_and(a, (1 << bits) - 1, out=fields[:, :n], casting="unsafe")
    # One field per byte; whole-word shifts gather each word's ``per``
    # fields into its low byte (a 4-byte word at 2 bits, 2 bytes at 4).
    words = fields.reshape(-1).view("<u4" if bits == 2 else "<u2")
    for k in range(per.bit_length() - 1):
        words |= words >> ((8 - bits) << k)
    return words.astype(np.uint8).tobytes()


def unpack_ints(payload, count: int, bits: int) -> np.ndarray:
    """Exact inverse of ``pack_ints``: ``count`` integers as int8.

    The payload must be exactly ceil(count*bits/8) bytes.
    """
    if bits not in (2, 4):
        raise ConfigError(f"packed integer fields are 2 or 4 bits, not {bits}")
    expected = (count * bits + 7) // 8
    if len(payload) != expected:
        raise PackFormatError(
            f"payload is {len(payload)} bytes, expected {expected} "
            f"for {count} {bits}-bit integers")
    raw = np.frombuffer(payload, dtype=np.uint8)
    # Spread each byte over a word of ``8 // bits`` bytes, field j in the top
    # bits of byte j; an arithmetic right shift then sign-extends them all.
    words = raw.astype("<u4" if bits == 2 else "<u2")
    spread = words << (8 - bits)
    shifted = np.empty_like(words)
    for j in range(2, 8 // bits + 1):
        np.left_shift(words, j * (8 - bits), out=shifted)
        spread |= shifted
    fields = spread.view(np.int8)
    fields >>= 8 - bits
    return fields[:count]
