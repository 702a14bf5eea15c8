"""Closed-form latency/bandwidth (alpha-beta) costs of the vote collectives.

Cost of moving one message is alpha + beta * bits.  The four algorithms
have the closed forms below for P workers, N parameters, and b bits per
word; computational overhead (packing, summing) is deliberately excluded.
The runtime name is the ``algo`` that run configs and
``optimizer.VOTE_ALGOS`` use for the same collective.

algorithm          runtime name    latency            bandwidth
ps_naive           ps              2(P-1) a           2 P N b B
ps_efficient       ps_efficient    2 log2(P) a        3 (P-1)/P N b B
direct_allreduce   direct          2 log2(P) a        2 (P-1)/P N (log2(P)+1) B
compressed_1bit    compressed1bit  (P-1+log2(P)) a    (1 + (P-1)/P) N B
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Iterable, Sequence, TextIO

from .errors import ConfigError, check_int, check_real

ALGOS = ("ps_naive", "ps_efficient", "direct_allreduce", "compressed_1bit")

CSV_COLUMNS = ("algo", "P", "N", "alpha", "beta",
               "latency_s", "bandwidth_s", "total_s", "is_argmin")


@dataclass(frozen=True)
class CostParams:
    alpha: float            # latency, seconds per message
    beta: float             # inverse bandwidth, seconds per bit
    workers: int            # P
    params: int             # N
    word_bits: int = 32     # b

    def __post_init__(self):
        check_int("workers", self.workers, 2)
        check_int("params", self.params, 1)
        check_int("word_bits", self.word_bits, 1)
        for name in ("alpha", "beta"):
            if not 0 <= check_real(name, getattr(self, name)) < math.inf:
                raise ConfigError(f"{name} must be >= 0 and finite, got "
                                  f"{getattr(self, name)}")


def cost(algo: str, cp: CostParams) -> tuple[float, float, float]:
    """Return (latency_s, bandwidth_s, total_s) for one algorithm.

    log2 is real-valued, so non-power-of-two worker counts are allowed.
    """
    p, n, b = cp.workers, cp.params, cp.word_bits
    a, bb = cp.alpha, cp.beta
    lg = math.log2(p)
    if algo == "ps_naive":
        lat = 2 * (p - 1) * a
        bw = 2 * p * n * b * bb
    elif algo == "ps_efficient":
        lat = 2 * lg * a
        bw = 3 * ((p - 1) / p) * n * b * bb
    elif algo == "direct_allreduce":
        lat = 2 * lg * a
        bw = 2 * ((p - 1) / p) * n * (lg + 1) * bb
    elif algo == "compressed_1bit":
        lat = (p - 1 + lg) * a
        bw = (1 + (p - 1) / p) * n * bb
    else:
        raise ConfigError(f"unknown algorithm {algo!r}")
    return lat, bw, lat + bw


def sweep(workers: Sequence[int], params: Sequence[int],
          alphas: Sequence[float], betas: Sequence[float],
          word_bits: int = 32) -> list[dict]:
    """Evaluate every algorithm on the full grid.

    One row per (algo, grid point); ``is_argmin`` marks the cheapest
    algorithm at each point (ties keep the first in ALGOS order).
    """
    if not (workers and params and alphas and betas):
        raise ConfigError("sweep needs a nonempty grid")
    rows: list[dict] = []
    for p in workers:
        for n in params:
            for a in alphas:
                for b in betas:
                    cp = CostParams(alpha=a, beta=b, workers=p, params=n,
                                    word_bits=word_bits)
                    point = []
                    for algo in ALGOS:
                        lat, bw, tot = cost(algo, cp)
                        point.append({
                            "algo": algo, "P": p, "N": n,
                            "alpha": a, "beta": b,
                            "latency_s": lat, "bandwidth_s": bw,
                            "total_s": tot, "is_argmin": 0,
                        })
                    best = min(range(len(point)), key=lambda i: point[i]["total_s"])
                    point[best]["is_argmin"] = 1
                    rows.extend(point)
    return rows


def write_sweep_csv(rows: Iterable[dict], out: TextIO):
    writer = csv.DictWriter(out, fieldnames=CSV_COLUMNS)
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
